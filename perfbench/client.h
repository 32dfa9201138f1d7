// The benchmark's own load generator: one thread driving at most four
// loopback connections to melody_serve in a closed loop, with requests
// built by svc::loadgen::make_request. The measured window is a sequence of
// phases, each with its own number of requests in flight per connection
// (pipelined beyond one). A request is timed from its first send; an
// overload rejection is re-sent after its retry_after_ms hint and keeps the
// original start time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svc/loadgen.h"
#include "svc/protocol.h"

namespace perfbench {

struct Phase {
  int depth = 1;  // requests in flight per connection
  double seconds = 10.0;
};

struct LoadConfig {
  melody::svc::loadgen::StreamConfig stream;
  int connections = 4;
  int shards = 1;
  double warmup_s = 2.0;  // at the first phase's depth, not measured
  std::vector<Phase> phases;
  int max_retries = 4;
};

struct Sample {
  double latency_ms = 0.0;
  double done_s = 0.0;  // reply time, seconds since the window opened
  int phase = 0;        // the phase the request was first sent in
  bool ok = false;
};

struct LoadReport {
  std::vector<Sample> samples;  // requests first sent inside the window
  std::int64_t attempted = 0;   // distinct requests, warm-up included
  std::int64_t ok = 0;
  std::int64_t failed = 0;      // ok:false, or dropped after its retries
  std::int64_t retries = 0;
  std::int64_t overloaded_replies = 0;
  std::int64_t newcomers_registered = 0;
  /// What the final stats "requests" counter must read: one per accepted
  /// routed request, one per shard for an accepted broadcast.
  std::int64_t applied = 0;
  std::vector<std::int64_t> run_cursor;  // per shard: runs known executed
  std::map<std::string, std::int64_t> errors;  // ok:false replies by error
  std::vector<std::string> problems;           // protocol-order violations
};

/// Drive the closed loop against 127.0.0.1:port. A run_now broadcast goes
/// first so every shard has an executed run to query; query_run requests
/// are rewritten to address runs the generator knows executed.
LoadReport run_load(int port, const LoadConfig& config);

/// Send `requests` pipelined on one fresh connection and return the replies
/// in order (control traffic: run_now, stats, the query_run sweep).
std::vector<melody::svc::Response> request_batch(
    int port, const std::vector<melody::svc::Request>& requests);

}  // namespace perfbench
