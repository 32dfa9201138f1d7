// Shared declarations of the benchmark driver: command-line arguments, the
// result every workload fills in, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// This process's peak resident set (VmHWM) in MB.
double own_peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int port = 0;  // socket workloads: the melody_serve port
};

/// What one workload run reports. `e2e` holds the end-to-end metrics named
/// in BENCHMARK.json (run.py fills setup_s and peak_rss_mb for the socket
/// workload, whose server it starts), `layers` the per-layer metrics of a
/// traced run, and `aliases` the same numbers under workload-specific names
/// (ok_rps, migration_pause_ms, ...), printed for people only.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, double> aliases;

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// The melody_serve arguments of the socket workload (empty for in-process
/// workloads): one source of truth for the server config, read by run.py.
std::vector<std::string> server_args(const std::string& workload,
                                     std::uint64_t seed);

Result run_longterm(const Args& args);
Result run_ingest(const Args& args);
Result run_migrate(const Args& args);

}  // namespace perfbench
