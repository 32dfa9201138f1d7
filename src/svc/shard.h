// Shard planning + the per-shard runtime unit of the sharded service.
//
// A K-shard deployment splits the scenario population into K contiguous,
// independent sub-markets: shard s owns workers [offset_s, offset_{s+1}),
// its proportional slice of the per-run task load and budget, and its own
// AuctionService + ServiceLoop + (in threaded deployments) consumer thread.
// Shards never share mutable state — cross-shard aggregation happens in
// svc/router.h over immutable run records and composed checkpoints.
//
// Determinism contract: plan_shards(config)[s].config is exactly the
// ServiceConfig a standalone single-platform service would run for that
// sub-market, so a shard's trajectory is bit-identical to the standalone
// service built from the same plan. At K=1 the plan keeps the global seed
// untouched and the sharded runtime reproduces the plain AuctionService
// bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "svc/config.h"
#include "svc/loop.h"
#include "svc/service.h"

namespace melody::obs {
class Counter;
}

namespace melody::svc {

/// Salt for per-shard master seeds at K>1: shard s of a K-shard deployment
/// runs on util::derive_stream(seed, kShardSeedSalt, s). K=1 keeps the
/// global seed untouched (bit-identity with a bare AuctionService).
inline constexpr std::uint64_t kShardSeedSalt = 0x5348'4152'444D'4B59ull;

/// One shard's slice of the deployment: its index, the first global worker
/// name index it owns, and the standalone-equivalent per-shard config.
struct ShardPlan {
  int index = 0;
  int worker_offset = 0;
  ServiceConfig config;
};

/// Split `config` into config.shards per-shard configs: contiguous worker
/// ranges (the first N%K shards take one extra worker), tasks split the
/// same way, budget and any explicit batch triggers scaled by worker
/// share, per-shard seeds salted at K>1. Checkpoint ownership is lifted to
/// the router, so per-shard checkpoint_path/checkpoint_every are cleared.
/// Throws std::invalid_argument (via validate) on an unusable config.
std::vector<ShardPlan> plan_shards(const ServiceConfig& config);

/// One platform shard: an AuctionService plus its single-consumer
/// ServiceLoop and, once start() is called, the consumer thread. Tracks
/// router-level obs counters under the plan's obs_prefix namespace
/// ("shard<k>/svc/routed", "shard<k>/svc/routed_rejects"; un-prefixed at
/// K=1) — the service-level counters live under the same prefix, so one
/// shard's whole metric surface shares one namespace.
class PlatformShard {
 public:
  explicit PlatformShard(const ShardPlan& plan);
  ~PlatformShard();

  PlatformShard(const PlatformShard&) = delete;
  PlatformShard& operator=(const PlatformShard&) = delete;

  /// Enqueue a request from any thread (see ServiceLoop::try_submit).
  PushResult submit(Request request, std::function<void(const Response&)> done,
                    const obs::TraceContext& trace = {});

  /// Enqueue a control-plane task past the capacity bound.
  PushResult submit_task(std::function<void(AuctionService&)> task);

  /// Install the platform run hook: bump the per-shard run counter, then
  /// call `sink(index, record)` — the router's cross-shard aggregation.
  /// Runs on the shard's consumer thread; call before start().
  void set_run_sink(std::function<void(int, const sim::RunRecord&)> sink);

  /// Spawn the consumer thread (threaded deployments; sync drivers use
  /// poll_once instead).
  void start();
  bool started() const noexcept { return started_; }

  /// Stop accepting new requests; queued work still drains.
  void close() { loop_.close(); }

  /// Join the consumer thread if one was started. After join the service
  /// is quiescent and may be touched directly (save_state, records).
  void join();

  /// Single-threaded driving: process at most one queued envelope.
  bool poll_once(std::chrono::nanoseconds timeout) {
    return loop_.poll_once(timeout);
  }

  Response rejection(PushResult result, const Request& request) const {
    return loop_.rejection(result, request);
  }

  int index() const noexcept { return index_; }
  int worker_offset() const noexcept { return worker_offset_; }
  AuctionService& service() noexcept { return service_; }
  const AuctionService& service() const noexcept { return service_; }
  ServiceLoop& loop() noexcept { return loop_; }

 private:
  int index_;
  int worker_offset_;
  AuctionService service_;
  ServiceLoop loop_;
  std::thread thread_;
  bool started_ = false;
  // Lazily-resolved per-shard obs counters (null until first enabled use).
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejects_ = nullptr;
};

}  // namespace melody::svc
