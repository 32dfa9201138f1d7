// The benchmark workloads. Why each exists and which layers it should leave
// idle is written down in README.md beside this file.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "auction/melody_auction.h"
#include "bench.h"
#include "client.h"
#include "estimators/factory.h"
#include "layers.h"
#include "obs/metrics.h"
#include "sim/platform.h"
#include "sim/worker_model.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/shard.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace melody;

namespace {

// Scenario horizons are fixed per workload: set-up time and memory scale
// with workers x horizon, because every worker's latent trajectory is
// stored for the whole horizon.
constexpr int kLongtermHorizon = 200;
constexpr int kLongtermPopulations = 12;
constexpr int kLongtermThreads = 4;
constexpr int kIngestWorkers = 50000;
constexpr int kIngestHorizon = 100;
constexpr int kIngestMinBids = 5000;
constexpr int kIngestQualityRuns = 24;  // per shard, for the quality metrics
constexpr int kShards = 2;
constexpr int kConnections = 4;
// Requests in flight per connection in the throughput phase. With one in
// flight, throughput swung by 34% between runs on a shared 4-vCPU VM (thread
// wake-up latency); pipelined eight deep, by 10%.
constexpr int kIngestDepth = 8;
constexpr int kMigrateShard = 7;  // the last of svc_serve_cluster's 8 shards
constexpr int kMigratePrefixRuns = 40;
constexpr int kMigrateRequestsPerRun = 150;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const std::vector<sim::RunRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const sim::RunRecord& r : records) {
    const std::uint64_t fields[] = {
        static_cast<std::uint64_t>(r.run), r.estimated_utility,
        r.true_utility, r.assignments, r.qualified_workers};
    h = fnv(h, fields, sizeof fields);
    h = fnv(h, &r.estimation_error, sizeof r.estimation_error);
    h = fnv(h, &r.total_payment, sizeof r.total_payment);
  }
  return h;
}

/// Individual rationality and budget feasibility of the platform's last
/// run: every assignment pays at least the worker's true per-task cost
/// (workers bid truthfully), and the total stays within the budget.
std::string check_last_run(const sim::Platform& platform,
                           const std::unordered_map<auction::WorkerId,
                                                    double>& cost) {
  const auction::AllocationResult& result = platform.last_result();
  for (const auction::Assignment& a : result.assignments) {
    const auto it = cost.find(a.worker);
    if (it == cost.end()) return "assignment to an unknown worker";
    if (a.payment < it->second * (1.0 - 1e-9) - 1e-9) {
      return "payment below cost (not individually rational)";
    }
  }
  const double budget = platform.scenario().budget;
  if (result.total_payment() > budget * (1.0 + 1e-9) + 1e-9) {
    return "total payment over budget";
  }
  return {};
}

svc::ServiceConfig ingest_config(std::uint64_t seed) {
  svc::ServiceConfig c;
  c.scenario.num_workers = kIngestWorkers;
  c.scenario.runs = kIngestHorizon;
  c.shards = kShards;
  c.batch.min_bids = kIngestMinBids;
  c.seed = seed;
  return c;
}

/// One member shard of melody_perfsuite's svc_serve_cluster deployment
/// (1M workers over 8 shards, horizon 50, seed 2017). The deployment, and
/// so the shard's population, is fixed; the benchmark seed drives the
/// request streams. A 125k-worker population's best workers differ enough
/// between seeds to move per-run utility by several percent, which would
/// hide the changes this workload exists to catch.
svc::ServiceConfig migrate_config() {
  svc::ServiceConfig c;
  c.scenario.num_workers = 1000000;
  c.scenario.num_tasks = 2000;
  c.scenario.runs = 50;
  c.shards = 8;
  c.queue_capacity = 4096;
  c.manual_clock = true;
  c.batch.min_bids = c.scenario.num_workers * 2;
  c.seed = 2017;
  return svc::plan_shards(c)[kMigrateShard].config;
}

svc::loadgen::StreamConfig stream_of(const svc::ServiceConfig& c,
                                     std::uint64_t seed) {
  svc::loadgen::StreamConfig s;
  s.seed = seed;
  s.workers = c.scenario.num_workers;
  s.task_budget = c.scenario.budget;
  s.proto = svc::kProtoVersion;
  return s;
}

/// Output checks of a socket run: the final stats must account for every
/// accepted op, and a query_run sweep reads back every executed run. The
/// quality metrics average each shard's first kIngestQualityRuns runs:
/// how many runs execute depends on throughput, and a longer-trained
/// estimator would tie the quality figures to host speed.
void check_and_sweep(int port, const LoadReport& load, int shards,
                     std::int64_t population, Result& r) {
  for (const std::string& problem : load.problems) r.check(false, problem);
  r.check(load.ok + load.failed == load.attempted,
          "every request must end in exactly one ok or failed reply");
  svc::Request stats;
  stats.op = svc::Op::kStats;
  stats.id = 900000002;
  const svc::Response final_stats = request_batch(port, {stats})[0];
  r.check(final_stats.ok, "final stats failed");
  // The stats request itself is counted once per shard.
  const auto requests = static_cast<std::int64_t>(
      final_stats.fields.number_or("requests", -1));
  r.check(requests == load.applied + shards,
          "stats requests " + std::to_string(requests) + " != accepted " +
              std::to_string(load.applied + shards));
  const auto sessions = static_cast<std::int64_t>(
      final_stats.fields.number_or("sessions", -1));
  r.check(sessions == population + load.newcomers_registered,
          "stats sessions " + std::to_string(sessions) + " != population + " +
              "registered newcomers " +
              std::to_string(population + load.newcomers_registered));
  const auto rejects = static_cast<std::int64_t>(
      final_stats.fields.number_or("overload_rejects", -1));
  r.check(rejects == load.overloaded_replies,
          "stats overload_rejects " + std::to_string(rejects) +
              " != overloaded replies " +
              std::to_string(load.overloaded_replies));

  std::vector<svc::Request> sweep;
  for (int s = 0; s < shards; ++s) {
    const auto runs = static_cast<int>(final_stats.fields.number_or(
        "shard" + std::to_string(s) + "/runs_this_session", 0));
    r.check(runs >= load.run_cursor[static_cast<std::size_t>(s)],
            "shard " + std::to_string(s) + " ran " + std::to_string(runs) +
                " runs, fewer than the generator saw");
    for (int run = 1; run <= runs; ++run) {
      svc::Request q;
      q.op = svc::Op::kQueryRun;
      q.id = 910000000 + static_cast<std::int64_t>(sweep.size());
      q.shard = s;
      q.run = run;
      sweep.push_back(q);
    }
  }
  std::vector<double> utility;
  std::vector<double> error;
  std::size_t read_back = 0;
  // In chunks well under a shard's queue capacity, so none is refused.
  constexpr std::size_t kChunk = 32;
  for (std::size_t begin = 0; begin < sweep.size(); begin += kChunk) {
    const std::vector<svc::Request> chunk(
        sweep.begin() + static_cast<std::ptrdiff_t>(begin),
        sweep.begin() + static_cast<std::ptrdiff_t>(
                            std::min(sweep.size(), begin + kChunk)));
    for (const svc::Response& reply : request_batch(port, chunk)) {
      r.check(reply.ok, "query_run sweep: " + reply.error);
      if (!reply.ok) continue;
      ++read_back;
      if (reply.fields.number("run") > kIngestQualityRuns) continue;
      utility.push_back(reply.fields.number("true_utility"));
      error.push_back(reply.fields.number("estimation_error"));
    }
  }
  r.check(utility.size() == static_cast<std::size_t>(shards) *
                                kIngestQualityRuns,
          "fewer than " + std::to_string(kIngestQualityRuns) +
              " runs executed on some shard (a window of 20 s or more "
              "leaves room for them)");
  r.e2e["true_utility_per_run"] = mean(utility);
  r.e2e["estimation_error"] = mean(error);
  r.aliases["runs_read_back"] = static_cast<double>(read_back);
}

void fold_load(const LoadReport& load, Result& r) {
  r.attempted = load.attempted;
  r.failed = load.failed;
  r.e2e["ok_share"] =
      load.attempted > 0
          ? static_cast<double>(load.attempted - load.failed) /
                static_cast<double>(load.attempted)
          : 0.0;
  r.layers["svc.overload_rejects"] =
      static_cast<double>(load.overloaded_replies);
  r.layers["svc.retries"] = static_cast<double>(load.retries);
  for (const auto& [error, count] : load.errors) {
    r.aliases["errors: " + error] = static_cast<double>(count);
  }
}

/// The ingest workload's codec, service, router and shard-queue layers,
/// timed in process on the frames the socket run sends.
void trace_ingest_layers(const Args& args, double socket_p50_ms, Result& r) {
  const svc::ServiceConfig config = ingest_config(args.seed);
  const svc::loadgen::StreamConfig stream = stream_of(config, args.seed);
  constexpr int kPerClient = 5000;
  std::vector<svc::Request> requests;
  for (int k = 0; k < kPerClient; ++k) {
    for (int c = 0; c < kConnections; ++c) {
      svc::Request request = svc::loadgen::make_request(stream, c, k);
      if (request.op == svc::Op::kQueryRun) {
        request.shard = k % kShards;
        request.run = 1;  // every shard executes a run first
      }
      requests.push_back(std::move(request));
    }
  }
  const auto n = static_cast<double>(requests.size());
  std::vector<std::string> lines;
  for (const svc::Request& request : requests) {
    lines.push_back(svc::format_request(request));
  }
  auto t0 = Clock::now();
  std::size_t parsed = 0;
  for (const std::string& line : lines) {
    parsed += svc::parse_request(line).worker.size();
  }
  r.layers["svc.wire.decode_us"] = ms_since(t0) * 1e3 / n;
  r.check(parsed > 0, "decode produced nothing");

  // A standalone service holding the whole population applies the stream;
  // the median per-call time is the service layer's cost per op.
  svc::ServiceConfig single = config;
  single.shards = 1;
  svc::AuctionService service(single);
  svc::Request run_now;
  run_now.op = svc::Op::kRunNow;
  service.apply(run_now);
  std::vector<svc::Response> responses;
  std::vector<double> apply_us;
  responses.reserve(requests.size());
  for (const svc::Request& request : requests) {
    const auto a0 = Clock::now();
    responses.push_back(service.apply(request));
    apply_us.push_back(ms_since(a0) * 1e3);
  }
  r.layers["svc.service.apply_us"] = median(apply_us);
  t0 = Clock::now();
  std::size_t bytes = 0;
  for (const svc::Response& response : responses) {
    bytes += svc::format_response(response).size();
  }
  r.layers["svc.wire.encode_us"] = ms_since(t0) * 1e3 / n;
  r.check(bytes > 0, "encode produced nothing");

  // The router and shard queues, one request in flight at a time: the
  // admission cost of submit() and the uncontended submit-to-done trip.
  svc::ShardedService sharded(config);
  sharded.start();
  std::atomic<bool> done{false};
  std::vector<double> admit_us;
  std::vector<double> roundtrip_us;
  {
    std::atomic<bool> first{false};
    const svc::PushResult pushed =
        sharded.submit(run_now, [&first](const svc::Response&) {
          first.store(true, std::memory_order_release);
        });
    if (pushed != svc::PushResult::kOk) {
      throw std::runtime_error("in-process run_now refused");
    }
    while (!first.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  for (const svc::Request& request : requests) {
    done.store(false, std::memory_order_relaxed);
    Clock::time_point finished;
    const auto s0 = Clock::now();
    const svc::PushResult pushed = sharded.submit(
        request, [&done, &finished](const svc::Response&) {
          finished = Clock::now();
          done.store(true, std::memory_order_release);
        });
    admit_us.push_back(ms_since(s0) * 1e3);
    r.check(pushed == svc::PushResult::kOk, "in-process submit refused");
    if (pushed != svc::PushResult::kOk) break;
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    roundtrip_us.push_back(ms_between(s0, finished) * 1e3);
  }
  sharded.begin_shutdown();
  sharded.join();
  r.layers["svc.router.admit_us"] = median(admit_us);
  r.layers["svc.shard.roundtrip_us"] = median(roundtrip_us);
  r.layers["svc.loop_us"] =
      std::max(0.0, socket_p50_ms * 1e3 - median(roundtrip_us));
}

}  // namespace

std::vector<std::string> server_args(const std::string& workload,
                                     std::uint64_t seed) {
  if (workload != "ingest") return {};
  const svc::ServiceConfig c = ingest_config(seed);
  return {"--port", "0",
          "--shards", std::to_string(c.shards),
          "--workers", std::to_string(c.scenario.num_workers),
          "--runs", std::to_string(c.scenario.runs),
          "--batch-min-bids", std::to_string(c.batch.min_bids),
          "--seed", std::to_string(c.seed)};
}

Result run_ingest(const Args& args) {
  Result r;
  const svc::ServiceConfig config = ingest_config(args.seed);
  LoadConfig load_config;
  load_config.stream = stream_of(config, args.seed);
  load_config.connections = kConnections;
  load_config.shards = config.shards;
  // The median latency is measured with one request in flight per
  // connection; the throughput and the tail with kIngestDepth pipelined.
  // With one in flight, throughput hangs on thread wake-up latency and the
  // p99 on whether a request meets a run; under load both settle.
  const double half = args.seconds / 2.0;
  load_config.phases = {{1, half}, {kIngestDepth, half}};
  const LoadReport load = run_load(args.port, load_config);
  fold_load(load, r);
  check_and_sweep(args.port, load, config.shards, config.scenario.num_workers,
                  r);

  // Host noise comes in bursts of a few seconds, so each figure is the
  // median over a phase's one-second segments of that segment's statistic:
  // a burst moves only the segments it covers.
  const auto segments =
      static_cast<std::size_t>(std::max(1.0, std::round(half)));
  std::vector<std::vector<double>> light(segments);
  std::vector<std::vector<double>> loaded(segments);
  std::vector<double> ok_count(segments, 0.0);
  std::vector<double> light_ms;
  for (const Sample& s : load.samples) {
    const double into_phase = s.done_s - s.phase * half;
    const auto seg = std::min(
        segments - 1, static_cast<std::size_t>(std::max(0.0, into_phase)));
    if (s.phase == 0) {
      light_ms.push_back(s.latency_ms);
      light[seg].push_back(s.latency_ms);
    } else {
      loaded[seg].push_back(s.latency_ms);
      if (s.ok) ++ok_count[seg];
    }
  }
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    if (!light[seg].empty()) p50s.push_back(median(light[seg]));
    if (!loaded[seg].empty()) p99s.push_back(percentile(loaded[seg], 0.99));
  }
  r.e2e["ops_per_s"] = median(ok_count);
  r.e2e["op_p50_ms"] = median(p50s);
  r.e2e["op_tail_ms"] = median(p99s);
  r.aliases["ok_rps (pipelined)"] = r.e2e["ops_per_s"];
  r.aliases["req_p50_ms (one in flight)"] = r.e2e["op_p50_ms"];
  r.aliases["req_p99_ms (pipelined)"] = r.e2e["op_tail_ms"];
  r.aliases["samples"] = static_cast<double>(load.samples.size());
  if (args.trace) trace_ingest_layers(args, median(light_ms), r);
  return r;
}

Result run_longterm(const Args& args) {
  Result r;
  util::set_shared_thread_count(kLongtermThreads);
  sim::LongTermScenario scenario;
  scenario.runs = kLongtermHorizon;
  const estimators::MakeParams params{
      .initial_mu = scenario.initial_mu,
      .initial_sigma = scenario.initial_sigma,
      .reestimation_period = scenario.reestimation_period};

  // Horizon i steps population i % kLongtermPopulations; every population
  // runs at least once and population 0 at least twice, and horizons cycle
  // on until the time is up. A repeat must reproduce its population's run
  // records exactly. A traced run alternates untraced and traced passes
  // over all populations, so the tracing overhead compares the same
  // populations under the same conditions.
  struct PopulationStats {
    std::uint64_t digest = 0;
    std::vector<sim::RunRecord> records;
    std::vector<double> horizon_s;  // untraced horizons
  };
  std::vector<PopulationStats> populations(kLongtermPopulations);
  std::vector<double> setup_s;
  std::vector<double> step_p50s;  // per untraced horizon
  std::vector<double> step_p99s;
  std::vector<double> rates;
  std::vector<double> traced_rates;
  std::vector<std::map<std::string, double>> traced_layers;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const int min_horizons =
      (args.trace ? 2 : 1) * kLongtermPopulations + 1;
  for (int i = 0; i < min_horizons || Clock::now() < deadline; ++i) {
    const bool traced = args.trace && (i / kLongtermPopulations) % 2 == 1;
    PopulationStats& population =
        populations[static_cast<std::size_t>(i % kLongtermPopulations)];
    const std::uint64_t seed = util::derive_stream(
        args.seed, 0x4C4F4E47ull, static_cast<std::uint64_t>(
                                      i % kLongtermPopulations));
    const auto t0 = Clock::now();
    auto estimator = estimators::make("melody", params);
    auction::MelodyAuction mechanism;
    TimedMechanism timed_mechanism(mechanism);
    TimedEstimator timed_estimator(*estimator);
    obs::ScopedEnable on(traced);
    if (traced) obs::registry().reset();
    util::Rng population_rng(seed);
    sim::Platform platform(
        scenario,
        traced ? static_cast<auction::Mechanism&>(timed_mechanism) : mechanism,
        traced ? static_cast<estimators::QualityEstimator&>(timed_estimator)
               : *estimator,
        sim::sample_population(scenario.population_config(), population_rng),
        seed + 1);
    setup_s.push_back(ms_since(t0) / 1e3);
    std::unordered_map<auction::WorkerId, double> cost;
    for (const sim::SimWorker& w : platform.workers()) {
      cost[w.id()] = w.true_bid().cost;
    }

    std::vector<sim::RunRecord> records;
    std::vector<double> step_ms;
    std::vector<double> estimate_ms;
    double total_ms = 0.0;
    for (int run = 1; run <= kLongtermHorizon; ++run) {
      const auto s0 = Clock::now();
      records.push_back(platform.step());
      const double ms = ms_since(s0);
      total_ms += ms;
      step_ms.push_back(ms);
      if (traced) estimate_ms.push_back(timed_estimator.take_estimate_ms());
      ++r.attempted;
      const std::string violation = check_last_run(platform, cost);
      if (!violation.empty()) {
        ++r.failed;
        r.check(false, "run " + std::to_string(run) + ": " + violation);
      }
    }
    const std::uint64_t d = digest(records);
    if (population.records.empty()) {
      population.digest = d;
      population.records = std::move(records);
    } else {
      r.check(d == population.digest,
              "population " + std::to_string(i % kLongtermPopulations) +
                  ": run records differ between repeats");
    }
    const double rate = kLongtermHorizon / (total_ms / 1e3);
    if (traced) {
      traced_rates.push_back(rate);
      traced_layers.emplace_back();
      fold_platform_layers(step_ms, estimate_ms, timed_mechanism,
                           timed_estimator, traced_layers.back());
    } else {
      rates.push_back(rate);
      population.horizon_s.push_back(total_ms / 1e3);
      step_p50s.push_back(median(step_ms));
      step_p99s.push_back(percentile(step_ms, 0.99));
    }
  }

  // Throughput over the fixed population set: each population's median
  // horizon time, summed, so extra repeats do not reweight populations and
  // a burst of host noise moves only the horizons it covers.
  double horizon_total_s = 0.0;
  std::vector<double> utility;
  std::vector<double> error;
  for (const PopulationStats& population : populations) {
    horizon_total_s += median(population.horizon_s);
    for (const sim::RunRecord& rec : population.records) {
      utility.push_back(static_cast<double>(rec.true_utility));
      error.push_back(rec.estimation_error);
    }
  }
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["ok_share"] = static_cast<double>(r.attempted - r.failed) /
                      static_cast<double>(r.attempted);
  r.e2e["ops_per_s"] =
      kLongtermPopulations * kLongtermHorizon / horizon_total_s;
  r.e2e["op_p50_ms"] = median(step_p50s);
  r.e2e["op_tail_ms"] = median(step_p99s);
  r.e2e["true_utility_per_run"] = mean(utility);
  r.e2e["estimation_error"] = mean(error);
  r.e2e["peak_rss_mb"] = own_peak_rss_mb();
  r.aliases["sim_runs_per_s"] = r.e2e["ops_per_s"];
  r.aliases["horizons"] = static_cast<double>(setup_s.size());
  if (args.trace) {
    for (const auto& [name, value] : traced_layers.front()) {
      std::vector<double> values;
      for (const auto& layers : traced_layers) values.push_back(layers.at(name));
      r.layers[name] = median(values);
    }
    r.layers["trace.overhead_pct"] =
        (median(rates) / median(traced_rates) - 1.0) * 100.0;
  }
  return r;
}

Result run_migrate(const Args& args) {
  Result r;
  const svc::ServiceConfig config = migrate_config();
  const int offset = config.worker_name_offset;

  // Set-up: build the shard's service three times (the third copy is the
  // spare whose construction only feeds the median).
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<svc::AuctionService>> services;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    auto service = std::make_unique<svc::AuctionService>(config);
    setup_s.push_back(ms_since(t0) / 1e3);
    if (i < 2) services.push_back(std::move(service));
  }

  // Fixed prefix: the generated bid stream on this shard's names, with a
  // run after every kMigrateRequestsPerRun requests.
  svc::loadgen::StreamConfig stream = stream_of(config, args.seed);
  const auto global_name = [offset](std::string name) {
    if (name.size() > 1 && name[0] == 'w') {
      return "w" + std::to_string(offset + std::atoi(name.c_str() + 1));
    }
    return name;
  };
  svc::Request run_now;
  run_now.op = svc::Op::kRunNow;
  for (int k = 0; k < kMigratePrefixRuns * kMigrateRequestsPerRun; ++k) {
    svc::Request q = svc::loadgen::make_request(stream, 0, k);
    if (q.op != svc::Op::kQueryRun && q.op != svc::Op::kSubmitTasks) {
      q.worker = global_name(q.worker);
      const svc::Response reply = services[0]->apply(q);
      ++r.attempted;
      if (!reply.ok) {
        ++r.failed;
        r.check(false, "prefix request failed: " + reply.error);
      }
    }
    if (k % kMigrateRequestsPerRun == kMigrateRequestsPerRun - 1) {
      services[0]->apply(run_now);
    }
  }
  const std::vector<sim::RunRecord> prefix_runs = services[0]->records();
  if (prefix_runs.size() != static_cast<std::size_t>(kMigratePrefixRuns)) {
    throw std::runtime_error("migrate: the prefix executed " +
                             std::to_string(prefix_runs.size()) + " runs");
  }

  // The probe stream both sides of a handoff must answer identically.
  std::vector<svc::Request> probes;
  for (int k = 0; k < 64; ++k) {
    svc::Request q = svc::loadgen::make_request(stream, 1, k);
    if (q.op == svc::Op::kSubmitTasks) continue;
    if (q.op == svc::Op::kQueryRun) {
      q.run = 1 + (q.run - 1) % static_cast<int>(prefix_runs.size());
    }
    q.worker = global_name(q.worker);
    probes.push_back(q);
  }

  std::vector<double> pause_ms;
  std::vector<double> export_ms;
  std::vector<double> import_ms;
  double envelope_mb = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int cycle = 0; cycle < 3 || Clock::now() < deadline; ++cycle) {
    svc::AuctionService& from = *services[static_cast<std::size_t>(cycle % 2)];
    svc::AuctionService& to = *services[static_cast<std::size_t>(1 - cycle % 2)];
    ++r.attempted;
    const auto t0 = Clock::now();
    std::ostringstream out;
    from.save_migration(out);
    const std::string envelope = std::move(out).str();
    const auto t1 = Clock::now();
    std::istringstream in(envelope);
    try {
      to.load_migration(in);
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("load_migration: ") + e.what());
      break;
    }
    const auto t2 = Clock::now();
    export_ms.push_back(ms_between(t0, t1));
    import_ms.push_back(ms_between(t1, t2));
    pause_ms.push_back(ms_between(t0, t2));
    envelope_mb = static_cast<double>(envelope.size()) / 1e6;
    bool identical = true;
    for (const svc::Request& probe : probes) {
      const std::string expected = svc::format_response(from.apply(probe));
      identical = identical && svc::format_response(to.apply(probe)) == expected;
    }
    if (!identical) {
      ++r.failed;
      r.check(false, "cycle " + std::to_string(cycle) +
                         ": importer answered the probe stream differently");
    }
  }

  std::vector<double> utility;
  std::vector<double> error;
  for (const sim::RunRecord& rec : prefix_runs) {
    utility.push_back(static_cast<double>(rec.true_utility));
    error.push_back(rec.estimation_error);
  }
  r.e2e["setup_s"] = median(setup_s);
  r.e2e["ok_share"] = static_cast<double>(r.attempted - r.failed) /
                      static_cast<double>(r.attempted);
  r.e2e["ops_per_s"] = 1e3 / mean(pause_ms);
  r.e2e["op_p50_ms"] = median(pause_ms);
  r.e2e["op_tail_ms"] = percentile(pause_ms, 0.9);
  r.e2e["true_utility_per_run"] = mean(utility);
  r.e2e["estimation_error"] = mean(error);
  r.e2e["peak_rss_mb"] = own_peak_rss_mb();
  r.aliases["migration_pause_ms"] = r.e2e["op_p50_ms"];
  r.aliases["migrations"] = static_cast<double>(pause_ms.size());
  r.layers["ckpt.export_ms"] = median(export_ms);
  r.layers["ckpt.import_ms"] = median(import_ms);
  r.layers["ckpt.envelope_mb"] = envelope_mb;
  return r;
}

}  // namespace perfbench
