#include "layers.h"

#include <algorithm>

#include "lds/em.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace melody;

auction::AllocationResult TimedMechanism::run(
    const auction::AuctionContext& context) {
  const auto t0 = Clock::now();
  auction::AllocationResult result = inner_.run(context);
  run_ms.push_back(ms_since(t0));
  bids += static_cast<std::int64_t>(context.workers.size());
  assignments += static_cast<std::int64_t>(result.assignments.size());
  const auto b0 = Clock::now();
  shadow_.diff(context.workers, shadow_deltas_);
  shadow_.apply(shadow_deltas_);
  book_ms.push_back(ms_since(b0));
  deltas += static_cast<std::int64_t>(shadow_deltas_.size());
  return result;
}

void TimedEstimator::observe_run(
    std::span<const auction::WorkerId> ids,
    std::span<const lds::ScoreSet> scores) {
  obs::Counter& em_runs = obs::registry().counter("estimator/em_runs");
  const std::uint64_t before = em_runs.value();
  const auto t0 = Clock::now();
  inner_.observe_run(ids, scores);
  const double ms = ms_since(t0);
  (em_runs.value() != before ? refit_run_ms : filter_run_ms).push_back(ms);
}

double TimedEstimator::estimate(auction::WorkerId id) const {
  ++run_calls_;
  if (++calls_ % 32 != 0) return inner_.estimate(id);
  const auto t0 = Clock::now();
  const double value = inner_.estimate(id);
  sampled_ms_ += ms_since(t0);
  ++sampled_;
  return value;
}

double TimedEstimator::take_estimate_ms() {
  const double ms =
      sampled_ > 0 ? sampled_ms_ / static_cast<double>(sampled_) *
                         static_cast<double>(run_calls_)
                   : 0.0;
  run_calls_ = 0;
  return ms;
}

void fold_platform_layers(const std::vector<double>& step_ms,
                          const std::vector<double>& estimate_ms,
                          const TimedMechanism& mechanism,
                          const TimedEstimator& estimator,
                          std::map<std::string, double>& out) {
  const double runs = static_cast<double>(std::max<std::size_t>(
      mechanism.run_ms.size(), 1));
  // The shadow book's work happens inside the step but is not the
  // platform's own, so it comes off every step time.
  std::vector<double> platform_step_ms;
  double step_total = 0.0;
  for (std::size_t i = 0; i < step_ms.size(); ++i) {
    const double book = i < mechanism.book_ms.size() ? mechanism.book_ms[i]
                                                     : 0.0;
    platform_step_ms.push_back(step_ms[i] - book);
    step_total += platform_step_ms.back();
  }
  double other_total = 0.0;
  for (const auto* series : {&mechanism.run_ms, &estimator.refit_run_ms,
                             &estimator.filter_run_ms, &estimate_ms}) {
    for (const double ms : *series) other_total += ms;
  }
  out["sim.step_ms"] = median(platform_step_ms);
  // Platform self time: step minus the auction and the estimator
  // (observe_run + estimate), as a per-run mean.
  out["sim.self_ms"] = std::max(0.0, step_total - other_total) / runs;
  out["auction.run_ms"] = median(mechanism.run_ms);
  out["auction.book_ms"] = median(mechanism.book_ms);
  out["auction.bids_per_run"] = static_cast<double>(mechanism.bids) / runs;
  out["auction.book_deltas_per_run"] =
      static_cast<double>(mechanism.deltas) / runs;
  out["auction.assignments_per_run"] =
      static_cast<double>(mechanism.assignments) / runs;
  out["estimators.refit_run_ms"] = median(estimator.refit_run_ms);
  out["estimators.filter_run_ms"] = median(estimator.filter_run_ms);
  out["estimators.estimate_us"] = estimator.estimate_us();

  // EM iteration counts come from the summary the estimator already
  // exports. Iteration counts are integers capped at max_iterations, so a
  // mean m bounds the capped share from below by m - (cap - 1); the bound
  // is exact when every fit is capped.
  const obs::Summary::Stats em =
      obs::registry().summary("estimator/em_iterations").stats();
  const double cap = lds::EmOptions{}.max_iterations;
  out["lds.em_fits"] = static_cast<double>(em.count);
  out["lds.em_iterations_mean"] = em.mean;
  out["lds.em_capped_share"] =
      em.count == 0 ? 0.0 : std::clamp(em.mean - (cap - 1.0), 0.0, 1.0);
}

}  // namespace perfbench
