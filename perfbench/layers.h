// Timing decorators around the Mechanism and QualityEstimator that
// sim::Platform borrows. They time calls into each layer's public entry
// points from outside, so the program itself carries no benchmark spans;
// the traced run wraps the platform's collaborators in them and splits a
// Platform::step into auction, estimator and platform self time.
#pragma once

#include <cstdint>
#include <vector>

#include "auction/bid_book.h"
#include "auction/mechanism.h"
#include "bench.h"
#include "estimators/estimator.h"

namespace perfbench {

/// Times Mechanism::run and counts its inputs and outputs. A shadow bid
/// book is diffed against every run's bids and the deltas applied, which
/// times the BidBook layer on the workload's own bid stream without
/// reaching into the platform (whose book, when enabled, does the same).
class TimedMechanism final : public melody::auction::Mechanism {
 public:
  explicit TimedMechanism(melody::auction::Mechanism& inner) : inner_(inner) {}

  melody::auction::AllocationResult run(
      const melody::auction::AuctionContext& context) override;
  std::string name() const override { return inner_.name(); }
  bool supports_incremental() const override {
    return inner_.supports_incremental();
  }

  std::vector<double> run_ms;   // one sample per run
  std::vector<double> book_ms;  // shadow-book diff+apply per run
  std::int64_t bids = 0;
  std::int64_t deltas = 0;      // shadow-book deltas
  std::int64_t assignments = 0;

 private:
  melody::auction::Mechanism& inner_;
  melody::auction::BidBook shadow_;
  std::vector<melody::auction::BidDelta> shadow_deltas_;
};

/// Forwards every QualityEstimator call. observe_run is timed and split
/// into refit runs (the estimator/em_runs counter moved, which needs obs
/// collection on) and filter-only runs; every 32nd estimate() is timed.
class TimedEstimator final : public melody::estimators::QualityEstimator {
 public:
  explicit TimedEstimator(melody::estimators::QualityEstimator& inner)
      : inner_(inner) {}

  void register_worker(melody::auction::WorkerId id) override {
    inner_.register_worker(id);
  }
  void observe(melody::auction::WorkerId id,
               const melody::lds::ScoreSet& scores) override {
    inner_.observe(id, scores);
  }
  void observe_run(std::span<const melody::auction::WorkerId> ids,
                   std::span<const melody::lds::ScoreSet> scores) override;
  double estimate(melody::auction::WorkerId id) const override;
  std::string name() const override { return inner_.name(); }
  void save(std::ostream& out) const override { inner_.save(out); }
  void load(std::istream& in) override { inner_.load(in); }

  std::vector<double> refit_run_ms;
  std::vector<double> filter_run_ms;
  /// Estimated total estimate() time of the current run: sampled mean times
  /// calls. Reset by take_estimate_ms().
  double take_estimate_ms();
  double estimate_us() const {
    return sampled_ > 0 ? sampled_ms_ * 1e3 / static_cast<double>(sampled_)
                        : 0.0;
  }

 private:
  melody::estimators::QualityEstimator& inner_;
  mutable std::int64_t calls_ = 0;
  mutable std::int64_t run_calls_ = 0;
  mutable std::int64_t sampled_ = 0;
  mutable double sampled_ms_ = 0.0;
};

/// The per-layer numbers a decorated platform yields, folded into `out`
/// under the sim./auction./estimators./lds. names. `step_ms` holds one
/// Platform::step wall time per run; `estimate_ms` the matching estimated
/// estimate() time per run. The EM counts are read from the obs registry,
/// so collection must have been on (and reset) for exactly these runs.
void fold_platform_layers(const std::vector<double>& step_ms,
                          const std::vector<double>& estimate_ms,
                          const TimedMechanism& mechanism,
                          const TimedEstimator& estimator,
                          std::map<std::string, double>& out);

}  // namespace perfbench
