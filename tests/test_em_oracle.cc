// Bit-identity oracle for the in-place EM refit. Production lds::fit_lds
// (in-place RTS E-step, no likelihood pass) must return exactly the params
// and iteration count of the frozen pre-change copy in perf/reference.h,
// and lds::final_posterior must equal lds::filter(...).posteriors.back()
// and throw where filter throws. The EM observability counters
// (estimator/em_capped, estimator/em_final_loglik) are checked here too:
// recorded only while collecting, and never perturbing the fit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "estimators/melody_estimator.h"
#include "lds/em.h"
#include "lds/kalman.h"
#include "lds/smoother.h"
#include "obs/metrics.h"
#include "perf/reference.h"
#include "util/rng.h"

#ifndef MELODY_TOOL_DIR
#error "MELODY_TOOL_DIR must point at the built tools directory"
#endif

namespace melody::lds {
namespace {

/// The history shapes the oracle sweeps; each stresses one branch of the
/// fit (empty runs, one run, variance floors, the |a| clamp, convergence).
enum class Shape { kPlain, kSparse, kSingleRun, kConstant, kExplosive, kConverging };
constexpr int kShapes = 6;

struct OracleCase {
  Gaussian anchor;
  ScoreHistory history;
  LdsParams init;
  EmOptions options;
};

OracleCase make_case(int index) {
  util::Rng rng(util::derive_stream(0xE40, static_cast<std::uint64_t>(index), 0));
  const auto shape = static_cast<Shape>(index % kShapes);
  OracleCase c;
  c.anchor = {rng.uniform(1.0, 9.0), rng.uniform(0.1, 4.0)};
  c.init = {rng.uniform(0.5, 1.2), rng.uniform(0.05, 2.0), rng.uniform(0.2, 4.0)};
  const int runs = shape == Shape::kSingleRun
                       ? 1
                       : static_cast<int>(rng.uniform_int(2, 60));
  const double empty_share = shape == Shape::kSparse ? 0.5 : 0.1;
  double latent = rng.uniform(2.0, 8.0);
  const double constant = rng.uniform(1.0, 10.0);
  for (int r = 0; r < runs; ++r) {
    ScoreSet set;
    if (shape == Shape::kExplosive) {
      latent *= rng.uniform(3.0, 6.0);
      set.add(latent);
    } else if (!rng.bernoulli(empty_share)) {
      latent += rng.normal(0.0, 0.4);
      const int count = static_cast<int>(rng.uniform_int(1, 5));
      for (int s = 0; s < count; ++s) {
        set.add(shape == Shape::kConstant ? constant
                                          : latent + rng.normal(0.0, 1.2));
      }
    }
    c.history.push_back(set);
  }
  switch (shape) {
    case Shape::kConstant:
      c.options.min_variance = rng.uniform(1e-4, 1e-2);
      break;
    case Shape::kExplosive:
      c.options.max_abs_a = rng.uniform(0.5, 2.0);
      break;
    case Shape::kConverging:
      c.options.max_iterations = 200;
      c.options.tolerance = 1e-8;
      break;
    default:
      break;
  }
  return c;
}

TEST(EmOracle, FitMatchesFrozenReferenceBitForBit) {
  constexpr int kCases = 240;
  int single_run = 0;
  int with_empty_runs = 0;
  int floor_hits = 0;
  int clamp_hits = 0;
  int early_stops = 0;
  for (int i = 0; i < kCases; ++i) {
    const OracleCase c = make_case(i);
    const EmResult fit = fit_lds(c.anchor, c.history, c.init, c.options);
    const perf::reference::EmResult frozen =
        perf::reference::fit_lds(c.anchor, c.history, c.init, c.options);
    ASSERT_EQ(fit.params, frozen.params) << "case " << i;
    ASSERT_EQ(fit.iterations, frozen.iterations) << "case " << i;
    // Only the tolerance test may stop a fit short of max_iterations.
    EXPECT_TRUE(fit.converged || fit.iterations == c.options.max_iterations)
        << "case " << i;

    single_run += c.history.size() == 1;
    for (const ScoreSet& s : c.history) {
      if (s.empty()) {
        ++with_empty_runs;
        break;
      }
    }
    floor_hits += fit.params.gamma == c.options.min_variance ||
                  fit.params.eta == c.options.min_variance;
    clamp_hits += std::abs(fit.params.a) == c.options.max_abs_a;
    early_stops += fit.iterations < c.options.max_iterations;
  }
  // The sweep must actually reach every branch it claims to cover.
  EXPECT_GT(single_run, 0);
  EXPECT_GT(with_empty_runs, 0);
  EXPECT_GT(floor_hits, 0);
  EXPECT_GT(clamp_hits, 0);
  EXPECT_GT(early_stops, 0);
}

TEST(EmOracle, EmptyHistoryMatchesReference) {
  const LdsParams init{0.9, 1e-9, 2.0};  // gamma below the default floor
  const EmResult fit = fit_lds({5.5, 2.25}, {}, init);
  const perf::reference::EmResult frozen =
      perf::reference::fit_lds({5.5, 2.25}, {}, init);
  EXPECT_EQ(fit.params, frozen.params);
  EXPECT_EQ(fit.iterations, 0);
  EXPECT_FALSE(fit.converged);
}

TEST(EmOracle, InPlaceSmootherAndMStepMatchReference) {
  // One buffer reused across histories that grow and shrink, as an EM fit
  // reuses it across iterations.
  SmootherResult reused;
  for (int i = 0; i < 60; ++i) {
    const OracleCase c = make_case(i);
    smooth_into(c.anchor, c.history, c.init, reused);
    const SmootherResult frozen =
        perf::reference::smooth(c.anchor, c.history, c.init);
    ASSERT_EQ(reused.smoothed, frozen.smoothed) << "case " << i;
    ASSERT_EQ(reused.cross_covariance, frozen.cross_covariance) << "case " << i;
    EXPECT_EQ(m_step(c.anchor, c.history, reused, c.options),
              perf::reference::m_step(c.anchor, c.history, frozen, c.options))
        << "case " << i;
  }
}

TEST(FinalPosterior, EqualsLastFilterPosterior) {
  for (int i = 0; i < 200; ++i) {
    const OracleCase c = make_case(i);
    EXPECT_EQ(final_posterior(c.anchor, c.history, c.init),
              filter(c.anchor, c.history, c.init).posteriors.back())
        << "case " << i;
  }
  const Gaussian anchor{4.0, 1.5};
  EXPECT_EQ(final_posterior(anchor, {}, LdsParams{}), anchor);
}

/// The exception message `fn` throws, or "" when it returns.
template <typename Fn>
std::string thrown_message(Fn fn) {
  try {
    fn();
  } catch (const std::domain_error& e) {
    return e.what();
  }
  return "";
}

TEST(FinalPosterior, ThrowsWhereFilterThrows) {
  const ScoreHistory history(3, ScoreSet::from(std::vector<double>{5.0}));
  const std::vector<std::pair<Gaussian, LdsParams>> bad = {
      {{5.0, 1.0}, {1.0, 0.0, 1.0}},  {{5.0, 1.0}, {1.0, -1.0, 1.0}},
      {{5.0, 1.0}, {1.0, 1.0, 0.0}},  {{5.0, 1.0}, {1.0, 1.0, -2.0}},
      {{5.0, 0.0}, {1.0, 1.0, 1.0}},  {{5.0, -1.0}, {1.0, 1.0, 1.0}},
  };
  for (const auto& [anchor, params] : bad) {
    for (const ScoreHistory& h : {history, ScoreHistory{}}) {
      const std::string filter_error =
          thrown_message([&] { (void)filter(anchor, h, params); });
      ASSERT_FALSE(filter_error.empty());
      EXPECT_EQ(thrown_message([&] { (void)final_posterior(anchor, h, params); }),
                filter_error);
    }
  }
}

// ---------------------------------------------------------------------------
// EM observability: estimator/em_capped counts fits that ran to
// max_iterations, estimator/em_final_loglik summarises each fit's final
// log-likelihood. Both are recorded only while collecting.
// ---------------------------------------------------------------------------

/// Drive a small MELODY estimator through several EM refits and return its
/// snapshot.
std::string drive_estimator(const EmOptions& options) {
  estimators::MelodyEstimatorConfig config;
  config.reestimation_period = 5;
  config.em_options = options;
  estimators::MelodyEstimator estimator(config);
  for (int w = 0; w < 8; ++w) estimator.register_worker(w);
  for (int run = 1; run <= 30; ++run) {
    for (int w = 0; w < 8; ++w) {
      util::Rng stream(util::derive_stream(0xE41, w, run));
      ScoreSet set;
      for (int s = 0; s < 3; ++s) set.add(stream.normal(3.0 + w % 4, 1.0));
      estimator.observe(w, set);
    }
  }
  std::ostringstream snapshot;
  estimator.save(snapshot);
  return snapshot.str();
}

TEST(EmObservability, CappedAndFinalLoglikOnlyWhileCollecting) {
  obs::MetricsRegistry& reg = obs::registry();
  EmOptions capped;
  capped.max_iterations = 3;
  capped.tolerance = 0.0;  // never converges: every fit is capped
  EmOptions loose;
  loose.tolerance = 0.5;  // converges long before the cap

  reg.reset();
  const std::string plain = drive_estimator(capped);
  EXPECT_EQ(reg.counter("estimator/em_capped").value(), 0u);
  EXPECT_EQ(reg.summary("estimator/em_final_loglik").stats().count, 0u);

  obs::ScopedEnable enable(true);
  reg.reset();
  EXPECT_EQ(drive_estimator(capped), plain);  // collecting changes no bit
  const std::uint64_t fits = reg.counter("estimator/em_runs").value();
  ASSERT_GT(fits, 0u);
  EXPECT_EQ(reg.counter("estimator/em_capped").value(), fits);
  const obs::Summary::Stats loglik =
      reg.summary("estimator/em_final_loglik").stats();
  EXPECT_EQ(loglik.count, fits);
  EXPECT_TRUE(std::isfinite(loglik.mean));

  reg.reset();
  drive_estimator(loose);
  EXPECT_GT(reg.counter("estimator/em_runs").value(), 0u);
  EXPECT_EQ(reg.counter("estimator/em_capped").value(), 0u);
  reg.reset();
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(EmObservability, MelodySimMetricsJsonKeepsCsvBytes) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("melody_em_oracle_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string sim = std::string(MELODY_TOOL_DIR) + "/melody_sim";
  const std::string flags =
      " --workers 60 --tasks 50 --runs 30 --budget 200 --estimator melody"
      " --threads 2 --quiet";
  const auto plain_csv = dir / "plain.csv";
  const auto traced_csv = dir / "traced.csv";
  const auto metrics = dir / "metrics.json";
  ASSERT_EQ(std::system((sim + flags + " --csv " + plain_csv.string() +
                         " > /dev/null")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((sim + flags + " --csv " + traced_csv.string() +
                         " --metrics-json " + metrics.string() + " > /dev/null")
                            .c_str()),
            0);
  const std::string plain = read_file(plain_csv);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(read_file(traced_csv), plain);
  const std::string json = read_file(metrics);
  EXPECT_NE(json.find("\"estimator/em_capped\""), std::string::npos);
  EXPECT_NE(json.find("\"estimator/em_final_loglik\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace melody::lds
