// Expectation-Maximization learner for the per-worker LDS hyper-parameters
// theta = {a, gamma, eta} (Algorithm 2 of the paper).
//
// E-step: RTS smoothing of the latent quality sequence given the current
// theta. M-step: closed-form maximizers of the expected complete-data
// log-likelihood (Eq. 15):
//   a*     = sum_t E[q^t q^{t-1}] / sum_t E[(q^{t-1})^2]
//   gamma* = (1/r) sum_t E[(q^t - a* q^{t-1})^2]
//   eta*   = (1/sum_t N_t) sum_t E[sum_j (s_j - q^t)^2]
#pragma once

#include <span>

#include "lds/gaussian.h"
#include "lds/kalman.h"

namespace melody::lds {

struct EmOptions {
  int max_iterations = 50;
  /// Stop when every parameter's relative change falls below this.
  double tolerance = 1e-6;
  /// Floors keep the model proper when the data is degenerate (constant
  /// scores, single run).
  double min_variance = 1e-6;
  /// The transition coefficient is clamped to [-max_abs_a, max_abs_a];
  /// quality dynamics with |a| >> 1 diverge and never fit crowd workers.
  double max_abs_a = 4.0;
};

struct EmResult {
  LdsParams params;
  int iterations = 0;
  /// True when the relative-change test stopped the fit; false when it ran
  /// to max_iterations (or the history was empty). The fit quality is
  /// log_likelihood(initial_posterior, history, params), which the fit
  /// itself never computes: nothing it returns depends on it.
  bool converged = false;
};

/// Fit theta to one worker's score history by EM, starting from
/// initial_params. The platform-preset initial posterior alpha-hat(q^0)
/// anchors the latent chain and is not itself learned (matching Algorithm 3,
/// where mu-hat^0 / sigma-hat^0 are platform constants). The E-step smooths
/// into one buffer pair allocated per fit, so the iterations allocate
/// nothing.
EmResult fit_lds(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history, const LdsParams& initial_params,
                 const EmOptions& options = {});

/// One M-step given smoothed moments; exposed for testing.
LdsParams m_step(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const struct SmootherResult& moments, const EmOptions& options);

}  // namespace melody::lds
