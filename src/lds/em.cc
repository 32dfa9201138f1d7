#include "lds/em.h"

#include <algorithm>
#include <cmath>

#include "lds/smoother.h"

namespace melody::lds {

LdsParams m_step(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const SmootherResult& moments, const EmOptions& options) {
  (void)initial_posterior;  // the q^0 prior is fixed, not re-estimated
  const std::size_t r = history.size();
  LdsParams out;

  // Every sum runs in ascending t: the fitted bits depend on that order.
  // a* = sum_t E[q^t q^{t-1}] / sum_t E[(q^{t-1})^2], and (independent of a)
  // eta* = (1/sum N_t) sum_t (SS_t - 2 S_t E[q_t] + N_t E[q_t^2]).
  double cross_sum = 0.0;
  double prev_sq_sum = 0.0;
  double eta_sum = 0.0;
  double observations = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    cross_sum += moments.cross_moment(t);
    prev_sq_sum += moments.second_moment(t - 1);
    const ScoreSet& s = history[t - 1];
    if (s.empty()) continue;
    eta_sum += s.sum_squares - 2.0 * s.sum * moments.mean(t) +
               s.count * moments.second_moment(t);
    observations += s.count;
  }
  out.a = prev_sq_sum > 0.0 ? cross_sum / prev_sq_sum : 1.0;
  out.a = std::clamp(out.a, -options.max_abs_a, options.max_abs_a);

  // gamma* = (1/r) sum_t E[(q^t - a q^{t-1})^2]
  //        = (1/r) sum_t (E[q_t^2] - 2a E[q_t q_{t-1}] + a^2 E[q_{t-1}^2]).
  double gamma_sum = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    gamma_sum += moments.second_moment(t) - 2.0 * out.a * moments.cross_moment(t) +
                 out.a * out.a * moments.second_moment(t - 1);
  }
  out.gamma = r > 0 ? gamma_sum / static_cast<double>(r) : 1.0;
  out.gamma = std::max(out.gamma, options.min_variance);

  out.eta = observations > 0.0 ? eta_sum / observations : 1.0;
  out.eta = std::max(out.eta, options.min_variance);
  return out;
}

EmResult fit_lds(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const LdsParams& initial_params, const EmOptions& options) {
  EmResult result;
  result.params = initial_params;
  result.params.gamma = std::max(result.params.gamma, options.min_variance);
  result.params.eta = std::max(result.params.eta, options.min_variance);
  if (history.empty()) return result;

  auto relative_change = [](double a, double b) {
    return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-12});
  };

  SmootherResult moments;  // reused by every iteration's E-step
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    smooth_into(initial_posterior, history, result.params, moments);
    const LdsParams updated =
        m_step(initial_posterior, history, moments, options);
    ++result.iterations;

    result.converged =
        relative_change(updated.a, result.params.a) < options.tolerance &&
        relative_change(updated.gamma, result.params.gamma) < options.tolerance &&
        relative_change(updated.eta, result.params.eta) < options.tolerance;
    result.params = updated;
    if (result.converged) break;
  }
  return result;
}

}  // namespace melody::lds
