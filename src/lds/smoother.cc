#include "lds/smoother.h"

namespace melody::lds {

void smooth_into(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history, const LdsParams& params,
                 SmootherResult& out) {
  params.validate();
  const std::size_t r = history.size();
  // resize() only allocates when the history outgrew the buffers, so an EM
  // fit pays for them once and every later iteration runs in place.
  out.smoothed.resize(r + 1);
  out.cross_covariance.resize(r + 1);

  // Forward pass over the augmented sequence q^0..q^r. q^0 carries no
  // observation: its filtered posterior is the preset initial distribution.
  // smoothed[t] holds the filtered posterior p(q^t | S^1..t) and
  // cross_covariance[t] the predicted variance P_t = a^2 v_{t-1} + gamma
  // until the backward pass overwrites both.
  out.smoothed[0] = initial_posterior;
  out.cross_covariance[0] = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    const Gaussian predicted = predict(out.smoothed[t - 1], params);
    out.cross_covariance[t] = predicted.var;
    out.smoothed[t] = correct(predicted, history[t - 1], params);
  }

  // Backward (RTS) pass; smoothed[r] is already the filtered posterior.
  // With smoothing gain
  //   J_t = a * Var(q^t | S^1..t) / Var(q^{t+1} | S^1..t):
  //   mean:  m~_t = m_t + J_t (m~_{t+1} - a m_t)
  //   var:   v~_t = v_t + J_t^2 (v~_{t+1} - P_{t+1})
  //   cross: Cov(q^t, q^{t+1} | all) = J_t * v~_{t+1}
  // Step t reads the filtered posterior in smoothed[t-1] and P_t in
  // cross_covariance[t] before it overwrites them.
  for (std::size_t t = r; t > 0; --t) {
    const Gaussian f = out.smoothed[t - 1];
    const double p_next = out.cross_covariance[t];
    const double gain = params.a * f.var / p_next;
    const Gaussian& next = out.smoothed[t];
    out.cross_covariance[t] = gain * next.var;
    out.smoothed[t - 1] = {f.mean + gain * (next.mean - params.a * f.mean),
                           f.var + gain * gain * (next.var - p_next)};
  }
}

SmootherResult smooth(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history,
                      const LdsParams& params) {
  SmootherResult result;
  smooth_into(initial_posterior, history, params, result);
  return result;
}

}  // namespace melody::lds
