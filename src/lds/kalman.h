// Forward inference for the scalar LDS quality model:
//   transition  q^r ~ N(a q^{r-1}, gamma)        (Eq. 12)
//   emission    s_j ~ N(q^r, eta), i.i.d. in-run (Eq. 13)
//
// The per-run posterior update is exactly Theorem 3 (Eqs. 17-18); the
// next-run estimated quality is Eq. 19 (mu^{r+1} = a * mu-hat^r).
#pragma once

#include <span>
#include <vector>

#include "lds/gaussian.h"

namespace melody::lds {

/// Per-worker LDS hyper-parameters theta = {a, gamma, eta}.
struct LdsParams {
  double a = 1.0;       // transition coefficient
  double gamma = 1.0;   // transition variance (> 0)
  double eta = 1.0;     // emission variance (> 0)

  bool operator==(const LdsParams&) const = default;
  /// Throws std::domain_error if a variance is not strictly positive.
  void validate() const;
};

/// Transition step: posterior alpha-hat(q^{r-1}) -> prior alpha(q^r)
/// via Eq. (3) with the Gaussian transition (Eq. 12):
/// N(a*mu, a^2*sigma + gamma).
///
/// predict/correct/filter_step are defined inline: they are the innermost
/// arithmetic of every estimator chain, and the batch observe_run loop
/// only streams when the filter folds into it instead of costing a call
/// per worker per run. One shared definition keeps every caller — batch
/// loop, scalar reference, EM re-filter — on the identical IEEE-754
/// operation sequence, which the bit-identity tests rely on.
inline Gaussian predict(const Gaussian& posterior, const LdsParams& params) {
  return {params.a * posterior.mean,
          params.a * params.a * posterior.var + params.gamma};
}

/// Measurement step: prior alpha(q^r) + scores -> posterior alpha-hat(q^r).
/// With an empty score set the prior is returned unchanged (the worker was
/// not observed this run).
inline Gaussian correct(const Gaussian& prior, const ScoreSet& scores,
                        const LdsParams& params) {
  if (scores.empty()) return prior;
  // Eqs. (17)-(18) with K = prior.var: posterior precision is the prior
  // precision plus N/eta; the mean weighs the prior by eta and the score
  // sum by K.
  const double k = prior.var;
  const double n = scores.count;
  const double denom = n * k + params.eta;
  return {(params.eta * prior.mean + k * scores.sum) / denom,
          k * params.eta / denom};
}

/// One full Theorem-3 step: previous posterior -> this run's posterior.
inline Gaussian filter_step(const Gaussian& previous_posterior,
                            const ScoreSet& scores, const LdsParams& params) {
  return correct(predict(previous_posterior, params), scores, params);
}

/// Log marginal likelihood log p(S^r | S^{1..r-1}) of one run's score set
/// under the prior alpha(q^r). Zero for an empty set.
double log_marginal(const Gaussian& prior, const ScoreSet& scores,
                    const LdsParams& params);

/// Results of filtering a whole history.
struct FilterResult {
  std::vector<Gaussian> priors;      // alpha(q^r), one per run
  std::vector<Gaussian> posteriors;  // alpha-hat(q^r), one per run
  double log_likelihood = 0.0;       // sum of per-run log marginals
};

/// Run the filter over a history, starting from the platform-preset initial
/// posterior alpha-hat(q^0) = N(mu0, sigma0).
FilterResult filter(const Gaussian& initial_posterior,
                    std::span<const ScoreSet> history, const LdsParams& params);

/// The last posterior of filter(): the same filter_step fold, with the same
/// preconditions and throws, but no per-run priors, posteriors or log
/// marginals. An empty history returns the initial posterior.
Gaussian final_posterior(const Gaussian& initial_posterior,
                         std::span<const ScoreSet> history,
                         const LdsParams& params);

/// Total log-likelihood of a history (convenience wrapper around filter()).
double log_likelihood(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history, const LdsParams& params);

}  // namespace melody::lds
