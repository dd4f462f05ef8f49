#ifndef AUJOIN_TUNER_RECOMMEND_H_
#define AUJOIN_TUNER_RECOMMEND_H_

#include <cstdint>
#include <vector>

#include "join/join.h"
#include "tuner/cost_model.h"
#include "tuner/estimator.h"

namespace aujoin {

/// Options of Algorithm 7 (tau suggestion).
struct TunerOptions {
  /// The universe U of candidate overlap constraints.
  std::vector<int> tau_universe = {1, 2, 3, 4, 5, 6, 8};
  /// Bernoulli sampling probabilities per side.
  double sample_prob_s = 0.01;
  double sample_prob_t = 0.01;
  /// Burn-in n* — the minimum number of iterations.
  int min_iterations = 10;
  /// Hard iteration cap (the CI rule normally stops much earlier).
  int max_iterations = 300;
  /// Two-sided confidence level for the Student's t quantile t*
  /// (paper Fig. 8 uses 70% => t* = 1.036).
  double confidence = 0.70;
  uint64_t seed = 1234;
  /// Filter settings the suggestion is for.
  double theta = 0.8;
  FilterMethod method = FilterMethod::kAuHeuristic;
  bool exact_min_partition = true;
};

/// Output of Algorithm 7.
struct TauRecommendation {
  int best_tau = 1;
  int iterations = 0;
  double seconds = 0.0;
  /// Final cost estimate per tau (aligned with TunerOptions::tau_universe).
  std::vector<double> estimated_cost;
  /// True when the CI stopping rule fired (vs. hitting max_iterations).
  bool converged = false;
};

/// Algorithm 7: iteratively samples, estimates Eq. (15) costs per tau with
/// confidence intervals, and stops when the worst-case regret of the
/// current winner is cheaper than one more estimation round (Ineq. 24).
TauRecommendation RecommendTau(const JoinContext& context,
                               const CostModel& cost_model,
                               const TunerOptions& options);

}  // namespace aujoin

#endif  // AUJOIN_TUNER_RECOMMEND_H_
