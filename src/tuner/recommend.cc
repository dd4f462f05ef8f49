#include "tuner/recommend.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/stats.h"
#include "util/timer.h"

namespace aujoin {

TauRecommendation RecommendTau(const JoinContext& context,
                               const CostModel& cost_model,
                               const TunerOptions& options) {
  WallTimer timer;
  TauRecommendation rec;
  const size_t num_taus = options.tau_universe.size();
  rec.estimated_cost.assign(num_taus, 0.0);
  if (num_taus == 0) return rec;
  if (num_taus == 1) {
    rec.best_tau = options.tau_universe[0];
    rec.converged = true;
    rec.seconds = timer.Seconds();
    return rec;
  }

  Rng rng(options.seed);
  std::vector<TauEstimator> estimators(num_taus);
  const double ps = options.sample_prob_s;
  const double pt = context.self_join() ? options.sample_prob_s
                                        : options.sample_prob_t;

  SignatureOptions sig;
  sig.theta = options.theta;
  sig.method = options.method;
  sig.exact_min_partition = options.exact_min_partition;

  int n = 0;
  while (n < options.max_iterations) {
    ++n;
    BernoulliSample sample = DrawBernoulliSample(
        context.s_prepared().size(), context.t_prepared().size(),
        context.self_join(), ps, pt, &rng);
    for (size_t k = 0; k < num_taus; ++k) {
      sig.tau = options.tau_universe[k];
      AccumulateSampleEstimate(context, sig, sample, ps, pt, &estimators[k]);
    }
    if (n < options.min_iterations) continue;

    // Confidence intervals (Eq. 23).
    double t_star = StudentTQuantile(options.confidence, n - 1);
    size_t best_idx = 0;
    double best_mean = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < num_taus; ++k) {
      double mean = estimators[k].CostMean(cost_model.cf, cost_model.cv);
      rec.estimated_cost[k] = mean;
      if (mean < best_mean) {
        best_mean = mean;
        best_idx = k;
      }
    }
    auto half_width = [&](size_t k) {
      double var = estimators[k].CostVariance(cost_model.cf, cost_model.cv);
      return t_star * std::sqrt(var / static_cast<double>(n));
    };
    double upper_best = best_mean + half_width(best_idx);
    double lowest_other = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < num_taus; ++k) {
      if (k == best_idx) continue;
      lowest_other = std::min(
          lowest_other, rec.estimated_cost[k] - half_width(k));
    }

    // Ineq. (24): worst-case regret vs. the cost of one more iteration,
    // forecast from the latest sample's raw processed-pair counts.
    double next_iteration_cost = 0.0;
    for (const auto& est : estimators) {
      next_iteration_cost +=
          cost_model.cf * static_cast<double>(est.last_raw_processed);
    }
    if (upper_best - lowest_other < next_iteration_cost) {
      rec.best_tau = options.tau_universe[best_idx];
      rec.converged = true;
      break;
    }
    rec.best_tau = options.tau_universe[best_idx];
  }
  rec.iterations = n;
  rec.seconds = timer.Seconds();
  return rec;
}

}  // namespace aujoin
