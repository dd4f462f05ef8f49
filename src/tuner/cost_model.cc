#include "tuner/cost_model.h"

#include <algorithm>

#include "util/rng.h"
#include "util/timer.h"

namespace aujoin {

CostModel CalibrateCostModel(const JoinContext& context,
                             const JoinOptions& options,
                             size_t calibration_records,
                             size_t calibration_verifications, uint64_t seed) {
  CostModel model;
  Rng rng(seed);

  const size_t s_size = context.s_prepared().size();
  const size_t t_size = context.t_prepared().size();
  if (s_size == 0 || t_size == 0) return model;

  auto slice = [&](size_t size) {
    std::vector<uint32_t> ids(std::min(size, calibration_records));
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return ids;
  };
  std::vector<uint32_t> s_ids = slice(s_size);
  std::vector<uint32_t> t_ids = slice(t_size);

  SignatureOptions sig;
  sig.theta = options.theta;
  sig.tau = std::max(2, options.tau);
  sig.method = options.method == FilterMethod::kUFilter
                   ? FilterMethod::kAuHeuristic
                   : options.method;
  sig.exact_min_partition = options.exact_min_partition;

  JoinContext::FilterOutput out = context.RunFilter(sig, &s_ids, &t_ids);
  if (out.processed_pairs > 0) {
    model.cf = out.filter_seconds / static_cast<double>(out.processed_pairs);
    model.cf = std::max(model.cf, 1e-10);
  }

  // Verification cost: time Algorithm 1 on candidates (or random pairs).
  std::vector<std::pair<uint32_t, uint32_t>> pairs = out.candidates;
  while (pairs.size() < calibration_verifications) {
    uint32_t si = static_cast<uint32_t>(
        rng.Uniform(0, static_cast<int64_t>(s_size) - 1));
    uint32_t ti = static_cast<uint32_t>(
        rng.Uniform(0, static_cast<int64_t>(t_size) - 1));
    if (context.self_join() && si == ti) continue;
    pairs.emplace_back(si, ti);
  }
  if (pairs.size() > calibration_verifications) {
    pairs.resize(calibration_verifications);
  }

  UsimOptions usim_options = options.usim;
  usim_options.msim = context.msim_options();
  UsimComputer computer(context.knowledge(), usim_options);
  WallTimer timer;
  for (const auto& [si, ti] : pairs) {
    // Mirror the join's early-exit verification so c_v matches reality.
    computer.Approx(context.s_records()[si], context.s_prepared()[si],
                    context.t_records()[ti], context.t_prepared()[ti],
                    options.theta);
  }
  double elapsed = timer.Seconds();
  if (!pairs.empty() && elapsed > 0) {
    model.cv = elapsed / static_cast<double>(pairs.size());
    model.cv = std::max(model.cv, 1e-9);
  }
  return model;
}

}  // namespace aujoin
