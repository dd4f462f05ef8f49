// Reproduces Table 11: running time of AU-Filter (heuristics) when tau is
// chosen by Algorithm 7, versus the mean over random choices, versus the
// worst choice in the universe.
//
// Expected shape (paper): suggested <= random mean <= worst at every
// threshold.

#include <cstdio>
#include <numeric>

#include "api/engine.h"
#include "bench_common.h"
#include "tuner/recommend.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace aujoin;
  Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("strings", 500));
  auto thetas = flags.GetDoubleList("theta", {0.75, 0.80, 0.85, 0.90, 0.95});
  auto universe = flags.GetIntList("tau", {1, 2, 3, 4, 5, 6});

  PrintBanner("E9 tau selection policies", "Table 11",
              "suggested tau achieves the best time; worst tau is several "
              "times slower");
  auto world = BuildWorld("med", n, n / 10);
  Engine engine =
      EngineBuilder().SetKnowledge(world->knowledge()).SetQ(3).Build();
  engine.SetRecords(world->corpus.records);
  const JoinContext& context = engine.PreparedContext();

  std::printf("%-6s | %12s %12s %12s | %9s %9s\n", "theta", "suggested_s",
              "random_mean", "worst_s", "tau*", "tau_worst");
  for (double theta : thetas) {
    // Measure the true join time for every tau in the universe.
    std::vector<double> times;
    for (int64_t tau : universe) {
      JoinOptions options;
      options.theta = theta;
      options.tau = static_cast<int>(tau);
      options.method = FilterMethod::kAuHeuristic;
      WallTimer timer;
      UnifiedJoin(context, options);
      times.push_back(timer.Seconds());
    }
    double mean =
        std::accumulate(times.begin(), times.end(), 0.0) / times.size();
    size_t worst_idx = 0;
    for (size_t i = 0; i < times.size(); ++i) {
      if (times[i] > times[worst_idx]) worst_idx = i;
    }

    // Suggested tau, including the suggestion overhead itself.
    TunerOptions tuner;
    tuner.theta = theta;
    tuner.method = FilterMethod::kAuHeuristic;
    tuner.tau_universe.assign(universe.begin(), universe.end());
    tuner.sample_prob_s = 0.05;
    tuner.min_iterations = 5;
    tuner.max_iterations = 25;
    TauRecommendation rec;
    WallTimer timer;
    engine.JoinWithSuggestedTau(
        {.theta = theta, .method = FilterMethod::kAuHeuristic}, tuner, &rec);
    double suggested_time = timer.Seconds();

    std::printf("%-6.2f | %12.3f %12.3f %12.3f | %9d %9lld\n", theta,
                suggested_time, mean, times[worst_idx], rec.best_tau,
                static_cast<long long>(universe[worst_idx]));
  }
  return 0;
}
