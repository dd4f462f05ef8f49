// Reproduces Table 10: AU-Filter (DP) join time broken into suggestion,
// filtering (incl. signature selection) and verification, as the dataset
// grows.
//
// Expected shape (paper): filtering and verification grow roughly linearly
// with size; the suggestion cost is nearly constant (small samples).

#include <cstdio>

#include "api/engine.h"
#include "bench_common.h"
#include "tuner/recommend.h"

int main(int argc, char** argv) {
  using namespace aujoin;
  Flags flags(argc, argv);
  auto sizes = flags.GetIntList("sizes", {500, 1000, 1500, 2000});
  double theta = flags.GetDouble("theta", 0.90);

  PrintBanner("E8 time breakdown (AU-DP + suggestion)", "Table 10",
              "filter/verify grow ~linearly; suggestion cost ~constant and "
              "small");
  std::printf("theta=%.2f\n", theta);
  std::printf("%-8s | %12s %12s %12s | %6s\n", "size", "suggest_s",
              "filter_s", "verify_s", "tau*");
  for (int64_t size : sizes) {
    auto world = BuildWorld("med", static_cast<size_t>(size), size / 10);
    Engine engine =
        EngineBuilder().SetKnowledge(world->knowledge()).SetQ(3).Build();
    engine.SetRecords(world->corpus.records);
    TunerOptions tuner;
    tuner.theta = theta;
    tuner.method = FilterMethod::kAuDp;
    tuner.sample_prob_s = 0.05;
    tuner.min_iterations = 5;
    tuner.max_iterations = 25;
    TauRecommendation rec;
    Result<JoinResult> result = engine.JoinWithSuggestedTau(
        {.theta = theta, .method = FilterMethod::kAuDp}, tuner, &rec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-8lld | %12.3f %12.3f %12.3f | %6d\n",
                static_cast<long long>(size), result->stats.suggest_seconds,
                result->stats.signature_seconds + result->stats.filter_seconds,
                result->stats.verify_seconds, rec.best_tau);
  }
  return 0;
}
