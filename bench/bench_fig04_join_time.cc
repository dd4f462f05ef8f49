// Reproduces Figure 4: total join time of the three proposed algorithms
// (U-Filter, AU-Filter heuristics, AU-Filter DP) as the join threshold
// varies, on MED-like and WIKI-like corpora. The AU filters run with the
// tau recommended by Algorithm 7, as in the paper.
//
// Expected shape (paper): AU-DP <= AU-heuristics <= U-Filter, with the
// gap widest at low thresholds.

#include <cstdio>

#include "api/engine.h"
#include "bench_common.h"
#include "tuner/recommend.h"
#include "util/timer.h"

namespace aujoin {
namespace {

void RunDataset(const std::string& dataset, size_t n,
                const std::vector<double>& thetas) {
  auto world = BuildWorld(dataset, n, n / 10);
  Engine engine =
      EngineBuilder().SetKnowledge(world->knowledge()).SetQ(3).Build();
  engine.SetRecords(world->corpus.records);
  const JoinContext& context = engine.PreparedContext();

  std::printf("\n[%s-like] strings=%zu\n", dataset.c_str(),
              world->corpus.records.size());
  std::printf("%-6s | %12s %18s %12s\n", "theta", "U-Filter", "AU-heuristic",
              "AU-DP");
  for (double theta : thetas) {
    std::printf("%-6.2f |", theta);
    for (FilterMethod method :
         {FilterMethod::kUFilter, FilterMethod::kAuHeuristic,
          FilterMethod::kAuDp}) {
      WallTimer timer;
      if (method == FilterMethod::kUFilter) {
        UnifiedJoin(context, {.theta = theta, .tau = 1, .method = method});
      } else {
        TunerOptions tuner;
        tuner.theta = theta;
        tuner.method = method;
        tuner.sample_prob_s = 0.05;
        tuner.min_iterations = 5;
        tuner.max_iterations = 25;
        engine.JoinWithSuggestedTau({.theta = theta, .method = method}, tuner);
      }
      double field_width = method == FilterMethod::kAuHeuristic ? 18 : 12;
      std::printf(" %*.3f", static_cast<int>(field_width), timer.Seconds());
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) {
  aujoin::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("strings", 600));
  auto thetas = flags.GetDoubleList("theta", {0.75, 0.80, 0.85, 0.90, 0.95});
  aujoin::PrintBanner("E4 join time by filter", "Figure 4",
                      "AU-DP fastest, U-Filter slowest; gap widest at low "
                      "theta");
  aujoin::RunDataset("med", n, thetas);
  aujoin::RunDataset("wiki", n, thetas);
  return 0;
}
