#include <algorithm>

#include <gtest/gtest.h>

#include "core/pair_graph.h"
#include "core/squareimp.h"
#include "core/usim.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace aujoin {
namespace {

TEST(PairGraphTest, Example5GraphStructure) {
  Example5World world;
  MsimOptions options;
  options.measures = kMeasureSynonym;  // the instance is synonym-only
  MsimEvaluator eval(world.knowledge(), options);
  PairGraph g = BuildPairGraph(world.s, world.t, &eval);

  // R1..R5 are applicable; R6 is not (no "z e f" span in S).
  ASSERT_EQ(g.num_vertices(), 5u);
  std::vector<double> weights;
  for (const auto& v : g.vertices) weights.push_back(v.weight);
  std::sort(weights.begin(), weights.end());
  EXPECT_NEAR(weights[0], 0.09, 1e-12);
  EXPECT_NEAR(weights[4], 0.30, 1e-12);

  // Find vertices by weight to check conflicts (R3 vs R5 share token d).
  auto find = [&](double w) -> uint32_t {
    for (uint32_t i = 0; i < g.vertices.size(); ++i) {
      if (std::abs(g.vertices[i].weight - w) < 1e-9) return i;
    }
    return UINT32_MAX;
  };
  uint32_t v3 = find(0.22), v5 = find(0.27), v4 = find(0.09);
  ASSERT_NE(v3, UINT32_MAX);
  EXPECT_TRUE(g.Conflicts(v3, v5));   // share "d"
  EXPECT_FALSE(g.Conflicts(v4, v5));  // {a}->{g} vs {d}->{h}
}

TEST(PairGraphTest, SingletonJaccardVerticesAppear) {
  Figure1World world;
  Record a = world.MakeRec(0, "helsingki");
  Record b = world.MakeRec(1, "helsinki");
  MsimEvaluator eval(world.knowledge(), {});
  PairGraph g = BuildPairGraph(a, b, &eval);
  ASSERT_EQ(g.num_vertices(), 1u);
  EXPECT_NEAR(g.vertices[0].weight, 2.0 / 3.0, 1e-12);
}

TEST(PairGraphTest, VertexCapTruncates) {
  Figure1World world;
  Record a = world.MakeRec(0, "x1 x2 x3 x4 x5 x6");
  Record b = world.MakeRec(1, "x1 x2 x3 x4 x5 x6");
  PairGraphOptions options;
  options.max_vertices = 4;
  MsimEvaluator eval(world.knowledge(), {});
  PairGraph g = BuildPairGraph(a, b, &eval, options);
  EXPECT_TRUE(g.truncated);
  EXPECT_EQ(g.num_vertices(), 4u);
}

TEST(SquareImpTest, ReturnsIndependentSet) {
  Example5World world;
  MsimOptions options;
  options.measures = kMeasureSynonym;
  MsimEvaluator eval(world.knowledge(), options);
  PairGraph g = BuildPairGraph(world.s, world.t, &eval);
  auto mis = SquareImp(g);
  EXPECT_TRUE(IsIndependentSet(g, mis));
  EXPECT_FALSE(mis.empty());
}

TEST(SquareImpTest, FindsOptimumOnExample5) {
  // The optimal independent set is {R1, R4} with weight 0.39.
  Example5World world;
  MsimOptions options;
  options.measures = kMeasureSynonym;
  MsimEvaluator eval(world.knowledge(), options);
  PairGraph g = BuildPairGraph(world.s, world.t, &eval);
  auto mis = SquareImp(g);
  EXPECT_NEAR(IndependentSetWeight(g, mis), 0.39, 1e-9);
}

TEST(SquareImpTest, EmptyGraph) {
  PairGraph g;
  EXPECT_TRUE(SquareImp(g).empty());
}

TEST(UsimTest, Example5FinalSimilarity) {
  // Example 5: Algorithm 1 ends with {R1, R4}: (0.3 + 0.09) / 3 = 0.13.
  Example5World world;
  UsimOptions options;
  options.msim.measures = kMeasureSynonym;
  UsimComputer computer(world.knowledge(), options);
  EXPECT_NEAR(computer.Approx(world.s, world.t), 0.13, 1e-9);
}

TEST(UsimTest, Example3WithQ1MatchesPaperNumbers) {
  // Figure 1 / Example 3 use letter-level (q=1) Jaccard for
  // (Helsingki, Helsinki) = 0.875; USIM = (1 + 0.8 + 0.875)/3 = 0.8917.
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  UsimOptions options;
  options.msim.q = 1;
  UsimComputer computer(world.knowledge(), options);
  double approx = computer.Approx(s, t);
  EXPECT_NEAR(approx, (1.0 + 0.8 + 0.875) / 3.0, 1e-9);
}

TEST(UsimTest, Example3WithQ2) {
  // With the canonical q=2, (helsingki, helsinki) = 2/3 and the best
  // partition is still {coffee shop | latte | helsingki}:
  // (1 + 0.8 + 2/3) / 3.
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  UsimOptions options;
  options.msim.q = 2;
  UsimComputer computer(world.knowledge(), options);
  EXPECT_NEAR(computer.Approx(s, t), (1.0 + 0.8 + 2.0 / 3.0) / 3.0, 1e-9);
}

TEST(UsimTest, ExactMatchesApproxOnPaperExamples) {
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  UsimOptions options;
  options.msim.q = 1;
  UsimComputer computer(world.knowledge(), options);
  auto exact = computer.Exact(s, t);
  ASSERT_TRUE(exact.exact);
  EXPECT_NEAR(exact.value, (1.0 + 0.8 + 0.875) / 3.0, 1e-9);
  EXPECT_LE(computer.Approx(s, t), exact.value + 1e-9);
}

TEST(UsimTest, UpperBoundIsTightOnFigure1Pair) {
  // S = "coffee shop" partitions as {coffee shop} (MP(S) = 1) or as two
  // singletons; T = "cafe latte helsinki" only as its three singletons
  // (MP(T) = 3). From S's side the best sum is a_{coffee shop} = 1 (the
  // cafe rule) over one segment, but T forces the denominator up to 3:
  // 1/3, which Exact reaches. Without the MP term S's side would read 1/1
  // and T's side, (1 + 0.6 + 0) / 3 = 0.533, would be the bound.
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop");
  Record t = world.MakeRec(1, "cafe latte helsinki");
  UsimComputer computer(world.knowledge(), {});
  EXPECT_DOUBLE_EQ(computer.UpperBound(s, t), 1.0 / 3.0);
  auto exact = computer.Exact(s, t);
  ASSERT_TRUE(exact.exact);
  EXPECT_DOUBLE_EQ(exact.value, 1.0 / 3.0);
}

TEST(UsimTest, IdenticalStringsScoreOne) {
  Figure1World world;
  Record s = world.MakeRec(0, "espresso cafe helsinki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  UsimComputer computer(world.knowledge(), {});
  EXPECT_NEAR(computer.Approx(s, t), 1.0, 1e-9);
  EXPECT_NEAR(computer.Exact(s, t).value, 1.0, 1e-9);
}

TEST(UsimTest, EmptyStringsScoreZero) {
  Figure1World world;
  Record s = world.MakeRec(0, "");
  Record t = world.MakeRec(1, "espresso");
  UsimComputer computer(world.knowledge(), {});
  EXPECT_DOUBLE_EQ(computer.Approx(s, t), 0.0);
  EXPECT_DOUBLE_EQ(computer.Exact(s, t).value, 0.0);
}

TEST(UsimTest, DisjointStringsScoreZero) {
  Figure1World world;
  Record s = world.MakeRec(0, "qqq www");
  Record t = world.MakeRec(1, "zzz yyy");
  UsimComputer computer(world.knowledge(), {});
  EXPECT_DOUBLE_EQ(computer.Approx(s, t), 0.0);
}

TEST(UsimTest, SymmetricOnExamples) {
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  Record t = world.MakeRec(1, "espresso cafe helsinki");
  UsimComputer computer(world.knowledge(), {});
  EXPECT_NEAR(computer.Approx(s, t), computer.Approx(t, s), 1e-9);
}

TEST(UsimTest, SynonymOnlyMeasureMissesTypos) {
  Figure1World world;
  Record s = world.MakeRec(0, "helsingki");
  Record t = world.MakeRec(1, "helsinki");
  UsimOptions options;
  options.msim.measures = kMeasureSynonym;
  UsimComputer computer(world.knowledge(), options);
  EXPECT_DOUBLE_EQ(computer.Approx(s, t), 0.0);
}

TEST(UsimTest, ImprovementPhaseNeverHurts) {
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki cake");
  Record t = world.MakeRec(1, "espresso cafe helsinki gateau");
  UsimOptions with;
  UsimOptions without;
  without.enable_improvement = false;
  UsimComputer a(world.knowledge(), with);
  UsimComputer b(world.knowledge(), without);
  EXPECT_GE(a.Approx(s, t), b.Approx(s, t) - 1e-12);
}

TEST(EnumeratePartitionsTest, CountsSegmentations) {
  // "coffee shop latte helsingki": multi-token segment only [0,2), so the
  // partitions are all-singletons and {coffee shop}+singletons.
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop latte helsingki");
  auto segs = EnumerateSegments(s, world.knowledge());
  bool truncated = false;
  auto parts = EnumeratePartitions(segs, s.num_tokens(), 100, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(EnumeratePartitionsTest, EveryPartitionIsExactCover) {
  Example5World world;
  auto segs = EnumerateSegments(world.s, world.knowledge());
  bool truncated = false;
  auto parts =
      EnumeratePartitions(segs, world.s.num_tokens(), 1000, &truncated);
  ASSERT_FALSE(parts.empty());
  for (const auto& part : parts) {
    std::vector<int> covered(world.s.num_tokens(), 0);
    for (uint32_t idx : part) {
      for (uint32_t p = segs[idx].span.begin; p < segs[idx].span.end; ++p) {
        ++covered[p];
      }
    }
    for (int c : covered) EXPECT_EQ(c, 1);
  }
}

TEST(EnumeratePartitionsTest, CapTruncates) {
  Example5World world;
  auto segs = EnumerateSegments(world.s, world.knowledge());
  bool truncated = false;
  auto parts = EnumeratePartitions(segs, world.s.num_tokens(), 2, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(parts.size(), 2u);
}

TEST(UsimPropertyTest, ApproxNeverExceedsExact) {
  Figure1World world;
  const char* pool[] = {"coffee", "shop", "latte", "espresso", "cafe",
                        "helsinki", "helsingki", "cake", "gateau", "apple"};
  Rng rng(99);
  UsimComputer computer(world.knowledge(), {});
  for (int trial = 0; trial < 30; ++trial) {
    std::string a, b;
    for (int i = static_cast<int>(rng.Uniform(1, 4)); i > 0; --i) {
      a += std::string(pool[rng.Uniform(0, 9)]) + " ";
    }
    for (int i = static_cast<int>(rng.Uniform(1, 4)); i > 0; --i) {
      b += std::string(pool[rng.Uniform(0, 9)]) + " ";
    }
    Record ra = world.MakeRec(100, a);
    Record rb = world.MakeRec(101, b);
    auto exact = computer.Exact(ra, rb);
    double approx = computer.Approx(ra, rb);
    ASSERT_TRUE(exact.exact);
    EXPECT_LE(approx, exact.value + 1e-9) << "a=" << a << " b=" << b;
    EXPECT_GE(approx, 0.0);
    EXPECT_LE(exact.value, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace aujoin
