// Parity suite for the probe and verify loops: CandidateAccumulator's
// count-merge and selects, SortedIntersectionSize and AccumulateWeights
// (kernels/kernels.h), each against an independent oracle on random
// runs, plus the accumulator's epoch-wrap clear. The suite name carries
// "Kernel" so the CI sanitize job's TSan filter picks it up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "index/csr_index.h"
#include "kernels/kernels.h"

namespace aujoin {
namespace {

/// Independent oracle for SortedIntersectionSize's multiset semantics:
/// every element of `a` (in order, with a's multiplicity) that occurs
/// anywhere in `b`.
std::vector<uint32_t> IntersectOracle(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  size_t j = 0;
  for (uint32_t v : a) {
    while (j < b.size() && b[j] < v) ++j;
    if (j < b.size() && b[j] == v) out.push_back(v);
  }
  return out;
}

/// SortedIntersectionSize against the oracle on structured edge shapes
/// (empty / singleton / disjoint / identical / duplicate-heavy) and
/// random sorted runs, 60 seeded rounds, both argument orders.
TEST(KernelParityTest, IntersectSortedMatchesOracleOnRandomRuns) {
  std::mt19937 rng(20260809);
  for (int round = 0; round < 60; ++round) {
    std::vector<uint32_t> a, b;
    auto sorted_random = [&](size_t n, uint32_t universe, bool dedupe) {
      std::vector<uint32_t> v(n);
      for (uint32_t& x : v) x = rng() % (universe + 1);
      std::sort(v.begin(), v.end());
      if (dedupe) v.erase(std::unique(v.begin(), v.end()), v.end());
      return v;
    };
    switch (round % 6) {
      case 0:  // one side empty
        a = {};
        b = sorted_random(rng() % 40, 100, true);
        break;
      case 1:  // singletons, hit or miss
        a = {static_cast<uint32_t>(rng() % 10)};
        b = sorted_random(1 + rng() % 20, 10, true);
        break;
      case 2:  // disjoint by parity
        a = sorted_random(rng() % 60, 200, true);
        b = sorted_random(rng() % 60, 200, true);
        for (uint32_t& x : a) x = x * 2;
        for (uint32_t& x : b) x = x * 2 + 1;
        break;
      case 3:  // identical
        a = sorted_random(rng() % 60, 150, true);
        b = a;
        break;
      case 4:  // duplicate-heavy multisets over a tiny universe
        a = sorted_random(rng() % 80, 12, false);
        b = sorted_random(rng() % 80, 12, false);
        break;
      default:  // general random
        a = sorted_random(rng() % 200, 1 + rng() % 300, true);
        b = sorted_random(rng() % 200, 1 + rng() % 300, true);
        break;
    }
    for (int swap = 0; swap < 2; ++swap) {
      const std::vector<uint32_t>& x = swap ? b : a;
      const std::vector<uint32_t>& y = swap ? a : b;
      EXPECT_EQ(SortedIntersectionSize(x.data(), x.size(), y.data(), y.size()),
                IntersectOracle(x, y).size());
    }
  }
}

/// The reduction AccumulateWeights promises, written out: lane i % 4
/// accumulates in index order, then (lane0 + lane2) + (lane1 + lane3).
double FourLaneSum(const std::vector<double>& weights, const uint32_t* idx,
                   size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    lanes[i % 4] += idx == nullptr ? weights[i] : weights[idx[i]];
  }
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

/// AccumulateWeights is pinned bit for bit to the four-lane formula,
/// contiguous (idx == nullptr) and gathered, for every n in 0..70. The
/// weights span many magnitudes so a different summation order rounds
/// differently; the suite checks that it does on some n, so a plain
/// running sum cannot pass.
TEST(KernelParityTest, AccumulateWeightsMatchesFourLaneFormula) {
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::vector<double> weights(300);
  for (double& w : weights) w = mantissa(rng) * std::ldexp(1.0, rng() % 60);
  bool order_matters = false;
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint32_t> idx(n);
    for (uint32_t& v : idx) {
      v = rng() % static_cast<uint32_t>(weights.size());
    }
    // EQ on doubles on purpose: the contract is a fixed reduction
    // order, so the sums must match bit for bit, not approximately.
    const double gathered = AccumulateWeights(weights.data(), idx.data(), n);
    EXPECT_EQ(gathered, FourLaneSum(weights, idx.data(), n)) << n;
    const double contiguous = AccumulateWeights(weights.data(), nullptr, n);
    EXPECT_EQ(contiguous, FourLaneSum(weights, nullptr, n)) << n;
    double running = 0.0;
    for (size_t i = 0; i < n; ++i) running += weights[idx[i]];
    order_matters = order_matters || running != gathered;
  }
  EXPECT_TRUE(order_matters);
}

/// CandidateAccumulator against a plain map oracle: first-touch order,
/// counts, and the BumpRun + SelectGE / SelectMergedGE surface.
TEST(KernelParityTest, AccumulatorMatchesMapOracleOnEveryKernel) {
  std::mt19937 rng(42);
  CandidateAccumulator acc;
  for (int probe = 0; probe < 20; ++probe) {
    const size_t universe = 50 + rng() % 200;
    acc.Begin(universe);
    std::map<uint32_t, uint32_t> oracle;
    std::vector<uint32_t> first_touch;
    for (int run = 0; run < 6; ++run) {
      std::vector<uint32_t> ids(rng() % 40);
      for (uint32_t& id : ids) {
        id = rng() % static_cast<uint32_t>(universe);
      }
      acc.BumpRun(ids.data(), ids.size());
      for (uint32_t id : ids) {
        if (oracle[id]++ == 0) first_touch.push_back(id);
      }
    }
    CandidateAccumulator::IdSpan touched = acc.touched();
    EXPECT_EQ(std::vector<uint32_t>(touched.begin(), touched.end()),
              first_touch);
    for (const auto& [id, count] : oracle) {
      EXPECT_EQ(acc.count(id), count);
    }
    const uint32_t threshold = 1 + rng() % 3;
    std::vector<uint32_t> expected;
    for (uint32_t id : first_touch) {
      if (oracle[id] >= threshold) expected.push_back(id);
    }
    CandidateAccumulator::IdSpan kept = acc.SelectGE(threshold);
    EXPECT_EQ(std::vector<uint32_t>(kept.begin(), kept.end()), expected);

    std::vector<uint32_t> taus(universe);
    for (uint32_t& tau : taus) tau = 1 + rng() % 3;
    expected.clear();
    for (uint32_t id : first_touch) {
      if (oracle[id] >= std::min(taus[id], threshold)) {
        expected.push_back(id);
      }
    }
    CandidateAccumulator::IdSpan merged =
        acc.SelectMergedGE(taus.data(), threshold);
    EXPECT_EQ(std::vector<uint32_t>(merged.begin(), merged.end()), expected);
  }
}

/// Epoch wrap is the accumulator's one real clear: stamps written just
/// before the 32-bit epoch wraps must not alias counts after it.
TEST(KernelParityTest, EpochWrapClearsStaleStamps) {
  CandidateAccumulator acc;
  acc.Begin(16);  // epoch 1
  const std::vector<uint32_t> run = {3, 3, 7, 9, 3};
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  // Jump to the last epoch before the wrap and probe there.
  acc.SetEpochForTesting(0xFFFFFFFEu);
  acc.Begin(16);  // epoch 0xFFFFFFFF
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  EXPECT_EQ(acc.count(9), 1u);
  // The wrapping Begin must zero the array: post-wrap epochs restart
  // at 1, the epoch the {3,7,9} stamps of the first probe carry.
  acc.Begin(16);  // wraps: clears, epoch 1 again
  EXPECT_EQ(acc.count(3), 0u);
  EXPECT_EQ(acc.count(7), 0u);
  EXPECT_TRUE(acc.touched().empty());
  acc.BumpRun(run.data(), run.size());
  EXPECT_EQ(acc.count(3), 3u);
  EXPECT_EQ(acc.count(9), 1u);
  EXPECT_EQ(acc.SelectGE(2).size(), 1u);  // only id 3 reaches 2
}

}  // namespace
}  // namespace aujoin
