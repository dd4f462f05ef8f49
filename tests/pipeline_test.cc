// Tests for the blocked join pipeline over range shards: block
// enumeration, exact sharded-vs-monolithic result parity across every
// registry algorithm, shard-boundary dedup, thread-count invariance
// under sharding, and early termination.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/pipeline.h"
#include "shard/shard_plan.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

using PairVec = std::vector<std::pair<uint32_t, uint32_t>>;

// ----------------------------------------------------- block enumeration

TEST(PartitionPlanTest, SelfJoinBlocksAreUpperTriangleInStripeOrder) {
  std::vector<PartitionBlock> blocks = EnumerateBlocks(3, 3, true);
  ASSERT_EQ(blocks.size(), 6u);  // 3 diagonal + 3 cross
  uint32_t prev_s = 0;
  for (const PartitionBlock& b : blocks) {
    EXPECT_LE(b.s_part, b.t_part);
    EXPECT_GE(b.s_part, prev_s);  // stripe order
    prev_s = b.s_part;
  }
  EXPECT_TRUE(blocks[0].diagonal());
}

TEST(PartitionPlanTest, RsJoinBlocksCoverTheFullGrid) {
  std::vector<PartitionBlock> blocks = EnumerateBlocks(2, 3, false);
  EXPECT_EQ(blocks.size(), 6u);
}

// --------------------------------------------------------- parity suite

/// Fixture worlds: the Figure-1 fixture (8 hand-written strings) and a
/// generated datagen corpus large enough for several shards.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    texts_ = {
        "coffee shop latte helsingki",
        "espresso cafe helsinki",
        "cake gateau",
        "apple cake",
        "latte espresso coffee",
        "random words here",
        "espresso cafe helsinki",  // exact duplicate of record 1
        "coffee shop latte helsinki",
    };
    for (size_t i = 0; i < texts_.size(); ++i) {
      records_.push_back(world_.MakeRec(static_cast<uint32_t>(i), texts_[i]));
    }
  }

  Engine MakeEngine(size_t num_shards, int num_threads = 1) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetThreads(num_threads)
                        .SetNumShards(num_shards)
                        .Build();
    engine.SetRecords(records_);
    return engine;
  }

  Figure1World world_;
  std::vector<std::string> texts_;
  std::vector<Record> records_;
};

// For every registry algorithm, the sharded path must produce the
// identical sorted match set as the monolithic one, from one record per
// shard up to a single shard.
TEST_F(PipelineTest, PartitionedMatchesMonolithicForEveryAlgorithm) {
  Engine monolithic = MakeEngine(0);
  for (size_t shards : {8u, 4u, 3u, 2u, 1u}) {
    Engine sharded = MakeEngine(shards);
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      Result<JoinResult> mono =
          monolithic.Join(name, {.theta = 0.7, .tau = 2});
      Result<JoinResult> part = sharded.Join(name, {.theta = 0.7, .tau = 2});
      ASSERT_TRUE(mono.ok()) << name;
      ASSERT_TRUE(part.ok()) << name << " shards=" << shards;
      EXPECT_EQ(part->pairs, mono->pairs) << name << " shards=" << shards;
      EXPECT_EQ(part->stats.results, mono->stats.results) << name;
    }
  }
}

TEST_F(PipelineTest, PartitionedStatsRecordThePlanShape) {
  Engine sharded = MakeEngine(3);
  Result<JoinResult> result = sharded.Join("unified", {.theta = 0.7});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.shards, 3u);
  EXPECT_EQ(result->stats.partition_blocks, 6u);  // upper triangle of 3

  Engine monolithic = MakeEngine(0);
  Result<JoinResult> mono = monolithic.Join("unified", {.theta = 0.7});
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(mono->stats.shards, 0u);
  EXPECT_EQ(mono->stats.partition_blocks, 0u);
}

// Records 1 and 6 are exact duplicates; with 3 shards they land in
// different shards, so the pair (1, 6) must come from exactly one
// cross block — and exactly once.
TEST_F(PipelineTest, BoundaryStraddlingPairsAreEmittedExactlyOnce) {
  for (size_t shards : {8u, 4u, 3u, 2u}) {
    Engine engine = MakeEngine(shards);
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      std::map<std::pair<uint32_t, uint32_t>, int> seen;
      CallbackSink sink([&](uint32_t a, uint32_t b) {
        ++seen[{a, b}];
        return true;
      });
      Result<JoinStats> stats =
          engine.Join(name, {.theta = 0.7, .tau = 2}, &sink);
      ASSERT_TRUE(stats.ok()) << name;
      EXPECT_EQ(seen.count({1, 6}), 1u) << name << " shards=" << shards;
      for (const auto& [pair, count] : seen) {
        EXPECT_EQ(count, 1) << name << " pair (" << pair.first << ","
                            << pair.second << ") shards=" << shards;
        EXPECT_LT(pair.first, pair.second) << name;
      }
    }
  }
}

TEST_F(PipelineTest, PartitionedEmissionIsGloballySorted) {
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    PairVec streamed;
    CallbackSink sink([&](uint32_t a, uint32_t b) {
      streamed.emplace_back(a, b);
      return true;
    });
    Engine engine = MakeEngine(3);
    Result<JoinStats> stats =
        engine.Join(name, {.theta = 0.7, .tau = 2}, &sink);
    ASSERT_TRUE(stats.ok()) << name;
    EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end())) << name;
  }
}

TEST_F(PipelineTest, ThreadCountDoesNotChangePartitionedOutput) {
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    Engine serial = MakeEngine(3, 1);
    Engine parallel = MakeEngine(3, 0);
    Engine two = MakeEngine(3, 2);
    Result<JoinResult> a = serial.Join(name, {.theta = 0.7, .tau = 2});
    Result<JoinResult> b = parallel.Join(name, {.theta = 0.7, .tau = 2});
    Result<JoinResult> c = two.Join(name, {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    ASSERT_TRUE(c.ok()) << name;
    EXPECT_EQ(a->pairs, b->pairs) << name;
    EXPECT_EQ(a->pairs, c->pairs) << name;
  }
}

TEST_F(PipelineTest, EarlyTerminationStopsThePartitionedJoin) {
  Engine engine = MakeEngine(4, 2);
  Result<JoinResult> all = engine.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->pairs.size(), 2u);

  CountingSink limited(1);
  Result<JoinStats> stats =
      engine.Join("unified", {.theta = 0.7, .tau = 2}, &limited);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(limited.count(), 1u);
  EXPECT_EQ(stats->results, 1u);
}

TEST_F(PipelineTest, PartitionedRsJoinMatchesMonolithic) {
  std::vector<Record> others = {
      world_.MakeRec(0, "espresso cafe helsinki"),
      world_.MakeRec(1, "apple cake"),
      world_.MakeRec(2, "coffee shop latte helsingki"),
      world_.MakeRec(3, "unrelated filler tokens"),
      world_.MakeRec(4, "latte espresso coffee"),
  };
  Engine monolithic = MakeEngine(0);
  monolithic.SetRecords(records_, &others);
  Result<JoinResult> mono = monolithic.Join("unified", {.theta = 0.8});
  ASSERT_TRUE(mono.ok());
  ASSERT_FALSE(mono->pairs.empty());

  for (size_t shards : {4u, 3u, 2u}) {
    Engine sharded = MakeEngine(shards, 2);
    sharded.SetRecords(records_, &others);
    Result<JoinResult> part = sharded.Join("unified", {.theta = 0.8});
    ASSERT_TRUE(part.ok()) << "shards=" << shards;
    EXPECT_EQ(part->pairs, mono->pairs) << "shards=" << shards;
  }
}

// Under exact matching every algorithm must still find precisely the
// duplicate pairs when those duplicates straddle shard boundaries.
TEST(PipelineExactMatchTest, AllAlgorithmsAgreeAtThetaOneWhenPartitioned) {
  Vocabulary vocab;
  RuleSet rules;
  Taxonomy taxonomy;
  Knowledge knowledge{&vocab, &rules, &taxonomy};

  std::vector<Record> records;
  const char* texts[] = {
      "alpha beta gamma",
      "delta epsilon",
      "alpha beta gamma",  // duplicate of 0
      "zeta eta theta iota",
      "delta epsilon",     // duplicate of 1
  };
  for (uint32_t i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(i, texts[i], &vocab));
  }
  const PairVec expected = {{0, 2}, {1, 4}};

  for (size_t shards : {5u, 3u, 2u}) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(knowledge)
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetNumShards(shards)
                        .Build();
    engine.SetRecords(records);
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      Result<JoinResult> result = engine.Join(name, {.theta = 1.0, .tau = 1});
      ASSERT_TRUE(result.ok()) << name << " shards=" << shards;
      EXPECT_EQ(result->pairs, expected) << name << " shards=" << shards;
    }
  }
}

// Parity on a generated corpus big enough for a real shard grid, for
// every registry algorithm (kept small so Debug/sanitizer CI stays fast).
TEST(PipelineCorpusTest, GeneratedCorpusParityAcrossAlgorithms) {
  Vocabulary vocab;
  TaxonomyGenOptions tax;
  tax.num_nodes = 300;
  Taxonomy taxonomy = GenerateTaxonomy(tax, &vocab);
  SynonymGenOptions syn;
  syn.num_rules = 400;
  RuleSet rules = GenerateSynonyms(syn, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};

  CorpusProfile profile = CorpusProfile::Med(120);
  GroundTruthOptions truth;
  truth.num_pairs = 30;
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(profile, truth);

  Engine monolithic = EngineBuilder()
                          .SetKnowledge(knowledge)
                          .SetMeasures("TJS")
                          .SetQ(3)
                          .Build();
  monolithic.SetRecords(corpus.records);
  Engine sharded = EngineBuilder()
                       .SetKnowledge(knowledge)
                       .SetMeasures("TJS")
                       .SetQ(3)
                       .SetThreads(0)
                       .SetNumShards(4)
                       .Build();
  sharded.SetRecords(corpus.records);

  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    Result<JoinResult> mono = monolithic.Join(name, {.theta = 0.75, .tau = 2});
    Result<JoinResult> part = sharded.Join(name, {.theta = 0.75, .tau = 2});
    ASSERT_TRUE(mono.ok()) << name;
    ASSERT_TRUE(part.ok()) << name;
    EXPECT_EQ(part->pairs, mono->pairs) << name;
    EXPECT_FALSE(part->pairs.empty()) << name
        << ": corpus with planted duplicates should produce matches";
  }
}

}  // namespace
}  // namespace aujoin
