// Tests for first-class shards: shard-plan invariants, exact
// sharded-vs-monolithic join parity across every registry algorithm and
// both placement schemes, serving parity of every store — shards and
// the append store — against the monolithic engine (similarity values
// and stats counters included), per-shard snapshot
// round trips with lazy mounting, the spill-to-disk out-of-core path
// (parity, bounded buffering, no temp-file leaks, kill-point typed
// errors), and concurrent sharded queries. Every suite name contains
// "Shard" so the TSan CI job's ctest filter picks the whole file up.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "shard/shard_plan.h"
#include "shard/sharded_index.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

using PairVec = std::vector<std::pair<uint32_t, uint32_t>>;

#define ASSERT_OK(expr)                              \
  do {                                               \
    const auto status_ = (expr);                     \
    ASSERT_TRUE(status_.ok()) << status_.ToString(); \
  } while (0)

#define EXPECT_OK(expr)                              \
  do {                                               \
    const auto status_ = (expr);                     \
    EXPECT_TRUE(status_.ok()) << status_.ToString(); \
  } while (0)

std::string TempPath(const std::string& name) {
  // Per-process suffix: ctest runs every case as its own process, and
  // concurrent cases of one fixture would otherwise share a filename.
  std::string path = ::testing::TempDir() + "aujoin_shard_" + name + "." +
                     std::to_string(::getpid());
  std::remove(path.c_str());
  return path;
}

/// Files named like spill runs left in `dir` — must always be zero,
/// since runs are unlinked the instant they are mapped.
std::vector<std::string> SpillLeaks(const std::string& dir) {
  std::vector<std::string> leaks;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return leaks;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind("aujoin-spill-", 0) == 0) leaks.push_back(name);
  }
  ::closedir(d);
  return leaks;
}

// -------------------------------------------------------- shard plans

TEST(ShardPlanTest, RangePlanIsContiguousBalancedAndExhaustive) {
  for (size_t n : {0u, 1u, 7u, 64u, 101u}) {
    for (size_t shards : {1u, 2u, 4u, 7u, 150u}) {
      ShardPlan plan = ShardPlan::Make(n, shards, ShardBy::kRange);
      EXPECT_TRUE(plan.contiguous);
      EXPECT_EQ(plan.num_shards(), shards);
      size_t total = 0, min_size = n + 1, max_size = 0;
      uint32_t next = 0;
      for (const std::vector<uint32_t>& ids : plan.shard_ids) {
        for (uint32_t id : ids) EXPECT_EQ(id, next++);
        total += ids.size();
        min_size = std::min(min_size, ids.size());
        max_size = std::max(max_size, ids.size());
      }
      EXPECT_EQ(total, n) << "n=" << n << " shards=" << shards;
      if (n >= shards) {
        EXPECT_LE(max_size - min_size, 1u) << "n=" << n << " s=" << shards;
      }
    }
  }
}

TEST(ShardPlanTest, HashPlanIsDeterministicDisjointAndSorted) {
  const size_t n = 101;
  ShardPlan a = ShardPlan::Make(n, 4, ShardBy::kHash);
  ShardPlan b = ShardPlan::Make(n, 4, ShardBy::kHash);
  ASSERT_EQ(a.num_shards(), 4u);
  EXPECT_FALSE(a.contiguous);
  EXPECT_EQ(a.shard_ids, b.shard_ids) << "the plan is a pure function";

  std::vector<int> owner(n, -1);
  for (size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_TRUE(std::is_sorted(a.shard_ids[s].begin(), a.shard_ids[s].end()));
    for (uint32_t id : a.shard_ids[s]) {
      ASSERT_LT(id, n);
      EXPECT_EQ(owner[id], -1) << "record " << id << " in two shards";
      owner[id] = static_cast<int>(s);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(owner[i], -1) << "record " << i << " unassigned";
  }
  // Interleaving: with 101 records over 4 hash shards, no shard should
  // be a contiguous range (that would mean the hash degenerated).
  size_t contiguous_shards = 0;
  for (const std::vector<uint32_t>& ids : a.shard_ids) {
    if (ids.size() >= 2 && ids.back() - ids.front() + 1 == ids.size()) {
      ++contiguous_shards;
    }
  }
  EXPECT_EQ(contiguous_shards, 0u);
}

TEST(ShardPlanTest, SingleShardIsContiguousUnderBothSchemes) {
  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    ShardPlan plan = ShardPlan::Make(10, 1, by);
    EXPECT_TRUE(plan.contiguous);
    ASSERT_EQ(plan.num_shards(), 1u);
    EXPECT_EQ(plan.shard_ids[0].size(), 10u);
  }
}

TEST(ShardPlanTest, ShardByNamesRoundTrip) {
  ShardBy by;
  ASSERT_TRUE(ParseShardBy("range", &by));
  EXPECT_EQ(by, ShardBy::kRange);
  ASSERT_TRUE(ParseShardBy("hash", &by));
  EXPECT_EQ(by, ShardBy::kHash);
  EXPECT_FALSE(ParseShardBy("modulo", &by));
  EXPECT_STREQ(ShardByName(ShardBy::kRange), "range");
  EXPECT_STREQ(ShardByName(ShardBy::kHash), "hash");
}

// ------------------------------------------------- join parity fixture

/// The Figure-1 fixture strings with planted duplicates (records 1/6
/// and 0/7 near-duplicates), same shape as the pipeline parity suite.
class ShardJoinTest : public ::testing::Test {
 protected:
  ShardJoinTest() {
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

  Engine MakeEngine(size_t num_shards, ShardBy shard_by = ShardBy::kRange,
                    int num_threads = 1, size_t spill_budget = 0,
                    const std::string& spill_dir = "") {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetThreads(num_threads)
                        .SetNumShards(num_shards)
                        .SetShardBy(shard_by)
                        .SetSpillBudgetBytes(spill_budget)
                        .SetSpillDir(spill_dir)
                        .Build();
    engine.SetRecords(records_);
    return engine;
  }

  Figure1World world_;
  std::vector<std::string> texts_;
  std::vector<Record> records_;
};

// The acceptance criterion: for every registry algorithm, both
// placement schemes and every shard count, the sharded join must
// produce the identical sorted match set as the monolithic one.
TEST_F(ShardJoinTest, ShardedMatchesMonolithicForEveryAlgorithm) {
  Engine monolithic = MakeEngine(0);
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
      Engine sharded = MakeEngine(shards, by);
      for (const std::string& name : AlgorithmRegistry::Global().Names()) {
        Result<JoinResult> mono =
            monolithic.Join(name, {.theta = 0.7, .tau = 2});
        Result<JoinResult> shard =
            sharded.Join(name, {.theta = 0.7, .tau = 2});
        ASSERT_TRUE(mono.ok()) << name;
        ASSERT_TRUE(shard.ok())
            << name << " shards=" << shards << " by=" << ShardByName(by);
        EXPECT_EQ(shard->pairs, mono->pairs)
            << name << " shards=" << shards << " by=" << ShardByName(by);
      }
    }
  }
}

TEST_F(ShardJoinTest, ShardedStatsRecordThePlanShape) {
  Engine sharded = MakeEngine(4);
  Result<JoinResult> result = sharded.Join("unified", {.theta = 0.7});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.shards, 4u);
  EXPECT_EQ(result->stats.partition_blocks, 10u);  // upper triangle of 4
  EXPECT_EQ(result->stats.spill_runs, 0u);

  Engine monolithic = MakeEngine(0);
  Result<JoinResult> mono = monolithic.Join("unified", {.theta = 0.7});
  ASSERT_TRUE(mono.ok());
  EXPECT_EQ(mono->stats.shards, 0u);
}

TEST_F(ShardJoinTest, HashShardedEmissionIsSortedAndExactlyOnce) {
  for (size_t shards : {2u, 4u, 7u}) {
    Engine engine = MakeEngine(shards, ShardBy::kHash);
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      PairVec streamed;
      std::map<std::pair<uint32_t, uint32_t>, int> seen;
      CallbackSink sink([&](uint32_t a, uint32_t b) {
        streamed.emplace_back(a, b);
        ++seen[{a, b}];
        return true;
      });
      Result<JoinStats> stats =
          engine.Join(name, {.theta = 0.7, .tau = 2}, &sink);
      ASSERT_TRUE(stats.ok()) << name;
      EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end())) << name;
      EXPECT_EQ(seen.count({1, 6}), 1u) << name << " shards=" << shards;
      for (const auto& [pair, count] : seen) {
        EXPECT_EQ(count, 1) << name << " pair (" << pair.first << ","
                            << pair.second << ") shards=" << shards;
        EXPECT_LT(pair.first, pair.second) << name;
      }
    }
  }
}

TEST_F(ShardJoinTest, ThreadCountDoesNotChangeShardedOutput) {
  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    Engine serial = MakeEngine(4, by, 1);
    Engine parallel = MakeEngine(4, by, 0);
    Result<JoinResult> a = serial.Join("unified", {.theta = 0.7, .tau = 2});
    Result<JoinResult> b = parallel.Join("unified", {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->pairs, b->pairs) << ShardByName(by);
  }
}

TEST_F(ShardJoinTest, EarlyTerminationStopsTheShardedJoin) {
  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    Engine engine = MakeEngine(4, by, 2);
    Result<JoinResult> all = engine.Join("unified", {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(all.ok());
    ASSERT_GE(all->pairs.size(), 2u);

    CountingSink limited(1);
    Result<JoinStats> stats =
        engine.Join("unified", {.theta = 0.7, .tau = 2}, &limited);
    ASSERT_TRUE(stats.ok()) << ShardByName(by);
    EXPECT_EQ(limited.count(), 1u) << ShardByName(by);
    EXPECT_EQ(stats->results, 1u) << ShardByName(by);
  }
}

TEST_F(ShardJoinTest, ShardedRsJoinMatchesMonolithic) {
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

  for (size_t shards : {2u, 4u, 7u}) {
    for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
      Engine sharded = MakeEngine(shards, by, 2);
      sharded.SetRecords(records_, &others);
      Result<JoinResult> shard = sharded.Join("unified", {.theta = 0.8});
      ASSERT_TRUE(shard.ok())
          << "shards=" << shards << " by=" << ShardByName(by);
      EXPECT_EQ(shard->pairs, mono->pairs)
          << "shards=" << shards << " by=" << ShardByName(by);
    }
  }
}

// Parity on a generated corpus big enough for a real shard grid.
TEST(ShardCorpusTest, GeneratedCorpusShardParityAcrossAlgorithms) {
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

  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    Engine sharded = EngineBuilder()
                         .SetKnowledge(knowledge)
                         .SetMeasures("TJS")
                         .SetQ(3)
                         .SetThreads(0)
                         .SetNumShards(4)
                         .SetShardBy(by)
                         .Build();
    sharded.SetRecords(corpus.records);
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      Result<JoinResult> mono =
          monolithic.Join(name, {.theta = 0.75, .tau = 2});
      Result<JoinResult> shard =
          sharded.Join(name, {.theta = 0.75, .tau = 2});
      ASSERT_TRUE(mono.ok()) << name;
      ASSERT_TRUE(shard.ok()) << name << " by=" << ShardByName(by);
      EXPECT_EQ(shard->pairs, mono->pairs)
          << name << " by=" << ShardByName(by);
      EXPECT_FALSE(shard->pairs.empty()) << name;
    }
  }
}

// --------------------------------------------------- serving parity

/// Serving parity over every store: range and hash shards, and the
/// append store (the first half of the records bound, the rest appended
/// through the WAL), both staged and after Refreeze. Each must answer
/// exactly like the monolithic engine, and report the same counters.
class ShardServingTest : public ShardJoinTest {
 protected:
  struct Store {
    std::string name;
    Engine engine;
    /// What SearchStats::shards must report.
    uint64_t shards = 0;
    /// One slice over the whole collection: the same index as the
    /// monolithic engine's, so the same candidate counts too. (Split
    /// stores select each slice's query signature under that slice's
    /// own global order, so their candidate counts legitimately
    /// differ; only their results may not.)
    bool whole = false;
  };

  ShardServingTest()
      : base_(records_.begin(), records_.begin() + records_.size() / 2) {}

  ~ShardServingTest() override {
    for (const std::string& path : wal_paths_) std::remove(path.c_str());
  }

  Engine MakeAppendEngine(int num_threads, bool refreeze) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetThreads(num_threads)
                        .Build();
    engine.SetRecords(base_);
    wal_paths_.push_back(
        TempPath("serving" + std::to_string(wal_paths_.size()) + ".wal"));
    Status enabled = engine.EnableAppend(
        wal_paths_.back(),
        [this](const std::string& text) { return world_.MakeRec(0, text); });
    EXPECT_TRUE(enabled.ok()) << enabled.ToString();
    for (size_t i = base_.size(); i < texts_.size(); ++i) {
      Result<uint32_t> id = engine.Append(texts_[i]);
      EXPECT_TRUE(id.ok() && *id == i) << "append " << i;
    }
    if (refreeze) {
      EXPECT_TRUE(engine.Refreeze().ok());
    }
    return engine;
  }

  /// `shard_counts` × both placement schemes, then the append store
  /// staged and refrozen.
  std::vector<Store> Stores(std::initializer_list<size_t> shard_counts,
                            int num_threads) {
    std::vector<Store> stores;
    for (size_t shards : shard_counts) {
      for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
        stores.push_back({"shards=" + std::to_string(shards) +
                              " by=" + ShardByName(by),
                          MakeEngine(shards, by, num_threads), shards,
                          shards == 1});
      }
    }
    stores.push_back(
        {"append staged", MakeAppendEngine(num_threads, false), 0, false});
    stores.push_back(
        {"append refrozen", MakeAppendEngine(num_threads, true), 0, true});
    return stores;
  }

  /// The counters a store shares with the monolithic engine.
  static void ExpectSameCounters(const SearchStats& got,
                                 const SearchStats& mono,
                                 const Store& store) {
    EXPECT_EQ(got.queries, mono.queries) << store.name;
    EXPECT_EQ(got.results, mono.results) << store.name;
    EXPECT_EQ(got.shards, store.shards) << store.name;
    if (store.whole) {
      EXPECT_EQ(got.query_candidates, mono.query_candidates) << store.name;
    } else {
      EXPECT_GE(got.query_candidates, got.results) << store.name;
    }
  }

  std::vector<Record> base_;
  std::vector<std::string> wal_paths_;
};

TEST_F(ShardServingTest, SearchMatchesMonolithicIncludingSimilarities) {
  Engine monolithic = MakeEngine(0);
  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;
  for (Store& store : Stores({1, 2, 4, 7}, 0)) {
    for (const Record& query : records_) {
      SearchStats mono_stats;
      Result<std::vector<UnifiedSearcher::Match>> mono =
          monolithic.Search(query, options, &mono_stats);
      SearchStats stats;
      Result<std::vector<UnifiedSearcher::Match>> got =
          store.engine.Search(query, options, &stats);
      ASSERT_OK(mono.status());
      ASSERT_OK(got.status());
      // Match operator== covers (id, similarity): ranked order AND
      // scores must agree exactly.
      EXPECT_EQ(*got, *mono) << "query " << query.id << " " << store.name;
      ExpectSameCounters(stats, mono_stats, store);
    }
  }
}

TEST_F(ShardServingTest, StreamingSearchMatchesMonolithic) {
  Engine monolithic = MakeEngine(0);
  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;
  auto stream = [&](Engine& engine, const Record& query, SearchStats* stats) {
    PairVec pairs;
    CallbackSink sink([&](uint32_t a, uint32_t b) {
      pairs.emplace_back(a, b);
      return true;
    });
    EXPECT_OK(engine.Search(query, options, &sink, stats));
    return pairs;
  };
  for (Store& store : Stores({2, 4}, 0)) {
    for (const Record& query : records_) {
      SearchStats mono_stats;
      PairVec mono = stream(monolithic, query, &mono_stats);
      SearchStats stats;
      PairVec got = stream(store.engine, query, &stats);
      EXPECT_EQ(got, mono) << "query " << query.id << " " << store.name;
      ExpectSameCounters(stats, mono_stats, store);
    }
  }
}

TEST_F(ShardServingTest, TopKMatchesTheMonolithicPrefix) {
  Engine monolithic = MakeEngine(0);
  EngineSearchOptions options;
  options.theta = 0.4;
  options.tau = 1;
  for (Store& store : Stores({1, 4}, 1)) {
    for (const Record& query : records_) {
      for (size_t k : {0u, 1u, 2u, 3u, 100u}) {
        SearchStats mono_stats;
        Result<std::vector<UnifiedSearcher::Match>> mono =
            monolithic.TopK(query, k, options, &mono_stats);
        SearchStats stats;
        Result<std::vector<UnifiedSearcher::Match>> got =
            store.engine.TopK(query, k, options, &stats);
        ASSERT_OK(mono.status());
        ASSERT_OK(got.status());
        EXPECT_EQ(*got, *mono)
            << "query " << query.id << " k=" << k << " " << store.name;
        ExpectSameCounters(stats, mono_stats, store);
        if (k == 0) {
          // Still one query, answered with nothing.
          EXPECT_TRUE(got->empty()) << store.name;
          EXPECT_EQ(stats.queries, 1u) << store.name;
        }
      }
    }
  }
}

TEST_F(ShardServingTest, BatchSearchMatchesMonolithic) {
  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;
  auto run_batch = [&](Engine& engine, SearchStats* stats) {
    std::vector<std::pair<uint32_t, uint32_t>> hits;
    std::vector<double> sims;
    Status status = engine.BatchSearch(
        records_, options,
        [&](uint32_t q, const UnifiedSearcher::Match& m) {
          hits.emplace_back(q, m.id);
          sims.push_back(m.similarity);
          return true;
        },
        stats);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return std::make_pair(hits, sims);
  };

  Engine monolithic = MakeEngine(0, ShardBy::kRange, 0);
  SearchStats mono_stats;
  auto mono = run_batch(monolithic, &mono_stats);
  ASSERT_FALSE(mono.first.empty());

  for (Store& store : Stores({2, 4, 7}, 0)) {
    SearchStats stats;
    auto got = run_batch(store.engine, &stats);
    EXPECT_EQ(got, mono) << store.name;
    ExpectSameCounters(stats, mono_stats, store);
  }
}

// ------------------------------------------------ per-shard snapshots

class ShardSnapshotTest : public ShardJoinTest {};

TEST_F(ShardSnapshotTest, SaveLoadRoundTripServesIdentically) {
  const std::string path = TempPath("roundtrip.aujsnap");
  Engine writer = MakeEngine(4, ShardBy::kHash);
  ASSERT_OK(writer.SaveIndex(path));
  EXPECT_TRUE(Env::Default()->FileExists(path)) << "manifest missing";
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(
        Env::Default()->FileExists(ShardedIndex::ShardFileName(path, s)))
        << "shard file " << s << " missing";
  }

  Engine reader = MakeEngine(4, ShardBy::kHash);
  ASSERT_OK(reader.LoadIndex(path));
  EXPECT_STREQ(reader.index_source(), "snapshot");

  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;
  for (const Record& query : records_) {
    Result<std::vector<UnifiedSearcher::Match>> built =
        writer.Search(query, options);
    Result<std::vector<UnifiedSearcher::Match>> mounted =
        reader.Search(query, options);
    ASSERT_OK(built.status());
    ASSERT_OK(mounted.status());
    EXPECT_EQ(*mounted, *built) << "query " << query.id;
  }

  std::remove(path.c_str());
  for (size_t s = 0; s < 4; ++s) {
    std::remove(ShardedIndex::ShardFileName(path, s).c_str());
  }
}

TEST_F(ShardSnapshotTest, NonPositionalIdsRoundTrip) {
  // Record ids need not be positions: the manifest fingerprint Save
  // writes must be the one Load recomputes from the bound records.
  for (Record& r : records_) r.id += 100;
  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;
  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    const std::string path =
        TempPath(std::string("offset_ids_") + ShardByName(by) + ".aujsnap");
    Engine writer = MakeEngine(2, by);
    ASSERT_OK(writer.SaveIndex(path));
    Engine reader = MakeEngine(2, by);
    Status loaded = reader.LoadIndex(path);
    ASSERT_TRUE(loaded.ok()) << ShardByName(by) << ": " << loaded.ToString();
    EXPECT_STREQ(reader.index_source(), "snapshot");
    for (const Record& query : records_) {
      Result<std::vector<UnifiedSearcher::Match>> built =
          writer.Search(query, options);
      Result<std::vector<UnifiedSearcher::Match>> mounted =
          reader.Search(query, options);
      ASSERT_OK(built.status());
      ASSERT_OK(mounted.status());
      EXPECT_EQ(*mounted, *built) << ShardByName(by) << " query " << query.id;
    }
    std::remove(path.c_str());
    for (size_t s = 0; s < 2; ++s) {
      std::remove(ShardedIndex::ShardFileName(path, s).c_str());
    }
  }
}

TEST_F(ShardSnapshotTest, LazyMountTouchesOnlyTheProbedShards) {
  const std::string path = TempPath("lazy.aujsnap");
  {
    Engine writer = MakeEngine(4, ShardBy::kRange);
    ASSERT_OK(writer.SaveIndex(path));
  }
  Engine reader = MakeEngine(4, ShardBy::kRange);
  ASSERT_OK(reader.LoadIndex(path));
  const ShardedIndex* sharded = reader.sharded_index();
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_resident_shards(), 0u)
      << "LoadIndex must arm lazy mounts, not map every shard";

  // One direct shard probe mounts exactly that shard.
  ASSERT_OK(sharded->ShardIndex(2).status());
  EXPECT_EQ(sharded->num_resident_shards(), 1u);

  std::remove(path.c_str());
  for (size_t s = 0; s < 4; ++s) {
    std::remove(ShardedIndex::ShardFileName(path, s).c_str());
  }
}

TEST_F(ShardSnapshotTest, MismatchedShardCountIsRefused) {
  const std::string path = TempPath("mismatch.aujsnap");
  {
    Engine writer = MakeEngine(4, ShardBy::kRange);
    ASSERT_OK(writer.SaveIndex(path));
  }
  Engine reader = MakeEngine(2, ShardBy::kRange);
  Status loaded = reader.LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);

  Engine hash_reader = MakeEngine(4, ShardBy::kHash);
  Status hash_loaded = hash_reader.LoadIndex(path);
  ASSERT_FALSE(hash_loaded.ok());
  EXPECT_EQ(hash_loaded.code(), StatusCode::kFailedPrecondition);

  std::remove(path.c_str());
  for (size_t s = 0; s < 4; ++s) {
    std::remove(ShardedIndex::ShardFileName(path, s).c_str());
  }
}

TEST_F(ShardSnapshotTest, TamperedShardFileIsTypedAtFirstProbe) {
  const std::string path = TempPath("tamper.aujsnap");
  {
    Engine writer = MakeEngine(2, ShardBy::kRange);
    ASSERT_OK(writer.SaveIndex(path));
  }
  // Truncate shard 1's file: the manifest still validates, the lazy
  // mount of shard 1 must fail typed — and only when probed.
  const std::string victim = ShardedIndex::ShardFileName(path, 1);
  Result<uint64_t> size = Env::Default()->GetFileSize(victim);
  ASSERT_OK(size.status());
  ASSERT_OK(Env::Default()->TruncateFile(victim, *size / 2));

  Engine reader = MakeEngine(2, ShardBy::kRange);
  ASSERT_OK(reader.LoadIndex(path));
  const ShardedIndex* sharded = reader.sharded_index();
  ASSERT_NE(sharded, nullptr);
  ASSERT_OK(sharded->ShardIndex(0).status());  // the undamaged shard mounts
  Result<std::shared_ptr<const PreparedIndex>> damaged =
      sharded->ShardIndex(1);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kCorruption);

  // A full query (which scatters to every shard) surfaces the same
  // typed error instead of serving partial results — on a single query
  // and on a batch alike.
  EngineSearchOptions options;
  options.theta = 0.5;
  Result<std::vector<UnifiedSearcher::Match>> scattered =
      reader.Search(records_[0], options);
  ASSERT_FALSE(scattered.ok());
  EXPECT_EQ(scattered.status().code(), StatusCode::kCorruption);
  uint64_t emitted = 0;
  Status batch = reader.BatchSearch(
      records_, options, [&](uint32_t, const UnifiedSearcher::Match&) {
        ++emitted;
        return true;
      });
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.code(), StatusCode::kCorruption);
  EXPECT_EQ(emitted, 0u) << "a failed batch must not emit partial results";

  std::remove(path.c_str());
  for (size_t s = 0; s < 2; ++s) {
    std::remove(ShardedIndex::ShardFileName(path, s).c_str());
  }
}

TEST_F(ShardSnapshotTest, MissingManifestIsTypedIoError) {
  Engine reader = MakeEngine(4, ShardBy::kRange);
  Status loaded = reader.LoadIndex(TempPath("no_such.aujsnap"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.code(), StatusCode::kOk);
}

// ------------------------------------------------- spill-to-disk joins

class ShardSpillTest : public ShardJoinTest {};

TEST_F(ShardSpillTest, SpillingJoinMatchesInMemoryAndLeavesNoTempFiles) {
  const std::string dir = TempPath("spill_dir");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);

  Engine monolithic = MakeEngine(0);
  Result<JoinResult> mono = monolithic.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(mono.ok());
  ASSERT_GE(mono->pairs.size(), 3u);

  for (ShardBy by : {ShardBy::kRange, ShardBy::kHash}) {
    // An 8-byte budget spills after every buffered pair.
    Engine spilling = MakeEngine(4, by, 2, /*spill_budget=*/8, dir);
    Result<JoinResult> spilled =
        spilling.Join("unified", {.theta = 0.7, .tau = 2});
    ASSERT_TRUE(spilled.ok()) << ShardByName(by);
    EXPECT_EQ(spilled->pairs, mono->pairs) << ShardByName(by);
    EXPECT_GT(spilled->stats.spill_runs, 0u) << ShardByName(by);
    EXPECT_GT(spilled->stats.spill_pairs, 0u) << ShardByName(by);
    EXPECT_GT(spilled->stats.spill_bytes, 0u) << ShardByName(by);
    EXPECT_EQ(SpillLeaks(dir), std::vector<std::string>{})
        << ShardByName(by);
  }
  ::rmdir(dir.c_str());
}

TEST_F(ShardSpillTest, PartitionedJoinSpillsThroughTheSamePath) {
  const std::string dir = TempPath("spill_part_dir");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  Engine monolithic = MakeEngine(0);
  Result<JoinResult> mono =
      monolithic.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(mono.ok());

  // Partition mode (max_partition_records) with a spill budget: the
  // pipeline's collect-and-merge engages even though the plan is
  // contiguous.
  Engine spilling = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetMaxPartitionRecords(3)
                        .SetSpillBudgetBytes(8)
                        .SetSpillDir(dir)
                        .Build();
  spilling.SetRecords(records_);
  Result<JoinResult> spilled =
      spilling.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(spilled->pairs, mono->pairs);
  EXPECT_GT(spilled->stats.spill_runs, 0u);
  EXPECT_EQ(SpillLeaks(dir), std::vector<std::string>{});
  ::rmdir(dir.c_str());
}

TEST_F(ShardSpillTest, EveryKillPointSurfacesTypedErrorsAndNoLeaks) {
  const std::string dir = TempPath("spill_kill_dir");
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  // The directory may survive an earlier (aborted) run; start clean so the
  // per-kill-point leak checks only see this sweep's files.
  for (const std::string& stale : SpillLeaks(dir)) {
    ::unlink((dir + "/" + stale).c_str());
  }

  Engine oracle = MakeEngine(0);
  Result<JoinResult> expected =
      oracle.Join("unified", {.theta = 0.7, .tau = 2});
  ASSERT_TRUE(expected.ok());

  bool completed = false;
  int kill = 0;
  for (; kill < 200 && !completed; ++kill) {
    FaultInjectionEnv fenv(Env::Default());
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMeasures("TJS")
                        .SetQ(2)
                        .SetThreads(2)
                        .SetNumShards(4)
                        .SetShardBy(ShardBy::kHash)
                        .SetSpillBudgetBytes(8)
                        .SetSpillDir(dir)
                        .SetEnv(&fenv)
                        .Build();
    engine.SetRecords(records_);
    fenv.FailAfterOps(kill);
    Result<JoinResult> join = engine.Join("unified", {.theta = 0.7, .tau = 2});
    bool fired = fenv.fault_fired();
    fenv.ClearFault();
    if (join.ok()) {
      // Either the fault hit after the last spill I/O or never fired:
      // the results must be the full, exact set.
      EXPECT_EQ(join->pairs, expected->pairs) << "kill " << kill;
      completed = !fired;
    } else {
      // A typed error, never UB — and the join must not half-emit.
      EXPECT_TRUE(fired) << "kill " << kill << ": "
                         << join.status().ToString();
      EXPECT_NE(join.status().code(), StatusCode::kOk);
    }
    // With a sticky fault armed, even the writer's best-effort cleanup
    // unlink fails — exactly like a process that died mid-spill. What
    // matters is what a *crash* leaves behind: spill files are never
    // published with a directory fsync, so SimulateCrash must erase
    // every unpublished creation and leave the directory empty.
    ASSERT_TRUE(fenv.SimulateCrash().ok()) << "kill " << kill;
    EXPECT_EQ(SpillLeaks(dir), std::vector<std::string>{})
        << "kill " << kill;
  }
  ASSERT_TRUE(completed) << "workload never completed within " << kill
                         << " kill points";
  EXPECT_GT(kill, 2) << "spill workload too short to be a meaningful sweep";
  ::rmdir(dir.c_str());
}

// ------------------------------------------------ concurrent serving

// Many threads race Search / TopK / BatchSearch against ONE sharded
// engine whose shards build lazily — the TSan job runs this under
// `ctest -R Shard` to certify the per-shard double-checked publication.
TEST(ShardConcurrencyTest, ConcurrentQueriesAgreeWithTheMonolithicOracle) {
  Figure1World world;
  std::vector<std::string> texts = {
      "coffee shop latte helsingki", "espresso cafe helsinki",
      "cake gateau",                 "apple cake",
      "latte espresso coffee",       "random words here",
      "espresso cafe helsinki",      "coffee shop latte helsinki",
  };
  std::vector<Record> records;
  for (size_t i = 0; i < texts.size(); ++i) {
    records.push_back(world.MakeRec(static_cast<uint32_t>(i), texts[i]));
  }

  EngineSearchOptions options;
  options.theta = 0.5;
  options.tau = 1;

  Engine monolithic = EngineBuilder()
                          .SetKnowledge(world.knowledge())
                          .SetMeasures("TJS")
                          .SetQ(2)
                          .Build();
  monolithic.SetRecords(records);
  std::vector<std::vector<UnifiedSearcher::Match>> oracle;
  for (const Record& query : records) {
    Result<std::vector<UnifiedSearcher::Match>> matches =
        monolithic.Search(query, options);
    ASSERT_OK(matches.status());
    oracle.push_back(*matches);
  }

  Engine sharded = EngineBuilder()
                       .SetKnowledge(world.knowledge())
                       .SetMeasures("TJS")
                       .SetQ(2)
                       .SetThreads(2)
                       .SetNumShards(4)
                       .SetShardBy(ShardBy::kHash)
                       .Build();
  sharded.SetRecords(records);

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t qi = static_cast<size_t>(t + round) % records.size();
        if (t % 2 == 0) {
          Result<std::vector<UnifiedSearcher::Match>> got =
              sharded.Search(records[qi], options);
          if (!got.ok()) {
            ++errors;
          } else if (*got != oracle[qi]) {
            ++mismatches;
          }
        } else {
          Result<std::vector<UnifiedSearcher::Match>> got =
              sharded.TopK(records[qi], 2, options);
          std::vector<UnifiedSearcher::Match> want = oracle[qi];
          if (want.size() > 2) want.resize(2);
          if (!got.ok()) {
            ++errors;
          } else if (*got != want) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace aujoin
