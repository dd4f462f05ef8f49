// The Engine serving subsystem: online Search/TopK/BatchSearch over
// the shared immutable PreparedIndex. Covers the search/join parity
// contract on the checked-in data/ fixture (a search for each record
// must agree with the unified self-join restricted to that record),
// concurrent queries on one engine (the suite runs under TSan in CI —
// see the sanitize job's ctest filter), and one meaning of the
// SearchStats timings on every serving store and entry point.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "dataset/dataset.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

constexpr double kTheta = 0.7;

/// The poi.csv fixture world, ingested exactly as the CLI smoke does.
class ServingFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::string root = AUJOIN_SOURCE_DIR;
    DatasetSpec spec;
    spec.records_path = root + "/data/poi.csv";
    spec.reader.columns = {"name", "city"};
    spec.reader.has_header = true;
    spec.rules_path = root + "/data/poi_rules.tsv";
    spec.taxonomy_path = root + "/data/poi_taxonomy.tsv";
    spec.tokenizer.split_punctuation = true;
    Result<Dataset> loaded = LoadDataset(spec);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    dataset_ = new Dataset(std::move(*loaded));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static Engine MakeEngine(int threads = 1) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(dataset_->knowledge())
                        .SetMeasures("TJS")
                        .SetQ(3)
                        .SetThreads(threads)
                        .Build();
    engine.SetRecords(dataset_->records);
    return engine;
  }

  static Dataset* dataset_;
};

Dataset* ServingFixtureTest::dataset_ = nullptr;

TEST_F(ServingFixtureTest, SearchAgreesWithUnifiedJoinPerRecord) {
  Engine engine = MakeEngine();
  EngineJoinOptions join_options;
  join_options.theta = kTheta;
  join_options.tau = 2;
  Result<JoinResult> join = engine.Join("unified", join_options);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  ASSERT_FALSE(join->pairs.empty());

  EngineSearchOptions search_options;
  search_options.theta = kTheta;
  const std::vector<Record>& records = dataset_->records;
  for (uint32_t i = 0; i < records.size(); ++i) {
    // The join's matches touching record i...
    std::set<uint32_t> expected;
    for (const auto& [a, b] : join->pairs) {
      if (a == i) expected.insert(b);
      if (b == i) expected.insert(a);
    }
    // ...must be exactly what serving returns for i as a query, minus
    // the self-hit (a self-join never pairs a record with itself).
    Result<std::vector<UnifiedSearcher::Match>> matches =
        engine.Search(records[i], search_options);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    std::set<uint32_t> got;
    for (const auto& m : *matches) {
      EXPECT_GE(m.similarity, kTheta);
      if (m.id != i) got.insert(m.id);
    }
    EXPECT_EQ(got, expected) << "query record " << i;
  }
}

TEST_F(ServingFixtureTest, ConcurrentSearchesMatchSerialResults) {
  Engine engine = MakeEngine();
  EngineSearchOptions options;
  options.theta = kTheta;
  const std::vector<Record>& records = dataset_->records;

  std::vector<std::vector<UnifiedSearcher::Match>> serial(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    auto matches = engine.Search(records[i], options);
    ASSERT_TRUE(matches.ok());
    serial[i] = *matches;
  }

  // Many threads, one const engine, every thread searching every
  // record repeatedly — the TSan job proves race-freedom, the
  // assertions prove answers do not depend on interleaving.
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const Engine& const_engine = engine;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SearchStats stats;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < records.size(); ++i) {
          auto matches = const_engine.Search(records[i], options, &stats);
          if (!matches.ok() || *matches != serial[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST_F(ServingFixtureTest, TopKBoundsAndOrdersEngineResults) {
  Engine engine = MakeEngine();
  EngineSearchOptions options;
  options.theta = 0.5;
  const Record& query = dataset_->records[0];
  auto all = engine.Search(query, options);
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->size(), 2u);
  auto top1 = engine.TopK(query, 1, options);
  ASSERT_TRUE(top1.ok());
  ASSERT_EQ(top1->size(), 1u);
  EXPECT_EQ((*top1)[0], (*all)[0]);
  SearchStats stats;
  auto top0 = engine.TopK(query, 0, options, &stats);
  ASSERT_TRUE(top0.ok());
  EXPECT_TRUE(top0->empty());
  EXPECT_EQ(stats.queries, 1u);
}

TEST_F(ServingFixtureTest, StreamingSearchEmitsRankOrder) {
  Engine engine = MakeEngine();
  EngineSearchOptions options;
  options.theta = 0.5;
  const Record& query = dataset_->records[0];
  auto expected = engine.Search(query, options);
  ASSERT_TRUE(expected.ok());
  std::vector<std::pair<uint32_t, uint32_t>> streamed;
  CallbackSink sink([&](uint32_t first, uint32_t second) {
    streamed.emplace_back(first, second);
    return true;
  });
  ASSERT_TRUE(engine.Search(query, options, &sink).ok());
  ASSERT_EQ(streamed.size(), expected->size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].first, query.id);
    EXPECT_EQ(streamed[i].second, (*expected)[i].id);
  }
}

TEST_F(ServingFixtureTest, BatchSearchFansQueriesInOrder) {
  for (int threads : {1, 4}) {
    Engine engine = MakeEngine(threads);
    EngineSearchOptions options;
    options.theta = kTheta;
    options.k = 3;
    const std::vector<Record>& queries = dataset_->records;

    std::vector<std::vector<UnifiedSearcher::Match>> per_query(
        queries.size());
    SearchStats stats;
    Status status = engine.BatchSearch(
        queries, options,
        [&](uint32_t query_index, const UnifiedSearcher::Match& m) {
          per_query[query_index].push_back(m);
          return true;
        },
        &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.queries, queries.size());
    uint64_t total = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto expected = engine.TopK(queries[q], options.k, options);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(per_query[q], *expected) << "query " << q;
      total += per_query[q].size();
    }
    EXPECT_EQ(stats.results, total);
    EXPECT_GT(total, queries.size());  // at least every self-hit + some
  }
}

TEST_F(ServingFixtureTest, SearchBeforeSetRecordsFailsCleanly) {
  Engine engine = EngineBuilder()
                      .SetKnowledge(dataset_->knowledge())
                      .Build();
  Figure1World world;
  Record query = world.MakeRec(0, "espresso");
  EXPECT_FALSE(engine.Search(query, {}).ok());
  EXPECT_FALSE(engine.TopK(query, 0, {}).ok());
  EXPECT_FALSE(engine.ServingIndex().ok());
}

// --- SearchStats timings: one definition on every store -------------

enum class ServingStore { kMonolithic, kSharded, kAppend };

/// search_seconds is the whole call; index_seconds is the one-time
/// prepare + CSR build (or mount) that the call paid for, so it is
/// positive on a fresh engine's first call, never above search_seconds,
/// and zero once everything is built.
class ServingStatsTest : public ServingFixtureTest,
                         public ::testing::WithParamInterface<ServingStore> {
 protected:
  ServingStatsTest()
      : wal_path_(::testing::TempDir() + "aujoin_serving_stats." +
                  std::to_string(::getpid()) + ".wal") {
    const std::vector<Record>& records = dataset_->records;
    base_.assign(records.begin(), records.begin() + records.size() / 2);
  }

  ~ServingStatsTest() override { std::remove(wal_path_.c_str()); }

  /// A fresh engine of the store under test (nothing built yet, except
  /// the append store's base, which EnableAppend prepares), on two
  /// threads so shards build in parallel.
  Engine MakeStoreEngine() {
    EngineBuilder builder;
    builder.SetKnowledge(dataset_->knowledge())
        .SetMeasures("TJS")
        .SetQ(3)
        .SetThreads(2);
    if (GetParam() == ServingStore::kSharded) builder.SetNumShards(3);
    Engine engine = builder.Build();
    if (GetParam() != ServingStore::kAppend) {
      engine.SetRecords(dataset_->records);
      return engine;
    }
    // The append store: half the records bound as the base, the rest
    // appended (staged, their mini index not yet built).
    engine.SetRecords(base_);
    std::remove(wal_path_.c_str());
    TokenizerOptions tokenizer;
    tokenizer.split_punctuation = true;
    Status enabled = engine.EnableAppend(
        wal_path_, [tokenizer](const std::string& text) {
          return MakeRecord(0, text, &dataset_->vocab, tokenizer);
        });
    EXPECT_TRUE(enabled.ok()) << enabled.ToString();
    for (size_t i = base_.size(); i < dataset_->records.size(); ++i) {
      EXPECT_TRUE(engine.Append(dataset_->records[i].text).ok());
    }
    return engine;
  }

  std::string wal_path_;
  std::vector<Record> base_;
};

TEST_P(ServingStatsTest, FirstCallPaysTheIndexWorkLaterCallsPayNothing) {
  EngineSearchOptions options;
  options.theta = kTheta;
  const Record& query = dataset_->records[0];
  const char* const kEntryPoints[] = {"Search", "TopK", "streaming Search",
                                      "BatchSearch"};
  auto call = [&](int entry_point, Engine& engine, SearchStats* stats) {
    CountingSink sink;
    switch (entry_point) {
      case 0:
        return engine.Search(query, options, stats).status();
      case 1:
        return engine.TopK(query, 3, options, stats).status();
      case 2:
        return engine.Search(query, options, &sink, stats);
      default:
        return engine.BatchSearch(dataset_->records, options, &sink, stats);
    }
  };
  // Every entry point, each on a fresh engine of the store.
  for (int e = 0; e < 4; ++e) {
    const char* name = kEntryPoints[e];
    Engine engine = MakeStoreEngine();
    SearchStats first;
    ASSERT_TRUE(call(e, engine, &first).ok()) << name;
    EXPECT_GT(first.index_seconds, 0.0) << name;
    EXPECT_LE(first.index_seconds, first.search_seconds) << name;
    if (GetParam() == ServingStore::kMonolithic) {
      // All of the one index's work: its prepare and its CSR build.
      Result<std::shared_ptr<const PreparedIndex>> index =
          engine.ServingIndex();
      ASSERT_TRUE(index.ok());
      EXPECT_DOUBLE_EQ(first.index_seconds, (*index)->prepare_seconds() +
                                                (*index)->index_seconds())
          << name;
    }
    SearchStats second;
    ASSERT_TRUE(call(e, engine, &second).ok()) << name;
    EXPECT_EQ(second.index_seconds, 0.0) << name;
    EXPECT_GT(second.search_seconds, 0.0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stores, ServingStatsTest,
    ::testing::Values(ServingStore::kMonolithic, ServingStore::kSharded,
                      ServingStore::kAppend),
    [](const ::testing::TestParamInfo<ServingStore>& info) {
      switch (info.param) {
        case ServingStore::kMonolithic:
          return std::string("Monolithic");
        case ServingStore::kSharded:
          return std::string("Sharded");
        case ServingStore::kAppend:
          return std::string("Append");
      }
      return std::string();
    });

}  // namespace
}  // namespace aujoin
