#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/search.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

TEST(SearchTest, FindsMixedSimilarityMatchesOnFigure1World) {
  Figure1World world;
  std::vector<Record> collection;
  collection.push_back(world.MakeRec(0, "espresso cafe helsinki"));
  collection.push_back(world.MakeRec(1, "cake bakery"));
  collection.push_back(world.MakeRec(2, "unrelated words"));
  UnifiedSearcher searcher(world.knowledge(), MsimOptions{.q = 1});
  searcher.Index(&collection);

  Record query = world.MakeRec(100, "coffee shop latte helsingki");
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.8;
  auto matches = searcher.Search(query, options);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 0u);
  EXPECT_NEAR(matches[0].similarity, 0.892, 0.01);
}

TEST(SearchTest, EmptyBeforeIndexing) {
  Figure1World world;
  UnifiedSearcher searcher(world.knowledge(), MsimOptions{});
  Record query = world.MakeRec(0, "espresso");
  EXPECT_TRUE(searcher.Search(query, {}).empty());
  EXPECT_EQ(searcher.num_indexed(), 0u);
}

class SearchCorpusTest : public ::testing::Test {
 protected:
  SearchCorpusTest() {
    taxonomy_ = GenerateTaxonomy({.num_nodes = 300}, &vocab_);
    rules_ = GenerateSynonyms({.num_rules = 150}, taxonomy_, &vocab_);
    knowledge_ = Knowledge{&vocab_, &rules_, &taxonomy_};
    CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
    CorpusProfile profile;
    profile.num_strings = 80;
    profile.seed = 71;
    corpus_ = gen.Generate(profile, {.num_pairs = 25});
  }

  Vocabulary vocab_;
  Taxonomy taxonomy_;
  RuleSet rules_;
  Knowledge knowledge_;
  Corpus corpus_;
};

// Similarity desc, then id asc.
bool ServingOrder(const UnifiedSearcher::Match& a,
                  const UnifiedSearcher::Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

std::vector<std::pair<uint32_t, uint64_t>> IdsAndBits(
    const std::vector<UnifiedSearcher::Match>& matches) {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (const auto& m : matches) {
    out.emplace_back(m.id, std::bit_cast<uint64_t>(m.similarity));
  }
  return out;
}

// Search and TopK(10) against a scan of every record through the
// threshold-less Record-form Approx: the same (id, similarity bits) in
// the serving order (similarity desc, id asc), at every theta, for every
// `query_stride`-th record as the query. The scan must also see pairs
// whose bound is below theta - kBoundSlack and non-self matches, so
// both sides of the search's bound run.
void ExpectSearchEqualsScan(const Knowledge& knowledge,
                            const std::vector<Record>& records,
                            size_t query_stride, const std::string& world) {
  UnifiedSearcher searcher(knowledge, MsimOptions{});
  searcher.Index(&records);
  UsimComputer computer(knowledge, {});
  size_t below_bound = 0;
  size_t matches = 0;
  for (size_t q = 0; q < records.size(); q += query_stride) {
    const Record& query = records[q];
    std::vector<double> sims;
    std::vector<double> bounds;
    for (const Record& record : records) {
      sims.push_back(computer.Approx(query, record));
      bounds.push_back(computer.UpperBound(query, record));
    }
    for (double theta : {0.6, 0.8, 0.85, 0.9}) {
      SCOPED_TRACE(world + " theta=" + std::to_string(theta) + " query=" +
                   std::to_string(q) + " \"" + query.text + "\"");
      std::vector<UnifiedSearcher::Match> expected;
      for (uint32_t i = 0; i < records.size(); ++i) {
        if (bounds[i] < theta - UsimComputer::kBoundSlack) ++below_bound;
        if (sims[i] >= theta) {
          expected.push_back({i, sims[i]});
          if (i != q) ++matches;
        }
      }
      std::sort(expected.begin(), expected.end(), ServingOrder);
      UnifiedSearcher::SearchOptions options;
      options.theta = theta;
      options.tau = 2;
      EXPECT_EQ(IdsAndBits(searcher.Search(query, options)),
                IdsAndBits(expected));
      expected.resize(std::min<size_t>(expected.size(), 10));
      EXPECT_EQ(IdsAndBits(searcher.TopK(query, 10, theta, options)),
                IdsAndBits(expected));
    }
  }
  EXPECT_GT(below_bound, 0u) << world;
  EXPECT_GT(matches, 0u) << world;
}

// Search equals brute force, similarity bits included, on this fixture's
// corpus and on two seeds each of the generated MED and WIKI worlds the
// property tests use.
TEST_F(SearchCorpusTest, SearchMatchesBruteForceScan) {
  ExpectSearchEqualsScan(knowledge_, corpus_.records, 9, "corpus seed=71");
  for (const std::string profile_name : {"med", "wiki"}) {
    for (uint64_t seed : {1, 2}) {
      const GeneratedWorld world(profile_name, seed);
      ExpectSearchEqualsScan(world.knowledge(), world.corpus.records, 3,
                             profile_name + " seed=" + std::to_string(seed));
    }
  }
}

TEST_F(SearchCorpusTest, SelfQueryRanksFirst) {
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.5;
  auto matches = searcher.Search(corpus_.records[3], options);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].id, 3u);
  EXPECT_NEAR(matches[0].similarity, 1.0, 1e-9);
}

TEST_F(SearchCorpusTest, ResultsSortedDescending) {
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.4;
  auto matches = searcher.Search(corpus_.records[0], options);
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].similarity, matches[i].similarity);
  }
}

TEST_F(SearchCorpusTest, TopKTruncatesAndKeepsBest) {
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  UnifiedSearcher::SearchOptions options;
  auto all = searcher.Search(corpus_.records[0], [&] {
    UnifiedSearcher::SearchOptions o;
    o.theta = 0.3;
    return o;
  }());
  auto top2 = searcher.TopK(corpus_.records[0], 2, 0.3, options);
  ASSERT_LE(top2.size(), 2u);
  if (all.size() >= 2) {
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0], all[0]);
    EXPECT_EQ(top2[1], all[1]);
  }
}

TEST_F(SearchCorpusTest, TopKOrderIsByteIdenticalToFullSortPrefix) {
  // TopK runs a bounded partial sort instead of fully sorting every
  // verified match; the documented (similarity desc, id asc) order is a
  // strict total order, so for every k the result must equal Search's
  // k-prefix exactly — ids and similarities bit for bit, including
  // tie-breaks at the cut boundary.
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  UnifiedSearcher::SearchOptions options;
  constexpr double kMinTheta = 0.3;
  options.theta = kMinTheta;
  for (size_t q = 0; q < corpus_.records.size(); q += 7) {
    auto all = searcher.Search(corpus_.records[q], options);
    for (size_t k = 1; k <= all.size() + 2; ++k) {
      auto topk = searcher.TopK(corpus_.records[q], k, kMinTheta, {});
      std::vector<UnifiedSearcher::Match> expected(
          all.begin(), all.begin() + std::min(k, all.size()));
      ASSERT_EQ(topk.size(), expected.size()) << "q=" << q << " k=" << k;
      for (size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i].id, expected[i].id) << "q=" << q << " k=" << k;
        EXPECT_EQ(topk[i].similarity, expected[i].similarity)
            << "q=" << q << " k=" << k;
      }
    }
  }
}

TEST_F(SearchCorpusTest, UnseenQueryTokensDoNotCrash) {
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  Record query = MakeRecord(999, "completely novel tokens here", &vocab_);
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.9;
  EXPECT_TRUE(searcher.Search(query, options).empty());
}

TEST_F(SearchCorpusTest, SharedIndexSearcherMatchesLegacyIndexPath) {
  UnifiedSearcher legacy(knowledge_, MsimOptions{});
  legacy.Index(&corpus_.records);
  UnifiedSearcher shared(
      PreparedIndex::Build(knowledge_, MsimOptions{}, corpus_.records,
                           nullptr));
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.6;
  for (size_t q = 0; q < corpus_.records.size(); q += 11) {
    EXPECT_EQ(legacy.Search(corpus_.records[q], options),
              shared.Search(corpus_.records[q], options));
  }
}

TEST_F(SearchCorpusTest, SearchCountsQueryStats) {
  UnifiedSearcher searcher(knowledge_, MsimOptions{});
  searcher.Index(&corpus_.records);
  UnifiedSearcher::QueryStats stats;
  UnifiedSearcher::SearchOptions options;
  options.theta = 0.5;
  auto matches = searcher.Search(corpus_.records[3], options, &stats);
  EXPECT_EQ(stats.queries, 1u);
  // Every match was first a candidate; the self-hit guarantees both > 0.
  EXPECT_GE(stats.candidates, matches.size());
  EXPECT_GE(matches.size(), 1u);
}

// --- TopK tie-breaking and edge cases (locked-in behaviour) ---

class TopKEdgeCaseTest : public ::testing::Test {
 protected:
  TopKEdgeCaseTest() {
    // Records 1 and 2 are identical, so any query equal to them ties at
    // similarity 1.0; record 0 shares tokens without being identical.
    collection_.push_back(world_.MakeRec(0, "espresso cafe"));
    collection_.push_back(world_.MakeRec(1, "espresso cafe helsinki"));
    collection_.push_back(world_.MakeRec(2, "espresso cafe helsinki"));
    collection_.push_back(world_.MakeRec(3, "cake bakery"));
    searcher_ = std::make_unique<UnifiedSearcher>(world_.knowledge(),
                                                  MsimOptions{.q = 1});
    searcher_->Index(&collection_);
  }

  Figure1World world_;
  std::vector<Record> collection_;
  std::unique_ptr<UnifiedSearcher> searcher_;
};

TEST_F(TopKEdgeCaseTest, TiesBreakTowardLowerIds) {
  Record query = world_.MakeRec(100, "espresso cafe helsinki");
  auto top1 = searcher_->TopK(query, 1, 0.5, {});
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].id, 1u);  // ids 1 and 2 tie at 1.0; lower id wins
  EXPECT_NEAR(top1[0].similarity, 1.0, 1e-9);

  auto top2 = searcher_->TopK(query, 2, 0.5, {});
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id, 1u);
  EXPECT_EQ(top2[1].id, 2u);
}

TEST_F(TopKEdgeCaseTest, KZeroReturnsNothingButCountsTheQuery) {
  Record query = world_.MakeRec(100, "espresso cafe helsinki");
  UnifiedSearcher::QueryStats stats;
  EXPECT_TRUE(searcher_->TopK(query, 0, 0.5, {}, &stats).empty());
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.candidates, 0u);
}

TEST_F(TopKEdgeCaseTest, ThetaOneKeepsOnlyExactSimilarityMatches) {
  Record query = world_.MakeRec(100, "espresso cafe helsinki");
  auto matches = searcher_->TopK(query, 10, 1.0, {});
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].id, 1u);
  EXPECT_EQ(matches[1].id, 2u);
  for (const auto& m : matches) {
    EXPECT_DOUBLE_EQ(m.similarity, 1.0);
  }
}

TEST_F(TopKEdgeCaseTest, EmptyQueryMatchesNothing) {
  Record empty = world_.MakeRec(100, "");
  EXPECT_EQ(empty.num_tokens(), 0u);
  EXPECT_TRUE(searcher_->Search(empty, {}).empty());
  UnifiedSearcher::QueryStats stats;
  EXPECT_TRUE(searcher_->TopK(empty, 5, 0.1, {}, &stats).empty());
  EXPECT_EQ(stats.queries, 1u);
}

TEST_F(TopKEdgeCaseTest, KLargerThanMatchesReturnsAll) {
  Record query = world_.MakeRec(100, "espresso cafe helsinki");
  auto all = searcher_->Search(query, [] {
    UnifiedSearcher::SearchOptions o;
    o.theta = 0.3;
    return o;
  }());
  auto topn = searcher_->TopK(query, all.size() + 10, 0.3, {});
  EXPECT_EQ(topn, all);
}

}  // namespace
}  // namespace aujoin
