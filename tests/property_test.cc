// Cross-module property tests: invariants that tie the similarity layer,
// the signature layer and the join together on randomised inputs.

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/squareimp.h"
#include "core/usim.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/join.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace aujoin {
namespace {

// Exhaustive maximum-weight independent set for small graphs.
double BruteForceMisWeight(const PairGraph& g) {
  const size_t n = g.num_vertices();
  EXPECT_LE(n, 22u);
  double best = 0.0;
  for (uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double w = 0.0;
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i) {
      if (!(mask >> i & 1)) continue;
      for (size_t j = i + 1; j < n && ok; ++j) {
        if ((mask >> j & 1) && g.Conflicts(static_cast<uint32_t>(i),
                                           static_cast<uint32_t>(j))) {
          ok = false;
        }
      }
      if (ok) w += g.vertices[i].weight;
    }
    if (ok) best = std::max(best, w);
  }
  return best;
}

class SquareImpQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(SquareImpQualityTest, WithinGuaranteeOfOptimum) {
  // Random short strings over the Figure 1 vocabulary; graphs stay small
  // enough for the exhaustive reference.
  Figure1World world;
  Rng rng(GetParam());
  const char* pool[] = {"coffee", "shop", "latte", "espresso",
                        "cafe",   "cake", "gateau"};
  MsimEvaluator eval(world.knowledge(), {});
  for (int trial = 0; trial < 20; ++trial) {
    std::string a, b;
    for (int i = static_cast<int>(rng.Uniform(1, 3)); i > 0; --i) {
      a += std::string(pool[rng.Uniform(0, 6)]) + " ";
    }
    for (int i = static_cast<int>(rng.Uniform(1, 3)); i > 0; --i) {
      b += std::string(pool[rng.Uniform(0, 6)]) + " ";
    }
    Record ra = world.MakeRec(0, a);
    Record rb = world.MakeRec(1, b);
    PairGraph g = BuildPairGraph(ra, rb, &eval);
    if (g.num_vertices() > 20) continue;
    double opt = BruteForceMisWeight(g);
    SquareImpOptions options;
    options.max_talons = 3;
    double got = IndependentSetWeight(g, SquareImp(g, options));
    EXPECT_LE(got, opt + 1e-9);
    // The worst-case guarantee is (k+1)/2; on these tiny instances local
    // search should land within a factor 2 comfortably.
    EXPECT_GE(got, opt / 2.0 - 1e-9) << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SquareImpQualityTest,
                         ::testing::Values(11, 22, 33));

TEST(UsimBoundsTest, AlwaysWithinUnitInterval) {
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 200}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 100}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(CorpusProfile::Med(40), {.num_pairs = 10});
  UsimComputer computer(knowledge, {});
  for (size_t i = 0; i < corpus.records.size(); i += 3) {
    for (size_t j = i + 1; j < corpus.records.size(); j += 7) {
      double sim = computer.Approx(corpus.records[i], corpus.records[j]);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0 + 1e-9);
    }
  }
}

TEST(UsimBoundsTest, SelfSimilarityIsOne) {
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 100}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 50}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(CorpusProfile::Med(15), {.num_pairs = 0});
  UsimComputer computer(knowledge, {});
  for (const Record& r : corpus.records) {
    if (r.tokens.empty()) continue;
    EXPECT_NEAR(computer.Approx(r, r), 1.0, 1e-9) << r.text;
  }
}

TEST(EffectiveTauTest, NeverExceedsRequestedAndMonotone) {
  Figure1World world;
  std::vector<Record> records;
  records.push_back(world.MakeRec(0, "coffee shop latte helsingki"));
  records.push_back(world.MakeRec(1, "cake"));
  records.push_back(world.MakeRec(2, "espresso cafe helsinki gateau food"));
  MsimOptions msim;
  PebbleGenerator gen(world.knowledge(), msim);
  Vocabulary gram_dict;
  GlobalOrder order;
  std::vector<RecordPebbles> prepared;
  for (const auto& r : records) {
    prepared.push_back(gen.Generate(r, &gram_dict));
  }
  order.CountCollection(prepared);
  order.Finalize();
  for (auto& rp : prepared) order.SortPebbles(&rp);

  for (size_t i = 0; i < records.size(); ++i) {
    int prev_eff = 0;
    for (int tau = 1; tau <= 8; ++tau) {
      SignatureOptions opts;
      opts.theta = 0.8;
      opts.tau = tau;
      opts.method = FilterMethod::kAuHeuristic;
      Signature sig =
          SelectSignature(prepared[i], records[i].num_tokens(), opts);
      EXPECT_LE(sig.effective_tau, tau);
      EXPECT_GE(sig.effective_tau, 1);
      EXPECT_GE(sig.effective_tau, prev_eff);  // monotone in requested tau
      prev_eff = sig.effective_tau;
    }
  }
}

TEST(ExactTruncationTest, FlagsInexactUnderTinyCaps) {
  Figure1World world;
  Record s = world.MakeRec(0, "coffee shop cake latte");
  Record t = world.MakeRec(1, "cafe gateau espresso");
  UsimComputer computer(world.knowledge(), {});
  ExactOptions limits;
  limits.max_pairs = 1;
  auto res = computer.Exact(s, t, limits);
  EXPECT_FALSE(res.exact);
}

// Filter losslessness across thetas on the WIKI-like profile (the MED
// profile is exercised in join_test.cc).
class WikiLosslessTest : public ::testing::TestWithParam<double> {};

TEST_P(WikiLosslessTest, JoinEqualsBruteForce) {
  double theta = GetParam();
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 500}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 200}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  CorpusProfile profile = CorpusProfile::Wiki(50);
  Corpus corpus = gen.Generate(profile, {.num_pairs = 15});

  MsimOptions msim;
  msim.q = 3;
  JoinContext context(knowledge, msim);
  context.Prepare(corpus.records, nullptr);
  JoinOptions options;
  options.theta = theta;
  options.tau = 3;
  options.method = FilterMethod::kAuDp;
  JoinResult result = UnifiedJoin(context, options);

  UsimOptions usim_options;
  usim_options.msim = msim;
  UsimComputer computer(knowledge, usim_options);
  std::set<std::pair<uint32_t, uint32_t>> expected, got;
  for (uint32_t i = 0; i < corpus.records.size(); ++i) {
    for (uint32_t j = i + 1; j < corpus.records.size(); ++j) {
      if (computer.Approx(corpus.records[i], corpus.records[j]) >= theta) {
        expected.insert({i, j});
      }
    }
  }
  for (auto p : result.pairs) {
    if (p.first > p.second) std::swap(p.first, p.second);
    got.insert(p);
  }
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Thetas, WikiLosslessTest,
                         ::testing::Values(0.7, 0.8, 0.9));

// UsimComputer::UpperBound soundness. On every pair: Approx <= bound;
// where Exact is uncapped, Approx <= Exact <= bound; and the thresholded
// Approx answers the same >= theta predicate as the full Algorithm 1.
// A failure names the seed and the pair, so it replays on its own.
struct BoundCoverage {
  size_t pairs = 0;
  size_t exact = 0;
  size_t rejected = 0;  // (pair, theta) checks the bound answered alone
  size_t verified = 0;  // (pair, theta) checks Algorithm 1 answered
};

void CheckUpperBound(UsimComputer* computer, const Record& s, const Record& t,
                     const std::string& where, BoundCoverage* coverage) {
  SCOPED_TRACE(where + " s=\"" + s.text + "\" t=\"" + t.text + "\"");
  constexpr double kSlack = UsimComputer::kBoundSlack;
  const double approx = computer->Approx(s, t);
  const double bound = computer->UpperBound(s, t);
  EXPECT_LE(approx, bound + kSlack);
  UsimComputer::ExactResult exact = computer->Exact(
      s, t, {.max_partitions_per_string = 16, .max_pairs = 128});
  if (exact.exact) {
    ++coverage->exact;
    EXPECT_LE(approx, exact.value + 1e-9);
    EXPECT_LE(exact.value, bound + kSlack);
  }
  for (double theta : {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    EXPECT_EQ(computer->Approx(s, t, theta) >= theta, approx >= theta)
        << "theta=" << theta << " approx=" << approx << " bound=" << bound;
    ++(bound < theta - kSlack ? coverage->rejected : coverage->verified);
  }
  ++coverage->pairs;
}

// Generated MED/WIKI worlds: each world's truth pairs plus as many random
// pairs, under q = 3 Jaccard and q = 2 cosine and dice. The world name is a
// std::string, not a const char*, so gtest prints the parameter by value and
// the test's name does not carry a load address that changes every run.
class UpperBoundGeneratedTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(UpperBoundGeneratedTest, SoundOnTruthAndRandomPairs) {
  const auto& [profile_name, seed] = GetParam();
  const GeneratedWorld world(profile_name, seed);
  const Knowledge knowledge = world.knowledge();
  const Corpus& corpus = world.corpus;

  std::vector<std::pair<uint32_t, uint32_t>> pairs = corpus.truth_pairs;
  Rng rng(seed);
  const int64_t last = static_cast<int64_t>(corpus.records.size()) - 1;
  for (size_t i = corpus.truth_pairs.size(); i > 0; --i) {
    const auto a = static_cast<uint32_t>(rng.Uniform(0, last));
    const auto b = static_cast<uint32_t>(rng.Uniform(0, last));
    pairs.emplace_back(a, b);
  }

  struct Measure {
    const char* name;
    int q;
    GramMeasure gram;
  };
  const Measure measures[] = {{"jaccard q=3", 3, GramMeasure::kJaccard},
                              {"cosine q=2", 2, GramMeasure::kCosine},
                              {"dice q=2", 2, GramMeasure::kDice}};
  BoundCoverage coverage;
  for (const Measure& measure : measures) {
    UsimOptions options;
    options.msim.q = measure.q;
    options.msim.gram_measure = measure.gram;
    UsimComputer computer(knowledge, options);
    for (const auto& [a, b] : pairs) {
      CheckUpperBound(&computer, corpus.records[a], corpus.records[b],
                      profile_name + " seed=" +
                          std::to_string(seed) + " " + measure.name +
                          " pair=(" + std::to_string(a) + "," +
                          std::to_string(b) + ")",
                      &coverage);
    }
  }
  // Both Approx branches and the Exact comparison are exercised.
  EXPECT_GT(coverage.rejected, 0u);
  EXPECT_GT(coverage.verified, 0u);
  EXPECT_GE(coverage.exact, coverage.pairs / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, UpperBoundGeneratedTest,
    ::testing::Combine(::testing::Values(std::string("med"),
                                         std::string("wiki")),
                       ::testing::Values(uint64_t{1}, uint64_t{2})));

// The prepared form of UpperBound and Approx reads each side's segments
// and gram ids from a PreparedIndex; the Record form derives both itself.
// They agree bit for bit on every filter candidate of generated worlds,
// and on search queries holding grams the index never saw, whose overlay
// ids stay distinct from each other and from the dictionary's. The
// queries are also verified as search does, segmented once.
class PreparedVerifyGeneratedTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The sorted gram keys of the single-token segment at `position`.
std::vector<uint64_t> TokenGramKeys(const RecordPebbles& rp,
                                    uint32_t position) {
  std::vector<uint64_t> keys;
  for (const Pebble& p : rp.pebbles) {
    const Segment& span = rp.segments[p.segment].span;
    if (PebbleKeyType(p.key) == PebbleType::kGram && span.SingleToken() &&
        span.begin == position) {
      keys.push_back(p.key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST_P(PreparedVerifyGeneratedTest, EqualsRecordFormBitForBit) {
  const auto& [profile_name, seed] = GetParam();
  GeneratedWorld world(profile_name, seed);
  const Knowledge knowledge = world.knowledge();
  const std::vector<Record>& records = world.corpus.records;

  // Queries: indexed strings plus three tokens the index never saw, the
  // first and last spelled alike.
  std::vector<Record> queries;
  for (uint32_t i = 0; i < 8; ++i) {
    const Record& base = records[(i * 7) % records.size()];
    queries.push_back(
        MakeRecord(i, base.text + " xqzjv vjzqx xqzjv", &world.vocab));
  }

  struct Config {
    int q;
    uint32_t measures;
    GramMeasure gram;
  };
  const Config configs[] = {
      {2, kMeasureJaccard, GramMeasure::kJaccard},
      {3, kMeasureAll, GramMeasure::kJaccard},
      {3, kMeasureJaccard, GramMeasure::kCosine},
      {2, kMeasureAll, GramMeasure::kCosine},
      {2, kMeasureAll, GramMeasure::kDice},
      {3, kMeasureJaccard, GramMeasure::kDice},
  };
  for (const Config& config : configs) {
    UsimOptions options;
    options.msim.q = config.q;
    options.msim.measures = config.measures;
    options.msim.gram_measure = config.gram;
    const std::string where =
        profile_name + " seed=" + std::to_string(seed) +
        " q=" + std::to_string(config.q) + " " +
        MeasuresToString(config.measures) + " gram=" +
        std::to_string(static_cast<int>(config.gram));
    SCOPED_TRACE(where);
    JoinContext context(knowledge, options.msim);
    context.Prepare(records, nullptr);
    const std::vector<PreparedRecord>& prepared = context.s_prepared();
    UsimComputer prepared_form(knowledge, options);
    UsimComputer record_form(knowledge, options);
    size_t matched = 0;
    size_t below = 0;
    auto expect_equal = [&](const Record& s, const PreparedRecord& ps,
                            const Record& t, const PreparedRecord& pt) {
      SCOPED_TRACE("s=\"" + s.text + "\" t=\"" + t.text + "\"");
      EXPECT_EQ(Bits(prepared_form.UpperBound(s, ps, t, pt)),
                Bits(record_form.UpperBound(s, t)));
      EXPECT_EQ(Bits(prepared_form.Approx(s, ps, t, pt)),
                Bits(record_form.Approx(s, t)));
      const double at_theta = prepared_form.Approx(s, ps, t, pt, 0.8);
      EXPECT_EQ(Bits(at_theta), Bits(record_form.Approx(s, t, 0.8)));
      ++(at_theta >= 0.8 ? matched : below);
    };

    SignatureOptions sig;
    sig.theta = 0.8;
    sig.tau = 2;
    const JoinContext::FilterOutput filtered = context.RunFilter(sig);
    ASSERT_FALSE(filtered.candidates.empty());
    for (const auto& [a, b] : filtered.candidates) {
      expect_equal(records[a], prepared[a], records[b], prepared[b]);
    }

    const uint64_t dictionary = context.index().gram_dict().size();
    for (const Record& query : queries) {
      const PreparedRecord pq{context.index().GenerateQueryPebbles(query),
                              query.num_tokens()};
      // The unseen tokens' grams carry overlay ids past the dictionary:
      // alike for the two spellings alike, distinct otherwise.
      const uint32_t last = static_cast<uint32_t>(query.num_tokens()) - 1;
      const std::vector<uint64_t> first = TokenGramKeys(pq.pebbles, last - 2);
      const std::vector<uint64_t> middle =
          TokenGramKeys(pq.pebbles, last - 1);
      ASSERT_FALSE(first.empty());
      EXPECT_EQ(first, TokenGramKeys(pq.pebbles, last));
      EXPECT_TRUE(std::adjacent_find(first.begin(), first.end()) ==
                  first.end());
      size_t unseen = 0;
      for (uint64_t key : first) {
        unseen += PebbleKeyId(key) >= dictionary;
        EXPECT_FALSE(std::binary_search(middle.begin(), middle.end(), key));
      }
      EXPECT_GT(unseen, 0u);
      // Search's form: the query segmented once for all its candidates.
      GramSets query_grams;
      GramSetsFromPebbles(pq.pebbles, &query_grams);
      const SegmentedRecord segmented{query, pq.pebbles.segments,
                                      query_grams};
      for (uint32_t k = 0; k < 6; ++k) {
        const uint32_t id = (query.id * 7 + k * 11) % records.size();
        expect_equal(query, pq, records[id], prepared[id]);
        EXPECT_EQ(
            Bits(prepared_form.Approx(segmented, records[id], prepared[id])),
            Bits(record_form.Approx(query, records[id])));
      }
    }
    // Pairs on both sides of theta were compared.
    EXPECT_GT(matched, 0u);
    EXPECT_GT(below, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PreparedVerifyGeneratedTest,
    ::testing::Combine(::testing::Values(std::string("med"),
                                         std::string("wiki")),
                       ::testing::Values(uint64_t{1}, uint64_t{2})));

// Overlapping-rule instances in the style of Table 9
// (bench_table09_approx_accuracy): synonym rules between random,
// mutually overlapping spans of two token strings, where segment choices
// conflict and Algorithm 1 can fall short of the optimum.
TEST(UpperBoundOverlappingRulesTest, SoundOnTable9StyleInstances) {
  BoundCoverage coverage;
  for (uint64_t seed = 900; seed < 1020; ++seed) {
    Rng rng(seed);
    const int k = 3 + static_cast<int>(seed % 4);
    Vocabulary vocab;
    RuleSet rules;
    Taxonomy no_taxonomy;
    auto make_tokens = [&](char prefix, int count, std::string* text) {
      std::vector<TokenId> ids;
      for (int i = 0; i < count; ++i) {
        const std::string token = prefix + std::to_string(i);
        ids.push_back(vocab.Intern(token));
        *text += (i > 0 ? " " : "") + token;
      }
      return ids;
    };
    std::string s_text, t_text;
    const std::vector<TokenId> s_ids =
        make_tokens('s', k + static_cast<int>(rng.Uniform(2, 4)), &s_text);
    const std::vector<TokenId> t_ids =
        make_tokens('t', k + static_cast<int>(rng.Uniform(1, 3)), &t_text);
    auto span_of = [&](const std::vector<TokenId>& ids) {
      const int len = std::min<int>(static_cast<int>(rng.Uniform(1, k)),
                                    static_cast<int>(ids.size()));
      const int begin = static_cast<int>(
          rng.Uniform(0, static_cast<int64_t>(ids.size()) - len));
      return std::vector<TokenId>(ids.begin() + begin,
                                  ids.begin() + begin + len);
    };
    for (int r = static_cast<int>(rng.Uniform(6, 14)); r > 0; --r) {
      std::vector<TokenId> lhs = span_of(s_ids);
      std::vector<TokenId> rhs = span_of(t_ids);
      const double closeness = 0.1 + 0.9 * rng.UniformReal();
      (void)rules.AddRule(std::move(lhs), std::move(rhs), closeness);
    }
    Record s = MakeRecord(0, s_text, &vocab);
    Record t = MakeRecord(1, t_text, &vocab);

    UsimOptions options;
    options.msim.measures = kMeasureSynonym;
    options.msim.exact_match = false;
    options.squareimp.max_talons = 3;
    UsimComputer computer(Knowledge{&vocab, &rules, &no_taxonomy}, options);
    CheckUpperBound(&computer, s, t, "rules seed=" + std::to_string(seed),
                    &coverage);
  }
  EXPECT_GT(coverage.rejected, 0u);
  EXPECT_GT(coverage.verified, 0u);
  EXPECT_GE(coverage.exact, coverage.pairs / 2);
}

}  // namespace
}  // namespace aujoin
