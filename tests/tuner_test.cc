#include <gtest/gtest.h>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "tuner/recommend.h"

namespace aujoin {
namespace {

class TunerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    taxonomy_ = GenerateTaxonomy({.num_nodes = 400}, &vocab_);
    rules_ = GenerateSynonyms({.num_rules = 200}, taxonomy_, &vocab_);
    knowledge_ = Knowledge{&vocab_, &rules_, &taxonomy_};
    CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
    CorpusProfile profile;
    profile.num_strings = 400;
    profile.seed = 11;
    corpus_ = gen.Generate(profile, {.num_pairs = 80});
    context_ = std::make_unique<JoinContext>(knowledge_, MsimOptions{});
    context_->Prepare(corpus_.records, nullptr);
  }

  Vocabulary vocab_;
  Taxonomy taxonomy_;
  RuleSet rules_;
  Knowledge knowledge_;
  Corpus corpus_;
  std::unique_ptr<JoinContext> context_;
};

TEST_F(TunerTest, BernoulliSampleSizeNearExpectation) {
  Rng rng(3);
  double p = 0.2;
  size_t total = 0;
  const int iters = 50;
  for (int i = 0; i < iters; ++i) {
    auto sample = DrawBernoulliSample(1000, 1000, false, p, p, &rng);
    total += sample.s_ids.size();
  }
  double avg = static_cast<double>(total) / iters;
  EXPECT_NEAR(avg, 200.0, 25.0);
}

TEST_F(TunerTest, SelfJoinSampleSharesIds) {
  Rng rng(4);
  auto sample = DrawBernoulliSample(100, 100, true, 0.3, 0.3, &rng);
  EXPECT_EQ(sample.s_ids, sample.t_ids);
}

TEST_F(TunerTest, EstimatorIsApproximatelyUnbiased) {
  // Average the Bernoulli estimate of T_tau over many samples and compare
  // with the full-data value.
  SignatureOptions sig;
  sig.theta = 0.8;
  sig.tau = 2;
  sig.method = FilterMethod::kAuHeuristic;
  auto full = context_->RunFilter(sig);
  ASSERT_GT(full.processed_pairs, 0u);

  Rng rng(9);
  double p = 0.25;
  TauEstimator est;
  for (int n = 0; n < 120; ++n) {
    auto sample = DrawBernoulliSample(context_->s_prepared().size(),
                                      context_->s_prepared().size(), true, p,
                                      p, &rng);
    AccumulateSampleEstimate(*context_, sig, sample, p, p, &est);
  }
  double rel_err =
      std::abs(est.t_hat.mean() - static_cast<double>(full.processed_pairs)) /
      static_cast<double>(full.processed_pairs);
  EXPECT_LT(rel_err, 0.35) << "mean=" << est.t_hat.mean()
                           << " true=" << full.processed_pairs;
}

TEST_F(TunerTest, CostModelCalibrationIsPositive) {
  JoinOptions options;
  options.theta = 0.8;
  CostModel model = CalibrateCostModel(*context_, options, 128, 16);
  EXPECT_GT(model.cf, 0.0);
  EXPECT_GT(model.cv, 0.0);
  // Verification of a pair costs far more than one posting probe.
  EXPECT_GT(model.cv, model.cf);
}

TEST_F(TunerTest, RecommendationIsInUniverse) {
  TunerOptions opts;
  opts.tau_universe = {1, 2, 3, 4};
  opts.sample_prob_s = 0.1;
  opts.min_iterations = 5;
  opts.max_iterations = 40;
  opts.theta = 0.8;
  CostModel model;
  TauRecommendation rec = RecommendTau(*context_, model, opts);
  EXPECT_TRUE(std::find(opts.tau_universe.begin(), opts.tau_universe.end(),
                        rec.best_tau) != opts.tau_universe.end());
  EXPECT_GE(rec.iterations, opts.min_iterations);
  EXPECT_LE(rec.iterations, opts.max_iterations);
  EXPECT_EQ(rec.estimated_cost.size(), opts.tau_universe.size());
}

TEST_F(TunerTest, SingleTauUniverseShortCircuits) {
  TunerOptions opts;
  opts.tau_universe = {3};
  CostModel model;
  TauRecommendation rec = RecommendTau(*context_, model, opts);
  EXPECT_EQ(rec.best_tau, 3);
  EXPECT_TRUE(rec.converged);
  EXPECT_EQ(rec.iterations, 0);
}

TEST_F(TunerTest, RecommendationMatchesExhaustiveSearchCost) {
  // The suggested tau's true join time should be close to the best true
  // join time across the universe (within a factor; timing noise).
  TunerOptions opts;
  opts.tau_universe = {1, 2, 4, 6};
  opts.sample_prob_s = 0.15;
  opts.min_iterations = 8;
  opts.max_iterations = 60;
  opts.theta = 0.8;
  JoinOptions join_opts;
  join_opts.theta = 0.8;
  join_opts.method = FilterMethod::kAuHeuristic;
  CostModel model = CalibrateCostModel(*context_, join_opts, 128, 16);
  TauRecommendation rec = RecommendTau(*context_, model, opts);

  // Evaluate the model-predicted cost from *full-data* cardinalities.
  auto true_cost = [&](int tau) {
    SignatureOptions sig;
    sig.theta = 0.8;
    sig.tau = tau;
    sig.method = FilterMethod::kAuHeuristic;
    auto out = context_->RunFilter(sig);
    return model.Cost(static_cast<double>(out.processed_pairs),
                      static_cast<double>(out.candidates.size()));
  };
  double best = std::numeric_limits<double>::infinity();
  for (int tau : opts.tau_universe) best = std::min(best, true_cost(tau));
  double suggested = true_cost(rec.best_tau);
  EXPECT_LE(suggested, best * 2.5 + 1e-9);
}

TEST_F(TunerTest, JoinWithSuggestedTauProducesCorrectResults) {
  // Its own smaller corpus: both joins below verify every candidate
  // serially, which on the shared 400-string corpus dominates the
  // suite's wall time.
  CorpusGenerator gen(&vocab_, &taxonomy_, &rules_);
  CorpusProfile profile;
  profile.num_strings = 150;
  profile.seed = 11;
  const Corpus corpus = gen.Generate(profile, {.num_pairs = 30});
  Engine engine = EngineBuilder().SetKnowledge(knowledge_).Build();
  engine.SetRecords(corpus.records);

  TunerOptions opts;
  opts.tau_universe = {1, 2, 3};
  opts.sample_prob_s = 0.1;
  opts.min_iterations = 5;
  opts.max_iterations = 30;
  opts.theta = 0.85;
  EngineJoinOptions join_opts;
  join_opts.theta = 0.85;
  join_opts.method = FilterMethod::kAuDp;
  TauRecommendation rec;
  Result<JoinResult> tuned = engine.JoinWithSuggestedTau(join_opts, opts, &rec);
  ASSERT_TRUE(tuned.ok()) << tuned.status().ToString();
  const JoinResult& with_suggestion = *tuned;
  EXPECT_GT(with_suggestion.stats.suggest_seconds, 0.0);

  // The result set must be identical to a fixed-tau join (any tau).
  JoinOptions reference_opts;
  reference_opts.theta = 0.85;
  reference_opts.method = FilterMethod::kUFilter;
  JoinResult reference = UnifiedJoin(engine.PreparedContext(), reference_opts);
  EXPECT_FALSE(reference.pairs.empty());
  auto canon = [](std::vector<std::pair<uint32_t, uint32_t>> v) {
    for (auto& p : v) {
      if (p.first > p.second) std::swap(p.first, p.second);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(with_suggestion.pairs), canon(reference.pairs))
      << "suggested tau " << rec.best_tau << ": "
      << with_suggestion.stats.candidates << " candidates vs "
      << reference.stats.candidates << " at tau 1";
}

}  // namespace
}  // namespace aujoin
