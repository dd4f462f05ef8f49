// CSR / legacy-map candidate-generation parity on the checked-in
// data/ fixture. The CSR swap (index/csr_index.h) must be a pure
// layout change: a reference probe over the old pointer-chasing
// InvertedIndex — kept verbatim from the pre-CSR RunFilter — has to
// produce the same candidates, every registry algorithm has to keep
// its pairs/stats, the partitioned pipeline has to agree with the
// monolithic path, and Engine::Search has to equal a brute-force scan.
// The suite name carries "Csr" so the CI sanitize job's TSan filter
// runs the partitioned and concurrent cases under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "core/usim.h"
#include "dataset/dataset.h"
#include "index/inverted_index.h"
#include "join/join.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

constexpr double kTheta = 0.7;
constexpr int kTau = 2;

class CsrParityFixtureTest : public ::testing::Test {
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

  static Engine MakeEngine(int threads, size_t max_partition_records = 0) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(dataset_->knowledge())
                        .SetMeasures("TJS")
                        .SetQ(3)
                        .SetThreads(threads)
                        .SetMaxPartitionRecords(max_partition_records)
                        .Build();
    engine.SetRecords(dataset_->records);
    return engine;
  }

  static Dataset* dataset_;
};

Dataset* CsrParityFixtureTest::dataset_ = nullptr;

using PairVec = std::vector<std::pair<uint32_t, uint32_t>>;

TEST_F(CsrParityFixtureTest, LegacyMapProbeProducesIdenticalCandidates) {
  Engine engine = MakeEngine(/*threads=*/2);
  JoinContext& context = engine.PreparedContext();
  SignatureOptions sig_options;
  sig_options.theta = kTheta;
  sig_options.tau = kTau;
  const auto& prepared = context.s_prepared();
  std::vector<Signature> sigs(prepared.size());
  for (size_t i = 0; i < prepared.size(); ++i) {
    sigs[i] = SelectSignature(prepared[i].pebbles, prepared[i].num_tokens,
                              sig_options);
  }

  // The whole collection, then a subset self-join: the probe path that
  // maps positions through the subset (single-id Bump with a
  // per-posting pair dedup) before the merged select — the sampling
  // shape the tuner's estimator runs.
  std::vector<uint32_t> all;
  std::vector<uint32_t> every_other;
  for (uint32_t i = 0; i < sigs.size(); ++i) {
    all.push_back(i);
    if (i % 2 == 0) every_other.push_back(i);
  }
  for (const std::vector<uint32_t>* subset : {&all, &every_other}) {
    SCOPED_TRACE(subset == &all ? "all records" : "every other record");
    const std::vector<uint32_t>& ids = *subset;
    // The shipped path: frozen CSR + count-based merge.
    JoinContext::FilterOutput csr = context.RunFilter(
        sig_options, subset == &all ? nullptr : subset, nullptr,
        /*num_threads=*/2);

    // The reference path, verbatim from the pre-CSR RunFilter: a
    // mutable hash-map index keyed by record id, probed key by key,
    // overlaps deduped and counted through a per-record unordered_map.
    InvertedIndex legacy;
    for (uint32_t j : ids) legacy.Add(j, sigs[j].keys);
    PairVec legacy_candidates;
    uint64_t legacy_processed = 0;
    std::unordered_map<uint32_t, int> overlap;
    for (uint32_t s_id : ids) {
      overlap.clear();
      for (uint64_t key : sigs[s_id].keys) {
        const std::vector<uint32_t>* postings = legacy.Find(key);
        if (postings == nullptr) continue;
        for (uint32_t t_id : *postings) {
          if (t_id <= s_id) continue;
          ++legacy_processed;
          ++overlap[t_id];
        }
      }
      for (const auto& [t_id, count] : overlap) {
        if (count >= std::min(sigs[s_id].effective_tau,
                              sigs[t_id].effective_tau)) {
          legacy_candidates.emplace_back(s_id, t_id);
        }
      }
    }

    PairVec csr_candidates = csr.candidates;
    std::sort(csr_candidates.begin(), csr_candidates.end());
    std::sort(legacy_candidates.begin(), legacy_candidates.end());
    EXPECT_EQ(csr_candidates, legacy_candidates);
    EXPECT_EQ(csr.processed_pairs, legacy_processed);
    EXPECT_FALSE(csr_candidates.empty());
  }
}

TEST_F(CsrParityFixtureTest, EveryAlgorithmKeepsPairsAcrossPartitioning) {
  // Property over the whole registry: the CSR candidate path must leave
  // every algorithm's pairs and result stats untouched, monolithic and
  // partitioned alike (partition blocks probe slice-local CSR indexes
  // from pool threads — the TSan-relevant case).
  EngineJoinOptions options;
  options.theta = kTheta;
  options.tau = kTau;
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    Engine mono = MakeEngine(/*threads=*/2);
    Result<JoinResult> mono_result = mono.Join(name, options);
    ASSERT_TRUE(mono_result.ok()) << name << ": "
                                  << mono_result.status().ToString();

    Engine partitioned = MakeEngine(
        /*threads=*/2, /*max_partition_records=*/
        std::max<size_t>(2, dataset_->records.size() / 3));
    Result<JoinResult> part_result = partitioned.Join(name, options);
    ASSERT_TRUE(part_result.ok()) << name << ": "
                                  << part_result.status().ToString();

    EXPECT_EQ(mono_result->pairs, part_result->pairs) << name;
    EXPECT_EQ(mono_result->stats.results, part_result->stats.results)
        << name;
    EXPECT_FALSE(mono_result->pairs.empty()) << name;
  }
}

TEST_F(CsrParityFixtureTest, EngineSearchMatchesBruteForceScan) {
  // Engine::Search rides the frozen CSR serving index; a brute-force
  // Algorithm 1 scan over the collection is the index-free oracle.
  Engine engine = MakeEngine(/*threads=*/2);
  UsimOptions usim_options;
  usim_options.msim = engine.options().msim;
  UsimComputer computer(engine.options().knowledge, usim_options);
  EngineSearchOptions options;
  options.theta = kTheta;
  SearchStats stats;
  uint64_t nonempty = 0;
  for (size_t q = 0; q < dataset_->records.size(); q += 3) {
    const Record& query = dataset_->records[q];
    Result<std::vector<UnifiedSearcher::Match>> matches =
        engine.Search(query, options, &stats);
    ASSERT_TRUE(matches.ok()) << matches.status().ToString();
    std::set<uint32_t> got;
    for (const auto& m : *matches) got.insert(m.id);
    std::set<uint32_t> expected;
    for (uint32_t i = 0; i < dataset_->records.size(); ++i) {
      if (computer.Approx(query, dataset_->records[i]) >= options.theta) {
        expected.insert(i);
      }
    }
    EXPECT_EQ(got, expected) << "query=" << query.text;
    nonempty += got.empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 0u);  // every sampled self-query at least self-hits
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GE(stats.query_candidates, stats.results);
}

}  // namespace
}  // namespace aujoin
