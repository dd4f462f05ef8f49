// Online-serving throughput bench: builds a shared immutable
// PreparedIndex over a generated corpus once, then hammers
// Engine::Search from concurrent worker threads and reports sustained
// QPS plus p50/p95/p99 per-query latency into BENCH_<name>.json — the
// serving-side counterpart of bench_harness's join grid.
//
// Queries are corpus records (optionally subsampled), so every
// configuration is guaranteed self-hits and --require_nonzero can gate
// regressions that silently empty the serving path. After each timed
// loop every query's answer must equal a brute-force top-k over all
// records (ids and similarity bits); the bench prints PARITY FAILURE and
// exits 2 otherwise.
//
// Typical invocations:
//   bench_search_qps --name=search_qps --profile=med --strings=400 \
//     --queries=200 --theta=0.7,0.8 --topk=10 --threads=1,0 \
//     --require_nonzero
//   bench_search_qps --name=search_nightly --strings=5000 \
//     --queries=2000 --theta=0.8 --threads=1,4,0

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench_common.h"
#include "core/usim.h"
#include "dataset/manifest.h"
#include "harness.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace aujoin {
namespace {

using Match = UnifiedSearcher::Match;

/// Every query's similarity to every record through the threshold-less
/// Record-form Approx (row q is query q): the reference the timed loops
/// are checked against. Query rows are spread over the hardware threads,
/// one UsimComputer per worker.
std::vector<std::vector<double>> BruteForceSimilarities(
    const Knowledge& knowledge, const MsimOptions& msim,
    const std::vector<Record>& queries, const std::vector<Record>& records) {
  std::vector<std::vector<double>> sims(queries.size());
  ParallelFor(queries.size(), /*num_threads=*/0,
              [&](size_t begin, size_t end, int /*worker*/) {
                UsimOptions options;
                options.msim = msim;
                UsimComputer computer(knowledge, options);
                for (size_t q = begin; q < end; ++q) {
                  for (const Record& record : records) {
                    sims[q].push_back(computer.Approx(queries[q], record));
                  }
                }
              });
  return sims;
}

/// The serving order: similarity desc, then id asc.
bool Ranked(const Match& a, const Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

/// The brute-force answer to one query: the records with similarity >=
/// theta in the serving order, cut at k (0 = all).
std::vector<Match> BruteForceTopK(const std::vector<double>& sims,
                                  double theta, size_t k) {
  std::vector<Match> all;
  for (uint32_t id = 0; id < sims.size(); ++id) {
    if (sims[id] >= theta) all.push_back(Match{id, sims[id]});
  }
  std::sort(all.begin(), all.end(), Ranked);
  if (k > 0 && all.size() > k) all.resize(k);
  return all;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Equal ids and similarity bits, match by match.
bool SameBits(const std::vector<Match>& a, const std::vector<Match>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id) return false;
    if (Bits(a[i].similarity) != Bits(b[i].similarity)) return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "search_qps");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 400));
  size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 200));
  size_t topk = static_cast<size_t>(flags.GetInt("topk", 10));
  int tau = static_cast<int>(flags.GetInt("tau", 1));
  std::string out_path = flags.GetString("out", "BENCH_" + name + ".json");
  bool require_nonzero = flags.GetBool("require_nonzero", false);
  std::vector<double> thetas = flags.GetDoubleList("theta", {0.7, 0.8});
  std::vector<int> thread_counts;
  for (int64_t t : flags.GetIntList("threads", {1, 0})) {
    thread_counts.push_back(static_cast<int>(t));
  }

  PrintBanner("online search serving throughput", "serving subsystem",
              "QPS scales with worker threads; prepare/index paid once");
  std::printf("corpus: profile=%s strings=%zu queries=%zu topk=%zu\n",
              profile.c_str(), strings, num_queries, topk);

  auto world = BuildWorld(profile, strings, /*num_truth_pairs=*/0);
  const std::vector<Record>& records = world->corpus.records;

  // Query workload: an even subsample of the corpus itself.
  std::vector<Record> queries;
  size_t stride = num_queries == 0 ? 1 : std::max<size_t>(
      1, records.size() / num_queries);
  for (size_t i = 0; i < records.size() && queries.size() < num_queries;
       i += stride) {
    queries.push_back(records[i]);
  }

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = records.size();
  DatasetManifest manifest = BuildManifest(records, world->vocab,
                                           &world->rules, &world->taxonomy);
  manifest.source = "datagen:" + profile;
  manifest.format = "generated";
  report.dataset_manifest_json = manifest.ToJson();

  uint64_t total_results = 0;
  // Filled once, from the first engine's options, for every run.
  std::vector<std::vector<double>> reference;
  for (int num_threads : thread_counts) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world->knowledge())
                        .SetMeasures("TJS")
                        .SetQ(3)
                        .SetThreads(num_threads)
                        .Build();
    engine.SetRecords(records);
    if (reference.empty()) {
      reference = BruteForceSimilarities(
          world->knowledge(), engine.options().msim, queries, records);
    }
    for (double theta : thetas) {
      EngineSearchOptions options;
      options.theta = theta;
      options.tau = tau;
      options.k = topk;

      BenchRun run;
      run.algorithm = "search";
      char variant[64];
      std::snprintf(variant, sizeof(variant), "topk=%zu", topk);
      run.variant = variant;
      run.measures = "TJS";
      run.theta = theta;
      run.tau = tau;
      run.threads = num_threads;
      run.num_records = records.size();

      // Pay preparation + serving-index build before timing the query
      // stream; their costs are reported separately.
      auto index = engine.ServingIndex();
      if (!index.ok()) {
        run.error = index.status().ToString();
        report.runs.push_back(std::move(run));
        continue;
      }
      double index_built_seconds = 0.0;
      (*index)->ServingIndex(&index_built_seconds);
      run.stats.prepare_seconds = (*index)->prepare_seconds();
      run.stats.index_seconds = index_built_seconds;

      // The measured serving loop: workers own disjoint query slices
      // and time each Engine::Search call individually (the engine is
      // shared and probed concurrently — that is the point).
      std::vector<double> latencies(queries.size(), 0.0);
      std::vector<std::vector<Match>> answers(queries.size());
      std::atomic<uint64_t> results{0};
      std::atomic<uint64_t> candidates{0};
      WallTimer wall;
      ParallelFor(queries.size(), num_threads,
                  [&](size_t begin, size_t end, int /*worker*/) {
                    uint64_t local_results = 0;
                    uint64_t local_candidates = 0;
                    for (size_t q = begin; q < end; ++q) {
                      SearchStats stats;
                      WallTimer query_timer;
                      auto matches =
                          engine.Search(queries[q], options, &stats);
                      latencies[q] = query_timer.Seconds();
                      if (matches.ok()) {
                        local_results += matches->size();
                        local_candidates += stats.query_candidates;
                        answers[q] = std::move(*matches);
                      }
                    }
                    results.fetch_add(local_results);
                    candidates.fetch_add(local_candidates);
                  });
      double wall_seconds = wall.Seconds();

      // A failed search leaves an empty answer, which no brute-force
      // answer equals: each query finds at least itself.
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::vector<Match> expected =
            BruteForceTopK(reference[q], theta, topk);
        if (!SameBits(answers[q], expected)) {
          std::fprintf(stderr,
                       "PARITY FAILURE: th=%.2f thr=%d query %zu (\"%s\") "
                       "returned %zu matches, brute force %zu — ids or "
                       "similarity bits differ\n",
                       theta, num_threads, q, queries[q].text.c_str(),
                       answers[q].size(), expected.size());
          return 2;
        }
      }

      run.ok = true;
      run.wall_seconds = wall_seconds;
      run.total_seconds = run.stats.prepare_seconds +
                          run.stats.index_seconds + wall_seconds;
      run.stats.queries = queries.size();
      run.stats.query_candidates = candidates.load();
      run.stats.results = results.load();
      run.has_latency = true;
      run.qps = wall_seconds > 0.0
                    ? static_cast<double>(queries.size()) / wall_seconds
                    : 0.0;
      LatencySummary latency = SummarizeLatencySeconds(latencies);
      run.p50_ms = latency.p50_ms;
      run.p95_ms = latency.p95_ms;
      run.p99_ms = latency.p99_ms;
      run.peak_rss_bytes = CurrentPeakRssBytes();
      total_results += results.load();

      std::printf(
          "search th=%.2f thr=%d topk=%zu qps=%-8.1f p50=%.3fms "
          "p95=%.3fms p99=%.3fms results=%llu\n",
          theta, num_threads, topk, run.qps, run.p50_ms, run.p95_ms,
          run.p99_ms, static_cast<unsigned long long>(results.load()));
      report.runs.push_back(std::move(run));
    }
  }

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(),
              report.runs.size());

  if (require_nonzero && total_results == 0) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: no search configuration found matches "
                 "(queries are corpus records — self-hits must exist)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
