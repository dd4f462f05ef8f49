#ifndef AUJOIN_BENCH_HARNESS_H_
#define AUJOIN_BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "datagen/corpus_gen.h"

namespace aujoin {

/// Process-wide peak resident set size in bytes (0 where unsupported).
/// Monotone over the process lifetime, so per-run values record the
/// high-water mark up to that run, not the run's own footprint.
uint64_t CurrentPeakRssBytes();

/// One benchmark grid: the cross product of every listed dimension. The
/// tau dimension only configures the unified join's AU filters, so the
/// harness collapses it to its first value for the four baselines rather
/// than re-running identical work.
struct BenchGrid {
  /// Registry names; empty = every registered algorithm.
  std::vector<std::string> algorithms;
  std::vector<double> thetas = {0.7};
  std::vector<int> taus = {2};
  /// EngineOptions::num_threads values (0 = all hardware threads).
  std::vector<int> threads = {1};
  /// EngineOptions::max_partition_records values (0 = monolithic).
  std::vector<size_t> partition_limits = {0};
  /// Measure-combination string and gram length for every engine.
  std::string measures = "TJS";
  int q = 3;
};

/// One grid cell's outcome: the configuration, the normalized JoinStats,
/// and optional quality scores against labelled truth pairs.
struct BenchRun {
  std::string algorithm;
  /// Free-form sub-configuration label (e.g. a filter-method name) for
  /// benches that sweep dimensions outside the standard grid.
  std::string variant;
  std::string measures;
  double theta = 0.0;
  int tau = 0;
  int threads = 0;
  size_t max_partition_records = 0;
  size_t num_records = 0;

  bool ok = false;
  std::string error;
  JoinStats stats;
  /// TotalSeconds(include_prepare = true): comparable across algorithms
  /// that do their own indexing. On partitioned runs the per-stage times
  /// are summed across blocks, so this is aggregate work, not elapsed
  /// time — use wall_seconds to judge thread scaling.
  double total_seconds = 0.0;
  /// Elapsed wall-clock seconds of the whole Join call.
  double wall_seconds = 0.0;
  uint64_t peak_rss_bytes = 0;

  bool has_prf = false;
  PrfScore prf;

  /// Serving-bench extras (bench_search_qps, or any run that answers
  /// queries): sustained throughput and per-query latency percentiles.
  /// Emitted to JSON only when has_latency is set.
  bool has_latency = false;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  /// Serving provenance (aujoin query --stats_out): whether the run's
  /// prepared index was "rebuilt" in-process or loaded from a
  /// "snapshot", and the load cost in the latter case. Emitted to JSON
  /// only when index_source is non-empty.
  std::string index_source;
  double snapshot_load_ms = 0.0;

  /// Snapshot-bench extras (bench_snapshot): cold-start from a
  /// snapshot vs a full rebuild, the write cost, and generational
  /// append/refreeze throughput. Emitted only when has_snapshot.
  bool has_snapshot = false;
  double rebuild_seconds = 0.0;         // cold start by rebuilding
  double snapshot_write_seconds = 0.0;  // Save() wall time
  double snapshot_load_seconds = 0.0;   // cold start from the snapshot
  double cold_start_speedup = 0.0;      // rebuild / load
  uint64_t snapshot_bytes = 0;
  double append_records_per_sec = 0.0;
  double refreeze_seconds = 0.0;

  /// Shard-bench extras (bench_shard): the scatter-gather race —
  /// the same join/serving workload run monolithically and sharded,
  /// and the measured speedup (monolithic / sharded wall time). The
  /// run's shard count and placement policy live in stats.shards and
  /// shard_by. Emitted to JSON only when has_shard is set.
  bool has_shard = false;
  std::string shard_by;  // "range" | "hash"
  double monolithic_seconds = 0.0;
  double sharded_seconds = 0.0;
  double scatter_gather_speedup = 0.0;  // monolithic / sharded

  /// Write-ahead-log extras (bench_wal, aujoin append/query --wal):
  /// durable-append throughput (one fsynced WAL record per append),
  /// crash-recovery replay cost and the records/bytes it recovered.
  /// Emitted to JSON only when has_wal.
  bool has_wal = false;
  double wal_append_records_per_sec = 0.0;
  double wal_recovery_seconds = 0.0;
  uint64_t wal_recovered_records = 0;
  uint64_t wal_bytes = 0;
  /// Group-commit extras (bench_wal's multi-threaded append phase):
  /// concurrent durable-append throughput and the fsyncs each append
  /// actually paid (< 1 once leaders batch followers into one Sync).
  /// Emitted only when wal_mt_threads is non-zero.
  uint64_t wal_mt_threads = 0;
  double wal_mt_append_records_per_sec = 0.0;
  double wal_mt_syncs_per_append = 0.0;
};

/// Per-query latency percentiles in milliseconds. Takes the latencies
/// by value (sorts its copy); empty input yields all zeros.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};
LatencySummary SummarizeLatencySeconds(std::vector<double> seconds);

/// A machine-readable benchmark report, serialised as BENCH_<name>.json
/// so CI (and later PRs) can track the perf trajectory. Schema documented
/// in README.md ("Benchmark harness" section).
struct BenchReport {
  std::string name;
  std::string profile;
  size_t num_records = 0;
  size_t num_truth_pairs = 0;
  /// Optional corpus manifest (DatasetManifest::ToJson()); embedded
  /// verbatim as the report's "dataset" object when non-empty, so a
  /// result always names the corpus it ran on. The aujoin CLI and
  /// bench_harness both fill this.
  std::string dataset_manifest_json;
  std::vector<BenchRun> runs;

  std::string ToJson() const;
  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

  /// Sum of results over every successful run of `algorithm` — the CI
  /// smoke job fails when this is zero for an algorithm the parity tests
  /// expect to find matches.
  uint64_t TotalResults(const std::string& algorithm) const;

  /// Per-configuration smoke gate: labels of every (algorithm ×
  /// partitioning × threads) group whose successful runs all returned
  /// zero matches. Grouping per configuration (not a grand total per
  /// algorithm) means a regression that empties only the partitioned or
  /// only the threaded cells still trips the gate.
  std::vector<std::string> ZeroResultConfigurations() const;
};

/// Runs benchmark grids over one bound corpus through the Engine facade.
/// Engines are rebuilt per (threads × partition limit) combination and
/// reused across algorithms and thetas, so prepared-context reuse matches
/// how a sweeping caller would drive the engine.
class BenchHarness {
 public:
  BenchHarness(const Knowledge& knowledge, const std::vector<Record>* records)
      : knowledge_(knowledge), records_(records) {}

  /// Runs every cell of `grid`; with `truth` given, scores each run's
  /// pair set against it (precision / recall / F).
  std::vector<BenchRun> RunGrid(
      const BenchGrid& grid,
      const std::vector<std::pair<uint32_t, uint32_t>>* truth = nullptr);

 private:
  Knowledge knowledge_;
  const std::vector<Record>* records_;
};

}  // namespace aujoin

#endif  // AUJOIN_BENCH_HARNESS_H_
