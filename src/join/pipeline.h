#ifndef AUJOIN_JOIN_PIPELINE_H_
#define AUJOIN_JOIN_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>

#include "api/join_algorithm.h"
#include "api/match_sink.h"
#include "shard/shard_plan.h"
#include "util/status.h"

namespace aujoin {

class Env;

/// Creates one algorithm instance; the pipeline calls it once per
/// block so stateful algorithms never run concurrently with
/// themselves. The Engine passes a registry lookup here, which keeps this
/// layer free of a registry dependency.
using AlgorithmFactory = std::function<std::unique_ptr<JoinAlgorithm>()>;

/// Execution policy of the blocked join pipeline.
struct PipelineOptions {
  /// Worker count of the shared pool that runs blocks (ResolveThreads
  /// semantics: 0 = all hardware threads). Each block is
  /// single-threaded internally; parallelism comes from running blocks
  /// concurrently.
  int num_threads = 1;
  /// Split the collection(s) into exactly this many shards
  /// (ShardPlan::Make) and enumerate shard-pair blocks; both sides of an
  /// R-S join get the same count. Must be > 0 (0 selects the monolithic
  /// path at the Engine level and never reaches the pipeline).
  size_t num_shards = 0;
  /// Shard placement scheme (range keeps the stripe-streaming emission;
  /// hash models distributed placement and switches to collect-and-merge
  /// emission).
  ShardBy shard_by = ShardBy::kRange;
  /// Out-of-core budget: when > 0, the join buffers merged results and
  /// spills sorted runs to temp files in `spill_dir` once the buffer
  /// exceeds this many bytes, merging them back at emission — joins
  /// bigger than RAM degrade to sequential I/O instead of OOMing.
  /// 0 = never spill.
  size_t spill_budget_bytes = 0;
  /// Directory for spill temp files ("" = "."). Files are unlinked the
  /// moment they are mapped for merge-back, so nothing survives the
  /// join — crash included.
  std::string spill_dir;
  /// Storage environment for spill I/O (nullptr = Env::Default());
  /// tests inject a FaultInjectionEnv here.
  Env* env = nullptr;
};

/// Runs one join as a pipeline of shard-pair blocks.
///
/// The bound collection(s) are split into num_shards range or hash
/// shards (ShardPlan::Make), and every shard pair becomes an
/// independent block: a self-contained prepare → candidate generation →
/// batched verification run over just that pair's record slices,
/// executed on a shared ThreadPool. Peak prepared-state memory is
/// bounded by the blocks in flight instead of the whole collection.
///
/// Result parity with the monolithic path is structural:
///  - self-joins run the upper triangle of blocks; a diagonal block
///    contributes its within-shard pairs, a cross block only pairs
///    straddling its two shards (via an R-S run when the algorithm
///    supports it, otherwise a concatenated self-join whose
///    within-shard pairs are dropped) — so every pair is produced by
///    exactly one block and boundary dedup needs no hash set;
///  - self-join pairs are normalised to (min, max) global ids, which is
///    a no-op on contiguous plans and makes hash plans agree with the
///    monolithic first < second contract;
///  - contiguous plans without a spill budget emit stripe by stripe
///    (sorted within each stripe) exactly as before; hash plans and
///    spilling joins collect every block's (disjoint) sorted pairs —
///    spilling sorted runs through the Env when over budget — and merge
///    them back in one globally ascending emission. Either way the sink
///    observes the MatchSink contract: globally ascending (first,
///    second), each pair exactly once, early termination honoured.
///
/// Stats: per-stage seconds are summed across blocks (aggregate work,
/// not wall time), counts are summed; `shards` + `partition_blocks`
/// record the plan shape and `spill_runs/pairs/bytes`
/// the out-of-core traffic. On early termination under stripe streaming
/// the stats cover the stripes emitted so far; the collect-and-merge
/// path has already run every block by emission time, so its stats
/// always cover the whole join.
Status RunPartitionedJoin(const AlgorithmFactory& factory,
                          const AlgorithmContext& context,
                          const EngineJoinOptions& options,
                          const PipelineOptions& pipeline_options,
                          MatchSink* sink, JoinStats* stats);

}  // namespace aujoin

#endif  // AUJOIN_JOIN_PIPELINE_H_
