/// \file
/// The Engine facade — the canonical entry point of the library.
/// Assemble options with EngineBuilder, bind records, then run any
/// registered algorithm by name with Engine::Join; results stream to a
/// MatchSink (see api/match_sink.h) and come back as normalized
/// JoinStats. File-based inputs arrive via dataset/dataset.h.

#ifndef AUJOIN_API_ENGINE_H_
#define AUJOIN_API_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/join_algorithm.h"
#include "api/match_sink.h"
#include "api/registry.h"
#include "core/knowledge.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/prepared_index.h"
#include "join/join.h"
#include "join/search.h"
#include "shard/shard_plan.h"
#include "tuner/recommend.h"
#include "util/lazy_publish.h"
#include "util/status.h"

namespace aujoin {

class GenerationalIndex;
class ShardedIndex;
class WalWriter;

/// Engine-level configuration assembled by EngineBuilder: the knowledge
/// sources and measure selection shared by every join the engine runs,
/// plus threading and memory policy.
struct EngineOptions {
  Knowledge knowledge;
  /// Measures + q shared by filtering and verification.
  MsimOptions msim;
  /// Worker threads for every stage (1 = serial, 0 = all hardware
  /// threads) — one policy across the unified join and all baselines.
  int num_threads = 1;
  /// Gram-cache eviction threshold (entries) for verification through
  /// UsimComputer's Record overloads. The engine verifies prepared
  /// records and does not read it; only the end-to-end benchmark's
  /// replay (e2ebench/bench_e2e.cc) does.
  size_t cache_evict_threshold = 500000;
  /// Candidate pairs verified per streaming flush to a MatchSink.
  size_t stream_batch_size = 4096;
  /// Shards: when > 0, the bound collection(s) are split into exactly
  /// this many shards (by `shard_by`); every Join runs through the
  /// blocked pipeline (join/pipeline.h), whose shard-pair blocks execute
  /// in parallel on a shared thread pool, bounding prepared-context
  /// memory by the blocks in flight instead of the whole collection;
  /// serving answers every query over the shards as slices of the
  /// collection (SearchSlices in join/search.h), and SaveIndex/LoadIndex
  /// persist one snapshot file per shard behind a manifest. 0 runs the
  /// monolithic path. Either way the match set and its emission order
  /// are identical. Ignored in append mode (the generational index
  /// serves appends).
  size_t num_shards = 0;
  /// Shard placement scheme (record range or key hash); see
  /// shard/shard_plan.h.
  ShardBy shard_by = ShardBy::kRange;
  /// Out-of-core joins: when > 0, a sharded join whose buffered result
  /// set exceeds this many bytes spills sorted runs to temp files in
  /// `spill_dir` and merges them back at emission (identical results,
  /// bounded memory). 0 = always in-memory.
  size_t spill_budget_bytes = 0;
  /// Directory for spill temp files ("" = current directory). Files
  /// are unlinked as soon as they are mapped, so none outlive the join.
  std::string spill_dir;
  /// Append mode: when > 0 and EnableAppend was given a checkpoint
  /// path, every acknowledged Append whose WAL has grown past this many
  /// bytes triggers Checkpoint() automatically, bounding both log size
  /// and recovery replay work. The append itself is already durable
  /// when the checkpoint runs; a checkpoint failure is recorded in
  /// Engine::auto_checkpoint_status(), not retrofitted onto the append.
  size_t wal_checkpoint_bytes = 0;
  /// Storage environment for every file the engine touches (snapshots,
  /// checkpoints, the write-ahead log). nullptr = Env::Default(), the
  /// real POSIX filesystem; tests inject a FaultInjectionEnv here.
  Env* env = nullptr;
};

/// Builds a Record from raw text — how append mode tokenises incoming
/// appends and how recovery re-tokenises replayed WAL / checkpoint
/// texts. Must be deterministic and must intern into the SAME
/// vocabulary the bound records use, in call order: recovery depends on
/// replaying the factory over the same texts reproducing the exact
/// token ids (and thus the snapshot fingerprints) of the first run.
using RecordFactory = std::function<Record(const std::string&)>;

/// Per-query serving knobs of Engine::Search / TopK / BatchSearch.
struct EngineSearchOptions {
  /// Similarity threshold; matches satisfy Approx USIM >= theta.
  double theta = 0.8;
  /// Overlap constraint on the query signature (the single-sided AU
  /// filter; subject to the query's effective tau).
  int tau = 1;
  FilterMethod method = FilterMethod::kAuDp;
  /// Keep only the k best matches per query (similarity desc, id asc);
  /// 0 = every match above theta.
  size_t k = 0;
};

/// Aggregated serving statistics of one Search/TopK/BatchSearch call.
/// The timings mean the same on every serving store (monolithic,
/// sharded, append): `search_seconds` is the wall time of the whole
/// call, and `index_seconds` is the part of it spent on one-time index
/// work the call paid for — preparing and freezing an index, or
/// mounting a snapshot shard. A call that finds everything built
/// reports index_seconds == 0.
struct SearchStats {
  uint64_t queries = 0;
  /// Candidate records that survived the signature filter (verified).
  uint64_t query_candidates = 0;
  /// Matches returned to the caller. On the streaming overloads (sink
  /// or callback) this counts matches actually emitted — a consumer
  /// that stops early caps it, including the match it declined.
  uint64_t results = 0;
  /// One-time index build (prepare + CSR build) or mount seconds,
  /// charged to the call that paid them; with shards built in
  /// parallel, the busiest worker's share. Never exceeds
  /// search_seconds.
  double index_seconds = 0.0;
  /// Wall seconds of the whole call, including any index build.
  double search_seconds = 0.0;
  /// Shards the query scattered across (EngineOptions::num_shards);
  /// zero on the monolithic serving path.
  uint64_t shards = 0;
};

/// The unified facade over every join algorithm in the registry.
///
///   Engine engine = EngineBuilder()
///                       .SetKnowledge(knowledge)
///                       .SetMeasures("TJS")
///                       .SetQ(3)
///                       .SetThreads(0)
///                       .Build();
///   engine.SetRecords(records);
///   CollectingSink sink;
///   auto stats = engine.Join("unified", {.theta = 0.8, .tau = 2}, &sink);
///
/// The engine owns the prepared unified-join context (pebbles + global
/// order), builds it lazily on first use, and reuses it across runs, so
/// sweeping (theta, tau, algorithm) pays preparation once. Records are
/// borrowed, not copied; they must outlive the engine's use of them.
class Engine {
 public:
  explicit Engine(EngineOptions options);

  // Out of line: unique_ptr members of forward-declared types
  // (GenerationalIndex, WalWriter) need complete types to destroy.
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();

  /// Binds the collection(s) to join. Pass `t == nullptr` for a
  /// self-join. Invalidates any prepared context, including append
  /// mode — the WAL writer is released (not truncated) and appended
  /// records are dropped from serving.
  void SetRecords(const std::vector<Record>& s,
                  const std::vector<Record>* t = nullptr);

  /// Runs `algorithm` (a registry name — see AlgorithmRegistry) and
  /// streams every matching pair to `sink` in ascending (first, second)
  /// order. Returns the normalized stats, or an error when the name is
  /// unknown, no records are bound, or the algorithm cannot handle the
  /// bound record shape (baselines are self-join only).
  Result<JoinStats> Join(const std::string& algorithm,
                         const EngineJoinOptions& options, MatchSink* sink);

  /// Collecting convenience: same as above with a CollectingSink, packed
  /// into the classic JoinResult shape.
  Result<JoinResult> Join(const std::string& algorithm,
                          const EngineJoinOptions& options);

  /// The tuner path: lets Algorithm 7 pick the overlap constraint tau on
  /// the engine's prepared context, then runs Join("unified") with it.
  /// Suggestion time is reported in stats.suggest_seconds.
  Result<JoinResult> JoinWithSuggestedTau(
      const EngineJoinOptions& options, const TunerOptions& tuner_options,
      TauRecommendation* recommendation = nullptr);

  /// The lazily-prepared unified JoinContext (pebbles + global order) for
  /// the bound records. Exposed for benches/tuners that drive the filter
  /// stage directly. Borrows the same shared PreparedIndex that serves
  /// Search, so a join sweep and a query stream pay preparation once.
  JoinContext& PreparedContext();

  /// The shared immutable PreparedIndex for the bound records, built
  /// once on first use (thread-safe, callable concurrently); the call
  /// that builds it adds the prepare seconds to `*built_seconds`. Joins,
  /// monolithic searches and external UnifiedSearchers all borrow this
  /// one instance; it stays valid after SetRecords rebinds the engine as
  /// long as the caller holds the shared_ptr (and the old records). A
  /// sharded engine serves from its shards and never needs it.
  Result<std::shared_ptr<const PreparedIndex>> ServingIndex(
      double* built_seconds = nullptr) const;

  /// Persists the prepared index (building it first if needed) as a
  /// versioned snapshot at `path` — see storage/snapshot_format.h. A
  /// later engine bound to the SAME records and knowledge can LoadIndex
  /// it and skip preparation entirely.
  Status SaveIndex(const std::string& path) const;

  /// Replaces the lazy prepared index with one loaded from a snapshot,
  /// skipping pebble generation and the CSR build (the mmap
  /// cold-start path). Records must already be bound and must match
  /// the snapshot's fingerprints (kFailedPrecondition otherwise;
  /// damaged files return kCorruption). On failure the engine is
  /// unchanged and the next Search/Join simply rebuilds. Mutation:
  /// never call concurrently with serving, same rule as SetRecords.
  Status LoadIndex(const std::string& path);

  /// "snapshot" when the current index came from LoadIndex, "rebuilt"
  /// when it was (or will be) built from the bound records.
  const char* index_source() const {
    return from_snapshot_ ? "snapshot" : "rebuilt";
  }

  /// Wall seconds the last successful LoadIndex spent (0 when the
  /// index was rebuilt in-process).
  double snapshot_load_seconds() const { return snapshot_load_seconds_; }

  /// Switches the engine into append-serving mode (self-join only): a
  /// GenerationalIndex over the bound records becomes the serving
  /// structure, and every Append is made durable through a WAL at
  /// `wal_path` before it is acknowledged.
  ///
  /// Cold start, in order: (1) when `checkpoint_path` names an existing
  /// checkpoint, its embedded appended texts are re-tokenised through
  /// `make_record` on top of the bound records and the frozen index is
  /// mounted from the snapshot (the bound records must be the
  /// checkpoint's base); otherwise the engine's lazy serving index is
  /// the base. (2) The WAL at `wal_path` is replayed — records the base
  /// already covers are skipped by id, the rest re-staged in order. A
  /// torn tail (crash mid-write) is trimmed; damage before intact
  /// records is kCorruption. (3) The WAL reopens for appending.
  ///
  /// Mutation: never call concurrently with serving.
  Status EnableAppend(const std::string& wal_path, RecordFactory make_record,
                      const std::string& checkpoint_path = "");

  /// Durable append of one raw text: tokenised via the RecordFactory,
  /// WAL-logged + fsynced, then staged for serving. Returns the new
  /// record's global id. The acknowledged-durable contract and the
  /// sticky-failure rule are GenerationalIndex::AppendDurable's.
  /// One caller at a time for Append and Checkpoint: the record factory
  /// interns into a Vocabulary that has no lock, and an auto-checkpoint's
  /// WAL reset inside Append must not race another append. Search, TopK,
  /// BatchSearch and Refreeze may run concurrently with them; a query
  /// sees every append acknowledged before it began.
  Result<uint32_t> Append(const std::string& text);

  /// Compacts staged appends into the frozen generation (see
  /// GenerationalIndex::Refreeze); serving continues throughout.
  Status Refreeze();

  /// Refreezes, saves the frozen generation as a checkpoint snapshot at
  /// `path` (embedding appended texts — see storage/index_checkpoint.h)
  /// and resets the WAL to empty: the checkpoint now owns every logged
  /// record. Must not run concurrently with Append — an append landing
  /// between the refreeze and the log reset would lose its log entry.
  /// If the process dies between the checkpoint rename and the log
  /// reset, replay is still exact: every log record's id is below the
  /// checkpoint's record count, so recovery skips them all.
  Status Checkpoint(const std::string& path);

  /// True after a successful EnableAppend (until SetRecords).
  bool append_mode() const { return generational_ != nullptr; }

  /// Records recovered from the WAL by the last EnableAppend.
  uint64_t wal_recovered_records() const { return wal_recovered_; }

  /// The append-mode serving structure (counts, generation number);
  /// nullptr outside append mode.
  const GenerationalIndex* generational_index() const {
    return generational_.get();
  }

  /// Outcome of the most recent size-triggered auto-checkpoint
  /// (EngineOptions::wal_checkpoint_bytes); OK when none has run or the
  /// last one succeeded. The triggering Append stays acknowledged
  /// either way — its durability came from the WAL, not the checkpoint.
  const Status& auto_checkpoint_status() const {
    return auto_checkpoint_status_;
  }
  /// Size-triggered checkpoints taken since EnableAppend.
  uint64_t auto_checkpoints() const { return auto_checkpoints_; }

  /// The scatter-gather serving structure when EngineOptions::num_shards
  /// > 0 (built or mounted lazily); nullptr before first use or in
  /// monolithic/append mode. Never builds. Exposed for tests asserting
  /// lazy per-shard residency.
  const ShardedIndex* sharded_index() const { return sharded_->Peek().get(); }

  /// Online search over the bound T side (== S for a self-join; in
  /// append mode, the bound records plus every append): every record
  /// with Approx USIM >= theta, ordered by similarity desc then id asc,
  /// truncated to options.k when set. Const and safe to call from many
  /// threads concurrently on one engine; all per-query scratch state is
  /// local to the call. Whatever the store, the query runs through
  /// SearchSlices (join/search.h); across shards, the slices are
  /// resolved and probed on the engine's num_threads.
  Result<std::vector<UnifiedSearcher::Match>> Search(
      const Record& query, const EngineSearchOptions& options,
      SearchStats* stats = nullptr) const;

  /// Streaming variant: emits OnMatch(query.id, match.id) in rank order
  /// (similarity desc, id asc — NOT ascending ids; search ranks, joins
  /// sort). A false return stops the emission, not the search.
  Status Search(const Record& query, const EngineSearchOptions& options,
                MatchSink* sink, SearchStats* stats = nullptr) const;

  /// The k most similar records with similarity >= options.theta —
  /// Search with the result bound as an argument (options.k is
  /// ignored; k = 0 answers nothing but still counts one query, and
  /// kAllMatches answers everything).
  Result<std::vector<UnifiedSearcher::Match>> TopK(
      const Record& query, size_t k, const EngineSearchOptions& options,
      SearchStats* stats = nullptr) const;

  /// Fans `queries` across a ThreadPool (the engine's num_threads
  /// policy) and streams every match to `on_match(query_index, match)`
  /// in ascending query order, rank order within a query, each exactly
  /// once. A false return stops the emission immediately (matches
  /// after it, including the current query's, are dropped). Every
  /// query is answered from the slices the store pinned when the call
  /// began, each on one worker (no pool inside the pool).
  Status BatchSearch(
      const std::vector<Record>& queries, const EngineSearchOptions& options,
      const std::function<bool(uint32_t, const UnifiedSearcher::Match&)>&
          on_match,
      SearchStats* stats = nullptr) const;

  /// MatchSink adapter: emits OnMatch(query_index, match.id), same
  /// ordering contract as the callback variant.
  Status BatchSearch(const std::vector<Record>& queries,
                     const EngineSearchOptions& options, MatchSink* sink,
                     SearchStats* stats = nullptr) const;

  const EngineOptions& options() const { return options_; }
  bool has_records() const { return s_records_ != nullptr; }

 private:
  AlgorithmContext MakeAlgorithmContext();

  /// The lazily-built sharded serving structure (num_shards > 0 only):
  /// splits the T side (== S for self-joins) under the engine's shard
  /// plan.
  Result<std::shared_ptr<const ShardedIndex>> ShardedServing() const;

  /// What one query is answered from: the serving store's slices and
  /// how to resolve them (see SearchSlices).
  struct Slices {
    size_t count = 0;
    SliceResolver resolve;
    /// Workers that resolve and probe one query's slices: the engine's
    /// num_threads across shards, the calling thread otherwise.
    int num_threads = 1;
    /// SearchStats::shards.
    uint64_t shards = 0;
  };

  /// The serving store's slices: in append mode the generational
  /// index's pinned frozen + staging pair (the generational index takes
  /// precedence — appends land in one growing collection), with
  /// num_shards the shards, otherwise the monolithic prepared index.
  /// Pinning adds any staging build to `*built_seconds`; every other
  /// build or mount happens when a slice is resolved.
  Result<Slices> ServingSlices(double* built_seconds) const;

  EngineOptions options_;
  const std::vector<Record>* s_records_ = nullptr;
  const std::vector<Record>* t_records_ = nullptr;
  std::unique_ptr<JoinContext> context_;
  /// The serving index (the only state const serving methods build);
  /// SetRecords and LoadIndex replace the helper. Behind a unique_ptr so
  /// the Engine stays movable (moving while another thread serves from
  /// the engine is undefined, as usual).
  std::unique_ptr<LazyPublish<PreparedIndex>> index_ =
      std::make_unique<LazyPublish<PreparedIndex>>();
  /// Provenance of `index_`, written only by mutations (SetRecords /
  /// LoadIndex) and read by stats reporting.
  bool from_snapshot_ = false;
  double snapshot_load_seconds_ = 0.0;

  /// Append mode (all written only by mutations — EnableAppend /
  /// SetRecords — and read by serving): the generational serving
  /// structure, the WAL it logs through (the index borrows the writer,
  /// so the writer must be destroyed after it), the tokenising factory
  /// and the dataset-base record count checkpoints are taken against.
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<GenerationalIndex> generational_;
  RecordFactory make_record_;
  size_t base_count_ = 0;
  uint64_t wal_recovered_ = 0;
  /// Size-driven checkpointing (EngineOptions::wal_checkpoint_bytes):
  /// where EnableAppend said checkpoints live, plus the outcome and
  /// count of auto-triggered ones.
  std::string checkpoint_path_;
  Status auto_checkpoint_status_;
  uint64_t auto_checkpoints_ = 0;

  /// Scatter-gather serving (EngineOptions::num_shards > 0), held like
  /// `index_`; the instance itself is const-thread-safe.
  std::unique_ptr<LazyPublish<ShardedIndex>> sharded_ =
      std::make_unique<LazyPublish<ShardedIndex>>();
};

/// Fluent construction of an Engine; every setter has a sensible default
/// (all measures, q = 2, serial execution).
class EngineBuilder {
 public:
  EngineBuilder& SetKnowledge(const Knowledge& knowledge) {
    options_.knowledge = knowledge;
    return *this;
  }
  /// Measure-combination string: "J", "TS", "TJS", ... (ParseMeasures).
  EngineBuilder& SetMeasures(const std::string& spec) {
    options_.msim.measures = ParseMeasures(spec);
    return *this;
  }
  EngineBuilder& SetQ(int q) {
    options_.msim.q = q;
    return *this;
  }
  /// Full msim control (gram measure, exact-match bit, ...).
  EngineBuilder& SetMsimOptions(const MsimOptions& msim) {
    options_.msim = msim;
    return *this;
  }
  EngineBuilder& SetThreads(int num_threads) {
    options_.num_threads = num_threads;
    return *this;
  }
  EngineBuilder& SetStreamBatchSize(size_t pairs) {
    options_.stream_batch_size = pairs;
    return *this;
  }
  /// 0 = monolithic; > 0 = first-class shards (joins run shard-pair
  /// blocks, serving scatter-gathers); see EngineOptions::num_shards.
  EngineBuilder& SetNumShards(size_t shards) {
    options_.num_shards = shards;
    return *this;
  }
  EngineBuilder& SetShardBy(ShardBy shard_by) {
    options_.shard_by = shard_by;
    return *this;
  }
  /// 0 = in-memory joins; > 0 = spill sorted runs past this many bytes.
  EngineBuilder& SetSpillBudgetBytes(size_t bytes) {
    options_.spill_budget_bytes = bytes;
    return *this;
  }
  EngineBuilder& SetSpillDir(const std::string& dir) {
    options_.spill_dir = dir;
    return *this;
  }
  /// 0 = manual checkpoints only; > 0 = auto-checkpoint past this WAL
  /// size (append mode, requires a checkpoint path at EnableAppend).
  EngineBuilder& SetWalCheckpointBytes(size_t bytes) {
    options_.wal_checkpoint_bytes = bytes;
    return *this;
  }
  /// Storage environment (nullptr = the real filesystem); see
  /// EngineOptions::env.
  EngineBuilder& SetEnv(Env* env) {
    options_.env = env;
    return *this;
  }

  Engine Build() const { return Engine(options_); }

 private:
  EngineOptions options_;
};

}  // namespace aujoin

#endif  // AUJOIN_API_ENGINE_H_
