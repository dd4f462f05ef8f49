#include "api/engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "join/pipeline.h"
#include "shard/sharded_index.h"
#include "storage/env.h"
#include "storage/generational_index.h"
#include "storage/index_checkpoint.h"
#include "storage/wal_format.h"
#include "storage/wal_reader.h"
#include "storage/wal_writer.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace aujoin {
namespace {

Env* ResolveEnv(const EngineOptions& options) {
  return options.env != nullptr ? options.env : Env::Default();
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

void Engine::SetRecords(const std::vector<Record>& s,
                        const std::vector<Record>* t) {
  s_records_ = &s;
  t_records_ = (t == &s) ? nullptr : t;
  context_.reset();
  from_snapshot_ = false;
  snapshot_load_seconds_ = 0.0;
  // Append mode is bound to the old records; tear it down. Destruction
  // order: the generational index borrows the WAL writer.
  generational_.reset();
  wal_.reset();
  make_record_ = nullptr;
  base_count_ = 0;
  wal_recovered_ = 0;
  checkpoint_path_.clear();
  auto_checkpoint_status_ = Status::OK();
  auto_checkpoints_ = 0;
  sharded_ = std::make_unique<LazyPublish<ShardedIndex>>();
  index_ = std::make_unique<LazyPublish<PreparedIndex>>();
}

Result<std::shared_ptr<const ShardedIndex>> Engine::ShardedServing() const {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::ShardedServing called before SetRecords()");
  }
  return sharded_->Get([this] {
    // Serving probes the T side (== S for a self-join); that is the
    // collection the shard plan splits.
    const std::vector<Record>& targets =
        t_records_ != nullptr ? *t_records_ : *s_records_;
    return std::make_shared<const ShardedIndex>(
        options_.knowledge, options_.msim, targets,
        ShardPlan::Make(targets.size(), options_.num_shards,
                        options_.shard_by));
  });
}

Status Engine::SaveIndex(const std::string& path) const {
  if (options_.num_shards > 0 && generational_ == nullptr) {
    // Sharded mode persists one snapshot file per shard behind a
    // manifest, so a later engine can mount shards independently.
    Result<std::shared_ptr<const ShardedIndex>> sharded = ShardedServing();
    if (!sharded.ok()) return sharded.status();
    return (*sharded)->Save(path, ResolveEnv(options_));
  }
  Result<std::shared_ptr<const PreparedIndex>> index = ServingIndex();
  if (!index.ok()) return index.status();
  return (*index)->Save(path, ResolveEnv(options_));
}

Status Engine::LoadIndex(const std::string& path) {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::LoadIndex called before SetRecords()");
  }
  if (generational_ != nullptr) {
    return Status::FailedPrecondition(
        "Engine::LoadIndex is unavailable in append mode (EnableAppend "
        "mounts checkpoints itself)");
  }
  WallTimer timer;
  if (options_.num_shards > 0) {
    // Sharded mode mounts the manifest now and each shard's file lazily
    // at that shard's first probe.
    const std::vector<Record>& targets =
        t_records_ != nullptr ? *t_records_ : *s_records_;
    Result<std::unique_ptr<ShardedIndex>> loaded = ShardedIndex::Load(
        options_.knowledge, options_.msim, targets, options_.num_shards,
        options_.shard_by, path, ResolveEnv(options_));
    if (!loaded.ok()) return loaded.status();
    sharded_ = std::make_unique<LazyPublish<ShardedIndex>>(std::move(*loaded));
  } else {
    Result<std::shared_ptr<const PreparedIndex>> loaded =
        PreparedIndex::Load(options_.knowledge, options_.msim, *s_records_,
                            t_records_, path, ResolveEnv(options_));
    if (!loaded.ok()) return loaded.status();
    context_.reset();  // a prepared join context would borrow the old index
    index_ = std::make_unique<LazyPublish<PreparedIndex>>(*loaded);
  }
  from_snapshot_ = true;
  snapshot_load_seconds_ = timer.Seconds();
  return Status::OK();
}

Status Engine::EnableAppend(const std::string& wal_path,
                            RecordFactory make_record,
                            const std::string& checkpoint_path) {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::EnableAppend called before SetRecords()");
  }
  if (t_records_ != nullptr) {
    return Status::InvalidArgument(
        "append mode serves a single growing collection (self-join only)");
  }
  if (make_record == nullptr) {
    return Status::InvalidArgument(
        "EnableAppend requires a record factory to tokenise appends");
  }
  if (generational_ != nullptr) {
    return Status::FailedPrecondition(
        "append mode is already enabled (SetRecords resets it)");
  }
  Env* env = ResolveEnv(options_);

  // 1. The frozen base: a checkpoint when one exists, else the engine's
  // own lazy serving index over the bound records.
  std::shared_ptr<const std::vector<Record>> base_records;
  std::shared_ptr<const PreparedIndex> base_index;
  if (!checkpoint_path.empty() && env->FileExists(checkpoint_path)) {
    Result<CheckpointTexts> texts = ReadCheckpointTexts(checkpoint_path, env);
    if (!texts.ok()) return texts.status();
    if (texts->base_count != s_records_->size()) {
      return Status::FailedPrecondition(
          checkpoint_path + ": checkpoint base is " +
          std::to_string(texts->base_count) + " records, " +
          std::to_string(s_records_->size()) + " are bound");
    }
    // Rebuild the full record vector the checkpoint indexed: the bound
    // base plus its appended texts, re-tokenised in id order (which
    // reproduces the original interning, and thus the fingerprints).
    auto full = std::make_shared<std::vector<Record>>(*s_records_);
    full->reserve(full->size() + texts->texts.size());
    for (const std::string& text : texts->texts) {
      Record record = make_record(text);
      record.id = static_cast<uint32_t>(full->size());
      full->push_back(std::move(record));
    }
    Result<std::shared_ptr<const PreparedIndex>> loaded =
        PreparedIndex::Load(options_.knowledge, options_.msim, *full, nullptr,
                            checkpoint_path, env);
    if (!loaded.ok()) return loaded.status();
    base_records = std::move(full);
    base_index = std::move(*loaded);
  } else {
    Result<std::shared_ptr<const PreparedIndex>> index = ServingIndex();
    if (!index.ok()) return index.status();
    base_index = *index;
    // Aliased: the engine's contract already keeps the bound records
    // alive, the shared_ptr just ties them to the index for the ride.
    base_records = std::shared_ptr<const std::vector<Record>>(base_index,
                                                              s_records_);
  }

  auto generational = std::make_unique<GenerationalIndex>(
      options_.knowledge, options_.msim, std::move(base_records),
      std::move(base_index));

  // 2. Replay the WAL on top of the base. Ids below the current size
  // are already covered (by the checkpoint — the log survives a crash
  // between checkpoint and log reset); a gap means mid-log loss.
  uint64_t recovered = 0;
  if (env->FileExists(wal_path)) {
    Result<WalReplay> replay = WalReader::ReadAll(env, wal_path);
    if (!replay.ok()) return replay.status();
    for (const std::string& payload : replay->records) {
      uint32_t id = 0;
      std::string_view text;
      if (!DecodeWalAppend(payload, &id, &text)) {
        return Status::Corruption(wal_path +
                                  ": WAL record too short for an append");
      }
      uint64_t size = generational->size();
      if (id < size) continue;
      if (id > size) {
        return Status::Corruption(
            wal_path + ": WAL append id " + std::to_string(id) +
            " skips past the " + std::to_string(size) +
            " records recovered so far (lost log records)");
      }
      generational->Append(make_record(std::string(text)));
      ++recovered;
    }
    // Trim a torn tail (and any zero-padding past the last complete
    // record) so the reopened writer resumes on a clean boundary.
    Result<uint64_t> size = env->GetFileSize(wal_path);
    if (!size.ok()) return size.status();
    if (*size != replay->valid_bytes) {
      AUJOIN_RETURN_NOT_OK(env->TruncateFile(wal_path, replay->valid_bytes));
    }
  }

  // 3. Reopen for appending and go live (with extents reserved so
  // steady-state appends don't pay allocation metadata per fsync).
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(env, wal_path, /*truncate=*/false,
                      WalWriter::kDefaultPreallocateBytes);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  generational_ = std::move(generational);
  generational_->AttachWal(wal_.get());
  make_record_ = std::move(make_record);
  base_count_ = s_records_->size();
  wal_recovered_ = recovered;
  checkpoint_path_ = checkpoint_path;
  auto_checkpoint_status_ = Status::OK();
  auto_checkpoints_ = 0;
  return Status::OK();
}

Result<uint32_t> Engine::Append(const std::string& text) {
  if (generational_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Append requires append mode (EnableAppend first)");
  }
  Result<uint32_t> id = generational_->AppendDurable(make_record_(text));
  if (!id.ok()) return id;
  // Size-driven checkpointing: the append above is already durable (WAL
  // synced), so a failed checkpoint must not retro-fail it — the
  // outcome is recorded for the caller to poll and the log keeps
  // growing until a later attempt succeeds.
  if (options_.wal_checkpoint_bytes > 0 && !checkpoint_path_.empty() &&
      wal_ != nullptr && wal_->size() >= options_.wal_checkpoint_bytes) {
    auto_checkpoint_status_ = Checkpoint(checkpoint_path_);
    if (auto_checkpoint_status_.ok()) ++auto_checkpoints_;
  }
  return id;
}

Status Engine::Refreeze() {
  if (generational_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Refreeze requires append mode (EnableAppend first)");
  }
  generational_->Refreeze();
  return Status::OK();
}

Status Engine::Checkpoint(const std::string& path) {
  if (generational_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Checkpoint requires append mode (EnableAppend first)");
  }
  generational_->Refreeze();
  std::shared_ptr<const PreparedIndex> frozen = generational_->frozen_index();
  AUJOIN_RETURN_NOT_OK(
      SaveIndexCheckpoint(*frozen, base_count_, path, ResolveEnv(options_)));
  // The durably renamed checkpoint covers every logged record, so the
  // log restarts empty. A crash before this reset is fine (replay skips
  // covered ids); an append racing it is not — see the header contract.
  return wal_->Reset();
}

Result<std::shared_ptr<const PreparedIndex>> Engine::ServingIndex(
    double* built_seconds) const {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::ServingIndex called before SetRecords()");
  }
  return index_->Get([&] {
    std::shared_ptr<const PreparedIndex> index = PreparedIndex::Build(
        options_.knowledge, options_.msim, *s_records_, t_records_);
    if (built_seconds != nullptr) *built_seconds += index->prepare_seconds();
    return index;
  });
}

JoinContext& Engine::PreparedContext() {
  if (s_records_ == nullptr) {
    // Returning a reference leaves no status channel; fail loudly rather
    // than dereferencing null inside Prepare().
    std::fprintf(stderr,
                 "Engine::PreparedContext() called before SetRecords()\n");
    std::abort();
  }
  if (context_ == nullptr) {
    context_ =
        std::make_unique<JoinContext>(options_.knowledge, options_.msim);
    // Joins borrow the same shared immutable index that serves Search.
    context_->Adopt(*ServingIndex());
  }
  return *context_;
}

AlgorithmContext Engine::MakeAlgorithmContext() {
  AlgorithmContext ctx;
  ctx.knowledge = &options_.knowledge;
  ctx.s_records = s_records_;
  ctx.t_records = t_records_;
  ctx.msim = options_.msim;
  ctx.num_threads = options_.num_threads;
  ctx.stream_batch_size = options_.stream_batch_size;
  ctx.unified_context = [this]() -> JoinContext& {
    return PreparedContext();
  };
  return ctx;
}

Result<JoinStats> Engine::Join(const std::string& algorithm,
                               const EngineJoinOptions& options,
                               MatchSink* sink) {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::Join called before SetRecords()");
  }
  if (generational_ != nullptr) {
    return Status::FailedPrecondition(
        "Engine::Join is unavailable in append mode: joins run over the "
        "bound collections and would miss appended records");
  }
  if (sink == nullptr) {
    return Status::InvalidArgument("Engine::Join requires a sink");
  }
  std::unique_ptr<JoinAlgorithm> algo =
      AlgorithmRegistry::Global().Create(algorithm);
  if (algo == nullptr) {
    std::string known;
    for (const std::string& name : AlgorithmRegistry::Global().Names()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("unknown join algorithm '" + algorithm +
                            "' (registered: " + known + ")");
  }
  if (t_records_ != nullptr && !algo->SupportsRsJoin()) {
    return Status::InvalidArgument("algorithm '" + algorithm +
                                   "' supports self-joins only");
  }
  AlgorithmContext ctx = MakeAlgorithmContext();
  JoinStats stats;
  if (options_.num_shards > 0) {
    PipelineOptions pipeline_options;
    pipeline_options.num_threads = options_.num_threads;
    pipeline_options.num_shards = options_.num_shards;
    pipeline_options.shard_by = options_.shard_by;
    pipeline_options.spill_budget_bytes = options_.spill_budget_bytes;
    pipeline_options.spill_dir = options_.spill_dir;
    pipeline_options.env = ResolveEnv(options_);
    AUJOIN_RETURN_NOT_OK(RunPartitionedJoin(
        [&algorithm] {
          return AlgorithmRegistry::Global().Create(algorithm);
        },
        ctx, options, pipeline_options, sink, &stats));
    return stats;
  }
  AUJOIN_RETURN_NOT_OK(algo->Run(ctx, options, sink, &stats));
  return stats;
}

Result<JoinResult> Engine::Join(const std::string& algorithm,
                                const EngineJoinOptions& options) {
  CollectingSink sink;
  Result<JoinStats> stats = Join(algorithm, options, &sink);
  if (!stats.ok()) return stats.status();
  JoinResult result;
  result.pairs = std::move(sink.pairs);
  result.stats = *stats;
  return result;
}

namespace {

UnifiedSearcher::SearchOptions ToSearcherOptions(
    const EngineSearchOptions& options) {
  UnifiedSearcher::SearchOptions out;
  out.theta = options.theta;
  out.tau = options.tau;
  out.method = options.method;
  return out;
}

/// Folds one searcher's counters into the caller's SearchStats.
void AddQueryStats(const UnifiedSearcher::QueryStats& from, SearchStats* to) {
  to->queries += from.queries;
  to->query_candidates += from.candidates;
  to->index_seconds += from.index_seconds;
}

}  // namespace

Result<Engine::Slices> Engine::ServingSlices(double* built_seconds) const {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine: search called before SetRecords()");
  }
  Slices slices;
  if (generational_ != nullptr) {
    std::vector<UnifiedSearcher> pinned = generational_->Pin(built_seconds);
    slices.count = pinned.size();
    slices.resolve = [pinned = std::move(pinned)](
                         size_t i, double*) -> Result<UnifiedSearcher> {
      return pinned[i];
    };
  } else if (options_.num_shards > 0) {
    Result<std::shared_ptr<const ShardedIndex>> sharded = ShardedServing();
    if (!sharded.ok()) return sharded.status();
    slices.count = (*sharded)->num_shards();
    slices.resolve = [sharded = *sharded](size_t s, double* built) {
      return sharded->Searcher(s, built);
    };
    slices.num_threads = options_.num_threads;
    slices.shards = slices.count;
  } else {
    slices.count = 1;
    slices.resolve = [this](size_t, double* built) -> Result<UnifiedSearcher> {
      Result<std::shared_ptr<const PreparedIndex>> index = ServingIndex(built);
      if (!index.ok()) return index.status();
      return UnifiedSearcher(*index);
    };
  }
  return slices;
}

Result<std::vector<UnifiedSearcher::Match>> Engine::Search(
    const Record& query, const EngineSearchOptions& options,
    SearchStats* stats) const {
  return TopK(query, options.k > 0 ? options.k : kAllMatches, options, stats);
}

Status Engine::Search(const Record& query, const EngineSearchOptions& options,
                      MatchSink* sink, SearchStats* stats) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("Engine::Search requires a sink");
  }
  Result<std::vector<UnifiedSearcher::Match>> matches =
      Search(query, options, stats);
  if (!matches.ok()) return matches.status();
  uint64_t emitted = 0;
  for (const UnifiedSearcher::Match& m : *matches) {
    ++emitted;
    if (!sink->OnMatch(query.id, m.id)) break;
  }
  // Count `results` as matches actually emitted (the sink may stop
  // early), matching BatchSearch's streaming semantics.
  if (stats != nullptr) stats->results -= matches->size() - emitted;
  return Status::OK();
}

Result<std::vector<UnifiedSearcher::Match>> Engine::TopK(
    const Record& query, size_t k, const EngineSearchOptions& options,
    SearchStats* stats) const {
  WallTimer wall;
  UnifiedSearcher::QueryStats query_stats;
  Result<Slices> slices = ServingSlices(&query_stats.index_seconds);
  if (!slices.ok()) return slices.status();
  Result<std::vector<UnifiedSearcher::Match>> matches =
      SearchSlices(query, k, ToSearcherOptions(options), slices->count,
                   slices->resolve, slices->num_threads, &query_stats);
  if (matches.ok() && stats != nullptr) {
    AddQueryStats(query_stats, stats);
    stats->results += matches->size();
    stats->search_seconds += wall.Seconds();
    stats->shards = slices->shards;
  }
  return matches;
}

Status Engine::BatchSearch(
    const std::vector<Record>& queries, const EngineSearchOptions& options,
    const std::function<bool(uint32_t, const UnifiedSearcher::Match&)>&
        on_match,
    SearchStats* stats) const {
  if (on_match == nullptr) {
    return Status::InvalidArgument("BatchSearch requires a callback");
  }
  WallTimer wall;
  double pinned_seconds = 0.0;
  Result<Slices> slices = ServingSlices(&pinned_seconds);
  if (!slices.ok()) return slices.status();
  const UnifiedSearcher::SearchOptions searcher_options =
      ToSearcherOptions(options);
  const size_t k = options.k > 0 ? options.k : kAllMatches;
  const int workers = ResolveThreads(options_.num_threads);
  std::vector<std::vector<UnifiedSearcher::Match>> results(queries.size());
  std::vector<UnifiedSearcher::QueryStats> worker_stats(workers);
  std::vector<Status> worker_status(workers);
  std::atomic<bool> failed{false};
  // Parallelism lives at the query level here (each worker owns a
  // query slice), so every query resolves and probes its store slices
  // on its own worker — never a pool inside a pool.
  ParallelFor(queries.size(), options_.num_threads,
              [&](size_t begin, size_t end, int worker) {
                for (size_t q = begin; q < end; ++q) {
                  if (failed.load(std::memory_order_relaxed)) return;
                  Result<std::vector<UnifiedSearcher::Match>> matches =
                      SearchSlices(queries[q], k, searcher_options,
                                   slices->count, slices->resolve,
                                   /*num_threads=*/1, &worker_stats[worker]);
                  if (!matches.ok()) {
                    worker_status[worker] = matches.status();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                  }
                  results[q] = std::move(*matches);
                }
              });
  for (const Status& status : worker_status) {
    if (!status.ok()) return status;
  }

  uint64_t emitted = 0;
  bool stopped = false;
  for (size_t q = 0; q < queries.size() && !stopped; ++q) {
    for (const UnifiedSearcher::Match& m : results[q]) {
      ++emitted;
      if (!on_match(static_cast<uint32_t>(q), m)) {
        stopped = true;
        break;
      }
    }
  }
  if (stats != nullptr) {
    for (const UnifiedSearcher::QueryStats& ws : worker_stats) {
      AddQueryStats(ws, stats);
    }
    stats->results += emitted;
    stats->index_seconds += pinned_seconds;
    stats->search_seconds += wall.Seconds();
    stats->shards = slices->shards;
  }
  return Status::OK();
}

Status Engine::BatchSearch(const std::vector<Record>& queries,
                           const EngineSearchOptions& options,
                           MatchSink* sink, SearchStats* stats) const {
  if (sink == nullptr) {
    return Status::InvalidArgument("BatchSearch requires a sink");
  }
  return BatchSearch(
      queries, options,
      [sink](uint32_t query_index, const UnifiedSearcher::Match& m) {
        return sink->OnMatch(query_index, m.id);
      },
      stats);
}

Result<JoinResult> Engine::JoinWithSuggestedTau(
    const EngineJoinOptions& options, const TunerOptions& tuner_options,
    TauRecommendation* recommendation) {
  if (s_records_ == nullptr) {
    return Status::FailedPrecondition(
        "Engine::JoinWithSuggestedTau called before SetRecords()");
  }
  if (generational_ != nullptr) {
    return Status::FailedPrecondition(
        "Engine::JoinWithSuggestedTau is unavailable in append mode");
  }
  const JoinContext& context = PreparedContext();
  WallTimer timer;
  const JoinOptions calibration = {
      .theta = options.theta,
      .tau = options.tau,
      .method = options.method,
      .exact_min_partition = options.exact_min_partition,
      .usim = options.usim};
  TauRecommendation rec = RecommendTau(
      context, CalibrateCostModel(context, calibration), tuner_options);
  const double suggest_seconds = timer.Seconds();
  EngineJoinOptions tuned = options;
  tuned.tau = rec.best_tau;
  if (tuned.method == FilterMethod::kUFilter) {
    tuned.method = tuner_options.method;
  }
  Result<JoinResult> result = Join("unified", tuned);
  if (!result.ok()) return result;
  result->stats.suggest_seconds = suggest_seconds;
  if (recommendation != nullptr) *recommendation = rec;
  return result;
}

}  // namespace aujoin
