/// \file
/// ShardedIndex — the shard store behind scatter-gather serving. The
/// collection is split by a ShardPlan; each shard owns its record
/// slice (ids renumbered locally) and an immutable PreparedIndex over
/// it, built lazily on first probe or mounted lazily from its own
/// snapshot file. Searcher(s) hands shard s to the one query path
/// (SearchSlices in join/search.h) as a searcher that answers in
/// global ids; the store itself neither searches nor merges.
///
/// Thread-safety: after construction every const method is safe to
/// call concurrently. Each shard's index is built (or loaded) under a
/// per-shard mutex with a release/acquire ready flag, so concurrent
/// first probes block only on that one shard, never on each other.

#ifndef AUJOIN_SHARD_SHARDED_INDEX_H_
#define AUJOIN_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "shard/shard_plan.h"
#include "util/status.h"

namespace aujoin {

class Env;

class ShardedIndex {
 public:
  /// Splits `records` under `plan` (each shard copies its slice with
  /// ids renumbered 0..n-1, so the index owns everything it serves).
  /// Shard indexes are built lazily; nothing heavy happens here.
  ShardedIndex(const Knowledge& knowledge, const MsimOptions& msim,
               const std::vector<Record>& records, const ShardPlan& plan);
  ~ShardedIndex();

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  size_t num_shards() const { return shards_.size(); }
  size_t num_records() const { return num_records_; }
  ShardBy shard_by() const { return shard_by_; }
  /// Shards whose index is currently resident (built or mounted) — lets
  /// tests assert that mounting one shard leaves the rest untouched.
  size_t num_resident_shards() const;

  /// Shard `s`'s prepared index, building it from the shard's records
  /// (or mounting its snapshot file) on first use; the call that does
  /// so adds its seconds to `*built_seconds`. Thread-safe.
  Result<std::shared_ptr<const PreparedIndex>> ShardIndex(
      size_t s, double* built_seconds = nullptr) const;

  /// Shard `s` as a slice of the collection: a searcher over its
  /// prepared index (built or mounted on first use, as in ShardIndex)
  /// that answers in global ids — by offset on a contiguous (range)
  /// plan, through the shard's id list otherwise. An empty shard is
  /// never built; its searcher answers nothing. Thread-safe.
  Result<UnifiedSearcher> Searcher(size_t s,
                                   double* built_seconds = nullptr) const;

  /// Saves every shard's index as its own snapshot file
  /// (`<path>.shard-<s>`, forcing lazy builds first) and then commits
  /// the manifest at `path` — manifest durable implies every shard file
  /// is. All files go through the usual temp + rename + SyncDir
  /// sequence, so a crash never leaves a half-written file under a
  /// final name.
  Status Save(const std::string& path, Env* env = nullptr) const;

  /// Mounts a sharded snapshot saved by Save: validates the manifest at
  /// `path` (shard count, placement scheme and the full-collection
  /// fingerprint must match), then arms every shard for LAZY mounting —
  /// a shard's file is mapped on that shard's first probe, without
  /// touching the rest. Per-shard fingerprints are validated by that
  /// mount, so a tampered shard file surfaces as a typed error at first
  /// probe, never as UB.
  static Result<std::unique_ptr<ShardedIndex>> Load(
      const Knowledge& knowledge, const MsimOptions& msim,
      const std::vector<Record>& records, size_t num_shards, ShardBy shard_by,
      const std::string& path, Env* env = nullptr);

  /// `<path>.shard-<s>` — where Save puts shard s's snapshot.
  static std::string ShardFileName(const std::string& path, size_t s);

 private:
  /// One shard: the owned record slice (local ids), its global id map,
  /// and the lazily built/mounted immutable index behind a
  /// release/acquire flag (the Engine's LazyIndexState pattern,
  /// per shard).
  struct Shard {
    std::vector<Record> records;
    std::vector<uint32_t> global_ids;
    /// Non-empty = mount from this snapshot file instead of building.
    std::string snapshot_path;
    mutable std::mutex mutex;
    mutable std::atomic<bool> ready{false};
    mutable std::shared_ptr<const PreparedIndex> index;
  };

  Knowledge knowledge_;
  MsimOptions msim_;
  ShardBy shard_by_ = ShardBy::kRange;
  /// Whether every shard is a contiguous id range (ShardPlan::contiguous).
  bool contiguous_ = true;
  size_t num_records_ = 0;
  /// HashRecords of the full collection handed to the constructor —
  /// what Save writes into the manifest and Load checks it against.
  uint64_t records_hash_ = 0;
  Env* env_ = nullptr;  // used only for lazy snapshot mounts
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aujoin

#endif  // AUJOIN_SHARD_SHARDED_INDEX_H_
