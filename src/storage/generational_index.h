/// \file
/// GenerationalIndex — LSM-style incremental serving on top of the
/// immutable PreparedIndex. The frozen generation is a full
/// PreparedIndex (pebbles + global order + CSR serving index) over
/// every compacted record; appended records land in a small mutable
/// staging buffer that is prepared lazily as its own mini index.
/// Queries pin both generations as two slices of the collection and
/// answer them through the one query path (SearchSlices in
/// join/search.h) — correct because the signature filter is lossless
/// per record pair, so searching two disjoint sub-collections equals
/// searching their union. Refreeze compacts frozen + staging into a
/// new immutable generation built off-lock and swapped in atomically
/// via shared_ptr, exactly the memtable-flush / SST-compaction split of
/// an LSM tree.
///
/// Thread-safety: Append/Pin/Refreeze may all be called concurrently.
/// Pin takes the mutex only to pin the frozen generation and the
/// staging slot, then builds the slot's mini index outside it, so an
/// append never waits for a reader. Verification runs lock-free on the
/// pinned immutable snapshots. Refreeze runs the expensive rebuild
/// outside the mutex, so queries and appends proceed during compaction;
/// concurrent Refreeze calls serialise on their own mutex.

#ifndef AUJOIN_STORAGE_GENERATIONAL_INDEX_H_
#define AUJOIN_STORAGE_GENERATIONAL_INDEX_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "util/lazy_publish.h"
#include "util/status.h"

namespace aujoin {

class WalWriter;

class GenerationalIndex {
 public:
  /// Builds the initial frozen generation over `initial` (possibly
  /// empty). Unlike PreparedIndex, the generational index OWNS its
  /// records — generations keep them alive through shared_ptr so a
  /// query pinned to an old generation stays valid across a refreeze
  /// swap. `knowledge` is the usual non-owning bundle and must outlive
  /// the index.
  GenerationalIndex(const Knowledge& knowledge, const MsimOptions& msim,
                    std::vector<Record> initial);

  /// Adopts an already-built frozen generation instead of rebuilding it
  /// — the cold-start path for mounting a checkpoint snapshot. `index`
  /// must have been built (or loaded) over exactly `records`, whose
  /// `id` fields must equal their positions.
  GenerationalIndex(const Knowledge& knowledge, const MsimOptions& msim,
                    std::shared_ptr<const std::vector<Record>> records,
                    std::shared_ptr<const PreparedIndex> index);

  /// Attaches a write-ahead log: every later AppendDurable logs and
  /// fsyncs through `wal` (borrowed; must outlive the index) before
  /// staging. Call during setup — attaching is not synchronised with
  /// in-flight appends.
  void AttachWal(WalWriter* wal);

  /// Durable append: encodes (global id, raw text) as one WAL record,
  /// appends + syncs it, and only then stages the record. An append
  /// acknowledged here survives a crash; one that failed (or was never
  /// acknowledged) never resurrects at replay. After any WAL error the
  /// index refuses further durable appends (sticky status): letting a
  /// failed append's id be reused by a later success would make replay
  /// resurrect whichever of the two happened to reach the disk.
  ///
  /// Concurrent callers group-commit: the first caller to find no flush
  /// in flight becomes the leader, drains every queued append in id
  /// order into the WAL and makes the whole batch durable with ONE
  /// Sync; the others wait for their entry's outcome. Log order stays
  /// equal to id order and no caller is acknowledged before its own
  /// record is on disk — the batch merely shares the fsync.
  Result<uint32_t> AppendDurable(Record record);

  /// Appends one record to the staging buffer and returns its global
  /// id (frozen + staging position — stable across refreezes). The
  /// record's `id` field is overwritten with that global id, matching
  /// the position-is-id convention of ingested collections. O(1) plus
  /// one staging re-preparation amortised into the next query. Waits
  /// for any in-flight durable batch first so volatile and durable ids
  /// never collide.
  uint32_t Append(Record record);

  /// The slices a query is served from, pinned together: the frozen
  /// generation (global ids from 0) and, when records are staged, the
  /// staging generation (global ids from the frozen record count). An
  /// append since the last pin makes this call (or a concurrent one)
  /// build the staging mini index, off the mutex, and add its seconds to
  /// `*built_seconds`. Each searcher keeps its generation alive, so a
  /// refreeze swap never invalidates a query in flight; a query answers
  /// from the records staged when it pinned. Search with SearchSlices.
  std::vector<UnifiedSearcher> Pin(double* built_seconds = nullptr) const;

  /// Compacts frozen + staging into a new frozen generation. The
  /// rebuild runs outside the serving mutex (queries and appends
  /// continue, served by the old generation); records appended during
  /// the rebuild stay in staging with their ids intact. No-op when
  /// staging is empty.
  void Refreeze();

  /// The raw text of record `id`, wherever it lives (frozen or staged);
  /// empty for an out-of-range id. Returns a copy — the record itself
  /// may move from staging to frozen at any time.
  std::string TextOf(uint32_t id) const;

  /// Records in the frozen generation / the staging buffer / total.
  size_t num_frozen() const;
  size_t num_staged() const;
  size_t size() const;

  /// Completed refreeze compactions (generation number of the frozen
  /// index; 0 = the initial build).
  uint64_t generation() const;

  /// The current frozen generation's index, e.g. for snapshotting the
  /// compacted state. The matching records are
  /// frozen_index()->t_records() and stay alive while the returned
  /// pointer is held.
  std::shared_ptr<const PreparedIndex> frozen_index() const;

 private:
  /// One immutable generation: the records and the index borrowing
  /// them, destroyed together once the last query lets go. A frozen
  /// generation is installed built; the staging slot's index is built
  /// by the first Pin after an append.
  struct Generation {
    explicit Generation(std::shared_ptr<const std::vector<Record>> records,
                        std::shared_ptr<const PreparedIndex> index = nullptr)
        : records(std::move(records)), index(std::move(index)) {}
    std::shared_ptr<const std::vector<Record>> records;
    LazyPublish<PreparedIndex> index;
  };

  /// `gen`'s index, built over its records on first use (never under
  /// mutex_); the call that builds it adds its seconds to `*built_seconds`.
  std::shared_ptr<const PreparedIndex> IndexOf(
      const Generation& gen, double* built_seconds = nullptr) const;

  Knowledge knowledge_;
  MsimOptions msim_;

  mutable std::mutex mutex_;
  std::shared_ptr<const Generation> frozen_;
  std::vector<Record> staging_records_;
  /// Created by a Pin over a copy of `staging_records_`; every change to
  /// those drops it (never touching a build in progress).
  mutable std::shared_ptr<const Generation> staging_slot_;
  uint64_t generation_ = 0;

  /// One queued durable append: the record to stage once its batch is
  /// on disk, the pre-encoded WAL payload, and the outcome the waiting
  /// caller reads back. Lives on the caller's stack; the queue holds
  /// borrowed pointers.
  struct PendingDurable {
    Record record;
    std::string payload;
    uint32_t id = 0;
    bool done = false;
    Status status = Status::OK();
  };

  /// Group-commit state, all guarded by mutex_. The WAL writer itself
  /// is not thread-safe: only the batch leader touches it, outside the
  /// mutex, while wal_flush_in_flight_ excludes everyone else. Queue
  /// order equals id order equals log order. wal_in_flight_ counts
  /// appends that hold an id but are not staged yet (queued or
  /// flushing) — the id formula adds it so concurrent callers never
  /// collide. wal_status_ is the sticky first-failure status.
  WalWriter* wal_ = nullptr;
  Status wal_status_ = Status::OK();
  std::deque<PendingDurable*> wal_pending_;
  bool wal_flush_in_flight_ = false;
  size_t wal_in_flight_ = 0;
  std::condition_variable wal_cv_;

  /// Serialises refreezes without blocking serving.
  std::mutex refreeze_mutex_;
};

}  // namespace aujoin

#endif  // AUJOIN_STORAGE_GENERATIONAL_INDEX_H_
