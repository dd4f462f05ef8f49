/// \file
/// The frozen CSR (compressed sparse row) candidate index — the
/// cache-friendly read side of candidate generation. A mutable
/// InvertedIndex (a pointer-chasing hash map of vectors) is only the
/// build-time staging structure; Freeze sorts and dedupes every
/// (key -> record) posting into one flat offsets[] + postings[] pair
/// with a compact open-addressed key -> slot table, so probes are a
/// single hash step followed by a sequential scan of a contiguous
/// posting run. CandidateAccumulator is the matching count-based merge
/// scratch: probes accumulate per-record occurrence counts into a
/// reusable epoch-stamped array instead of deduping through a hash set.
///
/// Storage model: the index reads through raw-pointer views that
/// either point at its own vectors (Freeze) or at externally owned
/// flat arrays (FromSections — the mmap'd snapshot sections of
/// storage/snapshot_reader.h, kept alive by the shared owner handle).
/// Either way every probe method is const and thread-safe, and the
/// view arrays double as the zero-copy write side of SnapshotWriter.

#ifndef AUJOIN_INDEX_CSR_INDEX_H_
#define AUJOIN_INDEX_CSR_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "index/inverted_index.h"
#include "util/status.h"

namespace aujoin {

/// Immutable CSR posting storage over 64-bit pebble keys. Obtained by
/// freezing a staging InvertedIndex or by adopting snapshot sections;
/// afterwards every method is const and safe to call from any number
/// of threads concurrently.
class CsrIndex {
 public:
  /// One key's posting run: a contiguous span of ascending, distinct
  /// record ids inside the flat postings array.
  struct Postings {
    const uint32_t* data = nullptr;
    size_t size = 0;

    bool empty() const { return size == 0; }
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
  };

  CsrIndex() = default;

  // The views alias the owned vectors' heap buffers, which vector
  // moves transfer intact — so moving is safe, but a copy would leave
  // the views pointing into the source. Share a frozen index through
  // shared_ptr (the PreparedIndex pattern) instead of copying it.
  CsrIndex(const CsrIndex&) = delete;
  CsrIndex& operator=(const CsrIndex&) = delete;
  CsrIndex(CsrIndex&&) = default;
  CsrIndex& operator=(CsrIndex&&) = default;

  /// Freezes the staging map: keys are laid out in ascending key order,
  /// each posting run sorted and deduped, and a linear-probe table maps
  /// key -> slot. The staging structure can be discarded afterwards.
  static CsrIndex Freeze(const InvertedIndex& staging);

  /// Adopts already-frozen flat sections without copying them — the
  /// mmap cold-start path. `owner` keeps the backing memory (e.g. a
  /// SnapshotReader's mapping) alive for the index's lifetime. Every
  /// structural invariant is re-validated here (ascending keys,
  /// monotone offsets, posting ids inside `record_universe`, a
  /// power-of-two slot table with at least one empty slot so probes
  /// terminate); violations return kCorruption, never UB.
  static Result<CsrIndex> FromSections(
      const uint64_t* keys, size_t num_keys, const uint32_t* offsets,
      const uint32_t* postings, size_t num_postings, const uint32_t* slots,
      size_t num_slots, size_t record_universe,
      std::shared_ptr<const void> owner);

  /// The posting run of a key; empty when the key was never indexed.
  Postings Find(uint64_t key) const {
    if (num_slots_ == 0) return Postings{};
    return FindFromHash(key, MixKey(key) & mask_);
  }

  /// Batched probe: resolves keys[0..n) to their posting runs, exactly
  /// as n Find calls would. All hashes of a block are computed in one
  /// splitmix64 sweep (the finalizer pipelines across keys with no
  /// table-walk stalls between them) and each block's home slots are
  /// prefetched before the first walk touches the table — the per-key
  /// hash-and-walk latency a signature's probe loop used to pay
  /// serially. `out` must have room for n entries.
  void FindBatch(const uint64_t* keys, size_t n, Postings* out) const {
    if (num_slots_ == 0) {
      for (size_t i = 0; i < n; ++i) out[i] = Postings{};
      return;
    }
    constexpr size_t kBatch = 16;
    size_t hashes[kBatch];
    for (size_t base = 0; base < n; base += kBatch) {
      const size_t m = n - base < kBatch ? n - base : kBatch;
      for (size_t i = 0; i < m; ++i) {
        hashes[i] = MixKey(keys[base + i]) & mask_;
        __builtin_prefetch(&slots_[hashes[i]]);
      }
      for (size_t i = 0; i < m; ++i) {
        out[base + i] = FindFromHash(keys[base + i], hashes[i]);
      }
    }
  }

  size_t num_keys() const { return num_keys_; }

  /// Distinct (key, record) postings — duplicates are gone after Freeze.
  uint64_t total_postings() const { return num_postings_; }

  /// 1 + the largest posted record id (0 when empty): the universe a
  /// CandidateAccumulator must cover to count this index's postings.
  size_t record_universe() const { return record_universe_; }

  /// Bytes of the frozen layout (keys + offsets + postings + table) —
  /// heap bytes when owned, mapped bytes when snapshot-backed.
  size_t memory_bytes() const {
    return num_keys_ * sizeof(uint64_t) +
           (num_keys_ == 0 ? 0 : (num_keys_ + 1)) * sizeof(uint32_t) +
           num_postings_ * sizeof(uint32_t) + num_slots_ * sizeof(uint32_t);
  }

  /// True when the arrays live in externally owned memory (a snapshot
  /// mapping) rather than this object's vectors.
  bool borrows_external_storage() const { return owner_ != nullptr; }

  // Raw flat sections — what SnapshotWriter serialises verbatim. The
  // offsets view always has num_keys() + 1 entries (a single zero for
  // an empty index); the slots view has num_slots() entries.
  const uint64_t* keys_data() const { return keys_; }
  const uint32_t* offsets_data() const { return offsets_; }
  const uint32_t* postings_data() const { return postings_; }
  const uint32_t* slots_data() const { return slots_; }
  size_t num_slots() const { return num_slots_; }

 private:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  /// splitmix64 finalizer: pebble keys pack a type tag in the top byte
  /// and dense ids below, so identity hashing would cluster; this mixes
  /// every input bit into the table index.
  static uint64_t MixKey(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// The probe walk shared by Find and FindBatch: `h` is the key's
  /// home slot (MixKey already applied and masked).
  Postings FindFromHash(uint64_t key, size_t h) const {
    while (true) {
      uint32_t slot = slots_[h];
      if (slot == kEmptySlot) return Postings{};
      if (keys_[slot] == key) {
        return Postings{postings_ + offsets_[slot],
                        offsets_[slot + 1] - offsets_[slot]};
      }
      h = (h + 1) & mask_;
    }
  }

  /// Points the views at the owned vectors (after Freeze fills them).
  void BindOwned();

  // Owned storage (empty in snapshot-view mode).
  std::vector<uint64_t> owned_keys_;     // slot -> key, ascending
  std::vector<uint32_t> owned_offsets_;  // slot -> postings begin; keys+1
  std::vector<uint32_t> owned_postings_;  // flat runs, sorted+deduped per key
  std::vector<uint32_t> owned_slots_;     // open-addressed key hash -> slot
  /// Keeps externally owned storage (the snapshot mapping) alive.
  std::shared_ptr<const void> owner_;

  // The read views every probe goes through.
  const uint64_t* keys_ = nullptr;
  const uint32_t* offsets_ = nullptr;
  const uint32_t* postings_ = nullptr;
  const uint32_t* slots_ = nullptr;
  size_t num_keys_ = 0;
  size_t num_postings_ = 0;
  size_t num_slots_ = 0;
  size_t mask_ = 0;
  size_t record_universe_ = 0;
};

/// Reusable count-merge scratch for one probing thread. Each record id
/// owns one packed 64-bit stamp — probe epoch in the high half, count
/// in the low half — so starting a new probe is O(1) (stale stamps are
/// ignored, never cleared) and one load/store pair covers what would
/// otherwise be separate epoch and count arrays. Not thread-safe: use
/// one accumulator per worker (or thread_local) and never share
/// concurrently.
class CandidateAccumulator {
 public:
  /// A borrowed window into the accumulator's internal buffers —
  /// valid until the next non-const call on the accumulator.
  struct IdSpan {
    const uint32_t* ids = nullptr;
    size_t count = 0;

    const uint32_t* begin() const { return ids; }
    const uint32_t* end() const { return ids + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
  };

  /// Starts a new probe over record ids in [0, universe): grows the
  /// stamp array if needed and invalidates every previous count in O(1).
  void Begin(size_t universe) {
    if (stamps_.size() < universe) stamps_.resize(universe);
    if (epoch_ == 0xFFFFFFFFu) {  // epoch wrap: one real clear per 2^32
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
    touched_.clear();
  }

  /// Counts a whole posting run. The run's ids must be < the Begin
  /// universe; CSR runs arrive sorted and distinct, but any order and
  /// repeats count correctly.
  void BumpRun(const uint32_t* ids, size_t n) {
    for (size_t i = 0; i < n; ++i) Bump(ids[i]);
  }

  /// Counts one posting occurrence; returns the id's updated count.
  uint32_t Bump(uint32_t id) {
    const uint64_t st = stamps_[id];
    if (static_cast<uint32_t>(st >> 32) != epoch_) {
      stamps_[id] = (static_cast<uint64_t>(epoch_) << 32) | 1u;
      touched_.push_back(id);
      return 1;
    }
    stamps_[id] = st + 1;
    return static_cast<uint32_t>(st) + 1;
  }

  /// The id's count in the current probe (0 if never bumped).
  uint32_t count(uint32_t id) const {
    const uint64_t st = stamps_[id];
    return static_cast<uint32_t>(st >> 32) == epoch_
               ? static_cast<uint32_t>(st)
               : 0;
  }

  /// Ids bumped since Begin, in first-touch order.
  IdSpan touched() const { return IdSpan{touched_.data(), touched_.size()}; }

  /// Touched ids whose count reached `threshold` (first-touch order) —
  /// the serving path's uniform required overlap.
  IdSpan SelectGE(uint32_t threshold) {
    selected_.clear();
    for (uint32_t id : touched_) {
      // Every touched id carries the current epoch: the low half of
      // its stamp is its count.
      if (static_cast<uint32_t>(stamps_[id]) >= threshold) {
        selected_.push_back(id);
      }
    }
    return IdSpan{selected_.data(), selected_.size()};
  }

  /// Touched ids whose count reached min(probe_tau, taus[id]) — the
  /// join path's MergeRequiredOverlap rule (join/signature.h) with the
  /// indexed side's effective taus in a flat array.
  IdSpan SelectMergedGE(const uint32_t* taus, uint32_t probe_tau) {
    selected_.clear();
    for (uint32_t id : touched_) {
      const uint32_t required = std::min(taus[id], probe_tau);
      if (static_cast<uint32_t>(stamps_[id]) >= required) {
        selected_.push_back(id);
      }
    }
    return IdSpan{selected_.data(), selected_.size()};
  }

  /// Resolves a signature's keys to posting runs through
  /// CsrIndex::FindBatch, using this accumulator's scratch so probe
  /// loops stay allocation-free. The returned view is valid until the
  /// next ResolveRuns call on this accumulator.
  const CsrIndex::Postings* ResolveRuns(const CsrIndex& index,
                                        const uint64_t* keys, size_t n) {
    if (runs_.size() < n) runs_.resize(n);
    index.FindBatch(keys, n, runs_.data());
    return runs_.data();
  }

  /// Jumps the probe epoch (wrap stress tests only): the next Begin
  /// increments — or, from 0xFFFFFFFF, clears and restarts — from here.
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint64_t> stamps_;          // id -> (epoch << 32) | count
  std::vector<uint32_t> touched_;         // ids in first-touch order
  std::vector<uint32_t> selected_;        // select output
  std::vector<CsrIndex::Postings> runs_;  // FindBatch output
  uint32_t epoch_ = 0;
};

}  // namespace aujoin

#endif  // AUJOIN_INDEX_CSR_INDEX_H_
