/// \file
/// WalWriter — appends checksummed, block-fragmented records to a
/// write-ahead log through the storage Env (storage/wal_format.h for
/// the layout). The writer is the durability half of the staged-append
/// path: GenerationalIndex logs a record here and Syncs BEFORE staging
/// it in memory, so an append is acknowledged only once it would
/// survive a crash.
///
/// Not thread-safe: the owner serialises AddRecord/Sync (the
/// generational index holds a WAL mutex above this). After any failed
/// operation the writer is broken — the log's physical tail is
/// unknown, so further appends are refused with the original error
/// rather than risking an undetectable gap.

#ifndef AUJOIN_STORAGE_WAL_WRITER_H_
#define AUJOIN_STORAGE_WAL_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"
#include "storage/wal_format.h"
#include "util/status.h"

namespace aujoin {

class WalWriter {
 public:
  /// Default extent reservation append-mode owners pass to Open.
  static constexpr uint64_t kDefaultPreallocateBytes = 1ull << 20;

  /// Opens `path` for appending through `env` (creating it if absent).
  /// With `truncate` the log restarts empty; otherwise new records
  /// continue at the current end of file, resuming the block phase
  /// mid-block exactly where the last writer stopped. The caller must
  /// trim any torn tail first (WalReader reports valid_bytes).
  ///
  /// `preallocate_bytes` > 0 reserves that many bytes of extents up
  /// front (WritableFile::Allocate, KEEP_SIZE semantics — logical size
  /// is untouched), so steady-state appends stop paying per-fsync
  /// block-allocation metadata; Reset re-reserves the same amount. Best
  /// effort on filesystems without support.
  static Result<std::unique_ptr<WalWriter>> Open(
      Env* env, const std::string& path, bool truncate,
      uint64_t preallocate_bytes = 0);

  /// Appends one record, fragmenting across blocks as needed. Buffered
  /// by the Env file: not durable until Sync returns OK.
  Status AddRecord(const void* data, size_t size);

  /// Makes everything appended so far durable.
  Status Sync();

  /// Seals the log after a checkpoint: truncates it to empty and syncs,
  /// so replay starts from the snapshot alone. Clears a broken state —
  /// the empty log is trivially well-formed again. The log FILE is
  /// recycled, not recreated: its (already durable) name and directory
  /// entry survive, so a reset never pays another parent-directory
  /// fsync, and the extent reservation is renewed.
  Status Reset();

  /// Logical bytes appended (fragment headers + payloads + padding).
  uint64_t size() const { return size_; }
  /// Successful Sync calls since Open — the fsync count group commit
  /// amortises. Observational only; read it from the owning thread (or
  /// quiesced), like every other accessor here.
  uint64_t sync_count() const { return syncs_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(Env* env, std::string path, std::unique_ptr<WritableFile> file,
            uint64_t size, uint64_t preallocate_bytes)
      : env_(env),
        path_(std::move(path)),
        file_(std::move(file)),
        size_(size),
        block_offset_(size % kWalBlockSize),
        preallocate_bytes_(preallocate_bytes) {}

  /// One fragment: header + payload in a single Append call, so the
  /// smallest torn-write unit the base env can produce is a fragment.
  Status EmitFragment(uint8_t type, const uint8_t* data, size_t length);

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  uint64_t size_;
  size_t block_offset_;
  uint64_t preallocate_bytes_ = 0;
  uint64_t syncs_ = 0;
  Status broken_ = Status::OK();
};

}  // namespace aujoin

#endif  // AUJOIN_STORAGE_WAL_WRITER_H_
