/// \file
/// The versioned on-disk snapshot format shared by SnapshotWriter and
/// SnapshotReader — the persistence layer that lets a PreparedIndex /
/// CsrIndex cold-start in milliseconds instead of re-running pebble
/// generation and CSR freezing. Full layout reference with invariants:
/// docs/snapshot-format.md.
///
/// A snapshot is a fixed little-endian header, a section table, and a
/// sequence of independently checksummed payload sections, each
/// 64-byte aligned in the file so a reader can mmap the whole file and
/// hand out usable typed pointers into it (the flat CSR arrays are
/// served directly from the mapping; variable-shape structures are
/// bulk-copied into their in-memory form). Everything a reader
/// dereferences is bounds-checked against the file size first, and
/// every payload byte is covered by an XXH64 checksum validated at
/// open — truncation, bit flips, bad magic and version skew all
/// surface as typed Status errors (StatusCode::kCorruption /
/// kFailedPrecondition), never as undefined behaviour.

#ifndef AUJOIN_STORAGE_SNAPSHOT_FORMAT_H_
#define AUJOIN_STORAGE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"

namespace aujoin {

/// Order-sensitive fingerprint of a collection's record ids and
/// token-id sequences: SnapshotMeta's record hashes and a shard
/// manifest's records_hash. Token ids index the shared vocabulary, so
/// this also pins the interning the records were tokenised under.
uint64_t HashRecords(const std::vector<Record>& records);

/// "AUJSNAP1" little-endian; the first 8 bytes of every snapshot.
constexpr uint64_t kSnapshotMagic = 0x3150414E534A5541ULL;

/// Bumped on any incompatible layout change. Readers reject other
/// versions with a typed error instead of guessing.
constexpr uint32_t kSnapshotFormatVersion = 1;

/// Every section payload (and the section table itself) starts at a
/// multiple of this within the file, so pointers into the mapping are
/// safely aligned for the widest element type (u64/f64) and each
/// section begins on its own cache line.
constexpr size_t kSnapshotAlignment = 64;

inline constexpr uint64_t AlignUpSnapshot(uint64_t offset) {
  return (offset + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1);
}

/// Section identifiers. Ids are stable across format versions; readers
/// look sections up by id, so section order in the file is free and
/// unknown ids from newer minor writers are ignorable.
enum SnapshotSectionId : uint32_t {
  /// SnapshotMeta: the world fingerprint + global counts (must be
  /// first logically; readers validate it before trusting any other
  /// section's interpretation).
  kSectionMeta = 1,
  /// Gram dictionary: u64 count, u64 byte_offsets[count + 1], then the
  /// concatenated token bytes.
  kSectionGramDict = 2,
  /// Global frequency order: u64 count, then count rows of
  /// (key u64, frequency u64) in rank order (rank i+1 = row i), the
  /// exact shape of GlobalOrder::ExportRankOrder.
  kSectionGlobalOrder = 3,
  /// S-side pebble table (PebbleTableHeader + flat arrays).
  kSectionSPrepared = 4,
  /// T-side pebble table; absent for self-joins.
  kSectionTPrepared = 5,
  /// Frozen CSR serving index, one flat array per section so each is
  /// aligned, individually checksummed and mmap-servable as-is.
  kSectionCsrKeys = 6,      // u64[num_keys], ascending
  kSectionCsrOffsets = 7,   // u32[num_keys + 1], monotone
  kSectionCsrPostings = 8,  // u32[total_postings], sorted+distinct per run
  kSectionCsrSlots = 9,     // u32[slot table], power-of-two sized
  /// Appended-record texts of a generational checkpoint (absent from
  /// plain snapshots): u64 base_count, u64 count, u64
  /// byte_offsets[count + 1], then the concatenated raw texts of
  /// records with id >= base_count. Lets a restarting process rebuild
  /// the full record vector (dataset base + re-tokenised appends)
  /// before mounting the snapshot, since record contents beyond the
  /// dataset exist nowhere else once the WAL is truncated. Readers
  /// that don't know the id ignore it, so plain Load still works.
  kSectionAppendedTexts = 10,
  /// Sharded-index manifest (the only section of a shard-manifest
  /// file): ShardManifestHeader + u64 shard_record_counts[num_shards].
  /// The per-shard indexes live in sibling `<path>.shard-<i>` files,
  /// each a complete self-validating snapshot over that shard's record
  /// slice, so one shard can be mmap'd without touching the rest.
  kSectionShardManifest = 11,
};

/// Fixed 64-byte file header. `header_checksum` is XXH64 over the
/// preceding 56 bytes; it is validated before anything else is read.
struct SnapshotHeader {
  uint64_t magic = kSnapshotMagic;
  uint32_t format_version = kSnapshotFormatVersion;
  uint32_t section_count = 0;
  /// Total file size in bytes; a cheap truncation check before the
  /// per-section bounds checks.
  uint64_t file_size = 0;
  uint64_t reserved0 = 0;
  uint64_t reserved1 = 0;
  uint64_t reserved2 = 0;
  uint64_t reserved3 = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(SnapshotHeader) == 64, "header must stay 64 bytes");

/// One section-table entry. The table follows the header, aligned, one
/// entry per section; `checksum` is XXH64 over the payload bytes.
struct SnapshotSectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // absolute file offset, kSnapshotAlignment-aligned
  uint64_t size = 0;    // payload bytes (padding excluded)
  uint64_t checksum = 0;
};
static_assert(sizeof(SnapshotSectionEntry) == 32,
              "section entry must stay 32 bytes");

/// The kSectionMeta payload: enough of the build inputs' identity to
/// refuse serving a snapshot against a different world. Record and
/// knowledge hashes are order-sensitive fingerprints over token ids,
/// so they also pin the vocabulary the records were interned into.
struct SnapshotMeta {
  // MsimOptions identity.
  uint32_t msim_q = 0;
  uint32_t gram_measure = 0;
  uint32_t measures = 0;
  uint32_t exact_match = 0;
  // Collections.
  uint64_t s_count = 0;
  uint64_t t_count = 0;  // == s_count for self-joins
  uint32_t self_join = 0;
  uint32_t reserved = 0;
  uint64_t s_records_hash = 0;
  uint64_t t_records_hash = 0;
  uint64_t knowledge_hash = 0;
  // Derived-state counts cross-checked against section payloads.
  uint64_t gram_dict_size = 0;
  uint64_t csr_record_universe = 0;
  double prepare_seconds = 0.0;  // informational: original build cost
  uint64_t reserved1 = 0;
};
static_assert(sizeof(SnapshotMeta) == 96, "meta must stay 96 bytes");

/// Leading payload of kSectionShardManifest. `records_hash` is the
/// order-sensitive fingerprint of the FULL (unsharded) record vector,
/// so a manifest refuses to mount over a different collection before
/// any shard file is touched; each shard file additionally embeds its
/// own slice + knowledge fingerprints, validated on that shard's first
/// (lazy) mount.
struct ShardManifestHeader {
  uint64_t num_records = 0;
  uint32_t num_shards = 0;
  uint32_t shard_by = 0;  // ShardBy enum value
  uint64_t records_hash = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(ShardManifestHeader) == 32,
              "shard manifest header must stay 32 bytes");

/// Leading header of the kSection{S,T}Prepared payloads; the flat
/// arrays follow in this order, each 8-byte aligned within the
/// section:
///   u64 pebble_offsets[num_records + 1]
///   u64 segment_offsets[num_records + 1]
///   u32 num_tokens[num_records]            (padded to 8 bytes)
///   PebbleRow[total_pebbles]
///   SegmentRow[total_segments]
///   RuleMatchRow[total_rule_matches]
///   u32 taxonomy_nodes[total_taxonomy_nodes]  (padded to 8 bytes)
struct PebbleTableHeader {
  uint64_t num_records = 0;
  uint64_t total_pebbles = 0;
  uint64_t total_segments = 0;
  uint64_t total_rule_matches = 0;
  uint64_t total_taxonomy_nodes = 0;
};

/// One pebble of one record (mirrors aujoin::Pebble, fixed layout).
struct PebbleRow {
  uint64_t key = 0;
  double weight = 0.0;
  uint32_t segment = 0;
  uint32_t measure = 0;
};
static_assert(sizeof(PebbleRow) == 24, "pebble row must stay 24 bytes");

/// One well-defined segment; its rule matches and taxonomy nodes are
/// the next `rule_count` / `node_count` entries of the flat
/// RuleMatchRow / node arrays (records and segments are written in
/// order, so consumption order reconstructs the per-segment runs).
struct SegmentRow {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t rule_count = 0;
  uint32_t node_count = 0;
};
static_assert(sizeof(SegmentRow) == 16, "segment row must stay 16 bytes");

/// One (rule, side) hit of a segment (mirrors aujoin::RuleMatch).
struct RuleMatchRow {
  uint32_t rule = 0;
  uint32_t side = 0;  // 0 = lhs, 1 = rhs
};
static_assert(sizeof(RuleMatchRow) == 8, "rule match row must stay 8 bytes");

}  // namespace aujoin

#endif  // AUJOIN_STORAGE_SNAPSHOT_FORMAT_H_
