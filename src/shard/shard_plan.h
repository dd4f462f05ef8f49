/// \file
/// ShardPlan — the one block model of the system. Every record belongs
/// to exactly one of N shards chosen by record range or by key hash,
/// and the same plan drives the join pipeline's shard-pair blocks, the
/// sharded serving store (shard/sharded_index.h) and per-shard snapshot
/// files. A plan is a pure function of its arguments, so two processes
/// configured alike agree on shard membership without any coordination
/// — the property a future process/host boundary needs.

#ifndef AUJOIN_SHARD_SHARD_PLAN_H_
#define AUJOIN_SHARD_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aujoin {

/// How records map to shards.
enum class ShardBy : uint32_t {
  /// Balanced contiguous ranges (shard i holds ids [begin_i, end_i));
  /// sizes differ by at most one. Preserves stripe streaming: all ids
  /// of shard i precede shard i + 1.
  kRange = 0,
  /// SplitMix64(id) % num_shards. Ids interleave across shards, which
  /// models hash-distributed placement; per-shard id lists stay sorted
  /// ascending but are not contiguous.
  kHash = 1,
};

/// "range" / "hash" for stats and CLI surfaces.
const char* ShardByName(ShardBy shard_by);
/// Parses "range" / "hash"; false on anything else.
bool ParseShardBy(const std::string& name, ShardBy* out);

/// One collection's shard membership, materialised as per-shard sorted
/// id lists. Empty shards are legal (more shards than records); the
/// consumers skip them.
struct ShardPlan {
  ShardBy shard_by = ShardBy::kRange;
  /// True when every shard is a contiguous id range in shard order —
  /// what lets the join pipeline stream stripe by stripe instead of
  /// collecting all matches before emission.
  bool contiguous = true;
  size_t num_records = 0;
  /// shard_ids[s] = global record ids of shard s, sorted ascending.
  std::vector<std::vector<uint32_t>> shard_ids;

  size_t num_shards() const { return shard_ids.size(); }

  /// Shards [0, num_records) into exactly `num_shards` shards (clamped
  /// to at least 1) under `shard_by`. Deterministic: a pure function of
  /// its arguments.
  static ShardPlan Make(size_t num_records, size_t num_shards,
                        ShardBy shard_by);
};

/// One unit of pipeline work: the cross product of an S shard and a
/// T shard (for self-joins, of two shards of the same plan).
struct PartitionBlock {
  uint32_t s_part = 0;
  uint32_t t_part = 0;

  /// Self-join block over one shard (s_part == t_part); cross blocks
  /// keep only pairs straddling the two shards, which is what makes
  /// shard-boundary dedup structural rather than hash-set based.
  bool diagonal() const { return s_part == t_part; }
};

/// Enumerates the blocks covering every record pair exactly once, in
/// stripe order (sorted by s_part, then t_part). Self-joins use the
/// upper triangle s_part <= t_part of one plan; R-S joins use the full
/// s_parts × t_parts grid.
std::vector<PartitionBlock> EnumerateBlocks(size_t s_parts, size_t t_parts,
                                            bool self_join);

}  // namespace aujoin

#endif  // AUJOIN_SHARD_SHARD_PLAN_H_
