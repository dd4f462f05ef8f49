#include "shard/shard_plan.h"

#include "util/hash.h"

namespace aujoin {

const char* ShardByName(ShardBy shard_by) {
  return shard_by == ShardBy::kHash ? "hash" : "range";
}

bool ParseShardBy(const std::string& name, ShardBy* out) {
  if (name == "range") {
    *out = ShardBy::kRange;
    return true;
  }
  if (name == "hash") {
    *out = ShardBy::kHash;
    return true;
  }
  return false;
}

ShardPlan ShardPlan::Make(size_t num_records, size_t num_shards,
                          ShardBy shard_by) {
  ShardPlan plan;
  plan.shard_by = shard_by;
  plan.num_records = num_records;
  if (num_shards == 0) num_shards = 1;
  plan.shard_ids.resize(num_shards);
  if (shard_by == ShardBy::kRange) {
    plan.contiguous = true;
    // Balanced contiguous split: the first (num_records % num_shards)
    // shards get one extra record, so every size is the floor or ceil
    // of num_records / num_shards.
    size_t base = num_records / num_shards;
    size_t extra = num_records % num_shards;
    uint32_t next = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      size_t count = base + (s < extra ? 1 : 0);
      plan.shard_ids[s].reserve(count);
      for (size_t i = 0; i < count; ++i) {
        plan.shard_ids[s].push_back(next++);
      }
    }
  } else {
    plan.contiguous = num_shards <= 1;
    for (uint32_t id = 0; id < num_records; ++id) {
      size_t s = static_cast<size_t>(SplitMix64(id) % num_shards);
      plan.shard_ids[s].push_back(id);  // ascending by construction
    }
  }
  return plan;
}

std::vector<PartitionBlock> EnumerateBlocks(size_t s_parts, size_t t_parts,
                                            bool self_join) {
  std::vector<PartitionBlock> blocks;
  for (uint32_t i = 0; i < s_parts; ++i) {
    for (uint32_t j = self_join ? i : 0; j < t_parts; ++j) {
      blocks.push_back(PartitionBlock{i, j});
    }
  }
  return blocks;
}

}  // namespace aujoin
