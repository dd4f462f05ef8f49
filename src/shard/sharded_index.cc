#include "shard/sharded_index.h"

#include <cstring>
#include <utility>

#include "storage/env.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/timer.h"

namespace aujoin {

ShardedIndex::ShardedIndex(const Knowledge& knowledge,
                           const MsimOptions& msim,
                           const std::vector<Record>& records,
                           const ShardPlan& plan)
    : knowledge_(knowledge),
      msim_(msim),
      shard_by_(plan.shard_by),
      contiguous_(plan.contiguous),
      num_records_(records.size()),
      records_hash_(HashRecords(records)) {
  shards_.reserve(plan.num_shards());
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->global_ids = plan.shard_ids[s];
    shard->records.reserve(shard->global_ids.size());
    for (size_t i = 0; i < shard->global_ids.size(); ++i) {
      Record r = records[shard->global_ids[i]];
      r.id = static_cast<uint32_t>(i);
      shard->records.push_back(std::move(r));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedIndex::~ShardedIndex() = default;

size_t ShardedIndex::num_resident_shards() const {
  size_t resident = 0;
  for (const auto& shard : shards_) {
    if (shard->ready.load(std::memory_order_acquire)) ++resident;
  }
  return resident;
}

Result<std::shared_ptr<const PreparedIndex>> ShardedIndex::ShardIndex(
    size_t s, double* built_seconds) const {
  Shard& shard = *shards_[s];
  if (!shard.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index == nullptr) {
      WallTimer timer;
      if (shard.snapshot_path.empty()) {
        shard.index = PreparedIndex::Build(knowledge_, msim_, shard.records,
                                           nullptr);
      } else {
        Result<std::shared_ptr<const PreparedIndex>> loaded =
            PreparedIndex::Load(knowledge_, msim_, shard.records, nullptr,
                                shard.snapshot_path, env_);
        if (!loaded.ok()) return loaded.status();
        shard.index = std::move(*loaded);
      }
      if (built_seconds != nullptr) *built_seconds += timer.Seconds();
    }
    shard.ready.store(true, std::memory_order_release);
  }
  return shard.index;
}

Result<UnifiedSearcher> ShardedIndex::Searcher(size_t s,
                                               double* built_seconds) const {
  const std::vector<uint32_t>& ids = shards_[s]->global_ids;
  if (ids.empty()) return UnifiedSearcher(knowledge_, msim_);
  Result<std::shared_ptr<const PreparedIndex>> index =
      ShardIndex(s, built_seconds);
  if (!index.ok()) return index.status();
  if (contiguous_) return UnifiedSearcher(*index, ids.front());
  return UnifiedSearcher(*index, &ids);
}

std::string ShardedIndex::ShardFileName(const std::string& path, size_t s) {
  return path + ".shard-" + std::to_string(s);
}

Status ShardedIndex::Save(const std::string& path, Env* env) const {
  if (env == nullptr) env = Env::Default();
  // Shard files first, manifest last: once the manifest's rename is
  // durable, every file it references already is.
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<std::shared_ptr<const PreparedIndex>> index = ShardIndex(s);
    if (!index.ok()) return index.status();
    AUJOIN_RETURN_NOT_OK((*index)->Save(ShardFileName(path, s), env));
  }
  std::vector<uint8_t> payload(sizeof(ShardManifestHeader) +
                               shards_.size() * sizeof(uint64_t));
  ShardManifestHeader header;
  header.num_records = num_records_;
  header.num_shards = static_cast<uint32_t>(shards_.size());
  header.shard_by = static_cast<uint32_t>(shard_by_);
  header.records_hash = records_hash_;
  std::memcpy(payload.data(), &header, sizeof(header));
  for (size_t s = 0; s < shards_.size(); ++s) {
    uint64_t count = shards_[s]->records.size();
    std::memcpy(payload.data() + sizeof(header) + s * sizeof(uint64_t),
                &count, sizeof(count));
  }
  SnapshotWriter writer(path, env);
  writer.AddSection(kSectionShardManifest, payload.data(), payload.size());
  return writer.Finish();
}

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Load(
    const Knowledge& knowledge, const MsimOptions& msim,
    const std::vector<Record>& records, size_t num_shards, ShardBy shard_by,
    const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  Result<std::shared_ptr<const SnapshotReader>> reader =
      SnapshotReader::Open(path, env);
  if (!reader.ok()) return reader.status();
  Result<SnapshotReader::Section> section =
      (*reader)->Find(kSectionShardManifest);
  if (!section.ok()) {
    return Status::FailedPrecondition(
        path + ": not a sharded-index manifest (no shard section)");
  }
  if (section->size < sizeof(ShardManifestHeader)) {
    return Status::Corruption(path + ": shard manifest truncated");
  }
  ShardManifestHeader header;
  std::memcpy(&header, section->data, sizeof(header));
  if (section->size !=
      sizeof(header) + header.num_shards * sizeof(uint64_t)) {
    return Status::Corruption(path + ": shard manifest size mismatch");
  }
  if (header.num_records != records.size()) {
    return Status::FailedPrecondition(
        path + ": manifest covers " + std::to_string(header.num_records) +
        " records, " + std::to_string(records.size()) + " are bound");
  }
  if (num_shards == 0) num_shards = 1;
  if (header.num_shards != num_shards ||
      header.shard_by != static_cast<uint32_t>(shard_by)) {
    return Status::FailedPrecondition(
        path + ": manifest is " + std::to_string(header.num_shards) +
        " shards by " +
        ShardByName(static_cast<ShardBy>(header.shard_by)) +
        ", engine wants " + std::to_string(num_shards) + " by " +
        ShardByName(shard_by));
  }
  ShardPlan plan = ShardPlan::Make(records.size(), num_shards, shard_by);
  auto index = std::unique_ptr<ShardedIndex>(
      new ShardedIndex(knowledge, msim, records, plan));
  if (header.records_hash != index->records_hash_) {
    return Status::FailedPrecondition(
        path + ": bound records do not match the manifest fingerprint");
  }
  index->env_ = env;
  for (size_t s = 0; s < index->shards_.size(); ++s) {
    uint64_t count = 0;
    std::memcpy(&count,
                section->data + sizeof(header) + s * sizeof(uint64_t),
                sizeof(count));
    if (count != index->shards_[s]->records.size()) {
      return Status::Corruption(
          path + ": shard " + std::to_string(s) + " holds " +
          std::to_string(count) + " records in the manifest, plan says " +
          std::to_string(index->shards_[s]->records.size()));
    }
    // Arm the lazy mount; the shard file is opened (and its own
    // fingerprints validated) on this shard's first probe.
    index->shards_[s]->snapshot_path = ShardFileName(path, s);
  }
  return index;
}

}  // namespace aujoin
