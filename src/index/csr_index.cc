#include "index/csr_index.h"

#include <algorithm>
#include <utility>

namespace aujoin {

void CsrIndex::BindOwned() {
  keys_ = owned_keys_.data();
  offsets_ = owned_offsets_.data();
  postings_ = owned_postings_.data();
  slots_ = owned_slots_.data();
  num_keys_ = owned_keys_.size();
  num_postings_ = owned_postings_.size();
  num_slots_ = owned_slots_.size();
}

std::vector<uint32_t> CsrIndex::SlotTable(const std::vector<uint64_t>& keys,
                                          size_t size) {
  std::vector<uint32_t> table(size, kEmptySlot);
  const size_t mask = size - 1;
  for (size_t i = 0; i < keys.size(); ++i) {
    size_t h = MixKey(keys[i]) & mask;
    while (table[h] != kEmptySlot) h = (h + 1) & mask;
    table[h] = static_cast<uint32_t>(i);
  }
  return table;
}

CsrIndex CsrIndex::Build(
    size_t num_records,
    const std::function<void(size_t record, std::vector<uint64_t>* keys)>&
        keys_of) {
  // Pass 1: intern each key to a dense id (first-seen order) in a
  // growable linear-probe table, and list every record's distinct ids,
  // record-major. An id's stamp is the last record that posted it
  // (kEmptySlot: none yet), so repeats within a record post once.
  std::vector<uint64_t> id_keys;
  std::vector<uint32_t> id_counts;
  std::vector<uint32_t> id_stamps;
  std::vector<uint32_t> table(1024, kEmptySlot);
  std::vector<uint32_t> record_ids;
  std::vector<size_t> record_ends(num_records);
  size_t record_universe = 0;
  std::vector<uint64_t> keys;
  for (size_t r = 0; r < num_records; ++r) {
    keys.clear();
    keys_of(r, &keys);
    const uint32_t record = static_cast<uint32_t>(r);
    for (uint64_t key : keys) {
      const size_t mask = table.size() - 1;
      size_t h = MixKey(key) & mask;
      while (table[h] != kEmptySlot && id_keys[table[h]] != key) {
        h = (h + 1) & mask;
      }
      uint32_t id = table[h];
      if (id == kEmptySlot) {
        id = static_cast<uint32_t>(id_keys.size());
        table[h] = id;
        id_keys.push_back(key);
        id_counts.push_back(0);
        id_stamps.push_back(kEmptySlot);
        if (id_keys.size() * 2 > table.size()) {
          table = SlotTable(id_keys, table.size() * 2);
        }
      }
      if (id_stamps[id] == record) continue;
      id_stamps[id] = record;
      ++id_counts[id];
      record_ids.push_back(id);
    }
    if (!keys.empty()) record_universe = r + 1;
    record_ends[r] = record_ids.size();
  }

  // Keys ascending: a key's rank is its slot, and its run starts at the
  // prefix sum of the counts before it. Each id's count becomes its
  // run's write cursor.
  const size_t num_keys = id_keys.size();
  std::vector<uint32_t> by_key(num_keys);  // slot -> dense id
  for (size_t i = 0; i < num_keys; ++i) by_key[i] = static_cast<uint32_t>(i);
  std::sort(by_key.begin(), by_key.end(),
            [&](uint32_t a, uint32_t b) { return id_keys[a] < id_keys[b]; });
  CsrIndex out;
  out.owned_keys_.resize(num_keys);
  out.owned_offsets_.resize(num_keys + 1);
  uint32_t total = 0;
  for (size_t slot = 0; slot < num_keys; ++slot) {
    const uint32_t id = by_key[slot];
    out.owned_keys_[slot] = id_keys[id];
    out.owned_offsets_[slot] = total;
    total += std::exchange(id_counts[id], total);
  }
  out.owned_offsets_[num_keys] = total;

  // Pass 2: records in order, so every run comes out ascending.
  out.owned_postings_.resize(total);
  size_t begin = 0;
  for (size_t r = 0; r < num_records; ++r) {
    for (size_t e = begin; e < record_ends[r]; ++e) {
      out.owned_postings_[id_counts[record_ids[e]]++] =
          static_cast<uint32_t>(r);
    }
    begin = record_ends[r];
  }

  // The key -> slot table at <= 50% load: next power of two >= 2 * keys.
  size_t table_size = 1;
  while (table_size < num_keys * 2) table_size <<= 1;
  out.owned_slots_ =
      SlotTable(out.owned_keys_, num_keys == 0 ? 0 : table_size);
  out.mask_ = table_size - 1;
  out.record_universe_ = record_universe;
  out.BindOwned();
  return out;
}

Result<CsrIndex> CsrIndex::FromSections(const uint64_t* keys, size_t num_keys,
                                        const uint32_t* offsets,
                                        const uint32_t* postings,
                                        size_t num_postings,
                                        const uint32_t* slots, size_t num_slots,
                                        size_t record_universe,
                                        std::shared_ptr<const void> owner) {
  // Checksums catch bit rot, but a checksum-valid file written by a
  // buggy (or hostile) producer could still encode structure whose use
  // would be out-of-bounds reads or an unterminated probe loop. Reject
  // anything Find could trip over.
  if (num_keys > 0 && (keys == nullptr || offsets == nullptr)) {
    return Status::Corruption("CSR sections missing keys/offsets arrays");
  }
  for (size_t i = 0; i + 1 < num_keys; ++i) {
    if (keys[i] >= keys[i + 1]) {
      return Status::Corruption("CSR keys not strictly ascending at slot " +
                                std::to_string(i));
    }
  }
  if (offsets != nullptr && offsets[0] != 0) {
    return Status::Corruption("CSR offsets do not start at zero");
  }
  for (size_t i = 0; i < num_keys; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption("CSR offsets not monotone at slot " +
                                std::to_string(i));
    }
  }
  uint32_t last_offset = offsets == nullptr ? 0 : offsets[num_keys];
  if (last_offset != num_postings) {
    return Status::Corruption("CSR offsets end at " +
                              std::to_string(last_offset) +
                              ", postings hold " +
                              std::to_string(num_postings) + " entries");
  }
  for (size_t i = 0; i < num_postings; ++i) {
    if (postings[i] >= record_universe) {
      return Status::Corruption(
          "CSR posting id " + std::to_string(postings[i]) +
          " outside record universe " + std::to_string(record_universe));
    }
  }
  if (num_keys == 0) {
    if (num_slots != 0) {
      return Status::Corruption("CSR slot table nonempty for an empty index");
    }
  } else {
    if (slots == nullptr) {
      return Status::Corruption("CSR sections missing the slot table");
    }
    if (num_slots == 0 || (num_slots & (num_slots - 1)) != 0) {
      return Status::Corruption("CSR slot table size " +
                                std::to_string(num_slots) +
                                " is not a power of two");
    }
    size_t occupied = 0;
    for (size_t i = 0; i < num_slots; ++i) {
      if (slots[i] == kEmptySlot) continue;
      if (slots[i] >= num_keys) {
        return Status::Corruption("CSR slot entry " + std::to_string(slots[i]) +
                                  " outside key range");
      }
      ++occupied;
    }
    // A full table would make an absent-key probe loop forever; exactly
    // num_keys occupied entries also rules out duplicate slot targets.
    if (occupied != num_keys || occupied == num_slots) {
      return Status::Corruption(
          "CSR slot table occupancy " + std::to_string(occupied) + " of " +
          std::to_string(num_slots) + " inconsistent with " +
          std::to_string(num_keys) + " keys");
    }
  }

  CsrIndex out;
  out.owner_ = std::move(owner);
  out.keys_ = keys;
  out.offsets_ = offsets;
  out.postings_ = postings;
  out.slots_ = slots;
  out.num_keys_ = num_keys;
  out.num_postings_ = num_postings;
  out.num_slots_ = num_slots;
  out.mask_ = num_slots == 0 ? 0 : num_slots - 1;
  out.record_universe_ = record_universe;
  return out;
}

}  // namespace aujoin
