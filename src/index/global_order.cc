#include "index/global_order.h"

#include <algorithm>

namespace aujoin {

void GlobalOrder::CountRecord(const RecordPebbles& rp) {
  // Count each distinct key once per record (document frequency).
  std::vector<uint64_t> keys;
  keys.reserve(rp.pebbles.size());
  for (const Pebble& p : rp.pebbles) keys.push_back(p.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t k : keys) ++freq_[k];
  finalized_ = false;
}

void GlobalOrder::CountCollection(
    const std::vector<RecordPebbles>& collection) {
  for (const auto& rp : collection) CountRecord(rp);
}

void GlobalOrder::Finalize() {
  std::vector<std::pair<uint64_t, uint64_t>> items;  // (key, freq)
  items.reserve(freq_.size());
  for (const auto& [k, f] : freq_) items.emplace_back(k, f);
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  rank_.clear();
  rank_.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    rank_[items[i].first] = i + 1;  // rank 0 is reserved for unseen keys
  }
  finalized_ = true;
}

uint64_t GlobalOrder::Rank(uint64_t key) const {
  auto it = rank_.find(key);
  return it == rank_.end() ? 0 : it->second;
}

uint64_t GlobalOrder::Frequency(uint64_t key) const {
  auto it = freq_.find(key);
  return it == freq_.end() ? 0 : it->second;
}

std::vector<GlobalOrder::RankedKey> GlobalOrder::ExportRankOrder() const {
  std::vector<RankedKey> rows(rank_.size());
  for (const auto& [key, rank] : rank_) {
    rows[rank - 1] = RankedKey{key, Frequency(key)};
  }
  return rows;
}

void GlobalOrder::ImportRankOrder(const RankedKey* rows, size_t count) {
  freq_.clear();
  rank_.clear();
  freq_.reserve(count);
  rank_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    freq_[rows[i].key] = rows[i].frequency;
    rank_[rows[i].key] = i + 1;
  }
  finalized_ = true;
}

void GlobalOrder::SortPebbles(RecordPebbles* rp) const {
  // Look each pebble's rank up once, then sort (rank, key, position)
  // triples: the position tie-break makes std::sort reproduce the
  // stable sort by (rank, key).
  struct Ranked {
    uint64_t rank;
    uint64_t key;
    uint32_t position;
  };
  std::vector<Pebble>& pebbles = rp->pebbles;
  std::vector<Ranked> order(pebbles.size());
  for (uint32_t i = 0; i < pebbles.size(); ++i) {
    order[i] = Ranked{Rank(pebbles[i].key), pebbles[i].key, i};
  }
  std::sort(order.begin(), order.end(), [](const Ranked& a, const Ranked& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.key != b.key) return a.key < b.key;
    return a.position < b.position;
  });
  std::vector<Pebble> sorted;
  sorted.reserve(pebbles.size());
  for (const Ranked& r : order) sorted.push_back(pebbles[r.position]);
  pebbles = std::move(sorted);
}

}  // namespace aujoin
