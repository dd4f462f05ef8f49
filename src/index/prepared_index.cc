#include "index/prepared_index.h"

#include <algorithm>
#include <unordered_map>

#include "util/timer.h"

namespace aujoin {

std::shared_ptr<const PreparedIndex> PreparedIndex::Build(
    const Knowledge& knowledge, const MsimOptions& msim,
    const std::vector<Record>& s, const std::vector<Record>* t) {
  // make_shared needs a public constructor; the factory is the only
  // caller, so a private-new shared_ptr keeps the invariant instead.
  std::shared_ptr<PreparedIndex> index(new PreparedIndex());
  index->knowledge_ = knowledge;
  index->msim_ = msim;
  index->s_records_ = &s;
  index->t_records_ = (t == nullptr) ? &s : t;

  WallTimer timer;
  PebbleGenerator generator(knowledge, msim);
  index->s_prepared_.reserve(s.size());
  for (const Record& r : s) {
    PreparedRecord pr;
    pr.pebbles = generator.Generate(r, &index->gram_dict_);
    pr.num_tokens = r.num_tokens();
    index->s_prepared_.push_back(std::move(pr));
  }
  if (t != nullptr && t != &s) {
    index->t_prepared_.reserve(t->size());
    for (const Record& r : *t) {
      PreparedRecord pr;
      pr.pebbles = generator.Generate(r, &index->gram_dict_);
      pr.num_tokens = r.num_tokens();
      index->t_prepared_.push_back(std::move(pr));
    }
  }

  for (const auto& pr : index->s_prepared_) {
    index->order_.CountRecord(pr.pebbles);
  }
  for (const auto& pr : index->t_prepared_) {
    index->order_.CountRecord(pr.pebbles);
  }
  index->order_.Finalize();
  for (auto& pr : index->s_prepared_) index->order_.SortPebbles(&pr.pebbles);
  for (auto& pr : index->t_prepared_) index->order_.SortPebbles(&pr.pebbles);
  index->prepare_seconds_ = timer.Seconds();
  return index;
}

const CsrIndex& PreparedIndex::ServingIndex(double* built_seconds) const {
  Result<std::shared_ptr<const Serving>> serving = serving_.Get([&] {
    WallTimer timer;
    const std::vector<PreparedRecord>& prepared = t_prepared();
    // Build dedupes each record's repeated pebble keys itself — one
    // posting per distinct key, even for duplicate-heavy pebble lists.
    CsrIndex csr = CsrIndex::Build(
        prepared.size(), [&](size_t i, std::vector<uint64_t>* keys) {
          for (const Pebble& p : prepared[i].pebbles.pebbles) {
            keys->push_back(p.key);
          }
        });
    const double seconds = timer.Seconds();
    if (built_seconds != nullptr) *built_seconds += seconds;
    return std::make_shared<const Serving>(Serving{std::move(csr), seconds});
  });
  return (*serving)->csr;  // cannot fail; lives as long as this index
}

double PreparedIndex::index_seconds() const {
  std::shared_ptr<const Serving> serving = serving_.Peek();
  return serving != nullptr ? serving->seconds : 0.0;
}

RecordPebbles PreparedIndex::GenerateQueryPebbles(
    const Record& query) const {
  PebbleGenerator generator(knowledge_, msim_);
  std::unordered_map<std::string, uint64_t> overlay;
  RecordPebbles rp = generator.Generate(query, gram_dict_, &overlay);
  order_.SortPebbles(&rp);
  return rp;
}

}  // namespace aujoin
