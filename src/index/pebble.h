#ifndef AUJOIN_INDEX_PEBBLE_H_
#define AUJOIN_INDEX_PEBBLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "core/prepared_record.h"
#include "core/record.h"

namespace aujoin {

/// Generates the pebbles of records. Gram texts are interned in a
/// dedicated gram dictionary (a Vocabulary) shared across both join
/// collections so gram pebble ids are comparable.
class PebbleGenerator {
 public:
  PebbleGenerator(const Knowledge& knowledge, const MsimOptions& options)
      : knowledge_(knowledge), options_(options) {}

  /// Enumerates well-defined segments and emits each segment's pebbles for
  /// every enabled measure, interning unseen gram texts into `gram_dict`.
  RecordPebbles Generate(const Record& record, Vocabulary* gram_dict) const;

  /// Read-only variant for query-time generation against a frozen gram
  /// dictionary (concurrency-safe: nothing is interned). Grams absent
  /// from `gram_dict` cannot match any indexed record, so they receive
  /// per-call overlay ids `gram_dict.size() + n` through `overlay`;
  /// repeated unseen grams within the call still share one key, keeping
  /// distinct-key counts and weights identical to the interning path.
  RecordPebbles Generate(
      const Record& record, const Vocabulary& gram_dict,
      std::unordered_map<std::string, uint64_t>* overlay) const;

 private:
  Knowledge knowledge_;
  MsimOptions options_;
};

}  // namespace aujoin

#endif  // AUJOIN_INDEX_PEBBLE_H_
