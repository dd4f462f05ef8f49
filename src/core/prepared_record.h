/// \file
/// What prepare makes of one record, and what verification reads back:
/// the record's well-defined segments and its pebbles (Section 3.1).
/// The index layer generates them (index/pebble.h) and keeps them for
/// the whole collection (index/prepared_index.h); Algorithm 1
/// (core/usim.h) takes each side's segments and per-segment gram ids
/// from them instead of deriving both again for every candidate pair.

#ifndef AUJOIN_CORE_PREPARED_RECORD_H_
#define AUJOIN_CORE_PREPARED_RECORD_H_

#include <cstdint>
#include <vector>

#include "core/segment.h"

namespace aujoin {

/// The kind of similarity a pebble represents (Section 3.1, Table 2),
/// plus the exact-span extension (MsimOptions::exact_match).
enum class PebbleType : uint8_t {
  kGram = 0,      // a q-gram of the segment (Jaccard)
  kSynonym = 1,   // the lhs of an applicable synonym rule
  kTaxonomy = 2,  // a taxonomy node: the matched entity or an ancestor
  kExact = 3,     // the hash of the segment's token span (equality)
};

/// Packs (type, id) into one 64-bit key; equal keys mean two strings'
/// pebbles can witness the same similarity contribution:
///  - grams collide when the gram text is identical,
///  - synonym pebbles collide when generated by the same rule (a segment
///    matching the lhs and one matching the rhs both emit the rule's lhs),
///  - taxonomy pebbles collide on shared ancestors (their count equals the
///    LCA depth).
inline uint64_t MakePebbleKey(PebbleType type, uint64_t id) {
  return (static_cast<uint64_t>(type) << 56) | (id & 0x00FFFFFFFFFFFFFFULL);
}

inline PebbleType PebbleKeyType(uint64_t key) {
  return static_cast<PebbleType>(key >> 56);
}

/// The id half of a key: for a gram pebble, the gram's id in the gram
/// dictionary it was interned into.
inline uint64_t PebbleKeyId(uint64_t key) {
  return key & 0x00FFFFFFFFFFFFFFULL;
}

/// One pebble of one record: key + weight + provenance (which segment and
/// measure generated it). Weights follow Section 3.1:
/// gram: 1/|G(P,q)|; synonym: C(R); taxonomy: 1/depth(matched entity).
struct Pebble {
  uint64_t key = 0;
  double weight = 0.0;
  uint32_t segment = 0;  // index into RecordPebbles::segments
  uint8_t measure = 0;   // the generating MeasureMask bit
};

/// All pebbles of one record plus the segment list they reference, in
/// EnumerateSegments order. A segment's gram pebbles are its distinct
/// q-grams, one pebble each. `pebbles` is unsorted until
/// GlobalOrder::SortPebbles is applied.
struct RecordPebbles {
  std::vector<WellDefinedSegment> segments;
  std::vector<Pebble> pebbles;
};

/// A record with its pebbles sorted by the global order, ready for
/// signature selection and for verification.
struct PreparedRecord {
  RecordPebbles pebbles;
  size_t num_tokens = 0;
};

}  // namespace aujoin

#endif  // AUJOIN_CORE_PREPARED_RECORD_H_
