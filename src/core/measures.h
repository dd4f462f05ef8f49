#ifndef AUJOIN_CORE_MEASURES_H_
#define AUJOIN_CORE_MEASURES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/knowledge.h"
#include "core/record.h"
#include "core/segment.h"

namespace aujoin {

/// Bitmask of enabled similarity measures. The paper's combinations
/// J, T, S, TJ, TS, JS, TJS are subsets of these bits.
enum MeasureMask : uint32_t {
  kMeasureJaccard = 1u << 0,
  kMeasureSynonym = 1u << 1,
  kMeasureTaxonomy = 1u << 2,
  kMeasureAll = kMeasureJaccard | kMeasureSynonym | kMeasureTaxonomy,
  /// Internal provenance bit for exact-span pebbles (not user-selectable;
  /// controlled by MsimOptions::exact_match).
  kMeasureExactBit = 1u << 3,
};

/// Parses a measure-combination string such as "J", "TS", "TJS"
/// (case-insensitive, any order). Unknown letters are ignored; an empty
/// result falls back to kMeasureAll.
uint32_t ParseMeasures(const std::string& spec);

/// Renders a mask back to canonical "TJS" ordering.
std::string MeasuresToString(uint32_t measures);

/// Which gram-based coefficient the typographic measure uses. The paper's
/// framework is defined with Jaccard (Eq. 1) but lists Cosine and Dice as
/// interchangeable gram measures (Sec. 2.1); the pebble decomposition
/// stays a valid upper bound with per-gram weight 1/|G| (Jaccard, Dice)
/// or 1/sqrt(|G|) (Cosine).
enum class GramMeasure {
  kJaccard,
  kCosine,
  kDice,
};

/// Options shared by all unified-similarity computations.
struct MsimOptions {
  /// q-gram length for the Jaccard measure (Eq. 1).
  int q = 2;
  /// Gram coefficient used by the typographic measure.
  GramMeasure gram_measure = GramMeasure::kJaccard;
  /// Enabled measures.
  uint32_t measures = kMeasureAll;
  /// Score identical token spans as 1.0 regardless of the enabled
  /// measures (consistent with Jaccard and taxonomy on identical inputs,
  /// and with how the paper's single-measure baselines count exact
  /// matches). Also emits one exact-span pebble per segment, which adds a
  /// highly selective signature key.
  bool exact_match = true;
};

/// Evaluates per-segment-pair similarities (the msim of Eq. 4 restricted to
/// a segment pair). Segment surface text is cut into q-grams once, the
/// grams interned to dense uint32 ids through a per-evaluator dictionary,
/// and the sorted id sets cached — so the hot O(|ps|·|pt|) overlap loop of
/// a join runs a sorted-set intersection (kernels/kernels.h) over flat
/// integer arrays instead of comparing strings. Not thread-safe; create
/// one per thread.
class MsimEvaluator {
 public:
  MsimEvaluator(const Knowledge& knowledge, const MsimOptions& options)
      : knowledge_(knowledge), options_(options) {}

  /// Gram similarity between the surface texts of two segments, under
  /// options().gram_measure (Jaccard by default).
  double Jaccard(const Record& s, const Segment& ps, const Record& t,
                 const Segment& pt);

  /// Synonym similarity: max closeness over rules R with one side equal to
  /// ps's span and the other equal to pt's span (Eq. 2, applied
  /// symmetrically); 0 if no rule connects them.
  double Synonym(const WellDefinedSegment& ps,
                 const WellDefinedSegment& pt) const;

  /// Taxonomy similarity: max over entity pairs of Eq. 3; 0 when either
  /// side matches no entity.
  double Taxonomy(const WellDefinedSegment& ps,
                  const WellDefinedSegment& pt) const;

  /// msim (Eq. 4): the maximum enabled measure applicable to the pair.
  double Msim(const Record& s, const WellDefinedSegment& ps, const Record& t,
              const WellDefinedSegment& pt);

  const MsimOptions& options() const { return options_; }
  const Knowledge& knowledge() const { return knowledge_; }

  /// Clears the q-gram cache and the gram-id dictionary together (call
  /// between unrelated record collections to bound memory — cached id
  /// sets are only meaningful against the dictionary they were interned
  /// through).
  void ClearCache() {
    gram_cache_.clear();
    gram_dict_.clear();
  }

  /// Number of cached gram sets; joins evict when this grows too large.
  size_t CacheSize() const { return gram_cache_.size(); }

 private:
  const std::vector<uint32_t>& GramIdsFor(const Record& r, const Segment& seg);

  Knowledge knowledge_;
  MsimOptions options_;
  // Keyed by (record id, begin, end) packed into 64 bits; values are
  // ascending distinct gram ids from gram_dict_.
  std::unordered_map<uint64_t, std::vector<uint32_t>> gram_cache_;
  // Interns gram surface strings to dense ids (first-seen order; the
  // intersection only needs a consistent total order, which sorting
  // the ids provides).
  std::unordered_map<std::string, uint32_t> gram_dict_;
};

/// Whole-string similarity under a single measure, treating each full
/// string as one segment (used by Eq. 4's introductory example and by
/// tests).
double WholeStringJaccard(const Record& s, const Record& t, int q);

}  // namespace aujoin

#endif  // AUJOIN_CORE_MEASURES_H_
