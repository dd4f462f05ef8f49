#include "core/measures.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "kernels/kernels.h"
#include "text/qgram.h"

namespace aujoin {
namespace {

/// |a ∩ b| of two ascending distinct gram-id sets; the verify stage
/// allocates nothing per pair.
size_t SortedIdIntersectionSize(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  return SortedIntersectionSize(a.data(), a.size(), b.data(), b.size());
}

// The gram-measure formulas over id sets, with the same empty-input
// conventions as their string-set counterparts in text/qgram.cc.

double JaccardOfIdSets(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = SortedIdIntersectionSize(a, b);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

double CosineOfIdSets(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = SortedIdIntersectionSize(a, b);
  return static_cast<double>(inter) /
         std::sqrt(static_cast<double>(a.size()) *
                   static_cast<double>(b.size()));
}

double DiceOfIdSets(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = SortedIdIntersectionSize(a, b);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size());
}

}  // namespace

uint32_t ParseMeasures(const std::string& spec) {
  uint32_t mask = 0;
  for (char c : spec) {
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'J':
        mask |= kMeasureJaccard;
        break;
      case 'S':
        mask |= kMeasureSynonym;
        break;
      case 'T':
        mask |= kMeasureTaxonomy;
        break;
      default:
        break;
    }
  }
  return mask == 0 ? kMeasureAll : mask;
}

std::string MeasuresToString(uint32_t measures) {
  std::string out;
  if (measures & kMeasureTaxonomy) out += 'T';
  if (measures & kMeasureJaccard) out += 'J';
  if (measures & kMeasureSynonym) out += 'S';
  return out;
}

const std::vector<uint32_t>& MsimEvaluator::GramIdsFor(const Record& r,
                                                       const Segment& seg) {
  // Key on the record's address (stable for the duration of a join; ids
  // alone may collide across the two input collections).
  uint64_t key = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&r)) ^
                 ((static_cast<uint64_t>(seg.begin) << 48) |
                  (static_cast<uint64_t>(seg.end) << 32));
  auto it = gram_cache_.find(key);
  if (it != gram_cache_.end()) return it->second;
  std::string text = SegmentText(r, seg, *knowledge_.vocab);
  std::vector<std::string> grams = QGrams(text, options_.q);
  std::vector<uint32_t> ids;
  ids.reserve(grams.size());
  for (std::string& gram : grams) {
    auto [pos, inserted] = gram_dict_.try_emplace(
        std::move(gram), static_cast<uint32_t>(gram_dict_.size()));
    ids.push_back(pos->second);
  }
  // QGrams dedupes, so the ids are distinct; sorting makes the set a
  // valid SortedIntersectionSize input (ascending).
  std::sort(ids.begin(), ids.end());
  auto [ins, _] = gram_cache_.emplace(key, std::move(ids));
  return ins->second;
}

double MsimEvaluator::Jaccard(const Record& s, const Segment& ps,
                              const Record& t, const Segment& pt) {
  const std::vector<uint32_t>& a = GramIdsFor(s, ps);
  const std::vector<uint32_t>& b = GramIdsFor(t, pt);
  switch (options_.gram_measure) {
    case GramMeasure::kCosine:
      return CosineOfIdSets(a, b);
    case GramMeasure::kDice:
      return DiceOfIdSets(a, b);
    case GramMeasure::kJaccard:
      break;
  }
  return JaccardOfIdSets(a, b);
}

double MsimEvaluator::Synonym(const WellDefinedSegment& ps,
                              const WellDefinedSegment& pt) const {
  if (knowledge_.rules == nullptr) return 0.0;
  double best = 0.0;
  for (const auto& ms : ps.rule_matches) {
    for (const auto& mt : pt.rule_matches) {
      if (ms.rule == mt.rule && ms.side != mt.side) {
        best = std::max(best, knowledge_.rules->rule(ms.rule).closeness);
      }
    }
  }
  return best;
}

double MsimEvaluator::Taxonomy(const WellDefinedSegment& ps,
                               const WellDefinedSegment& pt) const {
  if (knowledge_.taxonomy == nullptr || !ps.HasTaxonomy() ||
      !pt.HasTaxonomy()) {
    return 0.0;
  }
  double best = 0.0;
  for (NodeId a : ps.taxonomy_nodes) {
    for (NodeId b : pt.taxonomy_nodes) {
      best = std::max(best, knowledge_.taxonomy->Similarity(a, b));
    }
  }
  return best;
}

double MsimEvaluator::Msim(const Record& s, const WellDefinedSegment& ps,
                           const Record& t, const WellDefinedSegment& pt) {
  double best = 0.0;
  if (options_.exact_match) {
    TokenSpan a = s.Span(ps.span.begin, ps.span.end);
    TokenSpan b = t.Span(pt.span.begin, pt.span.end);
    if (a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin())) {
      return 1.0;
    }
  }
  if (options_.measures & kMeasureJaccard) {
    best = std::max(best, Jaccard(s, ps.span, t, pt.span));
  }
  if (options_.measures & kMeasureSynonym) {
    best = std::max(best, Synonym(ps, pt));
  }
  if (options_.measures & kMeasureTaxonomy) {
    best = std::max(best, Taxonomy(ps, pt));
  }
  return best;
}

double WholeStringJaccard(const Record& s, const Record& t, int q) {
  return JaccardQGram(s.text, t.text, q);
}

}  // namespace aujoin
