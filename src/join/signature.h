#ifndef AUJOIN_JOIN_SIGNATURE_H_
#define AUJOIN_JOIN_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "index/pebble.h"

namespace aujoin {

/// Which signature-selection algorithm a join uses.
enum class FilterMethod {
  kUFilter,      // Algorithm 2 (one shared pebble suffices; tau forced to 1)
  kAuHeuristic,  // Algorithm 4 (Lemma 2, top-(tau-1) prefix bound)
  kAuDp,         // Algorithm 5 (tighter DP bound W_i[t, tau-1])
};

const char* FilterMethodName(FilterMethod m);

struct SignatureOptions {
  double theta = 0.8;
  /// Overlap constraint tau >= 1. U-Filter ignores it (behaves as tau=1).
  int tau = 1;
  FilterMethod method = FilterMethod::kAuDp;
  /// Use the exact DP minimum-partition lower bound MP(S) instead of the
  /// paper's greedy + Johnson-bound estimate (both are valid lower bounds;
  /// the exact one is tighter).
  bool exact_min_partition = true;
};

/// A selected signature: the kept prefix length over the globally sorted
/// pebble list, plus the distinct keys inside it (what gets indexed).
///
/// `effective_tau` is the overlap requirement this signature actually
/// guarantees. When a string's similarity evidence is concentrated in
/// fewer than tau pebbles (e.g. one synonym rule spanning the whole
/// string), inequality (10)/(11) has no feasible boundary for the
/// requested tau — Lemma 2 presupposes one — so the selection lowers tau
/// until a boundary exists (tau' = 1 is always feasible). The join then
/// requires min(effective_tau_S, effective_tau_T) overlaps per pair,
/// which keeps the filter lossless.
struct Signature {
  size_t prefix_len = 0;
  int effective_tau = 1;
  std::vector<uint64_t> keys;  // sorted distinct keys of the kept prefix
};

/// The accumulated similarity AS(i, S) of Definition 4 for every i in
/// [1, n+1] (1-based; AS[n+1] = 0). `rp` must already be sorted by the
/// global order. Exposed for tests; the selection functions use it
/// internally.
std::vector<double> ComputeAccumulatedSimilarity(const RecordPebbles& rp);

/// MP(S): minimal number of well-defined partitions, per options.
int MinPartitionSize(const RecordPebbles& rp, size_t num_tokens,
                     bool exact_min_partition);

/// Selects the pebble signature of one record (rp sorted by global order).
Signature SelectSignature(const RecordPebbles& rp, size_t num_tokens,
                          const SignatureOptions& options);

/// The overlap a (probe, indexed) signature pair must witness before it
/// becomes a candidate: min of the two effective taus, so a record
/// whose selection had to lower its tau (see Signature::effective_tau)
/// never filters losslessly below what it guarantees. The count-based
/// candidate merge compares accumulated key counts against this.
inline int MergeRequiredOverlap(const Signature& probe,
                                const Signature& indexed) {
  return probe.effective_tau < indexed.effective_tau
             ? probe.effective_tau
             : indexed.effective_tau;
}

}  // namespace aujoin

#endif  // AUJOIN_JOIN_SIGNATURE_H_
