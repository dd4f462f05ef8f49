/// \file
/// The two flat-array loops of the verify stage, shared by every
/// caller that runs them: sorted-set intersection over interned gram
/// ids (measures.cc, the adaptjoin baseline) and weight accumulation
/// over pair-graph vertices (squareimp.cc, usim.cc). The probe-side
/// loops (count-merge and select) live on CandidateAccumulator in
/// index/csr_index.h.
///
/// There is one implementation of each, in portable C++. The paper's
/// speed comes from its filters (Lemmas 1–2) and Algorithm 1's early
/// exit, not from vector instructions; docs/performance.md records the
/// end-to-end measurement behind that choice.

#ifndef AUJOIN_KERNELS_KERNELS_H_
#define AUJOIN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace aujoin {

/// The number of elements of `a` that also occur in `b`, counted with
/// a's multiplicity. Both inputs must be ascending (duplicates
/// permitted; on deduplicated inputs this is the set intersection
/// size).
size_t SortedIntersectionSize(const uint32_t* a, size_t na, const uint32_t* b,
                              size_t nb);

/// The sum of weights[idx[i]] for i in [0, n), or of weights[i] when
/// `idx` is nullptr (the contiguous case). The reduction order is
/// fixed: four interleaved partial sums, lane i mod 4, folded as
/// (acc0 + acc2) + (acc1 + acc3). Pinned similarity digests depend on
/// these exact bits, so it must not become a plain running sum.
double AccumulateWeights(const double* weights, const uint32_t* idx,
                         size_t n);

/// Names the implementation for benchmark ledgers.
struct KernelInfo {
  const char* name;
};

/// Always {"scalar"}. Kept only because the end-to-end benchmark
/// records it in its ledger; nothing in the library dispatches on it.
const KernelInfo& ActiveKernel();

}  // namespace aujoin

#endif  // AUJOIN_KERNELS_KERNELS_H_
