#include "kernels/kernels.h"

namespace aujoin {

size_t SortedIntersectionSize(const uint32_t* a, size_t na, const uint32_t* b,
                              size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      // Advance only a: each duplicate of a[i] in a matches (a's
      // multiplicity is counted, b's is ignored).
      ++count;
      ++i;
    }
  }
  return count;
}

double AccumulateWeights(const double* weights, const uint32_t* idx,
                         size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  if (idx == nullptr) {
    for (; i + 4 <= n; i += 4) {
      acc0 += weights[i];
      acc1 += weights[i + 1];
      acc2 += weights[i + 2];
      acc3 += weights[i + 3];
    }
    double* lanes[4] = {&acc0, &acc1, &acc2, &acc3};
    for (; i < n; ++i) *lanes[i & 3] += weights[i];
  } else {
    for (; i + 4 <= n; i += 4) {
      acc0 += weights[idx[i]];
      acc1 += weights[idx[i + 1]];
      acc2 += weights[idx[i + 2]];
      acc3 += weights[idx[i + 3]];
    }
    double* lanes[4] = {&acc0, &acc1, &acc2, &acc3};
    for (; i < n; ++i) *lanes[i & 3] += weights[idx[i]];
  }
  return (acc0 + acc2) + (acc1 + acc3);
}

const KernelInfo& ActiveKernel() {
  static constexpr KernelInfo kScalar = {"scalar"};
  return kScalar;
}

}  // namespace aujoin
