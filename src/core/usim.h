#ifndef AUJOIN_CORE_USIM_H_
#define AUJOIN_CORE_USIM_H_

#include <cstdint>
#include <vector>

#include "core/measures.h"
#include "core/pair_graph.h"
#include "core/prepared_record.h"
#include "core/squareimp.h"

namespace aujoin {

/// Options for the unified-similarity computations.
struct UsimOptions {
  MsimOptions msim;
  /// The t > 1 knob of Algorithm 1 / Theorem 2: improvements smaller than
  /// 1/t are not pursued, bounding the improvement phase to floor(t)
  /// iterations.
  double t = 10.0;
  /// How many candidate claws are evaluated with the exact GetSim per
  /// improvement round (ranked by matching-weight gain first).
  int improve_eval_budget = 16;
  /// Pair-talon moves are only enumerated on graphs at most this large.
  size_t pair_move_vertex_cap = 96;
  /// Ablation switch: disable the claw-improvement phase (plain SquareImp).
  bool enable_improvement = true;
  PairGraphOptions graph;
  SquareImpOptions squareimp;
};

/// Limits for the exponential exact algorithm (tests & Table 9 only).
struct ExactOptions {
  /// Cap on enumerated well-defined partitions per string.
  size_t max_partitions_per_string = 512;
  /// Cap on partition pairs scored with the Hungarian algorithm.
  size_t max_pairs = 250000;
};

/// Computes the unified similarity USIM (Definition 3) between two strings:
/// `Approx` is the paper's Algorithm 1 (SquareImp + claw improvement),
/// `Exact` enumerates all well-defined partition pairs (worst-case
/// exponential; NP-hard in general, Theorem 1).
///
/// `Approx` and `UpperBound` come in two forms that run the same code.
/// The prepared form reads what prepare already derived: each side's
/// segments from its PreparedRecord, and each segment's gram-id set from
/// its gram pebbles. The Record form derives the same inputs itself:
/// EnumerateSegments, plus q-grams cut and cached by the evaluator. Both
/// return the same value, bit for bit.
///
/// Not thread-safe (reused scratch and the evaluator's cache); use one
/// per thread.
class UsimComputer {
 public:
  explicit UsimComputer(const Knowledge& knowledge, UsimOptions options = {})
      : options_(options), evaluator_(knowledge, options.msim) {}

  /// How far below theta UpperBound must fall before Approx rejects a
  /// pair. The bound sums the a_p in partition order while the Hungarian
  /// matching sums its matched weights in column order, so a bound equal
  /// to Algorithm 1's value may read a few ulps below it.
  static constexpr double kBoundSlack = 1e-9;

  /// Algorithm 1. Returns a lower bound on USIM(s, t) with the Theorem 2
  /// guarantee.
  ///
  /// With the default `threshold` (2.0, "no threshold") the call returns
  /// the full Algorithm 1 value and computes no bound. With a threshold
  /// theta <= 1 (join verification, which only needs the >= theta
  /// predicate) it answers that predicate: the result is >= theta exactly
  /// when Algorithm 1's value is. The call first computes UpperBound and,
  /// when the bound is below theta - kBoundSlack, returns the bound
  /// without building the pair graph; otherwise Algorithm 1 runs and
  /// stops as soon as its value reaches theta.
  double Approx(const Record& s, const Record& t, double threshold = 2.0);

  /// Approx on two prepared records: `ps` and `pt` were prepared from
  /// `s` and `t`, and their gram pebbles share one gram numbering (one
  /// PreparedIndex, or a query's overlay of its dictionary).
  double Approx(const Record& s, const PreparedRecord& ps, const Record& t,
                const PreparedRecord& pt, double threshold = 2.0);

  /// The prepared Approx with `s` segmented by the caller, for one
  /// prepared record verified against many (a search query against its
  /// candidates): its gram-id sets come from GramSetsFromPebbles once
  /// rather than once per pair.
  double Approx(const SegmentedRecord& s, const Record& t,
                const PreparedRecord& pt, double threshold = 2.0);

  /// An upper bound on every value Approx or Exact can return for (s, t),
  /// computed without the pair graph.
  ///
  /// For each well-defined segment p of S let a_p be the largest
  /// msim(p, q) over all well-defined segments q of T (all of them, not
  /// only the pair-graph vertices: SimOfPartitions scores every segment
  /// pair of the two partitions). A DP over S's well-defined partitions
  /// gives f_S(k), the largest sum of a_p over partitions into exactly k
  /// segments; MP(S) is the smallest such k. f_T, b_q and MP(T) are the
  /// same from T's side. The bound is
  ///   min( max_k f_S(k) / max(k, MP(T)),  max_k f_T(k) / max(k, MP(S)) ).
  ///
  /// Sound because every value Approx or Exact returns is
  /// SimOfPartitions(PS, PT) for a pair of well-defined partitions: its
  /// matching is at most the sum of a_p over PS <= f_S(|PS|), and its
  /// denominator max(|PS|, |PT|) is at least max(|PS|, MP(T)); the same
  /// holds from T's side.
  double UpperBound(const Record& s, const Record& t);

  /// UpperBound on two prepared records, as for the prepared Approx.
  double UpperBound(const Record& s, const PreparedRecord& ps,
                    const Record& t, const PreparedRecord& pt);

  /// UpperBound with `s` segmented by the caller, as for the matching
  /// Approx: search rejects a candidate with it before Algorithm 1.
  double UpperBound(const SegmentedRecord& s, const Record& t,
                    const PreparedRecord& pt);

  struct ExactResult {
    double value = 0.0;
    /// False when a partition/pair cap was hit (value is then a lower
    /// bound).
    bool exact = true;
  };

  /// Exhaustive USIM by partition-pair enumeration.
  ExactResult Exact(const Record& s, const Record& t,
                    const ExactOptions& limits = {});

  MsimEvaluator* evaluator() { return &evaluator_; }
  const UsimOptions& options() const { return options_; }

 private:
  /// One side's reused inputs: the Record form enumerates segments into
  /// `segments`; both forms fill `grams`.
  struct Side {
    std::vector<WellDefinedSegment> segments;
    GramSets grams;
  };
  SegmentedRecord Segmented(const Record& r, Side* side);
  SegmentedRecord Segmented(const Record& r, const PreparedRecord& pr,
                            Side* side);

  /// The code both forms run.
  double Approx(const SegmentedRecord& s, const SegmentedRecord& t,
                double threshold);
  double UpperBound(const SegmentedRecord& s, const SegmentedRecord& t);

  /// SIM(PS, PT) of Eq. (6) for the partitions induced by an independent
  /// set `mis` of `g`: segments of the selected vertices plus singleton
  /// segments for uncovered tokens; scored by Hungarian matching over
  /// msim and normalised by max(|PS|, |PT|).
  double GetSim(const SegmentedRecord& s, const SegmentedRecord& t,
                const PairGraph& g, const std::vector<uint32_t>& mis);
  double SimOfPartitions(const SegmentedRecord& s, const SegmentedRecord& t,
                         const std::vector<uint32_t>& ps,
                         const std::vector<uint32_t>& pt);

  UsimOptions options_;
  MsimEvaluator evaluator_;
  Side s_side_;
  Side t_side_;
  /// Reused flat row-major msim matrix for SimOfPartitions — one
  /// grow-only buffer per computer (== per verify worker) instead of a
  /// fresh vector-of-vectors per candidate pair.
  std::vector<double> w_scratch_;
};

/// Fills `out` with each segment's gram-id set of a prepared record, read
/// from its gram pebbles: Pebble::segment names the segment and the
/// key's id half is the gram's id.
void GramSetsFromPebbles(const RecordPebbles& rp, GramSets* out);

/// Enumerates well-defined partitions (Definition 2) of a token sequence of
/// length `num_tokens` as lists of indexes into `segments` (which must be
/// the EnumerateSegments output, sorted by (begin, end)). Stops after `cap`
/// partitions and sets *truncated. Every token sequence has at least the
/// all-singletons partition.
std::vector<std::vector<uint32_t>> EnumeratePartitions(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    size_t cap, bool* truncated);

}  // namespace aujoin

#endif  // AUJOIN_CORE_USIM_H_
