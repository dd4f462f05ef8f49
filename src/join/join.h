#ifndef AUJOIN_JOIN_JOIN_H_
#define AUJOIN_JOIN_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/usim.h"
#include "index/global_order.h"
#include "index/pebble.h"
#include "index/prepared_index.h"
#include "join/signature.h"

namespace aujoin {

/// Options of a unified similarity join (Algorithms 3 / 6).
struct JoinOptions {
  double theta = 0.8;
  /// Overlap constraint for the AU filters; U-Filter behaves as tau = 1.
  int tau = 1;
  FilterMethod method = FilterMethod::kAuDp;
  bool exact_min_partition = true;
  /// Verification settings (msim sub-options are overridden by the
  /// context's so pebbles and verification agree on q / measures).
  UsimOptions usim;
  /// Worker threads for signature selection, candidate generation and
  /// verification. 1 = serial; 0 = all hardware threads.
  int num_threads = 1;
};

/// Timing and cardinality statistics of one join run. `processed_pairs`
/// is the T_tau of Eq. (16); `candidates` is V_tau.
struct JoinStats {
  double prepare_seconds = 0.0;
  double signature_seconds = 0.0;
  double filter_seconds = 0.0;
  double verify_seconds = 0.0;
  double suggest_seconds = 0.0;
  uint64_t processed_pairs = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  double avg_signature_pebbles = 0.0;
  /// Blocked-pipeline shape (EngineOptions::num_shards > 0): how many
  /// shard-pair blocks ran. Zero on the monolithic path.
  uint64_t partition_blocks = 0;
  /// The shard count of the plan the blocks enumerated. Zero when the
  /// join ran monolithically.
  uint64_t shards = 0;
  /// Spill-to-disk counters (out-of-core joins): sorted runs written
  /// to temp files, pairs and bytes they carried. Zero when the join
  /// stayed within its in-memory budget.
  uint64_t spill_runs = 0;
  uint64_t spill_pairs = 0;
  uint64_t spill_bytes = 0;
  /// Serving-side counters (zero on pure join runs): seconds spent
  /// building the full-key serving index (PreparedIndex::ServingIndex),
  /// queries answered, and candidate records probed across them.
  double index_seconds = 0.0;
  uint64_t queries = 0;
  uint64_t query_candidates = 0;

  /// Sums the per-phase times. Preparation (pebble generation + global
  /// ordering) happens once per JoinContext and is amortised across runs,
  /// so it is excluded by default; pass `include_prepare = true` for the
  /// cold-start total (what a baseline doing its own indexing reports).
  double TotalSeconds(bool include_prepare = false) const {
    return (include_prepare ? prepare_seconds : 0.0) + signature_seconds +
           filter_seconds + verify_seconds + suggest_seconds;
  }
};

/// One join's output: matching (s_index, t_index) pairs + stats.
struct JoinResult {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  JoinStats stats;
};

/// A join-side view over a shared immutable PreparedIndex
/// (src/index/prepared_index.h). Building a context once lets the tuner
/// re-run the filter stage on samples, and benches sweep (theta, tau,
/// method) without regenerating pebbles; Adopt lets the join, the
/// online searcher and the Engine serving API all borrow one prepared
/// index instead of owning private copies.
class JoinContext {
 public:
  JoinContext(const Knowledge& knowledge, const MsimOptions& msim)
      : knowledge_(knowledge), msim_(msim) {}

  /// Generates pebbles for both collections (pass t == nullptr for a
  /// self-join) and finalises the global frequency order, by building a
  /// fresh PreparedIndex this context owns the primary reference to.
  void Prepare(const std::vector<Record>& s, const std::vector<Record>* t);

  /// Borrows an already-built index (shared with searchers / other
  /// contexts) instead of preparing a private copy. The index's
  /// knowledge and msim options replace the constructor's.
  void Adopt(std::shared_ptr<const PreparedIndex> index);

  bool self_join() const {
    return index_ == nullptr || index_->self_join();
  }
  bool prepared() const { return index_ != nullptr; }

  /// The borrowed prepared index; prepared() must hold.
  const PreparedIndex& index() const { return *index_; }
  const std::shared_ptr<const PreparedIndex>& shared_index() const {
    return index_;
  }

  const std::vector<Record>& s_records() const {
    return index_->s_records();
  }
  const std::vector<Record>& t_records() const {
    return index_->t_records();
  }
  const std::vector<PreparedRecord>& s_prepared() const {
    return index_->s_prepared();
  }
  const std::vector<PreparedRecord>& t_prepared() const {
    return index_->t_prepared();
  }
  const Knowledge& knowledge() const { return knowledge_; }
  const MsimOptions& msim_options() const { return msim_; }
  const GlobalOrder& global_order() const { return index_->global_order(); }
  double prepare_seconds() const {
    return index_ == nullptr ? 0.0 : index_->prepare_seconds();
  }

  /// Output of the filter stage (Lines 1-8 of Algorithm 6).
  struct FilterOutput {
    uint64_t processed_pairs = 0;  // T_tau
    std::vector<std::pair<uint32_t, uint32_t>> candidates;  // V_tau entries
    double signature_seconds = 0.0;
    double filter_seconds = 0.0;
    double avg_signature_pebbles = 0.0;
  };

  /// Runs signature selection + candidate generation. `s_subset` /
  /// `t_subset` restrict to record indexes (used by the Bernoulli
  /// sampler); nullptr means the whole collection. For self-joins,
  /// candidates are emitted with first < second. `num_threads` follows
  /// JoinOptions::num_threads semantics.
  FilterOutput RunFilter(const SignatureOptions& sig_options,
                         const std::vector<uint32_t>* s_subset = nullptr,
                         const std::vector<uint32_t>* t_subset = nullptr,
                         int num_threads = 1) const;

 private:
  Knowledge knowledge_;
  MsimOptions msim_;
  std::shared_ptr<const PreparedIndex> index_;
};

/// Runs the full filter-and-verification join over a prepared context:
/// the filter stage (RunFilter), then Algorithm 1 on the candidates in
/// ascending (first, second) order, `batch_size` candidates at a time.
/// Each batch's matches go to `emit` in ascending order before the next
/// batch is verified, so memory held between emissions is bounded by
/// the batch; a false return from `emit` stops the join. Returns the
/// stats, whose `results` counts the pairs emitted.
JoinStats UnifiedJoin(const JoinContext& context, const JoinOptions& options,
                      size_t batch_size,
                      const std::function<bool(uint32_t, uint32_t)>& emit);

/// Collecting form of the join above: every matching pair, ascending.
JoinResult UnifiedJoin(const JoinContext& context, const JoinOptions& options);

}  // namespace aujoin

#endif  // AUJOIN_JOIN_JOIN_H_
