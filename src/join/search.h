#ifndef AUJOIN_JOIN_SEARCH_H_
#define AUJOIN_JOIN_SEARCH_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/usim.h"
#include "index/prepared_index.h"
#include "join/signature.h"
#include "util/status.h"

namespace aujoin {

/// Online unified similarity *search*: index a collection once, then
/// answer "which records are similar to this query?" requests. The
/// collection side is indexed with its records' full pebble key sets, so
/// only the query needs a signature: if USIM(q, r) >= theta, every shared
/// key is either in the query's signature prefix (then r is a candidate
/// via the index) or in the query's tail, whose total possible
/// contribution is below theta * MP(q) by the signature boundary — the
/// single-sided version of Lemmas 1-2.
///
/// The searcher is a read-only view over a shared immutable
/// PreparedIndex (the T side is what gets probed): Search/TopK are
/// const and safe to call from any number of threads concurrently on
/// one searcher — scratch state is per query or per thread (the
/// candidate count-merge accumulator is thread_local, reused across a
/// thread's queries without clearing). Many searchers and join
/// contexts can borrow the same index.
///
/// A searcher may serve one slice of a larger collection (a shard, or
/// one generation of an append-serving index): it then knows the
/// slice's local→global id map and answers in global ids. Contiguous
/// slices map by an offset; a hash shard maps through its sorted id
/// list. Both maps are monotone, so a slice's ranking in global ids is
/// its ranking in local ids.
class UnifiedSearcher {
 public:
  /// Serves the prepared index's T side (== S for a self-join world);
  /// local id i answers as global id `id_offset + i`.
  explicit UnifiedSearcher(std::shared_ptr<const PreparedIndex> index,
                           uint32_t id_offset = 0)
      : knowledge_(index->knowledge()),
        msim_(index->msim_options()),
        index_(std::move(index)),
        id_offset_(id_offset) {}

  /// Serves a non-contiguous slice: local id i answers as global id
  /// `(*global_ids)[i]`. The ascending id list is borrowed and must
  /// outlive the searcher.
  UnifiedSearcher(std::shared_ptr<const PreparedIndex> index,
                  const std::vector<uint32_t>* global_ids)
      : knowledge_(index->knowledge()),
        msim_(index->msim_options()),
        index_(std::move(index)),
        global_ids_(global_ids) {}

  /// Two-step construction: remember the world, then Index() a
  /// collection (builds a private PreparedIndex). Until then the
  /// searcher answers nothing.
  UnifiedSearcher(const Knowledge& knowledge, const MsimOptions& msim)
      : knowledge_(knowledge), msim_(msim) {}

  /// Indexes the collection (the pointer must stay valid while
  /// searching). Replaces any previously adopted index.
  void Index(const std::vector<Record>* collection);

  struct Match {
    uint32_t id = 0;
    double similarity = 0.0;

    friend bool operator==(const Match& a, const Match& b) {
      return a.id == b.id && a.similarity == b.similarity;
    }
  };

  struct SearchOptions {
    double theta = 0.8;
    /// Overlap constraint on the query signature (subject to the query's
    /// effective tau).
    int tau = 1;
    FilterMethod method = FilterMethod::kAuDp;
  };

  /// Per-query statistics, accumulated into the caller's struct.
  struct QueryStats {
    uint64_t queries = 0;
    /// Candidate records surviving the signature filter (verified).
    uint64_t candidates = 0;
    /// Seconds spent on one-time index work this call paid for: the
    /// CSR build of a probed index, plus — under SearchSlices — any
    /// slice build or mount. With slices resolved in parallel it is the
    /// busiest worker's share, so it never exceeds the call's wall time.
    double index_seconds = 0.0;
  };

  /// All indexed records with Approx USIM >= theta, sorted by descending
  /// similarity, ties by ascending id. An empty (zero-token) query
  /// matches nothing. Thread-safe.
  std::vector<Match> Search(const Record& query, const SearchOptions& options,
                            QueryStats* stats = nullptr) const;

  /// The k most similar records with similarity >= min_theta, under the
  /// same total order as Search (similarity desc, id asc) — ties at the
  /// cut are resolved toward lower ids, so results are deterministic
  /// and byte-identical to Search's k-prefix. Internally a bounded
  /// partial sort: k << matches never pays a full sort of the match
  /// set. k = 0 returns nothing; min_theta = 1.0 keeps only
  /// exact-similarity matches. Thread-safe.
  std::vector<Match> TopK(const Record& query, size_t k, double min_theta,
                          const SearchOptions& options,
                          QueryStats* stats = nullptr) const;

  /// Every indexed record with Approx USIM >= options.theta, in no
  /// particular order: candidates (the CSR count-merge probe) plus
  /// Algorithm 1 verification, ids already global. This is one slice's
  /// share of a query; Search, TopK and SearchSlices rank it. Adds to
  /// `stats` candidates and index_seconds, not queries. Thread-safe.
  std::vector<Match> Probe(const Record& query, const SearchOptions& options,
                           QueryStats* stats = nullptr) const;

  size_t num_indexed() const {
    return index_ == nullptr ? 0 : index_->t_records().size();
  }

  const std::shared_ptr<const PreparedIndex>& index() const {
    return index_;
  }

 private:
  uint32_t GlobalId(uint32_t local) const {
    return global_ids_ != nullptr ? (*global_ids_)[local]
                                  : id_offset_ + local;
  }

  Knowledge knowledge_;
  MsimOptions msim_;
  std::shared_ptr<const PreparedIndex> index_;
  uint32_t id_offset_ = 0;
  const std::vector<uint32_t>* global_ids_ = nullptr;
};

/// SearchSlices' k for "every match >= theta".
inline constexpr size_t kAllMatches = std::numeric_limits<size_t>::max();

/// Resolves slice `i` of a served collection to its searcher. A store
/// builds or mounts the slice's index here on first use and adds the
/// seconds that took to `*built_seconds`.
using SliceResolver =
    std::function<Result<UnifiedSearcher>(size_t i, double* built_seconds)>;

/// The one query path of every serving store. A served collection is a
/// list of disjoint slices — one monolithic index, N shards, or the
/// frozen and staging generations of an append-serving index — and a
/// query is answered by probing every slice and ranking the union once
/// under the serving order (similarity desc, global id asc), cut at k
/// (0 = nothing, still one query; kAllMatches = every match). This
/// equals one searcher over the whole collection, because the signature
/// filter is lossless per (query, record) pair and similarity is
/// intrinsic to the pair.
///
/// Slices are resolved and probed on `num_threads` workers
/// (ResolveThreads semantics; 1 stays on the calling thread). Fails
/// with a slice's typed status when its resolution fails, never with
/// partial results. Counts one query in `stats`.
Result<std::vector<UnifiedSearcher::Match>> SearchSlices(
    const Record& query, size_t k,
    const UnifiedSearcher::SearchOptions& options, size_t num_slices,
    const SliceResolver& resolve, int num_threads,
    UnifiedSearcher::QueryStats* stats = nullptr);

/// SearchSlices over already-resolved slices (e.g. a pinned generation
/// pair), on the calling thread.
std::vector<UnifiedSearcher::Match> SearchSlices(
    const Record& query, size_t k,
    const UnifiedSearcher::SearchOptions& options,
    const std::vector<UnifiedSearcher>& slices,
    UnifiedSearcher::QueryStats* stats = nullptr);

}  // namespace aujoin

#endif  // AUJOIN_JOIN_SEARCH_H_
