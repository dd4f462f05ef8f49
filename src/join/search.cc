#include "join/search.h"

#include <algorithm>
#include <utility>

#include "index/csr_index.h"
#include "util/parallel.h"

namespace aujoin {
namespace {

using Match = UnifiedSearcher::Match;

/// The one total order of search results: similarity desc, id asc.
bool BetterMatch(const Match& a, const Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

/// Orders `matches` under the serving order and keeps the k best.
/// BetterMatch is a strict total order (ids are distinct), so the
/// k-prefix of a partial sort is byte-identical to the k-prefix of the
/// full sort, tie-breaks at the cut included — k << matches never pays
/// a full sort.
void RankMatches(size_t k, std::vector<Match>* matches) {
  if (matches->size() > k) {
    std::partial_sort(matches->begin(),
                      matches->begin() + static_cast<ptrdiff_t>(k),
                      matches->end(), BetterMatch);
    matches->resize(k);
  } else {
    std::sort(matches->begin(), matches->end(), BetterMatch);
  }
}

}  // namespace

void UnifiedSearcher::Index(const std::vector<Record>* collection) {
  index_ = PreparedIndex::Build(knowledge_, msim_, *collection, nullptr);
}

std::vector<Match> UnifiedSearcher::Probe(const Record& query,
                                          const SearchOptions& options,
                                          QueryStats* stats) const {
  std::vector<Match> matches;
  // An empty query has no segments, hence no pebbles and USIM 0 against
  // everything; return before signature selection sees a zero-token
  // record.
  if (index_ == nullptr || query.num_tokens() == 0) return matches;
  RecordPebbles rp = index_->GenerateQueryPebbles(query);
  SignatureOptions sig_options;
  sig_options.theta = options.theta;
  sig_options.tau = options.tau;
  sig_options.method = options.method;
  Signature sig = SelectSignature(rp, query.num_tokens(), sig_options);

  // Count-based merge over the frozen CSR serving index (frozen here on
  // first use, charged to the call that froze it). The scratch is
  // thread_local — sized once per thread to the collection,
  // epoch-stamped so each query starts in O(1) — which is what makes
  // probing const and concurrency-safe while still allocation-free on
  // the hot path (a batch worker reuses one accumulator across its
  // whole query slice). Deliberate trade-off: the arrays only grow (~8
  // bytes per indexed record per serving thread) and live until the
  // thread exits, even if the index is dropped — acceptable for pooled
  // serving threads, and the join path's scoped per-worker accumulators
  // show the bounded alternative if a caller ever needs one.
  const CsrIndex& serving =
      index_->ServingIndex(stats != nullptr ? &stats->index_seconds : nullptr);
  thread_local CandidateAccumulator overlap;
  overlap.Begin(index_->t_prepared().size());
  // Resolve the whole signature's keys in one batched sweep (hashes
  // pipelined, home slots prefetched) before merging the runs.
  const CsrIndex::Postings* runs =
      overlap.ResolveRuns(serving, sig.keys.data(), sig.keys.size());
  for (size_t k = 0; k < sig.keys.size(); ++k) {
    overlap.BumpRun(runs[k].data, runs[k].size);
  }
  // Query signatures carry one uniform effective tau, so the survivor
  // scan is a flat count >= threshold select.
  CandidateAccumulator::IdSpan kept =
      overlap.SelectGE(static_cast<uint32_t>(sig.effective_tau));
  std::vector<uint32_t> candidates(kept.begin(), kept.end());
  std::sort(candidates.begin(), candidates.end());
  if (stats != nullptr) stats->candidates += candidates.size();

  // Per-query scratch state only from here on: one UsimComputer (whose
  // scratch is not thread-safe) and the query's gram-id sets, read once
  // from its pebbles (whose overlay ids keep unseen grams distinct).
  UsimOptions usim_options;
  usim_options.msim = msim_;
  UsimComputer computer(knowledge_, usim_options);
  GramSets query_grams;
  GramSetsFromPebbles(rp, &query_grams);
  const SegmentedRecord segmented{query, rp.segments, query_grams};
  const std::vector<Record>& collection = index_->t_records();
  const std::vector<PreparedRecord>& collection_prepared =
      index_->t_prepared();
  for (uint32_t id : candidates) {
    // Reject-only: a candidate whose bound reaches theta runs the full
    // Algorithm 1, so every returned similarity is the threshold-less one.
    const double bound = computer.UpperBound(segmented, collection[id],
                                             collection_prepared[id]);
    if (bound < options.theta - UsimComputer::kBoundSlack) continue;
    double sim = computer.Approx(segmented, collection[id],
                                 collection_prepared[id]);
    if (sim >= options.theta) matches.push_back(Match{GlobalId(id), sim});
  }
  return matches;
}

std::vector<Match> UnifiedSearcher::Search(const Record& query,
                                           const SearchOptions& options,
                                           QueryStats* stats) const {
  return TopK(query, kAllMatches, options.theta, options, stats);
}

std::vector<Match> UnifiedSearcher::TopK(const Record& query, size_t k,
                                         double min_theta,
                                         const SearchOptions& options,
                                         QueryStats* stats) const {
  // k = 0 is still a query: count it, answer nothing.
  if (stats != nullptr) ++stats->queries;
  if (k == 0) return {};
  SearchOptions opts = options;
  opts.theta = min_theta;
  std::vector<Match> matches = Probe(query, opts, stats);
  RankMatches(k, &matches);
  return matches;
}

Result<std::vector<Match>> SearchSlices(
    const Record& query, size_t k,
    const UnifiedSearcher::SearchOptions& options, size_t num_slices,
    const SliceResolver& resolve, int num_threads,
    UnifiedSearcher::QueryStats* stats) {
  if (stats != nullptr) ++stats->queries;
  if (k == 0) return std::vector<Match>{};
  // Scatter: each worker resolves and probes a contiguous run of
  // slices, keeping its own stats and the first error it meets.
  const size_t workers = std::max<size_t>(
      1, std::min<size_t>(ResolveThreads(num_threads), num_slices));
  std::vector<std::vector<Match>> per_slice(num_slices);
  std::vector<UnifiedSearcher::QueryStats> worker_stats(workers);
  std::vector<Status> worker_status(workers);
  ParallelFor(num_slices, num_threads, [&](size_t begin, size_t end, int w) {
    for (size_t i = begin; i < end; ++i) {
      double built_seconds = 0.0;
      Result<UnifiedSearcher> searcher = resolve(i, &built_seconds);
      if (!searcher.ok()) {
        worker_status[w] = searcher.status();
        return;
      }
      worker_stats[w].index_seconds += built_seconds;
      per_slice[i] = searcher->Probe(query, options, &worker_stats[w]);
    }
  });
  for (const Status& status : worker_status) {
    if (!status.ok()) return status;
  }
  // Gather: the union of the slices' matches, ranked once.
  std::vector<Match> matches;
  for (std::vector<Match>& slice : per_slice) {
    if (matches.empty()) {
      matches = std::move(slice);
    } else {
      matches.insert(matches.end(), slice.begin(), slice.end());
    }
  }
  RankMatches(k, &matches);
  if (stats != nullptr) {
    double index_seconds = 0.0;
    for (const UnifiedSearcher::QueryStats& ws : worker_stats) {
      stats->candidates += ws.candidates;
      index_seconds = std::max(index_seconds, ws.index_seconds);
    }
    stats->index_seconds += index_seconds;
  }
  return matches;
}

std::vector<Match> SearchSlices(const Record& query, size_t k,
                                const UnifiedSearcher::SearchOptions& options,
                                const std::vector<UnifiedSearcher>& slices,
                                UnifiedSearcher::QueryStats* stats) {
  // Resolved slices cannot fail to resolve.
  return SearchSlices(
             query, k, options, slices.size(),
             [&slices](size_t i, double*) -> Result<UnifiedSearcher> {
               return slices[i];
             },
             /*num_threads=*/1, stats)
      .value();
}

}  // namespace aujoin
