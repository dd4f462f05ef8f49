#include "join/join.h"

#include <algorithm>

#include "index/csr_index.h"
#include "index/inverted_index.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace aujoin {

void JoinContext::Prepare(const std::vector<Record>& s,
                          const std::vector<Record>* t) {
  index_ = PreparedIndex::Build(knowledge_, msim_, s, t);
}

void JoinContext::Adopt(std::shared_ptr<const PreparedIndex> index) {
  index_ = std::move(index);
  knowledge_ = index_->knowledge();
  msim_ = index_->msim_options();
}

JoinContext::FilterOutput JoinContext::RunFilter(
    const SignatureOptions& sig_options,
    const std::vector<uint32_t>* s_subset,
    const std::vector<uint32_t>* t_subset, int num_threads) const {
  FilterOutput out;
  const auto& s_prep = s_prepared();
  const auto& t_prep = t_prepared();
  const bool self = self_join();

  // Materialise the record index lists.
  std::vector<uint32_t> s_ids, t_ids;
  if (s_subset != nullptr) {
    s_ids = *s_subset;
  } else {
    s_ids.resize(s_prep.size());
    for (uint32_t i = 0; i < s_prep.size(); ++i) s_ids[i] = i;
  }
  if (t_subset != nullptr) {
    t_ids = *t_subset;
  } else if (self && s_subset != nullptr) {
    t_ids = s_ids;
  } else {
    t_ids.resize(t_prep.size());
    for (uint32_t i = 0; i < t_prep.size(); ++i) t_ids[i] = i;
  }

  // Signature selection (read-only over the prepared records, so chunks
  // are embarrassingly parallel).
  WallTimer timer;
  std::vector<Signature> s_sigs(s_ids.size());
  std::vector<Signature> t_sigs;
  ParallelFor(s_ids.size(), num_threads,
              [&](size_t begin, size_t end, int /*worker*/) {
                for (size_t i = begin; i < end; ++i) {
                  const PreparedRecord& pr = s_prep[s_ids[i]];
                  s_sigs[i] = SelectSignature(pr.pebbles, pr.num_tokens,
                                              sig_options);
                }
              });
  const bool same_side = self && s_ids == t_ids;
  if (!same_side) {
    t_sigs.resize(t_ids.size());
    ParallelFor(t_ids.size(), num_threads,
                [&](size_t begin, size_t end, int /*worker*/) {
                  for (size_t j = begin; j < end; ++j) {
                    const PreparedRecord& pr = t_prep[t_ids[j]];
                    t_sigs[j] = SelectSignature(pr.pebbles, pr.num_tokens,
                                                sig_options);
                  }
                });
  }
  uint64_t total_sig_pebbles = 0;
  for (const Signature& sig : s_sigs) total_sig_pebbles += sig.prefix_len;
  for (const Signature& sig : t_sigs) total_sig_pebbles += sig.prefix_len;
  const std::vector<Signature>& t_side = same_side ? s_sigs : t_sigs;
  size_t sig_count = s_ids.size() + (same_side ? 0 : t_ids.size());
  out.avg_signature_pebbles =
      sig_count == 0 ? 0.0
                     : static_cast<double>(total_sig_pebbles) /
                           static_cast<double>(sig_count);
  out.signature_seconds = timer.Seconds();

  // Candidate generation: index T's signatures by *position* in t_ids
  // (dense 0..|T|-1, so counts live in flat arrays and the position
  // doubles as the handle to the indexed signature's effective tau),
  // freeze the staging map into CSR form, probe S. Each probe merges
  // whole posting runs into a reusable epoch-stamped scratch and
  // selects survivors by required overlap — sequential scans of
  // contiguous runs instead of per-key hash lookups and hash-map dedup.
  timer.Restart();
  InvertedIndex staging;
  for (size_t j = 0; j < t_ids.size(); ++j) {
    staging.Add(static_cast<uint32_t>(j), t_side[j].keys);
  }
  const CsrIndex index = CsrIndex::Freeze(staging);
  // The indexed side's effective taus by position, for the
  // min(probe, indexed) required-overlap select.
  std::vector<uint32_t> t_eff(t_ids.size());
  for (size_t j = 0; j < t_ids.size(); ++j) {
    t_eff[j] = static_cast<uint32_t>(t_side[j].effective_tau);
  }
  // When T is the whole collection in id order, position j IS record
  // id j, and posting runs are ascending — a self-join's "skip pairs
  // with t <= s" becomes a prefix cut instead of a per-posting branch.
  const bool t_dense = t_subset == nullptr && !(self && s_subset != nullptr);
  // Probe phase: chunks of S records, per-worker outputs merged after.
  const int probe_workers = ResolveThreads(num_threads);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> worker_candidates(
      probe_workers);
  std::vector<uint64_t> worker_processed(probe_workers, 0);
  std::vector<CandidateAccumulator> accumulators(probe_workers);
  ParallelFor(
      s_ids.size(), num_threads,
      [&](size_t begin, size_t end, int worker) {
        CandidateAccumulator& overlap = accumulators[worker];
        const uint32_t* t_map = t_ids.data();
        for (size_t i = begin; i < end; ++i) {
          overlap.Begin(t_ids.size());
          uint32_t s_id = s_ids[i];
          // Resolve the whole signature's keys in one batched sweep
          // (hashes pipelined, home slots prefetched) before merging.
          const size_t num_keys = s_sigs[i].keys.size();
          const CsrIndex::Postings* runs =
              overlap.ResolveRuns(index, s_sigs[i].keys.data(), num_keys);
          for (size_t k = 0; k < num_keys; ++k) {
            const CsrIndex::Postings run = runs[k];
            if (run.empty()) continue;
            if (!self) {
              worker_processed[worker] += run.size;
              overlap.BumpRun(run.data, run.size);
            } else if (t_dense) {
              // Dedupe self pairs: drop the ascending run's prefix of
              // positions (== record ids) <= s_id in one cut.
              const uint32_t* cut =
                  std::upper_bound(run.begin(), run.end(), s_id);
              const size_t kept = static_cast<size_t>(run.end() - cut);
              worker_processed[worker] += kept;
              overlap.BumpRun(cut, kept);
            } else {
              // Subset self-join: positions map through t_map, so the
              // pair dedup stays a per-posting predicate.
              for (uint32_t j : run) {
                if (t_map[j] <= s_id) continue;
                ++worker_processed[worker];
                overlap.Bump(j);
              }
            }
          }
          const uint32_t probe_tau =
              static_cast<uint32_t>(s_sigs[i].effective_tau);
          for (uint32_t j : overlap.SelectMergedGE(t_eff.data(), probe_tau)) {
            worker_candidates[worker].emplace_back(s_id, t_map[j]);
          }
        }
      });
  for (int w = 0; w < probe_workers; ++w) {
    out.processed_pairs += worker_processed[w];
    out.candidates.insert(out.candidates.end(), worker_candidates[w].begin(),
                          worker_candidates[w].end());
  }
  out.filter_seconds = timer.Seconds();
  return out;
}

void VerifyCandidates(
    const JoinContext& context, const JoinOptions& options,
    const std::vector<std::pair<uint32_t, uint32_t>>& candidates,
    JoinResult* result) {
  WallTimer timer;
  UsimOptions usim_options = options.usim;
  usim_options.msim = context.msim_options();
  const auto& s_records = context.s_records();
  const auto& t_records = context.t_records();

  const int workers = ResolveThreads(options.num_threads);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> worker_pairs(
      workers);
  ParallelFor(
      candidates.size(), options.num_threads,
      [&](size_t begin, size_t end, int worker) {
        // One computer (and gram cache) per worker; MsimEvaluator is not
        // thread-safe.
        UsimComputer computer(context.knowledge(), usim_options);
        for (size_t c = begin; c < end; ++c) {
          const auto& [si, ti] = candidates[c];
          if (computer.evaluator()->CacheSize() >
              options.cache_evict_threshold) {
            computer.evaluator()->ClearCache();
          }
          // Verification only needs the predicate, so Algorithm 1 may
          // stop as soon as theta is reached.
          double sim = computer.Approx(s_records[si], t_records[ti],
                                       options.theta);
          if (sim >= options.theta) {
            worker_pairs[worker].emplace_back(si, ti);
          }
        }
      });
  for (int w = 0; w < workers; ++w) {
    result->pairs.insert(result->pairs.end(), worker_pairs[w].begin(),
                         worker_pairs[w].end());
  }
  // Deterministic output regardless of the worker split.
  std::sort(result->pairs.begin(), result->pairs.end());
  result->stats.verify_seconds += timer.Seconds();
  result->stats.results = result->pairs.size();
}

JoinResult UnifiedJoin(const JoinContext& context,
                       const JoinOptions& options) {
  JoinResult result;
  SignatureOptions sig_options;
  sig_options.theta = options.theta;
  sig_options.tau = options.tau;
  sig_options.method = options.method;
  sig_options.exact_min_partition = options.exact_min_partition;

  JoinContext::FilterOutput filtered =
      context.RunFilter(sig_options, nullptr, nullptr, options.num_threads);
  result.stats.prepare_seconds = context.prepare_seconds();
  result.stats.signature_seconds = filtered.signature_seconds;
  result.stats.filter_seconds = filtered.filter_seconds;
  result.stats.processed_pairs = filtered.processed_pairs;
  result.stats.candidates = filtered.candidates.size();
  result.stats.avg_signature_pebbles = filtered.avg_signature_pebbles;

  VerifyCandidates(context, options, filtered.candidates, &result);
  return result;
}

}  // namespace aujoin
