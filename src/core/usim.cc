#include "core/usim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/hungarian.h"
#include "kernels/kernels.h"

namespace aujoin {

namespace {

// Builds the partition induced by an independent set on one side:
// the spans of selected vertices plus singletons for uncovered tokens.
// Returns indexes into `segments`. `singleton_at[pos]` maps a token
// position to its singleton segment index.
std::vector<uint32_t> InducedPartition(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    const std::vector<uint32_t>& selected_segments) {
  std::vector<uint32_t> singleton_at(num_tokens, UINT32_MAX);
  for (uint32_t i = 0; i < segments.size(); ++i) {
    if (segments[i].span.SingleToken()) {
      singleton_at[segments[i].span.begin] = i;
    }
  }
  std::vector<char> covered(num_tokens, 0);
  std::vector<uint32_t> partition;
  for (uint32_t seg_idx : selected_segments) {
    partition.push_back(seg_idx);
    for (uint32_t p = segments[seg_idx].span.begin;
         p < segments[seg_idx].span.end; ++p) {
      covered[p] = 1;
    }
  }
  for (size_t p = 0; p < num_tokens; ++p) {
    if (!covered[p]) partition.push_back(singleton_at[p]);
  }
  return partition;
}

// Marks a partition size that no well-defined partition has.
constexpr double kNoPartition = -std::numeric_limits<double>::infinity();

// The largest sum of `gain` over well-defined partitions of the
// `num_tokens` tokens into exactly k segments, for k = 0..num_tokens.
// `segments` is the EnumerateSegments output, sorted by (begin, end), so
// every segment ending at a position is folded in before any segment
// starting there.
std::vector<double> BestSumBySize(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    const std::vector<double>& gain) {
  const size_t width = num_tokens + 1;
  // best[pos * width + k]: tokens [0, pos) covered by k segments.
  std::vector<double> best(width * width, kNoPartition);
  best[0] = 0.0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const Segment& span = segments[i].span;
    for (size_t k = 0; k <= span.begin; ++k) {
      const double from = best[span.begin * width + k];
      if (from == kNoPartition) continue;
      double& to = best[span.end * width + k + 1];
      to = std::max(to, from + gain[i]);
    }
  }
  return std::vector<double>(best.end() - width, best.end());
}

// MP: the fewest segments a well-defined partition can have.
size_t MinPartitionSize(const std::vector<double>& best_by_size) {
  size_t k = 0;
  while (best_by_size[k] == kNoPartition) ++k;
  return k;
}

// max over k of best_by_size[k] / max(k, other_min_size).
double BoundFromOneSide(const std::vector<double>& best_by_size,
                        size_t other_min_size) {
  double bound = 0.0;
  for (size_t k = 1; k < best_by_size.size(); ++k) {
    if (best_by_size[k] == kNoPartition) continue;
    const size_t denominator = std::max(k, other_min_size);
    bound = std::max(bound,
                     best_by_size[k] / static_cast<double>(denominator));
  }
  return bound;
}

}  // namespace

// A segment's gram pebbles are its distinct grams, so sorting each
// segment's run gives its ascending set.
void GramSetsFromPebbles(const RecordPebbles& rp, GramSets* out) {
  const size_t n = rp.segments.size();
  std::vector<uint32_t>& begin = out->begin;
  begin.assign(n + 1, 0);
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kGram) ++begin[p.segment + 1];
  }
  for (size_t i = 0; i < n; ++i) begin[i + 1] += begin[i];
  out->ids.resize(begin[n]);
  // Scatter with begin[i] as segment i's cursor. It stops at the old
  // begin[i + 1], so shifting the offsets right by one restores them.
  for (const Pebble& p : rp.pebbles) {
    if (PebbleKeyType(p.key) == PebbleType::kGram) {
      out->ids[begin[p.segment]++] = static_cast<uint32_t>(PebbleKeyId(p.key));
    }
  }
  for (size_t i = n; i > 0; --i) begin[i] = begin[i - 1];
  begin[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    std::sort(out->ids.begin() + begin[i], out->ids.begin() + begin[i + 1]);
  }
}

SegmentedRecord UsimComputer::Segmented(const Record& r, Side* side) {
  side->segments = EnumerateSegments(r, evaluator_.knowledge());
  evaluator_.CachedGramSets(r, side->segments, &side->grams);
  return SegmentedRecord{r, side->segments, side->grams};
}

SegmentedRecord UsimComputer::Segmented(const Record& r,
                                        const PreparedRecord& pr,
                                        Side* side) {
  GramSetsFromPebbles(pr.pebbles, &side->grams);
  return SegmentedRecord{r, pr.pebbles.segments, side->grams};
}

double UsimComputer::SimOfPartitions(const SegmentedRecord& s,
                                     const SegmentedRecord& t,
                                     const std::vector<uint32_t>& ps,
                                     const std::vector<uint32_t>& pt) {
  if (ps.empty() || pt.empty()) return 0.0;
  // The O(|ps|·|pt|) msim matrix lands in the computer's reused flat
  // scratch (row-major) and feeds the flat Hungarian overload — no
  // per-pair matrix allocation on the verify hot path.
  if (w_scratch_.size() < ps.size() * pt.size()) {
    w_scratch_.resize(ps.size() * pt.size());
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = 0; j < pt.size(); ++j) {
      w_scratch_[i * pt.size() + j] = evaluator_.Msim(s, ps[i], t, pt[j]);
    }
  }
  double matching =
      MaxWeightBipartiteMatching(w_scratch_.data(), ps.size(), pt.size());
  return matching / static_cast<double>(std::max(ps.size(), pt.size()));
}

double UsimComputer::GetSim(const SegmentedRecord& s,
                            const SegmentedRecord& t, const PairGraph& g,
                            const std::vector<uint32_t>& mis) {
  std::vector<uint32_t> s_selected, t_selected;
  for (uint32_t v : mis) {
    s_selected.push_back(g.vertices[v].s_segment);
    t_selected.push_back(g.vertices[v].t_segment);
  }
  std::vector<uint32_t> ps =
      InducedPartition(s.segments, s.record.num_tokens(), s_selected);
  std::vector<uint32_t> pt =
      InducedPartition(t.segments, t.record.num_tokens(), t_selected);
  return SimOfPartitions(s, t, ps, pt);
}

double UsimComputer::UpperBound(const Record& s, const Record& t) {
  const SegmentedRecord a = Segmented(s, &s_side_);
  const SegmentedRecord b = Segmented(t, &t_side_);
  return UpperBound(a, b);
}

double UsimComputer::UpperBound(const Record& s, const PreparedRecord& ps,
                                const Record& t, const PreparedRecord& pt) {
  return UpperBound(Segmented(s, ps, &s_side_), Segmented(t, pt, &t_side_));
}

double UsimComputer::UpperBound(const SegmentedRecord& s, const Record& t,
                                const PreparedRecord& pt) {
  return UpperBound(s, Segmented(t, pt, &t_side_));
}

double UsimComputer::UpperBound(const SegmentedRecord& s,
                                const SegmentedRecord& t) {
  if (s.record.tokens.empty() || t.record.tokens.empty()) return 0.0;
  const std::vector<WellDefinedSegment>& s_segments = s.segments;
  const std::vector<WellDefinedSegment>& t_segments = t.segments;
  std::vector<double> a(s_segments.size(), 0.0);
  std::vector<double> b(t_segments.size(), 0.0);
  for (size_t i = 0; i < s_segments.size(); ++i) {
    for (size_t j = 0; j < t_segments.size(); ++j) {
      const double w = evaluator_.Msim(s, i, t, j);
      a[i] = std::max(a[i], w);
      b[j] = std::max(b[j], w);
    }
  }
  std::vector<double> f_s =
      BestSumBySize(s_segments, s.record.num_tokens(), a);
  std::vector<double> f_t =
      BestSumBySize(t_segments, t.record.num_tokens(), b);
  return std::min(BoundFromOneSide(f_s, MinPartitionSize(f_t)),
                  BoundFromOneSide(f_t, MinPartitionSize(f_s)));
}

double UsimComputer::Approx(const Record& s, const Record& t,
                            double threshold) {
  const SegmentedRecord a = Segmented(s, &s_side_);
  const SegmentedRecord b = Segmented(t, &t_side_);
  return Approx(a, b, threshold);
}

double UsimComputer::Approx(const Record& s, const PreparedRecord& ps,
                            const Record& t, const PreparedRecord& pt,
                            double threshold) {
  return Approx(Segmented(s, ps, &s_side_), Segmented(t, pt, &t_side_),
                threshold);
}

double UsimComputer::Approx(const SegmentedRecord& s, const Record& t,
                            const PreparedRecord& pt, double threshold) {
  return Approx(s, Segmented(t, pt, &t_side_), threshold);
}

double UsimComputer::Approx(const SegmentedRecord& s,
                            const SegmentedRecord& t, double threshold) {
  if (s.record.tokens.empty() || t.record.tokens.empty()) return 0.0;
  if (threshold <= 1.0) {
    const double bound = UpperBound(s, t);
    if (bound < threshold - kBoundSlack) return bound;
  }
  PairGraph g = BuildPairGraph(s, t, evaluator_, options_.graph);
  std::vector<uint32_t> a = SquareImp(g, options_.squareimp);
  double best = GetSim(s, t, g, a);
  if (!options_.enable_improvement || best >= threshold) {
    return best;
  }

  const double min_gain = 1.0 / std::max(options_.t, 1.0 + 1e-9);
  const int max_rounds = static_cast<int>(std::floor(options_.t));
  const size_t n = g.num_vertices();

  std::vector<char> in_set(n, 0);
  for (uint32_t v : a) in_set[v] = 1;

  for (int round = 0; round < max_rounds; ++round) {
    // Rank candidate talon sets by their raw matching-weight gain, then
    // evaluate the top few with the exact GetSim.
    struct Move {
      std::vector<uint32_t> talons;
      double weight_gain;
    };
    std::vector<Move> moves;
    // Gains and losses gather from the graph's flat weight mirror
    // through AccumulateWeights (the ranking heuristic only —
    // acceptance still goes through the exact GetSim).
    auto weight_delta = [&](const std::vector<uint32_t>& talons) {
      std::vector<uint32_t> removed;
      auto mark_removed = [&](uint32_t v) {
        if (in_set[v] &&
            std::find(removed.begin(), removed.end(), v) == removed.end()) {
          removed.push_back(v);
        }
      };
      for (uint32_t u : talons) {
        mark_removed(u);
        for (uint32_t v : g.adj[u]) mark_removed(v);
      }
      return AccumulateWeights(g.weights.data(), talons.data(),
                               talons.size()) -
             AccumulateWeights(g.weights.data(), removed.data(),
                               removed.size());
    };
    for (uint32_t u = 0; u < n; ++u) {
      if (in_set[u]) continue;
      moves.push_back(Move{{u}, weight_delta({u})});
    }
    // Pair talons are only worth ranking on small graphs.
    if (n <= options_.pair_move_vertex_cap) {
      for (uint32_t u = 0; u < n; ++u) {
        if (in_set[u]) continue;
        for (uint32_t v = u + 1; v < n; ++v) {
          if (in_set[v]) continue;
          const auto& adj = g.adj[u];
          if (std::find(adj.begin(), adj.end(), v) != adj.end()) continue;
          moves.push_back(Move{{u, v}, weight_delta({u, v})});
        }
      }
    }
    std::stable_sort(moves.begin(), moves.end(),
                     [](const Move& x, const Move& y) {
                       return x.weight_gain > y.weight_gain;
                     });
    size_t budget = std::min<size_t>(
        moves.size(), static_cast<size_t>(options_.improve_eval_budget));

    double best_candidate = best;
    std::vector<uint32_t> best_set;
    for (size_t m = 0; m < budget; ++m) {
      // Construct A' = A ∪ talons \ N(talons, A).
      std::vector<char> next = in_set;
      for (uint32_t u : moves[m].talons) {
        for (uint32_t v : g.adj[u]) next[v] = 0;
      }
      for (uint32_t u : moves[m].talons) next[u] = 1;
      std::vector<uint32_t> candidate;
      for (uint32_t v = 0; v < n; ++v) {
        if (next[v]) candidate.push_back(v);
      }
      double sim = GetSim(s, t, g, candidate);
      if (sim > best_candidate) {
        best_candidate = sim;
        best_set = std::move(candidate);
      }
    }
    if (best_candidate >= best + min_gain) {
      best = best_candidate;
      std::fill(in_set.begin(), in_set.end(), 0);
      for (uint32_t v : best_set) in_set[v] = 1;
      if (best >= threshold) return best;
    } else {
      break;
    }
  }
  return best;
}

std::vector<std::vector<uint32_t>> EnumeratePartitions(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    size_t cap, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::vector<std::vector<uint32_t>> result;
  if (num_tokens == 0) return result;

  // Bucket segment indexes by begin position.
  std::vector<std::vector<uint32_t>> by_begin(num_tokens);
  for (uint32_t i = 0; i < segments.size(); ++i) {
    by_begin[segments[i].span.begin].push_back(i);
  }

  std::vector<uint32_t> current;
  // Iterative DFS would be noisier; recursion depth <= num_tokens.
  struct Dfs {
    const std::vector<WellDefinedSegment>& segments;
    const std::vector<std::vector<uint32_t>>& by_begin;
    size_t num_tokens;
    size_t cap;
    bool* truncated;
    std::vector<std::vector<uint32_t>>& result;
    std::vector<uint32_t>& current;

    void Run(uint32_t pos) {
      if (result.size() >= cap) {
        if (truncated != nullptr) *truncated = true;
        return;
      }
      if (pos == num_tokens) {
        result.push_back(current);
        return;
      }
      for (uint32_t seg_idx : by_begin[pos]) {
        // The entry check of the recursive call marks truncation when the
        // cap has been reached (every reachable call yields a partition).
        current.push_back(seg_idx);
        Run(segments[seg_idx].span.end);
        current.pop_back();
      }
    }
  } dfs{segments, by_begin, num_tokens, cap, truncated, result, current};
  dfs.Run(0);
  return result;
}

UsimComputer::ExactResult UsimComputer::Exact(const Record& s, const Record& t,
                                              const ExactOptions& limits) {
  ExactResult res;
  if (s.tokens.empty() || t.tokens.empty()) return res;
  const SegmentedRecord a = Segmented(s, &s_side_);
  const SegmentedRecord b = Segmented(t, &t_side_);

  bool trunc_s = false, trunc_t = false;
  auto ps_all = EnumeratePartitions(a.segments, s.num_tokens(),
                                    limits.max_partitions_per_string,
                                    &trunc_s);
  auto pt_all = EnumeratePartitions(b.segments, t.num_tokens(),
                                    limits.max_partitions_per_string,
                                    &trunc_t);
  res.exact = !(trunc_s || trunc_t);

  size_t pairs = 0;
  for (const auto& ps : ps_all) {
    for (const auto& pt : pt_all) {
      if (++pairs > limits.max_pairs) {
        res.exact = false;
        return res;
      }
      double sim = SimOfPartitions(a, b, ps, pt);
      res.value = std::max(res.value, sim);
    }
  }
  return res;
}

}  // namespace aujoin
