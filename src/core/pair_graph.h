#ifndef AUJOIN_CORE_PAIR_GRAPH_H_
#define AUJOIN_CORE_PAIR_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/measures.h"
#include "core/record.h"
#include "core/segment.h"

namespace aujoin {

/// One vertex of the conflict graph G of Section 2.3: a candidate matched
/// pair of well-defined segments (PS of S, PT of T) with weight
/// msim(PS, PT). Indexes refer to the segment lists used to build the
/// graph.
struct PairVertex {
  uint32_t s_segment = 0;  // index into the S segment list
  uint32_t t_segment = 0;  // index into the T segment list
  double weight = 0.0;
};

/// The (k+1)-claw-free conflict graph built from two strings. Vertices are
/// segment pairs; an edge connects two vertices whose segments overlap on
/// the S side or the T side (they cannot be applied simultaneously).
struct PairGraph {
  std::vector<WellDefinedSegment> s_segments;
  std::vector<WellDefinedSegment> t_segments;
  std::vector<PairVertex> vertices;
  /// Adjacency lists over vertex indexes (conflict edges).
  std::vector<std::vector<uint32_t>> adj;
  /// Flat mirrors of vertices[].weight and its square, indexed by
  /// vertex — the arrays AccumulateWeights (kernels/kernels.h) gathers
  /// from in the SquareImp / claw-improvement sums. BuildPairGraph fills them;
  /// call SyncWeightArrays after mutating vertices by hand (consumers
  /// fall back to vertices[].weight when the mirrors are out of date).
  std::vector<double> weights;
  std::vector<double> weights_sq;
  /// True when vertex enumeration hit the configured cap and some
  /// candidate pairs were dropped (similarity is then a lower bound).
  bool truncated = false;

  size_t num_vertices() const { return vertices.size(); }

  void SyncWeightArrays() {
    weights.resize(vertices.size());
    weights_sq.resize(vertices.size());
    for (size_t v = 0; v < vertices.size(); ++v) {
      weights[v] = vertices[v].weight;
      weights_sq[v] = weights[v] * weights[v];
    }
  }

  bool WeightArraysSynced() const {
    return weights.size() == vertices.size() &&
           weights_sq.size() == vertices.size();
  }

  bool Conflicts(uint32_t a, uint32_t b) const {
    const PairVertex& va = vertices[a];
    const PairVertex& vb = vertices[b];
    return s_segments[va.s_segment].span.Overlaps(
               s_segments[vb.s_segment].span) ||
           t_segments[va.t_segment].span.Overlaps(
               t_segments[vb.t_segment].span);
  }
};

/// Limits for graph construction.
struct PairGraphOptions {
  /// Hard cap on vertex count; beyond it the lowest-weight candidate
  /// vertices are dropped (graphs stay small for typical strings; the cap
  /// guards pathological inputs).
  size_t max_vertices = 4096;
  /// Drop vertices with weight below this (zero-weight pairs can never
  /// contribute to the matching).
  double min_weight = 1e-12;
};

/// Builds the conflict graph of the paper's Section 2.3 construction:
/// a vertex for every segment pair connected by (a) a synonym rule,
/// (b) two taxonomy entities, or (c) both being single tokens; weight
/// msim; edges between conflicting (token-sharing) vertices. The graph
/// copies both sides' segments.
PairGraph BuildPairGraph(const SegmentedRecord& s, const SegmentedRecord& t,
                         const MsimEvaluator& evaluator,
                         const PairGraphOptions& options = {});

/// The same graph from two raw records: enumerates their segments and
/// takes gram-id sets from the evaluator's cache.
PairGraph BuildPairGraph(const Record& s, const Record& t,
                         MsimEvaluator* evaluator,
                         const PairGraphOptions& options = {});

}  // namespace aujoin

#endif  // AUJOIN_CORE_PAIR_GRAPH_H_
