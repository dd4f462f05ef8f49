#include "core/pair_graph.h"

#include <algorithm>
#include <numeric>

namespace aujoin {

PairGraph BuildPairGraph(const Record& s, const Record& t,
                         MsimEvaluator* evaluator,
                         const PairGraphOptions& options) {
  PairGraph g;
  const Knowledge& knowledge = evaluator->knowledge();
  g.s_segments = EnumerateSegments(s, knowledge);
  g.t_segments = EnumerateSegments(t, knowledge);
  const uint32_t measures = evaluator->options().measures;

  for (uint32_t i = 0; i < g.s_segments.size(); ++i) {
    const auto& ps = g.s_segments[i];
    for (uint32_t j = 0; j < g.t_segments.size(); ++j) {
      const auto& pt = g.t_segments[j];
      // Construction step (i): the pair must be connected by a synonym
      // rule, by two taxonomy entities, or consist of two single tokens.
      bool synonym_pair = (measures & kMeasureSynonym) &&
                          evaluator->Synonym(ps, pt) > 0.0;
      bool taxonomy_pair = (measures & kMeasureTaxonomy) && ps.HasTaxonomy() &&
                           pt.HasTaxonomy();
      bool singleton_pair = ps.span.SingleToken() && pt.span.SingleToken();
      if (!synonym_pair && !taxonomy_pair && !singleton_pair) continue;
      double w = evaluator->Msim(s, ps, t, pt);
      if (w < options.min_weight) continue;
      g.vertices.push_back(PairVertex{i, j, w});
    }
  }

  // Enforce the vertex cap by keeping the heaviest candidates.
  if (g.vertices.size() > options.max_vertices) {
    g.truncated = true;
    std::nth_element(g.vertices.begin(),
                     g.vertices.begin() + options.max_vertices,
                     g.vertices.end(),
                     [](const PairVertex& a, const PairVertex& b) {
                       return a.weight > b.weight;
                     });
    g.vertices.resize(options.max_vertices);
  }

  // Flat weight mirrors for AccumulateWeights (after the cap, so they
  // index the surviving vertices).
  g.SyncWeightArrays();

  g.adj.resize(g.vertices.size());
  for (uint32_t a = 0; a < g.vertices.size(); ++a) {
    for (uint32_t b = a + 1; b < g.vertices.size(); ++b) {
      if (g.Conflicts(a, b)) {
        g.adj[a].push_back(b);
        g.adj[b].push_back(a);
      }
    }
  }
  return g;
}

}  // namespace aujoin
