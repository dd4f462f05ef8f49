#include "core/squareimp.h"

#include <algorithm>
#include <numeric>

#include "kernels/kernels.h"

namespace aujoin {

namespace {

// State for the local-search: membership flags plus the invariant helpers.
struct LocalSearch {
  const PairGraph& g;
  const SquareImpOptions& opts;
  std::vector<char> in_set;
  // Squared weights indexed by vertex, gathered through
  // AccumulateWeights. BuildPairGraph keeps the graph's own mirror in
  // sync; hand-built graphs (tests) get a local copy.
  std::vector<double> local_sq;
  const double* wsq;

  explicit LocalSearch(const PairGraph& graph, const SquareImpOptions& o)
      : g(graph), opts(o), in_set(graph.num_vertices(), 0) {
    if (g.WeightArraysSynced()) {
      wsq = g.weights_sq.data();
    } else {
      local_sq.resize(g.num_vertices());
      for (size_t v = 0; v < g.num_vertices(); ++v) {
        local_sq[v] = g.vertices[v].weight * g.vertices[v].weight;
      }
      wsq = local_sq.data();
    }
  }

  // Sum of squared weights of set members adjacent to (or equal to) any
  // talon in `talons` — the N(T, A) of Berman's improvement condition.
  double SquaredWeightOfNeighbourhood(const std::vector<uint32_t>& talons,
                                      std::vector<uint32_t>* removed) const {
    removed->clear();
    auto consider = [&](uint32_t v) {
      if (!in_set[v]) return;
      if (std::find(removed->begin(), removed->end(), v) != removed->end()) {
        return;
      }
      removed->push_back(v);
    };
    for (uint32_t u : talons) {
      consider(u);
      for (uint32_t v : g.adj[u]) consider(v);
    }
    return AccumulateWeights(wsq, removed->data(), removed->size());
  }

  double SquaredWeight(const std::vector<uint32_t>& vs) const {
    return AccumulateWeights(wsq, vs.data(), vs.size());
  }

  // Applies T <- A ∪ talons \ N(talons, A).
  void Apply(const std::vector<uint32_t>& talons,
             const std::vector<uint32_t>& removed) {
    for (uint32_t v : removed) in_set[v] = 0;
    for (uint32_t u : talons) in_set[u] = 1;
  }

  bool Independent(uint32_t a, uint32_t b) const {
    // Adjacency lists are built in ascending order by construction.
    const auto& adj = g.adj[a];
    return !std::binary_search(adj.begin(), adj.end(), b);
  }
};

}  // namespace

std::vector<uint32_t> SquareImp(const PairGraph& g,
                                const SquareImpOptions& options) {
  const size_t n = g.num_vertices();
  LocalSearch ls(g, options);

  // Greedy seed: heaviest-first maximal independent set.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return g.vertices[a].weight > g.vertices[b].weight;
  });
  for (uint32_t v : order) {
    bool blocked = false;
    for (uint32_t u : g.adj[v]) {
      if (ls.in_set[u]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) ls.in_set[v] = 1;
  }

  // Claw improvements on the squared-weight objective.
  const bool allow_pairs =
      options.max_talons >= 2 && n <= options.pair_search_vertex_cap;
  const bool allow_triples =
      options.max_talons >= 3 && n <= options.pair_search_vertex_cap / 4;
  std::vector<uint32_t> removed;
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < options.max_iterations) {
    improved = false;
    // Singleton talons.
    for (uint32_t u = 0; u < n && !improved; ++u) {
      if (ls.in_set[u]) continue;
      std::vector<uint32_t> talons{u};
      double gain = ls.SquaredWeight(talons);
      double loss = ls.SquaredWeightOfNeighbourhood(talons, &removed);
      if (gain > loss + 1e-15) {
        ls.Apply(talons, removed);
        improved = true;
      }
    }
    if (improved) continue;
    // Pair talons: u, v independent, both outside A.
    if (allow_pairs) {
      for (uint32_t u = 0; u < n && !improved; ++u) {
        if (ls.in_set[u]) continue;
        for (uint32_t v = u + 1; v < n && !improved; ++v) {
          if (ls.in_set[v] || !ls.Independent(u, v)) continue;
          std::vector<uint32_t> talons{u, v};
          double gain = ls.SquaredWeight(talons);
          double loss = ls.SquaredWeightOfNeighbourhood(talons, &removed);
          if (gain > loss + 1e-15) {
            ls.Apply(talons, removed);
            improved = true;
          }
        }
      }
    }
    if (improved || !allow_triples) continue;
    // Triple talons, restricted to mutually independent triples drawn from
    // the two-hop neighbourhood of u to keep enumeration bounded.
    for (uint32_t u = 0; u < n && !improved; ++u) {
      if (ls.in_set[u]) continue;
      for (uint32_t v = u + 1; v < n && !improved; ++v) {
        if (ls.in_set[v] || !ls.Independent(u, v)) continue;
        for (uint32_t w = v + 1; w < n && !improved; ++w) {
          if (ls.in_set[w] || !ls.Independent(u, w) || !ls.Independent(v, w)) {
            continue;
          }
          std::vector<uint32_t> talons{u, v, w};
          double gain = ls.SquaredWeight(talons);
          double loss = ls.SquaredWeightOfNeighbourhood(talons, &removed);
          if (gain > loss + 1e-15) {
            ls.Apply(talons, removed);
            improved = true;
          }
        }
      }
    }
  }

  std::vector<uint32_t> result;
  for (uint32_t v = 0; v < n; ++v) {
    if (ls.in_set[v]) result.push_back(v);
  }
  return result;
}

double IndependentSetWeight(const PairGraph& g,
                            const std::vector<uint32_t>& set) {
  if (g.WeightArraysSynced()) {
    return AccumulateWeights(g.weights.data(), set.data(), set.size());
  }
  double sum = 0.0;
  for (uint32_t v : set) sum += g.vertices[v].weight;
  return sum;
}

bool IsIndependentSet(const PairGraph& g, const std::vector<uint32_t>& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      if (g.Conflicts(set[i], set[j])) return false;
    }
  }
  return true;
}

}  // namespace aujoin
