#ifndef AUJOIN_DATAGEN_TAXONOMY_GEN_H_
#define AUJOIN_DATAGEN_TAXONOMY_GEN_H_

#include <cstdint>

#include "taxonomy/taxonomy.h"
#include "text/vocabulary.h"

namespace aujoin {

/// Parameters of the synthetic IS-A hierarchy that stands in for the
/// paper's MeSH / Wikipedia category taxonomies. The random-attachment
/// process yields heights with the min/avg/max shape of Table 6 at laptop
/// scale.
struct TaxonomyGenOptions {
  size_t num_nodes = 2000;
  /// Nodes at this depth stop acquiring children.
  int max_depth = 10;
  /// Probability that an entity name has two tokens (else one).
  double two_token_name_prob = 0.25;
  /// Bias towards attaching to deeper parents (0 = uniform); raises the
  /// average depth towards the paper's 5-6.
  double depth_bias = 1.0;
  uint64_t seed = 1;
};

/// Generates a random taxonomy; entity names are interned into `vocab`.
Taxonomy GenerateTaxonomy(const TaxonomyGenOptions& options,
                          Vocabulary* vocab);

}  // namespace aujoin

#endif  // AUJOIN_DATAGEN_TAXONOMY_GEN_H_
