#ifndef AUJOIN_TESTS_TEST_FIXTURES_H_
#define AUJOIN_TESTS_TEST_FIXTURES_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/record.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "synonym/rule_set.h"
#include "taxonomy/taxonomy.h"
#include "text/vocabulary.h"

namespace aujoin {

/// Shared test world reproducing Figure 1 of the paper:
/// taxonomy  wikipedia -> food -> {coffee -> coffee drinks -> {latte,
///           espresso}, cake -> apple cake}
/// synonyms  "coffee shop" -> "cafe", "cake" -> "gateau"
/// strings   S = "coffee shop latte helsingki",
///           T = "espresso cafe helsinki"
class Figure1World {
 public:
  Figure1World() {
    auto name = [&](std::initializer_list<const char*> words) {
      std::vector<TokenId> ids;
      for (const char* w : words) ids.push_back(vocab.Intern(w));
      return ids;
    };
    root = taxonomy.AddRoot(name({"wikipedia"})).value();
    food = taxonomy.AddNode(root, name({"food"})).value();
    coffee = taxonomy.AddNode(food, name({"coffee"})).value();
    drinks = taxonomy.AddNode(coffee, name({"coffee", "drinks"})).value();
    latte = taxonomy.AddNode(drinks, name({"latte"})).value();
    espresso = taxonomy.AddNode(drinks, name({"espresso"})).value();
    cake = taxonomy.AddNode(food, name({"cake"})).value();
    apple_cake = taxonomy.AddNode(cake, name({"apple", "cake"})).value();

    rule_cafe =
        rules.AddRule(name({"coffee", "shop"}), name({"cafe"}), 1.0).value();
    rule_gateau = rules.AddRule(name({"cake"}), name({"gateau"}), 1.0).value();
  }

  Knowledge knowledge() const {
    Knowledge k;
    k.vocab = &vocab;
    k.rules = &rules;
    k.taxonomy = &taxonomy;
    return k;
  }

  Record MakeRec(uint32_t id, const std::string& text) {
    return MakeRecord(id, text, &vocab);
  }

  Vocabulary vocab;
  Taxonomy taxonomy;
  RuleSet rules;
  NodeId root, food, coffee, drinks, latte, espresso, cake, apple_cake;
  RuleId rule_cafe, rule_gateau;
};

/// The synthetic instance of Example 5 / Figure 2: tokenised strings
/// S = {a,b,c,d,e}, T = {f,g,h} and rules R1..R6 with the figure's vertex
/// weights as closenesses.
class Example5World {
 public:
  Example5World() {
    auto name = [&](std::initializer_list<const char*> words) {
      std::vector<TokenId> ids;
      for (const char* w : words) ids.push_back(vocab.Intern(w));
      return ids;
    };
    r1 = rules.AddRule(name({"b", "c", "d"}), name({"f"}), 0.30).value();
    r2 = rules.AddRule(name({"b", "c"}), name({"f", "g"}), 0.13).value();
    r3 = rules.AddRule(name({"c", "d"}), name({"f", "g"}), 0.22).value();
    r4 = rules.AddRule(name({"a"}), name({"g"}), 0.09).value();
    r5 = rules.AddRule(name({"d"}), name({"h"}), 0.27).value();
    r6 = rules.AddRule(name({"z", "e", "f"}), name({"g"}), 0.5).value();
    s = MakeRecord(0, "a b c d e", &vocab);
    t = MakeRecord(1, "f g h", &vocab);
  }

  Knowledge knowledge() const {
    Knowledge k;
    k.vocab = &vocab;
    k.rules = &rules;
    k.taxonomy = &taxonomy;  // empty
    return k;
  }

  Vocabulary vocab;
  Taxonomy taxonomy;
  RuleSet rules;
  RuleId r1, r2, r3, r4, r5, r6;
  Record s, t;
};

/// A small generated MED or WIKI world (`profile_name` "med" or "wiki"):
/// taxonomy, synonym rules and a 30-string corpus with 10 planted truth
/// pairs, all drawn from `seed`. Not copyable: knowledge() points into it.
class GeneratedWorld {
 public:
  GeneratedWorld(const std::string& profile_name, uint64_t seed) {
    const bool wiki = profile_name == "wiki";
    TaxonomyGenOptions taxonomy_options;
    taxonomy_options.num_nodes = wiki ? 400 : 200;
    taxonomy_options.seed = seed;
    taxonomy = GenerateTaxonomy(taxonomy_options, &vocab);
    SynonymGenOptions synonym_options;
    synonym_options.num_rules = wiki ? 150 : 250;
    synonym_options.seed = seed + 1;
    rules = GenerateSynonyms(synonym_options, taxonomy, &vocab);
    CorpusGenerator gen(&vocab, &taxonomy, &rules);
    CorpusProfile profile =
        wiki ? CorpusProfile::Wiki(30) : CorpusProfile::Med(30);
    profile.seed += seed;
    corpus = gen.Generate(profile, {.num_pairs = 10, .seed = seed + 2});
  }
  GeneratedWorld(const GeneratedWorld&) = delete;
  GeneratedWorld& operator=(const GeneratedWorld&) = delete;

  Knowledge knowledge() const { return Knowledge{&vocab, &rules, &taxonomy}; }

  Vocabulary vocab;
  Taxonomy taxonomy;
  RuleSet rules;
  Corpus corpus;
};

}  // namespace aujoin

#endif  // AUJOIN_TESTS_TEST_FIXTURES_H_
