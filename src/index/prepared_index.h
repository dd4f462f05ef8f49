/// \file
/// The shared immutable prepared index — the "index once, probe many"
/// half of the serving architecture. PreparedIndex::Build runs the
/// prepare step (pebble generation + global frequency order) exactly
/// once for a pair of collections; afterwards the object is immutable
/// and every const method is safe to call from any number of threads
/// concurrently. The monolithic join (JoinContext), the partitioned
/// pipeline's block contexts, the online searcher (UnifiedSearcher)
/// and the Engine serving API (Engine::Search / Engine::BatchSearch)
/// all borrow one PreparedIndex instead of owning private copies.

#ifndef AUJOIN_INDEX_PREPARED_INDEX_H_
#define AUJOIN_INDEX_PREPARED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/knowledge.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/csr_index.h"
#include "index/global_order.h"
#include "index/pebble.h"
#include "util/lazy_publish.h"
#include "util/status.h"

namespace aujoin {

class Env;

/// Build-once, read-many prepared state for one pair of collections
/// (pass `t == nullptr` for a self-join): both sides' pebbles, the
/// shared gram dictionary and the global frequency order, plus a
/// lazily built full-key inverted index over the T side for online
/// search ("the serving index").
///
/// Thread-safety model (the immutable-SST idea): Build is the only
/// mutating phase and returns a shared_ptr to a const PreparedIndex;
/// all const methods afterwards are concurrency-safe. The lazy serving
/// index is built once and published through a LazyPublish
/// (util/lazy_publish.h), so the first probes may block on its
/// construction but never observe a partial index. Records are
/// borrowed, not copied; they must outlive every holder of the index.
class PreparedIndex {
 public:
  /// Runs the prepare step: pebble generation for both collections and
  /// the global frequency order. The only way to obtain an instance.
  static std::shared_ptr<const PreparedIndex> Build(
      const Knowledge& knowledge, const MsimOptions& msim,
      const std::vector<Record>& s, const std::vector<Record>* t);

  bool self_join() const { return t_records_ == s_records_; }
  const std::vector<Record>& s_records() const { return *s_records_; }
  const std::vector<Record>& t_records() const { return *t_records_; }
  const std::vector<PreparedRecord>& s_prepared() const {
    return s_prepared_;
  }
  const std::vector<PreparedRecord>& t_prepared() const {
    return self_join() ? s_prepared_ : t_prepared_;
  }
  const Knowledge& knowledge() const { return knowledge_; }
  const MsimOptions& msim_options() const { return msim_; }
  const GlobalOrder& global_order() const { return order_; }
  /// The gram dictionary both collections' gram pebbles were interned
  /// into. Read-only after Build; query-time generation overlays it.
  const Vocabulary& gram_dict() const { return gram_dict_; }
  /// Wall seconds of Build (pebbles + global order).
  double prepare_seconds() const { return prepare_seconds_; }

  /// The full-key index over the T side (every distinct pebble key of
  /// every record, not just signature prefixes) — what online search
  /// probes. Built by counting into a CSR layout, so every probe is a
  /// sequential posting scan. Built on first use; subsequent calls read
  /// the published index without a lock. The call that builds it adds
  /// the build seconds to `*built_seconds`, so concurrent first probes
  /// charge the cost exactly once.
  const CsrIndex& ServingIndex(double* built_seconds = nullptr) const;

  /// Wall seconds spent building the serving index; 0.0 until the
  /// first ServingIndex() call forces construction.
  double index_seconds() const;

  /// Generates a query's pebbles against the immutable gram dictionary
  /// and sorts them by the global order — the const, concurrency-safe
  /// twin of the build-time generation. Grams the indexed collections
  /// never produced cannot match anything, so instead of interning
  /// them this assigns per-call overlay ids past the dictionary (two
  /// occurrences of the same unseen gram in one query still collide
  /// with each other, keeping distinct-key counts and weights exact).
  RecordPebbles GenerateQueryPebbles(const Record& query) const;

  /// Serialises the prepared state (both sides' pebble tables, the gram
  /// dictionary, the global order and the frozen serving CSR) into the
  /// versioned snapshot format at `path`, forcing the serving index to
  /// exist first. The written file embeds fingerprints of the borrowed
  /// records and knowledge so Load can refuse a mismatched world. All
  /// I/O goes through `env` (nullptr = Env::Default()).
  /// Implemented in storage/index_snapshot.cc.
  Status Save(const std::string& path, Env* env = nullptr) const;

  /// Rebuilds a prepared index from a snapshot instead of re-running
  /// pebble generation. The caller supplies the same knowledge, options
  /// and record collections the snapshot was built from (records are
  /// borrowed exactly as in Build); fingerprint mismatches return
  /// kFailedPrecondition, damaged files kCorruption — never a partially
  /// loaded index. The CSR serving sections are served zero-copy out of
  /// the snapshot mapping, which the returned index keeps alive.
  /// Implemented in storage/index_snapshot.cc.
  static Result<std::shared_ptr<const PreparedIndex>> Load(
      const Knowledge& knowledge, const MsimOptions& msim,
      const std::vector<Record>& s, const std::vector<Record>* t,
      const std::string& path, Env* env = nullptr);

 private:
  PreparedIndex() = default;

  Knowledge knowledge_;
  MsimOptions msim_;
  Vocabulary gram_dict_;
  GlobalOrder order_;
  std::vector<PreparedRecord> s_prepared_;
  std::vector<PreparedRecord> t_prepared_;
  const std::vector<Record>* s_records_ = nullptr;
  const std::vector<Record>* t_records_ = nullptr;
  double prepare_seconds_ = 0.0;

  /// The serving index and its build seconds (0 when mounted).
  struct Serving {
    CsrIndex csr;
    double seconds = 0.0;
  };
  LazyPublish<Serving> serving_;
};

}  // namespace aujoin

#endif  // AUJOIN_INDEX_PREPARED_INDEX_H_
