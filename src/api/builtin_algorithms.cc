// The five built-in JoinAlgorithm adapters: the paper's unified join plus
// the four Section 5.5 comparators, all streaming through MatchSink with
// normalized JoinStats.

#include <memory>

#include "api/registry.h"
#include "baselines/combination.h"
#include "join/join.h"

namespace aujoin {
namespace {

/// Maps a BaselineResult's normalized fields into JoinStats and streams
/// its (already sorted) pairs, counting results, until the sink asks to
/// stop.
Status EmitBaseline(const BaselineResult& result, MatchSink* sink,
                    JoinStats* stats) {
  stats->filter_seconds = result.filter_seconds;
  stats->verify_seconds = result.verify_seconds;
  stats->candidates = result.candidates;
  for (const auto& [first, second] : result.pairs) {
    ++stats->results;
    if (!sink->OnMatch(first, second)) break;
  }
  return Status::OK();
}

// ------------------------------------------------------------- unified

class UnifiedAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "unified"; }
  bool SupportsRsJoin() const override { return true; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    const JoinOptions join_options = {
        .theta = options.theta,
        .tau = options.tau,
        .method = options.method,
        .exact_min_partition = options.exact_min_partition,
        .usim = options.usim,
        .num_threads = context.num_threads};
    auto emit = [sink](uint32_t first, uint32_t second) {
      return sink->OnMatch(first, second);
    };
    *stats = UnifiedJoin(context.unified_context(), join_options,
                         context.stream_batch_size, emit);
    return Status::OK();
  }
};

// ------------------------------------------------------------ baselines

class KJoinAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "kjoin"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    KJoinOptions kjoin_options;
    kjoin_options.theta = options.theta;
    kjoin_options.num_threads = context.num_threads;
    KJoin join(*context.knowledge, kjoin_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class PkduckAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "pkduck"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    PkduckOptions pkduck_options;
    pkduck_options.theta = options.theta;
    pkduck_options.max_derivations = options.pkduck_max_derivations;
    pkduck_options.num_threads = context.num_threads;
    PkduckJoin join(*context.knowledge, pkduck_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class AdaptJoinAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "adaptjoin"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    AdaptJoinOptions adapt_options;
    adapt_options.theta = options.theta;
    adapt_options.q = options.adapt_q;
    adapt_options.ell_candidates = options.adapt_ell_candidates;
    adapt_options.sample_size = options.adapt_sample_size;
    adapt_options.num_threads = context.num_threads;
    AdaptJoin join(adapt_options);
    return EmitBaseline(join.SelfJoin(*context.s_records), sink, stats);
  }
};

class CombinationAlgorithm final : public JoinAlgorithm {
 public:
  const char* name() const override { return "combination"; }

  Status Run(const AlgorithmContext& context,
             const EngineJoinOptions& options, MatchSink* sink,
             JoinStats* stats) override {
    CombinationOptions combo_options;
    combo_options.kjoin.theta = options.theta;
    combo_options.adaptjoin.theta = options.theta;
    combo_options.adaptjoin.q = options.adapt_q;
    combo_options.adaptjoin.ell_candidates = options.adapt_ell_candidates;
    combo_options.adaptjoin.sample_size = options.adapt_sample_size;
    combo_options.pkduck.theta = options.theta;
    combo_options.pkduck.max_derivations = options.pkduck_max_derivations;
    combo_options.num_threads = context.num_threads;
    return EmitBaseline(
        CombinationJoin(*context.knowledge, *context.s_records,
                        combo_options),
        sink, stats);
  }
};

}  // namespace

void RegisterBuiltinJoinAlgorithms(AlgorithmRegistry* registry) {
  registry->Register("unified",
                     [] { return std::make_unique<UnifiedAlgorithm>(); });
  registry->Register("kjoin",
                     [] { return std::make_unique<KJoinAlgorithm>(); });
  registry->Register("pkduck",
                     [] { return std::make_unique<PkduckAlgorithm>(); });
  registry->Register("adaptjoin",
                     [] { return std::make_unique<AdaptJoinAlgorithm>(); });
  registry->Register("combination",
                     [] { return std::make_unique<CombinationAlgorithm>(); });
}

}  // namespace aujoin
