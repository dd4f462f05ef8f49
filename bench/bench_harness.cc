// The machine-readable benchmark harness: runs an
// (algorithm × theta × tau × threads × shards) grid over a
// generated corpus and writes BENCH_<name>.json for CI and trend
// tracking. The CI smoke job runs this with --require_nonzero so a
// regression that silently empties an algorithm's match set fails the
// build instead of flattening a curve nobody looks at.
//
// Typical invocations:
//   bench_harness --name=smoke --profile=med --strings=300 --pairs=60 \
//     --theta=0.7 --tau=2 --threads=1,0 --shards=0,4 --require_nonzero
//   bench_harness --name=nightly --strings=5000 --pairs=500 \
//     --theta=0.7,0.8,0.9 --tau=1,2,3 --threads=1,4,0 --shards=0,5

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dataset/manifest.h"
#include "harness.h"

namespace aujoin {
namespace {

std::vector<std::string> SplitCommaList(const std::string& value) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t comma = value.find(',', begin);
    if (comma == std::string::npos) comma = value.size();
    if (comma > begin) out.push_back(value.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

void PrintRun(const BenchRun& run) {
  const auto shards = static_cast<unsigned long long>(run.stats.shards);
  if (!run.ok) {
    std::printf("%-12s th=%.2f tau=%d thr=%d shards=%-4llu error: %s\n",
                run.algorithm.c_str(), run.theta, run.tau, run.threads, shards,
                run.error.c_str());
    return;
  }
  std::printf(
      "%-12s th=%.2f tau=%d thr=%d shards=%-4llu %8.3fs wall=%-8.3f "
      "cand=%-8llu res=%-6llu",
      run.algorithm.c_str(), run.theta, run.tau, run.threads, shards,
      run.total_seconds, run.wall_seconds,
      static_cast<unsigned long long>(run.stats.candidates),
      static_cast<unsigned long long>(run.stats.results));
  if (run.stats.partition_blocks > 0) {
    std::printf(" blocks=%llu",
                static_cast<unsigned long long>(run.stats.partition_blocks));
  }
  if (run.has_prf) {
    std::printf(" F=%.2f", run.prf.f_measure);
  }
  std::printf("\n");
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "harness");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 400));
  size_t pairs = static_cast<size_t>(flags.GetInt("pairs", 80));
  std::string out_path =
      flags.GetString("out", "BENCH_" + name + ".json");
  bool require_nonzero = flags.GetBool("require_nonzero", false);

  BenchGrid grid;
  grid.algorithms = SplitCommaList(flags.GetString("algorithms", ""));
  grid.thetas = flags.GetDoubleList("theta", {0.70, 0.80});
  grid.measures = flags.GetString("measures", "TJS");
  grid.q = static_cast<int>(flags.GetInt("q", 3));
  grid.taus.clear();
  for (int64_t tau : flags.GetIntList("tau", {2})) {
    grid.taus.push_back(static_cast<int>(tau));
  }
  grid.threads.clear();
  for (int64_t threads : flags.GetIntList("threads", {1, 0})) {
    grid.threads.push_back(static_cast<int>(threads));
  }
  grid.shard_counts.clear();
  for (int64_t shards : flags.GetIntList("shards", {0})) {
    grid.shard_counts.push_back(static_cast<size_t>(shards));
  }

  PrintBanner("benchmark harness grid", "machine-readable",
              "writes BENCH_<name>.json; see README for the schema");
  std::printf("corpus: profile=%s strings=%zu truth_pairs=%zu\n",
              profile.c_str(), strings, pairs);

  auto world = BuildWorld(profile, strings, pairs);
  BenchHarness harness(world->knowledge(), &world->corpus.records);

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = world->corpus.records.size();
  report.num_truth_pairs = world->corpus.truth_pairs.size();
  DatasetManifest manifest =
      BuildManifest(world->corpus.records, world->vocab, &world->rules,
                    &world->taxonomy);
  manifest.source = "datagen:" + profile;
  manifest.format = "generated";
  report.dataset_manifest_json = manifest.ToJson();
  report.runs = harness.RunGrid(grid, &world->corpus.truth_pairs);

  for (const BenchRun& run : report.runs) PrintRun(run);

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(),
              report.runs.size());

  if (require_nonzero) {
    // The smoke gate: the generated corpus plants truth pairs, so every
    // (algorithm × shards × threads) configuration the parity tests
    // cover must find something — a per-configuration check, so a
    // regression that empties only the sharded or only the threaded
    // cells still fails the job.
    std::vector<std::string> zero = report.ZeroResultConfigurations();
    for (const std::string& label : zero) {
      std::fprintf(stderr,
                   "SMOKE FAILURE: %s returned zero matches across its "
                   "grid cells\n",
                   label.c_str());
    }
    if (!zero.empty()) return 1;
    std::printf(
        "smoke check passed: every configuration found matches\n");
  }
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
