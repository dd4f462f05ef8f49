// Snapshot cold-start bench: rebuilding the PreparedIndex from records
// vs mounting the versioned on-disk snapshot (storage/snapshot_*.h),
// plus the LSM-style generational append + refreeze path. Two phases:
//
//   cold start — Save() once (write cost + file size), then --repeat
//                repetitions that each time one rebuild
//                (PreparedIndex::Build + the CSR build, the pre-snapshot
//                cold-start cost) and one Load() (the mmap cold-start
//                cost) back to back
//   append     — GenerationalIndex over the corpus minus a --append_pct
//                tail, append the tail, serve one query wave from
//                staging + frozen, then Refreeze into generation 1
//
// The loaded index must answer a full query sweep identically to the
// rebuilt one, and the refrozen generational index identically to a
// from-scratch build over the union corpus (the bench exits non-zero
// otherwise — it doubles as a round-trip parity check). The report
// lands in BENCH_<name>.json with the snapshot fields documented in
// docs/bench-schema.md; --min_speedup=<x> gates CI on the median
// per-repetition ratio of rebuild to mount time being at least x. Timing
// each pair back to back and taking the median keeps a burst of host
// load during a few repetitions from failing the gate.
//
// Typical invocation:
//   bench_snapshot --name=snapshot --profile=med --strings=300 \
//     --theta=0.7 --repeat=25 --min_speedup=5

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "storage/generational_index.h"
#include "util/timer.h"

namespace aujoin {
namespace {

/// One full query sweep: every record searched against `index` under
/// the serving contract. The result vector is the parity fingerprint.
std::vector<std::vector<UnifiedSearcher::Match>> Sweep(
    std::shared_ptr<const PreparedIndex> index,
    const std::vector<Record>& queries, double theta, int tau) {
  UnifiedSearcher searcher(std::move(index));
  UnifiedSearcher::SearchOptions options;
  options.theta = theta;
  options.tau = tau;
  std::vector<std::vector<UnifiedSearcher::Match>> out;
  out.reserve(queries.size());
  for (const Record& q : queries) out.push_back(searcher.Search(q, options));
  return out;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "snapshot");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 300));
  double theta = flags.GetDouble("theta", 0.7);
  int tau = static_cast<int>(flags.GetInt("tau", 1));
  int repeat = static_cast<int>(flags.GetInt("repeat", 5));
  int append_pct = static_cast<int>(flags.GetInt("append_pct", 10));
  double min_speedup = flags.GetDouble("min_speedup", 0.0);
  std::string snapshot_path =
      flags.GetString("snapshot_path", "bench_snapshot.aujsnap");
  std::string out_path = flags.GetString("out", "BENCH_" + name + ".json");

  PrintBanner("snapshot cold-start bench", "serving-index persistence",
              "mmap snapshot load beats pebble generation + CSR build");
  std::printf("corpus: profile=%s strings=%zu theta=%.2f tau=%d repeat=%d\n",
              profile.c_str(), strings, theta, tau, repeat);

  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1 (got %d)\n", repeat);
    return 1;
  }

  auto world = BuildWorld(profile, strings, /*num_truth_pairs=*/0);
  const std::vector<Record>& records = world->corpus.records;
  const Knowledge knowledge = world->knowledge();
  const MsimOptions msim{.q = 3};

  // --- phase 1: snapshot write, then paired cold starts ---------------
  std::shared_ptr<const PreparedIndex> rebuilt =
      PreparedIndex::Build(knowledge, msim, records, nullptr);
  rebuilt->ServingIndex();
  WallTimer timer;
  Status save = rebuilt->Save(snapshot_path);
  double write_seconds = timer.Seconds();
  if (!save.ok()) {
    std::fprintf(stderr, "FAILED to save %s: %s\n", snapshot_path.c_str(),
                 save.ToString().c_str());
    return 2;
  }
  uint64_t snapshot_bytes = 0;
  {
    std::FILE* probe = std::fopen(snapshot_path.c_str(), "rb");
    if (probe != nullptr) {
      std::fseek(probe, 0, SEEK_END);
      snapshot_bytes = static_cast<uint64_t>(std::ftell(probe));
      std::fclose(probe);
    }
  }

  // Each repetition times one rebuild and one mount back to back, so
  // both halves of a ratio see the same host load. It first drops the
  // previous repetition's indexes, untimed: a cold start frees no index,
  // and freeing one whose memory the other half has just pushed out of
  // the caches nearly doubled a mount's time.
  std::shared_ptr<const PreparedIndex> loaded;
  double rebuild_total = 0.0;
  double load_total = 0.0;
  std::vector<double> ratios;
  for (int r = 0; r < repeat; ++r) {
    rebuilt.reset();
    loaded.reset();
    timer.Restart();
    rebuilt = PreparedIndex::Build(knowledge, msim, records, nullptr);
    rebuilt->ServingIndex();  // the cold start isn't over until the CSR is
    const double rebuild = timer.Seconds();
    timer.Restart();
    Result<std::shared_ptr<const PreparedIndex>> load =
        PreparedIndex::Load(knowledge, msim, records, nullptr, snapshot_path);
    if (!load.ok()) {
      std::fprintf(stderr, "FAILED to load %s: %s\n", snapshot_path.c_str(),
                   load.status().ToString().c_str());
      return 2;
    }
    loaded = *load;
    const double mount = timer.Seconds();
    rebuild_total += rebuild;
    load_total += mount;
    ratios.push_back(mount > 0.0 ? rebuild / mount : 0.0);
  }
  std::remove(snapshot_path.c_str());
  double rebuild_seconds = rebuild_total / repeat;
  double load_seconds = load_total / repeat;
  // The gate's statistic: the median ratio (the lower one of an even
  // count).
  std::nth_element(ratios.begin(), ratios.begin() + (repeat - 1) / 2,
                   ratios.end());
  double speedup = ratios[(repeat - 1) / 2];

  // Parity: the mounted index must serve exactly what the rebuilt one
  // serves, query by query, match by match.
  if (Sweep(rebuilt, records, theta, tau) !=
      Sweep(loaded, records, theta, tau)) {
    std::fprintf(stderr,
                 "PARITY FAILURE: snapshot-served results differ from the "
                 "rebuilt index\n");
    return 2;
  }

  // --- phase 2: generational append + refreeze -------------------------
  size_t tail = records.size() * static_cast<size_t>(append_pct) / 100;
  if (tail == 0) tail = 1;
  size_t base = records.size() - tail;
  std::vector<Record> initial(records.begin(), records.begin() + base);
  GenerationalIndex generational(knowledge, msim, std::move(initial));
  timer.Restart();
  for (size_t i = base; i < records.size(); ++i) {
    generational.Append(records[i]);
  }
  // The first query pays the staging mini-index build; charge it to the
  // append path, where an online serving system would amortise it.
  UnifiedSearcher::SearchOptions gen_options;
  gen_options.theta = theta;
  gen_options.tau = tau;
  SearchSlices(records[0], kAllMatches, gen_options, generational.Pin());
  double append_seconds = timer.Seconds();

  timer.Restart();
  generational.Refreeze();
  double refreeze_seconds = timer.Seconds();
  if (generational.generation() != 1 || generational.num_staged() != 0 ||
      generational.num_frozen() != records.size()) {
    std::fprintf(stderr, "FAILED: refreeze left generation=%llu staged=%zu\n",
                 static_cast<unsigned long long>(generational.generation()),
                 generational.num_staged());
    return 2;
  }
  // Parity: the compacted generation equals a from-scratch build over
  // the union corpus.
  if (Sweep(generational.frozen_index(), records, theta, tau) !=
      Sweep(rebuilt, records, theta, tau)) {
    std::fprintf(stderr,
                 "PARITY FAILURE: refrozen generation differs from the "
                 "from-scratch index\n");
    return 2;
  }

  // --- report -----------------------------------------------------------
  BenchRun run;
  run.algorithm = "snapshot";
  run.variant = "cold-start";
  run.measures = "TJS";
  run.theta = theta;
  run.tau = tau;
  run.threads = 1;
  run.num_records = records.size();
  run.ok = true;
  run.total_seconds = rebuild_seconds + write_seconds + load_seconds;
  run.wall_seconds = run.total_seconds;
  run.has_snapshot = true;
  run.rebuild_seconds = rebuild_seconds;
  run.snapshot_write_seconds = write_seconds;
  run.snapshot_load_seconds = load_seconds;
  run.cold_start_speedup = speedup;
  run.snapshot_bytes = snapshot_bytes;
  run.append_records_per_sec =
      append_seconds > 0.0 ? static_cast<double>(tail) / append_seconds : 0.0;
  run.refreeze_seconds = refreeze_seconds;
  run.peak_rss_bytes = CurrentPeakRssBytes();

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = records.size();
  report.runs.push_back(run);

  std::printf("cold start (%d reps): mean rebuild=%.4fs mean load=%.4fs, "
              "median ratio %.1fx (snapshot %llu bytes, write=%.4fs)\n",
              repeat, rebuild_seconds, load_seconds, speedup,
              static_cast<unsigned long long>(snapshot_bytes), write_seconds);
  std::printf("generational: %zu appends in %.4fs (%.0f rec/s), "
              "refreeze=%.4fs\n",
              tail, append_seconds, run.append_records_per_sec,
              refreeze_seconds);

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), report.runs.size());

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: median snapshot cold-start speedup %.2fx "
                 "below the --min_speedup=%.2f gate\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
