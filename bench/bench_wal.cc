// Write-ahead-log bench: durable-append throughput and crash-recovery
// replay cost for the staged-append path (storage/wal_*.h). Two phases:
//
//   append    — GenerationalIndex over the corpus minus a --append_pct
//               tail, with a WAL attached: every AppendDurable logs one
//               checksummed record and fsyncs before acknowledging
//               (records/sec is the price of the durability contract)
//   recover   — replay the log --repeat times: read + checksum-verify
//               every record, re-tokenise its text, and stage it on a
//               fresh index over the base (the cold-start after a crash)
//   mt append — the same durable appends issued from --append_threads
//               concurrent threads against a fresh index + log: the
//               group-commit path batches queued appends behind one
//               fsync, so syncs-per-append drops below 1 while every
//               caller keeps the acknowledged-means-durable contract
//
// The recovered index must answer a full query sweep identically to a
// from-scratch build over the union corpus, and replay must recover
// EXACTLY the appended records — the bench exits non-zero otherwise,
// so it doubles as an end-to-end recovery parity check. The report
// lands in BENCH_<name>.json with the wal_* fields documented in
// docs/bench-schema.md.
//
// Typical invocation:
//   bench_wal --name=wal --profile=med --strings=300 --theta=0.7 \
//     --append_pct=20 --repeat=5

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "index/prepared_index.h"
#include "join/search.h"
#include "storage/env.h"
#include "storage/generational_index.h"
#include "storage/wal_format.h"
#include "storage/wal_reader.h"
#include "storage/wal_writer.h"
#include "util/timer.h"

namespace aujoin {
namespace {

std::vector<std::vector<UnifiedSearcher::Match>> Sweep(
    const GenerationalIndex& index, const std::vector<Record>& queries,
    double theta, int tau) {
  UnifiedSearcher::SearchOptions options;
  options.theta = theta;
  options.tau = tau;
  std::vector<std::vector<UnifiedSearcher::Match>> out;
  out.reserve(queries.size());
  for (const Record& q : queries) {
    out.push_back(SearchSlices(q, kAllMatches, options, index.Pin()));
  }
  return out;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string name = flags.GetString("name", "wal");
  std::string profile = flags.GetString("profile", "med");
  size_t strings = static_cast<size_t>(flags.GetInt("strings", 300));
  double theta = flags.GetDouble("theta", 0.7);
  int tau = static_cast<int>(flags.GetInt("tau", 1));
  int repeat = static_cast<int>(flags.GetInt("repeat", 5));
  int append_pct = static_cast<int>(flags.GetInt("append_pct", 20));
  int append_threads = static_cast<int>(flags.GetInt("append_threads", 4));
  double min_append_rps = flags.GetDouble("min_append_rps", 0.0);
  std::string wal_path = flags.GetString("wal_path", "bench_wal.wal");
  std::string out_path = flags.GetString("out", "BENCH_" + name + ".json");

  PrintBanner("write-ahead-log bench", "staged-append durability",
              "fsync-per-append throughput and crash-recovery replay");
  std::printf("corpus: profile=%s strings=%zu theta=%.2f tau=%d "
              "append_pct=%d repeat=%d\n",
              profile.c_str(), strings, theta, tau, append_pct, repeat);

  auto world = BuildWorld(profile, strings, /*num_truth_pairs=*/0);
  const std::vector<Record>& records = world->corpus.records;
  const Knowledge knowledge = world->knowledge();
  const MsimOptions msim{.q = 3};
  Env* env = Env::Default();

  size_t tail = records.size() * static_cast<size_t>(append_pct) / 100;
  if (tail == 0) tail = 1;
  size_t base_count = records.size() - tail;
  std::vector<Record> base(records.begin(), records.begin() + base_count);

  // --- phase 1: durable appends (one fsynced WAL record each) ----------
  GenerationalIndex live(knowledge, msim, base);
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(env, wal_path, /*truncate=*/true);
  if (!wal.ok()) {
    std::fprintf(stderr, "FAILED to open %s: %s\n", wal_path.c_str(),
                 wal.status().ToString().c_str());
    return 2;
  }
  live.AttachWal(wal->get());
  WallTimer timer;
  for (size_t i = base_count; i < records.size(); ++i) {
    Result<uint32_t> id = live.AppendDurable(records[i]);
    if (!id.ok() || *id != i) {
      std::fprintf(stderr, "FAILED durable append %zu: %s\n", i,
                   id.ok() ? "wrong id" : id.status().ToString().c_str());
      return 2;
    }
  }
  double append_seconds = timer.Seconds();
  uint64_t wal_bytes = (*wal)->size();

  // --- phase 2: crash-recovery replay ----------------------------------
  // A recovering process reads the log, re-tokenises every payload and
  // stages it over the base — measured from a fresh index each round so
  // the cost includes the staging side, not just the file scan.
  double recovery_seconds = 0.0;
  uint64_t recovered = 0;
  std::unique_ptr<GenerationalIndex> cold;
  for (int r = 0; r < repeat; ++r) {
    timer.Restart();
    cold = std::make_unique<GenerationalIndex>(
        knowledge, msim, std::vector<Record>(base));
    Result<WalReplay> replay = WalReader::ReadAll(env, wal_path);
    if (!replay.ok()) {
      std::fprintf(stderr, "FAILED to replay %s: %s\n", wal_path.c_str(),
                   replay.status().ToString().c_str());
      return 2;
    }
    recovered = 0;
    for (const std::string& payload : replay->records) {
      uint32_t id = 0;
      std::string_view text;
      if (!DecodeWalAppend(payload, &id, &text)) {
        std::fprintf(stderr, "FAILED: malformed WAL append payload\n");
        return 2;
      }
      cold->Append(MakeRecord(id, std::string(text), &world->vocab));
      ++recovered;
    }
    // The first query pays the staging mini-index build; recovery isn't
    // over until the index can serve.
    UnifiedSearcher::SearchOptions options;
    options.theta = theta;
    options.tau = tau;
    SearchSlices(records[0], kAllMatches, options, cold->Pin());
    recovery_seconds += timer.Seconds();
  }
  recovery_seconds /= repeat;
  std::remove(wal_path.c_str());

  if (recovered != tail) {
    std::fprintf(stderr,
                 "RECOVERY FAILURE: %llu records replayed, %zu were "
                 "acknowledged durable\n",
                 static_cast<unsigned long long>(recovered), tail);
    return 2;
  }
  // Parity: the recovered index serves exactly like the index that
  // never crashed (and both like a scratch build over the union).
  GenerationalIndex scratch(knowledge, msim, records);
  if (Sweep(*cold, records, theta, tau) !=
          Sweep(scratch, records, theta, tau) ||
      Sweep(live, records, theta, tau) !=
          Sweep(scratch, records, theta, tau)) {
    std::fprintf(stderr,
                 "PARITY FAILURE: recovered serving differs from the "
                 "never-crashed index\n");
    return 2;
  }

  // --- phase 3: concurrent durable appends (group commit) --------------
  // The same tail appended from several threads against a fresh index
  // and log. Arrival order — and so which record gets which id — is
  // nondeterministic; the checks are set-based: every append
  // acknowledged with a unique in-range id, and the log's replay
  // agreeing with the staged state record by record.
  double mt_seconds = 0.0;
  uint64_t mt_syncs = 0;
  if (append_threads > 1) {
    std::string mt_path = wal_path + ".mt";
    GenerationalIndex mt(knowledge, msim, base);
    Result<std::unique_ptr<WalWriter>> mt_wal =
        WalWriter::Open(env, mt_path, /*truncate=*/true);
    if (!mt_wal.ok()) {
      std::fprintf(stderr, "FAILED to open %s: %s\n", mt_path.c_str(),
                   mt_wal.status().ToString().c_str());
      return 2;
    }
    mt.AttachWal(mt_wal->get());
    std::vector<std::vector<uint32_t>> ids(append_threads);
    std::vector<int> failed(append_threads, 0);
    timer.Restart();
    std::vector<std::thread> workers;
    for (int w = 0; w < append_threads; ++w) {
      workers.emplace_back([&, w] {
        for (size_t i = base_count + w; i < records.size();
             i += append_threads) {
          Result<uint32_t> id = mt.AppendDurable(records[i]);
          if (!id.ok()) {
            failed[w] = 1;
            return;
          }
          ids[w].push_back(*id);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    mt_seconds = timer.Seconds();
    mt_syncs = (*mt_wal)->sync_count();

    std::vector<uint32_t> all_ids;
    for (const auto& per_thread : ids) {
      all_ids.insert(all_ids.end(), per_thread.begin(), per_thread.end());
    }
    std::sort(all_ids.begin(), all_ids.end());
    bool ids_ok = all_ids.size() == tail;
    for (size_t i = 0; ids_ok && i < all_ids.size(); ++i) {
      ids_ok = all_ids[i] == base_count + i;
    }
    if (std::count(failed.begin(), failed.end(), 0) != append_threads ||
        !ids_ok) {
      std::fprintf(stderr,
                   "GROUP-COMMIT FAILURE: concurrent appends did not yield "
                   "one unique in-range id each\n");
      return 2;
    }
    Result<WalReplay> mt_replay = WalReader::ReadAll(env, mt_path);
    if (!mt_replay.ok() || mt_replay->records.size() != tail) {
      std::fprintf(stderr, "GROUP-COMMIT FAILURE: replay of %s\n",
                   mt_path.c_str());
      return 2;
    }
    for (const std::string& payload : mt_replay->records) {
      uint32_t id = 0;
      std::string_view text;
      if (!DecodeWalAppend(payload, &id, &text) || mt.TextOf(id) != text) {
        std::fprintf(stderr,
                     "GROUP-COMMIT FAILURE: replayed record disagrees with "
                     "the staged state\n");
        return 2;
      }
    }
    std::remove(mt_path.c_str());
  }

  // --- report -----------------------------------------------------------
  double append_rps =
      append_seconds > 0.0 ? static_cast<double>(tail) / append_seconds : 0.0;
  BenchRun run;
  run.algorithm = "wal";
  run.variant = "durable-append";
  run.measures = "TJS";
  run.theta = theta;
  run.tau = tau;
  run.threads = 1;
  run.num_records = records.size();
  run.ok = true;
  run.total_seconds = append_seconds + recovery_seconds;
  run.wall_seconds = run.total_seconds;
  run.has_wal = true;
  run.wal_append_records_per_sec = append_rps;
  run.wal_recovery_seconds = recovery_seconds;
  run.wal_recovered_records = recovered;
  run.wal_bytes = wal_bytes;
  if (append_threads > 1) {
    run.wal_mt_threads = static_cast<uint64_t>(append_threads);
    run.wal_mt_append_records_per_sec =
        mt_seconds > 0.0 ? static_cast<double>(tail) / mt_seconds : 0.0;
    run.wal_mt_syncs_per_append =
        tail > 0 ? static_cast<double>(mt_syncs) / static_cast<double>(tail)
                 : 0.0;
  }
  run.peak_rss_bytes = CurrentPeakRssBytes();

  BenchReport report;
  report.name = name;
  report.profile = profile;
  report.num_records = records.size();
  report.runs.push_back(run);

  std::printf("durable appends: %zu in %.4fs (%.0f rec/s, one fsync "
              "each; log %llu bytes)\n",
              tail, append_seconds, append_rps,
              static_cast<unsigned long long>(wal_bytes));
  std::printf("recovery (%d reps): replay + re-tokenise + stage %llu "
              "records in %.4fs\n",
              repeat, static_cast<unsigned long long>(recovered),
              recovery_seconds);
  if (append_threads > 1) {
    std::printf("group commit: %zu appends from %d threads in %.4fs "
                "(%.0f rec/s, %llu fsyncs = %.2f per append)\n",
                tail, append_threads, mt_seconds,
                run.wal_mt_append_records_per_sec,
                static_cast<unsigned long long>(mt_syncs),
                run.wal_mt_syncs_per_append);
  }

  if (!report.WriteJsonFile(out_path)) {
    std::fprintf(stderr, "FAILED to write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), report.runs.size());

  if (min_append_rps > 0.0 && append_rps < min_append_rps) {
    std::fprintf(stderr,
                 "SMOKE FAILURE: %.0f durable appends/sec below the "
                 "--min_append_rps=%.0f gate\n",
                 append_rps, min_append_rps);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
