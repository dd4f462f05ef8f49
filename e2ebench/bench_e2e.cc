// bench_e2e: the end-to-end performance ledger of aujoin.
//
// One process runs ONE workload on inputs generated from --seed, for
// --seconds of measured time, checks that every output is correct, and
// reports every metric twice: as "name value unit" lines on stdout and
// as a flat JSON ledger entry ({workload: {metric: value}} plus host,
// compiler, active kernel and seed). README.md in this directory says
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
//   join_med           unified self-join over med worlds, monolithic
//   join_wiki_sharded  unified self-join over wiki worlds, 4 hash shards,
//                      spilling to disk
//   serve_med          Engine::Search top-k from 4 closed-loop clients
//   append_mixed       open-loop durable appends beside 3 closed-loop
//                      readers, then restarts from checkpoint + WAL
//   cold_start_large   a 4-shard snapshot, restart-to-first-answer loop
//
// Untraced runs time the engine only. A traced run (--trace=FILE)
// additionally replays each workload's operations through the layers'
// public functions (PreparedIndex::Build, JoinContext::RunFilter,
// SelectSignature, CandidateAccumulator, UsimComputer::Approx, ...),
// keeps one span per call in memory, reports the per-layer metrics
// and writes the spans as Chrome trace-event JSON.
//
// Usage:
//   bench_e2e --workload=join_med --seed=1 --seconds=10
//             --work_dir=DIR --json=FILE [--trace=FILE]
//             [--expect_results=N --expect_digest=HEX]
//
// Exit codes: 0 = every check passed; 3 = a correctness check failed
// (the ledger is still written, with "correct": false); 2 = bad usage
// or an environment error (no ledger).

#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench_common.h"
#include "core/usim.h"
#include "harness.h"
#include "index/csr_index.h"
#include "index/prepared_index.h"
#include "join/join.h"
#include "join/search.h"
#include "join/signature.h"
#include "kernels/kernels.h"
#include "shard/shard_plan.h"
#include "storage/checksum.h"
#include "storage/generational_index.h"
#include "text/tokenizer.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace aujoin {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Pair = std::pair<uint32_t, uint32_t>;
using Match = UnifiedSearcher::Match;

/// Engine workers and client threads per workload: the 4-core machine
/// the workloads were sized on, without oversubscribing it.
constexpr int kThreads = 4;
/// Set-up runs this many times per process; setup_s is the median.
constexpr int kSetupRepeats = 5;
/// A percentile is reported only with at least this many samples
/// strictly above it.
constexpr size_t kMinBeyond = 10;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// BetterMatch of the serving path: similarity desc, then id asc.
bool Ranked(const Match& a, const Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

// ------------------------------------------------------------------ ledger

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: end-to-end metrics (untraced runs),
/// per-layer metrics (traced runs), workload-specific extras, the
/// operation counts and every failed correctness check.
class Ledger {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layer_.push_back({name, value, unit});
  }
  /// A number kept in the ledger but not part of the contract metrics
  /// (BENCHMARK.json lists only metrics every workload reports).
  void Extra(const std::string& name, double value, const char* unit) {
    extra_.push_back({name, value, unit});
  }

  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failures_.size() < 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    failures_.push_back(what);
  }
  /// Counts one engine call; a non-OK status is a failed operation and
  /// also fails the run (no operation of these workloads may fail).
  void Call(const Status& status, const char* what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      Fail(std::string(what) + ": " + status.ToString());
    }
  }

  void SetOutput(uint64_t results, uint64_t digest) {
    results_ = results;
    digest_ = digest;
  }
  uint64_t results() const { return results_; }
  uint64_t digest() const { return digest_; }
  bool correct() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failures_.empty();
  }

  void Print() const {
    for (const auto* group : {&end_to_end_, &layer_, &extra_}) {
      for (const Metric& m : *group) {
        std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::fflush(stdout);
  }

  std::string ToJson(const std::map<std::string, std::string>& info,
                     const std::string& workload) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<Metric> extra_;
  mutable std::mutex mutex_;
  std::vector<std::string> failures_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  uint64_t results_ = 0;
  uint64_t digest_ = 0;
};

void AppendJsonText(const std::string& s, std::string* out) {
  *out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

/// Every digit a double carries: a perf gate must see the measured
/// value, not a rounding of it.
std::string FullDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Ledger::ToJson(const std::map<std::string, std::string>& info,
                           const std::string& workload) const {
  std::string out = "{\n";
  for (const auto& [key, value] : info) {
    out += "  ";
    AppendJsonText(key, &out);
    out += ": ";
    AppendJsonText(value, &out);
    out += ",\n";
  }
  std::lock_guard<std::mutex> lock(mutex_);
  out += "  \"correct\": ";
  out += failures_.empty() ? "true" : "false";
  out += ",\n  \"attempted\": " + std::to_string(attempted_.load());
  out += ",\n  \"failed\": " + std::to_string(failed_.load());
  out += ",\n  \"results\": " + std::to_string(results_);
  out += ",\n  \"digest\": \"" + Hex64(digest_) + "\"";
  out += ",\n  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += i == 0 ? "" : ", ";
    AppendJsonText(failures_[i], &out);
  }
  out += "],\n  ";
  AppendJsonText(workload, &out);
  out += ": {";
  bool first = true;
  std::string units = "  \"units\": {";
  for (const auto* group : {&end_to_end_, &layer_, &extra_}) {
    for (const Metric& m : *group) {
      out += first ? "\n    " : ",\n    ";
      units += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonText(m.name, &out);
      out += ": " + FullDouble(m.value);
      AppendJsonText(m.name, &units);
      units += ": ";
      AppendJsonText(m.unit, &units);
    }
  }
  out += "\n  },\n" + units + "\n  }\n}\n";
  return out;
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
size_t Rank(size_t n, double p) {
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  return std::min(std::max<size_t>(rank, 1), n);
}

/// Nearest-rank percentile `p` of `samples`. Fails the run, naming
/// `metric`, when fewer than kMinBeyond samples lie above the rank: a
/// percentile read off a handful of points is noise, not a measurement.
double Percentile(std::vector<double> samples, double p,
                  const std::string& metric, Ledger* ledger) {
  if (samples.empty()) {
    ledger->Fail(metric + ": no samples");
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t rank = Rank(n, p);
  if (n - rank < kMinBeyond) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: p%g of %zu samples has only %zu beyond it (needs %zu)",
                  metric.c_str(), p, n, n - rank, kMinBeyond);
    ledger->Fail(buf);
  }
  return samples[rank - 1];
}

/// The highest of p99.9/p99/p95/p90 that has kMinBeyond samples beyond
/// it, as (percentile, value); nullopt when even p90 has too few.
std::optional<std::pair<double, double>> Tail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (n > 0 && n - Rank(n, p) >= kMinBeyond) {
      return std::make_pair(p, samples[Rank(n, p) - 1]);
    }
  }
  return std::nullopt;
}

/// Reports a latency distribution's sample count and highest supported
/// tail as extras, named e.g. search_p99_ms.
void ReportTail(const std::string& prefix, const std::vector<double>& s,
                Ledger* ledger) {
  ledger->Extra(prefix + "_samples", static_cast<double>(s.size()), "count");
  if (auto tail = Tail(s)) {
    char name[96];
    std::snprintf(name, sizeof(name), "%s_p%g_ms", prefix.c_str(),
                  tail->first);
    ledger->Extra(name, tail->second * 1e3, "ms");
  }
}

// ------------------------------------------------------------------- trace

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

/// In-memory span store of a traced run. Spans carry the id of the
/// operation they belong to and of their parent span, so the written
/// trace nests every layer call under the operation that caused it.
class Tracer {
 public:
  struct Event {
    const char* name;
    double start_s;
    double dur_s;
    uint32_t tid;
    uint64_t op;
    uint64_t id;
    uint64_t parent;
  };

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  /// A fresh operation id: every span of one operation carries it.
  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  void Add(const char* name, Clock::time_point start, double dur_s,
           uint64_t op, uint64_t id, uint64_t parent) {
    const double start_s =
        std::chrono::duration<double>(start - origin_).count();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({name, start_s, dur_s, ThreadIndex(), op, id, parent});
  }

  bool WriteChromeTrace(const std::string& path,
                        const std::string& workload) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
    out += "\"workload\": ";
    AppendJsonText(workload, &out);
    out += "},\n\"traceEvents\": [\n";
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const char* dot = std::strchr(e.name, '.');
      const std::string layer =
          dot == nullptr ? e.name : std::string(e.name, dot - e.name);
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                    "\"args\": {\"op\": %" PRIu64 ", \"span\": %" PRIu64
                    ", \"parent\": %" PRIu64 "}}%s\n",
                    e.name, layer.c_str(), e.start_s * 1e6, e.dur_s * 1e6,
                    e.tid, e.op, e.id, e.parent,
                    i + 1 == events_.size() ? "" : ",");
      out += buf;
    }
    out += "]}\n";
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << out;
    return static_cast<bool>(file);
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_op_{0};
};

/// One timed region of a traced run, recorded when End() is called or
/// the object dies. `name` must be a string literal "layer.call".
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op, uint64_t parent)
      : tracer_(tracer),
        name_(name),
        op_(op),
        parent_(parent),
        id_(tracer->NewId()),
        start_(Clock::now()) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double End() {
    if (!ended_) {
      dur_s_ = Since(start_);
      tracer_->Add(name_, start_, dur_s_, op_, id_, parent_);
      ended_ = true;
    }
    return dur_s_;
  }
  uint64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t op_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
  bool ended_ = false;
  double dur_s_ = 0.0;
};

/// Per-call samples and per-op totals a traced replay gathers, keyed by
/// metric name; merged from worker threads under a mutex.
class Samples {
 public:
  void Add(const std::string& key, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_[key].push_back(value);
  }
  void AddAll(const std::string& key, const std::vector<double>& values) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& dst = values_[key];
    dst.insert(dst.end(), values.begin(), values.end());
  }
  std::vector<double> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = values_.find(key);
    return it == values_.end() ? std::vector<double>{} : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> values_;
};

// ------------------------------------------------------------------ digest

/// XXH64 over a growing byte string of result fields.
class Digest {
 public:
  void Add(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    bytes_.append(reinterpret_cast<const char*>(b), 8);
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t Value() const { return Xxh64(bytes_.data(), bytes_.size()); }

 private:
  std::string bytes_;
};

uint64_t MatchesDigest(const std::vector<Match>& matches) {
  Digest d;
  for (const Match& m : matches) {
    d.Add(static_cast<uint64_t>(m.id));
    d.Add(m.similarity);
  }
  return d.Value();
}

// ------------------------------------------------------------------ common

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;
  std::string json_path;
  std::string trace_path;
  std::optional<uint64_t> expect_results;
  std::optional<std::string> expect_digest;
};

/// World seeds of one run: `index` picks one of several independent
/// worlds drawn from the run seed (BuildWorld uses seed..seed+2).
uint64_t WorldSeed(uint64_t seed, size_t index) {
  return seed * 64 + 4 * index;
}

EngineBuilder BaseBuilder(const BenchWorld& world) {
  return EngineBuilder()
      .SetKnowledge(world.knowledge())
      .SetMeasures("TJS")
      .SetQ(3)
      .SetThreads(kThreads);
}

/// A copy of `records[begin, end)` re-numbered from 0, the
/// position-is-id shape every collection the engine binds must have.
std::vector<Record> Slice(const std::vector<Record>& records, size_t begin,
                          size_t end) {
  std::vector<Record> out(records.begin() + static_cast<ptrdiff_t>(begin),
                          records.begin() + static_cast<ptrdiff_t>(end));
  for (size_t i = 0; i < out.size(); ++i) out[i].id = static_cast<uint32_t>(i);
  return out;
}

uint64_t TextBytes(const std::vector<Record>& records) {
  uint64_t bytes = 0;
  for (const Record& r : records) bytes += r.text.size();
  return bytes;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

bool DirEmpty(const std::string& dir) {
  std::error_code ec;
  return fs::is_empty(dir, ec) && !ec;
}

double PeakRssMb() {
  return static_cast<double>(CurrentPeakRssBytes()) / (1024.0 * 1024.0);
}

/// Re-tokenises `records`' texts against the world's vocabulary, timing
/// each call: every token is already interned, so this is the lookup
/// path the RecordFactory of append mode takes. Checks the tokens match.
void ReplayTokenize(const std::vector<Record>& records, Vocabulary* vocab,
                    size_t limit, Samples* samples, Ledger* ledger) {
  const size_t vocab_size = vocab->size();
  std::vector<double> calls;
  bool same = true;
  for (size_t i = 0; i < records.size() && i < limit; ++i) {
    auto t0 = Clock::now();
    std::vector<TokenId> tokens = Tokenize(records[i].text, vocab);
    calls.push_back(Since(t0));
    same = same && tokens == records[i].tokens;
  }
  ledger->Check(same, "re-tokenised text differs from the generated record");
  ledger->Check(vocab->size() == vocab_size,
                "re-tokenising grew the vocabulary");
  samples->AddAll("text.tokenize_s", calls);
}

// ----------------------------------------------------------------- replays

/// One replayed Engine::Join("unified") on the monolithic path.
struct JoinReplay {
  std::vector<Pair> pairs;
  double wall_s = 0.0;
  double stages_s = 0.0;
  double signature_s = 0.0;
  double filter_s = 0.0;
  double verify_s = 0.0;
  double verify_cpu_s = 0.0;
  uint64_t processed = 0;
  uint64_t candidates = 0;
};

/// Replays the unified self-join through the index, join and core
/// layers' public functions — PreparedIndex::Build,
/// JoinContext::RunFilter, UsimComputer::Approx — with one span per
/// stage and per-call verify timings, on kThreads workers like the
/// engine. Returns the pairs in ascending order; they must equal the
/// engine's output.
JoinReplay ReplayJoin(const EngineOptions& eo,
                      const std::vector<Record>& records,
                      const EngineJoinOptions& options, Tracer* tracer,
                      uint64_t op, Samples* samples) {
  JoinReplay out;
  Span root(tracer, "bench.join_replay", op, 0);

  Span prepare(tracer, "index.prepare", op, root.id());
  std::shared_ptr<const PreparedIndex> index =
      PreparedIndex::Build(eo.knowledge, eo.msim, records, nullptr);
  out.stages_s += prepare.End();
  samples->Add("index.prepare_s", prepare.End());

  JoinContext context(eo.knowledge, eo.msim);
  context.Adopt(index);
  SignatureOptions sig;
  sig.theta = options.theta;
  sig.tau = options.tau;
  sig.method = options.method;
  sig.exact_min_partition = options.exact_min_partition;
  Span run_filter(tracer, "join.run_filter", op, root.id());
  JoinContext::FilterOutput filtered =
      context.RunFilter(sig, nullptr, nullptr, kThreads);
  out.stages_s += run_filter.End();
  // RunFilter times its two stages itself; lay them out back to back
  // inside the call's span.
  out.signature_s = filtered.signature_seconds;
  out.filter_s = filtered.filter_seconds;
  tracer->Add("join.signature", run_filter.start(), out.signature_s, op,
              tracer->NewId(), run_filter.id());
  tracer->Add("join.filter",
              run_filter.start() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           out.signature_s)),
              out.filter_s, op, tracer->NewId(), run_filter.id());
  out.processed = filtered.processed_pairs;
  out.candidates = filtered.candidates.size();

  Span sort(tracer, "join.sort_candidates", op, root.id());
  std::sort(filtered.candidates.begin(), filtered.candidates.end());
  out.stages_s += sort.End();

  Span verify(tracer, "core.verify", op, root.id());
  UsimOptions usim = options.usim;
  usim.msim = context.msim_options();
  const auto& cands = filtered.candidates;
  const int workers = ResolveThreads(kThreads);
  std::vector<std::vector<Pair>> kept(workers);
  std::vector<std::vector<double>> calls(workers);
  ParallelFor(cands.size(), kThreads,
              [&](size_t begin, size_t end, int worker) {
                UsimComputer computer(context.knowledge(), usim);
                for (size_t c = begin; c < end; ++c) {
                  if (computer.evaluator()->CacheSize() >
                      eo.cache_evict_threshold) {
                    computer.evaluator()->ClearCache();
                  }
                  const auto& [s, t] = cands[c];
                  auto t0 = Clock::now();
                  double sim = computer.Approx(records[s], records[t],
                                               options.theta);
                  calls[worker].push_back(Since(t0));
                  if (sim >= options.theta) kept[worker].emplace_back(s, t);
                }
              });
  out.verify_s = verify.End();
  out.stages_s += out.verify_s;
  for (const auto& c : calls) {
    out.verify_cpu_s += Sum(c);
    samples->AddAll("core.verify_call_s", c);
  }

  Span emit(tracer, "join.emit", op, root.id());
  for (const auto& k : kept) {
    out.pairs.insert(out.pairs.end(), k.begin(), k.end());
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  out.stages_s += emit.End();
  out.wall_s = root.End();
  return out;
}

/// One replayed search.
struct SearchReplay {
  std::vector<Match> matches;
  double wall_s = 0.0;
  double stages_s = 0.0;
  double signature_s = 0.0;
  double probe_s = 0.0;
  double verify_s = 0.0;
  uint64_t postings = 0;
  uint64_t candidates = 0;
};

/// Replays UnifiedSearcher::TopK over `index` (Engine::Search's
/// monolithic path) through public functions — GenerateQueryPebbles,
/// SelectSignature, the CandidateAccumulator probe of the CSR serving
/// index, UsimComputer::Approx — with one span per stage. The matches
/// must equal the engine's, similarity bits included.
SearchReplay ReplaySearch(const PreparedIndex& index, const Record& query,
                          const EngineSearchOptions& options,
                          CandidateAccumulator* acc, Tracer* tracer,
                          uint64_t op, Samples* samples) {
  SearchReplay out;
  Span root(tracer, "bench.search_replay", op, 0);
  if (query.num_tokens() == 0 || options.k == 0) {
    out.wall_s = root.End();
    return out;
  }
  Span pebbles(tracer, "index.query_pebbles", op, root.id());
  RecordPebbles rp = index.GenerateQueryPebbles(query);
  out.stages_s += pebbles.End();
  samples->Add("index.query_pebbles_s", pebbles.End());

  Span signature(tracer, "join.signature", op, root.id());
  SignatureOptions sig;
  sig.theta = options.theta;
  sig.tau = options.tau;
  sig.method = options.method;
  Signature selected = SelectSignature(rp, query.num_tokens(), sig);
  out.signature_s = signature.End();
  out.stages_s += out.signature_s;
  samples->Add("join.signature_call_s", out.signature_s);

  Span probe(tracer, "index.probe", op, root.id());
  const CsrIndex& serving = index.ServingIndex();
  acc->Begin(index.t_prepared().size());
  const CsrIndex::Postings* runs =
      acc->ResolveRuns(serving, selected.keys.data(), selected.keys.size());
  for (size_t k = 0; k < selected.keys.size(); ++k) {
    out.postings += runs[k].size;
    acc->BumpRun(runs[k].data, runs[k].size);
  }
  CandidateAccumulator::IdSpan kept =
      acc->SelectGE(static_cast<uint32_t>(selected.effective_tau));
  std::vector<uint32_t> candidates(kept.begin(), kept.end());
  std::sort(candidates.begin(), candidates.end());
  out.probe_s = probe.End();
  out.stages_s += out.probe_s;
  out.candidates = candidates.size();
  samples->Add("index.probe_call_s", out.probe_s);

  Span verify(tracer, "core.verify", op, root.id());
  UsimOptions usim;
  usim.msim = index.msim_options();
  UsimComputer computer(index.knowledge(), usim);
  const std::vector<Record>& records = index.t_records();
  std::vector<double> calls;
  calls.reserve(candidates.size());
  for (uint32_t id : candidates) {
    auto t0 = Clock::now();
    double sim = computer.Approx(query, records[id]);
    calls.push_back(Since(t0));
    if (sim >= options.theta) out.matches.push_back(Match{id, sim});
  }
  out.verify_s = verify.End();
  out.stages_s += out.verify_s;
  samples->AddAll("core.verify_call_s", calls);

  Span topk(tracer, "join.topk", op, root.id());
  if (out.matches.size() > options.k) {
    std::partial_sort(out.matches.begin(),
                      out.matches.begin() + static_cast<ptrdiff_t>(options.k),
                      out.matches.end(), Ranked);
    out.matches.resize(options.k);
  } else {
    std::sort(out.matches.begin(), out.matches.end(), Ranked);
  }
  out.stages_s += topk.End();
  out.wall_s = root.End();
  return out;
}

/// Aggregates of a traced run that become the contract's per-layer
/// metrics. Every workload reports every one of them; a layer a
/// workload does not exercise reports 0 through a count or ratio, never
/// through a time.
struct LayerTotals {
  // Per replayed operation (a join, or a query).
  std::vector<double> op_wall_s;
  std::vector<double> op_stages_s;
  std::vector<double> signature_s;
  std::vector<double> filter_s;
  std::vector<double> verify_s;
  std::vector<double> verify_cpu_s;
  std::vector<double> candidates;
  std::vector<double> postings;
  double results = 0.0;
  // Traced vs untraced walls of the same operations.
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  // Shard and storage layers.
  double shard_fanout = 0.0;
  double parallel_efficiency = 0.0;
  double spill_runs = 0.0;
  double spill_bytes = 0.0;
  double wal_bytes = 0.0;
  double checkpoints = 0.0;
  double replayed_records = 0.0;
  double snapshot_bytes = 0.0;
  double staged_at_read_p50 = 0.0;
  double bytes_per_input_byte = 0.0;
  double storage_share = 0.0;

  void AddJoin(const JoinReplay& r) {
    op_wall_s.push_back(r.wall_s);
    op_stages_s.push_back(r.stages_s);
    signature_s.push_back(r.signature_s);
    filter_s.push_back(r.filter_s);
    verify_s.push_back(r.verify_s);
    verify_cpu_s.push_back(r.verify_cpu_s);
    candidates.push_back(static_cast<double>(r.candidates));
    postings.push_back(static_cast<double>(r.processed));
    results += static_cast<double>(r.pairs.size());
  }
  void AddSearch(const SearchReplay& r) {
    op_wall_s.push_back(r.wall_s);
    op_stages_s.push_back(r.stages_s);
    signature_s.push_back(r.signature_s);
    filter_s.push_back(r.probe_s);
    verify_s.push_back(r.verify_s);
    verify_cpu_s.push_back(r.verify_s);
    candidates.push_back(static_cast<double>(r.candidates));
    postings.push_back(static_cast<double>(r.postings));
    results += static_cast<double>(r.matches.size());
  }
};

void ReportLayers(const LayerTotals& t, const Samples& samples,
                  Ledger* ledger) {
  ledger->Layer("text.tokenize_us_p50",
                Percentile(samples.Get("text.tokenize_s"), 50,
                           "text.tokenize_us_p50", ledger) *
                    1e6,
                "us");
  ledger->Layer("index.prepare_s", Median(samples.Get("index.prepare_s")),
                "s");
  ledger->Layer("index.postings_per_op", Mean(t.postings), "count");
  ledger->Layer("join.signature_s", Mean(t.signature_s), "s");
  ledger->Layer("join.filter_s", Mean(t.filter_s), "s");
  ledger->Layer("join.results_per_candidate",
                Ratio(t.results, Sum(t.candidates)), "ratio");
  const std::vector<double> calls = samples.Get("core.verify_call_s");
  ledger->Layer("core.verify_s", Mean(t.verify_s), "s");
  ledger->Layer("core.verify_cpu_s", Mean(t.verify_cpu_s), "s");
  ledger->Layer("core.verify_us_p50",
                Percentile(calls, 50, "core.verify_us_p50", ledger) * 1e6,
                "us");
  ledger->Layer("core.verify_us_p99",
                Percentile(calls, 99, "core.verify_us_p99", ledger) * 1e6,
                "us");
  ledger->Layer("core.verify_calls_per_op", Mean(t.candidates), "count");
  ledger->Layer("core.verify_share", Ratio(Sum(t.verify_s), Sum(t.op_wall_s)),
                "ratio");
  ledger->Layer("shard.fanout", t.shard_fanout, "count");
  ledger->Layer("shard.parallel_efficiency", t.parallel_efficiency, "ratio");
  ledger->Layer("storage.spill_runs", t.spill_runs, "count");
  ledger->Layer("storage.spill_bytes", t.spill_bytes, "bytes");
  ledger->Layer("storage.wal_bytes", t.wal_bytes, "bytes");
  ledger->Layer("storage.checkpoints", t.checkpoints, "count");
  ledger->Layer("storage.replayed_records", t.replayed_records, "count");
  ledger->Layer("storage.snapshot_bytes", t.snapshot_bytes, "bytes");
  ledger->Layer("storage.staged_at_read_p50", t.staged_at_read_p50, "count");
  ledger->Layer("storage.bytes_per_input_byte", t.bytes_per_input_byte,
                "ratio");
  ledger->Layer("storage.share", t.storage_share, "ratio");
  ledger->Layer("bench.trace_overhead",
                Ratio(t.traced_wall_s, t.untraced_wall_s) - 1.0, "ratio");
  ledger->Layer("bench.stage_coverage",
                Ratio(Sum(t.op_stages_s), Sum(t.op_wall_s)), "ratio");
}

/// The set-up times of one run; setup_s is their median.
class SetupTimer {
 public:
  /// Runs `setup` once and returns how long it took.
  double Run(const std::function<void()>& setup) {
    auto t0 = Clock::now();
    setup();
    times_.push_back(Since(t0));
    return times_.back();
  }
  int count() const { return static_cast<int>(times_.size()); }
  void Report(Ledger* ledger) const {
    ledger->EndToEnd("setup_s", Median(times_), "s");
  }

 private:
  std::vector<double> times_;
};

/// Runs `setup` kSetupRepeats times and reports the median as setup_s.
void MeasureSetup(const std::function<void()>& setup, Ledger* ledger) {
  SetupTimer timer;
  while (timer.count() < kSetupRepeats) timer.Run(setup);
  timer.Report(ledger);
}

/// Reports the op metrics every workload shares, plus the op latency's
/// tail under the op's own name (join, search, append, cold_start).
/// `ops_per_s` is the workload's throughput; ops / window_s unless the
/// workload has a steadier estimate of it.
void ReportOps(const char* op, const std::vector<double>& latency_s,
               double ops, double window_s, double ops_per_s,
               Ledger* ledger) {
  ledger->EndToEnd("op_p50_ms",
                   Percentile(latency_s, 50, "op_p50_ms", ledger) * 1e3,
                   "ms");
  ledger->EndToEnd("ops_per_s", ops_per_s, "1/s");
  ledger->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  ledger->Extra("ops", ops, "count");
  ledger->Extra("window_s", window_s, "s");
  ReportTail(op, latency_s, ledger);
}

// --------------------------------------------------------------- workloads

struct JoinSpec {
  const char* profile;
  /// Independent worlds drawn from the seed; the timed joins cycle
  /// through them so one world's quirks do not set the number.
  size_t worlds;
  size_t strings;
  size_t truth;
  double theta;
  int tau;
  size_t shards;
  ShardBy shard_by;
  size_t spill_budget_bytes;
  size_t min_joins;
};

// join_med: Algorithm 1 verification is most (~85%) of the wall time;
// signature, filter and prepare are the rest.
constexpr JoinSpec kJoinMed{"med", 16, 250, 25, 0.8, 2, 0, ShardBy::kRange,
                            0, 24};
// join_wiki_sharded: the same verify layer under a taxonomy-heavy mix,
// plus shard-pair blocks, hash-plan merge and spill.
constexpr JoinSpec kJoinWikiSharded{"wiki", 16, 300, 30, 0.9, 3, 4,
                                    ShardBy::kHash, 64, 24};
static_assert(kJoinMed.min_joins >= kJoinMed.worlds &&
                  kJoinWikiSharded.min_joins >= kJoinWikiSharded.worlds,
              "every world must be joined at least once per run");

void RunJoin(const JoinSpec& spec, const Options& opt, Ledger* ledger,
             Tracer* tracer) {
  std::vector<std::unique_ptr<BenchWorld>> worlds;
  auto build_worlds = [&] {
    worlds.clear();
    for (size_t w = 0; w < spec.worlds; ++w) {
      worlds.push_back(BuildWorld(spec.profile, spec.strings, spec.truth,
                                  WorldSeed(opt.seed, w)));
    }
  };
  // Set-up runs once here and again between passes, spread over the
  // window, so no single burst of host load covers every repetition.
  // Each rebuild yields identical worlds, which the stability check
  // below confirms.
  SetupTimer setup;
  setup.Run(build_worlds);

  const std::string spill_dir = opt.work_dir + "/spill";
  fs::create_directories(spill_dir);
  auto make_engine = [&](const BenchWorld& world, bool sharded) {
    EngineBuilder builder = BaseBuilder(world);
    if (sharded) {
      builder.SetNumShards(spec.shards)
          .SetShardBy(spec.shard_by)
          .SetSpillBudgetBytes(spec.spill_budget_bytes)
          .SetSpillDir(spill_dir);
    }
    return builder.Build();
  };
  const bool sharded = spec.shards > 0;
  EngineJoinOptions join_options;
  join_options.theta = spec.theta;
  join_options.tau = spec.tau;
  // One Engine::Join on a fresh engine, so prepare is paid as `aujoin
  // join` pays it.
  auto engine_join = [&](size_t w, bool with_shards, JoinStats* stats) {
    Engine engine = make_engine(*worlds[w], with_shards);
    engine.SetRecords(worlds[w]->corpus.records);
    CollectingSink sink;
    Result<JoinStats> result = engine.Join("unified", join_options, &sink);
    ledger->Call(result.status(), "Engine::Join");
    if (result.ok() && stats != nullptr) *stats = *result;
    if (with_shards && spec.spill_budget_bytes > 0) {
      ledger->Check(DirEmpty(spill_dir), "spill files left after a join");
    }
    return std::move(sink.pairs);
  };

  engine_join(0, sharded, nullptr);  // untimed warm-up

  // The first join of each world fixes the output every later join of
  // it must reproduce; min_joins covers every world at least once.
  std::vector<std::vector<Pair>> reference(spec.worlds);
  LayerTotals totals;
  Samples samples;
  std::vector<double> latency;
  // Joins per second of each full pass over the worlds: every pass does
  // the same work, so their median shrugs off a burst of host load.
  std::vector<double> pass_rates;
  std::vector<JoinStats> op_stats;
  bool stable = true;
  auto start = Clock::now();
  auto pass_start = start;
  double setup_in_window = 0.0;  // not part of the measured window
  size_t ops = 0;
  while (ops < spec.min_joins ||
         Since(start) - setup_in_window < opt.seconds) {
    const size_t w = ops % spec.worlds;
    JoinStats stats;
    auto t0 = Clock::now();
    std::vector<Pair> pairs = engine_join(w, sharded, &stats);
    latency.push_back(Since(t0));
    if (ops < spec.worlds) {
      reference[w] = std::move(pairs);
    } else {
      stable = stable && pairs == reference[w];
    }
    op_stats.push_back(stats);
    if (tracer != nullptr) {
      JoinReplay replay = ReplayJoin(
          make_engine(*worlds[w], false).options(), worlds[w]->corpus.records,
          join_options, tracer, tracer->NewOp(), &samples);
      ledger->Check(replay.pairs == reference[w],
                    "traced replay differs from the engine's join output");
      totals.AddJoin(replay);
      totals.traced_wall_s += replay.wall_s;
      totals.untraced_wall_s += latency.back();
    }
    if (++ops % spec.worlds == 0) {
      pass_rates.push_back(Ratio(static_cast<double>(spec.worlds),
                                 Since(pass_start)));
      if (setup.count() < kSetupRepeats &&
          Since(start) - setup_in_window >=
              opt.seconds * setup.count() / kSetupRepeats) {
        setup_in_window += setup.Run(build_worlds);
      }
      pass_start = Clock::now();
    }
  }
  const double window = Since(start) - setup_in_window;
  while (setup.count() < kSetupRepeats) setup.Run(build_worlds);
  setup.Report(ledger);
  ledger->Check(stable, "join output differs between repeated joins");

  // Correctness beyond repeatability.
  UsimOptions usim;
  usim.msim = make_engine(*worlds[0], false).options().msim;
  uint64_t results = 0;
  uint64_t parity_misses = 0;
  Digest digest;
  for (size_t w = 0; w < spec.worlds; ++w) {
    const auto& pairs = reference[w];
    const auto& records = worlds[w]->corpus.records;
    results += pairs.size();
    ledger->Check(std::is_sorted(pairs.begin(), pairs.end()) &&
                      std::adjacent_find(pairs.begin(), pairs.end()) ==
                          pairs.end(),
                  "join output not strictly ascending");
    UsimComputer computer(worlds[w]->knowledge(), usim);
    for (const auto& [s, t] : pairs) {
      ledger->Check(s < t && t < records.size(), "join pair out of range");
      ledger->Check(computer.Approx(records[s], records[t], spec.theta) >=
                        spec.theta,
                    "join emitted a pair below theta");
      digest.Add(static_cast<uint64_t>(w));
      digest.Add((static_cast<uint64_t>(s) << 32) | t);
    }
    if (sharded) {
      // Placement should never be semantics, and the monolithic join
      // agrees pair for pair on nearly every world, but not on all: at
      // tau = 3 the signature filter is not always lossless, and which
      // pair it drops depends on the global pebble order, which every
      // shard-pair block derives from its own records (run seed 43,
      // world 10: only the sharded join finds (137, 318), similarity
      // 0.933). So a differing pair must be a true match, and
      // differences must stay rare.
      const std::vector<Pair> mono = engine_join(w, false, nullptr);
      std::vector<Pair> differ;
      std::set_symmetric_difference(mono.begin(), mono.end(), pairs.begin(),
                                    pairs.end(), std::back_inserter(differ));
      for (const auto& [s, t] : differ) {
        ledger->Check(computer.Approx(records[s], records[t], spec.theta) >=
                          spec.theta,
                      "sharded and monolithic joins differ by a pair below "
                      "theta");
      }
      parity_misses += differ.size();
    }
  }
  ledger->Check(results > 0, "no join found any pair");
  if (sharded) {
    ledger->Check(parity_misses * 100 <= results,
                  "sharded and monolithic joins differ on more than 1% of "
                  "the pairs");
    ledger->Extra("shard.parity_misses", static_cast<double>(parity_misses),
                  "count");
  }
  {
    // Lossless filtering: brute-force Algorithm 1 over the records of
    // 20 seeded truth pairs of world 0 (so the subset holds pairs to
    // lose) finds no qualifying pair the join missed.
    const auto& records = worlds[0]->corpus.records;
    std::vector<std::pair<uint32_t, uint32_t>> truth =
        worlds[0]->corpus.truth_pairs;
    Rng rng(opt.seed);
    rng.Shuffle(&truth);
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < truth.size() && i < 20; ++i) {
      ids.push_back(truth[i].first);
      ids.push_back(truth[i].second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    UsimComputer computer(worlds[0]->knowledge(), usim);
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        if (computer.Approx(records[ids[a]], records[ids[b]], spec.theta) >=
            spec.theta) {
          ledger->Check(std::binary_search(reference[0].begin(),
                                           reference[0].end(),
                                           Pair{ids[a], ids[b]}),
                        "join missed a pair brute force finds");
        }
      }
    }
  }
  ledger->SetOutput(results, digest.Value());

  std::vector<double> stage_cpu;
  double blocks = 0.0;
  double spill_runs = 0.0;
  double spill_bytes = 0.0;
  for (const JoinStats& s : op_stats) {
    stage_cpu.push_back(s.prepare_seconds + s.signature_seconds +
                        s.filter_seconds + s.verify_seconds);
    blocks += static_cast<double>(s.partition_blocks);
    spill_runs += static_cast<double>(s.spill_runs);
    spill_bytes += static_cast<double>(s.spill_bytes);
  }
  const double n_ops = static_cast<double>(op_stats.size());
  if (sharded) {
    ledger->Check(spill_runs > 0, "the spilling join wrote no spill runs");
  }

  if (tracer == nullptr) {
    ReportOps("join", latency, static_cast<double>(ops), window,
              Median(pass_rates), ledger);
    ledger->Extra("passes", static_cast<double>(pass_rates.size()), "count");
    return;
  }
  for (const auto& world : worlds) {
    ReplayTokenize(world->corpus.records, &world->vocab, SIZE_MAX, &samples,
                   ledger);
  }
  if (sharded) {
    totals.shard_fanout = blocks / n_ops;
    totals.parallel_efficiency =
        Ratio(Sum(stage_cpu), Sum(latency) * kThreads);
    totals.spill_runs = spill_runs / n_ops;
    totals.spill_bytes = spill_bytes / n_ops;
    ledger->Extra("shard.stage_cpu_s", Median(stage_cpu), "s");
  }
  ReportLayers(totals, samples, ledger);
}

// serve_med: per-query pebbles, signature, CSR probe and verify with no
// early exit; a heavy tail of expensive queries. The seed draws several
// tenants (independent worlds, one engine each) so one world's quirks
// do not set the number.
constexpr size_t kServeTenants = 4;
constexpr size_t kServeBases = 1250;
constexpr size_t kServeHits = 150;
constexpr size_t kServeMisses = 150;
constexpr double kServeTheta = 0.85;
constexpr int kServeTau = 2;
constexpr size_t kServeK = 10;
/// Hit queries whose answer is checked against brute force over all
/// bases (hits, because they have matches to lose).
constexpr size_t kServeBruteForce = 24;

struct Tenant {
  std::unique_ptr<BenchWorld> world;
  std::vector<Record> bases;
  std::unique_ptr<Engine> engine;
};

struct ServeQuery {
  size_t tenant = 0;
  Record record;
  /// The base the query was derived from (hits) or -1 (misses).
  int64_t source = -1;
};

/// Builds one tenant and appends its queries — held-out truth variants
/// of indexed bases (hits) and fresh strings of a second generator seed
/// over the same knowledge (mostly misses) — to `queries`.
/// Heap-allocated because the engine borrows `bases` by address.
std::unique_ptr<Tenant> MakeTenant(size_t tenant, uint64_t world_seed,
                                   std::vector<ServeQuery>* queries) {
  auto t = std::make_unique<Tenant>();
  t->world = BuildWorld("med", kServeBases, kServeHits, world_seed);
  const auto& records = t->world->corpus.records;
  t->bases = Slice(records, 0, kServeBases);
  for (const auto& [base, variant] : t->world->corpus.truth_pairs) {
    queries->push_back({tenant, records[variant], static_cast<int64_t>(base)});
  }
  CorpusProfile profile = CorpusProfile::Med(kServeMisses);
  profile.seed += world_seed + 1000003;
  GroundTruthOptions none;
  none.num_pairs = 0;
  CorpusGenerator gen(&t->world->vocab, &t->world->taxonomy,
                      &t->world->rules);
  for (Record& r : gen.Generate(profile, none).records) {
    queries->push_back({tenant, std::move(r), -1});
  }
  t->engine = std::make_unique<Engine>(BaseBuilder(*t->world).Build());
  t->engine->SetRecords(t->bases);
  return t;
}

void RunServe(const Options& opt, Ledger* ledger, Tracer* tracer) {
  EngineSearchOptions search;
  search.theta = kServeTheta;
  search.tau = kServeTau;
  search.k = kServeK;
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<ServeQuery> queries;
  std::vector<std::shared_ptr<const PreparedIndex>> indexes;
  MeasureSetup(
      [&] {
        tenants.clear();
        queries.clear();
        indexes.clear();
        for (size_t t = 0; t < kServeTenants; ++t) {
          tenants.push_back(MakeTenant(t, WorldSeed(opt.seed, t), &queries));
          // Ready to serve: the prepared index and its CSR freeze.
          auto index = tenants.back()->engine->ServingIndex();
          ledger->Call(index.status(), "Engine::ServingIndex");
          if (!index.ok()) return;
          (*index)->ServingIndex();
          indexes.push_back(*index);
        }
        Rng rng(WorldSeed(opt.seed, 0));
        rng.Shuffle(&queries);
      },
      ledger);
  if (indexes.size() != kServeTenants) return;

  const size_t n = queries.size();
  struct Client {
    std::vector<double> latency;
    std::vector<std::pair<size_t, uint64_t>> answers;
  };
  std::vector<Client> clients(kThreads);
  std::vector<std::vector<Match>> first(n);
  LayerTotals totals;
  Samples samples;
  std::mutex totals_mutex;
  std::atomic<size_t> next{0};
  auto start = Clock::now();
  auto client_loop = [&](Client* client) {
    CandidateAccumulator acc;
    while (true) {
      const size_t i = next.fetch_add(1);
      // Every query is answered at least once, then the loop runs out
      // the clock.
      if (i >= n && Since(start) >= opt.seconds) break;
      const ServeQuery& query = queries[i % n];
      auto t0 = Clock::now();
      auto matches =
          tenants[query.tenant]->engine->Search(query.record, search);
      const double lat = Since(t0);
      ledger->Call(matches.status(), "Engine::Search");
      if (!matches.ok()) continue;
      client->latency.push_back(lat);
      client->answers.emplace_back(i % n, MatchesDigest(*matches));
      if (i < n) first[i] = *matches;
      if (tracer != nullptr) {
        SearchReplay replay = ReplaySearch(*indexes[query.tenant],
                                           query.record, search, &acc, tracer,
                                           tracer->NewOp(), &samples);
        ledger->Check(replay.matches == *matches,
                      "traced replay differs from Engine::Search");
        std::lock_guard<std::mutex> lock(totals_mutex);
        totals.AddSearch(replay);
        totals.traced_wall_s += replay.wall_s;
        totals.untraced_wall_s += lat;
        samples.Add("api.search_overhead_s", lat - replay.wall_s);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back(client_loop, &clients[c]);
  }
  for (auto& t : threads) t.join();
  const double window = Since(start);

  // Correctness: repeat answers agree with the first, answers are ranked
  // and above theta, sampled similarities recompute bit for bit, and
  // hits find the base they were derived from.
  std::vector<double> latency;
  bool stable = true;
  for (const Client& c : clients) {
    latency.insert(latency.end(), c.latency.begin(), c.latency.end());
    for (const auto& [q, d] : c.answers) {
      stable = stable && d == MatchesDigest(first[q]);
    }
  }
  ledger->Check(stable, "a repeated query got a different answer");
  std::vector<std::unique_ptr<UsimComputer>> computers;
  for (const auto& t : tenants) {
    UsimOptions usim;
    usim.msim = t->engine->options().msim;
    computers.push_back(
        std::make_unique<UsimComputer>(t->world->knowledge(), usim));
  }
  uint64_t results = 0;
  uint64_t hits_found = 0;
  Digest digest;
  for (size_t q = 0; q < n; ++q) {
    const auto& m = first[q];
    const ServeQuery& query = queries[q];
    results += m.size();
    ledger->Check(m.size() <= kServeK &&
                      std::is_sorted(m.begin(), m.end(), Ranked),
                  "search answer not ranked or longer than k");
    for (const Match& match : m) {
      ledger->Check(match.similarity >= kServeTheta && match.id < kServeBases,
                    "search match below theta or out of range");
      digest.Add(static_cast<uint64_t>(q));
      digest.Add(static_cast<uint64_t>(match.id));
      digest.Add(match.similarity);
      if (q < 40) {
        ledger->Check(
            computers[query.tenant]->Approx(
                query.record, tenants[query.tenant]->bases[match.id]) ==
                match.similarity,
            "search similarity does not recompute");
      }
      if (query.source == static_cast<int64_t>(match.id)) ++hits_found;
    }
  }
  ledger->Check(hits_found > 0, "no hit query found its own base");
  // Lossless filtering: brute-force Algorithm 1 over the tenant's bases
  // gives the engine's answer.
  for (size_t q = 0, checked = 0; q < n && checked < kServeBruteForce; ++q) {
    const ServeQuery& query = queries[q];
    if (query.source < 0) continue;
    ++checked;
    const auto& bases = tenants[query.tenant]->bases;
    std::vector<Match> all;
    for (uint32_t id = 0; id < bases.size(); ++id) {
      double sim = computers[query.tenant]->Approx(query.record, bases[id]);
      if (sim >= kServeTheta) all.push_back(Match{id, sim});
    }
    std::sort(all.begin(), all.end(), Ranked);
    if (all.size() > kServeK) all.resize(kServeK);
    ledger->Check(all == first[q], "search answer differs from brute force");
  }
  ledger->SetOutput(results, digest.Value());

  if (tracer == nullptr) {
    ReportOps("search", latency, static_cast<double>(latency.size()),
              window, Ratio(static_cast<double>(latency.size()), window),
              ledger);
    ledger->Extra("hit_recall",
                  Ratio(static_cast<double>(hits_found),
                        static_cast<double>(kServeHits * kServeTenants)),
                  "ratio");
    return;
  }
  // Set-up replay: the prepare step and the CSR freeze of each tenant's
  // serving index, through their public functions.
  for (const auto& t : tenants) {
    Span prepare(tracer, "index.prepare", 0, 0);
    auto rebuilt = PreparedIndex::Build(t->engine->options().knowledge,
                                        t->engine->options().msim, t->bases,
                                        nullptr);
    samples.Add("index.prepare_s", prepare.End());
    Span csr(tracer, "index.csr_build", 0, 0);
    rebuilt->ServingIndex();
    samples.Add("index.csr_build_s", csr.End());
    ReplayTokenize(t->bases, &t->world->vocab, SIZE_MAX, &samples, ledger);
  }
  ledger->Extra("index.csr_build_s", Median(samples.Get("index.csr_build_s")),
                "s");
  ledger->Extra("index.query_pebbles_us_p50",
                Median(samples.Get("index.query_pebbles_s")) * 1e6, "us");
  ledger->Extra("join.signature_us_p50",
                Median(samples.Get("join.signature_call_s")) * 1e6, "us");
  ledger->Extra("index.probe_us_p50",
                Median(samples.Get("index.probe_call_s")) * 1e6, "us");
  if (auto tail = Tail(samples.Get("index.probe_call_s"))) {
    char name[64];
    std::snprintf(name, sizeof(name), "index.probe_us_p%g", tail->first);
    ledger->Extra(name, tail->second * 1e6, "us");
  }
  ledger->Extra("api.search_overhead_us_p50",
                Median(samples.Get("api.search_overhead_s")) * 1e6, "us");
  ReportLayers(totals, samples, ledger);
}

// append_mixed: durable writes beside reads. Readers rebuild the staging
// index under the generational mutex, which stalls writers; checkpoints
// stall them further. Rate and checkpoint size keep the writer clear of
// saturation: at 100/s with 32 KiB checkpoints the staging rebuilds held
// the mutex so much of the time that the median append sat on the edge
// of a stall and moved 7x with the host's load.
constexpr size_t kAppendBase = 3000;
constexpr size_t kAppendFresh = 800;
constexpr size_t kAppendVariants = 200;
constexpr double kAppendRate = 50.0;
constexpr int kAppendReaders = 3;
constexpr size_t kAppendMinReads = 300;
constexpr size_t kAppendQueries = 400;
constexpr size_t kAppendReplayQueries = 100;
constexpr size_t kCheckpointBytes = 16384;
constexpr int kRestarts = 5;
constexpr size_t kSampledSearches = 50;
constexpr double kAppendTheta = 0.9;
constexpr int kAppendTau = 3;

void RunAppend(const Options& opt, Ledger* ledger, Tracer* tracer) {
  EngineSearchOptions search;
  search.theta = kAppendTheta;
  search.tau = kAppendTau;
  search.k = 10;
  const uint64_t world_seed = WorldSeed(opt.seed, 0);
  const std::string dir = opt.work_dir + "/append";
  const std::string wal = dir + "/log.wal";
  const std::string checkpoint = dir + "/checkpoint.aujsnap";

  std::unique_ptr<BenchWorld> world;
  std::vector<Record> bases;
  std::vector<std::string> texts;  // appended in this order
  std::vector<Record> queries;
  std::unique_ptr<Engine> engine;
  // Written by the one writer thread (inside Engine::Append) and by
  // recovery, never concurrently; so are the op and span the factory's
  // span nests under in a traced run.
  std::vector<double> tokenize_s;
  uint64_t factory_op = 0;
  uint64_t factory_parent = 0;
  auto builder = [&] {
    return BaseBuilder(*world).SetWalCheckpointBytes(kCheckpointBytes);
  };
  // Every append text was generated with the world, so interning it is
  // a pure lookup that never mutates the vocabulary readers share.
  RecordFactory factory = [&](const std::string& text) {
    auto t0 = Clock::now();
    Record record = MakeRecord(0, text, &world->vocab);
    tokenize_s.push_back(Since(t0));
    if (tracer != nullptr) {
      tracer->Add("text.tokenize", t0, tokenize_s.back(), factory_op,
                  tracer->NewId(), factory_parent);
    }
    return record;
  };
  MeasureSetup(
      [&] {
        engine.reset();
        fs::remove_all(dir);
        fs::create_directories(dir);
        world = BuildWorld("med", kAppendBase + kAppendFresh,
                           kAppendVariants, world_seed);
        const auto& records = world->corpus.records;
        bases = Slice(records, 0, kAppendBase);
        texts.clear();
        for (size_t i = kAppendBase; i < records.size(); ++i) {
          texts.push_back(records[i].text);
        }
        Rng rng(world_seed);
        rng.Shuffle(&texts);
        // Reads: three quarters indexed bases, one quarter upcoming
        // appends (hits once they land).
        queries.clear();
        for (size_t i = 0; i < kAppendQueries; ++i) {
          const size_t pick =
              i % 4 == 3 ? kAppendBase + static_cast<size_t>(rng.Uniform(
                                             0, static_cast<int64_t>(
                                                    texts.size()) - 1))
                         : static_cast<size_t>(rng.Uniform(
                               0, static_cast<int64_t>(kAppendBase) - 1));
          queries.push_back(records[pick]);
        }
        engine = std::make_unique<Engine>(builder().Build());
        engine->SetRecords(bases);
        ledger->Call(engine->EnableAppend(wal, factory, checkpoint),
                     "Engine::EnableAppend");
        auto first = engine->Search(queries[0], search);
        ledger->Call(first.status(), "Engine::Search");
      },
      ledger);
  tokenize_s.clear();
  const size_t vocab_size = world->vocab.size();

  // The open-loop writer: append i is due at start + i / rate, timed
  // from its due time, so a stall also delays the appends behind it.
  std::vector<double> append_s;       // from due time
  std::vector<double> append_wall_s;  // from the call
  std::vector<double> storage_s;      // the call minus its tokenising
  std::vector<double> checkpoint_s;
  double late_max = 0.0;
  uint64_t acked = 0;
  std::atomic<bool> writer_done{false};
  std::atomic<size_t> reads{0};
  auto start = Clock::now();
  uint64_t appended_bytes = 0;
  std::thread writer([&] {
    for (size_t i = 0;; ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / kAppendRate));
      if (std::chrono::duration<double>(due - start).count() >= opt.seconds) {
        break;
      }
      std::this_thread::sleep_until(due);
      late_max = std::max(late_max, Since(due));
      const uint64_t checkpoints = engine->auto_checkpoints();
      const size_t tokenized = tokenize_s.size();
      std::optional<Span> span;
      if (tracer != nullptr) {
        factory_op = tracer->NewOp();
        span.emplace(tracer, "storage.append", factory_op, 0);
        factory_parent = span->id();
      }
      auto t0 = Clock::now();
      Result<uint32_t> id = engine->Append(texts[i % texts.size()]);
      append_wall_s.push_back(Since(t0));
      if (span) span->End();
      append_s.push_back(Since(due));
      storage_s.push_back(append_wall_s.back() -
                          (tokenize_s.size() > tokenized ? tokenize_s.back()
                                                         : 0.0));
      ledger->Call(id.status(), "Engine::Append");
      if (id.ok()) {
        ledger->Check(*id == kAppendBase + acked, "append got a wrong id");
        ++acked;
        appended_bytes += texts[i % texts.size()].size();
      }
      if (engine->auto_checkpoints() != checkpoints) {
        checkpoint_s.push_back(append_wall_s.back());
      }
    }
    writer_done.store(true);
  });
  std::vector<std::vector<double>> read_s(kAppendReaders);
  std::vector<std::vector<double>> staged(kAppendReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kAppendReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(world_seed + 17 + r);
      while (!writer_done.load() || reads.load() < kAppendMinReads) {
        const Record& q = queries[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(queries.size()) - 1))];
        if (tracer != nullptr) {
          staged[r].push_back(static_cast<double>(
              engine->generational_index()->num_staged()));
        }
        std::optional<Span> span;
        if (tracer != nullptr) {
          span.emplace(tracer, "api.search", tracer->NewOp(), 0);
        }
        auto t0 = Clock::now();
        auto matches = engine->Search(q, search);
        read_s[r].push_back(Since(t0));
        if (span) span->End();
        ledger->Call(matches.status(), "Engine::Search");
        reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  const double window = Since(start);
  ledger->Call(engine->auto_checkpoint_status(), "auto checkpoint");
  // Size-driven checkpointing keeps the log under its threshold.
  std::error_code ec;
  const uint64_t wal_bytes = fs::file_size(wal, ec);
  ledger->Check(!ec && wal_bytes < kCheckpointBytes,
                "the WAL outgrew its checkpoint threshold");
  ledger->Check(appended_bytes < kCheckpointBytes ||
                    engine->auto_checkpoints() > 0,
                "no size-triggered checkpoint ran");

  // The live answers recovery must reproduce.
  Rng rng(world_seed + 99);
  std::vector<size_t> sampled;
  for (size_t i = 0; i < kSampledSearches; ++i) {
    sampled.push_back(static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(queries.size()) - 1)));
  }
  std::vector<std::vector<Match>> live;
  for (size_t q : sampled) {
    auto m = engine->Search(queries[q], search);
    ledger->Call(m.status(), "Engine::Search");
    live.push_back(m.ok() ? *m : std::vector<Match>{});
  }
  LayerTotals totals;
  Samples samples;
  if (tracer != nullptr) {
    // Replay the reads against the final frozen generation; the
    // searcher over the same index is the reference.
    std::shared_ptr<const PreparedIndex> frozen =
        engine->generational_index()->frozen_index();
    UnifiedSearcher searcher(frozen);
    UnifiedSearcher::SearchOptions so;
    so.theta = search.theta;
    so.tau = search.tau;
    CandidateAccumulator acc;
    for (size_t q = 0; q < kAppendReplayQueries; ++q) {
      auto t0 = Clock::now();
      std::vector<Match> expected =
          searcher.TopK(queries[q], search.k, search.theta, so);
      const double untraced = Since(t0);
      SearchReplay replay = ReplaySearch(*frozen, queries[q], search, &acc,
                                         tracer, tracer->NewOp(), &samples);
      ledger->Check(replay.matches == expected,
                    "traced replay differs from the frozen searcher");
      totals.AddSearch(replay);
      totals.traced_wall_s += replay.wall_s;
      totals.untraced_wall_s += untraced;
    }
    totals.wal_bytes = static_cast<double>(wal_bytes);
    totals.checkpoints = static_cast<double>(checkpoint_s.size());
  }
  engine.reset();  // closes the log before the restarts reopen it

  // Restarts: fresh engine + EnableAppend from checkpoint + WAL.
  std::vector<double> recovery_s;
  uint64_t replayed = 0;
  Digest digest;
  uint64_t results = 0;
  for (int r = 0; r < kRestarts; ++r) {
    std::optional<Span> span;
    if (tracer != nullptr) {
      factory_op = tracer->NewOp();
      span.emplace(tracer, "storage.recover", factory_op, 0);
      factory_parent = span->id();
    }
    auto t0 = Clock::now();
    Engine restarted = builder().Build();
    restarted.SetRecords(bases);
    Status st = restarted.EnableAppend(wal, factory, checkpoint);
    recovery_s.push_back(Since(t0));
    if (span) span->End();
    ledger->Call(st, "Engine::EnableAppend");
    if (!st.ok()) continue;
    replayed = restarted.wal_recovered_records();
    ledger->Check(restarted.generational_index()->size() == kAppendBase + acked,
                  "recovered size != base + acknowledged appends");
    if (r > 0) continue;
    for (size_t i = 0; i < sampled.size(); ++i) {
      auto m = restarted.Search(queries[sampled[i]], search);
      ledger->Call(m.status(), "Engine::Search");
      if (!m.ok()) continue;
      ledger->Check(*m == live[i], "recovered engine answers differently");
      results += m->size();
      digest.Add(static_cast<uint64_t>(i));
      for (const Match& match : *m) {
        digest.Add(static_cast<uint64_t>(match.id));
        digest.Add(match.similarity);
      }
    }
  }
  ledger->Check(world->vocab.size() == vocab_size,
                "appends or recovery grew the vocabulary");
  digest.Add(acked);
  ledger->SetOutput(results, digest.Value());
  const uint64_t input_bytes = TextBytes(bases) + appended_bytes;
  const double stored = static_cast<double>(DirBytes(dir));

  std::vector<double> read_all;
  for (const auto& r : read_s) {
    read_all.insert(read_all.end(), r.begin(), r.end());
  }
  if (tracer == nullptr) {
    const double ops = static_cast<double>(append_s.size() + read_all.size());
    ReportOps("append", append_s, ops, window, Ratio(ops, window), ledger);
    ledger->Extra("search_p50_ms",
                  Percentile(read_all, 50, "search_p50_ms", ledger) * 1e3,
                  "ms");
    ReportTail("search", read_all, ledger);
    ledger->Extra("recovery_s", Median(recovery_s), "s");
    ledger->Extra("stored_bytes_per_input_byte",
                  Ratio(stored, static_cast<double>(input_bytes)), "ratio");
    ledger->Extra("bench.generator_late_ms_max", late_max * 1e3, "ms");
    ledger->Extra("appends", static_cast<double>(acked), "count");
    return;
  }
  samples.AddAll("text.tokenize_s", tokenize_s);
  {
    Span prepare(tracer, "index.prepare", 0, 0);
    auto rebuilt = PreparedIndex::Build(world->knowledge(),
                                        builder().Build().options().msim,
                                        bases, nullptr);
    samples.Add("index.prepare_s", prepare.End());
  }
  std::vector<double> staged_all;
  for (const auto& s : staged) {
    staged_all.insert(staged_all.end(), s.begin(), s.end());
  }
  totals.staged_at_read_p50 = Median(staged_all);
  totals.replayed_records = static_cast<double>(replayed);
  totals.bytes_per_input_byte = Ratio(stored, static_cast<double>(input_bytes));
  // Storage's share of a write: everything in Append but tokenising.
  totals.storage_share = Ratio(Sum(storage_s), Sum(append_wall_s));
  ledger->Extra("storage.append_us_p50", Median(storage_s) * 1e6, "us");
  ledger->Extra("storage.checkpoint_ms_max",
                checkpoint_s.empty()
                    ? 0.0
                    : *std::max_element(checkpoint_s.begin(),
                                        checkpoint_s.end()) *
                          1e3,
                "ms");
  ReportLayers(totals, samples, ledger);
}

// cold_start_large: an index far larger than the CPU caches, mounted
// from a 4-shard snapshot; index build and snapshot mount dominate.
constexpr size_t kColdStrings = 50000;
constexpr size_t kColdTruth = 5000;
constexpr size_t kColdShards = 4;
constexpr size_t kColdMinRestarts = 20;
// A restarted engine mounts its shards on one thread. With 4, the first
// answer waits for the slowest of 4 parallel mounts, and one straggling
// core of the shared host doubles it: restart times split into two
// modes and the median jumped between them (31% run-to-run spread,
// against 8.5% for one thread over the same interleaved runs).
constexpr int kColdRestartThreads = 1;
constexpr size_t kColdSampled = 5;
constexpr size_t kColdReplayQueries = 30;

/// Short records (2..4 tokens) ordered rarest first by their most
/// frequent token's record count, ties in seeded order: deterministic
/// queries whose own work stays small next to mounting the snapshot.
std::vector<size_t> CheapQueries(const std::vector<Record>& records,
                                 uint64_t seed, size_t count) {
  std::vector<uint32_t> df;
  for (const Record& r : records) {
    std::vector<TokenId> distinct = r.tokens;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (TokenId t : distinct) {
      if (t >= df.size()) df.resize(t + 1, 0);
      ++df[t];
    }
  }
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  rng.Shuffle(&order);
  std::vector<std::pair<uint32_t, size_t>> ranked;  // (worst df, record)
  for (size_t i : order) {
    const Record& r = records[i];
    if (r.num_tokens() < 2 || r.num_tokens() > 4) continue;
    uint32_t worst = 0;
    for (TokenId t : r.tokens) worst = std::max(worst, df[t]);
    ranked.emplace_back(worst, i);
  }
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<size_t> out;
  for (size_t k = 0; k < ranked.size() && out.size() < count; ++k) {
    out.push_back(ranked[k].second);
  }
  return out;
}

void RunColdStart(const Options& opt, Ledger* ledger, Tracer* tracer) {
  EngineSearchOptions search;
  search.theta = 0.9;
  search.tau = 3;
  search.k = 10;
  const uint64_t world_seed = WorldSeed(opt.seed, 0);
  const std::string dir = opt.work_dir + "/snapshot";
  const std::string path = dir + "/index.aujsnap";
  std::unique_ptr<BenchWorld> world;
  std::unique_ptr<Engine> built;
  std::vector<size_t> cheap;  // cheap[0] is the fixed restart query
  std::vector<double> save_s;
  size_t fixed = 0;
  std::vector<Match> fixed_answer;
  auto builder = [&] {
    return BaseBuilder(*world)
        .SetNumShards(kColdShards)
        .SetShardBy(ShardBy::kRange);
  };
  MeasureSetup(
      [&] {
        built.reset();
        fs::remove_all(dir);
        fs::create_directories(dir);
        world = BuildWorld("med", kColdStrings, kColdTruth, world_seed);
        const auto& records = world->corpus.records;
        // The same query every restart, so its own work is constant.
        cheap = CheapQueries(records, world_seed, kColdSampled);
        if (cheap.empty()) {
          ledger->Fail("no record of 2..4 tokens to query");
          return;
        }
        fixed = cheap.front();
        built = std::make_unique<Engine>(builder().Build());
        built->SetRecords(records);
        auto first = built->Search(records[fixed], search);
        ledger->Call(first.status(), "Engine::Search");
        if (first.ok()) fixed_answer = *first;
        auto ts = Clock::now();
        ledger->Call(built->SaveIndex(path), "Engine::SaveIndex");
        save_s.push_back(Since(ts));
      },
      ledger);
  if (cheap.empty()) return;
  const auto& records = world->corpus.records;
  const double snapshot_bytes = static_cast<double>(DirBytes(dir));

  std::vector<double> restart_s;
  std::vector<double> load_s;
  std::vector<double> mount_s;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  bool same = true;
  auto start = Clock::now();
  size_t ops = 0;
  while (ops < kColdMinRestarts || Since(start) < opt.seconds) {
    // In a traced run every other restart carries spans, so the two
    // kinds measure the tracing overhead.
    const bool traced = tracer != nullptr && ops % 2 == 0;
    const uint64_t op = traced ? tracer->NewOp() : 0;
    std::optional<Span> root;
    if (traced) root.emplace(tracer, "bench.restart", op, 0);
    auto t0 = Clock::now();
    Engine engine = builder().SetThreads(kColdRestartThreads).Build();
    engine.SetRecords(records);
    auto tl = Clock::now();
    std::optional<Span> load;
    if (traced) load.emplace(tracer, "storage.load_index", op, root->id());
    Status st = engine.LoadIndex(path);
    if (traced) load->End();
    const double load_time = Since(tl);
    auto tq = Clock::now();
    std::optional<Span> query;
    if (traced) query.emplace(tracer, "api.first_search", op, root->id());
    auto answer = engine.Search(records[fixed], search);
    if (traced) query->End();
    const double first_time = Since(tq);
    const double restart = Since(t0);
    if (traced) root->End();
    ledger->Call(st, "Engine::LoadIndex");
    ledger->Call(answer.status(), "Engine::Search");
    same = same && answer.ok() && *answer == fixed_answer;
    restart_s.push_back(restart);
    load_s.push_back(load_time);
    (traced ? traced_s : untraced_s).push_back(restart);
    auto tw = Clock::now();
    auto warm = engine.Search(records[fixed], search);
    mount_s.push_back(first_time - Since(tw));
    ledger->Call(warm.status(), "Engine::Search");
    ++ops;
  }
  const double window = Since(start);
  ledger->Check(same, "a cold-started engine answers differently");

  // Mounted answers == rebuilt answers on sampled queries.
  Engine mounted = builder().Build();
  mounted.SetRecords(records);
  ledger->Call(mounted.LoadIndex(path), "Engine::LoadIndex");
  uint64_t results = 0;
  Digest digest;
  for (size_t q : cheap) {
    auto a = mounted.Search(records[q], search);
    auto b = built->Search(records[q], search);
    ledger->Call(a.status(), "Engine::Search");
    ledger->Call(b.status(), "Engine::Search");
    if (!a.ok() || !b.ok()) continue;
    ledger->Check(*a == *b, "mounted answers differ from rebuilt answers");
    ledger->Check(std::any_of(a->begin(), a->end(),
                              [&](const Match& m) { return m.id == q; }),
                  "a record does not find itself");
    results += a->size();
    digest.Add(static_cast<uint64_t>(q));
    for (const Match& m : *a) {
      digest.Add(static_cast<uint64_t>(m.id));
      digest.Add(m.similarity);
    }
  }
  ledger->SetOutput(results, digest.Value());
  const double input_bytes = static_cast<double>(TextBytes(records));

  if (tracer == nullptr) {
    ReportOps("cold_start", restart_s, static_cast<double>(ops), window,
              Ratio(static_cast<double>(ops), window), ledger);
    ledger->Extra("stored_bytes_per_input_byte",
                  Ratio(snapshot_bytes, input_bytes), "ratio");
    return;
  }
  // Replay one shard's build and a sample of queries against it through
  // the layers' public functions; its searcher is the reference.
  LayerTotals totals;
  Samples samples;
  ShardPlan plan =
      ShardPlan::Make(records.size(), kColdShards, ShardBy::kRange);
  std::vector<Record> shard;
  for (uint32_t id : plan.shard_ids[0]) {
    shard.push_back(records[id]);
    shard.back().id = static_cast<uint32_t>(shard.size() - 1);
  }
  std::shared_ptr<const PreparedIndex> index;
  {
    Span prepare(tracer, "index.prepare", 0, 0);
    index = PreparedIndex::Build(world->knowledge(), built->options().msim,
                                 shard, nullptr);
    samples.Add("index.prepare_s", prepare.End());
    Span csr(tracer, "index.csr_build", 0, 0);
    index->ServingIndex();
    ledger->Extra("index.csr_build_s", csr.End(), "s");
  }
  UnifiedSearcher searcher(index);
  UnifiedSearcher::SearchOptions so;
  so.theta = search.theta;
  so.tau = search.tau;
  CandidateAccumulator acc;
  Rng rng(world_seed + 5);
  for (size_t i = 0; i < kColdReplayQueries; ++i) {
    const Record& q = records[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(records.size()) - 1))];
    std::vector<Match> expected = searcher.TopK(q, search.k, search.theta, so);
    SearchReplay replay = ReplaySearch(*index, q, search, &acc, tracer,
                                       tracer->NewOp(), &samples);
    ledger->Check(replay.matches == expected,
                  "traced replay differs from the shard's searcher");
    totals.AddSearch(replay);
  }
  ReplayTokenize(records, &world->vocab, 5000, &samples, ledger);
  totals.traced_wall_s = Sum(traced_s) / std::max<size_t>(traced_s.size(), 1);
  totals.untraced_wall_s =
      Sum(untraced_s) / std::max<size_t>(untraced_s.size(), 1);
  totals.shard_fanout = static_cast<double>(kColdShards);
  totals.snapshot_bytes = snapshot_bytes;
  totals.bytes_per_input_byte = Ratio(snapshot_bytes, input_bytes);
  totals.storage_share = Ratio(Sum(load_s), Sum(restart_s));
  ledger->Extra("storage.snapshot_write_s", Median(save_s), "s");
  ledger->Extra("storage.snapshot_load_ms", Median(load_s) * 1e3, "ms");
  ledger->Extra("shard.mount_ms", Median(mount_s) * 1e3, "ms");
  ReportLayers(totals, samples, ledger);
}

// -------------------------------------------------------------------- main

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.GetString("workload", "");
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.seconds = flags.GetDouble("seconds", 10.0);
  opt.work_dir = flags.GetString("work_dir", "");
  opt.json_path = flags.GetString("json", "");
  opt.trace_path = flags.GetString("trace", "");
  if (flags.Has("expect_results")) {
    opt.expect_results =
        static_cast<uint64_t>(flags.GetInt("expect_results", 0));
  }
  if (flags.Has("expect_digest")) {
    opt.expect_digest = flags.GetString("expect_digest", "");
  }

  const std::map<std::string,
                 std::function<void(const Options&, Ledger*, Tracer*)>>
      workloads = {
          {"join_med",
           [](const Options& o, Ledger* l, Tracer* t) {
             RunJoin(kJoinMed, o, l, t);
           }},
          {"join_wiki_sharded",
           [](const Options& o, Ledger* l, Tracer* t) {
             RunJoin(kJoinWikiSharded, o, l, t);
           }},
          {"serve_med", RunServe},
          {"append_mixed", RunAppend},
          {"cold_start_large", RunColdStart},
      };
  auto workload = workloads.find(opt.workload);
  if (workload == workloads.end() || opt.work_dir.empty() ||
      opt.json_path.empty() || opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME --seed=N --seconds=S "
                 "--work_dir=DIR --json=FILE [--trace=FILE]\nworkloads:");
    for (const auto& [name, fn] : workloads) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  Ledger ledger;
  std::unique_ptr<Tracer> tracer;
  if (!opt.trace_path.empty()) tracer = std::make_unique<Tracer>();
  workload->second(opt, &ledger, tracer.get());
  fs::remove_all(opt.work_dir, ec);

  if (opt.expect_results) {
    ledger.Check(ledger.results() == *opt.expect_results,
                 "result count " + std::to_string(ledger.results()) +
                     " != expected " + std::to_string(*opt.expect_results));
  }
  if (opt.expect_digest) {
    ledger.Check(Hex64(ledger.digest()) == *opt.expect_digest,
                 "result digest " + Hex64(ledger.digest()) +
                     " != expected " + *opt.expect_digest);
  }
  if (tracer != nullptr &&
      !tracer->WriteChromeTrace(opt.trace_path, opt.workload)) {
    ledger.Fail("cannot write trace " + opt.trace_path);
  }

  struct utsname host {};
  uname(&host);
  const std::map<std::string, std::string> info = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", FullDouble(opt.seconds)},
      {"traced", tracer != nullptr ? "true" : "false"},
      {"threads", std::to_string(kThreads)},
      {"host", std::string(host.sysname) + " " + host.release + " " +
                   host.machine},
      {"cpu", CpuModel()},
#if defined(__clang__)
      {"compiler", std::string("clang ") + __clang_version__},
#else
      {"compiler", std::string("gcc ") + __VERSION__},
#endif
      {"kernel", ActiveKernel().name},
  };
  ledger.Print();
  std::ofstream json(opt.json_path, std::ios::binary | std::ios::trunc);
  json << ledger.ToJson(info, opt.workload);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return 2;
  }
  return ledger.correct() ? 0 : 3;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) { return aujoin::Run(argc, argv); }
