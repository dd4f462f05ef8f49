// Write-ahead-log tests: format round trips, the crash-recovery kill-
// point matrix over a FaultInjectionEnv, seeded torn-write / bit-flip
// fuzzing of the reader, the appends-vs-queries-vs-refreeze race on a
// WAL-backed GenerationalIndex, and the snapshot directory-fsync
// regression. Every suite name contains "Wal" so the TSan CI job's
// ctest filter picks the whole file up.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "core/measures.h"
#include "core/record.h"
#include "index/prepared_index.h"
#include "storage/env.h"
#include "storage/fault_injection_env.h"
#include "storage/generational_index.h"
#include "storage/wal_format.h"
#include "storage/wal_reader.h"
#include "storage/wal_writer.h"
#include "test_fixtures.h"
#include "util/status.h"

namespace aujoin {
namespace {

// Copies the Status: `expr` is often `Result<T>(...).status()`, whose
// referent dies with the temporary at the end of this declaration.
#define ASSERT_OK(expr)                             \
  do {                                              \
    const auto status_ = (expr);                    \
    ASSERT_TRUE(status_.ok()) << status_.ToString(); \
  } while (0)

std::string TempPath(const std::string& name) {
  // Per-process suffix: ctest runs every case as its own process, and
  // concurrent cases of one fixture would otherwise share a filename.
  std::string path = ::testing::TempDir() + "aujoin_wal_" + name + "." +
                     std::to_string(::getpid());
  std::remove(path.c_str());
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The reader may only ever return a prefix of what the writer acked —
/// damage must never invent or reorder records.
void ExpectPrefixOf(const std::vector<std::string>& got,
                    const std::vector<std::string>& want) {
  ASSERT_LE(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "record " << i << " diverged";
  }
}

MsimOptions Msim() {
  MsimOptions msim;
  msim.measures = ParseMeasures("TJS");
  msim.q = 3;
  return msim;
}

// --- format / writer / reader round trips -----------------------------

TEST(WalFormatTest, AppendPayloadRoundTrip) {
  std::string payload;
  EncodeWalAppend(0xDEADBEEFu, "espresso cafe", &payload);
  uint32_t id = 0;
  std::string_view text;
  ASSERT_TRUE(DecodeWalAppend(payload, &id, &text));
  EXPECT_EQ(id, 0xDEADBEEFu);
  EXPECT_EQ(text, "espresso cafe");

  // Shorter than the id prefix: malformed, not empty-text.
  EXPECT_FALSE(DecodeWalAppend(std::string_view("abc", 3), &id, &text));
  EncodeWalAppend(7, "", &payload);
  ASSERT_TRUE(DecodeWalAppend(payload, &id, &text));
  EXPECT_EQ(id, 7u);
  EXPECT_TRUE(text.empty());
}

TEST(WalFormatTest, RoundTripSmallRecords) {
  const std::string path = TempPath("roundtrip.wal");
  std::vector<std::string> records = {"", "a", "latte", std::string(300, 'x'),
                                      std::string("\0\x01\xff binary", 10)};
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    for (const std::string& record : records) {
      ASSERT_OK((*writer)->AddRecord(record.data(), record.size()));
    }
    ASSERT_OK((*writer)->Sync());
    EXPECT_EQ((*writer)->size(), ReadFileBytes(path).size());
  }
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->records, records);
  EXPECT_EQ(replay->valid_bytes, ReadFileBytes(path).size());
}

TEST(WalFormatTest, LargeRecordsFragmentAcrossBlocks) {
  const std::string path = TempPath("fragment.wal");
  std::vector<std::string> records = {
      "small", std::string(3 * kWalBlockSize + 123, 'y'),
      std::string(kWalMaxFragmentPayload, 'z'), "tail"};
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    for (const std::string& record : records) {
      ASSERT_OK((*writer)->AddRecord(record.data(), record.size()));
    }
    ASSERT_OK((*writer)->Sync());
  }
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->records, records);
}

TEST(WalFormatTest, ZeroFilledTrailerWhenBlockCannotFitAHeader) {
  const std::string path = TempPath("trailer.wal");
  // First record ends the block with 6 bytes left — too small for a
  // header, so the second record starts on the next block behind a
  // zero-filled trailer.
  std::vector<std::string> records = {
      std::string(kWalBlockSize - kWalHeaderSize - 6, 'p'), "after"};
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    for (const std::string& record : records) {
      ASSERT_OK((*writer)->AddRecord(record.data(), record.size()));
    }
    ASSERT_OK((*writer)->Sync());
  }
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), kWalBlockSize + kWalHeaderSize + 5);
  for (size_t i = kWalBlockSize - 6; i < kWalBlockSize; ++i) {
    EXPECT_EQ(bytes[i], 0u) << "trailer byte " << i << " not zero";
  }
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_EQ(replay->records, records);
}

TEST(WalFormatTest, ReopenResumesMidBlock) {
  const std::string path = TempPath("reopen.wal");
  std::vector<std::string> records = {"first", "second", "third", "fourth"};
  for (size_t i = 0; i < records.size(); ++i) {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/i == 0);
    ASSERT_OK(writer.status());
    ASSERT_OK((*writer)->AddRecord(records[i].data(), records[i].size()));
    ASSERT_OK((*writer)->Sync());
  }
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_EQ(replay->records, records);
}

TEST(WalFormatTest, ResetSealsTheLogEmpty) {
  const std::string path = TempPath("reset.wal");
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(Env::Default(), path, /*truncate=*/true);
  ASSERT_OK(writer.status());
  ASSERT_OK((*writer)->AddRecord("abc", 3));
  ASSERT_OK((*writer)->Sync());
  ASSERT_OK((*writer)->Reset());
  EXPECT_EQ((*writer)->size(), 0u);
  ASSERT_OK((*writer)->AddRecord("xyz", 3));
  ASSERT_OK((*writer)->Sync());
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], "xyz");
}

// --- reader damage taxonomy -------------------------------------------

TEST(WalReaderTest, MissingFileIsIoError) {
  Result<WalReplay> replay =
      WalReader::ReadAll(Env::Default(), TempPath("no_such.wal"));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kIoError);
}

TEST(WalReaderTest, EmptyLogYieldsNoRecords) {
  const std::string path = TempPath("empty.wal");
  WriteFileBytes(path, {});
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, 0u);
}

TEST(WalReaderTest, TornTailIsACleanStop) {
  const std::string path = TempPath("torn.wal");
  std::vector<std::string> records = {"alpha", "beta", "gamma"};
  uint64_t two_records = 0;
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_OK((*writer)->AddRecord(records[i].data(), records[i].size()));
      if (i == 1) two_records = (*writer)->size();
    }
    ASSERT_OK((*writer)->Sync());
  }
  // Chop the last record in half: a torn write, not corruption.
  ASSERT_OK(Env::Default()->TruncateFile(path, two_records + 5));
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, two_records);
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0], "alpha");
  EXPECT_EQ(replay->records[1], "beta");

  // Recovery contract: truncate to valid_bytes and resume appending.
  ASSERT_OK(Env::Default()->TruncateFile(path, replay->valid_bytes));
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(Env::Default(), path, /*truncate=*/false);
  ASSERT_OK(writer.status());
  ASSERT_OK((*writer)->AddRecord("delta", 5));
  ASSERT_OK((*writer)->Sync());
  replay = WalReader::ReadAll(Env::Default(), path);
  ASSERT_OK(replay.status());
  EXPECT_EQ(replay->records,
            (std::vector<std::string>{"alpha", "beta", "delta"}));
}

TEST(WalReaderTest, DamageBeforeIntactRecordsIsCorruption) {
  const std::string path = TempPath("midlog.wal");
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    for (const char* record : {"alpha", "beta", "gamma"}) {
      ASSERT_OK((*writer)->AddRecord(record, std::strlen(record)));
    }
    ASSERT_OK((*writer)->Sync());
  }
  // Flip one checksum byte of the FIRST record: the intact records
  // behind it would silently vanish if the reader treated this as a
  // torn tail, so it must refuse with a typed kCorruption instead.
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  for (size_t checksum_byte = 0; checksum_byte < 8; ++checksum_byte) {
    std::vector<uint8_t> damaged = bytes;
    damaged[checksum_byte] ^= 0x40;
    WriteFileBytes(path, damaged);
    Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
    ASSERT_FALSE(replay.ok()) << "checksum byte " << checksum_byte;
    EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
  }
}

// --- seeded torn-write / bit-flip fuzzing -----------------------------

class WalFuzzTest : public ::testing::Test {
 protected:
  /// Writes a seeded multi-block log and remembers each record plus the
  /// writer-reported offset right after it (the acked-prefix boundary).
  void BuildLog(const std::string& path, std::mt19937* rng) {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(Env::Default(), path, /*truncate=*/true);
    ASSERT_OK(writer.status());
    std::uniform_int_distribution<size_t> small(0, 900);
    std::uniform_int_distribution<int> byte(0, 255);
    for (size_t i = 0; i < 30; ++i) {
      // Mostly small records with a couple spanning multiple blocks, so
      // truncation points land inside FULL, FIRST, MIDDLE and LAST
      // fragments as well as trailer padding.
      size_t length = (i == 10 || i == 20)
                          ? kWalBlockSize + 500 + small(*rng)
                          : small(*rng);
      std::string record(length, '\0');
      for (char& c : record) c = static_cast<char>(byte(*rng));
      ASSERT_OK((*writer)->AddRecord(record.data(), record.size()));
      records_.push_back(std::move(record));
      acked_end_.push_back((*writer)->size());
    }
    ASSERT_OK((*writer)->Sync());
    bytes_ = ReadFileBytes(path);
    ASSERT_EQ(bytes_.size(), acked_end_.back());
  }

  size_t RecordsWithin(uint64_t offset) const {
    size_t count = 0;
    while (count < acked_end_.size() && acked_end_[count] <= offset) ++count;
    return count;
  }

  std::vector<std::string> records_;
  std::vector<uint64_t> acked_end_;
  std::vector<uint8_t> bytes_;
};

TEST_F(WalFuzzTest, TruncationAtEveryBoundaryYieldsTheExactAckedPrefix) {
  const std::string path = TempPath("fuzz_build.wal");
  const std::string scratch = TempPath("fuzz_trunc.wal");
  std::mt19937 rng(0xA05EED01u);
  BuildLog(path, &rng);

  // Every record boundary (exact, one byte short, one byte past), every
  // block boundary, plus seeded random offsets: 200+ rounds.
  std::vector<uint64_t> offsets = {0, 1};
  for (uint64_t end : acked_end_) {
    offsets.push_back(end);
    if (end > 0) offsets.push_back(end - 1);
    offsets.push_back(end + 1);
  }
  for (uint64_t block = kWalBlockSize; block < bytes_.size();
       block += kWalBlockSize) {
    offsets.push_back(block - 1);
    offsets.push_back(block);
    offsets.push_back(block + 1);
  }
  std::uniform_int_distribution<uint64_t> anywhere(0, bytes_.size());
  for (int round = 0; round < 120; ++round) offsets.push_back(anywhere(rng));
  size_t rounds = 0;
  for (uint64_t offset : offsets) {
    if (offset > bytes_.size()) offset = bytes_.size();
    std::vector<uint8_t> cut(bytes_.begin(),
                             bytes_.begin() + static_cast<size_t>(offset));
    WriteFileBytes(scratch, cut);
    Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), scratch);
    // Truncation is exactly what a crash does, so it must never read as
    // corruption — and replay must yield the acked prefix, no more, no
    // less, no matter which fragment or padding byte the cut landed on.
    ASSERT_OK(replay.status());
    size_t expected = RecordsWithin(offset);
    ASSERT_EQ(replay->records.size(), expected) << "cut at " << offset;
    ExpectPrefixOf(replay->records, records_);
    EXPECT_LE(replay->valid_bytes, offset);
    ++rounds;
  }
  EXPECT_GE(rounds, 200u);
}

TEST_F(WalFuzzTest, BitFlipsNeverCrashOrResurrectRecords) {
  const std::string path = TempPath("fuzz_flip_build.wal");
  const std::string scratch = TempPath("fuzz_flip.wal");
  std::mt19937 rng(0xA05EED02u);
  BuildLog(path, &rng);

  std::uniform_int_distribution<size_t> position(0, bytes_.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  std::uniform_int_distribution<int> flips(1, 3);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> damaged = bytes_;
    int n = flips(rng);
    for (int i = 0; i < n; ++i) {
      damaged[position(rng)] ^= static_cast<uint8_t>(1 << bit(rng));
    }
    WriteFileBytes(scratch, damaged);
    Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), scratch);
    if (replay.ok()) {
      // Damage confined to the tail (or to bytes the checksum happens
      // not to cover, like trailer padding): a clean prefix.
      ExpectPrefixOf(replay->records, records_);
      EXPECT_LE(replay->valid_bytes, bytes_.size());
    } else {
      // Mid-log damage: typed corruption, never a crash.
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption)
          << replay.status().ToString();
    }
  }
}

TEST_F(WalFuzzTest, GarbageTailsNeverInventRecords) {
  const std::string path = TempPath("fuzz_tail_build.wal");
  const std::string scratch = TempPath("fuzz_tail.wal");
  std::mt19937 rng(0xA05EED03u);
  BuildLog(path, &rng);

  std::uniform_int_distribution<size_t> extra(1, 300);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 60; ++round) {
    std::vector<uint8_t> damaged = bytes_;
    size_t n = extra(rng);
    for (size_t i = 0; i < n; ++i) {
      // Bias towards zeros every third round: zero runs look like
      // trailer padding, the most confusable garbage.
      damaged.push_back(round % 3 == 0 ? 0
                                       : static_cast<uint8_t>(byte(rng)));
    }
    WriteFileBytes(scratch, damaged);
    Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), scratch);
    if (replay.ok()) {
      // A checksummed format cannot mistake garbage for a record: every
      // acked record survives and nothing appears behind them.
      EXPECT_EQ(replay->records, records_);
    } else {
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption)
          << replay.status().ToString();
    }
  }
}

// --- the crash-recovery kill-point matrix -----------------------------

/// Shared vocabulary-threaded world for append workloads: the base
/// collection plus the texts the workload appends, with a checkpoint in
/// the middle. Recovery re-tokenises through a FRESH world, which must
/// reproduce the original interning (the factories run over the same
/// texts in the same order).
struct AppendWorkload {
  std::vector<std::string> base = {
      "coffee shop latte helsingki", "espresso cafe helsinki",
      "apple cake bakery", "gateau cake shop"};
  std::vector<std::string> before_checkpoint = {
      "latte coffee shop", "espresso bar helsinki", "apple gateau"};
  std::vector<std::string> after_checkpoint = {
      "cafe coffee drinks", "cake apple bakery", "helsinki espresso cafe"};

  std::vector<Record> BaseRecords(Figure1World* world) const {
    std::vector<Record> records;
    for (size_t i = 0; i < base.size(); ++i) {
      records.push_back(world->MakeRec(static_cast<uint32_t>(i), base[i]));
    }
    return records;
  }
};

TEST(WalCrashMatrixTest, EveryKillPointRecoversExactlyTheAckedRecords) {
  const std::string wal_path = TempPath("matrix.wal");
  const std::string ckpt_path = TempPath("matrix.aujsnap");
  AppendWorkload workload;
  EngineSearchOptions search_options;
  search_options.theta = 0.5;
  search_options.tau = 1;

  bool completed = false;
  int kill = 0;
  for (; kill < 400 && !completed; ++kill) {
    std::remove(wal_path.c_str());
    std::remove(ckpt_path.c_str());
    std::remove((ckpt_path + ".tmp").c_str());

    FaultInjectionEnv fenv(Env::Default());
    std::vector<std::string> acked;

    {  // --- the crashing process ------------------------------------
      Figure1World world;
      std::vector<Record> base = workload.BaseRecords(&world);
      Engine engine = EngineBuilder()
                          .SetKnowledge(world.knowledge())
                          .SetMsimOptions(Msim())
                          .SetEnv(&fenv)
                          .Build();
      engine.SetRecords(base);
      RecordFactory factory = [&world](const std::string& text) {
        return world.MakeRec(0, text);
      };
      fenv.FailAfterOps(kill);
      // The workload stops at the first injected failure, exactly like
      // a process dying at that syscall. `acked` collects every append
      // the API acknowledged as durable before that point.
      do {
        if (!engine.EnableAppend(wal_path, factory).ok()) break;
        bool failed = false;
        for (const std::string& text : workload.before_checkpoint) {
          if (!engine.Append(text).ok()) {
            failed = true;
            break;
          }
          acked.push_back(text);
        }
        if (failed) break;
        if (!engine.Checkpoint(ckpt_path).ok()) break;
        for (const std::string& text : workload.after_checkpoint) {
          if (!engine.Append(text).ok()) {
            failed = true;
            break;
          }
          acked.push_back(text);
        }
        if (failed) break;
        completed = !fenv.fault_fired();
      } while (false);
      fenv.ClearFault();
      // Crash FIRST, destroy the engine after: a real crashed process
      // never runs the writer's destructor, and with tracking already
      // cleared the close-on-destroy changes nothing on disk.
      ASSERT_OK(fenv.SimulateCrash());
    }

    // --- the recovering process ------------------------------------
    // A fresh world re-interns the base texts and (through the factory)
    // the replayed appends in the same order, reproducing the original
    // token ids — which is what lets the checkpoint fingerprints match.
    Figure1World world;
    std::vector<Record> base = workload.BaseRecords(&world);
    Engine engine = EngineBuilder()
                        .SetKnowledge(world.knowledge())
                        .SetMsimOptions(Msim())
                        .SetEnv(&fenv)
                        .Build();
    engine.SetRecords(base);
    RecordFactory factory = [&world](const std::string& text) {
      return world.MakeRec(0, text);
    };
    Status recovered = engine.EnableAppend(wal_path, factory, ckpt_path);
    ASSERT_TRUE(recovered.ok())
        << "kill point " << kill << ": " << recovered.ToString();

    // Exactly the acknowledged records came back: no acked append lost,
    // no failed append resurrected.
    const GenerationalIndex* generational = engine.generational_index();
    ASSERT_NE(generational, nullptr);
    ASSERT_EQ(generational->size(), base.size() + acked.size())
        << "kill point " << kill;
    for (size_t i = 0; i < acked.size(); ++i) {
      EXPECT_EQ(generational->TextOf(static_cast<uint32_t>(base.size() + i)),
                acked[i])
          << "kill point " << kill << ", append " << i;
    }

    // Byte-identical serving: the recovered engine must answer every
    // query exactly like an oracle that indexed base + acked from
    // scratch and never crashed.
    Figure1World oracle_world;
    std::vector<Record> oracle_records = workload.BaseRecords(&oracle_world);
    for (const std::string& text : acked) {
      oracle_records.push_back(oracle_world.MakeRec(
          static_cast<uint32_t>(oracle_records.size()), text));
    }
    std::shared_ptr<const PreparedIndex> oracle_index = PreparedIndex::Build(
        oracle_world.knowledge(), Msim(), oracle_records, nullptr);
    UnifiedSearcher oracle(oracle_index);
    UnifiedSearcher::SearchOptions oracle_options;
    oracle_options.theta = search_options.theta;
    oracle_options.tau = search_options.tau;
    for (size_t i = 0; i < oracle_records.size(); ++i) {
      std::string text = i < base.size() ? workload.base[i]
                                         : acked[i - base.size()];
      // Id-0 query records on BOTH sides: the two vocabularies are in
      // identical states, so the token ids (and thus the results) must
      // agree exactly.
      Record query = world.MakeRec(0, text);
      Record oracle_query = oracle_world.MakeRec(0, text);
      Result<std::vector<UnifiedSearcher::Match>> got =
          engine.Search(query, search_options);
      ASSERT_OK(got.status());
      EXPECT_EQ(*got, oracle.Search(oracle_query, oracle_options))
          << "kill point " << kill << ", query " << i;
    }

    // The recovered log must also be APPENDABLE — recovery trims any
    // torn tail, so the next durable append lands on sound bytes.
    Result<uint32_t> next = engine.Append("fresh espresso after recovery");
    ASSERT_OK(next.status());
    EXPECT_EQ(*next, static_cast<uint32_t>(base.size() + acked.size()));
  }
  // The sweep must terminate by exhausting the workload's kill points,
  // not by hitting the iteration bound.
  ASSERT_TRUE(completed) << "workload never completed within " << kill
                         << " kill points";
  EXPECT_GT(kill, 10) << "workload too short to be a meaningful matrix";
}

// --- engine-level WAL semantics ---------------------------------------

class WalEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = workload_.BaseRecords(&world_);
    wal_path_ = TempPath("engine.wal");
  }

  Engine MakeEngine(Env* env) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMsimOptions(Msim())
                        .SetEnv(env)
                        .Build();
    engine.SetRecords(base_);
    return engine;
  }

  RecordFactory Factory() {
    return [this](const std::string& text) { return world_.MakeRec(0, text); };
  }

  AppendWorkload workload_;
  Figure1World world_;
  std::vector<Record> base_;
  std::string wal_path_;
};

TEST_F(WalEngineTest, AppendOutsideAppendModeIsRefused) {
  Engine engine = MakeEngine(nullptr);
  EXPECT_EQ(engine.Append("x").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Refreeze().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Checkpoint(TempPath("never.aujsnap")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(WalEngineTest, JoinIsRefusedInAppendMode) {
  Engine engine = MakeEngine(nullptr);
  ASSERT_OK(engine.EnableAppend(wal_path_, Factory()));
  Result<JoinResult> join = engine.Join("unified", EngineJoinOptions{});
  ASSERT_FALSE(join.ok());
  EXPECT_EQ(join.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WalEngineTest, FailedAppendStaysFailedAndNeverResurrects) {
  FaultInjectionEnv fenv(Env::Default());
  {
    Engine engine = MakeEngine(&fenv);
    ASSERT_OK(engine.EnableAppend(wal_path_, Factory()));
    ASSERT_OK(engine.Append("latte coffee shop").status());

    // Let the next append's WAL write land but fail its fsync: the
    // record reached the file yet was never acknowledged durable.
    fenv.FailAfterOps(1);
    Result<uint32_t> denied = engine.Append("espresso bar helsinki");
    ASSERT_FALSE(denied.ok());
    EXPECT_TRUE(fenv.fault_fired());
    fenv.ClearFault();

    // Sticky: reusing the failed append's id would make replay
    // resurrect whichever version reached the disk.
    Result<uint32_t> after = engine.Append("apple gateau");
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_OK(fenv.SimulateCrash());
  }
  // Recovery sees the one acknowledged append and nothing else.
  Figure1World world;
  std::vector<Record> base = workload_.BaseRecords(&world);
  Engine engine = EngineBuilder()
                      .SetKnowledge(world.knowledge())
                      .SetMsimOptions(Msim())
                      .SetEnv(&fenv)
                      .Build();
  engine.SetRecords(base);
  ASSERT_OK(engine.EnableAppend(
      wal_path_, [&world](const std::string& text) {
        return world.MakeRec(0, text);
      }));
  EXPECT_EQ(engine.wal_recovered_records(), 1u);
  ASSERT_EQ(engine.generational_index()->size(), base.size() + 1);
  EXPECT_EQ(engine.generational_index()->TextOf(
                static_cast<uint32_t>(base.size())),
            "latte coffee shop");
}

TEST_F(WalEngineTest, MidLogDamageSurfacesAsTypedCorruption) {
  {
    Engine engine = MakeEngine(nullptr);
    ASSERT_OK(engine.EnableAppend(wal_path_, Factory()));
    for (const std::string& text : workload_.before_checkpoint) {
      ASSERT_OK(engine.Append(text).status());
    }
  }
  std::vector<uint8_t> bytes = ReadFileBytes(wal_path_);
  bytes[kWalHeaderSize + 2] ^= 0x10;  // first record's payload
  WriteFileBytes(wal_path_, bytes);

  Figure1World world;
  std::vector<Record> base = workload_.BaseRecords(&world);
  Engine engine = EngineBuilder()
                      .SetKnowledge(world.knowledge())
                      .SetMsimOptions(Msim())
                      .Build();
  engine.SetRecords(base);
  Status recovered = engine.EnableAppend(
      wal_path_, [&world](const std::string& text) {
        return world.MakeRec(0, text);
      });
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.code(), StatusCode::kCorruption);
  EXPECT_FALSE(engine.append_mode());
}

// --- log recycling and preallocation ----------------------------------

TEST(WalRecycleTest, OpenPreallocatesAndPaysExactlyOneDirFsync) {
  FaultInjectionEnv fenv(Env::Default());
  const std::string path = TempPath("recycle_open.wal");
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
      &fenv, path, /*truncate=*/false, /*preallocate_bytes=*/1 << 16);
  ASSERT_OK(writer.status());
  int syncdirs = 0;
  int allocates = 0;
  for (const std::string& op : fenv.TakeOpLog()) {
    if (StartsWith(op, "syncdir")) ++syncdirs;
    if (StartsWith(op, "allocate")) ++allocates;
  }
  EXPECT_EQ(syncdirs, 1) << "creation publishes the name exactly once";
  EXPECT_EQ(allocates, 1);
  // KEEP_SIZE semantics: the reservation never changes the logical size.
  EXPECT_EQ((*writer)->size(), 0u);
  Result<uint64_t> size = fenv.GetFileSize(path);
  ASSERT_OK(size.status());
  EXPECT_EQ(*size, 0u);

  ASSERT_OK((*writer)->AddRecord("alpha", 5));
  ASSERT_OK((*writer)->Sync());
  writer->reset();

  // Reopening the existing log (the recovery path) pays no dir fsync:
  // the name is already durable.
  fenv.TakeOpLog();
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(
      &fenv, path, /*truncate=*/false, /*preallocate_bytes=*/1 << 16);
  ASSERT_OK(reopened.status());
  for (const std::string& op : fenv.TakeOpLog()) {
    EXPECT_FALSE(StartsWith(op, "syncdir")) << op;
  }
  ASSERT_OK((*reopened)->AddRecord("bravo", 5));
  ASSERT_OK((*reopened)->Sync());
  Result<WalReplay> replay = WalReader::ReadAll(&fenv, path);
  ASSERT_OK(replay.status());
  EXPECT_EQ(replay->records, (std::vector<std::string>{"alpha", "bravo"}));
}

TEST(WalRecycleTest, ResetRecyclesTheFileWithoutDirectoryFsync) {
  FaultInjectionEnv fenv(Env::Default());
  const std::string path = TempPath("recycle_reset.wal");
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
      &fenv, path, /*truncate=*/true, /*preallocate_bytes=*/1 << 16);
  ASSERT_OK(writer.status());
  ASSERT_OK((*writer)->AddRecord("alpha", 5));
  ASSERT_OK((*writer)->Sync());

  fenv.TakeOpLog();
  ASSERT_OK((*writer)->Reset());
  bool saw_truncate = false;
  bool saw_allocate = false;
  for (const std::string& op : fenv.TakeOpLog()) {
    EXPECT_FALSE(StartsWith(op, "syncdir"))
        << "Reset paid a parent-directory fsync: " << op;
    EXPECT_FALSE(StartsWith(op, "rename")) << op;
    EXPECT_FALSE(StartsWith(op, "remove")) << op;
    if (StartsWith(op, "truncate")) saw_truncate = true;
    if (StartsWith(op, "allocate")) saw_allocate = true;
  }
  EXPECT_TRUE(saw_truncate) << "Reset must truncate in place";
  EXPECT_TRUE(saw_allocate) << "Reset must renew the extent reservation";
  EXPECT_EQ((*writer)->size(), 0u);

  // The recycled log is appendable and serves only post-reset records.
  ASSERT_OK((*writer)->AddRecord("bravo", 5));
  ASSERT_OK((*writer)->Sync());
  Result<WalReplay> replay = WalReader::ReadAll(&fenv, path);
  ASSERT_OK(replay.status());
  EXPECT_EQ(replay->records, (std::vector<std::string>{"bravo"}));
}

TEST(WalRecycleTest, EveryKillPointThroughRecycleLeavesADurableState) {
  const std::string path = TempPath("recycle_matrix.wal");
  bool completed = false;
  int kill = 0;
  for (; kill < 64 && !completed; ++kill) {
    std::remove(path.c_str());
    FaultInjectionEnv fenv(Env::Default());
    fenv.FailAfterOps(kill);
    // Synced-record counts either side of the Reset, updated only when
    // the corresponding Sync was acknowledged.
    int pre = 0;
    int post = 0;
    bool reset_acked = false;
    do {
      Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
          &fenv, path, /*truncate=*/true, /*preallocate_bytes=*/1 << 12);
      if (!writer.ok()) break;
      if (!(*writer)->AddRecord("alpha", 5).ok()) break;
      if (!(*writer)->Sync().ok()) break;
      pre = 1;
      if (!(*writer)->AddRecord("bravo", 5).ok()) break;
      if (!(*writer)->Sync().ok()) break;
      pre = 2;
      if (!(*writer)->Reset().ok()) break;
      reset_acked = true;
      if (!(*writer)->AddRecord("charlie", 7).ok()) break;
      if (!(*writer)->Sync().ok()) break;
      post = 1;
      completed = !fenv.fault_fired();
    } while (false);
    fenv.ClearFault();
    ASSERT_OK(fenv.SimulateCrash());

    if (!Env::Default()->FileExists(path)) {
      // Legal only while nothing was ever acknowledged: the creation
      // was never published by the open's dir sync.
      EXPECT_EQ(pre, 0) << "kill " << kill;
      EXPECT_FALSE(reset_acked) << "kill " << kill;
      continue;
    }
    Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), path);
    ASSERT_TRUE(replay.ok())
        << "kill " << kill << ": " << replay.status().ToString();
    if (reset_acked) {
      // An acknowledged Reset synced the truncation: pre-reset records
      // must never resurrect, and the log holds at most the post-reset
      // appends that were themselves synced.
      std::vector<std::string> want(static_cast<size_t>(post), "charlie");
      EXPECT_EQ(replay->records, want) << "kill " << kill;
    } else {
      std::vector<std::string> want = {"alpha", "bravo"};
      want.resize(static_cast<size_t>(pre));
      EXPECT_EQ(replay->records, want) << "kill " << kill;
    }
  }
  ASSERT_TRUE(completed) << "workload never completed within " << kill
                         << " kill points";
  EXPECT_GT(kill, 8) << "workload too short to be a meaningful matrix";
}

// --- size-triggered checkpoints ---------------------------------------

TEST_F(WalEngineTest, SizeTriggeredCheckpointsBoundRecoveryReplay) {
  const std::string ckpt_path = TempPath("autockpt.aujsnap");

  {  // Phase 1: a 1-byte threshold trips a checkpoint on every append.
    Engine engine = EngineBuilder()
                        .SetKnowledge(world_.knowledge())
                        .SetMsimOptions(Msim())
                        .SetWalCheckpointBytes(1)
                        .Build();
    engine.SetRecords(base_);
    ASSERT_OK(engine.EnableAppend(wal_path_, Factory(), ckpt_path));
    for (const std::string& text : workload_.before_checkpoint) {
      ASSERT_OK(engine.Append(text).status());
    }
    ASSERT_OK(engine.auto_checkpoint_status());
    EXPECT_EQ(engine.auto_checkpoints(), workload_.before_checkpoint.size());
    // The last auto-checkpoint sealed the log empty.
    Result<uint64_t> wal_size = Env::Default()->GetFileSize(wal_path_);
    ASSERT_OK(wal_size.status());
    EXPECT_EQ(*wal_size, 0u);
  }

  size_t checkpointed = workload_.before_checkpoint.size();
  {  // Phase 2: no threshold — these appends stay in the log as the tail.
    Figure1World world;
    std::vector<Record> base = workload_.BaseRecords(&world);
    for (const std::string& text : workload_.before_checkpoint) {
      world.MakeRec(0, text);  // keep vocabulary interning in lockstep
    }
    Engine engine = EngineBuilder()
                        .SetKnowledge(world.knowledge())
                        .SetMsimOptions(Msim())
                        .Build();
    engine.SetRecords(base);
    ASSERT_OK(engine.EnableAppend(
        wal_path_,
        [&world](const std::string& text) { return world.MakeRec(0, text); },
        ckpt_path));
    EXPECT_EQ(engine.wal_recovered_records(), 0u)
        << "everything before the last auto-checkpoint replays from the "
           "snapshot, not the log";
    EXPECT_EQ(engine.auto_checkpoints(), 0u);
    for (const std::string& text : workload_.after_checkpoint) {
      ASSERT_OK(engine.Append(text).status());
    }
    EXPECT_EQ(engine.auto_checkpoints(), 0u);
  }

  {  // Phase 3: recovery replays ONLY the post-checkpoint tail.
    Figure1World world;
    std::vector<Record> base = workload_.BaseRecords(&world);
    for (const std::string& text : workload_.before_checkpoint) {
      world.MakeRec(0, text);
    }
    Engine engine = EngineBuilder()
                        .SetKnowledge(world.knowledge())
                        .SetMsimOptions(Msim())
                        .Build();
    engine.SetRecords(base);
    ASSERT_OK(engine.EnableAppend(
        wal_path_,
        [&world](const std::string& text) { return world.MakeRec(0, text); },
        ckpt_path));
    EXPECT_EQ(engine.wal_recovered_records(),
              workload_.after_checkpoint.size());
    const GenerationalIndex* generational = engine.generational_index();
    ASSERT_NE(generational, nullptr);
    ASSERT_EQ(generational->size(),
              base.size() + checkpointed + workload_.after_checkpoint.size());
    for (size_t i = 0; i < checkpointed; ++i) {
      EXPECT_EQ(generational->TextOf(
                    static_cast<uint32_t>(base.size() + i)),
                workload_.before_checkpoint[i]);
    }
    for (size_t i = 0; i < workload_.after_checkpoint.size(); ++i) {
      EXPECT_EQ(generational->TextOf(static_cast<uint32_t>(
                    base.size() + checkpointed + i)),
                workload_.after_checkpoint[i]);
    }
  }
}

TEST_F(WalEngineTest, FailedAutoCheckpointKeepsTheAppendAcknowledged) {
  const std::string ckpt_path = TempPath("autockpt_fail.aujsnap");
  FaultInjectionEnv fenv(Env::Default());
  Engine engine = EngineBuilder()
                      .SetKnowledge(world_.knowledge())
                      .SetMsimOptions(Msim())
                      .SetWalCheckpointBytes(1)
                      .SetEnv(&fenv)
                      .Build();
  engine.SetRecords(base_);
  ASSERT_OK(engine.EnableAppend(wal_path_, Factory(), ckpt_path));

  // Let the append's WAL write + fsync land, then fail the checkpoint's
  // very first file operation.
  ASSERT_OK(engine.Append(workload_.before_checkpoint[0]).status());
  ASSERT_OK(engine.auto_checkpoint_status());
  uint64_t taken = engine.auto_checkpoints();
  fenv.FailAfterOps(2);  // the append's WAL add + sync succeed, no more
  Result<uint32_t> appended = engine.Append(workload_.before_checkpoint[1]);
  fenv.ClearFault();

  // The append is durable and acknowledged; only the checkpoint failed,
  // and its failure is reported out of band.
  ASSERT_OK(appended.status());
  EXPECT_FALSE(engine.auto_checkpoint_status().ok());
  EXPECT_EQ(engine.auto_checkpoints(), taken);
  const GenerationalIndex* generational = engine.generational_index();
  ASSERT_NE(generational, nullptr);
  EXPECT_EQ(generational->TextOf(static_cast<uint32_t>(base_.size() + 1)),
            workload_.before_checkpoint[1]);
}

// --- appends racing queries and refreezes -----------------------------

TEST(WalConcurrencyTest, AppendsRaceQueriesAndRefreezeThenRecoverInParity) {
  const std::string wal_path = TempPath("race.wal");
  Figure1World world;
  AppendWorkload workload;
  std::vector<Record> base = workload.BaseRecords(&world);

  // Pre-tokenise every append and query BEFORE spawning threads:
  // vocabulary interning is not synchronised, and AppendDurable only
  // needs ready-made records.
  std::vector<std::string> append_texts;
  const char* words[] = {"coffee", "shop", "latte", "espresso", "cafe",
                         "helsinki", "apple", "cake", "gateau", "drinks"};
  std::mt19937 rng(0xA05EED04u);
  std::uniform_int_distribution<size_t> pick(0, 9);
  for (int i = 0; i < 24; ++i) {
    std::string text;
    for (int w = 0; w < 4; ++w) {
      if (w > 0) text += ' ';
      text += words[pick(rng)];
    }
    append_texts.push_back(text);
  }
  std::vector<Record> appends;
  for (const std::string& text : append_texts) {
    appends.push_back(world.MakeRec(0, text));
  }
  std::vector<Record> queries;
  for (const std::string& text : workload.base) {
    queries.push_back(world.MakeRec(0, text));
  }

  GenerationalIndex generational(world.knowledge(), Msim(), base);
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(Env::Default(), wal_path, /*truncate=*/true);
  ASSERT_OK(wal.status());
  generational.AttachWal(wal->get());

  UnifiedSearcher::SearchOptions options;
  options.theta = 0.5;
  options.tau = 1;

  // Two racing passes, each over half the appends: the first without
  // the refreezer, so appends land beside staging slots the readers
  // keep building, the second with it.
  std::atomic<bool> append_failed{false};
  std::atomic<bool> append_invisible{false};
  std::atomic<bool> query_failed{false};
  auto race = [&](size_t begin, size_t end, bool refreeze) {
    std::atomic<bool> done{false};
    std::thread appender([&] {
      for (size_t i = begin; i < end; ++i) {
        Result<uint32_t> id = generational.AppendDurable(appends[i]);
        if (!id.ok() || *id != base.size() + i) {
          append_failed.store(true);
          break;
        }
        // Read-your-write under the race: the acknowledged record
        // answers a query for its own text at once, whatever staging
        // slot the queriers last built and wherever the refreezer has
        // moved it.
        std::vector<UnifiedSearcher::Match> own =
            SearchSlices(appends[i], kAllMatches, options, generational.Pin());
        if (std::none_of(
                own.begin(), own.end(),
                [&](const UnifiedSearcher::Match& m) { return m.id == *id; })) {
          append_invisible.store(true);
        }
      }
      done.store(true);
    });
    std::thread refreezer([&] {
      while (refreeze && !done.load()) {
        generational.Refreeze();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> queriers;
    for (int t = 0; t < 2; ++t) {
      queriers.emplace_back([&] {
        while (!done.load()) {
          for (const Record& query : queries) {
            std::vector<UnifiedSearcher::Match> matches =
                SearchSlices(query, kAllMatches, options, generational.Pin());
            // Sanity under the race: serving order and id bounds hold
            // on every intermediate state. (Exact parity is checked
            // once the dust settles.)
            for (size_t i = 0; i < matches.size(); ++i) {
              if (matches[i].id >= generational.size() ||
                  (i > 0 &&
                   matches[i - 1].similarity < matches[i].similarity)) {
                query_failed.store(true);
              }
            }
          }
        }
      });
    }
    appender.join();
    refreezer.join();
    for (std::thread& querier : queriers) querier.join();
  };
  race(0, appends.size() / 2, /*refreeze=*/false);
  race(appends.size() / 2, appends.size(), /*refreeze=*/true);
  ASSERT_FALSE(append_failed.load());
  EXPECT_FALSE(append_invisible.load())
      << "an acknowledged append was missing from the next query";
  ASSERT_FALSE(query_failed.load());

  // Settled parity: the raced index answers exactly like a scratch
  // build over the union.
  generational.Refreeze();
  ASSERT_EQ(generational.size(), base.size() + appends.size());
  std::vector<Record> union_records = base;
  for (size_t i = 0; i < appends.size(); ++i) {
    Record record = appends[i];
    record.id = static_cast<uint32_t>(base.size() + i);
    union_records.push_back(std::move(record));
  }
  std::shared_ptr<const PreparedIndex> scratch =
      PreparedIndex::Build(world.knowledge(), Msim(), union_records, nullptr);
  UnifiedSearcher reference(scratch);
  for (const Record& query : queries) {
    EXPECT_EQ(SearchSlices(query, kAllMatches, options, generational.Pin()),
              reference.Search(query, options));
  }

  // Crash parity: every append was acknowledged durable, so the log
  // replays all of them — and any truncated copy replays an exact
  // prefix, in order.
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), wal_path);
  ASSERT_OK(replay.status());
  ASSERT_EQ(replay->records.size(), append_texts.size());
  std::vector<uint8_t> bytes = ReadFileBytes(wal_path);
  std::uniform_int_distribution<uint64_t> anywhere(0, bytes.size());
  const std::string scratch_path = TempPath("race_cut.wal");
  for (int round = 0; round < 20; ++round) {
    uint64_t offset = anywhere(rng);
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<size_t>(offset));
    WriteFileBytes(scratch_path, cut);
    Result<WalReplay> partial =
        WalReader::ReadAll(Env::Default(), scratch_path);
    ASSERT_OK(partial.status());
    ASSERT_LE(partial->records.size(), append_texts.size());
    for (size_t i = 0; i < partial->records.size(); ++i) {
      uint32_t id = 0;
      std::string_view text;
      ASSERT_TRUE(DecodeWalAppend(partial->records[i], &id, &text));
      EXPECT_EQ(id, base.size() + i);
      EXPECT_EQ(text, append_texts[i]);
    }
  }
}

// --- group commit ------------------------------------------------------

TEST(WalGroupCommitTest, ConcurrentDurableAppendsShareSyncsAndKeepIdOrder) {
  const std::string wal_path = TempPath("group.wal");
  Figure1World world;
  AppendWorkload workload;
  std::vector<Record> base = workload.BaseRecords(&world);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  // Pre-tokenise outside the threads (vocabulary interning is not
  // synchronised); texts are distinct so replayed payloads identify
  // their append uniquely.
  std::vector<std::vector<Record>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      work[t].push_back(world.MakeRec(
          0, "gram " + std::to_string(t) + " batch " + std::to_string(i)));
    }
  }

  GenerationalIndex generational(world.knowledge(), Msim(), base);
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(Env::Default(), wal_path, /*truncate=*/true);
  ASSERT_OK(wal.status());
  generational.AttachWal(wal->get());

  std::vector<std::vector<uint32_t>> ids(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Record& record : work[t]) {
        Result<uint32_t> id = generational.AppendDurable(record);
        if (!id.ok()) {
          failed.store(true);
          return;
        }
        ids[t].push_back(*id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Every append got its own id and together they tile the staged
  // range — group commit batches fsyncs, never acknowledgements.
  const size_t total = kThreads * kPerThread;
  std::vector<uint32_t> all;
  for (const auto& per_thread : ids) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), total);
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(all[i], base.size() + i);
  }
  EXPECT_EQ(generational.num_staged(), total);
  // A batch shares one fsync, so syncs never exceed appends (the whole
  // point), and at least one batch was flushed.
  EXPECT_GE((*wal)->sync_count(), 1u);
  EXPECT_LE((*wal)->sync_count(), total);

  // The log replays every acknowledged record, in id order, each
  // agreeing with the staged state.
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), wal_path);
  ASSERT_OK(replay.status());
  ASSERT_EQ(replay->records.size(), total);
  for (size_t i = 0; i < replay->records.size(); ++i) {
    uint32_t id = 0;
    std::string_view text;
    ASSERT_TRUE(DecodeWalAppend(replay->records[i], &id, &text));
    EXPECT_EQ(id, base.size() + i);
    EXPECT_EQ(generational.TextOf(id), text);
  }
  std::remove(wal_path.c_str());
}

TEST(WalGroupCommitTest, BatchFailureFailsEveryQueuedAppendAndSticks) {
  const std::string wal_path = TempPath("group_fail.wal");
  Figure1World world;
  AppendWorkload workload;
  std::vector<Record> base = workload.BaseRecords(&world);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<Record>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string text =
          "fail " + std::to_string(t) + " item " + std::to_string(i);
      work[t].push_back(world.MakeRec(0, text));
    }
  }

  FaultInjectionEnv fenv(Env::Default());
  GenerationalIndex generational(world.knowledge(), Msim(), base);
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(&fenv, wal_path, /*truncate=*/true);
  ASSERT_OK(wal.status());
  generational.AttachWal(wal->get());
  fenv.FailAfterOps(10);  // dies mid-run, somewhere inside a batch

  std::atomic<uint32_t> acked{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Record& record : work[t]) {
        if (generational.AppendDurable(record).ok()) acked.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(fenv.fault_fired());

  // Log order == id order, and a failed batch stages nothing, so the
  // acknowledged appends are exactly the staged prefix — ids of failed
  // appends are burned, never reused (sticky status).
  EXPECT_EQ(generational.num_staged(), acked.load());
  EXPECT_LT(acked.load(), static_cast<uint32_t>(kThreads * kPerThread));
  Record more = world.MakeRec(0, "after the failure");
  EXPECT_FALSE(generational.AppendDurable(more).ok());
  EXPECT_EQ(generational.num_staged(), acked.load());

  // After a crash the log replays exactly the acknowledged prefix.
  fenv.ClearFault();
  ASSERT_OK(fenv.SimulateCrash());
  Result<WalReplay> replay = WalReader::ReadAll(Env::Default(), wal_path);
  ASSERT_OK(replay.status());
  ASSERT_EQ(replay->records.size(), acked.load());
  for (size_t i = 0; i < replay->records.size(); ++i) {
    uint32_t id = 0;
    std::string_view text;
    ASSERT_TRUE(DecodeWalAppend(replay->records[i], &id, &text));
    EXPECT_EQ(id, base.size() + i);
    EXPECT_EQ(generational.TextOf(id), text);
  }
  std::remove(wal_path.c_str());
}

// --- snapshot directory-fsync regression ------------------------------

TEST(WalSnapshotDirSyncTest, SnapshotRenameIsFollowedByAParentDirSync) {
  const std::string path = TempPath("dirsync.aujsnap");
  Figure1World world;
  AppendWorkload workload;
  std::vector<Record> records = workload.BaseRecords(&world);
  std::shared_ptr<const PreparedIndex> index =
      PreparedIndex::Build(world.knowledge(), Msim(), records, nullptr);

  FaultInjectionEnv fenv(Env::Default());
  ASSERT_OK(index->Save(path, &fenv));
  std::vector<std::string> ops = fenv.TakeOpLog();
  int rename_at = -1;
  int syncdir_at = -1;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].rfind("rename ", 0) == 0) rename_at = static_cast<int>(i);
    if (ops[i].rfind("syncdir ", 0) == 0) syncdir_at = static_cast<int>(i);
  }
  ASSERT_GE(rename_at, 0) << "snapshot save never renamed its temp file";
  ASSERT_GT(syncdir_at, rename_at)
      << "rename not followed by a parent-directory fsync";

  // With the directory entry synced, the snapshot survives the crash.
  ASSERT_OK(fenv.SimulateCrash());
  EXPECT_TRUE(Env::Default()->FileExists(path));
  Result<std::shared_ptr<const PreparedIndex>> loaded = PreparedIndex::Load(
      world.knowledge(), Msim(), records, nullptr, path);
  ASSERT_OK(loaded.status());
}

TEST(WalSnapshotDirSyncTest, RenameWithoutDirSyncIsLostOnCrash) {
  Figure1World world;
  AppendWorkload workload;
  std::vector<Record> records = workload.BaseRecords(&world);
  std::shared_ptr<const PreparedIndex> index =
      PreparedIndex::Build(world.knowledge(), Msim(), records, nullptr);

  // Learn the save's op sequence, then rerun it with the fault armed to
  // fail exactly the final SyncDir — the pre-fix behaviour, where the
  // rename reached the directory but was never made durable.
  int ops_before_syncdir = -1;
  {
    FaultInjectionEnv probe(Env::Default());
    ASSERT_OK(index->Save(TempPath("dirsync_probe.aujsnap"), &probe));
    std::vector<std::string> ops = probe.TakeOpLog();
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].rfind("syncdir ", 0) == 0) {
        ops_before_syncdir = static_cast<int>(i);
      }
    }
    ASSERT_GE(ops_before_syncdir, 0);
  }

  const std::string path = TempPath("dirsync_lost.aujsnap");
  FaultInjectionEnv fenv(Env::Default());
  fenv.FailAfterOps(ops_before_syncdir);
  Status saved = index->Save(path, &fenv);
  ASSERT_FALSE(saved.ok()) << "SyncDir failure must fail the save";
  EXPECT_TRUE(fenv.fault_fired());
  // The live process still sees the file...
  EXPECT_TRUE(fenv.FileExists(path));
  // ...but the machine dies, and the unpublished rename is gone — the
  // exact data-loss window the directory fsync closes.
  fenv.ClearFault();
  ASSERT_OK(fenv.SimulateCrash());
  EXPECT_FALSE(Env::Default()->FileExists(path));
}

}  // namespace
}  // namespace aujoin
