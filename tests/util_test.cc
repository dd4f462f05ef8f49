#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/lazy_publish.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace aujoin {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllRunAndWaitIdleBlocks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after draining.
  pool.Submit([&counter] { ++counter; });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, PoolParallelForCoversTheRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.num_workers());
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsWhileUnrelatedTasksAreQueued) {
  ThreadPool pool(4);
  std::atomic<int> background{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&background] { ++background; });
  }
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](size_t begin, size_t end, int /*worker*/) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
  pool.WaitIdle();
  EXPECT_EQ(background.load(), 20);
}

TEST(ParallelForTest, FreeFunctionMatchesSerialExecution) {
  for (int threads : {1, 2, 4, 0}) {
    std::vector<int> hits(257, 0);
    std::mutex mutex;
    ParallelFor(hits.size(), threads,
                [&](size_t begin, size_t end, int /*worker*/) {
                  std::lock_guard<std::mutex> lock(mutex);
                  for (size_t i = begin; i < end; ++i) ++hits[i];
                });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, ZeroItemsIsANoOp) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t, size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad theta");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- LazyPublish: build once, publish to lock-free readers ----------

TEST(LazyPublishTest, ConcurrentFirstGetsBuildOnceAndShareOnePointer) {
  LazyPublish<int> lazy;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      Result<std::shared_ptr<const int>> value = lazy.Get([&] {
        ++builds;
        // Hold the build open so the other first callers pile up on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<const int>(42);
      });
      if (value.ok()) seen[t] = *value;
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(*seen[0], 42);
  for (const std::shared_ptr<const int>& value : seen) {
    EXPECT_EQ(value, seen[0]);
  }
  EXPECT_EQ(lazy.Peek(), seen[0]);
}

TEST(LazyPublishTest, FailedBuildPublishesNothingAndTheNextGetRetries) {
  LazyPublish<int> lazy;
  int builds = 0;
  auto failing = [&]() -> Result<std::shared_ptr<const int>> {
    ++builds;
    return Status::Corruption("damaged");
  };
  Result<std::shared_ptr<const int>> first = lazy.Get(failing);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(lazy.Peek(), nullptr);
  EXPECT_FALSE(lazy.Get(failing).ok());
  EXPECT_EQ(builds, 2);

  Result<std::shared_ptr<const int>> retried = lazy.Get([&] {
    ++builds;
    return std::make_shared<const int>(7);
  });
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(**retried, 7);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(lazy.Peek(), *retried);
  // Published: later builds, failing or not, never run.
  Result<std::shared_ptr<const int>> again = lazy.Get(failing);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *retried);
  EXPECT_EQ(builds, 3);
}

TEST(LazyPublishTest, PeekNeverBuilds) {
  LazyPublish<int> lazy;
  EXPECT_EQ(lazy.Peek(), nullptr);
  EXPECT_EQ(lazy.Peek(), nullptr);
  int builds = 0;
  Result<std::shared_ptr<const int>> built = lazy.Get([&] {
    ++builds;
    return std::make_shared<const int>(1);
  });
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(lazy.Peek(), *built);
}

TEST(LazyPublishTest, ConstructedWithAValueNeverCallsItsBuild) {
  auto value = std::make_shared<const int>(5);
  LazyPublish<int> lazy(value);
  EXPECT_EQ(lazy.Peek(), value);
  int builds = 0;
  Result<std::shared_ptr<const int>> got = lazy.Get([&] {
    ++builds;
    return std::make_shared<const int>(6);
  });
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  EXPECT_EQ(builds, 0);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardsZero) {
  Rng rng(5);
  int low = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // A zipf-ish draw should hit the first decile far more than uniformly.
  EXPECT_GT(low, trials / 8);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(OnlineMeanVarianceTest, MatchesClosedForm) {
  OnlineMeanVariance mv;
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) mv.Add(x);
  EXPECT_EQ(mv.count(), xs.size());
  EXPECT_NEAR(mv.mean(), 5.0, 1e-12);
  // Unbiased sample variance of this classic data set is 32/7.
  EXPECT_NEAR(mv.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(mv.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineMeanVarianceTest, SingleObservationHasZeroVariance) {
  OnlineMeanVariance mv;
  mv.Add(3.5);
  EXPECT_DOUBLE_EQ(mv.mean(), 3.5);
  EXPECT_DOUBLE_EQ(mv.variance(), 0.0);
}

TEST(PercentileTest, Endpoints) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_NEAR(Percentile(v, 25), 2.5, 1e-12);
}

TEST(PercentileTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StudentTQuantileTest, MatchesPaperSetting) {
  // Fig. 8 caption: 70% two-sided confidence => t* = 1.036 (large df).
  EXPECT_NEAR(StudentTQuantile(0.70, 200), 1.039, 0.01);
}

TEST(StudentTQuantileTest, WiderForSmallDf) {
  double small_df = StudentTQuantile(0.95, 3);
  double large_df = StudentTQuantile(0.95, 1000);
  EXPECT_GT(small_df, large_df);
  EXPECT_NEAR(large_df, 1.96, 0.02);
  EXPECT_NEAR(small_df, 3.18, 0.12);
}

TEST(HashTest, SpanHashDiffersByContent) {
  uint32_t a[] = {1, 2, 3};
  uint32_t b[] = {1, 2, 4};
  EXPECT_NE(HashTokenSpan(a, 3), HashTokenSpan(b, 3));
  EXPECT_EQ(HashTokenSpan(a, 3), HashTokenSpan(a, 3));
}

TEST(FlagsTest, ParsesKeyValueAndBools) {
  const char* argv[] = {"prog", "--theta=0.85", "--tau=3", "--verbose",
                        "positional"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("theta", 0.5), 0.85);
  EXPECT_EQ(flags.GetInt("tau", 1), 3);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, ParsesLists) {
  const char* argv[] = {"prog", "--theta=0.7,0.8,0.9", "--taus=1,2,4"};
  Flags flags(3, const_cast<char**>(argv));
  auto thetas = flags.GetDoubleList("theta", {});
  ASSERT_EQ(thetas.size(), 3u);
  EXPECT_DOUBLE_EQ(thetas[1], 0.8);
  auto taus = flags.GetIntList("taus", {});
  ASSERT_EQ(taus.size(), 3u);
  EXPECT_EQ(taus[2], 4);
}

TEST(FlagsTest, MalformedNumbersExitNamingTheFlag) {
  const char* argv[] = {"prog", "--shards=0,4x", "--strings=abc",
                        "--theta=0.7,0.8x", "--sample=1e-2", "--taus=1,,2"};
  Flags flags(6, const_cast<char**>(argv));
  // Every item parses whole: "4x" is not 4, and "abc" is not 0.
  EXPECT_EXIT(flags.GetIntList("shards", {}), ::testing::ExitedWithCode(1),
              "error: --shards must be an integer \\(got '4x'\\)");
  EXPECT_EXIT(flags.GetInt("strings", 0), ::testing::ExitedWithCode(1),
              "error: --strings must be an integer \\(got 'abc'\\)");
  EXPECT_EXIT(flags.GetDoubleList("theta", {}), ::testing::ExitedWithCode(1),
              "error: --theta must be a number \\(got '0.8x'\\)");
  EXPECT_EXIT(flags.GetDouble("theta", 0.5), ::testing::ExitedWithCode(1),
              "error: --theta must be a number \\(got '0.7,0.8x'\\)");
  EXPECT_DOUBLE_EQ(flags.GetDouble("sample", 1.0), 0.01);
  // Empty items are skipped, as before.
  EXPECT_EQ(flags.GetIntList("taus", {}), (std::vector<int64_t>{1, 2}));
}

TEST(IoTest, SplitAndJoinRoundTrip) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, ","), "a,b,,c");
}

TEST(IoTest, WriteThenReadLines) {
  std::string path = ::testing::TempDir() + "/aujoin_io_test.txt";
  std::vector<std::string> lines{"coffee shop latte", "espresso cafe"};
  ASSERT_TRUE(WriteLines(path, lines).ok());
  auto read = ReadLines(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, lines);
}

TEST(IoTest, ReadMissingFileFails) {
  auto read = ReadLines("/nonexistent/dir/file.txt");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace aujoin
