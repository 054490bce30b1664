// Unit tests for the utility layer: Status/Result, string helpers, RNG and
// Zipf sampling, deadlines and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/exec.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace amber {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

// Exhaustive: every status code has a deliberate HTTP mapping (the wire
// error schema and the transport's response codes both ride on it).
TEST(StatusTest, StatusCodeToHttpCoversEveryCode) {
  const struct {
    StatusCode code;
    int http;
  } expected[] = {
      {StatusCode::kOk, 200},
      {StatusCode::kInvalidArgument, 400},
      {StatusCode::kNotFound, 404},
      {StatusCode::kCorruption, 500},
      {StatusCode::kUnimplemented, 501},
      {StatusCode::kTimeout, 504},
      {StatusCode::kIOError, 500},
      {StatusCode::kResourceExhausted, 429},
      {StatusCode::kInternal, 500},
      {StatusCode::kUnavailable, 503},
  };
  for (const auto& e : expected) {
    EXPECT_EQ(StatusCodeToHttp(e.code), e.http) << StatusCodeName(e.code);
  }
  // Compile-time usable (the server builds status lines in constexpr
  // contexts) and total: 4xx/5xx only for errors.
  static_assert(StatusCodeToHttp(StatusCode::kOk) == 200);
  static_assert(StatusCodeToHttp(StatusCode::kUnavailable) == 503);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsProduceMatchingPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  AMBER_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::NotFound("no")).status().IsNotFound());
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, Split) {
  auto pieces = StrSplit("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
}

TEST(StringUtilTest, EscapeRoundTrip) {
  std::string nasty = "line\nwith \"quotes\" and \\slash\\ and\ttab";
  std::string unescaped;
  ASSERT_TRUE(UnescapeNTriples(EscapeNTriples(nasty), &unescaped));
  EXPECT_EQ(unescaped, nasty);
}

TEST(StringUtilTest, UnicodeEscapes) {
  std::string out;
  ASSERT_TRUE(UnescapeNTriples("caf\\u00E9", &out));
  EXPECT_EQ(out, "caf\xC3\xA9");
  ASSERT_TRUE(UnescapeNTriples("\\U0001F600", &out));
  EXPECT_EQ(out, "\xF0\x9F\x98\x80");
}

TEST(StringUtilTest, MalformedEscapesRejected) {
  std::string out;
  EXPECT_FALSE(UnescapeNTriples("\\q", &out));
  EXPECT_FALSE(UnescapeNTriples("\\u12", &out));       // truncated hex
  EXPECT_FALSE(UnescapeNTriples("\\uD800", &out));     // lone surrogate
  EXPECT_FALSE(UnescapeNTriples("trailing\\", &out));  // dangling backslash
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024ull * 1024), "3.0 MiB");
}

TEST(RngTest, DeterministicStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SampleDistinct) {
  Rng rng(9);
  auto sample = rng.Sample(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  EXPECT_LT(sample.back(), 100u);
}

TEST(ZipfTest, SkewsTowardsLowRanks) {
  Rng rng(11);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(&rng)];
  // Rank 0 should be sampled far more than rank 50.
  EXPECT_GT(hits[0], hits[50] * 5);
  int total = 0;
  for (int h : hits) total += h;
  EXPECT_EQ(total, 20000);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(Deadline::After(std::chrono::milliseconds(0)).Expired());
}

TEST(DeadlineTest, ExpiresAfterBudget) {
  Deadline d = Deadline::After(std::chrono::milliseconds(5));
  EXPECT_FALSE(d.infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(d.Expired());
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(sw.Elapsed().count(), 5000);  // at least 5 ms in microseconds
  sw.Reset();
  EXPECT_LT(sw.ElapsedMillis(), 5.0);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ExecUtilTest, SaturatingArithmetic) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(SaturatingMul(1ull << 40, 1ull << 40), max);
  EXPECT_EQ(SaturatingMul(3, 7), 21u);
  EXPECT_EQ(SaturatingAdd(max, 1), max);
  EXPECT_EQ(SaturatingAdd(40, 2), 42u);
}

}  // namespace
}  // namespace amber
