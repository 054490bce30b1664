// Chaos battery for the hardened serving runtime: randomized, seed-logged
// fault schedules (transient kUnavailable, allocation-pressure
// kResourceExhausted, permanent kInternal, latency padding) armed at the
// service.execute / engine.execute / parallel.chunk sites while 8
// concurrent clients hammer one QueryService over a fresh build and an
// mmap-restored engine (OpenFile). The invariants, per
// response, every schedule:
//
//   - a clean success is bit-identical to the serial fault-free reference
//     (rows, row order, var names, totals);
//   - a failure is one of the injected codes or admission's
//     kResourceExhausted — never a crash, a hang, or a garbled row;
//   - a timeout is a RESPONSE (timed_out set), possibly partial by
//     contract, and is the only shape allowed to differ from reference.
//
// A separate window (counting global allocator, matcher_alloc style)
// proves whole schedules — faults, retries, evictions, coalesced flights,
// service teardown — leak not one live heap allocation. Every schedule
// logs its seed so any failure replays exactly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "server/query_service.h"
#include "test_util.h"
#include "util/fault_injector.h"

namespace {
std::atomic<int64_t> g_live_allocs{0};
}  // namespace

// Global allocator replacement tracking LIVE allocations (news minus
// deletes): a balanced diff around a chaos window proves the service
// released every byte it touched, faults and all. Every form routes
// through malloc/free so plain and sized/aligned news and deletes pair.
void* operator new(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept {
  if (p) g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// One (query text, request shape) with its fault-free serial reference.
struct ChaosCase {
  std::string text;
  RequestOptions request;
  std::vector<std::string> want_var_names;
  std::vector<std::vector<std::string>> want_rows;
  uint64_t want_total = 0;
  bool want_truncated = false;
};

/// The fixed request shapes every query text is exercised through.
std::vector<RequestOptions> RequestShapes() {
  std::vector<RequestOptions> shapes;
  shapes.push_back({});  // full materialize
  RequestOptions page;
  page.offset = 2;
  page.limit = 3;
  shapes.push_back(page);
  RequestOptions count;
  count.count_only = true;
  shapes.push_back(count);
  return shapes;
}

/// Builds the chaos workload with references from a clean serial service
/// over `reference` (no faults armed when this runs).
std::vector<ChaosCase> BuildCases(AmberEngine& reference,
                                  const std::vector<Triple>& data) {
  std::vector<std::string> texts;
  for (int qi = 0; qi < 4; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(data, 700 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 7");

  ServiceOptions serial;
  serial.pool_threads = 1;
  serial.cache_entries = 0;  // every reference is a fresh execution
  QueryService service(&reference, serial);

  std::vector<ChaosCase> cases;
  for (const std::string& text : texts) {
    for (const RequestOptions& shape : RequestShapes()) {
      auto resp = service.Query(text, shape);
      EXPECT_TRUE(resp.ok()) << resp.status() << "\n" << text;
      if (!resp.ok()) continue;
      EXPECT_FALSE(resp->timed_out);
      ChaosCase c;
      c.text = text;
      c.request = shape;
      c.want_var_names = resp->var_names;
      c.want_rows = resp->rows;
      c.want_total = resp->total_rows;
      c.want_truncated = resp->truncated;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

/// Arms a randomized, replayable fault schedule drawn from `rng` on the
/// serving-path sites (plus the page-handoff site for stream schedules).
/// Returns a description for failure logs.
std::string ArmRandomSchedule(std::mt19937_64& rng,
                              bool with_stream_site = false) {
  std::vector<const char*> sites = {faults::kServiceExecute,
                                    faults::kEngineExecute,
                                    faults::kParallelChunk};
  if (with_stream_site) sites.push_back(faults::kServiceStream);
  const StatusCode codes[] = {
      StatusCode::kUnavailable,       // transient (retried)
      StatusCode::kUnavailable,       // biased: transients dominate
      StatusCode::kInternal,          // permanent
      StatusCode::kResourceExhausted  // allocation pressure
  };
  std::string desc;
  for (const char* site : sites) {
    // Each site is armed with probability 2/3 — except the last, which is
    // forced on when the draw left everything disarmed so every schedule
    // injects SOMETHING.
    if (rng() % 3 == 0 && !(desc.empty() && site == sites.back())) continue;
    FaultSpec spec;
    spec.code = codes[rng() % 4];
    switch (rng() % 3) {
      case 0:
        spec.probability = 0.05 + static_cast<double>(rng() % 30) / 100.0;
        spec.seed = rng() | 1;
        break;
      case 1:
        spec.fail_every = 2 + rng() % 4;
        break;
      default:
        spec.fail_nth = 1 + rng() % 5;
        break;
    }
    if (rng() % 3 == 0) spec.delay = std::chrono::milliseconds(1);
    FaultInjector::Global().Arm(site, spec);
    desc += std::string(site) + " code=" +
            std::to_string(static_cast<int>(spec.code)) + "; ";
  }
  return desc;
}

/// Random ServiceOptions for one schedule: every robustness knob varies.
ServiceOptions RandomOptions(std::mt19937_64& rng) {
  ServiceOptions options;
  options.pool_threads = 2;
  options.max_in_flight = 4 + rng() % 5;
  options.max_queued = rng() % 9;
  options.default_thread_budget = 1 + rng() % 3;
  options.cache_entries = (rng() % 2 == 0) ? 8 : 0;
  options.cache_bytes = (rng() % 2 == 0) ? (16ull << 10) : (64ull << 20);
  options.single_flight = rng() % 2 == 0;
  options.max_retries = rng() % 3;
  options.initial_backoff = std::chrono::milliseconds(1);
  options.shed_high_water = (rng() % 2 == 0) ? 2 : 0;
  options.shed_thread_budget = 1;
  if (rng() % 4 == 0) {
    options.default_deadline = std::chrono::milliseconds(25);
  }
  return options;
}

/// Runs one schedule: 8 clients × 3 requests against `engine` under the
/// armed faults, checking every response against its reference.
void RunOneSchedule(QueryEngine* engine, const std::vector<ChaosCase>& cases,
                    uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string faults_desc = ArmRandomSchedule(rng);
  // The replay handle: every assertion below carries it (SCOPED_TRACE is
  // thread-local, so client-thread failures must embed it themselves).
  const std::string trace = " [chaos seed=" + std::to_string(seed) +
                            " faults: " + faults_desc + "]";
  const ServiceOptions options = RandomOptions(rng);
  {
    QueryService service(engine, options);
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 3;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int ci = 0; ci < kClients; ++ci) {
      const uint64_t client_seed = seed ^ (0x9E3779B97F4A7C15ull * (ci + 1));
      clients.emplace_back([&service, &cases, &trace, client_seed] {
        std::mt19937_64 crng(client_seed);
        for (int qi = 0; qi < kRequestsPerClient; ++qi) {
          const ChaosCase& c = cases[crng() % cases.size()];
          RequestOptions req = c.request;
          req.thread_budget = 1 + crng() % 3;
          if (crng() % 8 == 0) req.bypass_cache = true;
          auto resp = service.Query(c.text, req);
          if (!resp.ok()) {
            // Failures must be clean, known codes: the injected ones or
            // admission's rejection — nothing else, ever.
            const StatusCode code = resp.status().code();
            EXPECT_TRUE(code == StatusCode::kUnavailable ||
                        code == StatusCode::kInternal ||
                        code == StatusCode::kResourceExhausted)
                << resp.status() << trace;
            continue;
          }
          // A timeout is a response and may hold a partial (prefix) row
          // set by contract; anything else must match the reference bit
          // for bit.
          if (resp->timed_out) continue;
          EXPECT_EQ(resp->var_names, c.want_var_names) << c.text << trace;
          EXPECT_EQ(resp->rows, c.want_rows) << c.text << trace;
          EXPECT_EQ(resp->total_rows, c.want_total) << c.text << trace;
          EXPECT_EQ(resp->truncated, c.want_truncated) << c.text << trace;
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  FaultInjector::Global().Reset();
}

// ---------------------------------------------------------------------------
// Streaming chaos: randomized mid-stream abandonment schedules.

/// One streamable query with its full-result serial reference (the plain,
/// unpaginated shapes of the materializing workload).
struct StreamCase {
  std::string text;
  std::vector<std::string> want_var_names;
  std::vector<std::vector<std::string>> want_rows;
};

std::vector<StreamCase> StreamCasesFrom(const std::vector<ChaosCase>& cases) {
  std::vector<StreamCase> out;
  for (const ChaosCase& c : cases) {
    if (c.request.count_only || c.request.offset != 0 ||
        c.request.limit != 0) {
      continue;
    }
    out.push_back({c.text, c.want_var_names, c.want_rows});
  }
  return out;
}

/// Chaos page consumer: collects rows, asserts page continuity as pages
/// arrive, and — per its mode — aborts or trips the client token after a
/// drawn number of pages (mid-stream abandonment).
class ChaosPageSink : public PageSink {
 public:
  bool OnPage(StreamPage&& page) override {
    EXPECT_EQ(page.first_row, rows.size())
        << "page skipped or repeated" << *trace;
    for (auto& row : page.rows) rows.push_back(std::move(row));
    ++pages;
    if (page.last) saw_last = true;
    if (cancel_after_pages != 0 && pages >= cancel_after_pages &&
        cancel_source != nullptr) {
      cancel_source->Cancel();
    }
    return abort_after_pages == 0 || pages < abort_after_pages;
  }

  const std::string* trace = nullptr;
  std::vector<std::vector<std::string>> rows;
  uint64_t pages = 0;
  bool saw_last = false;
  uint64_t abort_after_pages = 0;
  uint64_t cancel_after_pages = 0;
  CancellationSource* cancel_source = nullptr;
};

/// Runs one streaming schedule: 6 clients × 3 requests mixing full
/// consumption, sink aborts, token trips after K pages, pre-cancelled
/// materializing requests and delayed cancels (token trips during retry
/// backoff) — under randomized faults on all four serving-path sites.
/// Invariants, per response:
///
///   - an error is one of the injected codes or admission's rejection;
///   - an ok stream ends in EXACTLY one of complete/cancelled/timed_out;
///   - the streamed rows are a bit-identical PREFIX of the serial
///     reference (the full reference when complete).
void RunOneStreamSchedule(QueryEngine* engine,
                          const std::vector<StreamCase>& cases,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string faults_desc =
      ArmRandomSchedule(rng, /*with_stream_site=*/true);
  const std::string trace = " [stream-chaos seed=" + std::to_string(seed) +
                            " faults: " + faults_desc + "]";
  ServiceOptions options = RandomOptions(rng);
  options.stream_page_rows = 1 + rng() % 4;
  if (rng() % 2 == 0) options.stream_buffer_bytes = 64 + rng() % 256;
  {
    QueryService service(engine, options);
    constexpr int kClients = 6;
    constexpr int kRequestsPerClient = 3;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int ci = 0; ci < kClients; ++ci) {
      const uint64_t client_seed = seed ^ (0xD1B54A32D192ED03ull * (ci + 1));
      clients.emplace_back([&service, &cases, &trace, client_seed] {
        std::mt19937_64 crng(client_seed);
        for (int qi = 0; qi < kRequestsPerClient; ++qi) {
          const StreamCase& c = cases[crng() % cases.size()];
          RequestOptions req;
          req.thread_budget = 1 + crng() % 3;
          const int mode = crng() % 5;

          if (mode == 3) {
            // Pre-cancelled materializing request: must answer cancelled
            // (or time out in the queue / fail with an injected code) —
            // and must never reach a full execution.
            CancellationSource client_cancel;
            client_cancel.Cancel();
            req.cancel = client_cancel.token();
            auto resp = service.Query(c.text, req);
            if (resp.ok()) {
              // A pre-cancelled request never EXECUTES — but an already
              // materialized answer (cache hit, single-flight attach) may
              // still be served, and then it must be the full reference.
              EXPECT_TRUE(resp->cancelled || resp->timed_out ||
                          resp->cache_hit)
                  << trace;
              if (resp->cache_hit && !resp->cancelled && !resp->timed_out) {
                EXPECT_EQ(resp->rows, c.want_rows) << c.text << trace;
              }
            }
            continue;
          }
          if (mode == 4) {
            // Delayed trip: lands before, during (backoff included) or
            // after the execution — every landing must classify cleanly.
            CancellationSource client_cancel;
            req.cancel = client_cancel.token();
            std::thread canceller([&client_cancel, &crng] {
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(crng() % 8));
              client_cancel.Cancel();
            });
            auto resp = service.Query(c.text, req);
            canceller.join();
            if (resp.ok() && !resp->cancelled && !resp->timed_out) {
              EXPECT_EQ(resp->rows, c.want_rows) << c.text << trace;
            }
            continue;
          }

          CancellationSource client_cancel;
          ChaosPageSink sink;
          sink.trace = &trace;
          if (mode == 1) sink.abort_after_pages = 1 + crng() % 3;
          if (mode == 2) {
            sink.cancel_after_pages = 1 + crng() % 3;
            sink.cancel_source = &client_cancel;
            req.cancel = client_cancel.token();
          }
          auto resp = service.QueryStream(c.text, req, &sink);
          if (!resp.ok()) {
            const StatusCode code = resp.status().code();
            EXPECT_TRUE(code == StatusCode::kUnavailable ||
                        code == StatusCode::kInternal ||
                        code == StatusCode::kResourceExhausted)
                << resp.status() << trace;
          } else {
            EXPECT_EQ((resp->complete ? 1 : 0) + (resp->cancelled ? 1 : 0) +
                          (resp->timed_out ? 1 : 0),
                      1)
                << trace;
            if (resp->complete) {
              EXPECT_TRUE(sink.saw_last) << trace;
              EXPECT_EQ(sink.rows, c.want_rows) << c.text << trace;
            }
          }
          // Delivered pages are ALWAYS a bit-identical prefix of the
          // serial reference — complete, abandoned, timed out or errored
          // mid-stream alike.
          ASSERT_LE(sink.rows.size(), c.want_rows.size()) << c.text << trace;
          for (size_t i = 0; i < sink.rows.size(); ++i) {
            ASSERT_EQ(sink.rows[i], c.want_rows[i])
                << "prefix diverged at row " << i << ": " << c.text << trace;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  FaultInjector::Global().Reset();
}

constexpr int kSchedulesPerEngine = 70;

class QueryServiceChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new std::vector<Triple>(testutil::RandomDataset(41, 14, 80, 3));
    fresh_ = new AmberEngine(MustBuild(*data_));
    cases_ = new std::vector<ChaosCase>(BuildCases(*fresh_, *data_));
    ASSERT_FALSE(cases_->empty());

    mmap_path_ = new std::string("/tmp/amber_chaos_" +
                                 std::to_string(::getpid()) + ".amf");
    ASSERT_TRUE(fresh_->SaveFile(*mmap_path_).ok());
    auto mapped = AmberEngine::OpenFile(*mmap_path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mmap_ = new AmberEngine(std::move(mapped).value());
  }

  static void TearDownTestSuite() {
    delete mmap_;
    std::remove(mmap_path_->c_str());
    delete mmap_path_;
    delete cases_;
    delete fresh_;
    delete data_;
    mmap_ = fresh_ = nullptr;
    mmap_path_ = nullptr;
    cases_ = nullptr;
    data_ = nullptr;
  }

  static std::vector<Triple>* data_;
  static AmberEngine* fresh_;
  static AmberEngine* mmap_;
  static std::string* mmap_path_;
  static std::vector<ChaosCase>* cases_;
};

std::vector<Triple>* QueryServiceChaosTest::data_ = nullptr;
AmberEngine* QueryServiceChaosTest::fresh_ = nullptr;
AmberEngine* QueryServiceChaosTest::mmap_ = nullptr;
std::string* QueryServiceChaosTest::mmap_path_ = nullptr;
std::vector<ChaosCase>* QueryServiceChaosTest::cases_ = nullptr;

TEST_F(QueryServiceChaosTest, FreshEngineSurvivesRandomSchedules) {
  for (int s = 0; s < kSchedulesPerEngine; ++s) {
    RunOneSchedule(fresh_, *cases_, 0x0F00D000ull + s);
  }
}

TEST_F(QueryServiceChaosTest, MmapEngineSurvivesRandomSchedules) {
  // Two seed blocks: the mmap engine is the only restored engine, so it
  // runs twice the fresh engine's schedules.
  for (int s = 0; s < kSchedulesPerEngine; ++s) {
    RunOneSchedule(mmap_, *cases_, 0x5EED1000ull + s);
    RunOneSchedule(mmap_, *cases_, 0xCAFE2000ull + s);
  }
}

TEST_F(QueryServiceChaosTest, StreamingSchedulesSurviveChaos) {
  const std::vector<StreamCase> stream_cases = StreamCasesFrom(*cases_);
  ASSERT_FALSE(stream_cases.empty());
  for (int s = 0; s < 30; ++s) {
    RunOneStreamSchedule(fresh_, stream_cases, 0x57AE3000ull + s);
  }
}

TEST_F(QueryServiceChaosTest, MmapStreamingSchedulesSurviveChaos) {
  const std::vector<StreamCase> stream_cases = StreamCasesFrom(*cases_);
  ASSERT_FALSE(stream_cases.empty());
  for (int s = 0; s < 15; ++s) {
    RunOneStreamSchedule(mmap_, stream_cases, 0x57AE4000ull + s);
  }
}

TEST_F(QueryServiceChaosTest, StreamingSchedulesLeakNoAllocations) {
  const std::vector<StreamCase> stream_cases = StreamCasesFrom(*cases_);
  ASSERT_FALSE(stream_cases.empty());
  // Warm-up settles lazy one-shot allocations (see below).
  RunOneStreamSchedule(fresh_, stream_cases, 0x57AEA000ull);
  RunOneStreamSchedule(fresh_, stream_cases, 0x57AEA001ull);

  const int64_t live_before = g_live_allocs.load(std::memory_order_relaxed);
  for (int s = 0; s < 8; ++s) {
    RunOneStreamSchedule(fresh_, stream_cases, 0x57AEA100ull + s);
  }
  const int64_t live_after = g_live_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(live_after - live_before, 0)
      << "streaming chaos schedules leaked " << (live_after - live_before)
      << " live heap allocations";
}

TEST_F(QueryServiceChaosTest, SchedulesLeakNoAllocations) {
  // Warm-up: settles every lazy one-shot allocation (gtest internals,
  // FaultInjector's site map buckets, thread-local machinery) before the
  // measured window.
  RunOneSchedule(fresh_, *cases_, 0xA110C000ull);
  RunOneSchedule(fresh_, *cases_, 0xA110C001ull);

  const int64_t live_before = g_live_allocs.load(std::memory_order_relaxed);
  for (int s = 0; s < 8; ++s) {
    RunOneSchedule(fresh_, *cases_, 0xA110C100ull + s);
  }
  const int64_t live_after = g_live_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(live_after - live_before, 0)
      << "chaos schedules leaked " << (live_after - live_before)
      << " live heap allocations";
}

}  // namespace
}  // namespace amber
