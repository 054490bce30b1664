// Admission control and deadline semantics under saturation: rejected
// requests fail fast with kResourceExhausted and leak NOTHING — no pool
// tasks, no scratch arenas, not one heap allocation left behind (verified
// with the counting global allocator in the style of matcher_alloc_test.cc,
// extended to track live allocations) — and deadlines stay per-QUERY
// budgets even when the request spends its life waiting in the queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "server/query_service.h"
#include "test_util.h"

namespace {
std::atomic<int64_t> g_live_allocs{0};

/// The one release path of every operator delete form below.
void CountedRelease(void* p) noexcept {
  if (p) g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// Global allocator replacement tracking LIVE allocations (news minus
// deletes): a balanced diff around a rejected request proves the service
// released every byte it touched. Every form routes through malloc/free
// (the deletes through one counted-release helper) so plain and
// sized/aligned news and deletes stay paired.
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
void operator delete(void* p) noexcept { CountedRelease(p); }
void operator delete[](void* p) noexcept { CountedRelease(p); }
void operator delete(void* p, std::size_t) noexcept { CountedRelease(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedRelease(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  CountedRelease(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedRelease(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedRelease(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedRelease(p);
}

namespace amber {
namespace {

/// Engine stub whose executions block on a gate until released: the
/// deterministic way to hold execution slots and saturate admission.
class BlockingEngine : public QueryEngine {
 public:
  std::string name() const override { return "Blocking"; }

  Result<CountResult> Count(const SelectQuery&,
                            const ExecOptions& options) override {
    RecordAndBlock(options);
    CountResult r;
    r.count = 1;
    return r;
  }
  Result<MaterializedRows> Materialize(const SelectQuery& query,
                                       const ExecOptions& options) override {
    RecordAndBlock(options);
    MaterializedRows r;
    r.var_names = query.projection;
    r.rows.push_back(std::vector<std::string>(query.projection.size(), "x"));
    return r;
  }

  /// Blocks the caller until `count` executions have entered the engine.
  void AwaitEntered(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void ReleaseAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

  /// Re-arms the gate so later executions block again.
  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = false;
  }

  /// Timeout budgets the service passed down, in entry order.
  std::vector<std::chrono::milliseconds> SeenTimeouts() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_timeouts_;
  }

  int entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  void RecordAndBlock(const ExecOptions& options) {
    std::unique_lock<std::mutex> lock(mu_);
    seen_timeouts_.push_back(options.timeout);
    ++entered_;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [&] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  int entered_ = 0;
  bool released_ = false;
  std::vector<std::chrono::milliseconds> seen_timeouts_;
};

const char* kQuery = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";

/// Starts `n` client threads that each run one request and park inside the
/// blocking engine; returns once all have entered.
std::vector<std::thread> Saturate(QueryService& service,
                                  BlockingEngine& engine, int n) {
  std::vector<std::thread> holders;
  for (int i = 0; i < n; ++i) {
    holders.emplace_back([&service] {
      RequestOptions req;
      req.bypass_cache = true;
      auto resp = service.Query(kQuery, req);
      EXPECT_TRUE(resp.ok()) << resp.status();
    });
  }
  engine.AwaitEntered(n);
  return holders;
}

TEST(QueryServiceAdmissionTest, SaturationRejectsWithResourceExhausted) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 2;
  options.max_queued = 0;  // no waiting room: reject immediately
  QueryService service(&engine, options);

  auto holders = Saturate(service, engine, 2);

  // Every further request must be rejected at the door.
  for (int i = 0; i < 3; ++i) {
    RequestOptions req;
    req.bypass_cache = true;
    auto resp = service.Query(kQuery, req);
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted)
        << resp.status();
  }
  EXPECT_EQ(service.Stats().rejected, 3u);
  EXPECT_EQ(engine.entered(), 2);  // rejections never touched the engine

  engine.ReleaseAll();
  for (auto& t : holders) t.join();

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.peak_in_flight, 2u);
}

TEST(QueryServiceAdmissionTest, RejectionsLeakNoAllocationsOrTasks) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 0;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  auto holders = Saturate(service, engine, 1);

  // Warm-up rejection: lets one-time lazies (gtest internals, hash table
  // growth in the miss counter path) settle before the measured window.
  {
    auto resp = service.Query(kQuery, {});
    ASSERT_FALSE(resp.ok());
  }

  const uint64_t tasks_before = service.Stats().exec.tasks_dispatched;
  const int64_t live_before = g_live_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) {
    RequestOptions req;
    req.thread_budget = 2;  // would borrow pool workers if admitted
    auto resp = service.Query(kQuery, req);
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);
  }
  const int64_t live_after = g_live_allocs.load(std::memory_order_relaxed);
  const uint64_t tasks_after = service.Stats().exec.tasks_dispatched;

  // No scratch arenas, retained handles or queue nodes left behind...
  EXPECT_EQ(live_after - live_before, 0)
      << "rejected requests leaked " << (live_after - live_before)
      << " live heap allocations";
  // ...and no work was ever handed to the shared pool.
  EXPECT_EQ(tasks_after, tasks_before);

  engine.ReleaseAll();
  for (auto& t : holders) t.join();
}

TEST(QueryServiceAdmissionTest, QueueOverflowRejectsButQueueAdmitsLater) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 1;  // one seat of waiting room
  QueryService service(&engine, options);

  auto holders = Saturate(service, engine, 1);

  // One request may queue; it will be admitted once the holder finishes.
  std::thread queued([&] {
    RequestOptions req;
    req.bypass_cache = true;
    auto resp = service.Query(kQuery, req);
    EXPECT_TRUE(resp.ok()) << resp.status();
  });
  // Wait until it occupies the queue seat.
  while (service.Stats().queued == 0) {
    std::this_thread::yield();
  }

  // The waiting room is full: the next request overflows.
  auto resp = service.Query(kQuery, {});
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted);

  engine.ReleaseAll();
  queued.join();
  for (auto& t : holders) t.join();
  EXPECT_EQ(service.Stats().queries, 2u);  // holder + queued, not overflow
}

TEST(QueryServiceAdmissionTest, DeadlineExpiresInQueueAsTimeoutResponse) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 4;
  QueryService service(&engine, options);

  auto holders = Saturate(service, engine, 1);

  // Budget far smaller than the holder's occupancy: expires in the queue.
  RequestOptions req;
  req.deadline = std::chrono::milliseconds(50);
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = service.Query(kQuery, req);
  const auto waited = std::chrono::steady_clock::now() - t0;

  ASSERT_TRUE(resp.ok()) << resp.status();  // a timeout is a RESPONSE
  EXPECT_TRUE(resp->timed_out);
  EXPECT_FALSE(resp->cache_hit);
  EXPECT_TRUE(resp->rows.empty());
  // It gave up around its own budget — not the holder's release time.
  EXPECT_GE(waited, std::chrono::milliseconds(45));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(engine.entered(), 1);  // never reached the engine

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.queued, 0u);  // the expired waiter left the queue

  engine.ReleaseAll();
  for (auto& t : holders) t.join();
}

TEST(QueryServiceAdmissionTest, DeadlineIsPerQueryBudgetUnderContention) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 4;
  QueryService service(&engine, options);

  auto holders = Saturate(service, engine, 1);

  // A queued request with a generous budget: it is admitted after the
  // holder releases, and the timeout handed to the engine must be its OWN
  // remaining budget — strictly less than the full deadline (queue wait is
  // charged), strictly more than zero.
  const auto deadline = std::chrono::milliseconds(60000);
  std::thread queued([&] {
    RequestOptions req;
    req.deadline = deadline;
    req.bypass_cache = true;
    auto resp = service.Query(kQuery, req);
    EXPECT_TRUE(resp.ok()) << resp.status();
  });
  while (service.Stats().queued == 0) {
    std::this_thread::yield();
  }
  // Make the queue wait measurable before releasing the holder.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  engine.ReleaseAll();
  queued.join();
  for (auto& t : holders) t.join();

  const auto seen = engine.SeenTimeouts();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].count(), 0);  // the holder ran without a deadline
  EXPECT_GT(seen[1].count(), 0);  // the queued one got a bounded budget...
  EXPECT_LT(seen[1], deadline);   // ...already charged for its queue wait
  EXPECT_LE(seen[1], deadline - std::chrono::milliseconds(50));
}

TEST(QueryServiceAdmissionTest, CacheHitsBypassAdmissionWhenSaturated) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.max_in_flight = 1;
  options.max_queued = 0;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  // Prime the cache: one request runs through the gate and is retained.
  std::thread primer([&] {
    auto resp = service.Query(kQuery, {});
    EXPECT_TRUE(resp.ok());
  });
  engine.AwaitEntered(1);
  engine.ReleaseAll();
  primer.join();
  ASSERT_EQ(service.Stats().cache_entries, 1u);

  // Re-arm the gate and occupy the single execution slot. (Saturate's own
  // AwaitEntered(1) is already satisfied by the primer, so wait for the
  // holder's entry — the second overall — explicitly.)
  engine.CloseGate();
  auto holders = Saturate(service, engine, 1);
  engine.AwaitEntered(2);

  // Even with zero free slots and zero waiting room, cache hits are served
  // (they never enter admission), and a non-cached request is rejected.
  std::vector<std::thread> clients;
  std::atomic<int> hits{0};
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      auto resp = service.Query(kQuery, {});
      ASSERT_TRUE(resp.ok()) << resp.status();
      if (resp->cache_hit) ++hits;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(service.Stats().rejected, 0u);

  RequestOptions bypass;
  bypass.bypass_cache = true;
  auto rejected = service.Query(kQuery, bypass);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  engine.ReleaseAll();
  for (auto& t : holders) t.join();
}

}  // namespace
}  // namespace amber
