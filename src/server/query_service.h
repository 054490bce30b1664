// The query-serving runtime: one QueryService per engine turns the
// one-query-at-a-time AMbER engine into a request-serving layer built for
// sustained concurrent traffic (docs/ARCHITECTURE.md, "Serving runtime").
//
// Four responsibilities sit above the immutable engine:
//
//  1. Pool ownership. The service owns ONE persistent util/thread_pool.h
//     pool shared across every request. Parallel executions borrow helper
//     workers from it (ExecOptions::pool) instead of spawning a thread
//     pool per query — thread spawn is ~0.1 ms, visible on microsecond
//     queries. Requests execute on the calling client thread; only the
//     extra workers of a multi-threaded request come from the pool.
//
//  2. Admission control. At most `max_in_flight` requests execute
//     concurrently; up to `max_queued` more wait for a slot. Beyond that,
//     Query() fails fast with Status::kResourceExhausted — load sheds at
//     the door instead of collapsing under a convoy. A request's deadline
//     is a per-QUERY budget that starts at Query() entry: time spent
//     queued is charged against it, and a request whose budget expires in
//     the queue returns `timed_out` without ever touching the engine.
//
//  3. Plan/result cache. An LRU cache keyed on *normalized* query text
//     (parse -> canonical variable renaming -> canonical formatting, so
//     whitespace, comments and variable names don't fragment the key
//     space) retains the parsed query plus a handle to its full result
//     set. Repeats — including LIMIT/OFFSET pages over the same query —
//     are served from the handle without re-execution. Results produced
//     by a timed-out (partial) run are never cached. The cache is
//     bounded twice over: by entry count AND by a byte budget
//     (`cache_bytes`) accounted over retained rows, cells and variable
//     names; eviction walks the LRU tail until both bounds hold, and an
//     entry alone bigger than the whole byte budget bypasses the cache
//     instead of wiping it. Concurrent misses of one key are
//     single-flighted: one leader executes, followers block on its
//     result under their OWN deadlines (a follower whose budget expires
//     returns `timed_out` without cancelling the leader; a leader
//     failure propagates to every follower and is never cached).
//
//  4. Fault tolerance. Each execution attempt passes the
//     `service.execute` fault-injection site (util/fault_injector.h).
//     Transient failures — injected or organic kUnavailable — are
//     retried up to `max_retries` times with bounded exponential
//     backoff, but only while the request's remaining deadline budget
//     still covers the backoff sleep; a request never burns its last
//     milliseconds sleeping. Under overload (in-flight above
//     `shed_high_water`) the service degrades gracefully by shedding
//     PARALLELISM, not requests: new queries run with a reduced
//     `shed_thread_budget` before the hard kResourceExhausted wall.
//
//  5. Cancellation & streaming (docs/ARCHITECTURE.md, "Streaming &
//     cancellation"). Every request runs under a CancellationSource that
//     merges the client's RequestOptions::cancel token with the service's
//     internal abort signals; a tripped token unwinds the engine within
//     one matcher tick window and answers `cancelled` (never cached).
//     QueryStream() delivers results as ordered pages through a PageSink
//     with bounded in-flight buffering (`stream_page_rows`,
//     `stream_buffer_bytes`): a row stream's peak service memory is
//     O(page buffer), not O(result). A sink abort or client abandonment
//     trips the token; an orphaned single-flight leader — zero waiters
//     left and its own client's budget expired — is cancelled instead of
//     running to completion.
//
// Thread-safety: Query() may be called concurrently from any number of
// client threads. Responses are bit-identical to what a serial,
// single-client run of the underlying engine would return (the parallel
// online stage's determinism contract extends through the service), so a
// cached response, an uncached response and a serial reference can be
// compared byte for byte.

#ifndef AMBER_SERVER_QUERY_SERVICE_H_
#define AMBER_SERVER_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/exec.h"
#include "core/query_engine.h"
#include "sparql/ast.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace amber {

/// How the result cache retains a materialized result (docs/ARCHITECTURE.md,
/// "Factorized answer graphs"). The engine builds the answer graph either
/// way; this picks what the cache keeps of it.
enum class ResultForm : uint8_t {
  /// Translated rows: pages are slices of cached tokens.
  kFlat,
  /// The answer graph itself: charged at its factorized byte size, counted
  /// without expansion, expanded only for the rows a page returns.
  kFactorized,
};

/// Service-wide configuration, fixed at construction.
struct ServiceOptions {
  /// Worker threads in the persistent pool (helpers for multi-threaded
  /// requests; every request additionally runs on its client thread).
  int pool_threads = 4;

  /// Admission: requests executing concurrently. <= 0 disables the limit.
  int max_in_flight = 8;

  /// Admission: requests allowed to wait for an execution slot before
  /// Query() rejects with kResourceExhausted. <= 0 means no waiting room
  /// (reject as soon as max_in_flight is reached).
  int max_queued = 8;

  /// Online-stage workers for requests that don't ask for a budget
  /// (RequestOptions::thread_budget == 0). 1 = serial execution.
  int default_thread_budget = 1;

  /// Hard cap on any request's thread budget. <= 0 defaults to
  /// pool_threads + 1 (all helpers plus the client thread).
  int max_thread_budget = 0;

  /// Ablation knob (bench/throughput.cc): when false, executions do NOT
  /// borrow from the persistent pool — each multi-threaded query spawns
  /// and tears down its own transient helpers, the pre-service behavior.
  /// Everything else (normalization, admission, caching, response
  /// assembly) is unchanged, isolating the pool strategy.
  bool share_pool = true;

  /// Deadline for requests that don't set one. Zero = unlimited.
  std::chrono::milliseconds default_deadline{0};

  /// LRU plan/result cache capacity in entries. 0 disables the cache.
  size_t cache_entries = 64;

  /// Byte budget over every retained cache entry (rows, cells, variable
  /// names, key). Eviction walks the LRU tail until the total fits; an
  /// entry alone exceeding the budget bypasses the cache entirely (it
  /// would evict everything else and then itself). 0 = unbounded.
  uint64_t cache_bytes = 64ull << 20;  // 64 MiB

  /// Coalesce concurrent cache misses of one normalized key: one leader
  /// executes, followers wait for its result under their own deadlines.
  bool single_flight = true;

  /// Transient-failure (kUnavailable) retries per request. 0 disables
  /// retrying: the first failure is returned as-is.
  int max_retries = 0;

  /// First retry backoff; doubles per retry. A retry is attempted only
  /// while the request's remaining deadline budget exceeds the backoff.
  std::chrono::milliseconds initial_backoff{10};

  /// Overload threshold: a request admitted while MORE than this many
  /// requests are executing (itself included) has its thread budget
  /// clamped to `shed_thread_budget` — degrade parallelism before the
  /// admission wall rejects outright. <= 0 disables shedding.
  int shed_high_water = 0;

  /// The reduced per-query thread budget under overload (min 1).
  int shed_thread_budget = 1;

  /// Row cap on the retained result handle of one materializing
  /// execution (0 = unlimited). A handle truncated by this cap is cached
  /// with `truncated` set; pages beyond it report truncation.
  uint64_t max_result_rows = 0;

  /// Streaming (QueryStream): rows per page before the in-flight page is
  /// flushed to the PageSink. Min 1.
  uint64_t stream_page_rows = 256;

  /// Streaming: byte budget of the in-flight page (accounted over cell
  /// payloads and headers); a page flushes when EITHER bound is hit, so
  /// peak buffered memory stays O(min of the two) regardless of result
  /// cardinality. 0 = rows bound only.
  uint64_t stream_buffer_bytes = 256 << 10;  // 256 KiB

  /// What materializing executions retain. Under kFactorized the cache
  /// keeps the FACTORIZED answer graph instead of translated rows: the
  /// handle is charged at its (much smaller) factorized byte size, counts
  /// are answered without expansion, and pages expand only the rows they
  /// return (a deep-OFFSET page skips whole groups instead of
  /// re-enumerating its prefix). Engines that cannot factorize fall back
  /// to flat handles transparently. Responses are bit-identical either way.
  ResultForm result_form = ResultForm::kFlat;
};

/// Per-request knobs (the ExecutionOptions-style surface).
struct RequestOptions {
  /// Per-query wall-clock budget starting at Query() entry (queue wait
  /// included). Zero = the service default.
  std::chrono::milliseconds deadline{0};

  /// Online-stage workers for this request (1 = serial; capped by
  /// ServiceOptions::max_thread_budget). Zero = the service default.
  int thread_budget = 0;

  /// Pagination over the retained result handle: skip `offset` rows, then
  /// return up to `limit` rows (0 = all remaining). Pagination is a view
  /// over the full result — it does not change what is executed or
  /// cached, so every page of one query comes from one handle.
  uint64_t offset = 0;
  uint64_t limit = 0;

  /// Count rows instead of materializing them (no row payload in the
  /// response; served from a complete cached handle when possible).
  bool count_only = false;

  /// Skip the cache entirely (no lookup, no insert). Differential tests
  /// use this to compare cached and uncached responses.
  bool bypass_cache = false;

  /// Client-abandonment token: cancelling it makes the request unwind
  /// within one matcher tick window and answer `cancelled` (a response,
  /// not an error — mirrors the timeout contract). The service merges it
  /// with its own internal abort signals (sink abort, orphaned-flight
  /// retirement), so the client source never observes service-internal
  /// cancellations. Default: never cancelled.
  CancellationToken cancel;

  /// Ship the FACTORIZED answer graph (core embedding + per-satellite
  /// candidate lists) instead of expanded rows: the response carries
  /// ResultGroups whose client-side expansion — list 0 fastest, each row
  /// repeated `multiplicity` times — reproduces the flat rows exactly.
  /// This is the wire form of PR 9's compression ("result_form":"groups"
  /// over HTTP): a satellite-heavy result ships O(groups) tokens, not
  /// the cross-product. The service falls back to rows transparently
  /// when no factorized handle is available (baseline engines, or a
  /// DISTINCT result whose groups collide and need row-level dedup — a
  /// client cannot replay that filter), so callers must branch on
  /// QueryResponse::groups_form, not on this flag. Invalid combined with
  /// count_only or with a non-zero offset/limit (groups are not
  /// row-addressable without expanding; paginate in rows mode instead).
  bool want_groups = false;
};

/// One factorized solution record in transport form (all data vertices
/// translated back to tokens). Expansion order is the one of core/exec.h
/// (OdometerStep): lists[0] advances fastest, each emitted row repeats
/// `multiplicity` times consecutively.
struct ResultGroup {
  /// One entry per projection slot; satellite slots (those with a list
  /// index in QueryResponse::slot_list) hold an empty string and draw
  /// from `lists` instead.
  std::vector<std::string> fixed;
  /// One candidate-token list per distinct projected satellite.
  std::vector<std::vector<std::string>> lists;
  /// Row repetitions from non-projected satellites (1 under DISTINCT).
  uint64_t multiplicity = 1;
};

/// One answered request.
struct QueryResponse {
  /// Projected variable names in the REQUEST's own spelling (cache hits
  /// against a variable-renamed equivalent query are mapped back).
  /// Empty for count_only requests.
  std::vector<std::string> var_names;

  /// The requested page: rows [offset, offset+limit) of the result set.
  std::vector<std::vector<std::string>> rows;

  /// Rows in the full retained result set (before pagination), or the
  /// count for count_only requests.
  uint64_t total_rows = 0;

  /// The retained set was cut short (query LIMIT or max_result_rows).
  bool truncated = false;

  /// The per-query budget expired (in the queue or inside the engine).
  /// Mirrors the engine contract: a timeout is a response, not an error.
  bool timed_out = false;

  /// The request's cancellation token tripped mid-execution: rows (if
  /// any) are a partial prefix and were NOT cached.
  bool cancelled = false;

  /// Served from the plan/result cache without executing.
  bool cache_hit = false;

  /// The response carries `groups` instead of `rows` (a granted
  /// RequestOptions::want_groups). total_rows still counts EXPANDED rows;
  /// truncated means expansion must be trimmed to total_rows.
  bool groups_form = false;
  /// groups_form only: per projection slot, the index into each group's
  /// `lists`, or kNoGroupList (core/exec.h) for core-bound slots.
  std::vector<uint32_t> slot_list;
  /// groups_form only: the factorized result, in emission order.
  std::vector<ResultGroup> groups;

  /// Stats of the execution that produced the retained handle (for cache
  /// hits: the original miss's execution).
  ExecStats stats;
};

/// Monotonic service-level counters; Stats() returns a consistent snapshot.
struct ServiceStats {
  /// Requests answered (cache hits, executions, and in-budget timeouts).
  uint64_t queries = 0;
  /// Requests rejected with kResourceExhausted at admission.
  uint64_t rejected = 0;
  /// Requests rejected with kUnavailable because Shutdown() had begun.
  uint64_t shutdown_rejects = 0;
  /// Requests whose budget expired (queued or executing).
  uint64_t timed_out = 0;
  /// Requests (and streams) that ended cancelled — client token, sink
  /// abort, or orphaned-flight retirement.
  uint64_t cancelled = 0;
  /// Single-flight leaders cancelled after their last follower departed
  /// with the leader's own client budget already expired.
  uint64_t orphaned_flights = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Entries currently retained (gauge, not a counter).
  uint64_t cache_entries = 0;
  /// Accounted bytes currently retained by the cache (gauge).
  uint64_t bytes_cached = 0;
  /// Requests served by attaching to another request's in-flight
  /// execution of the same key (single-flight followers).
  uint64_t single_flight_hits = 0;
  /// Requests answered from a factorized (unexpanded) result handle —
  /// cache hits and single-flight followers whose page or count came from
  /// the answer graph rather than retained flat rows.
  uint64_t factorized_hits = 0;
  /// Execution attempts beyond the first (transient-failure retries).
  uint64_t retries = 0;
  /// Requests whose thread budget was clamped by overload shedding.
  uint64_t shed_thread_budgets = 0;
  /// Page rows returned to clients.
  uint64_t rows_served = 0;
  /// High-water mark of concurrently executing requests.
  uint64_t peak_in_flight = 0;
  /// Requests executing / waiting right now (gauges).
  uint64_t in_flight = 0;
  uint64_t queued = 0;
  /// Engine-level counters merged over every execution the service ran.
  ExecStats exec;
};

/// One in-order slice of a streamed result (QueryStream).
struct StreamPage {
  /// Index of rows[0] within the full delivered stream (post-offset), so
  /// a sink can verify it never missed a page. On a groups page: the
  /// index of the first row the page's groups EXPAND to.
  uint64_t first_row = 0;
  std::vector<std::vector<std::string>> rows;
  /// Groups-mode streams (RequestOptions::want_groups granted) fill
  /// `groups` instead of `rows`; the slot_list arrives in the
  /// StreamResponse summary. A page carries one form, never both.
  std::vector<ResultGroup> groups;
  /// Set on the final page of a COMPLETE stream (the terminator: possibly
  /// empty). Cancelled and timed-out streams end without a last page.
  bool last = false;
};

/// \brief Consumer of a streamed result.
///
/// OnPage is invoked synchronously from inside the stream (never
/// concurrently); returning false abandons the stream — the execution
/// token trips and the matcher unwinds like a cancellation.
class PageSink {
 public:
  virtual ~PageSink() = default;
  virtual bool OnPage(StreamPage&& page) = 0;
};

/// Terminal summary of one QueryStream call. The rows already left
/// through the PageSink.
struct StreamResponse {
  /// Projected variable names in the request's own spelling.
  std::vector<std::string> var_names;
  /// The stream delivered groups pages (want_groups granted; empty pages
  /// aside, every page carried `groups`). rows_streamed then counts the
  /// rows those groups REPRESENT, not payload entries.
  bool groups_form = false;
  /// groups_form only: the slot → list mapping shared by every group.
  std::vector<uint32_t> slot_list;
  /// Rows delivered across every page. A page counts once it was handed
  /// to PageSink::OnPage, so a page the sink refused is included.
  uint64_t rows_streamed = 0;
  /// Pages delivered (including the final terminator page), under the
  /// same rule: a refused page counts.
  uint64_t pages = 0;
  /// Exactly one of complete / cancelled / timed_out describes the end
  /// state. A truncated stream (row cap / LIMIT reached) is complete.
  bool complete = false;
  bool cancelled = false;
  bool timed_out = false;
  /// The row cap (request limit / query LIMIT) stopped delivery.
  bool truncated = false;
  /// High-water mark of bytes buffered in the in-flight page — the
  /// O(buffer) memory bound the streaming path guarantees.
  uint64_t peak_buffered_bytes = 0;
  ExecStats stats;
};

/// A parse with canonical variable names: the cache-key form.
struct NormalizedQuery {
  /// Canonical text — the cache key. Whitespace, comments and variable
  /// spellings are erased by construction; everything semantic (pattern
  /// list, filters, projection order, DISTINCT, LIMIT) survives, so
  /// distinct keys never alias distinct semantics.
  std::string key;
  /// The query with variables renamed to v0, v1, ... in first-appearance
  /// order (patterns, then filters, then projection).
  SelectQuery query;
  /// Canonical name -> this request's original spelling, for mapping
  /// response var_names back.
  std::unordered_map<std::string, std::string> canon_to_orig;
};

/// Parses and canonicalizes `text`. Two texts normalize to the same key
/// iff they are the same query up to whitespace, comments and variable
/// renaming. Exposed for the cache-correctness tests.
Result<NormalizedQuery> NormalizeQuery(std::string_view text);

/// \brief The serving runtime over one engine. See file comment.
class QueryService {
 public:
  /// `engine` is borrowed and must outlive the service. Any QueryEngine
  /// works; only AMbER uses the shared pool (baselines run serially).
  QueryService(QueryEngine* engine, const ServiceOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers one request. Blocking; safe to call from many client threads
  /// concurrently. Errors: kResourceExhausted (admission), or whatever
  /// the parser/engine reports. Timeouts are responses, not errors.
  Result<QueryResponse> Query(std::string_view text,
                              const RequestOptions& request = {});

  /// Streams the result as ordered pages into `sink` with bounded
  /// in-flight buffering. Page contents concatenated equal the rows a
  /// materializing Query of the same request would return (offset/limit
  /// included) — the determinism contract extends to streamed prefixes.
  /// A row stream always comes from QueryEngine::Stream, whatever the
  /// service's result_form, so its peak memory is O(stream_page_rows ∧
  /// stream_buffer_bytes), not O(result). A want_groups stream holds its
  /// answer graph (QueryEngine::Factorize) and pages out its groups.
  /// Streams bypass the cache and single-flight: pages leave
  /// incrementally, so there is no handle to retain or share (and a
  /// cancelled partial stream can never be cached).
  /// `request.count_only` is invalid here. Timeouts and cancellations
  /// are responses, not errors.
  Result<StreamResponse> QueryStream(std::string_view text,
                                     const RequestOptions& request,
                                     PageSink* sink);

  /// Consistent snapshot of the service counters.
  ServiceStats Stats() const;

  /// Drains the service. The contract, in order:
  ///
  ///   1. From the moment Shutdown() begins, every NEW Query/QueryStream
  ///      call fails fast with Status::kUnavailable (counted in
  ///      ServiceStats::shutdown_rejects) — permanently; a shut-down
  ///      service never serves again.
  ///   2. Requests already inside the service get `grace` to finish
  ///      normally (grace 0 = none).
  ///   3. Past the grace budget, every in-flight request's cancellation
  ///      source is tripped: executions unwind within one matcher tick
  ///      window and answer `cancelled`; queued requests drain as the
  ///      cancelled ones release their slots; single-flight followers are
  ///      resolved by their (cancelled) leader's publication.
  ///   4. Shutdown() returns only when no request remains inside the
  ///      service.
  ///
  /// The pool and the cache stay intact (the destructor tears them
  /// down); Stats() remains callable. Idempotent and thread-safe, but
  /// callers must ensure no PageSink can block forever ignoring its
  /// stream's cancellation — the HTTP server shuts client sockets before
  /// calling this, so in-flight page writes fail promptly.
  void Shutdown(std::chrono::milliseconds grace = std::chrono::milliseconds(0));

  const ServiceOptions& options() const { return options_; }

  /// The service's persistent worker pool. The HTTP transport dispatches
  /// connection handlers onto it (server/http_server.h documents the
  /// capacity headroom that keeps exec helper tasks schedulable).
  ThreadPool* pool() { return &pool_; }

 private:
  /// Retained per-key state: the parsed plan plus the result handle(s).
  struct CacheEntry {
    SelectQuery query;  // canonical names (the plan half of the cache)
    bool have_rows = false;
    bool have_count = false;
    /// A factorized answer-graph handle (core/factorized.h): pages expand
    /// lazily through a cursor; accounted at its factorized byte size.
    bool have_fact = false;
    std::vector<std::string> var_names;  // canonical spelling
    std::vector<std::vector<std::string>> rows;
    FactorizedResult fact;
    bool truncated = false;
    uint64_t count = 0;
    ExecStats exec_stats;  // the execution that produced the handle
    /// Accounted size (EntryBytes at last insert/merge).
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// One in-flight execution of a (key, mode) pair. Followers wait on
  /// `cv` (paired with mu_) until the leader publishes `done` plus either
  /// an error `status` or a result `entry` — a timed-out leader publishes
  /// an entry whose exec_stats.timed_out is set, so followers answer
  /// `timed_out` exactly like the leader did.
  struct Flight {
    bool done = false;
    int waiters = 0;  // followers currently blocked (skip the result
                      // copy when nobody is left to read it)
    Status status = Status::OK();
    std::shared_ptr<const CacheEntry> entry;
    std::condition_variable cv;
    /// The leader's execution cancel source (shared state with the
    /// leader's ExecOptions token): the orphan path cancels through it.
    CancellationSource leader_cancel;
    /// When the leader's own client budget expires. A departing last
    /// follower past this point cancels the leader — nobody is left who
    /// could use the result.
    std::chrono::steady_clock::time_point leader_deadline =
        std::chrono::steady_clock::time_point::max();
  };

  enum class Admission { kAdmitted, kRejected, kExpired };

  /// Blocks until an execution slot is free, the queue overflows, or the
  /// deadline passes. On kAdmitted the caller owns one slot and `*shed`
  /// says whether overload shedding applies to this request. Counts a
  /// rejection, and a queue expiry as an answered timed-out request.
  Admission Admit(std::chrono::steady_clock::time_point start,
                  std::chrono::milliseconds budget, bool* shed);
  void Release();

  /// RAII over an admitted execution slot.
  struct SlotGuard {
    QueryService* s;
    ~SlotGuard() { s->Release(); }
  };

  /// The kResourceExhausted answer of a rejected admission.
  Status Saturated() const;

  /// The ExecOptions every admitted request starts from: the clamped
  /// thread budget (shed under overload), the shared pool and the
  /// request's cancel token.
  ExecOptions BuildExecOptions(const RequestOptions& request, bool shed,
                               const CancellationSource& cancel);

  /// Cache lookup; touches the LRU. Caller holds mu_.
  CacheEntry* LookupLocked(const std::string& key);
  /// Insert-or-merge `fresh` under `key`; evicts past the entry and byte
  /// budgets. Caller holds mu_.
  void UpsertLocked(const std::string& key, CacheEntry&& fresh);
  /// Evicts LRU-tail entries until both cache bounds hold. Caller holds
  /// mu_.
  void EvictLocked();
  /// Resolves `flight` for its followers and retires it from flights_.
  /// Caller holds mu_.
  void PublishFlightLocked(const std::string& flight_key, Flight* flight,
                           Status status,
                           std::shared_ptr<const CacheEntry> entry);
  /// Accounted bytes of an entry: rows, cells, variable names, key.
  static uint64_t EntryBytes(const std::string& key, const CacheEntry& e);

  /// Builds the paginated response for this request from an entry and
  /// counts what it served: rows_served, and factorized_hits when a cache
  /// hit or follower was answered from the answer graph. Caller holds mu_.
  QueryResponse BuildResponse(const CacheEntry& entry,
                              const NormalizedQuery& nq,
                              const RequestOptions& request, bool cache_hit);

  /// Translates one factorized group into transport form: core slots and
  /// candidate lists become tokens, satellite `fixed` slots become empty
  /// strings.
  ResultGroup TranslateGroup(const FactorizedResult& fact,
                             const FactorizedResult::Group& g);

  /// Registers a request in the drain registry (Shutdown cancels
  /// through it). Fails with kUnavailable once Shutdown() has begun.
  /// On success the caller must call UnregisterRequest exactly once.
  Result<uint64_t> RegisterRequest(const CancellationSource& cancel);
  void UnregisterRequest(uint64_t id);

  /// RAII over Register/UnregisterRequest.
  struct DrainGuard {
    QueryService* s = nullptr;
    uint64_t id = 0;
    ~DrainGuard() {
      if (s != nullptr) s->UnregisterRequest(id);
    }
  };

  QueryEngine* engine_;
  const ServiceOptions options_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable admission_cv_;
  int in_flight_ = 0;
  int queued_ = 0;
  ServiceStats stats_;

  // LRU cache: map owns the entries; lru_ front = most recent.
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;
  /// Sum of CacheEntry::bytes over cache_ (the byte-budget gauge).
  uint64_t cache_bytes_used_ = 0;

  /// In-flight executions by "key#mode" (rows and counts of one query
  /// are distinct flights — their results are not interchangeable).
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  // Shutdown drain state (all under mu_): every request registers its
  // cancellation source for the duration of its Query/QueryStream call;
  // Shutdown trips the registered sources past the grace budget and
  // waits on drain_cv_ until the registry empties.
  bool shutting_down_ = false;
  uint64_t next_request_id_ = 0;
  std::unordered_map<uint64_t, CancellationSource> active_requests_;
  std::condition_variable drain_cv_;
};

}  // namespace amber

#endif  // AMBER_SERVER_QUERY_SERVICE_H_
