// QueryService::QueryStream: ordered page delivery with bounded in-flight
// buffering (row pages and groups pages through one page writer), plus
// the request-cancellation surface of Query() — client tokens, sink
// aborts, backoff interruption, and the orphaned single-flight leader
// retirement. Streamed pages concatenated must equal the rows the
// materializing Query() of the same request returns (the determinism
// contract extends to streamed prefixes); cancelled partials are never
// cached.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "rdf/term.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "test_util.h"
#include "util/fault_injector.h"

namespace amber {
namespace {

using std::chrono::milliseconds;

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// A p0-chain over `n` entities: the edge query below yields n-1 rows.
std::vector<Triple> ChainData(int n) {
  std::vector<Triple> data;
  auto ent = [](int i) { return Term::Iri("urn:e" + std::to_string(i)); };
  for (int i = 0; i + 1 < n; ++i) {
    data.emplace_back(ent(i), Term::Iri("urn:p0"), ent(i + 1));
  }
  return data;
}

constexpr char kEdgeQuery[] = "SELECT ?a ?b WHERE { ?a <urn:p0> ?b . }";

/// `hubs` star centers, each with `fanout` private p0-satellites: a star
/// query with k satellite variables yields one group of fanout^k rows per
/// hub.
std::vector<Triple> StarData(int hubs, int fanout) {
  std::vector<Triple> data;
  for (int h = 0; h < hubs; ++h) {
    const std::string hub = "urn:hub" + std::to_string(h);
    for (int s = 0; s < fanout; ++s) {
      data.emplace_back(Term::Iri(hub), Term::Iri("urn:p0"),
                        Term::Iri(hub + "sat" + std::to_string(s)));
    }
  }
  return data;
}

constexpr char kStarQuery[] =
    "SELECT ?h ?s0 ?s1 WHERE { ?h <urn:p0> ?s0 . ?h <urn:p0> ?s1 . }";

/// Rows a transport-form group expands to.
uint64_t Cardinality(const ResultGroup& g) {
  uint64_t card = g.multiplicity;
  for (const std::vector<std::string>& list : g.lists) card *= list.size();
  return card;
}

/// Collects pages, verifying first_row continuity as they arrive (in
/// represented rows, so groups pages count their expansion); can abort
/// (OnPage returns false) or trip a cancellation source after a given
/// number of pages.
class CollectingPageSink : public PageSink {
 public:
  bool OnPage(StreamPage&& page) override {
    EXPECT_EQ(page.first_row, represented) << "page skipped or repeated";
    uint64_t page_represented = page.rows.size();
    for (auto& row : page.rows) rows.push_back(std::move(row));
    for (ResultGroup& g : page.groups) {
      page_represented += Cardinality(g);
      groups.push_back(std::move(g));
    }
    represented += page_represented;
    page_rows.push_back(page_represented);
    ++pages;
    if (page.last) saw_last = true;
    if (cancel_after_pages != 0 && pages >= cancel_after_pages &&
        cancel_source != nullptr) {
      cancel_source->Cancel();
    }
    return abort_after_pages == 0 || pages < abort_after_pages;
  }

  std::vector<std::vector<std::string>> rows;
  std::vector<ResultGroup> groups;
  uint64_t represented = 0;         // rows the pages so far stand for
  std::vector<uint64_t> page_rows;  // represented rows, per page
  uint64_t pages = 0;
  bool saw_last = false;
  uint64_t abort_after_pages = 0;   // 0 = never abort
  uint64_t cancel_after_pages = 0;  // 0 = never cancel
  CancellationSource* cancel_source = nullptr;
};

/// Exactly one of complete / cancelled / timed_out.
void CheckClassification(const StreamResponse& resp) {
  EXPECT_EQ((resp.complete ? 1 : 0) + (resp.cancelled ? 1 : 0) +
                (resp.timed_out ? 1 : 0),
            1)
      << "complete=" << resp.complete << " cancelled=" << resp.cancelled
      << " timed_out=" << resp.timed_out;
}

class QueryServiceStreamTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new std::vector<Triple>(testutil::RandomDataset(83, 16, 90, 3));
    engine_ = new AmberEngine(MustBuild(*data_));
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete data_;
    engine_ = nullptr;
    data_ = nullptr;
  }

  static std::vector<Triple>* data_;
  static AmberEngine* engine_;
};

std::vector<Triple>* QueryServiceStreamTest::data_ = nullptr;
AmberEngine* QueryServiceStreamTest::engine_ = nullptr;

TEST_F(QueryServiceStreamTest, PagesConcatenateToQueryReference) {
  ServiceOptions options;
  options.pool_threads = 2;
  options.stream_page_rows = 3;
  QueryService service(engine_, options);

  std::vector<std::string> texts;
  for (int qi = 0; qi < 4; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(*data_, 2100 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 7");

  const struct {
    uint64_t offset, limit;
  } shapes[] = {{0, 0}, {2, 3}, {1, 0}, {0, 5}};

  for (const std::string& text : texts) {
    for (const auto& shape : shapes) {
      for (int threads : {1, 3}) {
        SCOPED_TRACE(text + " offset=" + std::to_string(shape.offset) +
                     " limit=" + std::to_string(shape.limit) +
                     " threads=" + std::to_string(threads));
        RequestOptions request;
        request.offset = shape.offset;
        request.limit = shape.limit;
        request.thread_budget = threads;
        request.bypass_cache = true;
        auto ref = service.Query(text, request);
        ASSERT_TRUE(ref.ok()) << ref.status();

        CollectingPageSink sink;
        auto resp = service.QueryStream(text, request, &sink);
        ASSERT_TRUE(resp.ok()) << resp.status();
        CheckClassification(*resp);
        EXPECT_TRUE(resp->complete);
        EXPECT_TRUE(sink.saw_last);
        EXPECT_EQ(resp->var_names, ref->var_names);
        EXPECT_EQ(sink.rows, ref->rows);
        EXPECT_EQ(resp->rows_streamed, ref->rows.size());
        EXPECT_EQ(resp->pages, sink.pages);
      }
    }
  }
}

TEST_F(QueryServiceStreamTest, EmptyResultStreamsLoneTerminator) {
  QueryService service(engine_, ServiceOptions{});
  CollectingPageSink sink;
  auto resp = service.QueryStream(
      "SELECT ?a WHERE { ?a <urn:nosuchpred> ?b . }", RequestOptions{}, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->complete);
  EXPECT_EQ(resp->rows_streamed, 0u);
  EXPECT_EQ(resp->pages, 1u);  // the empty terminator page
  EXPECT_TRUE(sink.saw_last);
  EXPECT_TRUE(sink.rows.empty());
}

TEST_F(QueryServiceStreamTest, CountOnlyCannotStream) {
  QueryService service(engine_, ServiceOptions{});
  RequestOptions request;
  request.count_only = true;
  CollectingPageSink sink;
  auto resp = service.QueryStream(kEdgeQuery, request, &sink);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceStreamTest, SinglePagesKeepContinuity) {
  AmberEngine chain = MustBuild(ChainData(40));
  ServiceOptions options;
  options.stream_page_rows = 1;
  QueryService service(&chain, options);
  CollectingPageSink sink;
  auto resp = service.QueryStream(kEdgeQuery, RequestOptions{}, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->complete);
  EXPECT_EQ(resp->rows_streamed, 39u);
  // 39 one-row pages plus the empty terminator (continuity is asserted
  // inside the sink as the pages arrive).
  EXPECT_EQ(resp->pages, 40u);
  EXPECT_TRUE(sink.saw_last);
}

TEST_F(QueryServiceStreamTest, ByteBudgetBoundsInFlightPage) {
  AmberEngine chain = MustBuild(ChainData(40));
  ServiceOptions options;
  options.stream_page_rows = 1000000;  // rows bound never hits
  options.stream_buffer_bytes = 1;     // every row overflows the byte bound
  QueryService service(&chain, options);
  CollectingPageSink sink;
  auto resp = service.QueryStream(kEdgeQuery, RequestOptions{}, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->complete);
  EXPECT_EQ(resp->rows_streamed, 39u);
  EXPECT_EQ(resp->pages, 40u);  // one row per page + terminator
  EXPECT_GT(resp->peak_buffered_bytes, 0u);
  // The in-flight page never held more than one (small) row.
  EXPECT_LT(resp->peak_buffered_bytes, 1024u);
}

TEST_F(QueryServiceStreamTest, SinkAbortEndsCancelled) {
  AmberEngine chain = MustBuild(ChainData(40));
  ServiceOptions options;
  options.stream_page_rows = 1;
  QueryService service(&chain, options);
  CollectingPageSink sink;
  sink.abort_after_pages = 1;
  auto resp = service.QueryStream(kEdgeQuery, RequestOptions{}, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  EXPECT_TRUE(resp->cancelled);
  EXPECT_FALSE(sink.saw_last);
  EXPECT_EQ(sink.pages, 1u);
  EXPECT_GE(service.Stats().cancelled, 1u);
}

TEST_F(QueryServiceStreamTest, ClientCancelMidStreamStopsExecution) {
  AmberEngine chain = MustBuild(ChainData(300));
  ServiceOptions options;
  options.stream_page_rows = 1;
  QueryService service(&chain, options);

  CancellationSource client;
  RequestOptions request;
  request.cancel = client.token();
  CollectingPageSink sink;
  sink.cancel_after_pages = 1;
  sink.cancel_source = &client;
  auto resp = service.QueryStream(kEdgeQuery, request, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  EXPECT_TRUE(resp->cancelled);
  EXPECT_FALSE(sink.saw_last);
  // The matcher unwound within one tick window of the trip instead of
  // walking the remaining ~299 rows to the deadline (or forever).
  EXPECT_GE(resp->rows_streamed, 1u);
  EXPECT_LE(resp->rows_streamed, 100u);
  EXPECT_TRUE(resp->stats.cancelled);
}

TEST_F(QueryServiceStreamTest, PageHandoffFaultSurfacesError) {
  AmberEngine chain = MustBuild(ChainData(40));
  ServiceOptions options;
  options.stream_page_rows = 1;
  options.max_retries = 3;  // must NOT apply: streams never retry
  QueryService service(&chain, options);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.fail_nth = 1;
  ScopedFault fault(faults::kServiceStream, spec);
  CollectingPageSink sink;
  auto resp = service.QueryStream(kEdgeQuery, RequestOptions{}, &sink);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(sink.pages, 0u);  // the faulted page was never delivered
  EXPECT_EQ(FaultInjector::Global().Fires(faults::kServiceStream), 1u);
}

TEST_F(QueryServiceStreamTest, StreamsBypassCacheAndSingleFlight) {
  ServiceOptions options;
  options.cache_entries = 16;
  QueryService service(engine_, options);
  for (int i = 0; i < 2; ++i) {
    CollectingPageSink sink;
    auto resp = service.QueryStream(kEdgeQuery, RequestOptions{}, &sink);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_TRUE(resp->complete);
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.single_flight_hits, 0u);
  EXPECT_EQ(stats.queries, 2u);
}

TEST_F(QueryServiceStreamTest, PreCancelledQueryAnswersCancelledUncached) {
  ServiceOptions options;
  options.cache_entries = 16;
  QueryService service(engine_, options);

  CancellationSource client;
  client.Cancel();
  RequestOptions abandoned;
  abandoned.cancel = client.token();
  auto resp = service.Query(kEdgeQuery, abandoned);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->cancelled);
  EXPECT_TRUE(resp->rows.empty());
  EXPECT_EQ(service.Stats().cancelled, 1u);
  // The cancelled partial was not cached: the next request executes and
  // returns the full result.
  EXPECT_EQ(service.Stats().cache_entries, 0u);
  auto full = service.Query(kEdgeQuery, RequestOptions{});
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->cancelled);
  EXPECT_FALSE(full->cache_hit);
  EXPECT_GT(full->rows.size(), 0u);
  auto cached = service.Query(kEdgeQuery, RequestOptions{});
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_TRUE(cached->cache_hit);
  EXPECT_EQ(cached->rows, full->rows);
}

TEST_F(QueryServiceStreamTest, CancelDuringRetryBackoffAnswersCancelled) {
  ServiceOptions options;
  options.max_retries = 3;
  options.initial_backoff = milliseconds(2000);
  QueryService service(engine_, options);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.fail_every = 1;  // every attempt fails: the request must back off
  ScopedFault fault(faults::kServiceExecute, spec);

  CancellationSource client;
  RequestOptions request;
  request.cancel = client.token();
  std::thread canceller([&client] {
    std::this_thread::sleep_for(milliseconds(50));
    client.Cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  auto resp = service.Query(kEdgeQuery, request);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  canceller.join();
  // The trip interrupted the backoff sleep: a cancelled RESPONSE, well
  // before the 2s backoff (let alone the full retry ladder) elapsed.
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->cancelled);
  EXPECT_LT(elapsed, milliseconds(1900));
  EXPECT_GE(service.Stats().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Orphaned single-flight leader retirement.

/// An engine that blocks until its execution token trips (3 s failsafe),
/// then reports a cancelled partial — models an execution that outlives
/// every client still interested in it.
class BlockingEngine : public QueryEngine {
 public:
  std::string name() const override { return "Blocking"; }

  Result<CountResult> Count(const SelectQuery&,
                            const ExecOptions& options) override {
    CountResult out;
    options.cancel.WaitFor(std::chrono::milliseconds(3000));
    out.stats.cancelled = options.cancel.cancelled();
    return out;
  }

  Result<MaterializedRows> Materialize(const SelectQuery& query,
                                       const ExecOptions& options) override {
    MaterializedRows out;
    for (const std::string& v : query.projection) out.var_names.push_back(v);
    options.cancel.WaitFor(std::chrono::milliseconds(3000));
    out.stats.cancelled = options.cancel.cancelled();
    return out;
  }
};

TEST(QueryServiceOrphanTest, OrphanedLeaderCancelledOnLastFollowerExit) {
  BlockingEngine engine;
  ServiceOptions options;
  options.pool_threads = 1;
  options.single_flight = true;
  options.cache_entries = 16;
  QueryService service(&engine, options);

  // Leader: budget 150 ms, but the engine ignores deadlines — without the
  // orphan machinery it would block for the full 3 s failsafe.
  Result<QueryResponse> leader_resp = QueryResponse{};
  std::thread leader([&] {
    RequestOptions request;
    request.deadline = milliseconds(150);
    leader_resp = service.Query(kEdgeQuery, request);
  });
  // Follower: attaches to the leader's flight, waits under its own 400 ms
  // budget, and on expiry — past the leader's own deadline, with no other
  // waiters — cancels the orphaned leader.
  std::this_thread::sleep_for(milliseconds(50));
  Result<QueryResponse> follower_resp = QueryResponse{};
  std::thread follower([&] {
    RequestOptions request;
    request.deadline = milliseconds(400);
    follower_resp = service.Query(kEdgeQuery, request);
  });
  const auto t0 = std::chrono::steady_clock::now();
  follower.join();
  leader.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  ASSERT_TRUE(follower_resp.ok()) << follower_resp.status();
  EXPECT_TRUE(follower_resp->timed_out);
  ASSERT_TRUE(leader_resp.ok()) << leader_resp.status();
  EXPECT_TRUE(leader_resp->cancelled);
  // The leader unblocked on the orphan cancel, nowhere near the 3 s
  // failsafe.
  EXPECT_LT(elapsed, milliseconds(2500));

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.orphaned_flights, 1u);
  EXPECT_GE(stats.cancelled, 1u);
  // The cancelled partial was never cached.
  EXPECT_EQ(stats.cache_entries, 0u);
}

TEST(QueryServiceOrphanTest, ResolvedFollowersNeverOrphanTheLeader) {
  // Followers that get a result (leader publishes in time) must not touch
  // the orphan path.
  AmberEngine engine =
      MustBuild(testutil::RandomDataset(19, 10, 40, 2));
  ServiceOptions options;
  options.single_flight = true;
  QueryService service(&engine, options);
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&service] {
      auto resp = service.Query(kEdgeQuery, RequestOptions{});
      EXPECT_TRUE(resp.ok()) << resp.status();
      EXPECT_FALSE(resp->cancelled);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(service.Stats().orphaned_flights, 0u);
}

// ServiceOptions::result_form picks only what the cache keeps: a row
// stream comes from QueryEngine::Stream on either form, so a kFactorized
// service streams the reference rows without building an answer graph
// (bytes_factorized stays 0) — the O(page) bound holds for every row
// stream.
TEST_F(QueryServiceStreamTest, FactorizedServiceStreamsEngineRows) {
  ServiceOptions options;
  options.pool_threads = 2;
  options.stream_page_rows = 3;
  options.result_form = ResultForm::kFactorized;
  QueryService service(engine_, options);

  std::vector<std::string> texts = {kEdgeQuery};
  for (int qi = 0; qi < 3; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(*data_, 3100 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 7");

  const struct {
    uint64_t offset, limit;
  } shapes[] = {{0, 0}, {2, 3}, {5, 0}, {0, 4}};

  for (const std::string& text : texts) {
    for (const auto& shape : shapes) {
      SCOPED_TRACE(text + " offset=" + std::to_string(shape.offset) +
                   " limit=" + std::to_string(shape.limit));
      RequestOptions request;
      request.offset = shape.offset;
      request.limit = shape.limit;
      request.bypass_cache = true;
      auto ref = service.Query(text, request);
      ASSERT_TRUE(ref.ok()) << ref.status();

      CollectingPageSink sink;
      auto resp = service.QueryStream(text, request, &sink);
      ASSERT_TRUE(resp.ok()) << resp.status();
      CheckClassification(*resp);
      EXPECT_TRUE(resp->complete);
      EXPECT_TRUE(sink.saw_last);
      EXPECT_FALSE(resp->groups_form);
      EXPECT_EQ(resp->var_names, ref->var_names);
      EXPECT_EQ(sink.rows, ref->rows);
      EXPECT_EQ(resp->rows_streamed, ref->rows.size());
      EXPECT_EQ(resp->stats.bytes_factorized, 0u);
      EXPECT_EQ(resp->stats.groups_emitted, resp->stats.embeddings_found);
    }
  }
}

// A want_groups stream pages out its answer graph through the same page
// writer as a row stream: pages flush on the rows their groups REPRESENT,
// first_row counts represented rows, a refused page still counts as
// delivered, and each flush passes the service.stream fault site once.
TEST(QueryServiceGroupsStreamTest, PagesFlushOnRepresentedRows) {
  // 4 hubs x fanout 3, two satellites: 4 groups of 9 rows each.
  AmberEngine engine = MustBuild(StarData(/*hubs=*/4, /*fanout=*/3));
  ServiceOptions options;
  options.stream_page_rows = 10;  // two 9-row groups per page
  options.stream_buffer_bytes = 0;
  QueryService service(&engine, options);
  auto ref = service.Query(kStarQuery, RequestOptions{});
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 36u);

  RequestOptions request;
  request.want_groups = true;
  CollectingPageSink sink;
  auto resp = service.QueryStream(kStarQuery, request, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  EXPECT_TRUE(resp->complete);
  ASSERT_TRUE(resp->groups_form);
  EXPECT_TRUE(sink.saw_last);
  EXPECT_TRUE(sink.rows.empty());
  EXPECT_EQ(sink.groups.size(), 4u);
  // Continuity is asserted inside the sink; each page closes once its
  // groups represent >= 10 rows, then the empty terminator follows.
  EXPECT_EQ(sink.page_rows, (std::vector<uint64_t>{18, 18, 0}));
  EXPECT_EQ(resp->pages, 3u);
  EXPECT_EQ(resp->rows_streamed, 36u);
  EXPECT_EQ(resp->var_names, ref->var_names);
  EXPECT_EQ(wire::ExpandGroups(resp->slot_list, sink.groups), ref->rows);
  EXPECT_EQ(service.Stats().factorized_hits, 1u);
  EXPECT_EQ(service.Stats().rows_served, ref->rows.size() + 36u);
}

TEST(QueryServiceGroupsStreamTest, RefusedPageCountsAsDelivered) {
  AmberEngine engine = MustBuild(StarData(/*hubs=*/4, /*fanout=*/3));
  ServiceOptions options;
  options.stream_page_rows = 10;
  QueryService service(&engine, options);
  RequestOptions request;
  request.want_groups = true;
  CollectingPageSink sink;
  sink.abort_after_pages = 1;  // refuses the very first page
  auto resp = service.QueryStream(kStarQuery, request, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  EXPECT_TRUE(resp->cancelled);
  EXPECT_FALSE(sink.saw_last);
  // The refused page was handed to OnPage: it counts, as on a row stream.
  EXPECT_EQ(sink.pages, 1u);
  EXPECT_EQ(resp->pages, 1u);
  EXPECT_EQ(resp->rows_streamed, 18u);
  EXPECT_EQ(service.Stats().cancelled, 1u);
}

TEST(QueryServiceGroupsStreamTest, TokenTrippedAfterLastGroupEndsComplete) {
  AmberEngine engine = MustBuild(StarData(/*hubs=*/4, /*fanout=*/3));
  ServiceOptions options;
  options.stream_page_rows = 10;
  QueryService service(&engine, options);
  CancellationSource client;
  RequestOptions request;
  request.want_groups = true;
  request.cancel = client.token();
  CollectingPageSink sink;
  sink.cancel_after_pages = 2;  // the page that carries the last group
  sink.cancel_source = &client;
  auto resp = service.QueryStream(kStarQuery, request, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  // Nothing was left to stop: the stream ends complete, like a row
  // stream whose token trips after its last row.
  EXPECT_TRUE(resp->complete);
  EXPECT_TRUE(sink.saw_last);
  EXPECT_EQ(resp->rows_streamed, 36u);
}

TEST(QueryServiceGroupsStreamTest, PageHandoffFaultSurfacesError) {
  AmberEngine engine = MustBuild(StarData(/*hubs=*/4, /*fanout=*/3));
  ServiceOptions options;
  options.stream_page_rows = 10;
  QueryService service(&engine, options);
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.fail_nth = 2;  // the second flush
  ScopedFault fault(faults::kServiceStream, spec);
  RequestOptions request;
  request.want_groups = true;
  CollectingPageSink sink;
  auto resp = service.QueryStream(kStarQuery, request, &sink);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(sink.pages, 1u);  // the faulted page was never delivered
  EXPECT_EQ(sink.groups.size(), 2u);
  EXPECT_EQ(FaultInjector::Global().Fires(faults::kServiceStream), 1u);
}

// A DISTINCT answer graph whose groups collide needs row-level dedup no
// client could replay: the groups stream ships the deduplicated rows
// instead, through the same writer.
TEST(QueryServiceGroupsStreamTest, DistinctCollisionShipsRows) {
  // Every ?c joins both ?b and both ?s, and ?c is not projected: the three
  // groups share one (empty) projected-core key, so their 12 represented
  // rows dedup to 4.
  std::vector<Triple> data;
  for (int c = 0; c < 3; ++c) {
    const Term mid = Term::Iri("urn:c" + std::to_string(c));
    for (int i = 0; i < 2; ++i) {
      data.emplace_back(Term::Iri("urn:b" + std::to_string(i)),
                        Term::Iri("urn:p1"), mid);
      data.emplace_back(mid, Term::Iri("urn:p2"),
                        Term::Iri("urn:s" + std::to_string(i)));
    }
  }
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.stream_page_rows = 3;
  QueryService service(&engine, options);
  const char* text =
      "SELECT DISTINCT ?b ?s WHERE { ?b <urn:p1> ?c . ?c <urn:p2> ?s . }";
  auto ref = service.Query(text, RequestOptions{});
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 4u);

  RequestOptions request;
  request.want_groups = true;
  CollectingPageSink sink;
  auto resp = service.QueryStream(text, request, &sink);
  ASSERT_TRUE(resp.ok()) << resp.status();
  CheckClassification(*resp);
  EXPECT_TRUE(resp->complete);
  EXPECT_FALSE(resp->groups_form);
  EXPECT_TRUE(sink.groups.empty());
  EXPECT_EQ(sink.rows, ref->rows);
  EXPECT_EQ(sink.page_rows, (std::vector<uint64_t>{3, 1}));
  EXPECT_EQ(resp->rows_streamed, 4u);
  EXPECT_GT(resp->stats.rows_expanded, 0u);
}

}  // namespace
}  // namespace amber
