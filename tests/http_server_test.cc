// The HTTP transport (server/http_server.h) end to end over loopback:
// byte-identity with the in-process wire serialization, chunked NDJSON
// streaming (concat identity, groups-mode byte savings), client
// abandonment tripping request cancellation, transport-level error
// mapping, keep-alive, admission at the door, framing fuzz, write-fault
// chaos, and the Stop() drain contract.

#include "server/http_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "rdf/term.h"
#include "server/http_client.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/json.h"
#include "util/random.h"

namespace amber {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// A p0-chain over `n` entities (the edge query yields n-1 rows).
std::vector<Triple> ChainData(int n) {
  std::vector<Triple> data;
  auto ent = [](int i) { return Term::Iri("urn:e" + std::to_string(i)); };
  for (int i = 0; i + 1 < n; ++i) {
    data.emplace_back(ent(i), Term::Iri("urn:p0"), ent(i + 1));
  }
  return data;
}

/// `hubs` star centers, each with `fanout` private p0-satellites — the
/// factorization stressor: k satellite patterns expand to fanout^k rows
/// per hub while the groups form stays O(fanout * k).
std::vector<Triple> StarData(int hubs, int fanout) {
  std::vector<Triple> data;
  for (int h = 0; h < hubs; ++h) {
    Term hub = Term::Iri("urn:hub" + std::to_string(h));
    for (int s = 0; s < fanout; ++s) {
      data.emplace_back(hub, Term::Iri("urn:p0"),
                        Term::Iri("urn:hub" + std::to_string(h) + "sat" +
                                  std::to_string(s)));
    }
  }
  return data;
}

/// A star query with `satellites` distinct projected satellite variables
/// on one hub (the "satellite_fanout" shape of gen/workload.h).
std::string StarQuery(int satellites) {
  std::string q = "SELECT ?h";
  for (int i = 0; i < satellites; ++i) q += " ?s" + std::to_string(i);
  q += " WHERE {";
  for (int i = 0; i < satellites; ++i) {
    q += " ?h <urn:p0> ?s" + std::to_string(i) + " .";
  }
  q += " }";
  return q;
}

constexpr char kEdgeQuery[] = "SELECT ?a ?b WHERE { ?a <urn:p0> ?b . }";

/// Builds a wire request body ({"query":...} plus options).
std::string ReqBody(const std::string& query, uint64_t offset = 0,
                    uint64_t limit = 0, bool count_only = false,
                    const char* result_form = nullptr) {
  json::Writer w;
  w.BeginObject();
  w.KV("query", query);
  if (offset != 0) w.KV("offset", offset);
  if (limit != 0) w.KV("limit", limit);
  if (count_only) w.KV("count_only", true);
  w.KV("bypass_cache", true);
  if (result_form != nullptr) w.KV("result_form", result_form);
  w.EndObject();
  return w.Take();
}

/// Decodes the "rows" array of one NDJSON page line.
std::vector<std::vector<std::string>> PageRows(const std::string& line) {
  auto doc = json::Parse(line);
  EXPECT_TRUE(doc.ok()) << doc.status() << " line: " << line;
  std::vector<std::vector<std::string>> out;
  if (!doc.ok()) return out;
  const json::Value* rows = doc->Find("rows");
  if (rows == nullptr) return out;
  for (const json::Value& row : rows->array) {
    std::vector<std::string> cells;
    for (const json::Value& cell : row.array) cells.push_back(cell.str_v);
    out.push_back(std::move(cells));
  }
  return out;
}

class HttpServerTest : public ::testing::Test {
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

std::vector<Triple>* HttpServerTest::data_ = nullptr;
AmberEngine* HttpServerTest::engine_ = nullptr;

TEST_F(HttpServerTest, HealthzAndStats) {
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(engine_, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  HttpClient client(server.port());
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}");
  ASSERT_NE(health->Header("content-type"), nullptr);
  EXPECT_EQ(*health->Header("content-type"), "application/json");

  auto q = client.Post("/query", ReqBody(kEdgeQuery));
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->status, 200);

  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->status, 200);
  auto doc = json::Parse(stats->body);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const json::Value* svc = doc->Find("service");
  const json::Value* srv = doc->Find("server");
  ASSERT_NE(svc, nullptr);
  ASSERT_NE(srv, nullptr);
  ASSERT_NE(svc->Find("queries"), nullptr);
  EXPECT_GE(svc->Find("queries")->uint_v, 1u);
  ASSERT_NE(srv->Find("requests"), nullptr);
  EXPECT_GE(srv->Find("requests")->uint_v, 2u);
  EXPECT_GE(srv->Find("bytes_written")->uint_v, q->body.size());
}

// The acceptance bar of the transport: the HTTP response body for a
// /query request is byte-identical to serializing the in-process
// QueryService::Query answer of the same request.
TEST_F(HttpServerTest, QueryResponseBytesMatchInProcessWire) {
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(engine_, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  std::vector<std::string> texts;
  for (int qi = 0; qi < 3; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(*data_, 4400 + qi, 3));
  }
  texts.push_back(kEdgeQuery);
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");

  const struct {
    uint64_t offset, limit;
    bool count_only;
  } shapes[] = {{0, 0, false}, {2, 3, false}, {1, 0, false}, {0, 0, true}};

  for (const std::string& text : texts) {
    for (const auto& shape : shapes) {
      SCOPED_TRACE(text + " offset=" + std::to_string(shape.offset) +
                   " limit=" + std::to_string(shape.limit) +
                   " count=" + std::to_string(shape.count_only));
      RequestOptions request;
      request.offset = shape.offset;
      request.limit = shape.limit;
      request.count_only = shape.count_only;
      request.bypass_cache = true;
      auto ref = service.Query(text, request);
      ASSERT_TRUE(ref.ok()) << ref.status();

      auto http = client.Post(
          "/query",
          ReqBody(text, shape.offset, shape.limit, shape.count_only));
      ASSERT_TRUE(http.ok()) << http.status();
      EXPECT_EQ(http->status, 200);
      EXPECT_EQ(http->body, wire::SerializeResponse(*ref));

      // And the client-side decode round-trips the payload.
      auto decoded = wire::ParseResponse(http->body);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(decoded->rows, ref->rows);
      EXPECT_EQ(decoded->total_rows, ref->total_rows);
      EXPECT_EQ(decoded->var_names, ref->var_names);
    }
  }
}

TEST_F(HttpServerTest, StreamConcatenationMatchesQuery) {
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  sopts.stream_page_rows = 3;
  QueryService service(engine_, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  for (int qi = 0; qi < 3; ++qi) {
    const std::string text =
        testutil::RandomQueryFromData(*data_, 5200 + qi, 3);
    SCOPED_TRACE(text);
    RequestOptions request;
    request.bypass_cache = true;
    auto ref = service.Query(text, request);
    ASSERT_TRUE(ref.ok()) << ref.status();

    auto stream = client.PostStream("/query/stream", ReqBody(text),
                                    [](std::string_view) { return true; });
    ASSERT_TRUE(stream.ok()) << stream.status();
    EXPECT_EQ(stream->status, 200);
    EXPECT_TRUE(stream->chunked_complete) << "missing 0-chunk terminator";
    ASSERT_NE(stream->Header("content-type"), nullptr);
    EXPECT_EQ(*stream->Header("content-type"), "application/x-ndjson");

    std::vector<std::string> lines = stream->Lines();
    ASSERT_FALSE(lines.empty());
    // The last line is the summary; everything before it is a page.
    auto summary = json::Parse(lines.back());
    ASSERT_TRUE(summary.ok()) << summary.status();
    const json::Value* s = summary->Find("summary");
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->Find("complete")->bool_v);
    EXPECT_EQ(s->Find("rows_streamed")->uint_v, ref->rows.size());

    std::vector<std::vector<std::string>> streamed;
    for (size_t i = 0; i + 1 < lines.size(); ++i) {
      for (auto& row : PageRows(lines[i])) streamed.push_back(std::move(row));
    }
    EXPECT_EQ(streamed, ref->rows);
  }
}

// PR 9's factorized compression over the wire: the same satellite-heavy
// query streamed as groups ships at least 5x fewer payload bytes than as
// rows, and client-side expansion reproduces the rows payload exactly.
TEST(HttpGroupsTest, GroupsStreamShipsAtLeastFiveTimesFewerBytes) {
  // Fanout-3 hubs, 6 satellite patterns: 3^6 = 729 rows per hub in rows
  // mode, one group of 6 short lists in groups mode.
  AmberEngine engine = MustBuild(StarData(/*hubs=*/2, /*fanout=*/3));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  const std::string text = StarQuery(/*satellites=*/6);

  auto rows_resp = client.PostStream("/query/stream", ReqBody(text),
                                     [](std::string_view) { return true; });
  ASSERT_TRUE(rows_resp.ok()) << rows_resp.status();
  ASSERT_EQ(rows_resp->status, 200);
  ASSERT_TRUE(rows_resp->chunked_complete);

  auto groups_resp =
      client.PostStream("/query/stream", ReqBody(text, 0, 0, false, "groups"),
                        [](std::string_view) { return true; });
  ASSERT_TRUE(groups_resp.ok()) << groups_resp.status();
  ASSERT_EQ(groups_resp->status, 200);
  ASSERT_TRUE(groups_resp->chunked_complete);

  // The stream really was granted groups form (no silent rows fallback).
  auto summary = json::Parse(groups_resp->Lines().back());
  ASSERT_TRUE(summary.ok()) << summary.status();
  const json::Value* s = summary->Find("summary");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->Find("result_form"), nullptr);
  ASSERT_EQ(s->Find("result_form")->str_v, "groups");
  EXPECT_EQ(s->Find("rows_streamed")->uint_v, 2u * 729u);

  EXPECT_GE(rows_resp->body.size(), 5 * groups_resp->body.size())
      << "rows bytes: " << rows_resp->body.size()
      << " groups bytes: " << groups_resp->body.size();

  // Buffered-response identity: expanding the groups payload client-side
  // reproduces the rows payload exactly.
  auto rows_q = client.Post("/query", ReqBody(text));
  ASSERT_TRUE(rows_q.ok()) << rows_q.status();
  ASSERT_EQ(rows_q->status, 200);
  auto rows_decoded = wire::ParseResponse(rows_q->body);
  ASSERT_TRUE(rows_decoded.ok()) << rows_decoded.status();

  auto groups_q = client.Post("/query", ReqBody(text, 0, 0, false, "groups"));
  ASSERT_TRUE(groups_q.ok()) << groups_q.status();
  ASSERT_EQ(groups_q->status, 200);
  auto groups_decoded = wire::ParseResponse(groups_q->body);
  ASSERT_TRUE(groups_decoded.ok()) << groups_decoded.status();
  ASSERT_TRUE(groups_decoded->groups_form);
  EXPECT_EQ(groups_decoded->total_rows, rows_decoded->total_rows);
  EXPECT_GE(rows_q->body.size(), 5 * groups_q->body.size());

  EXPECT_EQ(
      wire::ExpandGroups(groups_decoded->slot_list, groups_decoded->groups),
      rows_decoded->rows);
}

// A client that walks away mid-stream trips the request's cancellation:
// the next page write fails, the matcher unwinds, and the service counts
// a cancelled request.
TEST(HttpDisconnectTest, AbandonedStreamCancelsRequest) {
  // Pad the entity names so the full stream (~1 MB) cannot fit in the
  // loopback socket buffers: the server must still be writing when the
  // client walks away, so a page write really fails.
  std::vector<Triple> data;
  const std::string pad(240, 'x');
  auto ent = [&pad](int i) {
    return Term::Iri("urn:" + pad + std::to_string(i));
  };
  for (int i = 0; i + 1 < 2000; ++i) {
    data.emplace_back(ent(i), Term::Iri("urn:p0"), ent(i + 1));
  }
  AmberEngine engine = MustBuild(data);
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  sopts.stream_page_rows = 1;  // one row per chunk: many write points
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  int lines_seen = 0;
  auto resp = client.PostStream("/query/stream", ReqBody(kEdgeQuery),
                                [&lines_seen](std::string_view) {
                                  return ++lines_seen < 3;  // then walk away
                                });
  // The abandoned call still reports what arrived before the walk-away.
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_FALSE(resp->chunked_complete);
  EXPECT_GE(lines_seen, 3);

  // The server notices the dead socket on a subsequent page write and
  // trips the request token; the handler counts the aborted response only
  // after QueryStream returns, so poll until both counters have landed.
  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  while ((service.Stats().cancelled == 0 ||
          server.stats().aborted_responses == 0) &&
         steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_GE(service.Stats().cancelled, 1u);
  EXPECT_GE(server.stats().aborted_responses, 1u);

  // The transport survives: a fresh request on a fresh connection works.
  auto again = client.Post("/query", ReqBody(kEdgeQuery, 0, 5));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->status, 200);
}

TEST(HttpTransportErrorTest, ErrorMapping) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServerOptions hopts;
  hopts.max_header_bytes = 512;
  hopts.max_request_bytes = 2048;
  hopts.read_timeout = milliseconds(500);
  HttpServer server(&service, hopts);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  // Unknown route -> 404 with the wire error body.
  auto nf = client.Get("/nope");
  ASSERT_TRUE(nf.ok()) << nf.status();
  EXPECT_EQ(nf->status, 404);
  auto nf_doc = json::Parse(nf->body);
  ASSERT_TRUE(nf_doc.ok()) << nf_doc.status();
  ASSERT_NE(nf_doc->Find("error"), nullptr);
  EXPECT_EQ(nf_doc->Find("error")->Find("code")->str_v, "NotFound");
  EXPECT_EQ(nf_doc->Find("error")->Find("http")->uint_v, 404u);

  // Wrong method on a service route -> 405.
  auto wm = client.Get("/query");
  ASSERT_TRUE(wm.ok()) << wm.status();
  EXPECT_EQ(wm->status, 405);

  // Malformed JSON and unknown request keys -> 400 (bad_requests counts).
  for (const char* body : {"{", "not json", "{\"nope\":1}",
                           "{\"query\":42}", "{\"query\":\"x\",\"zzz\":1}"}) {
    SCOPED_TRACE(body);
    auto bad = client.Post("/query", body);
    ASSERT_TRUE(bad.ok()) << bad.status();
    EXPECT_EQ(bad->status, 400);
  }
  EXPECT_GE(server.stats().bad_requests, 5u);

  // A parseable request whose query text is invalid SPARQL -> 400 too
  // (the service's kInvalidArgument maps through StatusCodeToHttp).
  auto bad_q = client.Post("/query", ReqBody("SELECT WHERE garbage"));
  ASSERT_TRUE(bad_q.ok()) << bad_q.status();
  EXPECT_EQ(bad_q->status, 400);

  // want_groups + pagination is a request-contract error, not a 500.
  auto bad_combo =
      client.Post("/query", ReqBody(kEdgeQuery, 0, 3, false, "groups"));
  ASSERT_TRUE(bad_combo.ok()) << bad_combo.status();
  EXPECT_EQ(bad_combo->status, 400);

  // Oversized body -> 413.
  std::string big(4096, 'x');
  auto too_big = client.Post("/query", big);
  ASSERT_TRUE(too_big.ok()) << too_big.status();
  EXPECT_EQ(too_big->status, 413);

  // Oversized header block -> 431.
  std::string raw = "GET /healthz HTTP/1.1\r\nhost: x\r\nx-pad: " +
                    std::string(1024, 'p') + "\r\n\r\n";
  auto hdr = client.Raw(raw);
  ASSERT_TRUE(hdr.ok()) << hdr.status();
  EXPECT_EQ(hdr->status, 431);

  // Transfer-Encoding request bodies are not supported -> 411.
  auto te = client.Raw(
      "POST /query HTTP/1.1\r\nhost: x\r\ntransfer-encoding: chunked\r\n"
      "\r\n0\r\n\r\n");
  ASSERT_TRUE(te.ok()) << te.status();
  EXPECT_EQ(te->status, 411);

  // Unsupported HTTP version -> 505.
  auto ver = client.Raw("GET /healthz HTTP/2.0\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(ver.ok()) << ver.status();
  EXPECT_EQ(ver->status, 505);

  // A garbage request line -> 400 (or a clean close; both acceptable).
  auto garbage = client.Raw("THIS IS NOT HTTP\r\n\r\n");
  if (garbage.ok()) {
    EXPECT_EQ(garbage->status, 400);
  }
}

TEST(HttpKeepAliveTest, OneConnectionManyRequests) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());

  for (int i = 0; i < 5; ++i) {
    auto resp = client.Post("/query", ReqBody(kEdgeQuery));
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, 200);
  }
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 5u);
}

TEST(HttpAdmissionTest, OverflowConnectionsShedAtTheDoor) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 2;  // effective max_connections = 1
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  HttpClient holder(server.port());
  auto held = holder.Get("/healthz");  // keep-alive: holds the one slot
  ASSERT_TRUE(held.ok()) << held.status();
  ASSERT_EQ(held->status, 200);

  HttpClient overflow(server.port());
  auto shed = overflow.Get("/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->status, 503);
  EXPECT_GE(server.stats().connections_rejected, 1u);

  // Releasing the slot lets the next connection in.
  holder.Close();
  const auto deadline = steady_clock::now() + std::chrono::seconds(5);
  int status = 0;
  while (steady_clock::now() < deadline) {
    overflow.Close();
    auto retry = overflow.Get("/healthz");
    if (retry.ok() && (status = retry->status) == 200) break;
    std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_EQ(status, 200);
}

TEST(HttpAdmissionTest, StartRejectsCapacityInvariantViolation) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServerOptions hopts;
  hopts.max_connections = 3;  // == pool_threads: no spare worker
  HttpServer server(&service, hopts);
  Status s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// Framing fuzz: hostile byte streams must never crash the server —
// every input yields a 4xx/431-class response or a clean close, and the
// server keeps serving clean requests afterwards.
TEST(HttpChaosTest, FramingFuzzNeverKillsTheServer) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServerOptions hopts;
  hopts.read_timeout = milliseconds(300);
  hopts.max_header_bytes = 1024;
  HttpServer server(&service, hopts);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());
  client.set_recv_timeout(milliseconds(2000));

  // Deterministic malformed heads: these MUST produce an error status
  // (the response may also simply not arrive if the server closes).
  const char* malformed[] = {
      "\r\n\r\n",
      "GET\r\n\r\n",
      "GET /healthz\r\n\r\n",
      "GET  /healthz HTTP/1.1\r\n\r\n",
      "GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
      "GET relative HTTP/1.1\r\n\r\n",
      "POST /query HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
      "POST /query HTTP/1.1\r\ncontent-length: huge\r\n\r\n",
      "GET /healthz HTTP/9.9\r\n\r\n",
  };
  for (const char* bytes : malformed) {
    SCOPED_TRACE(bytes);
    auto resp = client.Raw(bytes);
    if (resp.ok()) {
      EXPECT_GE(resp->status, 400);
      EXPECT_LT(resp->status, 600);
    }
  }

  // Randomized corruption of a valid request (replayable seed). The
  // server must survive every variant; corrupted bytes that land in
  // ignored headers may still parse, so only no-crash is asserted.
  const std::string valid = "POST /query HTTP/1.1\r\nhost: x\r\n"
                            "content-length: 13\r\n\r\n{\"query\":\"z\"}";
  Rng rng(20260808);
  for (int i = 0; i < 60; ++i) {
    std::string mutated = valid;
    const int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    auto resp = client.Raw(mutated);
    if (resp.ok()) {
      EXPECT_GE(resp->status, 100);
      EXPECT_LT(resp->status, 600);
    }
  }

  // The server is still healthy.
  client.Close();
  auto clean = client.Post("/query", ReqBody(kEdgeQuery));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->status, 200);
}

// The server.write fault site: mid-write failures abort connections but
// never wedge the transport, and service errors map onto live sockets.
TEST(HttpChaosTest, WriteFaultsAbortConnectionsNotTheServer) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client(server.port());
  client.set_recv_timeout(milliseconds(2000));

  {
    FaultSpec spec;
    spec.code = StatusCode::kIOError;
    spec.probability = 0.4;
    spec.seed = 97;
    ScopedFault fault(faults::kServerWrite, spec);
    int ok_count = 0;
    for (int i = 0; i < 25; ++i) {
      auto resp = client.Post("/query", ReqBody(kEdgeQuery));
      if (resp.ok() && resp->status == 200) ++ok_count;
      // Aborted connections surface as transport errors; reconnect.
      if (!resp.ok()) client.Close();
    }
    // The fault schedule fired on some writes and spared others.
    EXPECT_GT(ok_count, 0);
  }
  EXPECT_GE(server.stats().aborted_responses, 1u);

  // Disarmed: back to fully healthy.
  client.Close();
  auto clean = client.Post("/query", ReqBody(kEdgeQuery));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->status, 200);
}

TEST(HttpShutdownTest, StopDrainsServerAndService) {
  AmberEngine engine = MustBuild(ChainData(8));
  ServiceOptions sopts;
  sopts.pool_threads = 3;
  QueryService service(&engine, sopts);
  HttpServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  {
    HttpClient client(port);
    auto resp = client.Post("/query", ReqBody(kEdgeQuery));
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, 200);
  }

  server.Stop();
  EXPECT_FALSE(server.running());

  // Stop() drained the service too: it rejects new work permanently.
  auto post_stop = service.Query(kEdgeQuery);
  ASSERT_FALSE(post_stop.ok());
  EXPECT_EQ(post_stop.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(service.Stats().shutdown_rejects, 1u);

  server.Stop();  // idempotent
}

}  // namespace
}  // namespace amber
