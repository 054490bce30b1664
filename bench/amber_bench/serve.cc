#include "serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "core/matcher.h"
#include "core/query_engine.h"
#include "core/query_plan.h"
#include "measure.h"
#include "server/http_client.h"
#include "server/wire.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "util/clock.h"
#include "util/json.h"

namespace amber::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kMaxResultRows = 1000;
/// A measured phase that runs this long stops; its unsent requests fail.
constexpr auto kPhaseCap = std::chrono::seconds(60);

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One HTTP exchange as the load generator sees it.
struct Outcome {
  bool ok = false;
  Clock::time_point first;  // first result page (the whole body for /query)
  Clock::time_point end;
  BodyAnswer answer;
  uint64_t body_bytes = 0;
  std::string body;  // kept only when asked for
};

Outcome Send(HttpClient* client, const DistinctRequest& r, RequestKind kind,
             bool keep_body) {
  Outcome out;
  Result<HttpResponse> resp = Status::Internal("not sent");
  if (kind == RequestKind::kStream) {
    bool got_first = false;
    resp = client->PostStream("/query/stream", r.body,
                              [&](std::string_view) {
                                if (!got_first) {
                                  out.first = Clock::now();
                                  got_first = true;
                                }
                                return true;
                              });
    out.end = Clock::now();
    if (!got_first) out.first = out.end;
  } else {
    resp = client->Post("/query", r.body);
    out.end = out.first = Clock::now();
  }
  if (!resp.ok()) {
    client->Close();  // reconnect on the next request
    return out;
  }
  out.answer = kind == RequestKind::kStream ? ScanStreamBody(resp->body)
                                            : ScanQueryBody(resp->body);
  out.ok = resp->status == 200 && resp->chunked_complete &&
           out.answer.complete;
  out.body_bytes = resp->body.size();
  if (keep_body) out.body = std::move(resp->body);
  return out;
}

/// Sends `n` requests (request i is reqs(i)) from one thread per client.
/// `due(i)` gives request i's scheduled send time (open loop) or nullopt
/// (closed loop: send as soon as the client is free). `record(i, due,
/// sent, outcome)` runs on the client thread.
template <class ReqFn, class DueFn, class RecordFn>
void Drive(std::vector<std::unique_ptr<HttpClient>>& clients, uint64_t n,
           RequestKind kind, ReqFn reqs, DueFn due, RecordFn record) {
  std::atomic<uint64_t> next{0};
  const Clock::time_point stop = Clock::now() + kPhaseCap;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (uint64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        std::optional<Clock::time_point> at = due(i);
        if (at.has_value()) std::this_thread::sleep_until(*at);
        const Clock::time_point sent = Clock::now();
        if (sent > stop) continue;  // past the cap: left as failed
        record(i, at.value_or(sent), sent, Send(c, reqs(i), kind, false));
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

std::vector<std::unique_ptr<HttpClient>> Connect(uint16_t port, int clients) {
  std::vector<std::unique_ptr<HttpClient>> out;
  for (int c = 0; c < clients; ++c) {
    out.push_back(std::make_unique<HttpClient>(port));
  }
  return out;
}

/// Untimed warm-up before the requests starting at list position
/// `first`: the warm pool, then the stretch of the list just before
/// `first` (five warm pools long), so a round that starts mid-list finds
/// the cache about as a continuous run would have left it.
void WarmUp(std::vector<std::unique_ptr<HttpClient>>& clients,
            const WorkloadSpec& spec, const WorkloadInputs& inputs,
            uint64_t first) {
  const uint64_t back = std::min<uint64_t>(first, 5 * inputs.warm.size());
  Drive(
      clients, inputs.warm.size() + back, spec.kind,
      [&](uint64_t i) -> const DistinctRequest& {
        return i < inputs.warm.size()
                   ? inputs.warm[i]
                   : inputs.distinct[inputs.list[first - back + i -
                                                 inputs.warm.size()]];
      },
      [](uint64_t) { return std::optional<Clock::time_point>(); },
      [](uint64_t, Clock::time_point, Clock::time_point, const Outcome&) {});
}

}  // namespace

ServiceOptions PinnedServiceOptions() {
  ServiceOptions o;
  o.pool_threads = 5;
  o.max_in_flight = 8;
  o.max_queued = 8;
  o.default_thread_budget = 1;
  o.max_thread_budget = 6;
  o.share_pool = true;
  o.default_deadline = std::chrono::milliseconds(5000);
  o.cache_entries = 64;
  o.cache_bytes = 64ull << 20;
  o.single_flight = true;
  o.max_retries = 0;
  o.initial_backoff = std::chrono::milliseconds(10);
  o.shed_high_water = 0;
  o.shed_thread_budget = 1;
  o.max_result_rows = kMaxResultRows;
  o.stream_page_rows = 256;
  o.stream_buffer_bytes = 256 << 10;
  o.result_form = ResultForm::kFlat;
  return o;
}

HttpServerOptions PinnedHttpOptions() {
  HttpServerOptions o;
  o.bind_address = "127.0.0.1";
  o.port = 0;
  o.listen_backlog = 64;
  o.max_connections = 4;
  o.max_header_bytes = 8ull << 10;
  o.max_request_bytes = 1ull << 20;
  o.read_timeout = std::chrono::milliseconds(10'000);
  o.write_timeout = std::chrono::milliseconds(10'000);
  o.drain_grace = std::chrono::milliseconds(1'000);
  return o;
}

std::unique_ptr<AmberEngine> SetUpOnce(
    std::vector<Triple>* triples, const std::string& artifact_path,
    bool drop_triples, const std::function<void(AmberEngine&)>& before_drop,
    SetupTimes* times, long* rss_before_open_kb) {
  Stopwatch sw;
  Result<AmberEngine> built = AmberEngine::Build(*triples);
  if (!built.ok()) return nullptr;
  times->build = sw.ElapsedSeconds();
  times->encode = built->timings().encode_seconds;
  times->graph = built->timings().graph_seconds;
  times->index = built->timings().index_seconds;
  sw.Reset();
  if (!built->SaveFile(artifact_path).ok()) return nullptr;
  times->save = sw.ElapsedSeconds();
  if (before_drop) before_drop(*built);
  built = Status::Internal("dropped");  // frees the built engine
  if (drop_triples) {
    std::vector<Triple>().swap(*triples);
    TrimHeap();
    *rss_before_open_kb = ReadRssKb();
  }

  sw.Reset();
  Result<AmberEngine> opened = AmberEngine::OpenFile(artifact_path);
  if (!opened.ok()) return nullptr;
  times->open = sw.ElapsedSeconds();
  auto engine = std::make_unique<AmberEngine>(std::move(opened).value());

  sw.Reset();
  {
    QueryService service(engine.get(), PinnedServiceOptions());
    HttpServer server(&service, PinnedHttpOptions());
    if (!server.Start().ok()) return nullptr;
    times->server_start = sw.ElapsedSeconds();
  }
  return engine;
}

uint64_t ReferenceDigest(AmberEngine& engine, const DistinctRequest& r,
                         RequestKind kind) {
  Result<SelectQuery> q = SparqlParser::Parse(r.query);
  if (!q.ok()) return 0;
  ExecOptions exec;
  if (kind == RequestKind::kCount) {
    Result<CountResult> c = engine.Count(*q, exec);
    return c.ok() ? DigestCount(c->count) : 0;
  }
  exec.max_rows = kind == RequestKind::kPage ? kMaxResultRows
                                             : r.offset + r.limit;
  Result<MaterializedRows> m = engine.Materialize(*q, exec);
  if (!m.ok()) return 0;
  const size_t begin = std::min<size_t>(r.offset, m->rows.size());
  const size_t end =
      r.limit == 0 ? m->rows.size()
                   : std::min<size_t>(begin + r.limit, m->rows.size());
  return DigestRows(std::span(m->rows).subspan(begin, end - begin));
}

std::map<uint32_t, uint64_t> ReferenceDigests(
    AmberEngine& engine, const std::vector<DistinctRequest>& distinct,
    const std::vector<uint32_t>& which, RequestKind kind) {
  std::vector<uint64_t> digests(which.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < which.size();
           i = next.fetch_add(1)) {
        digests[i] = ReferenceDigest(engine, distinct[which[i]], kind);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<uint32_t, uint64_t> out;
  for (size_t i = 0; i < which.size(); ++i) out[which[i]] = digests[i];
  return out;
}

PhaseRecord RunRound(AmberEngine* engine, const WorkloadSpec& spec,
                     const WorkloadInputs& inputs, uint64_t first,
                     uint64_t n, int clients, double paced_qps) {
  PhaseRecord rec;
  rec.first = first;
  rec.latency_ms.assign(n, 0);
  rec.ttfp_ms.assign(n, 0);
  rec.late_ms.assign(paced_qps > 0 ? n : 0, 0);
  rec.digest.assign(n, 0);
  rec.ok.assign(n, 0);

  QueryService service(engine, PinnedServiceOptions());
  HttpServer server(&service, PinnedHttpOptions());
  if (!server.Start().ok()) return rec;  // every request left failed
  auto conns = Connect(server.port(), clients);
  WarmUp(conns, spec, inputs, first);
  const ServiceStats service_before = service.Stats();
  const uint64_t bytes_before = server.stats().bytes_written;
  const auto period = paced_qps > 0
                          ? std::chrono::duration<double>(1.0 / paced_qps)
                          : std::chrono::duration<double>(0);
  const Clock::time_point t0 =
      Clock::now() + std::chrono::milliseconds(paced_qps > 0 ? 1 : 0);
  Drive(
      conns, n, spec.kind,
      [&](uint64_t i) -> const DistinctRequest& {
        return inputs.distinct[inputs.list[first + i]];
      },
      [&](uint64_t i) -> std::optional<Clock::time_point> {
        if (paced_qps <= 0) return std::nullopt;
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(i));
      },
      [&](uint64_t i, Clock::time_point due, Clock::time_point sent,
          const Outcome& o) {
        rec.latency_ms[i] = Ms(o.end - due);
        rec.ttfp_ms[i] = Ms(o.first - due);
        if (paced_qps > 0) rec.late_ms[i] = Ms(sent - due);
        rec.digest[i] = o.answer.digest;
        rec.ok[i] = o.ok ? 1 : 0;
      });
  rec.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  const ServiceStats service_after = service.Stats();
  rec.cache_hits = service_after.cache_hits - service_before.cache_hits;
  rec.cache_misses = service_after.cache_misses - service_before.cache_misses;
  rec.cache_evictions =
      service_after.cache_evictions - service_before.cache_evictions;
  rec.bytes_out = server.stats().bytes_written - bytes_before;
  TrimHeap();  // count live memory, not what the allocator kept
  rec.rss_end_kb = ReadRssKb();
  return rec;
}

Phases RunPhases(AmberEngine* engine, const WorkloadSpec& spec,
                 const WorkloadInputs& inputs) {
  Phases out;
  const uint64_t r = static_cast<uint64_t>(std::max(spec.rounds, 1));
  auto slice = [r](uint64_t n, uint64_t k) {
    return std::pair<uint64_t, uint64_t>(n * k / r,
                                         n * (k + 1) / r - n * k / r);
  };
  for (uint64_t k = 0; k < r; ++k) {
    const auto [cf, cn] = slice(inputs.capacity_requests, k);
    out.capacity.push_back(
        RunRound(engine, spec, inputs, cf, cn, spec.clients, 0));
    if (spec.paced_qps > 0) {
      const auto [pf, pn] = slice(inputs.paced_requests, k);
      out.paced.push_back(RunRound(engine, spec, inputs, pf, pn,
                                   spec.clients, spec.paced_qps));
    }
  }
  return out;
}

namespace {

/// PageSink that keeps every page (the twin's side of a traced stream).
class CollectPages : public PageSink {
 public:
  bool OnPage(StreamPage&& page) override {
    pages.push_back(std::move(page));
    return true;
  }
  std::vector<StreamPage> pages;
};

/// RowSink that drops rows (the replayed AmberEngine::Stream call).
class DiscardRows : public RowSink {
 public:
  bool OnRow(std::span<const std::string>) override { return true; }
};

/// Runs `f` inside a span and returns the span's duration in microseconds.
template <class F>
double Timed(SpanStore* store, const char* name, uint32_t parent,
             uint64_t request, F&& f) {
  const uint32_t id = store->Begin(name, parent, request);
  f();
  store->End(id);
  return static_cast<double>(store->at(id).duration_ns()) / 1e3;
}

/// The twin's answer to one request (the in-process service call the
/// HTTP server makes for it).
struct TwinAnswer {
  bool ok = false;
  bool hit = false;
  QueryResponse resp;
  StreamResponse stream;
  std::vector<StreamPage> pages;
};

TwinAnswer AskTwin(QueryService* twin, const wire::WireRequest& wr,
                   RequestKind kind) {
  TwinAnswer a;
  if (kind == RequestKind::kStream) {
    CollectPages sink;
    Result<StreamResponse> sr = twin->QueryStream(wr.query, wr.options, &sink);
    if (!sr.ok()) return a;
    a.stream = std::move(sr).value();
    a.pages = std::move(sink.pages);
    a.ok = a.stream.complete;
    return a;
  }
  Result<QueryResponse> qr = twin->Query(wr.query, wr.options);
  if (!qr.ok()) return a;
  a.resp = std::move(qr).value();
  a.hit = a.resp.cache_hit;
  a.ok = !a.resp.timed_out && !a.resp.cancelled;
  return a;
}

/// Counters summed over the replayed misses.
struct ReplayTotals {
  uint64_t misses = 0;
  uint64_t roots = 0;
  uint64_t embeddings = 0;
  uint64_t recursion = 0;
  uint64_t probe_checks = 0;
  uint64_t probe_hits = 0;
  uint64_t galloped = 0;
  uint64_t scanned = 0;
  uint64_t lists = 0;
  uint64_t rows_expanded = 0;
  uint64_t rows_translated = 0;
  uint64_t threads_used = 0;
  uint64_t tasks = 0;
  double serial_ms = 0;  // CandInit + match, serial
  double exec_ms = 0;    // AmberEngine call at the request's budget
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

TraceRecord RunTraced(AmberEngine* engine, const WorkloadSpec& spec,
                      const WorkloadInputs& inputs, uint64_t n,
                      const std::map<uint32_t, uint64_t>& expected) {
  TraceRecord rec;
  auto wrong = [&](uint64_t i, uint64_t digest) {
    auto it = expected.find(inputs.list[i]);
    return it == expected.end() || it->second != digest;
  };

  // Untraced 1-client pass over the same prefix: the overhead baseline.
  const PhaseRecord base = RunRound(engine, spec, inputs, 0, n, 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    if (!base.ok[i] || wrong(i, base.digest[i])) ++rec.failed;
  }

  const ServiceOptions options = PinnedServiceOptions();
  QueryService service(engine, options);
  HttpServer server(&service, PinnedHttpOptions());
  if (!server.Start().ok()) {
    rec.failed += n;
    return rec;
  }
  // The twin sees the same request sequence as the server; with one
  // client its cache state mirrors the server's, so its service call
  // times what the server did for that request.
  QueryService twin(engine, options);
  HttpClient client(server.port());
  std::map<uint32_t, wire::WireRequest> parsed;
  auto wire_request = [&](uint32_t d) -> const wire::WireRequest& {
    auto it = parsed.find(d);
    if (it == parsed.end()) {
      it = parsed.emplace(d, *wire::ParseRequest(inputs.distinct[d].body))
               .first;
    }
    return it->second;
  };
  for (const DistinctRequest& w : inputs.warm) {
    Send(&client, w, spec.kind, false);
    AskTwin(&twin, *wire::ParseRequest(w.body), spec.kind);
  }
  const ServiceStats service_before = service.Stats();
  const uint64_t bytes_before = server.stats().bytes_written;

  const uint64_t cap = spec.kind == RequestKind::kPage     ? kMaxResultRows
                       : spec.kind == RequestKind::kStream ? spec.limit
                                                           : 0;
  SpanStore& store = rec.store;
  std::vector<double> http_us, service_us, service_self_us, http_self_us,
      hit_us, parse_us, serialize_us, decode_us, normalize_us, sparql_us,
      qgraph_us, plan_us, candinit_ms, match_ms, exec_ms, translate_us_row;
  ReplayTotals t;
  uint64_t rows_served = 0;
  uint64_t body_bytes = 0;
  uint64_t pages = 0;
  uint64_t peak_buffered = 0;

  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t d = inputs.list[i];
    const DistinctRequest& r = inputs.distinct[d];
    const wire::WireRequest& wr = wire_request(d);
    const uint32_t root = store.Begin("request", Span::kNoParent, i);

    Outcome http;
    http_us.push_back(Timed(&store, "server.http", root, i, [&] {
      http = Send(&client, r, spec.kind, /*keep_body=*/true);
    }));
    TwinAnswer twin_answer;
    service_us.push_back(Timed(&store, "server.service", root, i, [&] {
      twin_answer = AskTwin(&twin, wr, spec.kind);
    }));
    const bool miss = spec.kind == RequestKind::kStream || !twin_answer.hit;
    if (twin_answer.hit) hit_us.push_back(service_us.back());

    double exec_us = 0;
    const uint32_t replay = store.Begin("replay", root, i);
    parse_us.push_back(Timed(&store, "wire.parse_request", replay, i, [&] {
      (void)wire::ParseRequest(r.body);
    }));
    if (miss) {
      ++t.misses;
      Result<NormalizedQuery> nq = Status::Internal("not run");
      normalize_us.push_back(Timed(&store, "sparql.normalize", replay, i,
                                   [&] { nq = NormalizeQuery(r.query); }));
      sparql_us.push_back(Timed(&store, "sparql.parse", replay, i, [&] {
        (void)SparqlParser::Parse(r.query);
      }));
      Result<QueryGraph> qg = Status::Internal("not run");
      if (nq.ok()) {
        qgraph_us.push_back(Timed(&store, "sparql.query_graph", replay, i, [&] {
          qg = QueryGraph::Build(nq->query, engine->dictionaries());
        }));
      }
      if (nq.ok() && qg.ok() && !qg->unsatisfiable()) {
        ExecOptions serial;
        serial.max_rows = cap;
        QueryPlan plan;
        plan_us.push_back(Timed(&store, "core.plan", replay, i, [&] {
          plan = PlanQuery(*qg, serial.plan, &engine->indexes().value,
                           engine->graph().NumVertices());
        }));
        Matcher matcher(engine->graph(), engine->indexes(), *qg, plan,
                        serial);
        std::vector<VertexId> roots;
        const double ci = Timed(&store, "core.candinit", replay, i,
                                [&] { roots = matcher.ComputeRootCandidates(); });
        candinit_ms.push_back(ci / 1e3);
        ExecStats ms;
        // Capped as the engine caps them: the request's row cap or the
        // query's LIMIT, whichever is smaller.
        const uint64_t row_cap = EffectiveRowCap(nq->query, serial);
        CountingSink counting(row_cap);
        CollectingSink collecting(row_cap);
        EmbeddingSink* sink = spec.kind == RequestKind::kCount
                                  ? static_cast<EmbeddingSink*>(&counting)
                                  : &collecting;
        const double mt = Timed(&store, "core.match", replay, i, [&] {
          (void)matcher.Run(sink, &ms,
                            std::span<const VertexId>(roots));
        });
        match_ms.push_back(mt / 1e3);
        t.roots += roots.size();
        t.embeddings += ms.embeddings_found;
        t.recursion += ms.recursion_calls;
        t.probe_checks += ms.probe_checks;
        t.probe_hits += ms.probe_hits;
        t.galloped += ms.galloped_elements;
        t.scanned += ms.scanned_elements;
        t.lists += ms.lists_materialized;
        t.rows_expanded += ms.rows_expanded;
        t.serial_ms += (ci + mt) / 1e3;

        ExecOptions budget;
        budget.max_rows = cap;
        budget.num_threads = std::max(1, spec.thread_budget);
        budget.pool = twin.pool();
        ExecStats es;
        exec_us = Timed(&store, "core.exec", replay, i, [&] {
          if (spec.kind == RequestKind::kCount) {
            Result<CountResult> c = engine->Count(nq->query, budget);
            if (c.ok()) es = c->stats;
          } else if (spec.kind == RequestKind::kPage) {
            Result<MaterializedRows> m = engine->Materialize(nq->query, budget);
            if (m.ok()) es = m->stats;
          } else {
            DiscardRows discard;
            Result<StreamResult> s =
                engine->Stream(nq->query, budget, &discard);
            if (s.ok()) es = s->stats;
          }
        });
        exec_ms.push_back(exec_us / 1e3);
        t.exec_ms += exec_us / 1e3;
        t.threads_used += es.threads_used;
        t.tasks += es.tasks_dispatched;

        const auto& rows = collecting.rows();
        if (!rows.empty()) {
          const double tr = Timed(&store, "rdf.translate", replay, i, [&] {
            for (const std::vector<VertexId>& row : rows) {
              (void)engine->TranslateRow(row);
            }
          });
          translate_us_row.push_back(tr / static_cast<double>(rows.size()));
          t.rows_translated += rows.size();
        }
      }
      // Hit path: the same request again, now cached. A stream never
      // hits, so its probe first fills the cache through Query().
      if (spec.kind == RequestKind::kStream) {
        Timed(&store, "probe.fill", replay, i, [&] {
          (void)twin.Query(wr.query, wr.options);
        });
      }
      bool probe_hit = false;
      const double pu =
          Timed(&store, "server.service.hit_probe", replay, i, [&] {
            Result<QueryResponse> p = twin.Query(wr.query, wr.options);
            probe_hit = p.ok() && p->cache_hit;
          });
      if (probe_hit) hit_us.push_back(pu);
    }

    decode_us.push_back(Timed(&store, "wire.decode", replay, i, [&] {
      if (spec.kind == RequestKind::kStream) {
        std::string_view body = http.body;
        while (!body.empty()) {
          const size_t nl = std::min(body.find('\n'), body.size());
          (void)json::Parse(body.substr(0, nl));
          body.remove_prefix(std::min(nl + 1, body.size()));
        }
      } else {
        (void)wire::ParseResponse(http.body);
      }
    }));
    std::string serialized;
    serialize_us.push_back(Timed(&store, "wire.serialize", replay, i, [&] {
      if (spec.kind == RequestKind::kStream) {
        for (const StreamPage& page : twin_answer.pages) {
          std::string line = wire::SerializeStreamPage(page);
          if (line.empty()) continue;
          serialized += line;
          serialized += '\n';
        }
        serialized += wire::SerializeStreamSummary(twin_answer.stream);
        serialized += '\n';
      } else {
        serialized = wire::SerializeResponse(twin_answer.resp);
      }
    }));
    store.End(replay);
    store.End(root);

    if (serialized != http.body) ++rec.serialize_mismatches;
    if (!http.ok || !twin_answer.ok || wrong(i, http.answer.digest) ||
        serialized != http.body) {
      ++rec.failed;
    }
    http_self_us.push_back(http_us.back() - service_us.back());
    service_self_us.push_back(service_us.back() - exec_us);
    rows_served += http.answer.rows;
    body_bytes += http.body_bytes;
    pages += http.answer.pages;
    peak_buffered = std::max<uint64_t>(
        peak_buffered, spec.kind == RequestKind::kStream
                           ? twin_answer.stream.peak_buffered_bytes
                           : http.body_bytes);
  }
  const ServiceStats service_after = service.Stats();
  const uint64_t hits = service_after.cache_hits - service_before.cache_hits;
  const uint64_t lookups =
      hits + service_after.cache_misses - service_before.cache_misses;
  const uint64_t bytes_out = server.stats().bytes_written - bytes_before;

  const double dn = static_cast<double>(std::max<uint64_t>(n, 1));
  const double misses = static_cast<double>(t.misses);
  auto& m = rec.metrics;
  m["server.http.self_p50_us"] = Median(http_self_us);
  m["server.http.bytes_out_per_req"] = static_cast<double>(bytes_out) / dn;
  m["server.wire.parse_p50_us"] = Median(parse_us);
  m["server.wire.serialize_p50_us"] = Median(serialize_us);
  m["server.wire.decode_p50_us"] = Median(decode_us);
  m["server.wire.bytes_per_row"] =
      Ratio(static_cast<double>(body_bytes), static_cast<double>(rows_served));
  m["server.service.self_p50_us"] = Median(service_self_us);
  m["server.service.hit_p50_us"] = Percentile(hit_us, 50);
  m["server.service.hit_p99_us"] = Percentile(hit_us, 99);
  m["server.cache.hit_ratio"] =
      Ratio(static_cast<double>(hits), static_cast<double>(lookups));
  m["server.cache.evictions_per_req"] =
      static_cast<double>(service_after.cache_evictions -
                          service_before.cache_evictions) /
      dn;
  m["server.cache.bytes_cached_mb"] =
      static_cast<double>(service_after.bytes_cached) / (1 << 20);
  m["server.stream.pages_per_req"] = static_cast<double>(pages) / dn;
  m["server.stream.peak_buffered_kb"] =
      static_cast<double>(peak_buffered) / 1024;
  m["sparql.normalize_p50_us"] = Median(normalize_us);
  m["sparql.parse_p50_us"] = Median(sparql_us);
  m["sparql.query_graph_p50_us"] = Median(qgraph_us);
  m["core.plan_p50_us"] = Median(plan_us);
  m["core.candinit_p50_ms"] = Median(candinit_ms);
  m["core.root_candidates_per_query"] = Ratio(t.roots, misses);
  m["core.embeddings_per_root_candidate"] = Ratio(t.embeddings, t.roots);
  m["core.match_p50_ms"] = Median(match_ms);
  m["core.exec_p50_ms"] = Percentile(exec_ms, 50);
  m["core.exec_p99_ms"] = Percentile(exec_ms, 99);
  m["core.recursion_calls_per_query"] = Ratio(t.recursion, misses);
  m["core.probe_hit_ratio"] = Ratio(t.probe_hits, t.probe_checks);
  m["core.gallop_share"] = Ratio(t.galloped, t.galloped + t.scanned);
  m["core.lists_materialized_per_query"] = Ratio(t.lists, misses);
  m["core.parallel_speedup"] = Ratio(t.serial_ms, t.exec_ms);
  m["core.threads_used"] = Ratio(t.threads_used, misses);
  m["core.tasks_per_query"] = Ratio(t.tasks, misses);
  m["rdf.translate_p50_us_per_row"] = Median(translate_us_row);
  m["rdf.rows_translated_per_row_served"] =
      Ratio(t.rows_translated, rows_served);
  m["core.rows_expanded_per_row_served"] =
      Ratio(t.rows_expanded, rows_served);
  const double untraced_p50 = Median(base.latency_ms);
  m["trace.overhead_pct"] =
      Ratio(Median(http_us) / 1e3 - untraced_p50, untraced_p50) * 100;
  rec.spans = store.Summaries();
  return rec;
}

}  // namespace amber::bench
