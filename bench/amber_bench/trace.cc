#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

#include "measure.h"
#include "util/json.h"

namespace amber::bench {

int64_t SpanStore::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t SpanStore::Begin(const char* name, uint32_t parent,
                          uint64_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanStore::End(uint32_t id) { spans_[id].end_ns = NowNs(); }

uint32_t SpanStore::Add(const char* name, uint32_t parent, uint64_t request,
                        int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<int64_t> SpanStore::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == Span::kNoParent) continue;
    const Span& p = spans_[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans_[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> SpanStore::Summaries() const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& [dur, slf] = by_name[spans_[i].name];
    dur.push_back(static_cast<double>(spans_[i].duration_ns()) / 1e3);
    slf.push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, samples] : by_name) {
    SpanSummary s;
    s.count = samples.first.size();
    for (double v : samples.first) s.total_ms += v / 1e3;
    for (double v : samples.second) s.self_total_ms += v / 1e3;
    s.p50_us = Median(std::move(samples.first));
    s.self_p50_us = Median(std::move(samples.second));
    out.emplace(name, s);
  }
  return out;
}

bool SpanStore::WriteChromeTrace(const std::string& path,
                                 uint64_t max_requests) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.request >= max_requests) continue;
    json::Writer w;
    w.BeginObject();
    w.KV("name", s.name);
    w.KV("cat", "amber_bench");
    w.KV("ph", "X");
    w.KV("ts", static_cast<double>(s.start_ns) / 1e3);
    w.KV("dur", static_cast<double>(s.duration_ns()) / 1e3);
    w.KV("pid", uint64_t{1});
    w.KV("tid", uint64_t{1});
    w.Key("args");
    w.BeginObject();
    w.KV("request", s.request);
    w.EndObject();
    w.EndObject();
    os << (first ? "\n" : ",\n") << w.str();
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

namespace {

int Check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest FAILED: %s\n", what);
  return ok ? 0 : 1;
}

int CheckSelfTimes() {
  // root [0,100] with children A [10,40], B [30,60] (overlapping A) and
  // C [90,120] (running past the root, so clipped to [90,100]); A has one
  // child A1 [15,20]. Covered part of root = [10,60] + [90,100] = 60.
  SpanStore store;
  const uint32_t root = store.Add("request", Span::kNoParent, 0, 0, 100);
  const uint32_t a = store.Add("a", root, 0, 10, 40);
  const uint32_t b = store.Add("b", root, 0, 30, 60);
  const uint32_t c = store.Add("c", root, 0, 90, 120);
  const uint32_t a1 = store.Add("a1", a, 0, 15, 20);
  // A second request with no children: all of it is unattributed.
  const uint32_t root2 = store.Add("request", Span::kNoParent, 1, 200, 260);
  const std::vector<int64_t> self = store.SelfTimesNs();
  int failed = 0;
  failed += Check(self[root] == 40, "root self = 100 - union(children)");
  failed += Check(self[a] == 25, "child self excludes grandchild");
  failed += Check(self[b] == 30, "leaf self = duration");
  failed += Check(self[c] == 30, "clipped child keeps its own duration");
  failed += Check(self[a1] == 5, "grandchild self");
  failed += Check(self[root2] == 60, "childless root is all unattributed");

  const auto sums = store.Summaries();
  failed += Check(sums.at("request").count == 2, "summary counts spans");
  // Nearest-rank median of {0.040, 0.060} us is the first value.
  failed += Check(sums.at("request").self_p50_us == 0.04,
                  "summary self median in microseconds");

  const std::string path = "amber_bench_selftest.trace.json";
  failed += Check(store.WriteChromeTrace(path, 1), "trace file written");
  std::ifstream is(path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  Result<json::Value> doc = json::Parse(text);
  failed += Check(doc.ok(), "trace file is valid JSON");
  if (doc.ok()) {
    const json::Value* events = doc->Find("traceEvents");
    failed += Check(events != nullptr && events->array.size() == 5,
                    "trace keeps only the first request's spans");
  }
  return failed;
}

int CheckMeasure() {
  int failed = 0;
  failed += Check(Percentile({5, 1, 4, 2, 3}, 50) == 3, "p50 nearest rank");
  failed += Check(Percentile({1, 2, 3, 4}, 50) == 2, "p50 of even sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  failed += Check(Percentile(hundred, 99) == 99, "p99 of 1..100");
  failed += Check(Percentile({}, 99) == 0, "empty sample");

  const std::vector<std::vector<std::string>> rows = {{"<a>", "<b\"c>"},
                                                      {"<d>", "<e>"}};
  const std::string body =
      R"({"result_form":"rows","var_names":["x","y"],"rows":[["<a>","<b\"c>"],["<d>","<e>"]],"total_rows":2,"truncated":false,"timed_out":false,"cancelled":false})";
  BodyAnswer q = ScanQueryBody(body);
  failed += Check(q.complete && q.rows == 2 && q.digest == DigestRows(rows),
                  "query body digest matches reference");
  BodyAnswer t = ScanQueryBody(
      R"({"result_form":"rows","var_names":[],"rows":[],"total_rows":0,"truncated":false,"timed_out":true,"cancelled":false})");
  failed += Check(!t.complete, "timed-out body is incomplete");
  BodyAnswer n = ScanQueryBody(
      R"({"result_form":"count","total_rows":42,"timed_out":false,"cancelled":false})");
  failed += Check(n.complete && n.digest == DigestCount(42), "count digest");
  const std::string stream =
      "{\"first_row\":0,\"rows\":[[\"<a>\",\"<b\\\"c>\"]]}\n"
      "{\"first_row\":1,\"rows\":[[\"<d>\",\"<e>\"]]}\n"
      "{\"summary\":{\"result_form\":\"rows\",\"complete\":true}}\n";
  BodyAnswer s = ScanStreamBody(stream);
  failed += Check(s.complete && s.pages == 2 && s.digest == DigestRows(rows),
                  "stream digest matches reference");
  BodyAnswer cut = ScanStreamBody(stream.substr(0, stream.rfind("{\"sum")));
  failed += Check(!cut.complete, "stream without summary is incomplete");
  return failed;
}

}  // namespace

int RunSelfTest() {
  const int failed = CheckSelfTimes() + CheckMeasure();
  std::printf("selftest: %s (%d failed checks)\n", failed == 0 ? "ok" : "FAILED",
              failed);
  return failed;
}

}  // namespace amber::bench
