// amber_bench: the repo benchmark (README.md in this directory).
//
//   amber_bench [--workload NAME|all] [--seed N] [--seconds S]
//               [--trace 0|1] [--smoke] [--out DIR]
//               [--expected PATH] [--record-expected] [--selftest]
//
// Per workload: generate inputs from the seed, set up five times
// (Build -> SaveFile -> OpenFile -> server Start; setup_s is the median),
// then serve the opened artifact over loopback HTTP — a closed-loop
// capacity phase and, for open-loop workloads, a paced phase over the same
// list. Every answer is checked. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1. The exit code is
// 0 only when every answer was right.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "measure.h"
#include "serve.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace amber::bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json ("end_to_end" / "per_layer").
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"qps", "req/s"},
    {"p50_ms", "ms"},
    {"ttfp_p50_ms", "ms"},
    {"artifact_bytes_per_triple", "B"},
    {"serve_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"setup.encode_s", "s"},
    {"setup.graph_s", "s"},
    {"setup.index_s", "s"},
    {"setup.save_s", "s"},
    {"setup.open_s", "s"},
    {"setup.server_start_s", "s"},
    {"server.http.self_p50_us", "us"},
    {"server.http.bytes_out_per_req", "B"},
    {"server.wire.parse_p50_us", "us"},
    {"server.wire.serialize_p50_us", "us"},
    {"server.wire.decode_p50_us", "us"},
    {"server.wire.bytes_per_row", "B"},
    {"server.service.self_p50_us", "us"},
    {"server.service.hit_p50_us", "us"},
    {"server.service.hit_p99_us", "us"},
    {"server.cache.hit_ratio", "ratio"},
    {"server.cache.evictions_per_req", "count"},
    {"server.cache.bytes_cached_mb", "MiB"},
    {"server.stream.pages_per_req", "count"},
    {"server.stream.peak_buffered_kb", "KiB"},
    {"sparql.normalize_p50_us", "us"},
    {"sparql.parse_p50_us", "us"},
    {"sparql.query_graph_p50_us", "us"},
    {"core.plan_p50_us", "us"},
    {"core.candinit_p50_ms", "ms"},
    {"core.root_candidates_per_query", "count"},
    {"core.embeddings_per_root_candidate", "ratio"},
    {"core.match_p50_ms", "ms"},
    {"core.exec_p50_ms", "ms"},
    {"core.exec_p99_ms", "ms"},
    {"core.recursion_calls_per_query", "count"},
    {"core.probe_hit_ratio", "ratio"},
    {"core.gallop_share", "ratio"},
    {"core.lists_materialized_per_query", "count"},
    {"core.parallel_speedup", "ratio"},
    {"core.threads_used", "count"},
    {"core.tasks_per_query", "count"},
    {"rdf.rows_translated_per_row_served", "ratio"},
    {"core.rows_expanded_per_row_served", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Requests whose spans go into the Chrome trace file (all are measured).
constexpr uint64_t kTraceFileRequests = 500;

struct Cli {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 20;  // BENCHMARK.json run_seconds
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  bool record_expected = false;
  std::string out;
  std::string expected = std::string(AMBER_BENCH_DIR) + "/expected.json";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled timing
};

struct WorkloadResult {
  bool aborted = false;  // input guard tripped: no result is printed
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // the contract metrics, in table order
  std::map<std::string, double> extra;  // result-file only
  json::Writer details;                 // result-file only (an object)
};

// ---------------------------------------------------------------------------
// The answer and input guard (expected.json).

struct ExpectedEntry {
  std::string workload;
  uint64_t seed = 0;
  std::string mode;
  double seconds = 0;
  uint64_t requests = 0;
  std::string fingerprint;
  std::string digest;
};

std::vector<ExpectedEntry> LoadExpected(const std::string& path) {
  std::vector<ExpectedEntry> out;
  std::ifstream is(path);
  if (!is) return out;
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  Result<json::Value> doc = json::Parse(text);
  const json::Value* entries = doc.ok() ? doc->Find("entries") : nullptr;
  if (entries == nullptr) return out;
  for (const json::Value& e : entries->array) {
    ExpectedEntry x;
    auto str = [&](const char* k) {
      const json::Value* v = e.Find(k);
      return v != nullptr && v->is_string() ? v->str_v : std::string();
    };
    auto num = [&](const char* k) {
      const json::Value* v = e.Find(k);
      return v != nullptr && v->is_number() ? v->num_v : 0.0;
    };
    x.workload = str("workload");
    x.seed = static_cast<uint64_t>(num("seed"));
    x.mode = str("mode");
    x.seconds = num("seconds");
    x.requests = static_cast<uint64_t>(num("requests"));
    x.fingerprint = str("list_fingerprint");
    x.digest = str("answer_digest");
    out.push_back(x);
  }
  return out;
}

bool SaveExpected(const std::string& path,
                  std::vector<ExpectedEntry> entries) {
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.mode, a.workload, a.seed, a.seconds) <
           std::tie(b.mode, b.workload, b.seed, b.seconds);
  });
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    const ExpectedEntry& e = entries[i];
    json::Writer w;
    w.BeginObject();
    w.KV("workload", e.workload);
    w.KV("seed", e.seed);
    w.KV("mode", e.mode);
    w.KV("seconds", e.seconds);
    w.KV("requests", e.requests);
    w.KV("list_fingerprint", e.fingerprint);
    w.KV("answer_digest", e.digest);
    w.EndObject();
    os << "  " << w.str() << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

const ExpectedEntry* FindExpected(const std::vector<ExpectedEntry>& entries,
                                  const std::string& workload, uint64_t seed,
                                  const std::string& mode, double seconds) {
  for (const ExpectedEntry& e : entries) {
    if (e.workload == workload && e.seed == seed && e.mode == mode &&
        e.seconds == seconds) {
      return &e;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

std::vector<uint32_t> AllIndices(size_t n) {
  std::vector<uint32_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(i);
  return out;
}

uint64_t FoldDigests(const std::vector<uint64_t>& digests) {
  return Fnv(kFnvOffset,
             std::string_view(reinterpret_cast<const char*>(digests.data()),
                              digests.size() * sizeof(uint64_t)));
}

/// The timed set-ups (kSetups). Returns the engine the last one opened.
std::unique_ptr<AmberEngine> SetUp(
    WorkloadInputs* inputs, const std::string& artifact,
    const std::function<void(AmberEngine&)>& on_first_build,
    std::vector<SetupTimes>* times, long* rss_before_open_kb) {
  std::unique_ptr<AmberEngine> engine;
  for (int r = 0; r < kSetups; ++r) {
    engine.reset();
    times->emplace_back();
    engine = SetUpOnce(&inputs->triples, artifact, r + 1 == kSetups,
                       r == 0 ? on_first_build : nullptr, &times->back(),
                       rss_before_open_kb);
    if (engine == nullptr) return nullptr;
  }
  return engine;
}

void AddSetupLayers(const std::vector<SetupTimes>& times,
                    std::map<std::string, double>* layers) {
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return Median(v);
  };
  (*layers)["setup.encode_s"] = med(&SetupTimes::encode);
  (*layers)["setup.graph_s"] = med(&SetupTimes::graph);
  (*layers)["setup.index_s"] = med(&SetupTimes::index);
  (*layers)["setup.save_s"] = med(&SetupTimes::save);
  (*layers)["setup.open_s"] = med(&SetupTimes::open);
  (*layers)["setup.server_start_s"] = med(&SetupTimes::server_start);
}

double MedianSetup(const std::vector<SetupTimes>& times) {
  std::vector<double> totals;
  for (const SetupTimes& t : times) totals.push_back(t.total());
  return Median(totals);
}

std::string ArtifactPath(const Cli& cli, const WorkloadSpec& spec) {
  const std::string dir = cli.out.empty() ? "." : cli.out;
  return dir + "/amber_bench-" + spec.name + "-" +
         std::to_string(::getpid()) + ".amber";
}

WorkloadResult RunUntraced(const Cli& cli, const WorkloadSpec& spec,
                           const RunShape& shape) {
  WorkloadResult res;
  WorkloadInputs inputs = GenerateInputs(spec, cli.seed, shape);
  if (inputs.distinct.empty()) {
    std::fprintf(stderr, "%s: the data supports no query of the sizes\n",
                 spec.name);
    res.correct = false;
    res.attempted = res.failed = 1;
    return res;
  }
  const std::string mode = cli.smoke ? "smoke" : "full";
  const std::vector<ExpectedEntry> stored = LoadExpected(cli.expected);
  const ExpectedEntry* entry =
      FindExpected(stored, spec.name, cli.seed, mode, cli.seconds);
  if (entry != nullptr &&
      (entry->requests != inputs.list.size() ||
       entry->fingerprint != Hex64(inputs.fingerprint))) {
    std::fprintf(stderr,
                 "%s seed %llu: the generated request list does not match "
                 "%s (fingerprint %s, stored %s): the workload generator "
                 "changed\n",
                 spec.name, static_cast<unsigned long long>(cli.seed),
                 cli.expected.c_str(), Hex64(inputs.fingerprint).c_str(),
                 entry->fingerprint.c_str());
    res.aborted = true;
    return res;
  }
  const bool need_refs = entry == nullptr || cli.record_expected;
  const size_t triples = inputs.triples.size();
  const std::string artifact = ArtifactPath(cli, spec);

  std::map<uint32_t, uint64_t> refs;
  std::vector<SetupTimes> times;
  long rss_base_kb = 0;
  std::function<void(AmberEngine&)> compute_refs;
  if (need_refs) {
    compute_refs = [&](AmberEngine& fresh) {
      refs = ReferenceDigests(fresh, inputs.distinct,
                              AllIndices(inputs.distinct.size()), spec.kind);
    };
  }
  std::unique_ptr<AmberEngine> engine =
      SetUp(&inputs, artifact, compute_refs, &times, &rss_base_kb);
  if (engine == nullptr) {
    std::fprintf(stderr, "%s: set-up failed\n", spec.name);
    std::filesystem::remove(artifact);
    res.correct = false;
    res.attempted = res.failed = 1;
    return res;
  }
  const double artifact_bytes =
      static_cast<double>(std::filesystem::file_size(artifact));

  const Phases phases = RunPhases(engine.get(), spec, inputs);
  const std::vector<PhaseRecord>& cap = phases.capacity;
  const std::vector<PhaseRecord>& paced = phases.paced;
  engine.reset();
  std::filesystem::remove(artifact);
  // Answer checks: each request against its reference (or, for a stored
  // seed, the fold of all answers against the stored digest), and the
  // paced phase against the capacity phase request by request.
  std::vector<uint64_t> cap_digest(inputs.capacity_requests, 0);
  for (const PhaseRecord& p : cap) {
    std::copy(p.digest.begin(), p.digest.end(),
              cap_digest.begin() + static_cast<ptrdiff_t>(p.first));
  }
  const uint64_t fold = FoldDigests(cap_digest);
  auto count_failures = [&](const std::map<uint32_t, uint64_t>* against) {
    uint64_t failed = 0;
    std::optional<uint64_t> first_wrong;
    auto check = [&](const PhaseRecord& p, bool vs_capacity) {
      for (size_t i = 0; i < p.ok.size(); ++i) {
        const uint64_t id = p.first + i;
        bool bad = !p.ok[i];
        if (against != nullptr) {
          bad = bad || against->at(inputs.list[id]) != p.digest[i];
        }
        if (vs_capacity && id < cap_digest.size()) {
          bad = bad || p.digest[i] != cap_digest[id];
        }
        if (bad) {
          ++failed;
          if (!first_wrong || id < *first_wrong) first_wrong = id;
        }
      }
    };
    for (const PhaseRecord& p : cap) check(p, false);
    for (const PhaseRecord& p : paced) check(p, true);
    if (first_wrong) {
      const DistinctRequest& r = inputs.distinct[inputs.list[*first_wrong]];
      std::fprintf(stderr, "%s: first failed request id %llu: %s\n",
                   spec.name,
                   static_cast<unsigned long long>(*first_wrong),
                   r.body.c_str());
    }
    return failed;
  };
  res.attempted = inputs.capacity_requests +
                  (paced.empty() ? 0 : inputs.paced_requests);
  res.failed = count_failures(need_refs ? &refs : nullptr);
  if (!need_refs && Hex64(fold) != entry->digest) {
    std::fprintf(stderr,
                 "%s seed %llu: answer digest %s differs from stored %s; "
                 "re-executing serially on a freshly built engine\n",
                 spec.name, static_cast<unsigned long long>(cli.seed),
                 Hex64(fold).c_str(), entry->digest.c_str());
    std::vector<Triple> fresh_triples =
        GenerateTriples(spec, cli.seed, shape);
    Result<AmberEngine> fresh = AmberEngine::Build(fresh_triples);
    if (fresh.ok()) {
      refs = ReferenceDigests(*fresh, inputs.distinct,
                              AllIndices(inputs.distinct.size()), spec.kind);
      res.failed = count_failures(&refs);
    }
    res.correct = false;
  }
  res.correct = res.correct && res.failed == 0;
  if (cli.record_expected && res.correct) {
    std::vector<ExpectedEntry> entries = stored;
    std::erase_if(entries, [&](const ExpectedEntry& e) {
      return e.workload == spec.name && e.seed == cli.seed &&
             e.mode == mode && e.seconds == cli.seconds;
    });
    entries.push_back({spec.name, cli.seed, mode, cli.seconds,
                       inputs.list.size(), Hex64(inputs.fingerprint),
                       Hex64(fold)});
    if (!SaveExpected(cli.expected, entries)) {
      std::fprintf(stderr, "cannot write %s\n", cli.expected.c_str());
    }
  }

  // Phase statistics are medians over rounds (RunPhases in serve.h).
  auto over_rounds = [](const std::vector<PhaseRecord>& rounds,
                        const auto& stat) {
    std::vector<double> v;
    for (const PhaseRecord& p : rounds) v.push_back(stat(p));
    return Median(v);
  };
  auto samples = [](const std::vector<PhaseRecord>& rounds) {
    uint64_t n = 0;
    for (const PhaseRecord& p : rounds) n += p.latency_ms.size();
    return n;
  };
  const std::vector<PhaseRecord>& lat = paced.empty() ? cap : paced;
  // name -> (value, sample count; 0 for a value that is not a sample
  // statistic).
  const std::map<std::string, std::pair<double, uint64_t>> measured = {
      {"setup_s", {MedianSetup(times), kSetups}},
      {"qps", {over_rounds(cap,
                           [](const PhaseRecord& p) {
                             return static_cast<double>(p.ok.size()) /
                                    p.elapsed_s;
                           }),
               0}},
      {"p50_ms", {over_rounds(lat,
                              [](const PhaseRecord& p) {
                                return Percentile(p.latency_ms, 50);
                              }),
                  samples(lat)}},
      {"ttfp_p50_ms",
       {over_rounds(lat, [](const PhaseRecord& p) { return Median(p.ttfp_ms); }),
        samples(lat)}},
      {"artifact_bytes_per_triple",
       {artifact_bytes / static_cast<double>(triples), 0}},
      // The first round's: later rounds run on a heap that keeps
      // fragments of the services earlier rounds tore down.
      {"serve_rss_mb",
       {static_cast<double>(cap.front().rss_end_kb - rss_base_kb) / 1024, 0}},
  };
  for (const MetricDef& def : kEndToEnd) {
    const auto& [value, n] = measured.at(def.name);
    res.metrics.push_back({def.name, value, def.unit, n});
  }
  // Demoted by the repeatability rule (README.md, "Repeatability").
  res.extra["p99_ms"] = over_rounds(
      lat, [](const PhaseRecord& p) { return Percentile(p.latency_ms, 99); });
  res.extra["error_pct"] =
      100.0 * static_cast<double>(res.failed) /
      static_cast<double>(std::max<uint64_t>(res.attempted, 1));
  if (!paced.empty()) {
    res.extra["gen.late_p50_ms"] = over_rounds(
        paced, [](const PhaseRecord& p) { return Percentile(p.late_ms, 50); });
    res.extra["gen.late_p99_ms"] = over_rounds(
        paced, [](const PhaseRecord& p) { return Percentile(p.late_ms, 99); });
  }
  res.extra["capacity.p50_ms"] = over_rounds(
      cap, [](const PhaseRecord& p) { return Percentile(p.latency_ms, 50); });
  res.extra["capacity.p99_ms"] = over_rounds(
      cap, [](const PhaseRecord& p) { return Percentile(p.latency_ms, 99); });
  uint64_t hits = 0, misses = 0, evictions = 0, bytes_out = 0;
  for (const PhaseRecord& p : cap) {
    hits += p.cache_hits;
    misses += p.cache_misses;
    evictions += p.cache_evictions;
    bytes_out += p.bytes_out;
  }
  res.extra["server.cache.hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  res.extra["server.cache.evictions_per_req"] =
      static_cast<double>(evictions) /
      static_cast<double>(inputs.capacity_requests);
  res.extra["server.http.bytes_out_per_req"] =
      static_cast<double>(bytes_out) /
      static_cast<double>(inputs.capacity_requests);
  res.extra["triples"] = static_cast<double>(triples);

  json::Writer& d = res.details;
  d.BeginObject();
  d.KV("list_fingerprint", Hex64(inputs.fingerprint));
  d.KV("answer_digest", Hex64(fold));
  d.KV("distinct_requests", static_cast<uint64_t>(inputs.distinct.size()));
  d.KV("capacity_requests", inputs.capacity_requests);
  d.KV("paced_requests", paced.empty() ? uint64_t{0} : inputs.paced_requests);
  auto per_round = [&](const char* key, const std::vector<PhaseRecord>& rs,
                       const auto& stat) {
    d.Key(key);
    d.BeginArray();
    for (const PhaseRecord& p : rs) d.Double(stat(p));
    d.EndArray();
  };
  per_round("capacity_round_qps", cap, [](const PhaseRecord& p) {
    return static_cast<double>(p.ok.size()) / p.elapsed_s;
  });
  per_round("latency_round_p50_ms", lat, [](const PhaseRecord& p) {
    return Percentile(p.latency_ms, 50);
  });
  per_round("latency_round_p99_ms", lat, [](const PhaseRecord& p) {
    return Percentile(p.latency_ms, 99);
  });
  per_round("capacity_round_rss_mb", cap, [&](const PhaseRecord& p) {
    return static_cast<double>(p.rss_end_kb - rss_base_kb) / 1024;
  });
  d.KV("warm_requests", static_cast<uint64_t>(inputs.warm.size()));
  d.KV("guard", need_refs ? "references" : "stored digest");
  d.EndObject();
  return res;
}

WorkloadResult RunTracedWorkload(const Cli& cli, const WorkloadSpec& spec,
                                 const RunShape& shape) {
  WorkloadResult res;
  WorkloadInputs inputs = GenerateInputs(spec, cli.seed, shape);
  if (inputs.distinct.empty()) {
    res.correct = false;
    res.attempted = res.failed = 1;
    return res;
  }
  const uint64_t n = std::min<uint64_t>(
      static_cast<uint64_t>(spec.trace_prefix), inputs.list.size());
  std::vector<uint32_t> prefix_distinct(inputs.list.begin(),
                                        inputs.list.begin() + n);
  std::sort(prefix_distinct.begin(), prefix_distinct.end());
  prefix_distinct.erase(
      std::unique(prefix_distinct.begin(), prefix_distinct.end()),
      prefix_distinct.end());

  const std::string artifact = ArtifactPath(cli, spec);
  std::map<uint32_t, uint64_t> refs;
  std::vector<SetupTimes> times;
  long rss_base_kb = 0;
  std::unique_ptr<AmberEngine> engine = SetUp(
      &inputs, artifact,
      [&](AmberEngine& fresh) {
        refs = ReferenceDigests(fresh, inputs.distinct, prefix_distinct,
                                spec.kind);
      },
      &times, &rss_base_kb);
  if (engine == nullptr) {
    std::filesystem::remove(artifact);
    res.correct = false;
    res.attempted = res.failed = 1;
    return res;
  }
  TraceRecord rec = RunTraced(engine.get(), spec, inputs, n, refs);
  engine.reset();
  std::filesystem::remove(artifact);

  std::map<std::string, double> layers = rec.metrics;
  AddSetupLayers(times, &layers);
  for (const MetricDef& def : kPerLayer) {
    res.metrics.push_back({def.name, layers.at(def.name), def.unit, 0});
  }
  for (const auto& [name, value] : layers) {
    const bool listed =
        std::any_of(kPerLayer.begin(), kPerLayer.end(),
                    [&](const MetricDef& d) { return name == d.name; });
    if (!listed) res.extra[name] = value;
  }
  res.attempted = 2 * n;
  res.failed = rec.failed;
  res.correct = rec.failed == 0;
  res.extra["serialize_mismatches"] =
      static_cast<double>(rec.serialize_mismatches);

  json::Writer& d = res.details;
  d.BeginObject();
  d.KV("traced_requests", n);
  d.Key("spans");
  d.BeginObject();
  for (const auto& [name, s] : rec.spans) {
    d.Key(name);
    d.BeginObject();
    d.KV("count", s.count);
    d.KV("p50_us", s.p50_us);
    d.KV("self_p50_us", s.self_p50_us);
    d.KV("total_ms", s.total_ms);
    d.KV("self_total_ms", s.self_total_ms);
    d.EndObject();
  }
  d.EndObject();
  d.EndObject();
  if (!cli.out.empty()) {
    const std::string path =
        cli.out + "/" + spec.name + ".trace.json";
    if (!rec.store.WriteChromeTrace(path, kTraceFileRequests)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  return res;
}

void PrintTable(const WorkloadSpec& spec, const Cli& cli,
                const WorkloadResult& res) {
  std::printf("== %s  (seed %llu, %s%s) ==\n", spec.name,
              static_cast<unsigned long long>(cli.seed),
              cli.trace ? "traced" : "untraced", cli.smoke ? ", smoke" : "");
  for (const Metric& m : res.metrics) {
    if (m.samples > 0) {
      std::printf("  %-38s %14.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& [name, value] : res.extra) {
    std::printf("  %-38s %14.4f (not a regression metric)\n", name.c_str(),
                value);
  }
  std::printf("  answers: %llu attempted, %llu failed -> %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.correct ? "correct" : "WRONG");
}

void WriteResultFile(const Cli& cli, const WorkloadSpec& spec,
                     WorkloadResult& res) {
  json::Writer w;
  w.BeginObject();
  w.KV("workload", spec.name);
  w.KV("seed", cli.seed);
  w.KV("seconds", cli.seconds);
  w.KV("trace", cli.trace);
  w.KV("smoke", cli.smoke);
  w.KV("correct", res.correct);
  w.KV("attempted", res.attempted);
  w.KV("failed", res.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : res.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    if (m.samples > 0) w.KV("samples", m.samples);
    w.EndObject();
  }
  w.EndObject();
  w.Key("extra");
  w.BeginObject();
  for (const auto& [name, value] : res.extra) w.KV(name, value);
  w.EndObject();
  std::string out = w.Take();
  // The outer object is still open: append the details object and close.
  const std::string& details = res.details.str();
  out += ",\"details\":" + (details.empty() ? std::string("{}") : details) +
         "}";
  const std::string path = cli.out + "/" + spec.name +
                           (cli.trace ? ".traced.json" : ".json");
  std::ofstream os(path);
  os << out << "\n";
  if (!os) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: amber_bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--expected PATH] [--record-expected] [--selftest]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--workload" && (v = next())) {
      cli.workload = v;
    } else if (a == "--seed" && (v = next())) {
      cli.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      cli.seconds = std::atof(v);
    } else if (a == "--trace") {
      cli.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                           std::string(argv[i + 1]) == "1")) {
        cli.trace = std::string(argv[++i]) == "1";
      }
    } else if (a == "--out" && (v = next())) {
      cli.out = v;
    } else if (a == "--expected" && (v = next())) {
      cli.expected = v;
    } else if (a == "--smoke") {
      cli.smoke = true;
    } else if (a == "--record-expected") {
      cli.record_expected = true;
    } else if (a == "--selftest") {
      cli.selftest = true;
    } else {
      return Usage();
    }
  }
  if (cli.selftest) return RunSelfTest() == 0 ? 0 : 1;
  if (!(cli.seconds > 0)) return Usage();

  std::vector<const WorkloadSpec*> specs;
  if (cli.workload == "all") {
    for (const WorkloadSpec& w : Workloads()) specs.push_back(&w);
  } else if (const WorkloadSpec* w = FindWorkload(cli.workload)) {
    specs.push_back(w);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", cli.workload.c_str());
    return Usage();
  }
  RunShape shape;
  if (cli.smoke) {
    shape.scale_factor = 0.05;
    shape.pool_factor = 0.1;
    cli.seconds = 1;
  }
  shape.seconds = cli.seconds;
  if (!cli.out.empty()) std::filesystem::create_directories(cli.out);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  json::Writer metrics;
  metrics.BeginObject();
  for (const WorkloadSpec* spec : specs) {
    std::fprintf(stderr, "[amber_bench] %s seed %llu%s%s\n", spec->name,
                 static_cast<unsigned long long>(cli.seed),
                 cli.trace ? " traced" : "", cli.smoke ? " smoke" : "");
    WorkloadResult res = cli.trace ? RunTracedWorkload(cli, *spec, shape)
                                   : RunUntraced(cli, *spec, shape);
    if (res.aborted) return 2;
    PrintTable(*spec, cli, res);
    if (!cli.out.empty()) WriteResultFile(cli, *spec, res);
    correct = correct && res.correct;
    attempted += res.attempted;
    failed += res.failed;
    for (const Metric& m : res.metrics) {
      metrics.Key(specs.size() == 1 ? m.name
                                    : std::string(spec->name) + "." + m.name);
      metrics.BeginObject();
      metrics.KV("value", m.value);
      metrics.KV("unit", m.unit);
      metrics.EndObject();
    }
  }
  metrics.EndObject();
  json::Writer line;
  line.BeginObject();
  line.KV("correct", correct);
  line.KV("attempted", attempted);
  line.KV("failed", failed);
  line.EndObject();
  std::string out = line.Take();
  out.pop_back();  // reopen the object to append the metrics
  out += ",\"metrics\":" + metrics.str() + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace amber::bench

int main(int argc, char** argv) { return amber::bench::Main(argc, argv); }
