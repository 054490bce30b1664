#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "gen/lubm.h"
#include "gen/scale_free.h"
#include "measure.h"
#include "util/json.h"
#include "util/random.h"

namespace amber::bench {

namespace {

/// Derives an independent stream seed from the run seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull ^ salt);
  return rng.Next();
}

/// Generation seed of the frozen-pool workloads.
constexpr uint64_t kFrozenSeed = 1;

uint64_t GenerationSeed(const WorkloadSpec& spec, uint64_t seed) {
  return spec.frozen_pool ? kFrozenSeed : seed;
}

// Sizes, rates and prefixes below are frozen: the README explains each
// choice, and a change to any of them is a change of workload.
const std::vector<WorkloadSpec> kWorkloads = {
    // The paper's Table 1 traffic: one caller waiting on big complex
    // count queries; the matcher recursion dominates.
    {.name = "bigq-complex",
     .dataset = "DBPEDIA",
     .scale = 1.0,
     .shape = QueryShape::kComplex,
     .sizes = {30, 40, 50},
     .distinct_queries = 600,
     .kind = RequestKind::kCount,
     .limit = 1000,
     .clients = 1,
     .rounds = 1,
     .thread_budget = 4,
     .nominal_qps = 150,
     .trace_prefix = 150,
     .frozen_pool = true,
     .excluded_queries = {534}},
    // Star pages that all fit the 64-entry cache: HTTP, wire and the
    // cache-hit path are nearly all the work.
    {.name = "hot-star",
     .dataset = "LUBM",
     .scale = 4.0,
     .shape = QueryShape::kStar,
     .sizes = {6},
     .distinct_queries = 48,
     .variables_only = true,
     .kind = RequestKind::kPage,
     .offsets = {0, 20, 40},
     .limit = 20,
     .zipf = 1.1,
     .clients = 4,
     .rounds = 12,
     .nominal_qps = 45000,
     .paced_qps = 20000,
     .trace_prefix = 3000},
    // Distinct star pages far beyond the cache: every request misses,
    // inserts and evicts; CandInit and translation dominate.
    {.name = "unique-star",
     .dataset = "YAGO",
     .scale = 2.0,
     .shape = QueryShape::kStar,
     .sizes = {8, 10, 12},
     .distinct_queries = 2000,
     .kind = RequestKind::kPage,
     .offsets = {0},
     .limit = 20,
     .clients = 4,
     .rounds = 10,
     .nominal_qps = 3000,
     .paced_qps = 1500,
     .trace_prefix = 400},
    // Bulk NDJSON export of satellite-heavy stars: cross-product
    // emission, translation and serialization; the cache is bypassed.
    {.name = "fanout-stream",
     .dataset = "DBPEDIA",
     .scale = 2.0,
     .shape = QueryShape::kStar,
     .sizes = {6},
     .distinct_queries = 300,
     .satellite_fanout = 2,
     .kind = RequestKind::kStream,
     .limit = 10000,
     .clients = 2,
     .rounds = 8,
     .nominal_qps = 900,
     .trace_prefix = 150,
     .frozen_pool = true},
};

std::string RequestBody(const DistinctRequest& r) {
  json::Writer w;
  w.BeginObject();
  w.KV("query", r.query);
  if (r.count_only) w.KV("count_only", true);
  if (r.thread_budget > 0) {
    w.KV("thread_budget", static_cast<uint64_t>(r.thread_budget));
  }
  if (r.offset > 0) w.KV("offset", r.offset);
  if (r.limit > 0) w.KV("limit", r.limit);
  w.EndObject();
  return w.Take();
}

/// `count` queries cycling over spec.sizes (query i has size
/// sizes[i % n]), generated from `salt`-derived seeds.
std::vector<std::string> GenerateQueries(const WorkloadGenerator& gen,
                                         const WorkloadSpec& spec,
                                         uint64_t seed, uint64_t salt,
                                         int count) {
  const size_t n = spec.sizes.size();
  std::vector<std::vector<std::string>> per_size(n);
  for (size_t j = 0; j < n; ++j) {
    WorkloadOptions o;
    o.seed = Mix(seed, salt + j);
    o.query_size = spec.sizes[j];
    o.count = static_cast<int>((static_cast<size_t>(count) + n - 1 - j) / n);
    o.satellite_fanout = spec.satellite_fanout;
    if (spec.variables_only) {
      o.literal_fraction = 0;
      o.constant_iri_probability = 0;
    }
    per_size[j] = gen.Generate(spec.shape, o);
  }
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < static_cast<size_t>(count); ++i) {
    bool any = false;
    for (size_t j = 0; j < n; ++j) {
      if (i < per_size[j].size()) {
        out.push_back(std::move(per_size[j][i]));
        any = true;
      }
    }
    if (!any) break;
  }
  out.resize(std::min(out.size(), static_cast<size_t>(count)));
  return out;
}

std::vector<DistinctRequest> ToRequests(const WorkloadSpec& spec,
                                        const std::vector<std::string>& qs) {
  std::vector<DistinctRequest> out;
  for (const std::string& q : qs) {
    DistinctRequest r;
    r.query = q;
    r.thread_budget = spec.thread_budget > 1 ? spec.thread_budget : 0;
    switch (spec.kind) {
      case RequestKind::kCount:
        // The count stops at the query's LIMIT (the first `limit` answers).
        if (spec.limit > 0) r.query += " LIMIT " + std::to_string(spec.limit);
        r.count_only = true;
        out.push_back(r);
        break;
      case RequestKind::kStream:
        r.limit = spec.limit;
        out.push_back(r);
        break;
      case RequestKind::kPage:
        for (uint64_t offset : spec.offsets) {
          r.offset = offset;
          r.limit = spec.limit;
          out.push_back(r);
        }
        break;
    }
  }
  for (DistinctRequest& r : out) r.body = RequestBody(r);
  return out;
}

/// `n` draws over `d` distinct requests: Zipf(zipf) over a seeded rank
/// order, or a seeded order cycled.
std::vector<uint32_t> DrawList(size_t d, uint64_t n, double zipf, Rng* rng) {
  std::vector<uint32_t> order(d);
  for (size_t i = 0; i < d; ++i) order[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&order);
  std::vector<uint32_t> list(n);
  if (zipf > 0) {
    ZipfSampler sampler(d, zipf);
    for (uint64_t i = 0; i < n; ++i) list[i] = order[sampler.Sample(rng)];
  } else {
    for (uint64_t i = 0; i < n; ++i) list[i] = order[i % d];
  }
  return list;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<Triple> GenerateTriples(const WorkloadSpec& spec, uint64_t seed,
                                    const RunShape& shape) {
  const double scale = spec.scale * shape.scale_factor;
  const uint64_t gen_seed = Mix(GenerationSeed(spec, seed), 1);
  if (std::string_view(spec.dataset) == "LUBM") {
    LubmOptions o;
    o.universities = std::max(1, static_cast<int>(std::lround(scale)));
    o.seed = gen_seed;
    return GenerateLubm(o);
  }
  ScaleFreeOptions o = std::string_view(spec.dataset) == "DBPEDIA"
                           ? DbpediaProfile(scale)
                           : YagoProfile(scale);
  o.seed = gen_seed;
  return GenerateScaleFree(o);
}

WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              const RunShape& shape) {
  WorkloadInputs in;
  in.triples = GenerateTriples(spec, seed, shape);
  const WorkloadGenerator gen(in.triples);

  const uint64_t gen_seed = GenerationSeed(spec, seed);
  const int pool = std::max(
      1, static_cast<int>(std::lround(spec.distinct_queries * shape.pool_factor)));
  std::vector<std::string> queries =
      GenerateQueries(gen, spec, gen_seed, 100, pool);
  if (spec.frozen_pool && shape.pool_factor == 1.0) {
    for (auto it = spec.excluded_queries.rbegin();
         it != spec.excluded_queries.rend(); ++it) {
      if (*it < static_cast<int>(queries.size())) {
        queries.erase(queries.begin() + *it);
      }
    }
  }
  if (queries.empty()) return in;
  in.distinct = ToRequests(spec, queries);

  // The warm pool: more queries than the cache holds (so cycling it
  // misses like the measured traffic), none of them a measured query.
  const std::unordered_set<std::string> measured(queries.begin(),
                                                 queries.end());
  std::vector<std::string> warm_queries;
  for (std::string& q :
       GenerateQueries(gen, spec, gen_seed, 200, std::min(pool, 96))) {
    if (measured.count(q) == 0) warm_queries.push_back(std::move(q));
  }
  const std::vector<DistinctRequest> warm_distinct =
      ToRequests(spec, warm_queries);

  in.capacity_requests = static_cast<uint64_t>(std::llround(
      spec.nominal_qps * shape.seconds * (spec.paced_qps > 0 ? 0.5 : 1.0)));
  in.paced_requests = static_cast<uint64_t>(
      std::llround(spec.paced_qps * shape.seconds * 0.5));
  if (spec.zipf == 0) {
    const uint64_t d = in.distinct.size();
    in.capacity_requests =
        std::max<uint64_t>(1, (in.capacity_requests + d / 2) / d) * d;
  }

  Rng rng(Mix(seed, 300));
  in.list = DrawList(in.distinct.size(),
                     std::max(in.capacity_requests, in.paced_requests),
                     spec.zipf, &rng);
  if (!warm_distinct.empty()) {
    const uint64_t warm_n = std::clamp<uint64_t>(
        static_cast<uint64_t>(0.002 * shape.seconds * spec.nominal_qps),
        8 * static_cast<uint64_t>(spec.clients), 200);
    for (uint32_t i :
         DrawList(warm_distinct.size(), warm_n, spec.zipf, &rng)) {
      in.warm.push_back(warm_distinct[i]);
    }
  }

  uint64_t h = kFnvOffset;
  for (const DistinctRequest& r : in.distinct) h = Fnv(h, r.body);
  h = Fnv(h, std::string_view(reinterpret_cast<const char*>(in.list.data()),
                              in.list.size() * sizeof(uint32_t)));
  in.fingerprint = h;
  return in;
}

}  // namespace amber::bench
