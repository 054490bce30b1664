// Micro-benchmarks (google-benchmark) for the three index structures and
// the hot-path intersection kernels: R-tree dominance query vs a constant
// list filtered by dominance vs full synopsis scan, OTIL superset query vs
// adjacency-group scan vs per-candidate Contains probes, attribute-list
// intersection, and the merge/gallop/k-way kernels of util/intersect.h
// against the naive std::set_intersection baseline. These quantify the
// per-operation speedups that the ablation and figure benches observe
// end-to-end.
//
// With AMBER_BENCH_JSON_DIR set, results are additionally written to
// $AMBER_BENCH_JSON_DIR/BENCH_micro_index.json (google-benchmark's JSON
// format — the micro-op counterpart of the harness's BENCH_*.json files).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gen/scale_free.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "rdf/encoded_dataset.h"
#include "util/intersect.h"
#include "util/random.h"

namespace amber {
namespace {

struct Fixture {
  Multigraph graph;
  IndexSet indexes;
  std::vector<Synopsis> synopses;

  static const Fixture& Get() {
    static Fixture* fixture = [] {
      auto* f = new Fixture();
      ScaleFreeOptions options;
      options.seed = 7;
      options.num_entities = 20000;
      options.num_edge_triples = 60000;
      options.num_predicates = 44;
      auto triples = GenerateScaleFree(options);
      auto encoded = EncodedDataset::Encode(triples);
      f->graph = Multigraph::FromDataset(*encoded);
      f->indexes =
          IndexSet::Build(f->graph, encoded->attribute_values,
                          encoded->dictionaries.attr_predicates().size());
      f->synopses = ComputeAllSynopses(f->graph);
      return f;
    }();
    return *fixture;
  }
};

Synopsis QueryFor(const Fixture& f, uint64_t i) {
  // A real vertex's synopsis, weakened: guarantees non-empty results.
  Synopsis q = f.synopses[i % f.synopses.size()];
  for (int k = 0; k < Synopsis::kNumFields; ++k) {
    q.f[k] = std::max(0, q.f[k] - 1);
  }
  return q.NormalizedForQuery();
}

void BM_RTreeDominance(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  uint64_t i = 0;
  std::vector<VertexId> out;
  for (auto _ : state) {
    out = f.indexes.signature.Candidates(QueryFor(f, i++));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeDominance);

// The constant-seeded side of CandInit (core/matcher.cc): an anchor's
// constant list — a hub's SupersetNeighbors list, built once outside the
// timed loop — filtered by the dominance test the R-tree applies, over the
// same QueryFor synopses as BM_RTreeDominance.
void BM_ConstantSeededDominance(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const std::vector<EdgeTypeId> types = {1};
  std::vector<std::vector<VertexId>> lists;
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    if (f.graph.GroupCount(v, Direction::kIn) <= 50) continue;
    std::vector<VertexId> list;
    f.indexes.neighborhood.SupersetNeighbors(v, Direction::kIn, types, &list);
    if (!list.empty()) lists.push_back(std::move(list));
  }
  if (lists.empty()) lists.push_back({0});
  uint64_t i = 0;
  std::vector<VertexId> out;
  for (auto _ : state) {
    const Synopsis q = QueryFor(f, i);
    const std::vector<VertexId>& list = lists[i++ % lists.size()];
    out.clear();
    for (VertexId v : list) {
      if (f.indexes.signature.Of(v).Dominates(q)) out.push_back(v);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ConstantSeededDominance);

void BM_FullSynopsisScan(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  uint64_t i = 0;
  std::vector<VertexId> out;
  for (auto _ : state) {
    Synopsis q = QueryFor(f, i++);
    out.clear();
    for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
      if (f.synopses[v].Dominates(q)) out.push_back(v);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FullSynopsisScan);

void BM_OtilSuperset(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  Rng rng(3);
  std::vector<VertexId> out;
  // Pre-pick high-degree vertices so the query does real work.
  std::vector<VertexId> hubs;
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    if (f.graph.GroupCount(v, Direction::kIn) > 50) hubs.push_back(v);
  }
  if (hubs.empty()) hubs.push_back(0);
  uint64_t i = 0;
  std::vector<EdgeTypeId> types = {1};
  for (auto _ : state) {
    out.clear();
    f.indexes.neighborhood.SupersetNeighbors(hubs[i++ % hubs.size()],
                                             Direction::kIn, types, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OtilSuperset);

void BM_AdjacencyScanSuperset(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  std::vector<VertexId> hubs;
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    if (f.graph.GroupCount(v, Direction::kIn) > 50) hubs.push_back(v);
  }
  if (hubs.empty()) hubs.push_back(0);
  uint64_t i = 0;
  std::vector<EdgeTypeId> types = {1};
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    VertexId v = hubs[i++ % hubs.size()];
    const size_t n = f.graph.GroupCount(v, Direction::kIn);
    for (size_t g = 0; g < n; ++g) {
      GroupView view = f.graph.Group(v, Direction::kIn, g);
      if (std::binary_search(view.types.begin(), view.types.end(),
                             types[0])) {
        out.push_back(view.neighbor);
      }
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AdjacencyScanSuperset);

void BM_AttributeIntersection(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  uint64_t i = 0;
  const size_t num_attrs = f.indexes.attribute.NumAttributes();
  for (auto _ : state) {
    std::vector<AttributeId> attrs = {
        static_cast<AttributeId>(i % num_attrs),
        static_cast<AttributeId>((i * 7 + 1) % num_attrs)};
    if (attrs[0] > attrs[1]) std::swap(attrs[0], attrs[1]);
    auto out = f.indexes.attribute.Candidates(attrs);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AttributeIntersection);

void BM_MultigraphEdgeLookup(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  Rng rng(11);
  const size_t n = f.graph.NumVertices();
  for (auto _ : state) {
    VertexId a = static_cast<VertexId>(rng.Uniform(n));
    VertexId b = static_cast<VertexId>(rng.Uniform(n));
    benchmark::DoNotOptimize(f.graph.MultiEdge(a, Direction::kOut, b));
  }
}
BENCHMARK(BM_MultigraphEdgeLookup);

// --- Intersection kernels (util/intersect.h) -------------------------------
// Args: {|short list|, skew} — the long list is |short| * skew. Covers the
// balanced case (merge wins) and hub-vs-selective skews (galloping wins).

std::vector<VertexId> MakeSortedList(Rng* rng, size_t size,
                                     uint64_t universe) {
  std::vector<VertexId> out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(static_cast<VertexId>(rng->Uniform(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

struct ListPair {
  std::vector<VertexId> a, b;
};

ListPair MakePair(size_t short_size, size_t skew) {
  Rng rng(short_size * 31 + skew);
  const size_t long_size = short_size * skew;
  ListPair p;
  p.a = MakeSortedList(&rng, short_size, long_size * 2 + 16);
  p.b = MakeSortedList(&rng, long_size, long_size * 2 + 16);
  return p;
}

void BM_IntersectNaiveBaseline(benchmark::State& state) {
  // The seed's copy-based kernel: std::set_intersection into a vector.
  const ListPair p = MakePair(static_cast<size_t>(state.range(0)),
                              static_cast<size_t>(state.range(1)));
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    std::set_intersection(p.a.begin(), p.a.end(), p.b.begin(), p.b.end(),
                          std::back_inserter(out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * (p.a.size() + p.b.size())));
}
BENCHMARK(BM_IntersectNaiveBaseline)
    ->Args({1024, 1})
    ->Args({128, 64})
    ->Args({64, 1000});

void BM_IntersectAdaptive(benchmark::State& state) {
  // The hot-path kernel: linear merge below kGallopSkewRatio, galloping
  // above it, writing into a reused buffer.
  const ListPair p = MakePair(static_cast<size_t>(state.range(0)),
                              static_cast<size_t>(state.range(1)));
  std::vector<VertexId> out;
  for (auto _ : state) {
    out.clear();
    IntersectSortedAppend(std::span<const VertexId>(p.a),
                          std::span<const VertexId>(p.b), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * (p.a.size() + p.b.size())));
}
BENCHMARK(BM_IntersectAdaptive)
    ->Args({1024, 1})
    ->Args({128, 64})
    ->Args({64, 1000});

void BM_IntersectKWayGallop(benchmark::State& state) {
  // Leapfrog over one selective and three hub-sized lists.
  Rng rng(99);
  std::vector<std::vector<VertexId>> lists;
  lists.push_back(MakeSortedList(&rng, 64, 40000));
  for (int i = 0; i < 3; ++i) {
    lists.push_back(MakeSortedList(&rng, 20000, 40000));
  }
  std::vector<std::span<const VertexId>> views;
  for (const auto& l : lists) views.emplace_back(l.data(), l.size());
  std::vector<const VertexId*> cursors;
  std::vector<VertexId> out;
  for (auto _ : state) {
    IntersectKWay(std::span<const std::span<const VertexId>>(views), &cursors,
                  &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IntersectKWayGallop);

// --- Probe-without-materialize vs materialize-then-search ------------------
// The matcher's cutover in one micro-op: test 32 candidates against a hub's
// neighbourhood either by materializing + binary-searching the hub list or
// by per-candidate OTIL Contains probes from the candidates' small tries.

// Shared setup so the pair stays comparable: high-degree hubs, 32 random
// candidates to test against each hub's in-neighbourhood, one edge type.
struct ProbeFixture {
  std::vector<VertexId> hubs;
  std::vector<VertexId> candidates;
  std::vector<EdgeTypeId> types = {1};
};

ProbeFixture MakeProbeFixture(const Fixture& f) {
  ProbeFixture p;
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    if (f.graph.GroupCount(v, Direction::kIn) > 50) p.hubs.push_back(v);
  }
  if (p.hubs.empty()) p.hubs.push_back(0);
  Rng rng(17);
  for (int i = 0; i < 32; ++i) {
    p.candidates.push_back(
        static_cast<VertexId>(rng.Uniform(f.graph.NumVertices())));
  }
  return p;
}

void BM_OtilMaterializeThenSearch(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const ProbeFixture p = MakeProbeFixture(f);
  std::vector<VertexId> list;
  uint64_t i = 0;
  for (auto _ : state) {
    list.clear();
    f.indexes.neighborhood.SupersetNeighbors(p.hubs[i++ % p.hubs.size()],
                                             Direction::kIn, p.types, &list);
    int hits = 0;
    for (VertexId c : p.candidates) {
      hits += std::binary_search(list.begin(), list.end(), c) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OtilMaterializeThenSearch);

void BM_OtilContainsProbe(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const ProbeFixture p = MakeProbeFixture(f);
  NeighborhoodIndex::Scratch scratch;
  uint64_t i = 0;
  for (auto _ : state) {
    const VertexId hub = p.hubs[i++ % p.hubs.size()];
    int hits = 0;
    for (VertexId c : p.candidates) {
      // Probed from the candidate's side, as the matcher does: the edge
      // c --types--> hub is outgoing from c.
      hits += f.indexes.neighborhood.Contains(c, Direction::kOut, p.types,
                                              hub, &scratch)
                  ? 1
                  : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_OtilContainsProbe);

}  // namespace
}  // namespace amber

// BENCHMARK_MAIN, plus the repo's BENCH_*.json convention: when
// AMBER_BENCH_JSON_DIR is set (and no explicit --benchmark_out is given),
// emit google-benchmark's JSON there as BENCH_micro_index.json.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  const char* dir = std::getenv("AMBER_BENCH_JSON_DIR");
  if (dir != nullptr && *dir != '\0' && !has_out) {
    out_flag =
        std::string("--benchmark_out=") + dir + "/BENCH_micro_index.json";
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
