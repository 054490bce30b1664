// CandInit against a brute-force reference. Every core vertex of every
// component is made the plan's first vertex in turn, and
// Matcher::ComputeRootCandidates() must return exactly the vertices a scan
// over the whole graph keeps: those whose synopsis dominates the query
// vertex's and that satisfy its attributes, IRI anchors, self-loops and
// FILTERs — in ascending id order. Whichever source seeds the list (the
// constant lists, the R-tree, or the ablation-B synopsis scan), the answer
// must be this one. Dominance only prunes, so the answer-level
// differential suites would not notice a seeding that skipped it; this
// test does.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/amber_engine.h"
#include "core/matcher.h"
#include "gen/scale_free.h"
#include "gen/workload.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "test_util.h"

namespace amber {
namespace {

/// A scale-free graph with numeric attributes, plus a handcrafted ring of
/// 100 `urn:s<i>` vertices: each links to `urn:hub`, carries `urn:val i`,
/// points to its successor, every third has a `urn:self` self-loop and
/// every second a `urn:tag "even"` attribute.
std::vector<Triple> Dataset() {
  ScaleFreeOptions options;
  options.seed = 41;
  options.num_entities = 600;
  options.num_edge_triples = 4000;
  options.num_predicates = 20;
  options.attr_fraction = 0.4;
  options.num_literal_values = 40;
  options.numeric_attr_fraction = 0.6;
  options.num_numeric_predicates = 4;
  options.numeric_value_range = 300;
  std::vector<Triple> data = GenerateScaleFree(options);

  constexpr int kRing = 100;
  auto s = [](int i) { return Term::Iri("urn:s" + std::to_string(i)); };
  for (int i = 0; i < kRing; ++i) {
    data.emplace_back(s(i), Term::Iri("urn:link"), Term::Iri("urn:hub"));
    data.emplace_back(
        s(i), Term::Iri("urn:val"),
        Term::Literal(std::to_string(i),
                      "http://www.w3.org/2001/XMLSchema#integer"));
    data.emplace_back(s(i), Term::Iri("urn:to"), s((i + 1) % kRing));
    if (i % 3 == 0) data.emplace_back(s(i), Term::Iri("urn:self"), s(i));
    if (i % 2 == 0) {
      data.emplace_back(s(i), Term::Iri("urn:tag"), Term::Literal("even"));
    }
  }
  return data;
}

/// Generated star and complex queries (IRIs, literals, narrow and wide
/// FILTERs) plus handcrafted roots over the ring.
std::vector<std::string> Queries(const std::vector<Triple>& data) {
  std::vector<std::string> out = {
      // A self-loop root without constants.
      "SELECT ?w ?x ?y WHERE { ?w <urn:to> ?x . ?x <urn:to> ?y . "
      "?x <urn:self> ?x . }",
      // A self-loop beside an anchor.
      "SELECT ?w ?x ?y WHERE { ?w <urn:to> ?x . ?x <urn:to> ?y . "
      "?x <urn:self> ?x . ?x <urn:link> <urn:hub> . }",
      // A residual (wide) FILTER beside an anchor.
      "SELECT ?w ?x ?y WHERE { ?w <urn:to> ?x . ?x <urn:to> ?y . "
      "?x <urn:link> <urn:hub> . ?x <urn:val> ?v . FILTER(?v >= 0) }",
      // A pushed (narrow) FILTER alone.
      "SELECT ?w ?x ?y WHERE { ?w <urn:to> ?x . ?x <urn:to> ?y . "
      "?x <urn:val> ?v . FILTER(?v >= 3 && ?v <= 40) }",
      // Attribute, anchor and self-loop together.
      "SELECT ?w ?x ?y WHERE { ?w <urn:to> ?x . ?x <urn:to> ?y . "
      "?x <urn:tag> \"even\" . ?x <urn:link> <urn:hub> . "
      "?x <urn:self> ?x . }",
      // Two components: an anchored chain and a self-loop star.
      "SELECT ?x ?z ?a ?b WHERE { ?x <urn:link> <urn:hub> . "
      "?x <urn:to> ?y . ?y <urn:to> ?z . ?c <urn:to> ?a . "
      "?a <urn:self> ?a . ?a <urn:to> ?b . }",
  };
  WorkloadGenerator gen(data);
  for (double selectivity : {0.02, 0.6}) {
    WorkloadOptions options;
    options.seed = 5;
    options.count = 15;
    options.literal_fraction = 0.3;
    options.constant_iri_probability = 0.3;
    options.filter_probability = 0.5;
    options.filter_selectivity = selectivity;
    options.query_size = 6;
    for (std::string& q : gen.Generate(QueryShape::kStar, options)) {
      out.push_back(std::move(q));
    }
    options.query_size = 8;
    for (std::string& q : gen.Generate(QueryShape::kComplex, options)) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

/// The vertices CandInit must return for `u`, by a scan over every vertex.
std::vector<VertexId> ReferenceCandInit(const AmberEngine& engine,
                                        const QueryGraph& q, uint32_t u) {
  const Multigraph& g = engine.graph();
  const IndexSet& indexes = engine.indexes();
  const QueryVertex& qv = q.vertices()[u];
  const Synopsis syn = q.VertexSynopsis(u);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!indexes.signature.Of(v).Dominates(syn)) continue;
    const std::span<const AttributeId> attrs = g.Attributes(v);
    bool keep = std::includes(attrs.begin(), attrs.end(), qv.attrs.begin(),
                              qv.attrs.end());
    for (const IriConstraint& c : qv.iris) {
      if (!c.out_types.empty()) {
        keep = keep && indexes.neighborhood.Contains(v, Direction::kOut,
                                                     c.out_types, c.anchor);
      }
      if (!c.in_types.empty()) {
        keep = keep && indexes.neighborhood.Contains(v, Direction::kIn,
                                                     c.in_types, c.anchor);
      }
    }
    if (!qv.self_types.empty()) {
      keep = keep &&
             g.HasMultiEdgeSuperset(v, Direction::kOut, v, qv.self_types);
    }
    for (const PredicateConstraint& pc : qv.preds) {
      keep = keep && indexes.value.VertexMatches(attrs, pc.predicate,
                                                 pc.comparisons);
    }
    if (keep) out.push_back(v);
  }
  return out;
}

class CandInitReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = Dataset();
    auto fresh = AmberEngine::Build(data_);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    fresh_ = std::make_unique<AmberEngine>(std::move(fresh).value());
    // Unique per process: ctest -j runs cases as concurrent processes.
    const std::string path = testing::TempDir() + "/candinit_" +
                             std::to_string(::getpid()) + ".amf";
    ASSERT_TRUE(fresh_->SaveFile(path).ok());
    auto mapped = AmberEngine::OpenFile(path);
    std::remove(path.c_str());  // the mapping outlives the directory entry
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mapped_ = std::make_unique<AmberEngine>(std::move(mapped).value());
  }

  std::vector<Triple> data_;
  std::unique_ptr<AmberEngine> fresh_;
  std::unique_ptr<AmberEngine> mapped_;
};

TEST_F(CandInitReferenceTest, EveryRootMatchesTheBruteForceScan) {
  const std::vector<std::string> queries = Queries(data_);
  ASSERT_GE(queries.size(), 40u);

  struct Engine {
    const AmberEngine* engine;
    const char* label;
  };
  const Engine engines[] = {{fresh_.get(), "fresh"},
                            {mapped_.get(), "mmap"}};
  uint64_t constant_seeded = 0;
  uint64_t index_seeded = 0;
  uint64_t residual_beside_constants = 0;
  uint64_t self_loop_roots = 0;
  uint64_t nonempty = 0;
  for (const Engine& e : engines) {
    for (bool use_signature_index : {true, false}) {
      for (bool use_value_index : {true, false}) {
        ExecOptions options;
        options.use_signature_index = use_signature_index;
        options.use_value_index = use_value_index;
        for (const std::string& text : queries) {
          SCOPED_TRACE(std::string(e.label) +
                       " use_signature_index=" +
                       std::to_string(use_signature_index) +
                       " use_value_index=" + std::to_string(use_value_index) +
                       "\nquery:\n" + text);
          auto parsed = SparqlParser::Parse(text);
          ASSERT_TRUE(parsed.ok()) << parsed.status();
          auto qg = QueryGraph::Build(*parsed, e.engine->dictionaries());
          ASSERT_TRUE(qg.ok()) << qg.status();
          if (qg->unsatisfiable()) continue;
          const uint64_t n = e.engine->graph().NumVertices();
          const QueryPlan plan =
              PlanForExecution(*qg, options, e.engine->indexes(), n);
          const std::vector<std::vector<uint8_t>> pushed = PushedConstraints(
              *qg, plan, options, e.engine->indexes().value, n);

          for (size_t ci = 0; ci < plan.components.size(); ++ci) {
            for (size_t k = 0; k < plan.components[ci].core_order.size();
                 ++k) {
              // Component ci first, its k-th core vertex at the front.
              QueryPlan rotated = plan;
              std::swap(rotated.components[0], rotated.components[ci]);
              ComponentPlan& cp = rotated.components[0];
              std::swap(cp.core_order[0], cp.core_order[k]);
              std::swap(cp.satellites[0], cp.satellites[k]);
              const uint32_t u = cp.core_order[0];
              SCOPED_TRACE("root ?" + qg->vertices()[u].name);

              Matcher matcher(e.engine->graph(), e.engine->indexes(), *qg,
                              rotated, options);
              const std::vector<VertexId> got =
                  matcher.ComputeRootCandidates();
              ASSERT_EQ(matcher.pending_interrupt(),
                        Matcher::InterruptKind::kNone);
              EXPECT_EQ(got, ReferenceCandInit(*e.engine, *qg, u));

              const QueryVertex& qv = qg->vertices()[u];
              if (HasConstantList(qv, pushed[u])) {
                ++constant_seeded;
                residual_beside_constants += std::count(
                    pushed[u].begin(), pushed[u].end(), uint8_t{0});
              } else {
                ++index_seeded;
              }
              self_loop_roots += !qv.self_types.empty();
              nonempty += !got.empty();
            }
          }
        }
      }
    }
  }
  // Both seed kinds, and the per-candidate filters after each, are
  // exercised many times.
  EXPECT_GE(constant_seeded, 100u);
  EXPECT_GE(index_seeded, 100u);
  EXPECT_GE(residual_beside_constants, 8u);
  EXPECT_GE(self_loop_roots, 8u);
  EXPECT_GE(nonempty, 100u);
}

}  // namespace
}  // namespace amber
