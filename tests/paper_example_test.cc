// Ground-truth tests against every worked example in the paper: the Figure 1
// multigraph, the Table 2 dictionaries, the Table 3 synopses, the Figure 2
// query multigraph, the Figure 4 decomposition, the Section 4/5 candidate
// sets, and the end-to-end embeddings of the running query.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>

#include "core/amber_engine.h"
#include "core/query_plan.h"
#include "gen/paper_example.h"
#include "graph/synopsis.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "test_util.h"

namespace amber {
namespace {

constexpr const char* kRes = "http://dbpedia.org/resource/";
constexpr const char* kOnt = "http://dbpedia.org/ontology/";

/// The N-Triples token of the resource `local`.
std::string Res(std::string_view local) {
  std::string token = "<";
  token += kRes;
  token += local;
  token += '>';
  return token;
}

class PaperExampleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto triples = testutil::MustParse(kPaperExampleNTriples);
    auto engine = AmberEngine::Build(triples);
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = new AmberEngine(std::move(engine).value());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static VertexId V(const std::string& local) {
    auto id = engine_->dictionaries().vertices().Find(Res(local));
    EXPECT_TRUE(id.has_value()) << "unknown vertex " << local;
    return id.value_or(kInvalidId);
  }
  static EdgeTypeId T(const std::string& local) {
    auto id = engine_->dictionaries().edge_types().Find(std::string(kOnt) +
                                                        local);
    EXPECT_TRUE(id.has_value()) << "unknown predicate " << local;
    return id.value_or(kInvalidId);
  }

  static AmberEngine* engine_;
};

AmberEngine* PaperExampleTest::engine_ = nullptr;

TEST_F(PaperExampleTest, Table4StyleGraphStatistics) {
  const Multigraph& g = engine_->graph();
  EXPECT_EQ(g.NumVertices(), 9u);   // v0..v8 of Table 2a
  EXPECT_EQ(g.NumEdges(), 13u);     // 16 triples - 3 literal triples
  EXPECT_EQ(g.NumEdgeTypes(), 9u);  // t0..t8 of Table 2b
  EXPECT_EQ(g.NumAttributes(), 3u);  // a0..a2 of Table 2c
}

TEST_F(PaperExampleTest, Table2EdgeTypeDictionaryOrder) {
  // The fixture lists triples so that predicates are first seen in the
  // exact Table 2b order.
  EXPECT_EQ(T("isPartOf"), 0u);
  EXPECT_EQ(T("hasCapital"), 1u);
  EXPECT_EQ(T("hasStadium"), 2u);
  EXPECT_EQ(T("livedIn"), 3u);
  EXPECT_EQ(T("diedIn"), 4u);
  EXPECT_EQ(T("wasBornIn"), 5u);
  EXPECT_EQ(T("wasFormedIn"), 6u);
  EXPECT_EQ(T("wasPartOf"), 7u);
  EXPECT_EQ(T("wasMarriedTo"), 8u);
}

// Table 3, all nine rows: synopsis = [f1+ f2+ f3+ f4+ | f1- f2- f3- f4-].
TEST_F(PaperExampleTest, Table3Synopses) {
  const Multigraph& g = engine_->graph();
  auto synopsis_of = [&](const std::string& name) {
    return ComputeVertexSynopsis(g, V(name));
  };
  using A = std::array<int32_t, 8>;
  const std::map<std::string, A> expected = {
      {"Music_Band", A{1, 1, -7, 7, 1, 1, -6, 6}},          // v0
      {"Amy_Winehouse", A{0, 0, 0, 0, 2, 5, -3, 8}},        // v1
      {"London", A{2, 4, -1, 6, 1, 2, 0, 2}},               // v2
      {"England", A{1, 2, 0, 3, 1, 1, -1, 1}},              // v3
      {"WembleyStadium", A{1, 1, -2, 2, 0, 0, 0, 0}},       // v4
      {"United_States", A{1, 1, -3, 3, 0, 0, 0, 0}},        // v5
      {"Blake_Fielder-Civil", A{1, 1, -8, 8, 1, 1, -3, 3}},  // v6
      {"Christopher_Nolan", A{0, 0, 0, 0, 1, 3, 0, 5}},     // v7
      {"Dark_Knight_Trilogy", A{1, 1, 0, 0, 0, 0, 0, 0}},   // v8
  };
  for (const auto& [name, fields] : expected) {
    EXPECT_EQ(synopsis_of(name).f, fields) << "synopsis mismatch for " << name
                                           << ": "
                                           << synopsis_of(name).ToString();
  }
  // Note: Table 3 prints v3 (England) as f+ = [1 2 0 3]; our value matches.
  // The paper's v2 row and all others also match bit for bit.
}

// Section 4.2's worked query: a vertex whose signature is {-t5} has synopsis
// [0 0 0 0 | 1 1 -5 5] (f3 negated); the R-tree must return exactly
// {Amy, Christopher_Nolan} — the paper's C^S_u0 = {v1, v7}.
TEST_F(PaperExampleTest, Section42SignatureCandidates) {
  Synopsis q;
  q.f = {0, 0, 0, 0, 1, 1, -5, 5};
  std::vector<VertexId> cand = engine_->indexes().signature.Candidates(q);
  std::vector<VertexId> expected = {V("Amy_Winehouse"),
                                    V("Christopher_Nolan")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cand, expected);
}

// Section 4.1's worked example: C^A_u5 for attributes {a1, a2}
// (<foundedIn,"1994">, <hasName,"MCA_Band">) is exactly {Music_Band}.
TEST_F(PaperExampleTest, Section41AttributeCandidates) {
  const auto& dicts = engine_->dictionaries();
  auto a1 = dicts.attributes().Find(RdfDictionaries::AttributeKey(
      Term::Iri(std::string(kOnt) + "foundedIn"), Term::Literal("1994")));
  auto a2 = dicts.attributes().Find(RdfDictionaries::AttributeKey(
      Term::Iri(std::string(kOnt) + "hasName"), Term::Literal("MCA_Band")));
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  std::vector<AttributeId> attrs = {*a1, *a2};
  std::vector<VertexId> cand = engine_->indexes().attribute.Candidates(attrs);
  EXPECT_EQ(cand, std::vector<VertexId>{V("Music_Band")});
}

// Section 4.3's worked example: neighbours of London reachable by an
// incoming wasBornIn (t5) edge are {Amy, Christopher_Nolan} (C^N_u0).
TEST_F(PaperExampleTest, Section43NeighborhoodCandidates) {
  std::vector<EdgeTypeId> types = {T("wasBornIn")};
  std::vector<VertexId> cand = engine_->indexes().neighborhood.Superset(
      V("London"), Direction::kIn, types);
  std::vector<VertexId> expected = {V("Amy_Winehouse"),
                                    V("Christopher_Nolan")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cand, expected);

  // The multi-edge {t4, t5} (diedIn + wasBornIn) into London matches Amy
  // only.
  std::vector<EdgeTypeId> multi = {T("diedIn"), T("wasBornIn")};
  std::sort(multi.begin(), multi.end());
  EXPECT_EQ(engine_->indexes().neighborhood.Superset(V("London"),
                                                     Direction::kIn, multi),
            std::vector<VertexId>{V("Amy_Winehouse")});
}

// Section 5.1's IRI-anchor example: candidates for u3 via the anchor
// x:United_States through multi-edge {-t3} are the in-neighbours of
// United_States over livedIn. (The paper's prose says {v1}; by Figure 1
// Blake also livedIn United_States, so the complete candidate set is
// {Amy, Blake} — the prose appears to drop v6; the *final* embedding still
// binds u3 = Amy once the remaining constraints apply.)
TEST_F(PaperExampleTest, Section51IriAnchorCandidates) {
  std::vector<EdgeTypeId> types = {T("livedIn")};
  std::vector<VertexId> cand = engine_->indexes().neighborhood.Superset(
      V("United_States"), Direction::kIn, types);
  std::vector<VertexId> expected = {V("Amy_Winehouse"),
                                    V("Blake_Fielder-Civil")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(cand, expected);
}

// Figure 4: Uc = {u1, u3, u5}, Us = {u0, u2, u4, u6}, initial vertex u1.
TEST_F(PaperExampleTest, Figure4Decomposition) {
  auto parsed = SparqlParser::Parse(kPaperExampleQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto qg = QueryGraph::Build(*parsed, engine_->dictionaries());
  ASSERT_TRUE(qg.ok()) << qg.status();
  ASSERT_FALSE(qg->unsatisfiable()) << qg->unsatisfiable_reason();

  QueryPlan plan = PlanQuery(*qg);
  ASSERT_EQ(plan.components.size(), 1u);
  const ComponentPlan& cp = plan.components[0];

  auto name_of = [&](uint32_t u) { return qg->vertices()[u].name; };
  ASSERT_EQ(cp.core_order.size(), 3u);
  // u1 first (3 satellites), then u3 (1 satellite, adjacent), then u5.
  EXPECT_EQ(name_of(cp.core_order[0]), "X1");
  EXPECT_EQ(name_of(cp.core_order[1]), "X3");
  EXPECT_EQ(name_of(cp.core_order[2]), "X5");

  // Satellites: u1 hosts {X0, X2, X4}; u3 hosts {X6}; u5 hosts none.
  std::vector<std::string> sat0;
  for (uint32_t u : cp.satellites[0]) sat0.push_back(name_of(u));
  std::sort(sat0.begin(), sat0.end());
  EXPECT_EQ(sat0, (std::vector<std::string>{"X0", "X2", "X4"}));
  ASSERT_EQ(cp.satellites[1].size(), 1u);
  EXPECT_EQ(name_of(cp.satellites[1][0]), "X6");
  EXPECT_TRUE(cp.satellites[2].empty());
}

// End-to-end: the running query has exactly two embeddings (?X0 in
// {Amy, Christopher_Nolan}); the Fig. 2a-literal variant has zero.
TEST_F(PaperExampleTest, EndToEndEmbeddings) {
  auto count = engine_->CountSparql(kPaperExampleQuery, {});
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->count, 2u);

  auto rows = engine_->MaterializeSparql(kPaperExampleQuery, {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);
  // Shared bindings across both rows.
  const auto& names = rows->var_names;
  ASSERT_EQ(names.size(), 7u);
  auto col = [&](const std::string& var) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == var) return i;
    }
    ADD_FAILURE() << "missing var " << var;
    return size_t{0};
  };
  for (const auto& row : rows->rows) {
    EXPECT_EQ(row[col("X1")], Res("London"));
    EXPECT_EQ(row[col("X2")], Res("England"));
    EXPECT_EQ(row[col("X3")], Res("Amy_Winehouse"));
    EXPECT_EQ(row[col("X4")], Res("WembleyStadium"));
    EXPECT_EQ(row[col("X5")], Res("Music_Band"));
    EXPECT_EQ(row[col("X6")], Res("Blake_Fielder-Civil"));
  }
  std::vector<std::string> x0s = {rows->rows[0][col("X0")],
                                  rows->rows[1][col("X0")]};
  std::sort(x0s.begin(), x0s.end());
  EXPECT_EQ(x0s[0], Res("Amy_Winehouse"));
  EXPECT_EQ(x0s[1], Res("Christopher_Nolan"));

  auto zero = engine_->CountSparql(kPaperExampleQueryLiteralFig2a, {});
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->count, 0u);
}

// The brute-force oracle agrees with AMbER on the running example.
TEST_F(PaperExampleTest, OracleAgreement) {
  auto triples = testutil::MustParse(kPaperExampleNTriples);
  auto parsed = SparqlParser::Parse(kPaperExampleQuery);
  ASSERT_TRUE(parsed.ok());
  testutil::BruteForceReference oracle(triples);
  auto expected = testutil::CanonicalRows(oracle.Evaluate(*parsed));

  auto rows = engine_->MaterializeSparql(kPaperExampleQuery, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(testutil::CanonicalRows(rows->rows), expected);
}

}  // namespace
}  // namespace amber
