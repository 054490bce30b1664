// Cross-engine agreement property suite: on random datasets and random
// queries, AMbER, the triple-store baseline (both join orders), the graph
// backtracking baseline and the term-level brute-force oracle must produce
// the exact same bag of rows. This is the strongest correctness check in
// the repository — it exercises parser, query graph, planner, matcher,
// indexes and both baselines together.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>

#include "baseline/graph_backtrack.h"
#include "baseline/triple_store.h"
#include "core/amber_engine.h"
#include "gen/paper_example.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

struct CrossParam {
  uint64_t seed;
  int num_entities;
  int num_edges;
  int num_predicates;
  int query_patterns;
};

class CrossEngineTest : public ::testing::TestWithParam<CrossParam> {};

TEST_P(CrossEngineTest, AllEnginesAgreeWithOracle) {
  const CrossParam param = GetParam();
  auto data = testutil::RandomDataset(param.seed, param.num_entities,
                                      param.num_edges, param.num_predicates);

  auto amber = AmberEngine::Build(data);
  ASSERT_TRUE(amber.ok()) << amber.status();
  TripleStoreEngine::Options naive_opts;
  naive_opts.reorder_patterns = false;
  naive_opts.display_name = "TripleStore-naive";
  auto store = TripleStoreEngine::Build(data);
  ASSERT_TRUE(store.ok()) << store.status();
  auto store_naive = TripleStoreEngine::Build(data, naive_opts);
  ASSERT_TRUE(store_naive.ok());
  auto graph_bt = GraphBacktrackEngine::Build(data);
  ASSERT_TRUE(graph_bt.ok());

  testutil::BruteForceReference oracle(data);

  for (int qi = 0; qi < 12; ++qi) {
    std::string text = testutil::RandomQueryFromData(
        data, param.seed * 1000 + qi, param.query_patterns);
    SCOPED_TRACE("query:\n" + text);
    auto parsed = SparqlParser::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    auto expected = testutil::CanonicalRows(oracle.Evaluate(*parsed));

    QueryEngine* engines[] = {&*amber, &*store, &*store_naive, &*graph_bt};
    for (QueryEngine* engine : engines) {
      auto rows = engine->Materialize(*parsed, {});
      ASSERT_TRUE(rows.ok()) << engine->name() << ": " << rows.status();
      EXPECT_EQ(testutil::CanonicalRows(rows->rows), expected)
          << engine->name() << " disagrees with the oracle";

      auto count = engine->Count(*parsed, {});
      ASSERT_TRUE(count.ok()) << engine->name();
      EXPECT_EQ(count->count, expected.size())
          << engine->name() << " count() disagrees with materialize()";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossEngineTest,
    ::testing::Values(CrossParam{1, 8, 25, 2, 2}, CrossParam{2, 10, 40, 3, 3},
                      CrossParam{3, 12, 60, 3, 4}, CrossParam{4, 6, 30, 2, 4},
                      CrossParam{5, 15, 50, 4, 3}, CrossParam{6, 20, 80, 5, 3},
                      CrossParam{7, 5, 40, 2, 5}, CrossParam{8, 25, 60, 6, 2},
                      CrossParam{9, 10, 70, 3, 5},
                      CrossParam{10, 18, 90, 4, 4}),
    [](const ::testing::TestParamInfo<CrossParam>& info) {
      return "s" + std::to_string(info.param.seed) + "_e" +
             std::to_string(info.param.num_entities) + "_m" +
             std::to_string(info.param.num_edges) + "_q" +
             std::to_string(info.param.query_patterns);
    });

// DISTINCT agreement (deduplication paths differ per engine).
TEST(CrossEngineDistinctTest, DistinctAgreesAcrossEngines) {
  auto data = testutil::RandomDataset(99, 10, 50, 2);
  auto amber = AmberEngine::Build(data);
  ASSERT_TRUE(amber.ok());
  auto store = TripleStoreEngine::Build(data);
  ASSERT_TRUE(store.ok());
  auto graph_bt = GraphBacktrackEngine::Build(data);
  ASSERT_TRUE(graph_bt.ok());

  for (int qi = 0; qi < 8; ++qi) {
    std::string base =
        testutil::RandomQueryFromData(data, 7000 + qi, 3);
    // Keep only the first projected variable and add DISTINCT to force
    // duplicate collapse.
    size_t select_pos = base.find("SELECT");
    size_t where_pos = base.find(" WHERE");
    ASSERT_NE(where_pos, std::string::npos);
    std::string head = base.substr(select_pos + 6, where_pos - 6);
    size_t first_var_end = head.find(' ', head.find('?'));
    std::string var = (first_var_end == std::string::npos)
                          ? head.substr(head.find('?'))
                          : head.substr(head.find('?'),
                                        first_var_end - head.find('?'));
    std::string text =
        "SELECT DISTINCT " + var + base.substr(where_pos);
    SCOPED_TRACE(text);
    auto parsed = SparqlParser::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    testutil::BruteForceReference oracle(data);
    auto expected = testutil::CanonicalRows(oracle.Evaluate(*parsed));

    QueryEngine* engines[] = {&*amber, &*store, &*graph_bt};
    for (QueryEngine* engine : engines) {
      auto rows = engine->Materialize(*parsed, {});
      ASSERT_TRUE(rows.ok()) << engine->name() << rows.status();
      EXPECT_EQ(testutil::CanonicalRows(rows->rows), expected)
          << engine->name();
      auto count = engine->Count(*parsed, {});
      EXPECT_EQ(count->count, expected.size()) << engine->name();
    }
  }
}

// Persisted-artifact agreement: an engine restored from its mmap'ed AMF
// artifact must produce byte-identical query results to the freshly built
// engine, across the paper example and generated workloads.
class ArtifactRoundTripTest : public ::testing::Test {
 protected:
  void RunWorkload(const std::vector<Triple>& data,
                   const std::vector<std::string>& queries,
                   const std::string& tag) {
    auto fresh = AmberEngine::Build(data);
    ASSERT_TRUE(fresh.ok()) << fresh.status();

    const std::string path = testing::TempDir() + "/cross_" + tag + "_" +
                             std::to_string(::getpid()) + ".amf";
    ASSERT_TRUE(fresh->SaveFile(path).ok());
    auto mapped = AmberEngine::OpenFile(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();

    for (const std::string& text : queries) {
      SCOPED_TRACE("query:\n" + text);
      auto parsed = SparqlParser::Parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.status();

      auto want_rows = fresh->Materialize(*parsed, {});
      ASSERT_TRUE(want_rows.ok());
      auto want = testutil::CanonicalRows(want_rows->rows);

      auto rows = mapped->Materialize(*parsed, {});
      ASSERT_TRUE(rows.ok()) << rows.status();
      EXPECT_EQ(testutil::CanonicalRows(rows->rows), want);
      auto count = mapped->Count(*parsed, {});
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(count->count, want_rows->rows.size());
    }
  }
};

TEST_F(ArtifactRoundTripTest, PaperExampleAgrees) {
  auto data = testutil::MustParse(kPaperExampleNTriples);
  RunWorkload(data,
              {kPaperExampleQuery, kPaperExampleQueryLiteralFig2a},
              "paper");
}

TEST_F(ArtifactRoundTripTest, GeneratedWorkloadsAgree) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    auto data = testutil::RandomDataset(seed, 15, 70, 4);
    std::vector<std::string> queries;
    for (int qi = 0; qi < 6; ++qi) {
      queries.push_back(
          testutil::RandomQueryFromData(data, seed * 100 + qi, 3));
    }
    RunWorkload(data, queries, "gen" + std::to_string(seed));
  }
}

// FILTER differential coverage (the acceptance gate of the FILTER
// pipeline): handcrafted and random FILTER queries must return identical
// rows across AmberEngine (fresh, mmap-restored),
// TripleStore (both join orders), GraphBacktrack, and the brute-force
// oracle — in both pushdown and post-filter-only modes.
class CrossEngineFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = testutil::RandomDataset(17, 10, 50, 3, 4, /*num_numeric_attrs=*/40);

    auto amber = AmberEngine::Build(data_);
    ASSERT_TRUE(amber.ok()) << amber.status();
    amber_ = std::make_unique<AmberEngine>(std::move(amber).value());

    // Unique per process: ctest -j runs this fixture's cases as concurrent
    // processes, and writing one shared path while a sibling has it mmap'ed
    // is a SIGBUS.
    const std::string path = testing::TempDir() + "/cross_filter_" +
                             std::to_string(::getpid()) + ".amf";
    ASSERT_TRUE(amber_->SaveFile(path).ok());
    auto mapped = AmberEngine::OpenFile(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mapped_ = std::make_unique<AmberEngine>(std::move(mapped).value());

    auto store = TripleStoreEngine::Build(data_);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<TripleStoreEngine>(std::move(store).value());
    TripleStoreEngine::Options naive;
    naive.reorder_patterns = false;
    naive.display_name = "TripleStore-naive";
    auto store_naive = TripleStoreEngine::Build(data_, naive);
    ASSERT_TRUE(store_naive.ok());
    store_naive_ =
        std::make_unique<TripleStoreEngine>(std::move(store_naive).value());

    auto graph_bt = GraphBacktrackEngine::Build(data_);
    ASSERT_TRUE(graph_bt.ok());
    graph_bt_ =
        std::make_unique<GraphBacktrackEngine>(std::move(graph_bt).value());
  }

  void CheckQuery(const std::string& text) {
    SCOPED_TRACE("query:\n" + text);
    auto parsed = SparqlParser::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    testutil::BruteForceReference oracle(data_);
    auto expected = testutil::CanonicalRows(oracle.Evaluate(*parsed));

    ExecOptions pushdown;
    ExecOptions post_filter;
    post_filter.use_value_index = false;

    struct Mode {
      QueryEngine* engine;
      const ExecOptions* options;
      const char* label;
    };
    const Mode modes[] = {
        {amber_.get(), &pushdown, "AMbER"},
        {amber_.get(), &post_filter, "AMbER-postfilter"},
        {mapped_.get(), &pushdown, "AMbER-mmap"},
        {store_.get(), &pushdown, "TripleStore"},
        {store_naive_.get(), &pushdown, "TripleStore-naive"},
        {graph_bt_.get(), &pushdown, "GraphBT"},
    };
    for (const Mode& mode : modes) {
      auto rows = mode.engine->Materialize(*parsed, *mode.options);
      ASSERT_TRUE(rows.ok()) << mode.label << ": " << rows.status();
      EXPECT_EQ(testutil::CanonicalRows(rows->rows), expected)
          << mode.label << " disagrees with the oracle";
      auto count = mode.engine->Count(*parsed, *mode.options);
      ASSERT_TRUE(count.ok()) << mode.label;
      EXPECT_EQ(count->count, expected.size())
          << mode.label << " count() disagrees with materialize()";
    }
  }

  std::vector<Triple> data_;
  std::unique_ptr<AmberEngine> amber_, mapped_;
  std::unique_ptr<TripleStoreEngine> store_, store_naive_;
  std::unique_ptr<GraphBacktrackEngine> graph_bt_;
};

TEST_F(CrossEngineFilterTest, HandcraftedFilterQueriesAgree) {
  const char* queries[] = {
      // Plain ranges over a numeric predicate (core vertex seed).
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a > 20) }",
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a >= 10 && ?a <= 30) }",
      "SELECT ?x WHERE { ?x <urn:num1> ?a . FILTER(?a != 25) }",
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a = 7) }",
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a < 49 && ?a != 3) }",
      // Empty and full ranges.
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a > 100) }",
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a >= 0) }",
      "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a > 30 && ?a < 10) }",
      // String comparisons over the shared v0..v3 literal pool.
      "SELECT ?x WHERE { ?x <urn:p0> ?s . FILTER(?s >= \"v1\") }",
      "SELECT ?x WHERE { ?x <urn:p1> ?s . FILTER(?s = \"v2\") }",
      "SELECT ?x WHERE { ?x <urn:p0> ?s . FILTER(?s != \"v0\" && "
      "?s < \"v3\") }",
      // Kind mismatch: numeric constant against a string-valued predicate.
      "SELECT ?x WHERE { ?x <urn:p0> ?s . FILTER(?s > 5) }",
      // Structural joins around the filtered vertex.
      "SELECT ?x ?y WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
      "FILTER(?a < 25) }",
      "SELECT ?x ?y WHERE { ?x <urn:p1> ?y . ?y <urn:num0> ?a . "
      "FILTER(?a > 5) }",
      "SELECT ?x WHERE { ?x <urn:p0> ?y . ?y <urn:p1> ?x . "
      "?x <urn:num1> ?a . FILTER(?a >= 12) }",
      // Two filtered predicates on one vertex; filters on two vertices.
      "SELECT ?x WHERE { ?x <urn:num0> ?a . ?x <urn:num1> ?b . "
      "FILTER(?a > 10) FILTER(?b < 40) }",
      "SELECT ?x ?y WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
      "?y <urn:num1> ?b . FILTER(?a > 5 && ?a < 45) FILTER(?b != 20) }",
      // Constant subject (ground predicate check).
      "SELECT ?z WHERE { <urn:e1> <urn:num0> ?a . ?z <urn:p0> <urn:e1> . "
      "FILTER(?a >= 0) }",
      "SELECT ?z WHERE { <urn:e1> <urn:num0> ?a . ?z <urn:p0> <urn:e1> . "
      "FILTER(?a > 99) }",
      // DISTINCT + LIMIT-free dedup over the filtered existential.
      "SELECT DISTINCT ?x WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
      "FILTER(?a <= 40) }",
      // SELECT * excludes the filtered literal variable.
      "SELECT * WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
      "FILTER(?a > 15) }",
      // Unknown attribute predicate: provably unsatisfiable.
      "SELECT ?x WHERE { ?x <urn:nosuch> ?a . FILTER(?a > 1) }",
  };
  for (const char* text : queries) CheckQuery(text);
}

TEST_F(CrossEngineFilterTest, RandomFilterQueriesAgree) {
  for (int qi = 0; qi < 25; ++qi) {
    CheckQuery(testutil::RandomFilterQueryFromData(data_, 9100 + qi, 3));
  }
}

// Star-heavy queries stress the satellite fast path specifically.
TEST(CrossEngineStarTest, StarQueriesAgree) {
  auto data = testutil::RandomDataset(123, 6, 60, 3);
  auto amber = AmberEngine::Build(data);
  ASSERT_TRUE(amber.ok());
  auto store = TripleStoreEngine::Build(data);
  ASSERT_TRUE(store.ok());
  testutil::BruteForceReference oracle(data);

  const char* star_queries[] = {
      "SELECT ?c ?a ?b WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b . }",
      "SELECT ?c WHERE { ?c <urn:p0> ?a . ?c <urn:p0> ?b . ?x <urn:p1> ?c }",
      "SELECT ?a ?b ?c ?d WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b . "
      "?c <urn:p2> ?d . }",
      "SELECT ?c ?a WHERE { ?c <urn:p0> ?a . ?a <urn:p0> ?c . }",
  };
  for (const char* text : star_queries) {
    SCOPED_TRACE(text);
    auto parsed = SparqlParser::Parse(text);
    ASSERT_TRUE(parsed.ok());
    auto expected = testutil::CanonicalRows(oracle.Evaluate(*parsed));
    auto amber_rows = amber->Materialize(*parsed, {});
    ASSERT_TRUE(amber_rows.ok());
    EXPECT_EQ(testutil::CanonicalRows(amber_rows->rows), expected) << "AMbER";
    auto store_rows = store->Materialize(*parsed, {});
    ASSERT_TRUE(store_rows.ok());
    EXPECT_EQ(testutil::CanonicalRows(store_rows->rows), expected)
        << "TripleStore";
  }
}

// Factorized differential: both engine origins (fresh build, mmap'ed AMF)
// × serial/parallel must materialize the exact row vectors — order
// included — that a serial Stream (no answer graph) delivers, and the
// factorized handles must agree on totals. DISTINCT and tight
// LIMIT/OFFSET queries ride along because they exercise the group-dedup
// fallback and the truncation bookkeeping.
TEST(CrossEngineFactorizedTest, ArtifactsAgreeAcrossResultForms) {
  auto data = testutil::RandomDataset(77, 14, 70, 3);
  auto fresh = AmberEngine::Build(data);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  const std::string path = testing::TempDir() + "/cross_fact_" +
                           std::to_string(::getpid()) + ".amf";
  ASSERT_TRUE(fresh->SaveFile(path).ok());
  auto mapped = AmberEngine::OpenFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  struct EngineUnderTest {
    AmberEngine* engine;
    const char* label;
  };
  const EngineUnderTest engines[] = {{&fresh.value(), "fresh"},
                                     {&mapped.value(), "mapped"}};

  std::vector<std::string> queries = {
      "SELECT DISTINCT ?a ?b WHERE { ?a <urn:p0> ?b . }",
      "SELECT ?a ?b ?c WHERE { ?a <urn:p0> ?b . ?a <urn:p1> ?c . } LIMIT 5",
  };
  for (int qi = 0; qi < 5; ++qi) {
    queries.push_back(testutil::RandomQueryFromData(data, 770 + qi, 3));
  }

  for (const std::string& text : queries) {
    SCOPED_TRACE("query:\n" + text);
    auto parsed = SparqlParser::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();

    // Reference: fresh engine, serial Stream.
    const std::vector<std::vector<std::string>> want =
        testutil::StreamedRows(*fresh, *parsed);

    for (const EngineUnderTest& e : engines) {
      for (int threads : {1, 3}) {
        ExecOptions fopts;
        fopts.num_threads = threads;
        auto got = e.engine->Materialize(*parsed, fopts);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->rows, want) << e.label << " threads=" << threads;

        auto fact = e.engine->Factorize(*parsed, fopts);
        ASSERT_TRUE(fact.ok()) << fact.status();
        const uint64_t cap = EffectiveRowCap(*parsed, fopts);
        const uint64_t want_total =
            cap == 0
                ? want.size()
                : std::min<uint64_t>(want.size(), fact->result.total_rows);
        std::vector<std::vector<std::string>> expanded;
        FactorizedResult::Cursor cur = fact->result.Expand();
        while (expanded.size() < want.size() && cur.Next()) {
          expanded.push_back(e.engine->TranslateRow(cur.Row()));
        }
        ASSERT_GE(fact->result.total_rows, want_total) << e.label;
        EXPECT_EQ(expanded,
                  std::vector<std::vector<std::string>>(
                      want.begin(), want.begin() + expanded.size()))
            << e.label << " threads=" << threads;
        EXPECT_GE(expanded.size(),
                  std::min<uint64_t>(want.size(),
                                     fact->result.total_rows))
            << e.label;
      }
    }
  }
}

}  // namespace
}  // namespace amber
