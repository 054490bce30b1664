// Tests for the SPARQL formatter (round-trip property) and the EXPLAIN
// facility (decomposition and candidate counts surfaced correctly).

#include <gtest/gtest.h>

#include "core/amber_engine.h"
#include "core/explain.h"
#include "gen/paper_example.h"
#include "sparql/formatter.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

TEST(FormatterTest, RoundTripSimple) {
  auto q = SparqlParser::Parse(
      "SELECT DISTINCT ?x ?y WHERE { ?x <urn:p> ?y . "
      "?x <urn:q> \"lit\"@en . ?y <urn:r> \"5\"^^<urn:dt> . } LIMIT 9");
  ASSERT_TRUE(q.ok());
  std::string text = FormatQuery(*q);
  auto q2 = SparqlParser::Parse(text);
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << text;
  EXPECT_EQ(q2->patterns, q->patterns);
  EXPECT_EQ(q2->projection, q->projection);
  EXPECT_EQ(q2->distinct, q->distinct);
  EXPECT_EQ(q2->limit, q->limit);
}

TEST(FormatterTest, RoundTripSelectStar) {
  auto q = SparqlParser::Parse("SELECT * WHERE { ?a <urn:p> _:b . }");
  ASSERT_TRUE(q.ok());
  auto q2 = SparqlParser::Parse(FormatQuery(*q));
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->select_all);
  EXPECT_EQ(q2->patterns, q->patterns);
}

class FormatterRoundTripProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(FormatterRoundTripProperty, ParseFormatParseIsIdentity) {
  auto data = testutil::RandomDataset(GetParam(), 12, 50, 3);
  for (int i = 0; i < 10; ++i) {
    std::string text =
        testutil::RandomQueryFromData(data, GetParam() * 100 + i, 4);
    auto q1 = SparqlParser::Parse(text);
    ASSERT_TRUE(q1.ok()) << text;
    auto q2 = SparqlParser::Parse(FormatQuery(*q1));
    ASSERT_TRUE(q2.ok()) << FormatQuery(*q1);
    EXPECT_EQ(q2->patterns, q1->patterns);
    EXPECT_EQ(q2->projection, q1->projection);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatterRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(ExplainTest, PaperQueryPlan) {
  auto triples = testutil::MustParse(kPaperExampleNTriples);
  auto engine = AmberEngine::Build(triples);
  ASSERT_TRUE(engine.ok());
  auto parsed = SparqlParser::Parse(kPaperExampleQuery);
  ASSERT_TRUE(parsed.ok());

  auto explained = ExplainQuery(*parsed, engine->dictionaries(),
                                &engine->indexes());
  ASSERT_TRUE(explained.ok()) << explained.status();
  const std::string& text = *explained;
  // Decomposition of Figure 4: 3 core, 4 satellites, one component.
  EXPECT_NE(text.find("3 core, 4 satellite, 1 component(s)"),
            std::string::npos)
      << text;
  // The initial vertex is ?X1 and the S index yields exactly one candidate
  // (London).
  EXPECT_NE(text.find("[init] ?X1"), std::string::npos) << text;
  EXPECT_NE(text.find("|C^S| = 1"), std::string::npos) << text;
  // Satellites listed with their host.
  EXPECT_NE(text.find("satellites:"), std::string::npos);
}

TEST(ExplainTest, FilterConstraintsShowPushdownClass) {
  auto data = testutil::RandomDataset(21, 10, 50, 3, 4, 30);
  auto engine = AmberEngine::Build(data);
  ASSERT_TRUE(engine.ok());

  // Core vertex (?x has two variable neighbours): index-pushed.
  auto core_q = SparqlParser::Parse(
      "SELECT ?x WHERE { ?x <urn:p0> ?y . ?x <urn:p1> ?z . "
      "?x <urn:num0> ?a . FILTER(?a > 10 && ?a <= 40) }");
  ASSERT_TRUE(core_q.ok());
  auto core_text = ExplainQuery(*core_q, engine->dictionaries(),
                                &engine->indexes());
  ASSERT_TRUE(core_text.ok()) << core_text.status();
  EXPECT_NE(core_text->find("preds={<urn:num0> > 10 <= 40 [index-pushed]}"),
            std::string::npos)
      << *core_text;

  // Satellite vertex (?y has degree 1): residual evaluation.
  auto sat_q = SparqlParser::Parse(
      "SELECT ?x WHERE { ?x <urn:p0> ?y . ?x <urn:p1> ?z . "
      "?y <urn:num1> ?b . FILTER(?b < 25) }");
  ASSERT_TRUE(sat_q.ok());
  auto sat_text =
      ExplainQuery(*sat_q, engine->dictionaries(), &engine->indexes());
  ASSERT_TRUE(sat_text.ok());
  EXPECT_NE(sat_text->find("preds={<urn:num1> < 25 [residual]}"),
            std::string::npos)
      << *sat_text;
}

TEST(ExplainTest, PostFilterAblationExplainsTheRunPlan) {
  // With pushdown off, the engine plans without range-width selectivity
  // and evaluates every FILTER residually: EXPLAIN must describe that
  // plan, not the pushdown one (which starts at the filtered ?y).
  auto data = testutil::RandomDataset(21, 10, 50, 3, 4, 30);
  auto engine = AmberEngine::Build(data);
  ASSERT_TRUE(engine.ok());
  auto q = SparqlParser::Parse(
      "SELECT ?x ?y WHERE { ?x <urn:p0> ?y . ?y <urn:p1> ?z . "
      "?z <urn:p2> ?x . ?y <urn:num0> ?a . FILTER(?a > 10 && ?a <= 12) }");
  ASSERT_TRUE(q.ok()) << q.status();

  ExecOptions pushdown;
  auto pushed_text = ExplainQuery(*q, engine->dictionaries(),
                                  &engine->indexes(), {}, &pushdown);
  ASSERT_TRUE(pushed_text.ok()) << pushed_text.status();
  EXPECT_NE(pushed_text->find("[init] ?y"), std::string::npos)
      << *pushed_text;
  EXPECT_NE(pushed_text->find("[index-pushed]"), std::string::npos)
      << *pushed_text;

  ExecOptions post_filter;
  post_filter.use_value_index = false;
  auto text = ExplainQuery(*q, engine->dictionaries(), &engine->indexes(),
                           {}, &post_filter);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("[init] ?x"), std::string::npos) << *text;
  EXPECT_NE(text->find("preds={<urn:num0> > 10 <= 12 [residual]}"),
            std::string::npos)
      << *text;
  EXPECT_EQ(text->find("[index-pushed]"), std::string::npos) << *text;
  // Without constants the post-filter root asks the S index.
  EXPECT_NE(text->find("seed: S index"), std::string::npos) << *text;
}

TEST(ExplainTest, InitLineNamesTheCandInitSource) {
  auto triples = testutil::MustParse(kPaperExampleNTriples);
  auto engine = AmberEngine::Build(triples);
  ASSERT_TRUE(engine.ok());

  // The paper query's initial vertex has no constants: the S index seeds.
  auto paper = SparqlParser::Parse(kPaperExampleQuery);
  ASSERT_TRUE(paper.ok());
  auto paper_text =
      ExplainQuery(*paper, engine->dictionaries(), &engine->indexes());
  ASSERT_TRUE(paper_text.ok()) << paper_text.status();
  EXPECT_NE(paper_text->find("[init] ?X1"), std::string::npos) << *paper_text;
  EXPECT_NE(paper_text->find("|C^S| = 1, seed: S index"), std::string::npos)
      << *paper_text;

  // Ablation B answers the same vertex by the full synopsis scan.
  ExecOptions no_s;
  no_s.use_signature_index = false;
  auto scan_text = ExplainQuery(*paper, engine->dictionaries(),
                                &engine->indexes(), {}, &no_s);
  ASSERT_TRUE(scan_text.ok()) << scan_text.status();
  EXPECT_NE(scan_text->find("|C^S| = 1, seed: synopsis scan"),
            std::string::npos)
      << *scan_text;

  // An anchored root seeds from its constant list, in both modes.
  auto anchored = SparqlParser::Parse(
      "PREFIX x: <http://dbpedia.org/resource/> "
      "PREFIX y: <http://dbpedia.org/ontology/> "
      "SELECT ?a WHERE { ?a y:livedIn x:United_States . "
      "?a y:wasMarriedTo ?b . ?a y:wasPartOf ?c . }");
  ASSERT_TRUE(anchored.ok()) << anchored.status();
  for (const ExecOptions& exec : {ExecOptions{}, no_s}) {
    auto text = ExplainQuery(*anchored, engine->dictionaries(),
                             &engine->indexes(), {}, &exec);
    ASSERT_TRUE(text.ok()) << text.status();
    EXPECT_NE(text->find("[init] ?a"), std::string::npos) << *text;
    EXPECT_NE(text->find("seed: constants"), std::string::npos) << *text;
  }
}

TEST(ExplainTest, GroundPredicateChecksCounted) {
  auto data = testutil::RandomDataset(21, 10, 50, 3, 4, 30);
  auto engine = AmberEngine::Build(data);
  ASSERT_TRUE(engine.ok());
  // Find an entity with a numeric attribute so the subject resolves.
  std::string subject;
  for (const Triple& t : data) {
    if (t.predicate.value == "urn:num0") {
      subject = t.subject.ToNTriples();
      break;
    }
  }
  ASSERT_FALSE(subject.empty());
  auto q = SparqlParser::Parse("SELECT ?z WHERE { " + subject +
                               " <urn:num0> ?a . ?z <urn:p0> ?w . "
                               "FILTER(?a >= 0) }");
  ASSERT_TRUE(q.ok()) << q.status();
  auto text = ExplainQuery(*q, engine->dictionaries(), &engine->indexes());
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("1 ground predicate checks"), std::string::npos)
      << *text;
}

TEST(ExplainTest, UnsatisfiableIsReported) {
  auto triples = testutil::MustParse(kPaperExampleNTriples);
  auto engine = AmberEngine::Build(triples);
  ASSERT_TRUE(engine.ok());
  auto parsed = SparqlParser::Parse(
      "SELECT ?x WHERE { ?x <urn:nope> ?y . }");
  ASSERT_TRUE(parsed.ok());
  auto explained =
      ExplainQuery(*parsed, engine->dictionaries(), &engine->indexes());
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("UNSATISFIABLE"), std::string::npos);
}

TEST(ExplainTest, WorksWithoutIndexes) {
  auto triples = testutil::MustParse(kPaperExampleNTriples);
  auto engine = AmberEngine::Build(triples);
  ASSERT_TRUE(engine.ok());
  auto parsed = SparqlParser::Parse(kPaperExampleQuery);
  ASSERT_TRUE(parsed.ok());
  auto explained =
      ExplainQuery(*parsed, engine->dictionaries(), /*indexes=*/nullptr);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->find("|C^S|"), std::string::npos);
  EXPECT_NE(explained->find("anchor="), std::string::npos);  // ?X3's anchor
}

}  // namespace
}  // namespace amber
