// End-to-end tests of the AMbER engine: counting vs materializing, DISTINCT,
// LIMIT, timeouts, unsatisfiable queries, disconnected queries, self-loops,
// parallel mode, rejection of non-AMF artifacts and ablation options.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/amber_engine.h"
#include "gen/paper_example.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& triples) {
  auto engine = AmberEngine::Build(triples);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

std::vector<Triple> ChainData() {
  // a -p-> b -p-> c -p-> d, plus attributes and a side edge.
  return {
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b")},
      {Term::Iri("urn:b"), Term::Iri("urn:p"), Term::Iri("urn:c")},
      {Term::Iri("urn:c"), Term::Iri("urn:p"), Term::Iri("urn:d")},
      {Term::Iri("urn:a"), Term::Iri("urn:t"), Term::Literal("x")},
      {Term::Iri("urn:c"), Term::Iri("urn:t"), Term::Literal("x")},
      {Term::Iri("urn:b"), Term::Iri("urn:q"), Term::Iri("urn:a")},
  };
}

TEST(AmberEngineTest, SimpleEdgeQuery) {
  AmberEngine engine = MustBuild(ChainData());
  auto count = engine.CountSparql("SELECT ?x ?y WHERE { ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->count, 3u);
  EXPECT_FALSE(count->stats.timed_out);
}

TEST(AmberEngineTest, PathQueryBagSemantics) {
  AmberEngine engine = MustBuild(ChainData());
  // Two 2-hop paths: a-b-c, b-c-d.
  auto count = engine.CountSparql(
      "SELECT ?x ?z WHERE { ?x <urn:p> ?y . ?y <urn:p> ?z . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 2u);
}

TEST(AmberEngineTest, HomomorphismAllowsVertexReuse) {
  // Query triangle of distinct variables can map onto a 2-cycle via
  // homomorphism (no injectivity).
  std::vector<Triple> data = {
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b")},
      {Term::Iri("urn:b"), Term::Iri("urn:p"), Term::Iri("urn:a")},
  };
  AmberEngine engine = MustBuild(data);
  auto count = engine.CountSparql(
      "SELECT ?x WHERE { ?x <urn:p> ?y . ?y <urn:p> ?x . }", {});
  ASSERT_TRUE(count.ok());
  // (a,b) and (b,a).
  EXPECT_EQ(count->count, 2u);
}

TEST(AmberEngineTest, AttributeFilteredQuery) {
  AmberEngine engine = MustBuild(ChainData());
  auto rows = engine.MaterializeSparql(
      "SELECT ?x ?y WHERE { ?x <urn:p> ?y . ?x <urn:t> \"x\" . }", {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 2u);  // a and c qualify
}

TEST(AmberEngineTest, DistinctCollapsesDuplicates) {
  AmberEngine engine = MustBuild(ChainData());
  // ?x has p-successors; project only ?x: b appears for both targets... each
  // subject has exactly one p edge here, so craft duplicates via ?y fan-in.
  auto bag = engine.CountSparql("SELECT ?y WHERE { ?x <urn:p> ?y . }", {});
  auto distinct = engine.CountSparql(
      "SELECT DISTINCT ?y WHERE { ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(bag->count, 3u);
  EXPECT_EQ(distinct->count, 3u);

  // A true duplicate case: unprojected satellite multiplies rows.
  std::vector<Triple> fan = ChainData();
  fan.push_back({Term::Iri("urn:e"), Term::Iri("urn:p"), Term::Iri("urn:b")});
  AmberEngine engine2 = MustBuild(fan);
  auto bag2 = engine2.CountSparql("SELECT ?y WHERE { ?x <urn:p> ?y . }", {});
  auto distinct2 = engine2.CountSparql(
      "SELECT DISTINCT ?y WHERE { ?x <urn:p> ?y . }", {});
  EXPECT_EQ(bag2->count, 4u);       // a->b, e->b, b->c, c->d
  EXPECT_EQ(distinct2->count, 3u);  // b, c, d
}

TEST(AmberEngineTest, LimitClauseTruncates) {
  AmberEngine engine = MustBuild(ChainData());
  auto rows = engine.MaterializeSparql(
      "SELECT ?x ?y WHERE { ?x <urn:p> ?y . } LIMIT 2", {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_TRUE(rows->stats.truncated);

  ExecOptions options;
  options.max_rows = 1;
  auto count = engine.CountSparql("SELECT ?x ?y WHERE { ?x <urn:p> ?y . }",
                                  options);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 1u);
}

TEST(AmberEngineTest, UnsatisfiableQueriesReturnZeroQuickly) {
  AmberEngine engine = MustBuild(ChainData());
  const char* queries[] = {
      "SELECT ?x WHERE { ?x <urn:missing> ?y . }",
      "SELECT ?x WHERE { ?x <urn:p> <urn:zz> . }",
      "SELECT ?x WHERE { ?x <urn:t> \"nope\" . }",
      "SELECT ?x WHERE { <urn:zz> <urn:p> ?x . }",
  };
  for (const char* text : queries) {
    auto count = engine.CountSparql(text, {});
    ASSERT_TRUE(count.ok()) << text << ": " << count.status();
    EXPECT_EQ(count->count, 0u) << text;
  }
}

TEST(AmberEngineTest, GroundPatternGatesResults) {
  AmberEngine engine = MustBuild(ChainData());
  // True ground fact: results unaffected.
  auto with_true = engine.CountSparql(
      "SELECT ?x WHERE { <urn:a> <urn:p> <urn:b> . ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(with_true.ok());
  EXPECT_EQ(with_true->count, 3u);
  // False ground fact: zero.
  auto with_false = engine.CountSparql(
      "SELECT ?x WHERE { <urn:a> <urn:p> <urn:d> . ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(with_false.ok());
  EXPECT_EQ(with_false->count, 0u);
  // Ground attribute checks too.
  auto attr_true = engine.CountSparql(
      "SELECT ?x WHERE { <urn:a> <urn:t> \"x\" . ?x <urn:p> ?y . }", {});
  EXPECT_EQ(attr_true->count, 3u);
}

TEST(AmberEngineTest, DisconnectedQueryIsCrossProduct) {
  AmberEngine engine = MustBuild(ChainData());
  auto count = engine.CountSparql(
      "SELECT ?x ?a WHERE { ?x <urn:p> ?y . ?a <urn:q> ?b . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 3u * 1u);
}

TEST(AmberEngineTest, SelfLoopQuery) {
  std::vector<Triple> data = ChainData();
  data.push_back({Term::Iri("urn:s"), Term::Iri("urn:p"), Term::Iri("urn:s")});
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?x WHERE { ?x <urn:p> ?x . }", {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "<urn:s>");
}

TEST(AmberEngineTest, TimeoutIsReportedNotFatal) {
  // A large random graph and a hub-heavy query: with a 0-ish budget the
  // deadline must fire and be reported via stats.
  auto triples = testutil::RandomDataset(5, 200, 6000, 2);
  AmberEngine engine = MustBuild(triples);
  ExecOptions options;
  options.timeout = std::chrono::milliseconds(1);
  auto count = engine.CountSparql(
      "SELECT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p0> ?c . ?c <urn:p0> ?d . "
      "?d <urn:p0> ?e . ?e <urn:p0> ?f . }",
      options);
  ASSERT_TRUE(count.ok()) << count.status();
  // Either it finished very fast or it timed out; both are legal, but the
  // call must return promptly and without error.
  if (count->stats.timed_out) {
    EXPECT_LT(count->stats.elapsed_ms, 1000.0);
  }
}

TEST(AmberEngineTest, ParallelCountMatchesSerial) {
  auto triples = testutil::RandomDataset(11, 60, 500, 3);
  AmberEngine engine = MustBuild(triples);
  const char* query =
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . "
      "?a <urn:p2> ?d . }";
  auto serial = engine.CountSparql(query, {});
  ASSERT_TRUE(serial.ok());
  ExecOptions parallel;
  parallel.num_threads = 4;
  auto par = engine.CountSparql(query, parallel);
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(par->count, serial->count);
}

TEST(AmberEngineTest, AblationOptionsPreserveResults) {
  auto triples = testutil::RandomDataset(13, 50, 400, 4);
  AmberEngine engine = MustBuild(triples);
  const char* query =
      "SELECT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . ?a <urn:p2> ?d }";
  auto base = engine.CountSparql(query, {});
  ASSERT_TRUE(base.ok());

  ExecOptions no_sig;
  no_sig.use_signature_index = false;
  auto without_sig = engine.CountSparql(query, no_sig);
  ASSERT_TRUE(without_sig.ok());
  EXPECT_EQ(without_sig->count, base->count);

  ExecOptions no_order;
  no_order.plan.use_ordering_heuristics = false;
  auto without_order = engine.CountSparql(query, no_order);
  ASSERT_TRUE(without_order.ok());
  EXPECT_EQ(without_order->count, base->count);
}

TEST(AmberEngineTest, LoadRejectsGarbage) {
  // Text, and an artifact of the retired length-prefixed stream format
  // (u32 magic 0x414D4245, u32 version 2, then payload): neither is AMF.
  const std::string path = testing::TempDir() + "/engine_garbage_" +
                           std::to_string(::getpid()) + ".amber";
  std::string legacy("EBMA\x02\0\0\0", 8);
  legacy.resize(256, '\0');
  for (const std::string& bytes :
       {std::string("this is not an engine file"), legacy}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    auto loaded = AmberEngine::OpenFile(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(AmberEngineTest, BuildTimingsPopulated) {
  AmberEngine engine = MustBuild(ChainData());
  EXPECT_GE(engine.timings().encode_seconds, 0.0);
  EXPECT_GE(engine.timings().graph_seconds, 0.0);
  EXPECT_GE(engine.timings().index_seconds, 0.0);
  EXPECT_GT(engine.graph().ByteSize(), 0u);
  EXPECT_GT(engine.indexes().ByteSize(), 0u);
}

TEST(AmberEngineTest, StatsExposeSearchEffort) {
  AmberEngine engine = MustBuild(ChainData());
  auto count = engine.CountSparql(
      "SELECT ?x ?z WHERE { ?x <urn:p> ?y . ?y <urn:p> ?z . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count->stats.initial_candidates, 0u);
  EXPECT_GT(count->stats.recursion_calls, 0u);
  EXPECT_EQ(count->stats.embeddings_found, 2u);
}

TEST(AmberEngineTest, EmptyDataset) {
  AmberEngine engine = MustBuild({});
  auto count = engine.CountSparql("SELECT ?x WHERE { ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 0u);
}

}  // namespace
}  // namespace amber
