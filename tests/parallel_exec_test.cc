// Determinism suite for the parallel online matching stage: for every
// execution shape (SELECT, DISTINCT, tight LIMITs, counting and
// materializing) and both engine origins (fresh build, mmap OpenFile),
// serial and 2/4/8-thread execution must return
// BIT-IDENTICAL result rows — same rows, same order — and identical
// counts. Materialize reads the answer graph, so every shape is checked
// against serial Stream, which builds none. Also pins the parallel
// ExecStats contract (threads_used / tasks_dispatched, counter
// aggregation) and edge cases (empty results, single root candidate,
// multi-component cross products, ground-only queries).

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "core/explain.h"
#include "gen/paper_example.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

/// Runs `text` serially and at 2/4/8 threads and asserts materialized rows
/// bit-identical (order included) to the serial stream — rows expanded as
/// the matcher emits them, independent of the answer graph Materialize
/// expands — plus counts that match the row count.
void CheckDeterminism(AmberEngine& engine, const std::string& text,
                      const ExecOptions& base = {}) {
  SCOPED_TRACE("query:\n" + text);
  auto parsed = SparqlParser::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExecOptions serial = base;
  serial.num_threads = 1;
  StreamResult stream;
  const std::vector<std::vector<std::string>> want =
      testutil::StreamedRows(engine, *parsed, serial, &stream);

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions options = base;
    options.num_threads = threads;
    auto got = engine.Materialize(*parsed, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->var_names, stream.var_names);
    // Exact vector equality: rows AND their order must match the stream.
    EXPECT_EQ(got->rows, want) << "rows differ from serial Stream";
    EXPECT_EQ(got->stats.truncated, stream.stats.truncated);

    auto count = engine.Count(*parsed, options);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->count, want.size());
    EXPECT_EQ(count->stats.truncated, stream.stats.truncated);
  }
}

TEST(ParallelExecTest, RandomWorkloadsBitIdentical) {
  for (uint64_t seed : {3u, 7u, 21u}) {
    auto data = testutil::RandomDataset(seed, 15, 80, 4);
    AmberEngine engine = MustBuild(data);
    for (int qi = 0; qi < 8; ++qi) {
      CheckDeterminism(engine,
                       testutil::RandomQueryFromData(data, seed * 77 + qi, 3));
    }
  }
}

TEST(ParallelExecTest, PaperExampleBitIdentical) {
  AmberEngine engine = MustBuild(testutil::MustParse(kPaperExampleNTriples));
  CheckDeterminism(engine, kPaperExampleQuery);
  CheckDeterminism(engine, kPaperExampleQueryLiteralFig2a);
}

TEST(ParallelExecTest, DistinctBitIdentical) {
  auto data = testutil::RandomDataset(42, 12, 70, 3);
  AmberEngine engine = MustBuild(data);
  const char* queries[] = {
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }",
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . ?a <urn:p1> ?c . }",
      "SELECT DISTINCT ?b WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }",
      "SELECT DISTINCT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . "
      "?a <urn:p2> ?d . }",
  };
  for (const char* text : queries) CheckDeterminism(engine, text);
}

TEST(ParallelExecTest, TightLimitsBitIdentical) {
  auto data = testutil::RandomDataset(5, 20, 140, 3);
  AmberEngine engine = MustBuild(data);
  const char* base = "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }";
  // LIMIT via options.max_rows: 1 row, a handful, more than the result.
  for (uint64_t cap : {1u, 2u, 3u, 7u, 100000u}) {
    ExecOptions options;
    options.max_rows = cap;
    CheckDeterminism(engine, base, options);
  }
  // LIMIT clause in the query text, DISTINCT + LIMIT combined.
  CheckDeterminism(engine, std::string(base) + " LIMIT 1");
  CheckDeterminism(engine, std::string(base) + " LIMIT 5");
  CheckDeterminism(
      engine,
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } "
      "LIMIT 3");
  CheckDeterminism(
      engine,
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } "
      "LIMIT 1");
}

TEST(ParallelExecTest, RestoredEnginesBitIdentical) {
  auto data = testutil::RandomDataset(9, 15, 90, 3);
  AmberEngine fresh = MustBuild(data);

  const std::string path = testing::TempDir() + "/parallel_exec_" +
                           std::to_string(::getpid()) + ".amf";
  ASSERT_TRUE(fresh.SaveFile(path).ok());
  auto mapped = AmberEngine::OpenFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  for (int qi = 0; qi < 5; ++qi) {
    std::string text = testutil::RandomQueryFromData(data, 500 + qi, 3);
    for (AmberEngine* engine : {&fresh, &*mapped}) {
      CheckDeterminism(*engine, text);
    }
    // And the two engines agree with each other at 4 threads.
    ExecOptions par;
    par.num_threads = 4;
    auto a = fresh.MaterializeSparql(text, par);
    auto b = mapped->MaterializeSparql(text, par);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->rows, b->rows);
  }
}

TEST(ParallelExecTest, FilterQueriesBitIdentical) {
  auto data =
      testutil::RandomDataset(17, 12, 60, 3, 4, /*num_numeric_attrs=*/40);
  AmberEngine engine = MustBuild(data);
  CheckDeterminism(engine,
                   "SELECT ?x WHERE { ?x <urn:num0> ?a . FILTER(?a > 20) }");
  CheckDeterminism(engine,
                   "SELECT ?x ?y WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
                   "FILTER(?a < 35) }");
  for (int qi = 0; qi < 6; ++qi) {
    CheckDeterminism(engine,
                     testutil::RandomFilterQueryFromData(data, 8800 + qi, 3));
  }
  // Post-filter ablation mode is parallelized identically.
  ExecOptions post_filter;
  post_filter.use_value_index = false;
  CheckDeterminism(engine,
                   "SELECT ?x ?y WHERE { ?x <urn:p0> ?y . ?x <urn:num0> ?a . "
                   "FILTER(?a < 35) }",
                   post_filter);
}

TEST(ParallelExecTest, EdgeShapesBitIdentical) {
  auto data = testutil::RandomDataset(13, 10, 50, 3);
  AmberEngine engine = MustBuild(data);
  // Multi-component cross product (components after the first are chained
  // inside each worker).
  CheckDeterminism(engine,
                   "SELECT ?a ?x WHERE { ?a <urn:p0> ?b . ?x <urn:p1> ?y . }");
  // Star with satellites (Cartesian expansion inside chunks).
  CheckDeterminism(engine,
                   "SELECT ?c ?a ?b WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b "
                   ". }");
  // Empty result.
  CheckDeterminism(
      engine, "SELECT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:nosuch> ?c . }");
  // Ground-only query (stays on the serial path; must still work with
  // num_threads set).
  auto dict_rows = engine.MaterializeSparql(
      "SELECT ?a WHERE { ?a <urn:p0> ?b . }", {});
  ASSERT_TRUE(dict_rows.ok());
  if (!dict_rows->rows.empty()) {
    const std::string subject = dict_rows->rows[0][0];
    CheckDeterminism(engine, "SELECT ?z WHERE { ?z <urn:p0> ?y . " + subject +
                                 " <urn:p0> ?w . }");
  }
}

TEST(ParallelExecTest, StatsReportFanOutAndAggregation) {
  auto data = testutil::RandomDataset(11, 40, 400, 3);
  AmberEngine engine = MustBuild(data);
  const char* text =
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }";

  ExecOptions serial;
  auto s = engine.CountSparql(text, serial);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stats.threads_used, 0u);
  EXPECT_EQ(s->stats.tasks_dispatched, 0u);
  ASSERT_GT(s->stats.initial_candidates, 1u);

  ExecOptions par;
  par.num_threads = 4;
  auto p = engine.CountSparql(text, par);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->count, s->count);
  EXPECT_GE(p->stats.threads_used, 2u);
  EXPECT_LE(p->stats.threads_used, 4u);
  EXPECT_GE(p->stats.tasks_dispatched, p->stats.threads_used);
  // CandInit is attributed once, not per worker.
  EXPECT_EQ(p->stats.initial_candidates, s->stats.initial_candidates);
  // The same total matching work happened (recursion is partition-
  // independent for a fixed root candidate set).
  EXPECT_EQ(p->stats.recursion_calls, s->stats.recursion_calls);
  EXPECT_EQ(p->stats.embeddings_found, s->stats.embeddings_found);
  EXPECT_GT(p->stats.peak_arena_bytes, 0u);
}

TEST(ParallelExecTest, ExplainReportsParallelStage) {
  auto data = testutil::RandomDataset(11, 12, 60, 3);
  AmberEngine engine = MustBuild(data);
  auto parsed = SparqlParser::Parse(
      "SELECT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }");
  ASSERT_TRUE(parsed.ok());

  ExecOptions par;
  par.num_threads = 4;
  auto text = ExplainQuery(*parsed, engine.dictionaries(), &engine.indexes(),
                           {}, &par);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Parallel online stage: 4 threads"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("chunk-order merge"), std::string::npos);

  ExecOptions serial;
  auto serial_text = ExplainQuery(*parsed, engine.dictionaries(),
                                  &engine.indexes(), {}, &serial);
  ASSERT_TRUE(serial_text.ok());
  EXPECT_NE(serial_text->find("Parallel online stage: serial"),
            std::string::npos);

  // Without exec options the plan text is unchanged (no parallel line).
  auto plain = ExplainQuery(*parsed, engine.dictionaries(), &engine.indexes());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("Parallel online stage"), std::string::npos);
}

TEST(ParallelExecTest, TimeoutIsAPerQueryBudgetAcrossChunks) {
  // A 4-cycle over a dense single-predicate graph: every variable is core
  // (degree 2), so enumeration is real recursion — millions of extension
  // steps, unfinishable inside the budget. The shared absolute deadline
  // must bound the whole parallel run near the per-QUERY timeout — not
  // timeout-per-chunk (the old failure mode: each chunk Run restarting
  // the clock, stretching wall time towards timeout * num_chunks).
  auto data = testutil::RandomDataset(2, 200, 20000, 1);
  AmberEngine engine = MustBuild(data);
  const char* text =
      "SELECT ?a ?b ?c ?d WHERE { ?a <urn:p0> ?b . ?b <urn:p0> ?c . "
      "?c <urn:p0> ?d . ?d <urn:p0> ?a . }";

  ExecOptions par;
  par.num_threads = 4;
  par.timeout = std::chrono::milliseconds(40);
  auto r = engine.CountSparql(text, par);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.timed_out);
  ASSERT_GT(r->stats.tasks_dispatched, 2u);
  // Generous slack for loaded/sanitized CI: fail only on the per-chunk
  // restart pathology, which lands near 40ms * tasks_dispatched.
  EXPECT_LT(r->stats.elapsed_ms,
            40.0 * static_cast<double>(r->stats.tasks_dispatched) / 2.0);
}

TEST(ParallelExecTest, ThreadCountBeyondCandidatesIsGraceful) {
  // More threads than root candidates: workers clamp to the candidate
  // count and results stay identical.
  std::vector<Triple> data;
  auto iri = [](const std::string& s) { return Term::Iri("urn:" + s); };
  data.push_back({iri("a"), iri("p"), iri("b")});
  data.push_back({iri("b"), iri("q"), iri("c")});
  AmberEngine engine = MustBuild(data);
  CheckDeterminism(engine,
                   "SELECT ?x ?z WHERE { ?x <urn:p> ?y . ?y <urn:q> ?z . }");
}

}  // namespace
}  // namespace amber
