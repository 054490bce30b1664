// Factorized answer graphs (core/factorized.h): representation units —
// builder totals, DISTINCT duplicate dropping and collision fallback,
// cursor order and Skip arithmetic — plus engine-level differential checks
// that the answer graph counts, paginates and expands bit-identically to
// Stream, which expands each group as the matcher emits it, serially and in
// parallel.

#include "core/factorized.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "core/explain.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

std::vector<std::vector<VertexId>> AllRows(const FactorizedResult& r) {
  std::vector<std::vector<VertexId>> rows;
  FactorizedResult::Cursor cur = r.Expand();
  while (cur.Next()) {
    rows.emplace_back(cur.Row().begin(), cur.Row().end());
  }
  return rows;
}

TEST(FactorizedResultTest, GroupCardinalityIsProductTimesMultiplicity) {
  FactorizedResult::Group g;
  g.fixed = {1, 0, 0};
  g.lists = {{10, 11}, {20, 21, 22}};
  g.multiplicity = 4;
  EXPECT_EQ(g.Cardinality(), 4u * 2u * 3u);

  g.lists[0].clear();
  EXPECT_EQ(g.Cardinality(), 0u);
}

TEST(FactorizedResultTest, CursorReplaysOdometerOrder) {
  // Order contract: each row repeats `multiplicity` times consecutively,
  // then list 0 advances fastest — exactly the matcher's flat Emit loop.
  FactorizedResult r;
  r.num_slots = 3;
  r.slot_list = {kNoGroupList, 0, 1};
  FactorizedResult::Group g;
  g.fixed = {7, 0, 0};
  g.lists = {{1, 2}, {5, 6}};
  g.multiplicity = 2;
  r.groups.push_back(g);
  r.total_rows = g.Cardinality();

  const std::vector<std::vector<VertexId>> want = {
      {7, 1, 5}, {7, 1, 5}, {7, 2, 5}, {7, 2, 5},
      {7, 1, 6}, {7, 1, 6}, {7, 2, 6}, {7, 2, 6},
  };
  EXPECT_EQ(AllRows(r), want);

  FactorizedResult::Cursor cur = r.Expand();
  EXPECT_TRUE(cur.Next());
  EXPECT_EQ(cur.rows_expanded(), 1u);
}

TEST(FactorizedResultTest, SkipMatchesStepwiseIteration) {
  FactorizedResult r;
  r.num_slots = 2;
  r.slot_list = {kNoGroupList, 0};
  for (VertexId c = 0; c < 3; ++c) {
    FactorizedResult::Group g;
    g.fixed = {c, 0};
    g.lists = {{10, 11, 12}};
    g.multiplicity = 1 + c;  // cardinalities 3, 6, 9
    r.groups.push_back(std::move(g));
  }
  r.total_rows = 3 + 6 + 9;

  const std::vector<std::vector<VertexId>> all = AllRows(r);
  ASSERT_EQ(all.size(), r.total_rows);
  for (uint64_t n = 0; n <= r.total_rows + 1; ++n) {
    FactorizedResult::Cursor cur = r.Expand();
    cur.Skip(n);
    if (n >= all.size()) {
      EXPECT_FALSE(cur.Next()) << "skip " << n;
      continue;
    }
    ASSERT_TRUE(cur.Next()) << "skip " << n;
    EXPECT_EQ(std::vector<VertexId>(cur.Row().begin(), cur.Row().end()),
              all[n])
        << "skip " << n;
    // Whole-group skips never expand: only the returned row counts.
    EXPECT_EQ(cur.rows_expanded(), 1u) << "skip " << n;
  }
}

TEST(FactorizedResultTest, BuilderAccumulatesTotals) {
  FactorizedBuilder builder(2, {kNoGroupList, 0}, /*distinct=*/false,
                            /*cap=*/0);
  FactorizedResult::Group a;
  a.fixed = {1, 0};
  a.lists = {{10, 11}};
  FactorizedResult::Group b;
  b.fixed = {2, 0};
  b.lists = {{10, 11, 12}};
  b.multiplicity = 2;
  EXPECT_TRUE(builder.Add(std::move(a)));
  EXPECT_TRUE(builder.Add(std::move(b)));
  FactorizedResult r = builder.Finish();
  EXPECT_EQ(r.total_rows, 2u + 6u);
  EXPECT_EQ(r.represented_rows, 8u);
  EXPECT_FALSE(r.truncated);
  EXPECT_FALSE(r.needs_row_dedup);
  EXPECT_GT(r.ByteSize(), 0u);
}

TEST(FactorizedResultTest, BuilderCapStopsAndMarksTruncated) {
  FactorizedBuilder builder(2, {kNoGroupList, 0}, /*distinct=*/false,
                            /*cap=*/3);
  FactorizedResult::Group a;
  a.fixed = {1, 0};
  a.lists = {{10, 11}};
  FactorizedResult::Group b = a;
  b.fixed = {2, 0};
  EXPECT_TRUE(builder.Add(std::move(a)));   // total 2 < 3
  EXPECT_FALSE(builder.Add(std::move(b)));  // total 4 >= 3: stop, keep group
  FactorizedResult r = builder.Finish();
  EXPECT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.total_rows, 4u);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.row_limit, 3u);
}

TEST(FactorizedResultTest, DistinctCollisionKeepsExactTotals) {
  // Two groups share the projected-core key {1}; their lists overlap on
  // 6. The builder must flag both, route them through the row-level set,
  // and report the exact distinct total.
  FactorizedBuilder builder(2, {kNoGroupList, 0}, /*distinct=*/true,
                            /*cap=*/0);
  FactorizedResult::Group a;
  a.fixed = {1, 0};
  a.lists = {{5, 6}};
  FactorizedResult::Group b;
  b.fixed = {1, 0};
  b.lists = {{6, 7}};
  FactorizedResult::Group c;  // distinct key: stays compact
  c.fixed = {2, 0};
  c.lists = {{5, 6}};
  EXPECT_TRUE(builder.Add(std::move(a)));
  EXPECT_TRUE(builder.Add(std::move(b)));
  EXPECT_TRUE(builder.Add(std::move(c)));
  EXPECT_EQ(builder.rows_expanded(), 4u);  // both colliding groups expanded
  FactorizedResult r = builder.Finish();
  EXPECT_EQ(r.total_rows, 3u + 2u);  // {1,5},{1,6},{1,7} + {2,5},{2,6}
  EXPECT_TRUE(r.needs_row_dedup);
  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_TRUE(r.groups[0].needs_dedup);
  EXPECT_TRUE(r.groups[1].needs_dedup);
  EXPECT_FALSE(r.groups[2].needs_dedup);

  const std::vector<std::vector<VertexId>> want = {
      {1, 5}, {1, 6}, {1, 7}, {2, 5}, {2, 6}};
  EXPECT_EQ(AllRows(r), want);

  // Skip through the flagged region still lands on the right row (the
  // skipped duplicates feed the dedup set instead of counting).
  FactorizedResult::Cursor cur = r.Expand();
  cur.Skip(2);
  ASSERT_TRUE(cur.Next());
  EXPECT_EQ(cur.Row()[1], 7u);
}

TEST(FactorizedResultTest, DistinctDropsDuplicateAllCoreGroups) {
  // No projected slot is a satellite (two corners of a 4-cycle, say): a
  // group is its key, so a colliding group is an identical row and is
  // dropped instead of flagging both groups for row-level dedup.
  FactorizedBuilder builder(2, {kNoGroupList, kNoGroupList},
                            /*distinct=*/true, /*cap=*/0);
  const std::vector<std::vector<VertexId>> keys = {
      {1, 2}, {3, 4}, {1, 2}, {5, 6}, {3, 4}};
  for (const std::vector<VertexId>& key : keys) {
    FactorizedResult::Group g;
    g.fixed = key;
    EXPECT_TRUE(builder.Add(std::move(g)));
  }
  EXPECT_EQ(builder.rows_expanded(), 0u);
  FactorizedResult r = builder.Finish();
  EXPECT_EQ(r.total_rows, 3u);
  EXPECT_FALSE(r.needs_row_dedup);
  const std::vector<std::vector<VertexId>> want = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(AllRows(r), want);
}

TEST(FactorizedResultTest, BuildSlotListFirstAppearanceOrder) {
  const std::vector<uint32_t> projection = {0, 2, 1, 2};
  const std::vector<bool> is_core = {true, false, false};
  const std::vector<uint32_t> slots = BuildSlotList(projection, is_core);
  const std::vector<uint32_t> want = {kNoGroupList, 0, 1, 0};
  EXPECT_EQ(slots, want);
}

// ---------------------------------------------------------------------------
// Engine-level differential checks.
// ---------------------------------------------------------------------------

// `centers` star centers, each with `fanout` p0-objects and `fanout`
// p1-objects: the two-satellite query below has centers * fanout^2 rows
// but only `centers` groups.
std::vector<Triple> FanoutDataset(int centers, int fanout,
                                  int shared_objects = 0) {
  std::vector<Triple> data;
  for (int c = 0; c < centers; ++c) {
    Term center = Term::Iri("urn:c" + std::to_string(c));
    for (int i = 0; i < fanout; ++i) {
      data.emplace_back(
          center, Term::Iri("urn:p0"),
          Term::Iri("urn:a" + std::to_string(c) + "_" + std::to_string(i)));
      data.emplace_back(
          center, Term::Iri("urn:p1"),
          Term::Iri("urn:b" + std::to_string(c) + "_" + std::to_string(i)));
    }
    for (int i = 0; i < shared_objects; ++i) {
      data.emplace_back(center, Term::Iri("urn:p0"),
                        Term::Iri("urn:shared" + std::to_string(i)));
    }
  }
  return data;
}

constexpr char kTwoSatelliteQuery[] =
    "SELECT ?c ?a ?b WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b . }";

class FactorizedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = AmberEngine::Build(FanoutDataset(4, 5, /*shared=*/2));
    ASSERT_TRUE(engine.ok()) << engine.status();
    engine_ = std::make_unique<AmberEngine>(std::move(engine).value());
  }

  SelectQuery Parse(const std::string& text) {
    auto parsed = SparqlParser::Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return std::move(parsed).value();
  }

  std::unique_ptr<AmberEngine> engine_;
};

TEST_F(FactorizedEngineTest, CountNeverTouchesTheOdometer) {
  SelectQuery q = Parse(kTwoSatelliteQuery);
  auto count = engine_->Count(q, {});
  ASSERT_TRUE(count.ok());
  // 4 centers × (5 own + 2 shared) p0-objects × 5 p1-objects.
  EXPECT_EQ(count->count, 4u * 7u * 5u);
  EXPECT_EQ(count->stats.rows_expanded, 0u);
  EXPECT_EQ(count->stats.groups_emitted, 4u);
  EXPECT_EQ(count->stats.factorized_rows_represented, count->count);
}

TEST_F(FactorizedEngineTest, FactorizeCountsWithoutExpansion) {
  SelectQuery q = Parse(kTwoSatelliteQuery);
  auto fact = engine_->Factorize(q, {});
  ASSERT_TRUE(fact.ok()) << fact.status();
  EXPECT_EQ(fact->result.total_rows, 4u * 7u * 5u);
  EXPECT_EQ(fact->result.groups.size(), 4u);
  EXPECT_EQ(fact->stats.rows_expanded, 0u);
  EXPECT_GT(fact->stats.bytes_factorized, 0u);
  ASSERT_EQ(fact->var_names.size(), 3u);
  EXPECT_EQ(fact->var_names[0], "c");
}

TEST_F(FactorizedEngineTest, MaterializeBitIdenticalAcrossForms) {
  for (const char* text :
       {kTwoSatelliteQuery,
        "SELECT ?a ?c WHERE { ?c <urn:p0> ?a . }",
        "SELECT DISTINCT ?a WHERE { ?c <urn:p0> ?a . }",
        "SELECT ?c ?a ?b WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b . } "
        "LIMIT 11"}) {
    SCOPED_TRACE(text);
    SelectQuery q = Parse(text);
    StreamResult flat;
    const std::vector<std::vector<std::string>> want =
        testutil::StreamedRows(*engine_, q, {}, &flat);
    auto got = engine_->Materialize(q, {});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->rows, want);  // exact order, not canonical
    EXPECT_EQ(got->stats.rows, flat.stats.rows);
    EXPECT_EQ(got->stats.truncated, flat.stats.truncated);
  }
}

TEST_F(FactorizedEngineTest, ExpandedCursorMatchesMaterialize) {
  SelectQuery q = Parse(kTwoSatelliteQuery);
  auto flat = engine_->Materialize(q, {});
  ASSERT_TRUE(flat.ok());

  auto fact = engine_->Factorize(q, {});
  ASSERT_TRUE(fact.ok());
  EXPECT_EQ(fact->var_names, flat->var_names);

  std::vector<std::vector<std::string>> expanded;
  FactorizedResult::Cursor cur = fact->result.Expand();
  while (cur.Next()) {
    expanded.push_back(engine_->TranslateRow(cur.Row()));
  }
  EXPECT_EQ(expanded, flat->rows);
  EXPECT_EQ(cur.rows_expanded(), flat->rows.size());
}

TEST_F(FactorizedEngineTest, DeepOffsetPageExpandsOnlyTheBoundary) {
  SelectQuery q = Parse(kTwoSatelliteQuery);
  auto flat = engine_->Materialize(q, {});
  ASSERT_TRUE(flat.ok());
  const uint64_t total = flat->rows.size();
  ASSERT_GT(total, 20u);

  auto fact = engine_->Factorize(q, {});
  ASSERT_TRUE(fact.ok());

  uint64_t max_group_card = 0;
  for (const FactorizedResult::Group& g : fact->result.groups) {
    max_group_card = std::max(max_group_card, g.Cardinality());
  }

  const uint64_t page = 5;
  for (uint64_t offset : {uint64_t{0}, total / 2, total - 7, total - 1}) {
    FactorizedResult::Cursor cur = fact->result.Expand();
    cur.Skip(offset);
    std::vector<std::vector<std::string>> rows;
    for (uint64_t i = 0; i < page && cur.Next(); ++i) {
      rows.push_back(engine_->TranslateRow(cur.Row()));
    }
    const uint64_t end = std::min(offset + page, total);
    ASSERT_EQ(rows.size(), end - offset) << "offset " << offset;
    for (uint64_t i = offset; i < end; ++i) {
      EXPECT_EQ(rows[i - offset], flat->rows[i]) << "row " << i;
    }
    // The pagination bound: only the page itself is ever expanded (plus,
    // in the worst case, the remainder of the boundary group — which
    // Skip's division positioning avoids here entirely).
    EXPECT_LE(cur.rows_expanded(), page + max_group_card)
        << "offset " << offset;
  }
}

TEST_F(FactorizedEngineTest, ParallelFactorizedMatchesSerial) {
  // The parallel answer graph must be the serial one group by group: the
  // one builder sees the serial groups in the serial order, including the
  // DISTINCT collisions of the fixture's shared objects.
  for (const char* text :
       {kTwoSatelliteQuery,
        "SELECT DISTINCT ?a WHERE { ?c <urn:p0> ?a . }",
        "SELECT DISTINCT ?a WHERE { ?c <urn:p0> ?a . } LIMIT 6",
        "SELECT ?c ?a WHERE { ?c <urn:p0> ?a . } LIMIT 9"}) {
    SCOPED_TRACE(text);
    SelectQuery q = Parse(text);
    ExecOptions serial;
    auto sf = engine_->Factorize(q, serial);
    auto sm = engine_->Materialize(q, serial);
    ASSERT_TRUE(sf.ok());
    ASSERT_TRUE(sm.ok());
    for (int threads : {2, 3, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecOptions par;
      par.num_threads = threads;
      auto pf = engine_->Factorize(q, par);
      ASSERT_TRUE(pf.ok());
      EXPECT_EQ(pf->result.total_rows, sf->result.total_rows);
      EXPECT_EQ(pf->result.represented_rows, sf->result.represented_rows);
      EXPECT_EQ(pf->result.truncated, sf->result.truncated);
      EXPECT_EQ(pf->result.needs_row_dedup, sf->result.needs_row_dedup);
      ASSERT_EQ(pf->result.groups.size(), sf->result.groups.size());
      for (size_t i = 0; i < sf->result.groups.size(); ++i) {
        const FactorizedResult::Group& want = sf->result.groups[i];
        const FactorizedResult::Group& got = pf->result.groups[i];
        EXPECT_EQ(got.lists, want.lists) << "group " << i;
        EXPECT_EQ(got.multiplicity, want.multiplicity) << "group " << i;
        EXPECT_EQ(got.needs_dedup, want.needs_dedup) << "group " << i;
      }
      EXPECT_EQ(AllRows(pf->result), AllRows(sf->result));

      auto pm = engine_->Materialize(q, par);
      ASSERT_TRUE(pm.ok());
      EXPECT_EQ(pm->rows, sm->rows);
    }
  }
}

TEST_F(FactorizedEngineTest, EmptyResultFactorizes) {
  SelectQuery q =
      Parse("SELECT ?x ?y WHERE { ?x <urn:nosuch> ?y . }");
  auto fact = engine_->Factorize(q, {});
  ASSERT_TRUE(fact.ok());
  EXPECT_EQ(fact->result.total_rows, 0u);
  EXPECT_TRUE(fact->result.groups.empty());
  FactorizedResult::Cursor cur = fact->result.Expand();
  EXPECT_FALSE(cur.Next());
}

TEST_F(FactorizedEngineTest, ExplainReportsResultForm) {
  SelectQuery q = Parse(kTwoSatelliteQuery);
  ExecOptions opts;
  auto text = ExplainQuery(q, engine_->dictionaries(), &engine_->indexes(),
                           {}, &opts);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("Result form: factorized (2 satellite vertices"),
            std::string::npos)
      << *text;

  auto count = engine_->Count(q, {});
  ASSERT_TRUE(count.ok());
  auto with_stats = ExplainQuery(q, engine_->dictionaries(),
                                 &engine_->indexes(), {}, &opts,
                                 &count->stats);
  ASSERT_TRUE(with_stats.ok());
  EXPECT_NE(with_stats->find("groups emitted: 4"), std::string::npos)
      << *with_stats;
  EXPECT_NE(with_stats->find("(never expanded)"), std::string::npos)
      << *with_stats;

  // A triangle is all core: every group of its answer graph is one row.
  SelectQuery triangle = Parse(
      "SELECT ?a ?b ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p0> ?c . "
      "?c <urn:p0> ?a . }");
  auto core_text = ExplainQuery(triangle, engine_->dictionaries(),
                                &engine_->indexes(), {}, &opts);
  ASSERT_TRUE(core_text.ok());
  EXPECT_NE(core_text->find("Result form: factorized (no satellites"),
            std::string::npos)
      << *core_text;
}

// Random differential sweep: Materialize (the answer graph) must stay
// bit-identical to serial Stream (no answer graph) over random
// data/queries, serial and parallel, with and without caps.
TEST(FactorizedDifferentialTest, RandomQueriesAgreeAcrossForms) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    auto data = testutil::RandomDataset(seed, 12, 60, 3);
    auto engine = AmberEngine::Build(data);
    ASSERT_TRUE(engine.ok());
    for (int qi = 0; qi < 8; ++qi) {
      std::string text =
          testutil::RandomQueryFromData(data, seed * 100 + qi, 3);
      SCOPED_TRACE(text);
      auto parsed = SparqlParser::Parse(text);
      ASSERT_TRUE(parsed.ok());
      const std::vector<std::vector<std::string>> flat =
          testutil::StreamedRows(*engine, *parsed);
      for (int threads : {1, 2}) {
        for (uint64_t cap : {uint64_t{0}, uint64_t{3}}) {
          ExecOptions opts;
          opts.num_threads = threads;
          opts.max_rows = cap;
          auto got = engine->Materialize(*parsed, opts);
          ASSERT_TRUE(got.ok());
          std::vector<std::vector<std::string>> want = flat;
          if (cap != 0 && want.size() > cap) want.resize(cap);
          EXPECT_EQ(got->rows, want)
              << "threads=" << threads << " cap=" << cap;
        }
      }
    }
  }
}

}  // namespace
}  // namespace amber
