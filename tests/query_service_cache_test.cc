// Cache correctness for the serving runtime: key normalization
// (whitespace / comment / variable-rename equivalences collapse to one
// key; semantically different queries never collide), LRU eviction and the
// hit/miss/eviction counters, differential identity of cached vs uncached
// responses, count/rows handle sharing, and the no-caching-of-timeouts
// rule.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

std::string MustKey(const std::string& text) {
  auto nq = NormalizeQuery(text);
  EXPECT_TRUE(nq.ok()) << nq.status() << "\n" << text;
  return nq.ok() ? nq->key : "<parse error: " + text + ">";
}

TEST(QueryServiceCacheTest, NormalizationCollapsesSpellingVariants) {
  const std::string canonical = MustKey(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }");

  // Whitespace and newlines.
  EXPECT_EQ(MustKey("SELECT   ?a\t?c\nWHERE  {\n  ?a <urn:p0> ?b .\n"
                    "  ?b <urn:p1> ?c .\n}"),
            canonical);
  // Comments.
  EXPECT_EQ(MustKey("# leading comment\nSELECT ?a ?c # trailing\n"
                    "WHERE { ?a <urn:p0> ?b . # mid\n ?b <urn:p1> ?c . }"),
            canonical);
  // Variable renaming (including $-style variables).
  EXPECT_EQ(MustKey("SELECT ?x ?z WHERE { ?x <urn:p0> ?y . "
                    "?y <urn:p1> ?z . }"),
            canonical);
  EXPECT_EQ(MustKey("SELECT $s $o WHERE { $s <urn:p0> $m . "
                    "$m <urn:p1> $o . }"),
            canonical);

  // FILTER queries normalize too (filter variable renamed consistently).
  EXPECT_EQ(
      MustKey("SELECT ?a WHERE { ?a <urn:num0> ?v . FILTER(?v > 10) }"),
      MustKey("SELECT ?x WHERE { ?x <urn:num0> ?w .\n# c\nFILTER(?w > 10)\n"
              "}"));
}

TEST(QueryServiceCacheTest, SemanticallyDifferentQueriesNeverCollide) {
  const char* base = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";
  const char* variants[] = {
      // Different predicate.
      "SELECT ?a WHERE { ?a <urn:p1> ?b . }",
      // Different projected position.
      "SELECT ?b WHERE { ?a <urn:p0> ?b . }",
      // Extra pattern.
      "SELECT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p0> ?c . }",
      // DISTINCT.
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }",
      // LIMIT (different cap = different result set).
      "SELECT ?a WHERE { ?a <urn:p0> ?b . } LIMIT 2",
      // Reversed direction.
      "SELECT ?a WHERE { ?b <urn:p0> ?a . }",
      // Same shape but the two variables collapsed into one (self-loop).
      "SELECT ?a WHERE { ?a <urn:p0> ?a . }",
  };
  const std::string base_key = MustKey(base);
  for (const char* v : variants) {
    EXPECT_NE(MustKey(v), base_key) << v;
  }
  // Projection ORDER is semantic (column order): must not collide.
  EXPECT_NE(
      MustKey("SELECT ?a ?b WHERE { ?a <urn:p0> ?b . }"),
      MustKey("SELECT ?b ?a WHERE { ?a <urn:p0> ?b . }"));
  // Different FILTER constants / operators must not collide.
  EXPECT_NE(
      MustKey("SELECT ?a WHERE { ?a <urn:num0> ?v . FILTER(?v > 10) }"),
      MustKey("SELECT ?a WHERE { ?a <urn:num0> ?v . FILTER(?v > 11) }"));
  EXPECT_NE(
      MustKey("SELECT ?a WHERE { ?a <urn:num0> ?v . FILTER(?v > 10) }"),
      MustKey("SELECT ?a WHERE { ?a <urn:num0> ?v . FILTER(?v >= 10) }"));
}

TEST(QueryServiceCacheTest, SpellingVariantsHitAndKeepRequestVarNames) {
  auto data = testutil::RandomDataset(7, 12, 70, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  auto first = service.Query(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }", {});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(first->var_names, (std::vector<std::string>{"a", "c"}));

  // Renamed + reformatted variant: must HIT, and must come back with the
  // *request's* variable spellings, not the cached canonical ones.
  auto second = service.Query(
      "# cached?\nSELECT ?first ?last\nWHERE {\n ?first <urn:p0> ?mid .\n"
      " ?mid <urn:p1> ?last . }",
      {});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->var_names, (std::vector<std::string>{"first", "last"}));
  EXPECT_EQ(second->rows, first->rows);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(QueryServiceCacheTest, EvictionIsLruAndCountersArePinned) {
  auto data = testutil::RandomDataset(9, 12, 60, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 2;
  QueryService service(&engine, options);

  const std::string q1 = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";
  const std::string q2 = "SELECT ?a WHERE { ?a <urn:p1> ?b . }";
  const std::string q3 = "SELECT ?a WHERE { ?a <urn:p2> ?b . }";

  ASSERT_TRUE(service.Query(q1, {}).ok());  // miss -> {q1}
  ASSERT_TRUE(service.Query(q2, {}).ok());  // miss -> {q1, q2}
  ASSERT_TRUE(service.Query(q1, {}).ok());  // hit, q1 now most recent
  ASSERT_TRUE(service.Query(q3, {}).ok());  // miss -> evicts q2 (LRU)

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 2u);

  // q1 must still be cached (was touched); q2 must have been evicted.
  auto r1 = service.Query(q1, {});
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->cache_hit);
  auto r2 = service.Query(q2, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->cache_hit);
}

TEST(QueryServiceCacheTest, CachedAndUncachedResponsesDifferentiallyIdentical) {
  auto data = testutil::RandomDataset(13, 15, 90, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 32;
  QueryService service(&engine, options);

  std::vector<std::string> texts;
  for (int qi = 0; qi < 6; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(data, 300 + qi, 3));
  }
  texts.push_back(
      "SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } "
      "LIMIT 3");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 5");

  for (const std::string& text : texts) {
    for (const auto& [offset, limit] :
         std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 0}, {0, 3}, {2, 2}, {5, 0}}) {
      RequestOptions cached;
      cached.offset = offset;
      cached.limit = limit;
      RequestOptions bypass = cached;
      bypass.bypass_cache = true;

      auto warm = service.Query(text, cached);   // miss or hit
      auto hit = service.Query(text, cached);    // definitely a hit
      auto raw = service.Query(text, bypass);    // fresh execution
      ASSERT_TRUE(warm.ok() && hit.ok() && raw.ok());
      EXPECT_TRUE(hit->cache_hit);
      EXPECT_FALSE(raw->cache_hit);
      EXPECT_EQ(hit->rows, raw->rows) << text;
      EXPECT_EQ(warm->rows, raw->rows) << text;
      EXPECT_EQ(hit->var_names, raw->var_names);
      EXPECT_EQ(hit->total_rows, raw->total_rows);
      EXPECT_EQ(hit->truncated, raw->truncated);
    }
  }
}

TEST(QueryServiceCacheTest, CountServedFromCompleteRowHandle) {
  auto data = testutil::RandomDataset(17, 12, 70, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  const std::string text =
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }";
  auto rows = service.Query(text, {});
  ASSERT_TRUE(rows.ok());
  ASSERT_FALSE(rows->truncated);

  RequestOptions count;
  count.count_only = true;
  auto counted = service.Query(text, count);
  ASSERT_TRUE(counted.ok());
  EXPECT_TRUE(counted->cache_hit);  // complete row handle answers counts
  EXPECT_EQ(counted->total_rows, rows->total_rows);

  // The reverse: a count-only entry canNOT answer a materializing request.
  const std::string other =
      "SELECT ?a WHERE { ?a <urn:p1> ?b . }";
  auto counted_first = service.Query(other, count);
  ASSERT_TRUE(counted_first.ok());
  EXPECT_FALSE(counted_first->cache_hit);
  auto rows_after = service.Query(other, {});
  ASSERT_TRUE(rows_after.ok());
  EXPECT_FALSE(rows_after->cache_hit);  // rows were not retained yet
  EXPECT_EQ(rows_after->total_rows, counted_first->total_rows);
  // ... but now the entry holds both handles: both modes hit.
  auto both = service.Query(other, count);
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->cache_hit);
}

TEST(QueryServiceCacheTest, TruncatedHandleDoesNotAnswerCounts) {
  auto data = testutil::RandomDataset(19, 15, 120, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 8;
  options.max_result_rows = 2;  // force truncation of retained handles
  QueryService service(&engine, options);

  const std::string text =
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . }";
  ExecOptions serial;
  auto reference = engine.MaterializeSparql(text, serial);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->rows.size(), 2u) << "fixture must exceed the cap";

  auto rows = service.Query(text, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->truncated);
  EXPECT_EQ(rows->total_rows, 2u);
  // The truncated prefix is still the serial prefix, bit for bit.
  EXPECT_EQ(rows->rows[0], reference->rows[0]);
  EXPECT_EQ(rows->rows[1], reference->rows[1]);

  // A count request must NOT be served from the truncated handle: it
  // re-executes (uncapped count) and returns the true total.
  RequestOptions count;
  count.count_only = true;
  auto counted = service.Query(text, count);
  ASSERT_TRUE(counted.ok());
  EXPECT_FALSE(counted->cache_hit);
  EXPECT_EQ(counted->total_rows, reference->rows.size());
}

/// Engine stub whose executions always report a timeout: pins the rule
/// that timed-out (partial) results never enter the cache.
class TimingOutEngine : public QueryEngine {
 public:
  std::string name() const override { return "TimingOut"; }
  Result<CountResult> Count(const SelectQuery&,
                            const ExecOptions&) override {
    ++executions;
    CountResult r;
    r.count = 0;
    r.stats.timed_out = true;
    return r;
  }
  Result<MaterializedRows> Materialize(const SelectQuery&,
                                       const ExecOptions&) override {
    ++executions;
    MaterializedRows r;
    r.stats.timed_out = true;
    return r;
  }
  int executions = 0;
};

TEST(QueryServiceCacheTest, TimedOutResultsAreNeverCached) {
  TimingOutEngine engine;
  ServiceOptions options;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  const std::string text = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";
  for (int i = 0; i < 3; ++i) {
    auto resp = service.Query(text, {});
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->timed_out);
    EXPECT_FALSE(resp->cache_hit);
  }
  EXPECT_EQ(engine.executions, 3);  // every request re-executed
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.timed_out, 3u);
}

/// Engine stub returning a fixed number of fixed-size rows: entry sizes
/// are identical across queries, so byte-budget arithmetic is exact.
class SizedRowsEngine : public QueryEngine {
 public:
  SizedRowsEngine(uint64_t rows, size_t cell_chars)
      : rows_(rows), cell_chars_(cell_chars) {}
  std::string name() const override { return "SizedRows"; }
  Result<CountResult> Count(const SelectQuery&,
                            const ExecOptions&) override {
    ++executions;
    CountResult r;
    r.count = rows_;
    return r;
  }
  Result<MaterializedRows> Materialize(const SelectQuery& query,
                                       const ExecOptions&) override {
    ++executions;
    MaterializedRows r;
    r.var_names = query.projection;
    for (uint64_t i = 0; i < rows_; ++i) {
      r.rows.push_back(std::vector<std::string>(
          query.projection.size(), std::string(cell_chars_, 'x')));
    }
    return r;
  }
  int executions = 0;

 private:
  uint64_t rows_;
  size_t cell_chars_;
};

// Three queries whose normalized keys have identical length (only the
// predicate digit differs), so their accounted entry sizes are equal.
const char* kSizedQ1 = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";
const char* kSizedQ2 = "SELECT ?a WHERE { ?a <urn:p1> ?b . }";
const char* kSizedQ3 = "SELECT ?a WHERE { ?a <urn:p2> ?b . }";

/// Accounted bytes of one retained entry of `engine`'s making.
uint64_t OneEntryBytes(SizedRowsEngine* engine) {
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_entries = 4;
  QueryService service(engine, options);
  EXPECT_TRUE(service.Query(kSizedQ1, {}).ok());
  const uint64_t bytes = service.Stats().bytes_cached;
  EXPECT_GT(bytes, 0u);
  return bytes;
}

TEST(QueryServiceCacheTest, ByteBudgetEvictsByBytesAndTracksGauge) {
  SizedRowsEngine probe(8, 64);
  const uint64_t entry_bytes = OneEntryBytes(&probe);

  SizedRowsEngine engine(8, 64);
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_entries = 64;  // not binding: bytes evict first
  options.cache_bytes = entry_bytes * 5 / 2;  // room for two entries
  QueryService service(&engine, options);

  ASSERT_TRUE(service.Query(kSizedQ1, {}).ok());
  ASSERT_TRUE(service.Query(kSizedQ2, {}).ok());
  ServiceStats mid = service.Stats();
  EXPECT_EQ(mid.cache_entries, 2u);
  EXPECT_EQ(mid.bytes_cached, 2 * entry_bytes);
  EXPECT_EQ(mid.cache_evictions, 0u);

  // A third entry busts the byte budget: the LRU tail (q1) goes.
  ASSERT_TRUE(service.Query(kSizedQ3, {}).ok());
  ServiceStats after = service.Stats();
  EXPECT_EQ(after.cache_entries, 2u);
  EXPECT_EQ(after.cache_evictions, 1u);
  EXPECT_EQ(after.bytes_cached, 2 * entry_bytes);
  EXPECT_LE(after.bytes_cached, options.cache_bytes);

  auto q2 = service.Query(kSizedQ2, {});
  auto q3 = service.Query(kSizedQ3, {});
  auto q1 = service.Query(kSizedQ1, {});
  ASSERT_TRUE(q1.ok() && q2.ok() && q3.ok());
  EXPECT_TRUE(q2->cache_hit);
  EXPECT_TRUE(q3->cache_hit);
  EXPECT_FALSE(q1->cache_hit);  // evicted
}

TEST(QueryServiceCacheTest, OversizedEntryBypassesCache) {
  SizedRowsEngine probe(8, 64);
  const uint64_t entry_bytes = OneEntryBytes(&probe);

  SizedRowsEngine engine(8, 64);
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_entries = 64;
  options.cache_bytes = entry_bytes - 1;  // one row entry never fits
  QueryService service(&engine, options);

  // The oversized result is still SERVED in full — only retention is
  // skipped (it would have evicted the whole cache and then itself).
  auto first = service.Query(kSizedQ1, {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rows.size(), 8u);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.bytes_cached, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);

  auto second = service.Query(kSizedQ1, {});
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);  // nothing was retained
  EXPECT_EQ(engine.executions, 2);  // both requests re-executed
  EXPECT_EQ(second->rows, first->rows);

  // A small (count-only) entry still fits under the same budget.
  RequestOptions count;
  count.count_only = true;
  ASSERT_TRUE(service.Query(kSizedQ2, count).ok());
  EXPECT_EQ(service.Stats().cache_entries, 1u);
}

TEST(QueryServiceCacheTest, ByteBudgetZeroIsUnboundedButStillAccounted) {
  SizedRowsEngine engine(8, 64);
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_entries = 64;
  options.cache_bytes = 0;  // unbounded bytes
  QueryService service(&engine, options);

  ASSERT_TRUE(service.Query(kSizedQ1, {}).ok());
  ASSERT_TRUE(service.Query(kSizedQ2, {}).ok());
  ASSERT_TRUE(service.Query(kSizedQ3, {}).ok());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_entries, 3u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_GT(stats.bytes_cached, 0u);  // the gauge is maintained anyway
}

TEST(QueryServiceCacheTest, MergeGrowsTheByteGauge) {
  SizedRowsEngine engine(8, 64);
  ServiceOptions options;
  options.pool_threads = 1;
  options.cache_entries = 8;
  QueryService service(&engine, options);

  // Count first (small entry), then rows (the entry grows in place).
  RequestOptions count;
  count.count_only = true;
  ASSERT_TRUE(service.Query(kSizedQ1, count).ok());
  const uint64_t count_bytes = service.Stats().bytes_cached;
  EXPECT_GT(count_bytes, 0u);
  ASSERT_TRUE(service.Query(kSizedQ1, {}).ok());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_GT(stats.bytes_cached, count_bytes);
}

TEST(QueryServiceCacheTest, DefaultByteBudgetIs64MiB) {
  // PR 6 shipped the cache with unbounded bytes; the default budget is
  // the fix. Pinned so a silent default change fails loudly.
  EXPECT_EQ(ServiceOptions{}.cache_bytes, 64ull << 20);
}

TEST(QueryServiceCacheTest, CacheDisabledAlwaysExecutes) {
  auto data = testutil::RandomDataset(29, 10, 50, 3);
  AmberEngine engine = MustBuild(data);
  ServiceOptions options;
  options.cache_entries = 0;  // disabled
  QueryService service(&engine, options);

  const std::string text = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";
  auto a = service.Query(text, {});
  auto b = service.Query(text, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->cache_hit);
  EXPECT_FALSE(b->cache_hit);
  EXPECT_EQ(a->rows, b->rows);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // disabled cache records nothing
  EXPECT_EQ(stats.cache_entries, 0u);
}

// ---------------------------------------------------------------------------
// Factorized result handles (ServiceOptions::result_form).
// ---------------------------------------------------------------------------

// 6 star centers × 8 p0-objects × 8 p1-objects: the query below has
// 6 groups of 64 rows each (384 total) in factorized form.
std::vector<Triple> FanoutData() {
  std::vector<Triple> data;
  for (int c = 0; c < 6; ++c) {
    Term center = Term::Iri("urn:c" + std::to_string(c));
    for (int i = 0; i < 8; ++i) {
      data.emplace_back(center, Term::Iri("urn:p0"),
                        Term::Iri("urn:a" + std::to_string(c) + "_" +
                                  std::to_string(i)));
      data.emplace_back(center, Term::Iri("urn:p1"),
                        Term::Iri("urn:b" + std::to_string(c) + "_" +
                                  std::to_string(i)));
    }
  }
  return data;
}

constexpr char kFanoutQuery[] =
    "SELECT ?c ?a ?b WHERE { ?c <urn:p0> ?a . ?c <urn:p1> ?b . }";
constexpr uint64_t kFanoutGroupCard = 64;  // 8 × 8 rows per group

TEST(QueryServiceCacheTest, FactorizedHandleServesDeepOffsetPages) {
  AmberEngine engine = MustBuild(FanoutData());
  auto flat = engine.MaterializeSparql(kFanoutQuery, {});
  ASSERT_TRUE(flat.ok());
  const uint64_t total = flat->rows.size();
  ASSERT_EQ(total, 6u * kFanoutGroupCard);

  ServiceOptions options;
  options.cache_entries = 8;
  options.result_form = ResultForm::kFactorized;
  QueryService service(&engine, options);

  // Miss: the execution retains the factorized handle; the first page
  // expands only its own rows.
  RequestOptions first;
  first.limit = 4;
  auto warm = service.Query(kFanoutQuery, first);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_FALSE(warm->cache_hit);
  EXPECT_EQ(warm->total_rows, total);
  ASSERT_EQ(warm->rows.size(), 4u);
  for (size_t i = 0; i < warm->rows.size(); ++i) {
    EXPECT_EQ(warm->rows[i], flat->rows[i]);
  }
  EXPECT_LE(warm->stats.rows_expanded, 4 + kFanoutGroupCard);

  // Deep-OFFSET page from the cached handle: the prefix is skipped by
  // group arithmetic, never re-enumerated — the acceptance bound is
  // page size plus (at most) one boundary group's cardinality.
  RequestOptions deep;
  deep.offset = total - 12;
  deep.limit = 10;
  auto page = service.Query(kFanoutQuery, deep);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->cache_hit);
  ASSERT_EQ(page->rows.size(), 10u);
  for (size_t i = 0; i < page->rows.size(); ++i) {
    EXPECT_EQ(page->rows[i], flat->rows[deep.offset + i]) << i;
  }
  EXPECT_LE(page->stats.rows_expanded, 10 + kFanoutGroupCard);

  // Counts come straight from total_rows — no expansion at all.
  RequestOptions count;
  count.count_only = true;
  auto counted = service.Query(kFanoutQuery, count);
  ASSERT_TRUE(counted.ok());
  EXPECT_TRUE(counted->cache_hit);
  EXPECT_EQ(counted->total_rows, total);
  EXPECT_EQ(counted->stats.rows_expanded, 0u);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.factorized_hits, 2u);  // the deep page and the count
}

TEST(QueryServiceCacheTest, FactorizedEntriesChargedAtGroupStorageSize) {
  AmberEngine engine = MustBuild(FanoutData());

  ServiceOptions flat_opts;
  flat_opts.cache_entries = 8;
  QueryService flat_service(&engine, flat_opts);
  ASSERT_TRUE(flat_service.Query(kFanoutQuery, {}).ok());
  const uint64_t flat_bytes = flat_service.Stats().bytes_cached;

  ServiceOptions fact_opts = flat_opts;
  fact_opts.result_form = ResultForm::kFactorized;
  QueryService fact_service(&engine, fact_opts);
  ASSERT_TRUE(fact_service.Query(kFanoutQuery, {}).ok());
  const uint64_t fact_bytes = fact_service.Stats().bytes_cached;

  // 384 expanded rows of IRI strings vs 6 groups of id lists: the
  // factorized entry must be charged at its (much smaller) group storage.
  EXPECT_GT(fact_bytes, 0u);
  EXPECT_LT(fact_bytes, flat_bytes / 4) << "flat=" << flat_bytes;

  // The charge tracks FactorizedResult::ByteSize (plus key/var-name
  // overhead shared with flat entries).
  auto parsed = SparqlParser::Parse(kFanoutQuery);
  ASSERT_TRUE(parsed.ok());
  auto fact = engine.Factorize(*parsed, {});
  ASSERT_TRUE(fact.ok());
  EXPECT_GE(fact_bytes, fact->result.ByteSize());
}

TEST(QueryServiceCacheTest, FactorizedResponsesDifferentiallyIdentical) {
  auto data = testutil::RandomDataset(23, 14, 80, 3);
  AmberEngine engine = MustBuild(data);

  ServiceOptions flat_opts;
  flat_opts.cache_entries = 32;
  QueryService flat_service(&engine, flat_opts);
  ServiceOptions fact_opts = flat_opts;
  fact_opts.result_form = ResultForm::kFactorized;
  QueryService fact_service(&engine, fact_opts);

  std::vector<std::string> texts;
  for (int qi = 0; qi < 5; ++qi) {
    texts.push_back(testutil::RandomQueryFromData(data, 500 + qi, 3));
  }
  texts.push_back("SELECT DISTINCT ?a WHERE { ?a <urn:p0> ?b . }");
  texts.push_back(
      "SELECT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . } LIMIT 4");

  for (const std::string& text : texts) {
    for (const auto& [offset, limit] :
         std::vector<std::pair<uint64_t, uint64_t>>{
             {0, 0}, {0, 3}, {2, 2}, {7, 0}}) {
      RequestOptions request;
      request.offset = offset;
      request.limit = limit;
      auto want = flat_service.Query(text, request);
      auto miss_or_hit = fact_service.Query(text, request);
      auto hit = fact_service.Query(text, request);  // definitely cached
      ASSERT_TRUE(want.ok() && miss_or_hit.ok() && hit.ok()) << text;
      EXPECT_EQ(miss_or_hit->rows, want->rows) << text;
      EXPECT_EQ(hit->rows, want->rows) << text;
      EXPECT_EQ(hit->total_rows, want->total_rows) << text;
      EXPECT_EQ(hit->truncated, want->truncated) << text;
      EXPECT_EQ(hit->var_names, want->var_names) << text;
    }
  }
}

// A DISTINCT query whose projected variables are all core (two corners of
// a 4-cycle) collides on exact duplicate rows. The answer graph drops the
// duplicate groups instead of flagging them for row-level dedup, so a
// flat-configured service still grants want_groups, and the groups expand
// to the rows a rows-mode request returns.
TEST(QueryServiceCacheTest, WantGroupsShipsGroupsForAllCoreDistinct) {
  auto iri = [](const std::string& s) { return Term::Iri("urn:" + s); };
  std::vector<Triple> data;
  for (const char* b : {"b0", "b1"}) {  // two a0-b-c0 paths: one row twice
    data.emplace_back(iri("a0"), iri("p0"), iri(b));
    data.emplace_back(iri(b), iri("p1"), iri("c0"));
  }
  data.emplace_back(iri("c0"), iri("p2"), iri("d0"));
  data.emplace_back(iri("d0"), iri("p3"), iri("a0"));
  AmberEngine engine = MustBuild(data);
  const std::string text =
      "SELECT DISTINCT ?a ?c WHERE { ?a <urn:p0> ?b . ?b <urn:p1> ?c . "
      "?c <urn:p2> ?d . ?d <urn:p3> ?a . }";

  QueryService service(&engine, ServiceOptions{});
  RequestOptions groups;
  groups.want_groups = true;
  groups.bypass_cache = true;
  auto got = service.Query(text, groups);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->groups_form);
  EXPECT_EQ(got->total_rows, 1u);

  RequestOptions rows;
  rows.bypass_cache = true;
  auto want = service.Query(text, rows);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(want->rows.size(), 1u);
  EXPECT_EQ(wire::ExpandGroups(got->slot_list, got->groups), want->rows);
}

}  // namespace
}  // namespace amber
