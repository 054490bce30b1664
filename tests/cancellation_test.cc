// Cooperative cancellation: token/source unit semantics plus the
// bounded-overshoot contract of the matcher integration — a tripped token
// unwinds execution within one tick window (~64 recursion steps / scanned
// candidates), exactly like a deadline expiry, reporting
// ExecStats::cancelled; parallel chunks not yet claimed never start.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/amber_engine.h"
#include "rdf/term.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace amber {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Token/source unit semantics.

TEST(CancellationTokenTest, DefaultTokenNeverFires) {
  CancellationToken token;
  EXPECT_FALSE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  // WaitFor on the default token is a plain bounded sleep.
  EXPECT_FALSE(token.WaitFor(milliseconds(1)));
}

TEST(CancellationTokenTest, CancelIsStickyAndIdempotent) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  source.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  // Tokens taken after the fact observe the sticky flag too.
  EXPECT_TRUE(source.token().cancelled());
}

TEST(CancellationTokenTest, TokensAreCheapCopies) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // copy shares the state
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(CancellationTokenTest, ParentLinkMergesCancellation) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  // The child's tokens observe the parent chain...
  EXPECT_TRUE(child.token().cancelled());
  // ...but not the other way around: a fresh child of the same parent
  // cancelling itself must never trip the parent.
  CancellationSource parent2;
  CancellationSource child2(parent2.token());
  child2.Cancel();
  EXPECT_TRUE(child2.cancelled());
  EXPECT_FALSE(parent2.cancelled());
}

TEST(CancellationTokenTest, GrandparentChainObserved) {
  CancellationSource root;
  CancellationSource mid(root.token());
  CancellationSource leaf(mid.token());
  EXPECT_FALSE(leaf.token().cancelled());
  root.Cancel();
  EXPECT_TRUE(leaf.token().cancelled());
}

TEST(CancellationTokenTest, WaitForWakesOnOwnCancel) {
  CancellationSource source;
  CancellationToken token = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(milliseconds(20));
    source.Cancel();
  });
  const auto t0 = steady_clock::now();
  EXPECT_TRUE(token.WaitFor(milliseconds(5000)));
  const auto elapsed = steady_clock::now() - t0;
  // The cv notification wakes the wait long before the full timeout.
  EXPECT_LT(elapsed, milliseconds(2000));
  canceller.join();
}

TEST(CancellationTokenTest, WaitForNoticesParentCancelViaPolling) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  CancellationToken token = child.token();
  std::thread canceller([&parent] {
    std::this_thread::sleep_for(milliseconds(20));
    parent.Cancel();
  });
  const auto t0 = steady_clock::now();
  // Parent cancels don't notify the child's cv; the bounded poll slices
  // must still notice well inside the timeout.
  EXPECT_TRUE(token.WaitFor(milliseconds(5000)));
  EXPECT_LT(steady_clock::now() - t0, milliseconds(2000));
  canceller.join();
}

TEST(CancellationTokenTest, WaitForTimesOutUncancelled) {
  CancellationSource source;
  EXPECT_FALSE(source.token().WaitFor(milliseconds(10)));
  EXPECT_FALSE(source.cancelled());
}

// ---------------------------------------------------------------------------
// Matcher integration: bounded overshoot after a trip.

/// A 1-regular p0-cycle over `n` entities: every vertex matches
/// `?a <urn:p0> ?b`, so the ablation-B full scan visits all n vertices and
/// the query yields exactly n rows.
std::vector<Triple> CycleData(int n) {
  std::vector<Triple> data;
  auto ent = [](int i) { return Term::Iri("urn:e" + std::to_string(i)); };
  for (int i = 0; i < n; ++i) {
    data.emplace_back(ent(i), Term::Iri("urn:p0"), ent((i + 1) % n));
  }
  return data;
}

/// A hub with `n` outgoing p0 edges: `SELECT ?a WHERE { ?a <urn:p0> ?b }`
/// emits n rows through the satellite-multiplicity loop of one embedding.
std::vector<Triple> StarData(int n) {
  std::vector<Triple> data;
  for (int i = 0; i < n; ++i) {
    data.emplace_back(Term::Iri("urn:hub"), Term::Iri("urn:p0"),
                      Term::Iri("urn:leaf" + std::to_string(i)));
  }
  return data;
}

/// A hub `urn:x` with four `urn:p` satellites and one `urn:r` satellite,
/// where each `urn:p` satellite carries `anchors` IRI anchors
/// `<urn:q> <urn:aN>` — except that two of the four miss the last one.
std::vector<Triple> AnchoredSatelliteData(int anchors) {
  std::vector<Triple> data;
  auto iri = [](const char* local, int n = -1) {
    std::string name = "urn:";
    name += local;
    if (n >= 0) name += std::to_string(n);
    return Term::Iri(name);
  };
  data.emplace_back(iri("x"), iri("r"), iri("y"));
  for (int s = 0; s < 4; ++s) {
    data.emplace_back(iri("x"), iri("p"), iri("s", s));
    for (int a = 0; a < anchors; ++a) {
      if (s >= 2 && a == anchors - 1) continue;
      data.emplace_back(iri("s", s), iri("q"), iri("a", a));
    }
  }
  return data;
}

AmberEngine MustBuild(const std::vector<Triple>& data) {
  auto engine = AmberEngine::Build(data);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

constexpr char kEdgeQuery[] = "SELECT ?a ?b WHERE { ?a <urn:p0> ?b . }";
constexpr char kStarQuery[] = "SELECT ?a WHERE { ?a <urn:p0> ?b . }";

// One matcher tick window: interrupt checks are amortized over 64 steps,
// so a trip is honoured with at most this much overshoot per loop.
constexpr uint64_t kTickWindow = 64;

TEST(CancellationMatcherTest, PreCancelledAblationScanStopsWithinTickWindow) {
  AmberEngine engine = MustBuild(CycleData(400));

  // Reference: the uncancelled full scan sees all 400 root candidates.
  ExecOptions full;
  full.use_signature_index = false;  // ablation B: full synopsis scan
  auto ref = engine.MaterializeSparql(kEdgeQuery, full);
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_EQ(ref->stats.initial_candidates, 400u);
  EXPECT_EQ(ref->rows.size(), 400u);
  EXPECT_FALSE(ref->stats.cancelled);

  // Pre-cancelled: the scan must break within one tick window instead of
  // walking all 400 vertices (satellite fix: long CandInit range scans
  // poll the token too, not just the recursion).
  CancellationSource source;
  source.Cancel();
  ExecOptions cancelled = full;
  cancelled.cancel = source.token();
  auto out = engine.MaterializeSparql(kEdgeQuery, cancelled);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.cancelled);
  EXPECT_FALSE(out->stats.timed_out);
  EXPECT_LE(out->stats.initial_candidates, kTickWindow);
  EXPECT_LE(out->rows.size(), kTickWindow);
}

TEST(CancellationMatcherTest, PreCancelledAblationScanWithNoCandidateYet) {
  // The only `urn:p1` subject comes after 200 vertices, so a pre-cancelled
  // ablation-B scan breaks within one tick window with no candidate yet.
  // The run never reaches a candidate to check the interrupt on; it must
  // still report it instead of a complete empty answer.
  std::vector<Triple> data = CycleData(200);
  data.emplace_back(Term::Iri("urn:x"), Term::Iri("urn:p1"),
                    Term::Iri("urn:y"));
  AmberEngine engine = MustBuild(data);
  constexpr char kQuery[] = "SELECT ?a ?b WHERE { ?a <urn:p1> ?b . }";
  auto parsed = SparqlParser::Parse(kQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  ExecOptions full;
  full.use_signature_index = false;  // ablation B: full synopsis scan
  auto ref = engine.Materialize(*parsed, full);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 1u);

  CancellationSource source;
  source.Cancel();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions options = full;
    options.num_threads = threads;
    options.cancel = source.token();
    auto count = engine.Count(*parsed, options);
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_TRUE(count->stats.cancelled);
    auto rows = engine.Materialize(*parsed, options);
    ASSERT_TRUE(rows.ok()) << rows.status();
    EXPECT_TRUE(rows->stats.cancelled);
  }
}

TEST(CancellationMatcherTest, EmitMultiplicityLoopHonoursCancel) {
  AmberEngine engine = MustBuild(StarData(500));

  // Uncancelled: one embedding, 500 rows via satellite multiplicity.
  auto ref = engine.MaterializeSparql(kStarQuery, ExecOptions{});
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 500u);

  // The sink trips the token on the first delivered row; the per-row tick
  // inside the multiplicity loop must stop emission within one window
  // even though no further recursion happens.
  CancellationSource source;
  ExecOptions options;
  options.cancel = source.token();
  struct TrippingSink : RowSink {
    CancellationSource* source;
    uint64_t rows = 0;
    bool OnRow(std::span<const std::string>) override {
      if (++rows == 1) source->Cancel();
      return true;  // never stops via the sink: only the token acts
    }
  } sink;
  sink.source = &source;
  auto out = engine.StreamSparql(kStarQuery, options, &sink);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.cancelled);
  EXPECT_FALSE(out->sink_stopped);
  EXPECT_GE(out->rows, 1u);
  EXPECT_LE(out->rows, kTickWindow + 2);
  EXPECT_EQ(out->rows, sink.rows);
}

TEST(CancellationMatcherTest, EmitMultiplicityLoopHonoursDeadline) {
  // The deadline twin of the test above: the sink outlasts the budget on
  // its first row, and the per-row poll inside the group's expansion must
  // report the timeout within one window — never as a cap or a sink stop.
  AmberEngine engine = MustBuild(StarData(500));
  ExecOptions options;
  options.timeout = milliseconds(200);
  struct SlowSink : RowSink {
    uint64_t rows = 0;
    bool OnRow(std::span<const std::string>) override {
      if (++rows == 1) std::this_thread::sleep_for(milliseconds(300));
      return true;
    }
  } sink;
  auto out = engine.StreamSparql(kStarQuery, options, &sink);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.timed_out);
  EXPECT_FALSE(out->stats.cancelled);
  EXPECT_FALSE(out->stats.truncated);
  EXPECT_FALSE(out->sink_stopped);
  EXPECT_GE(out->rows, 1u);
  EXPECT_LE(out->rows, kTickWindow + 2);
  EXPECT_EQ(out->rows, sink.rows);
}

TEST(CancellationMatcherTest, ParallelReplayHonoursDeadline) {
  // The parallel twin of the test above: the replay lends every view its
  // own poll, which must report the timeout within one window — never as a
  // cap, a sink stop or a cancellation.
  AmberEngine engine = MustBuild(StarData(500));
  ExecOptions options;
  options.num_threads = 4;
  options.timeout = milliseconds(200);
  struct SlowSink : RowSink {
    uint64_t rows = 0;
    bool OnRow(std::span<const std::string>) override {
      if (++rows == 1) std::this_thread::sleep_for(milliseconds(300));
      return true;
    }
  } sink;
  auto out = engine.StreamSparql(kStarQuery, options, &sink);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.timed_out);
  EXPECT_FALSE(out->stats.cancelled);
  EXPECT_FALSE(out->stats.truncated);
  EXPECT_FALSE(out->sink_stopped);
  EXPECT_GE(out->rows, 1u);
  EXPECT_LE(out->rows, kTickWindow + 2);
  EXPECT_EQ(out->rows, sink.rows);
}

TEST(CancellationMatcherTest, InterruptedSatelliteScanEmitsNothing) {
  // ?s carries more anchors than one tick window, so a pre-cancelled token
  // trips inside its anchor scan. The scan then hands back a partial list:
  // a superset of the true one, since the last anchor is the one that
  // rules two candidates out. ?x is the last core vertex, so nothing polls
  // between the scan and the group; the run must still report the
  // cancellation and build no group from that list.
  constexpr int kAnchors = 70;
  static_assert(kAnchors > static_cast<int>(kTickWindow));
  AmberEngine engine = MustBuild(AnchoredSatelliteData(kAnchors));
  std::string text =
      "SELECT ?x ?s ?y WHERE { ?x <urn:p> ?s . ?x <urn:r> ?y . ";
  for (int a = 0; a < kAnchors; ++a) {
    text += "?s <urn:q> <urn:a";
    text += std::to_string(a);
    text += "> . ";
  }
  text += "}";
  auto parsed = SparqlParser::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  auto ref = engine.Materialize(*parsed, ExecOptions{});
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 2u);
  auto in_answer = [&](const std::vector<std::string>& row) {
    return std::find(ref->rows.begin(), ref->rows.end(), row) !=
           ref->rows.end();
  };

  CancellationSource source;
  source.Cancel();
  ExecOptions options;
  options.cancel = source.token();

  auto count = engine.Count(*parsed, options);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_TRUE(count->stats.cancelled);
  EXPECT_LE(count->count, ref->rows.size());

  auto rows = engine.Materialize(*parsed, options);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->stats.cancelled);
  for (const std::vector<std::string>& row : rows->rows) {
    EXPECT_TRUE(in_answer(row));
  }

  StreamResult streamed;
  for (const std::vector<std::string>& row :
       testutil::StreamedRows(engine, *parsed, options, &streamed)) {
    EXPECT_TRUE(in_answer(row));
  }
  EXPECT_TRUE(streamed.stats.cancelled);
}

TEST(CancellationMatcherTest, ParallelPreCancelledScanDispatchesNothing) {
  // Ablation-B root scan: the interrupt is noticed DURING the scan, so a
  // partial candidate list never reaches the workers — zero dispatches.
  AmberEngine engine = MustBuild(CycleData(400));
  CancellationSource source;
  source.Cancel();
  ExecOptions options;
  options.num_threads = 4;
  options.use_signature_index = false;
  options.cancel = source.token();
  auto out = engine.MaterializeSparql(kEdgeQuery, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.cancelled);
  EXPECT_EQ(out->rows.size(), 0u);
  EXPECT_EQ(out->stats.tasks_dispatched, 0u);
}

TEST(CancellationMatcherTest, ParallelPreCancelledChunksNeverRun) {
  // R-tree root path: candidates compute, chunks are dispatched — but the
  // claim gate sees the trip before ANY chunk executes, so the matcher
  // never recurses and zero rows come back.
  AmberEngine engine = MustBuild(CycleData(400));
  CancellationSource source;
  source.Cancel();
  ExecOptions options;
  options.num_threads = 4;
  options.cancel = source.token();
  auto out = engine.MaterializeSparql(kEdgeQuery, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.cancelled);
  EXPECT_EQ(out->rows.size(), 0u);
  EXPECT_EQ(out->stats.recursion_calls, 0u);
}

TEST(CancellationMatcherTest, ParallelMidStreamCancelStopsEarly) {
  AmberEngine engine = MustBuild(StarData(500));
  CancellationSource source;
  ExecOptions options;
  options.num_threads = 4;
  options.cancel = source.token();
  struct TrippingSink : RowSink {
    CancellationSource* source;
    uint64_t rows = 0;
    bool OnRow(std::span<const std::string>) override {
      if (++rows == 1) source->Cancel();
      return true;
    }
  } sink;
  sink.source = &source;
  auto out = engine.StreamSparql(kStarQuery, options, &sink);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->stats.cancelled);
  EXPECT_GE(out->rows, 1u);
  EXPECT_LT(out->rows, 500u);  // stopped well before the full result
}

TEST(CancellationMatcherTest, ParallelMidStreamCancelDeliversAPrefix) {
  // Two 100-row components: every root candidate of the first yields 100
  // rows. The sink is slow until it trips the token, so later chunks are
  // buffered (often finished) while the head chunk is still producing. A
  // chunk cut short must stop the stream, never let the head advance past
  // its missing rows to a later chunk's buffered ones.
  AmberEngine engine = MustBuild(CycleData(100));
  constexpr char kCrossQuery[] =
      "SELECT ?a ?b ?c ?d WHERE { ?a <urn:p0> ?b . ?c <urn:p0> ?d . }";
  auto parsed = SparqlParser::Parse(kCrossQuery);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::vector<std::vector<std::string>> want =
      testutil::StreamedRows(engine, *parsed);
  ASSERT_EQ(want.size(), 100u * 100u);

  struct TrippingSink : RowSink {
    CancellationSource* source;
    uint64_t trip_at;
    std::vector<std::vector<std::string>> rows;
    bool OnRow(std::span<const std::string> row) override {
      rows.emplace_back(row.begin(), row.end());
      if (rows.size() < trip_at) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      } else if (rows.size() == trip_at) {
        source->Cancel();
      }
      return true;  // only the token acts
    }
  };
  for (uint64_t trip_at : {1u, 50u, 150u, 420u}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("trip_at=" + std::to_string(trip_at));
      CancellationSource source;
      ExecOptions options;
      options.num_threads = 4;
      options.cancel = source.token();
      TrippingSink sink;
      sink.source = &source;
      sink.trip_at = trip_at;
      auto out = engine.Stream(*parsed, options, &sink);
      ASSERT_TRUE(out.ok()) << out.status();
      // A trip that lands after every chunk finished producing finds a
      // complete stream; anything earlier reports the cancellation.
      if (!out->stats.cancelled) {
        EXPECT_EQ(sink.rows.size(), want.size());
      }
      ASSERT_LE(sink.rows.size(), want.size());
      for (size_t i = 0; i < sink.rows.size(); ++i) {
        ASSERT_EQ(sink.rows[i], want[i]) << "prefix diverged at row " << i;
      }
    }
  }
}

TEST(CancellationMatcherTest, CancelledRunNeverPoisonsLaterRuns) {
  // A cancelled execution must leave no partial candidate caches behind:
  // the same engine answers the same query completely afterwards.
  AmberEngine engine = MustBuild(CycleData(100));
  CancellationSource source;
  source.Cancel();
  ExecOptions cancelled;
  cancelled.use_signature_index = false;
  cancelled.cancel = source.token();
  auto partial = engine.MaterializeSparql(kEdgeQuery, cancelled);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->stats.cancelled);

  ExecOptions clean;
  clean.use_signature_index = false;
  auto full = engine.MaterializeSparql(kEdgeQuery, clean);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->stats.cancelled);
  EXPECT_EQ(full->rows.size(), 100u);
}

}  // namespace
}  // namespace amber
