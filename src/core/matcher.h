// The AMbER matching procedure (Section 5): ProcessVertex (Algorithm 1),
// MatchSatVertices (Algorithm 2), AMbER-Algo (Algorithm 3) and
// HomomorphicMatch (Algorithm 4), generalized to handle multiple connected
// components, self-loops and early termination.
//
// Semantics: sub-multigraph *homomorphism* (Definition 2) — no injectivity
// constraint, so distinct query vertices may map to the same data vertex and
// satellite vertices are resolved independently, set-at-a-time (Lemma 2).
// Each full assignment yields |sat set| products of embeddings via the
// Cartesian expansion of GenEmb.
//
// Hot-path engineering (docs/ARCHITECTURE.md, "The matching hot path"): all
// per-query mutable state lives in a MatcherScratch value — a depth-indexed
// scratch arena (one reusable candidate buffer and list workspace per
// core-order depth, per-query-vertex satellite and local-candidate buffers,
// per-component CandInit caches) plus the hot-path counters — so
// steady-state recursion performs zero heap allocations. Intersections go
// through the galloping kernels of util/intersect.h, and hub-sized
// neighbour lists are probed per candidate via NeighborhoodIndex::Contains
// instead of materialized when an estimated-cost cutover says so.
//
// Parallel online stage (docs/ARCHITECTURE.md, "The parallel online
// stage"): the unit of parallelism is one CandInit candidate of the first
// component's initial vertex. Each worker owns a MatcherScratch and a
// Matcher borrowing it, and Run()s over chunk slices of the root candidate
// list; scratch arenas are never shared, and a worker's caches stay warm
// across the chunks it processes.

#ifndef AMBER_CORE_MATCHER_H_
#define AMBER_CORE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/exec.h"
#include "core/query_plan.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "index/neighborhood_index.h"
#include "sparql/query_graph.h"
#include "util/cancellation.h"
#include "util/clock.h"
#include "util/intersect.h"
#include "util/status.h"

namespace amber {

/// The plan the engine runs for `q` under `options`, and the one EXPLAIN
/// describes. Range-width selectivity feeds the ordering only when FILTER
/// pushdown is on, so the post-filter ablation measures residual
/// evaluation under the paper's plan, not a different plan.
/// `num_vertices` is the data graph's vertex count.
QueryPlan PlanForExecution(const QueryGraph& q, const ExecOptions& options,
                           const IndexSet& indexes, uint64_t num_vertices);

/// Per query vertex and FILTER constraint: 1 when the constraint is served
/// by a ValueIndex range scan inside the vertex's constant list, 0 when it
/// is evaluated residually per candidate. Pushdown must be enabled, the
/// vertex must be core, and the estimated range must pass the
/// RangeScanWorthPushing cutover (wide ranges are cheaper to check per
/// candidate).
std::vector<std::vector<uint8_t>> PushedConstraints(
    const QueryGraph& q, const QueryPlan& plan, const ExecOptions& options,
    const ValueIndex& values, uint64_t num_vertices);

/// True when `qv` has a constant list (Algorithm 1's C^A_u ∩ C^I_u, plus
/// pushed FILTER scans): attributes, IRI anchors, or a constraint its
/// `pushed` row of PushedConstraints marks. CandInit seeds such a vertex
/// from that list; only a vertex without one asks the S index.
bool HasConstantList(const QueryVertex& qv, std::span<const uint8_t> pushed);

/// \brief All mutable per-query state of one matching run: the scratch
/// arena, the caches and the hot-path counters.
///
/// A MatcherScratch is a plain movable value bound to one (query graph,
/// plan, options) triple at construction; a Matcher borrows one (or owns a
/// private one via the convenience constructor). The parallel mode creates
/// one scratch per worker so arenas are never shared across threads, and
/// reuses it across every chunk the worker processes — buffers only grow,
/// so per-worker steady-state recursion allocates nothing.
struct MatcherScratch {
  /// One core-extension constraint at a recursion step: query edge `e`
  /// towards the already-matched data vertex `vn`, with the O(1) upper
  /// bound on the neighbour list size that drives the cutover.
  struct Constraint {
    const QueryEdge* edge;
    VertexId vn;
    uint32_t bound;
    bool u_is_from;
    bool probe = false;  // deferred to the probe path by the cutover
  };

  /// Reusable per-depth workspace. Buffers only grow; after the first
  /// descent to a given depth, revisiting it allocates nothing.
  struct DepthScratch {
    std::vector<Constraint> constraints;
    std::vector<std::vector<VertexId>> lists;          // materialized lists
    std::vector<std::span<const VertexId>> views;      // k-way input
    std::vector<const VertexId*> cursors;              // k-way gallop state
    std::vector<VertexId> cand;                        // intersection result
  };

  /// Lazily-computed C^A_u ∩ C^I_u cache state (LocalCandidates).
  enum class LocalState : uint8_t { kUnknown, kNone, kCached };

  /// Sizes every buffer for the query and precomputes the per-constraint
  /// pushdown decisions (which need the indexes and options).
  MatcherScratch(const Multigraph& g, const IndexSet& indexes,
                 const QueryGraph& q, const QueryPlan& plan,
                 const ExecOptions& options);

  /// Current arena footprint (capacities of all reusable buffers).
  uint64_t ArenaBytes() const;

  std::vector<VertexId> core_match;              // per query vertex
  std::vector<std::vector<VertexId>> sat_match;  // per query vertex
  std::vector<VertexId> row_buffer;

  // -- Scratch arena (sized once in the constructor, grown on first use).
  std::vector<size_t> depth_base;      // per component: global depth offset
  std::vector<DepthScratch> depths;    // per global core-order depth
  std::vector<VertexId> sat_tmp;       // satellite second-list workspace
  NeighborhoodIndex::Scratch nbr_scratch;  // trie DFS stack

  // Per-query-vertex LocalCandidates cache (immutable per run).
  std::vector<LocalState> local_state;
  std::vector<std::vector<VertexId>> local_cache;

  // PushedConstraints: per (vertex, FILTER constraint), pushed range scan
  // (1) or residual evaluation (0). Precomputed once per scratch.
  std::vector<std::vector<uint8_t>> preds_pushed;

  // Per-component CandInit cache (components > 0 are re-entered once per
  // upstream embedding; their seed candidates never change).
  std::vector<bool> comp_cand_cached;
  std::vector<std::vector<VertexId>> comp_cand_cache;

  // Emit() workspace: projected satellites (unique, first appearance), the
  // satellites whose candidate counts multiply a row (the non-projected
  // ones; none under DISTINCT), per projection slot the index of its
  // satellite's list among `expand` (kNoGroupList for core slots), and
  // reusable span views over sat_match for the group view.
  std::vector<uint32_t> expand;
  std::vector<uint32_t> multiplicity_sats;
  std::vector<uint32_t> slot_list;
  std::vector<std::span<const VertexId>> group_views;

  // Hot-path counters, flushed into ExecStats at the end of Run (some grow
  // during ComputeRootCandidates, before stats are bound).
  IntersectCounters icounters;
  uint64_t lists_materialized = 0;
  uint64_t probe_checks = 0;
  uint64_t probe_hits = 0;
  uint64_t range_scans = 0;
  uint64_t range_scan_elements = 0;
  uint64_t predicate_checks = 0;

  // Range-scan workspace for CachedLocalCandidates (cold path, but keep it
  // in the arena so the steady state stays allocation-free).
  std::vector<VertexId> range_tmp;
};

/// \brief One matching run of a query multigraph against a data multigraph.
///
/// A Matcher is a thin handle over immutable inputs plus a MatcherScratch
/// holding every mutable buffer. Thread-safety: none — the parallel mode
/// creates one (scratch, Matcher) pair per worker over chunk slices of the
/// root candidates, so arenas are never shared.
class Matcher : private RowPoll {
 public:
  /// Borrows `scratch`, which must have been constructed from the same
  /// (q, plan, options) and outlive the Matcher. Reusing one scratch across
  /// multiple Runs/Matchers of the *same* query keeps its caches warm.
  Matcher(const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
          const QueryPlan& plan, const ExecOptions& options,
          MatcherScratch* scratch);

  /// Convenience: owns a private scratch (the serial path and tests).
  Matcher(const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
          const QueryPlan& plan, const ExecOptions& options);

  /// Per-Run knobs beyond the sink and stats. The parallel mode uses the
  /// optional fields; serial callers can use the convenience Run overload.
  struct RunControl {
    /// When set, component 0's initial vertex iterates over this slice
    /// instead of recomputing CandInit (the parallel mode passes chunk
    /// subspans of one shared root list; spans are only read during the
    /// call).
    std::optional<std::span<const VertexId>> root_candidates;

    /// When set, overrides the per-Run deadline (Deadline::After(timeout)).
    /// The parallel mode shares one absolute deadline across every chunk
    /// Run so ExecOptions::timeout stays a per-QUERY budget, not a
    /// per-chunk one.
    std::optional<Deadline> deadline;

    /// Skip the ground-check gate (Algorithm 3's constant-pattern checks).
    /// The parallel mode evaluates it once on the root matcher instead of
    /// once per chunk, keeping predicate_checks equal to serial.
    bool skip_ground_checks = false;
  };

  /// Why a long scan or recursion was cut short. Run() consumes interrupts
  /// internally (mapping them to stats.timed_out / stats.cancelled); the
  /// parallel mode reads pending_interrupt() after ComputeRootCandidates,
  /// whose CandInit scan runs outside any Run.
  enum class InterruptKind { kNone, kTimeout, kCancelled };

  /// Computes CandInit for the first component's initial vertex (Algorithm
  /// 3, lines 4-5), already refined by ProcessVertex (see
  /// InitialCandidates for the source it seeds from). Exposed so the
  /// parallel mode can shard it. The overload without arguments binds the
  /// deadline/token from ExecOptions; a scan cut short by either leaves
  /// pending_interrupt() set and returns the partial list — callers must
  /// check before using the result.
  std::vector<VertexId> ComputeRootCandidates();
  std::vector<VertexId> ComputeRootCandidates(const Deadline& deadline,
                                              const CancellationToken& cancel);

  /// The interrupt recorded by the last ComputeRootCandidates (or left by a
  /// scan loop for the next consumer inside Run).
  InterruptKind pending_interrupt() const { return pending_; }

  /// Evaluates the query's ground checks (patterns without variables).
  /// Returns false when some check fails — the query has no results.
  /// Counters accrue in the scratch; flush with FlushHotPathStats (Run
  /// does this itself when it runs the gate).
  bool GroundChecksPass();

  /// Enumerates all homomorphic embeddings into `sink`.
  Status Run(EmbeddingSink* sink, ExecStats* stats,
             const RunControl& control);

  /// Convenience overload for serial callers.
  Status Run(EmbeddingSink* sink, ExecStats* stats,
             std::optional<std::span<const VertexId>> root_candidates =
                 std::nullopt) {
    RunControl control;
    control.root_candidates = root_candidates;
    return Run(sink, stats, control);
  }

  /// Flushes hot-path counters accumulated outside Run into `stats` and
  /// resets them. Run flushes automatically; the parallel mode calls this
  /// on the root matcher, whose ComputeRootCandidates work would otherwise
  /// be invisible in the merged stats.
  void FlushHotPathStats(ExecStats* stats);

 private:
  enum class Flow { kContinue, kStop, kTimeout, kCancelled };

  /// CandInit for an arbitrary component's initial vertex, from the
  /// cheapest exact source. A vertex with a constant list (HasConstantList)
  /// seeds from it, keeping each v whose synopsis dominates the vertex's;
  /// only a vertex without one asks the S index's R-tree (or, under
  /// ablation B, the full synopsis scan). Both sources yield C^S ∩ the
  /// constant list in ascending id order, so the set and order never
  /// depend on which one served. Self-loops and residual FILTERs then
  /// filter per candidate.
  std::vector<VertexId> InitialCandidates(uint32_t uinit);

  /// InitialCandidates(ci's initial vertex), cached per component: it does
  /// not depend on earlier components' assignments, so chained components
  /// compute it once per run instead of once per upstream embedding.
  const std::vector<VertexId>& CachedComponentCandidates(size_t ci);

  Flow MatchComponent(size_t ci,
                      const std::optional<std::span<const VertexId>>& root);
  Flow Recurse(size_t ci, size_t depth);
  /// Hands the sink the current solution record as one group.
  Flow Emit();
  /// RowPoll, lent to the expansion of every group Emit() hands out: polls
  /// like PollInterrupt, and counts the row when nothing fired.
  bool NextRow() override;

  /// Algorithm 2. Returns false when some satellite has no candidates for
  /// this assignment of `vc` to `uc`. Candidate sets are written into the
  /// reusable sat_match buffers.
  bool MatchSatellites(const std::vector<uint32_t>& sats, uint32_t uc,
                       VertexId vc);

  /// Algorithm 1, cached: candidates induced by u's attributes, IRI
  /// anchors, and (for core vertices, when pushdown is on) FILTER range
  /// scans. Returns nullptr when u has none of those; otherwise a pointer
  /// to the per-vertex cached list, computed on first use and shared by
  /// every subsequent refinement of u in this run.
  const std::vector<VertexId>* CachedLocalCandidates(uint32_t u);

  /// True when FILTER constraint `i` of vertex `u` is served by a
  /// ValueIndex range scan (inside CachedLocalCandidates) rather than
  /// evaluated residually (PushedConstraints). The decisions are
  /// precomputed in the scratch constructor so the steady-state Recurse
  /// never re-estimates (or allocates) in FilterByVertex.
  bool ConstraintPushed(uint32_t u, size_t i) const {
    return s_->preds_pushed[u][i] != 0;
  }

  /// Intersects `cand` (in place) with CachedLocalCandidates(u), then
  /// applies FilterByVertex.
  void RefineByVertex(uint32_t u, std::vector<VertexId>* cand);

  /// The per-candidate half of ProcessVertex: filters self-loop
  /// constraints and evaluates residual FILTER predicates (satellite
  /// vertices; every vertex in post-filter mode).
  void FilterByVertex(uint32_t u, std::vector<VertexId>* cand);

  /// Candidates for `u` that respect the multi-edge of query edge `e`
  /// towards the already-matched data vertex `vn` (one index N walk).
  /// Appends to `*out`.
  void PairCandidates(const QueryEdge& e, bool u_is_from, VertexId vn,
                      std::vector<VertexId>* out);

  /// Probe-without-materialize: drops from `cand` every candidate whose
  /// multi-edge towards `vn` (oriented by `e`) does not cover e.types,
  /// checked per candidate from the *candidate's* (small) trie instead of
  /// materializing vn's (hub-sized) neighbour list.
  void ProbeFilter(const QueryEdge& e, bool u_is_from, VertexId vn,
                   std::vector<VertexId>* cand);

  /// The amortized interrupt check of the recursion hot path: every 64th
  /// call reads the clock and the cancellation token (plus any interrupt a
  /// scan loop recorded via PollInterrupt). kContinue when neither tripped.
  Flow CheckInterrupt();
  /// Immediate (un-amortized) check: token first, then deadline.
  Flow CheckInterruptNow();
  /// Scan-loop variant: same amortized check, but records the interrupt in
  /// pending_ (for the next CheckInterrupt consumer) instead of returning
  /// a Flow — long CandInit scans poll this per element and break out, so
  /// a deadline/cancellation can no longer overshoot by a full scan.
  void PollInterrupt();
  /// Consumes pending_, converting it to the matching Flow.
  Flow TakePendingInterrupt();

  const Multigraph& g_;
  const IndexSet& indexes_;
  const QueryGraph& q_;
  const QueryPlan& plan_;
  const ExecOptions& options_;

  // Set iff this Matcher was created via the convenience constructor.
  std::unique_ptr<MatcherScratch> owned_scratch_;
  MatcherScratch* s_;  // never null

  // Per-Run bindings (ComputeRootCandidates binds deadline_/cancel_ too).
  Deadline deadline_;
  CancellationToken cancel_;
  EmbeddingSink* sink_ = nullptr;
  ExecStats* stats_ = nullptr;
  uint32_t deadline_tick_ = 0;
  InterruptKind pending_ = InterruptKind::kNone;
};

}  // namespace amber

#endif  // AMBER_CORE_MATCHER_H_
