// Execution options, statistics and result sinks shared by all engines:
// the per-query timeout budget of Section 7.2, row caps (LIMIT), DISTINCT
// handling, and the counters (embeddings, candidates, recursion) that the
// benches and EXPLAIN report.

#ifndef AMBER_CORE_EXEC_H_
#define AMBER_CORE_EXEC_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/query_plan.h"
#include "rdf/encoded_dataset.h"
#include "util/cancellation.h"

namespace amber {

class ThreadPool;  // util/thread_pool.h

/// Per-query execution options.
struct ExecOptions {
  /// Per-query wall-clock budget; zero means unlimited. The paper uses 60 s
  /// (Section 7.2); exceeding it marks the query unanswered, not an error.
  std::chrono::milliseconds timeout{0};

  /// Stop after this many result rows (0 = unlimited). Combined with the
  /// query's own LIMIT clause (the smaller wins).
  uint64_t max_rows = 0;

  /// Cooperative cancellation (util/cancellation.h). A cancelled query
  /// unwinds within one matcher tick window (~64 recursion steps) exactly
  /// like a deadline expiry, reporting ExecStats::cancelled; parallel
  /// chunks not yet claimed are never started. The default token can never
  /// fire and costs one pointer compare per tick.
  CancellationToken cancel;

  /// Streaming mode only: represented rows (a group counts its expansion) a
  /// parallel chunk behind the head may buffer before its producer blocks
  /// for the ordered replay to catch up (bounded-memory backpressure;
  /// docs/ARCHITECTURE.md, "Streaming & cancellation"). Such a chunk always
  /// accepts one group, however large. Ignored on the serial path and by
  /// the calls that retain their answer, which buffer up to the row cap.
  /// Min 1.
  uint64_t stream_chunk_buffer_rows = 4096;

  /// Number of worker threads for root-candidate partitioning (>1 enables
  /// the parallel mode; the paper lists this as future work). The parallel
  /// mode covers SELECT, DISTINCT, LIMIT, counting, factorizing and
  /// streaming, and returns rows bit-identical to serial execution: its
  /// ordered replay hands the result sink the serial groups in the serial
  /// order (docs/ARCHITECTURE.md, "The parallel online stage").
  int num_threads = 1;

  /// When non-null, the parallel mode borrows its helper workers from this
  /// externally owned pool instead of spawning a transient one per query
  /// (thread spawn is ~0.1 ms — visible on microsecond queries). The pool
  /// is shared: helpers are plain Submit() tasks and completion is tracked
  /// per query, so many concurrent queries can borrow the same pool (the
  /// server/query_service.h runtime owns one per service). The caller must
  /// keep the pool alive for the duration of the call. Ignored when
  /// `num_threads <= 1`; null preserves the spawn-per-query behaviour.
  ThreadPool* pool = nullptr;

  /// Planner options (Ablation A: vertex-ordering heuristics).
  PlanOptions plan;

  /// When false, initial candidates are produced by a full synopsis scan
  /// instead of the R-tree (Ablation B: value of the S index).
  bool use_signature_index = true;

  /// When false, FILTER predicate constraints are never pushed into the
  /// ValueIndex range scans: every constraint is evaluated residually, per
  /// candidate, and the planner ignores range-width selectivity (the
  /// post-filter-only mode of bench/fig12_filter.cc).
  bool use_value_index = true;
};

/// Saturating uint64 multiply (embedding counts can overflow).
inline uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  __uint128_t p = static_cast<__uint128_t>(a) * b;
  if (p > std::numeric_limits<uint64_t>::max()) {
    return std::numeric_limits<uint64_t>::max();
  }
  return static_cast<uint64_t>(p);
}

/// Saturating uint64 add.
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  if (s < a) return std::numeric_limits<uint64_t>::max();
  return s;
}

/// Statistics reported by one query execution.
struct ExecStats {
  /// Result rows under bag semantics (or distinct rows when DISTINCT).
  uint64_t rows = 0;
  /// True when the deadline fired before enumeration finished.
  bool timed_out = false;
  /// True when max_rows / LIMIT stopped enumeration early.
  bool truncated = false;
  /// True when ExecOptions::cancel tripped before enumeration finished
  /// (rows/counters then cover a partial run, like a timeout).
  bool cancelled = false;
  /// Wall-clock time of the execution.
  double elapsed_ms = 0.0;
  /// Recursive HomomorphicMatch invocations.
  uint64_t recursion_calls = 0;
  /// Candidate set size for the initial query vertex (CandInit).
  uint64_t initial_candidates = 0;
  /// Solution records found (before Cartesian expansion of satellites).
  uint64_t embeddings_found = 0;

  // -- Hot-path observability (docs/ARCHITECTURE.md, "The matching hot
  // path"). These make the matcher's materialize-vs-probe cutover and the
  // intersection kernels' adaptive strategy visible per query.

  /// Neighbour/attribute lists fully materialized from the indexes.
  uint64_t lists_materialized = 0;
  /// Elements of long lists skipped by the galloping intersection kernels.
  uint64_t galloped_elements = 0;
  /// Elements visited one-by-one by the kernels' linear-merge strategy.
  uint64_t scanned_elements = 0;
  /// Candidates tested on the probe-without-materialize path.
  uint64_t probe_checks = 0;
  /// Of those, candidates that survived the probe.
  uint64_t probe_hits = 0;
  /// ValueIndex range scans pushed into candidate generation.
  uint64_t range_scans = 0;
  /// Column entries visited by those range scans.
  uint64_t range_scan_elements = 0;
  /// Residual per-candidate FILTER evaluations (satellite vertices, ground
  /// checks, and everything in post-filter mode).
  uint64_t predicate_checks = 0;
  /// High-water scratch-arena footprint of one Matcher (max over workers).
  uint64_t peak_arena_bytes = 0;

  // -- Parallel online stage (docs/ARCHITECTURE.md, "The parallel online
  // stage"). Zero on the serial path.

  /// Worker threads that participated in this execution (max over merges,
  /// so a query-level aggregate reports the widest fan-out).
  uint64_t threads_used = 0;
  /// Root-candidate chunks dispatched to the worker queue.
  uint64_t tasks_dispatched = 0;

  // -- Factorized answer graphs (docs/ARCHITECTURE.md, "Factorized answer
  // graphs"). The matcher hands every sink groups, so groups_emitted and
  // factorized_rows_represented tick on every path (a row stream's
  // groups_emitted equals embeddings_found); rows_expanded counts rows
  // actually materialized one by one — by a row sink's group expansion, a
  // lazy-expansion cursor, or the DISTINCT collision fallback.

  /// Solution-record groups the matcher emitted.
  uint64_t groups_emitted = 0;
  /// Rows those groups represent (product of list sizes × multiplicity).
  uint64_t factorized_rows_represented = 0;
  /// Rows actually expanded/materialized one by one.
  uint64_t rows_expanded = 0;
  /// Bytes retained by factorized results (FactorizedResult::ByteSize).
  uint64_t bytes_factorized = 0;

  void MergeFrom(const ExecStats& o) {
    rows += o.rows;
    timed_out = timed_out || o.timed_out;
    truncated = truncated || o.truncated;
    cancelled = cancelled || o.cancelled;
    recursion_calls += o.recursion_calls;
    initial_candidates += o.initial_candidates;
    embeddings_found += o.embeddings_found;
    lists_materialized += o.lists_materialized;
    galloped_elements += o.galloped_elements;
    scanned_elements += o.scanned_elements;
    probe_checks += o.probe_checks;
    probe_hits += o.probe_hits;
    range_scans += o.range_scans;
    range_scan_elements += o.range_scan_elements;
    predicate_checks += o.predicate_checks;
    peak_arena_bytes = std::max(peak_arena_bytes, o.peak_arena_bytes);
    threads_used = std::max(threads_used, o.threads_used);
    tasks_dispatched += o.tasks_dispatched;
    groups_emitted += o.groups_emitted;
    factorized_rows_represented =
        SaturatingAdd(factorized_rows_represented, o.factorized_rows_represented);
    rows_expanded += o.rows_expanded;
    bytes_factorized += o.bytes_factorized;
  }
};

/// Sentinel in EmbeddingGroupView::slot_list / FactorizedResult::slot_list
/// for projection slots bound by the core embedding (fixed per group).
inline constexpr uint32_t kNoGroupList = std::numeric_limits<uint32_t>::max();

/// \brief The matcher's per-row hook into a group's expansion.
///
/// One group can stand for millions of rows with no recursion step between
/// them. So every group the matcher emits carries this hook
/// (EmbeddingGroupView::poll), and ExpandGroupRows calls it before handing
/// each row to a sink: the matcher counts the row (ExecStats::rows_expanded)
/// and runs its amortized deadline/token poll, which reads the clock and
/// the token once per 64 calls.
class RowPoll {
 public:
  /// False once the deadline or the token fired (the matcher records
  /// which): the expansion then stops without handing the row.
  virtual bool NextRow() = 0;

 protected:
  ~RowPoll() = default;
};

/// \brief One factorized solution record, viewed zero-copy from the
/// matcher's scratch.
///
/// `fixed` has one entry per projection slot; entries whose `slot_list`
/// value is kNoGroupList hold the core-bound data vertex, the rest are
/// unspecified and draw from `lists[slot_list[i]]` instead. Each list is
/// the full candidate set of one distinct projected satellite (sorted,
/// duplicate-free — a NeighborhoodIndex invariant), in first-appearance
/// order over the projection. The view is valid only for the duration of
/// OnGroup; sinks that retain it must copy.
struct EmbeddingGroupView {
  std::span<const VertexId> fixed = {};
  std::span<const uint32_t> slot_list = {};
  std::span<const std::span<const VertexId>> lists = {};
  /// Row repetitions contributed by non-projected satellites (bag
  /// semantics; always 1 under DISTINCT).
  uint64_t multiplicity = 1;
  /// The matcher's hook (RowPoll); null on views built anywhere else.
  RowPoll* poll = nullptr;

  /// Rows this group represents: multiplicity × Π list sizes (saturating).
  uint64_t Cardinality() const {
    uint64_t card = multiplicity;
    for (std::span<const VertexId> l : lists) {
      card = SaturatingMul(card, l.size());
    }
    return card;
  }
};

/// One step of the expansion odometer over `lists`, digit 0 fastest. This
/// step defines the one row order every group expansion follows: the row
/// sinks, the DISTINCT fallback, FactorizedResult::Cursor and
/// wire::ExpandGroups. Returns false when the odometer wraps, i.e. every
/// combination was visited.
template <typename Lists>
bool OdometerStep(std::span<uint64_t> pick, const Lists& lists) {
  for (size_t d = 0; d < pick.size(); ++d) {
    if (++pick[d] < lists[d].size()) return true;
    pick[d] = 0;
  }
  return false;
}

/// Hands every row of `g` to `on_row` in expansion order: each row
/// `multiplicity` times in a row, then one OdometerStep. `row` and `pick`
/// are caller-owned workspace, so a reused pair expands without
/// allocating. Returns false as soon as `on_row` does or the view's poll
/// reports an interrupt.
template <typename OnRow>
bool ExpandGroupRows(const EmbeddingGroupView& g, std::vector<VertexId>* row,
                     std::vector<uint64_t>* pick, OnRow&& on_row) {
  if (g.Cardinality() == 0) return true;
  row->assign(g.fixed.begin(), g.fixed.end());
  pick->assign(g.lists.size(), 0);
  do {
    for (size_t i = 0; i < g.slot_list.size(); ++i) {
      const uint32_t sl = g.slot_list[i];
      if (sl != kNoGroupList) (*row)[i] = g.lists[sl][(*pick)[sl]];
    }
    for (uint64_t m = 0; m < g.multiplicity; ++m) {
      if (g.poll != nullptr && !g.poll->NextRow()) return false;
      if (!on_row(std::span<const VertexId>(*row))) return false;
    }
  } while (OdometerStep(*pick, g.lists));
  return true;
}

/// \brief Consumer of matcher output: one call per solution record.
///
/// Counting sinks add the group's cardinality, FactorizedSink copies it,
/// and the row sinks expand it (RowExpandingSink).
class EmbeddingSink {
 public:
  virtual ~EmbeddingSink() = default;

  /// One factorized group. Return false to stop enumeration early.
  virtual bool OnGroup(const EmbeddingGroupView& group) = 0;
};

/// Counts rows without materializing them (benchmark fast path).
class CountingSink : public EmbeddingSink {
 public:
  explicit CountingSink(uint64_t cap = 0)
      : cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  bool OnGroup(const EmbeddingGroupView& group) override {
    count_ = SaturatingAdd(count_, group.Cardinality());
    return count_ < cap_;
  }

  uint64_t count() const { return std::min(count_, cap_); }

 private:
  uint64_t count_ = 0;
  uint64_t cap_;
};

/// \brief Base of the sinks that consume rows: expands each group through
/// ExpandGroupRows and hands every row to OnRow.
class RowExpandingSink : public EmbeddingSink {
 public:
  bool OnGroup(const EmbeddingGroupView& group) final {
    return ExpandGroupRows(
        group, &row_, &pick_,
        [this](std::span<const VertexId> row) { return OnRow(row); });
  }

 protected:
  /// One result row; `row[i]` is the data vertex bound to projection slot
  /// i. Return false to stop enumeration early.
  virtual bool OnRow(std::span<const VertexId> row) = 0;

 private:
  std::vector<VertexId> row_;
  std::vector<uint64_t> pick_;
};

/// Collects up to `cap` rows of data-vertex ids.
class CollectingSink : public RowExpandingSink {
 public:
  explicit CollectingSink(uint64_t cap = 0)
      : cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  const std::vector<std::vector<VertexId>>& rows() const { return rows_; }
  std::vector<std::vector<VertexId>>&& TakeRows() { return std::move(rows_); }

 protected:
  bool OnRow(std::span<const VertexId> row) override {
    rows_.emplace_back(row.begin(), row.end());
    return rows_.size() < cap_;
  }

 private:
  std::vector<std::vector<VertexId>> rows_;
  uint64_t cap_;
};

/// Byte key identifying a projected row for DISTINCT deduplication. Every
/// row-level dedup (the row sinks, the answer graph's DISTINCT fallback and
/// its cursor) MUST use this helper so the encodings can never drift apart.
inline std::string RowDedupKey(std::span<const VertexId> row) {
  return std::string(reinterpret_cast<const char*>(row.data()),
                     row.size() * sizeof(VertexId));
}

/// Deduplicates projected rows (SELECT DISTINCT), optionally keeping them.
class DistinctSink : public RowExpandingSink {
 public:
  /// `keep_rows`: retain unique rows (Materialize) or only count them.
  DistinctSink(bool keep_rows, uint64_t cap)
      : keep_rows_(keep_rows),
        cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  uint64_t count() const { return count_; }
  const std::vector<std::vector<VertexId>>& rows() const { return rows_; }
  std::vector<std::vector<VertexId>>&& TakeRows() { return std::move(rows_); }

 protected:
  bool OnRow(std::span<const VertexId> row) override {
    if (seen_.insert(RowDedupKey(row)).second) {
      if (keep_rows_) rows_.emplace_back(row.begin(), row.end());
      ++count_;
    }
    return count_ < cap_;
  }

 private:
  bool keep_rows_;
  uint64_t cap_;
  uint64_t count_ = 0;
  std::unordered_set<std::string> seen_;
  std::vector<std::vector<VertexId>> rows_;
};

/// Forwards rows to `deliver` as groups arrive: the stream mode's one sink,
/// fed by the matcher serially or by the parallel stage's ordered replay.
/// Deduplicates under DISTINCT and stops once `cap` rows were delivered
/// (0 = no cap). The cap counts rows the callback accepted, so a cap stop
/// means exactly "cap delivered"; a false return from the callback stops
/// enumeration.
class StreamingSink : public RowExpandingSink {
 public:
  using Deliver = std::function<bool(std::span<const VertexId>)>;

  StreamingSink(bool dedup, uint64_t cap, Deliver deliver)
      : dedup_(dedup), cap_(cap), deliver_(std::move(deliver)) {}

 protected:
  bool OnRow(std::span<const VertexId> row) override {
    if (dedup_ && !seen_.insert(RowDedupKey(row)).second) return true;
    if (!deliver_(row)) return false;
    ++delivered_;
    return cap_ == 0 || delivered_ < cap_;
  }

 private:
  bool dedup_;
  uint64_t cap_;
  Deliver deliver_;
  uint64_t delivered_ = 0;
  std::unordered_set<std::string> seen_;
};

}  // namespace amber

#endif  // AMBER_CORE_EXEC_H_
