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

  /// Streaming mode only: rows a non-head parallel chunk may buffer before
  /// its producer blocks for the ordered stream to catch up (bounded-memory
  /// backpressure; docs/ARCHITECTURE.md, "Streaming & cancellation").
  /// Ignored on the materializing and serial paths. Min 1.
  uint64_t stream_chunk_buffer_rows = 4096;

  /// Number of worker threads for root-candidate partitioning (>1 enables
  /// the parallel mode; the paper lists this as future work). The parallel
  /// mode covers SELECT, DISTINCT, LIMIT and materialization, and returns
  /// rows bit-identical to serial execution (deterministic chunk-order
  /// merge; see docs/ARCHITECTURE.md, "The parallel online stage").
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
  // graphs"). groups_emitted / factorized_rows_represented track the
  // compact representation (also on the counting fast path, which is
  // group-at-a-time); rows_expanded counts rows actually materialized —
  // by the flat odometer, a lazy-expansion cursor, or the DISTINCT
  // collision fallback.

  /// Solution-record groups emitted without odometer expansion.
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
  std::span<const VertexId> fixed;
  std::span<const uint32_t> slot_list;
  std::span<const std::span<const VertexId>> lists;
  /// Row repetitions contributed by non-projected satellites (bag
  /// semantics; always 1 under DISTINCT).
  uint64_t multiplicity = 1;
};

/// \brief Consumer of matcher output.
///
/// Engines drive a sink with either expanded rows (OnRow) or, when the sink
/// does not need row contents, bulk counts (OnCount) that avoid the
/// Cartesian expansion of satellite sets entirely. Both return false to
/// stop enumeration early.
class EmbeddingSink {
 public:
  virtual ~EmbeddingSink() = default;

  /// True if the sink needs the actual rows; false enables the counting
  /// fast path.
  virtual bool wants_rows() const = 0;

  /// One result row; `row[i]` is the data vertex bound to projection slot i.
  virtual bool OnRow(std::span<const VertexId> row) = 0;

  /// `count` rows whose contents the sink does not need.
  virtual bool OnCount(uint64_t count) = 0;

  /// True if the sink consumes factorized groups: Emit() then calls
  /// OnGroup once per solution record instead of expanding the odometer.
  /// Only consulted when wants_rows() is true.
  virtual bool wants_groups() const { return false; }

  /// One factorized group (wants_groups() mode). Return false to stop
  /// enumeration early.
  virtual bool OnGroup(const EmbeddingGroupView&) { return true; }
};

/// Counts rows without materializing them (benchmark fast path).
class CountingSink : public EmbeddingSink {
 public:
  explicit CountingSink(uint64_t cap = 0)
      : cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  bool wants_rows() const override { return false; }
  bool OnRow(std::span<const VertexId>) override { return OnCount(1); }
  bool OnCount(uint64_t count) override {
    count_ = SaturatingAdd(count_, count);
    return count_ < cap_;
  }

  uint64_t count() const { return std::min(count_, cap_); }

 private:
  uint64_t count_ = 0;
  uint64_t cap_;
};

/// Collects up to `cap` rows of data-vertex ids.
class CollectingSink : public EmbeddingSink {
 public:
  explicit CollectingSink(uint64_t cap = 0)
      : cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  bool wants_rows() const override { return true; }
  bool OnRow(std::span<const VertexId> row) override {
    rows_.emplace_back(row.begin(), row.end());
    return rows_.size() < cap_;
  }
  bool OnCount(uint64_t) override { return true; }  // unused in row mode

  const std::vector<std::vector<VertexId>>& rows() const { return rows_; }
  std::vector<std::vector<VertexId>>&& TakeRows() { return std::move(rows_); }

 private:
  std::vector<std::vector<VertexId>> rows_;
  uint64_t cap_;
};

/// Byte key identifying a projected row for DISTINCT deduplication. The
/// parallel stream dedups across chunks with the same keys StreamingSink
/// builds per chunk — every row-level dedup MUST use this helper so the
/// encodings can never drift apart.
inline std::string RowDedupKey(std::span<const VertexId> row) {
  return std::string(reinterpret_cast<const char*>(row.data()),
                     row.size() * sizeof(VertexId));
}

/// Deduplicates projected rows (SELECT DISTINCT), optionally keeping them.
class DistinctSink : public EmbeddingSink {
 public:
  /// `keep_rows`: retain unique rows (Materialize) or only count them.
  DistinctSink(bool keep_rows, uint64_t cap)
      : keep_rows_(keep_rows),
        cap_(cap == 0 ? std::numeric_limits<uint64_t>::max() : cap) {}

  bool wants_rows() const override { return true; }
  bool OnRow(std::span<const VertexId> row) override {
    if (seen_.insert(RowDedupKey(row)).second) {
      if (keep_rows_) rows_.emplace_back(row.begin(), row.end());
      ++count_;
    }
    return count_ < cap_;
  }
  bool OnCount(uint64_t) override { return true; }

  uint64_t count() const { return count_; }
  const std::vector<std::vector<VertexId>>& rows() const { return rows_; }
  std::vector<std::vector<VertexId>>&& TakeRows() { return std::move(rows_); }

 private:
  bool keep_rows_;
  uint64_t cap_;
  uint64_t count_ = 0;
  std::unordered_set<std::string> seen_;
  std::vector<std::vector<VertexId>> rows_;
};

/// Forwards rows to `deliver` as the matcher finds them: the stream mode,
/// serially and per parallel chunk. Deduplicates under DISTINCT and stops
/// once `cap` rows were delivered (0 = no cap). The cap counts rows the
/// callback accepted, so a cap stop means exactly "cap delivered"; a false
/// return from the callback stops enumeration.
class StreamingSink : public EmbeddingSink {
 public:
  using Deliver = std::function<bool(std::span<const VertexId>)>;

  StreamingSink(bool dedup, uint64_t cap, Deliver deliver)
      : dedup_(dedup), cap_(cap), deliver_(std::move(deliver)) {}

  bool wants_rows() const override { return true; }
  bool OnRow(std::span<const VertexId> row) override {
    if (dedup_ && !seen_.insert(RowDedupKey(row)).second) return true;
    if (!deliver_(row)) return false;
    ++delivered_;
    return cap_ == 0 || delivered_ < cap_;
  }
  bool OnCount(uint64_t) override { return true; }  // row mode only

 private:
  bool dedup_;
  uint64_t cap_;
  Deliver deliver_;
  uint64_t delivered_ = 0;
  std::unordered_set<std::string> seen_;
};

}  // namespace amber

#endif  // AMBER_CORE_EXEC_H_
