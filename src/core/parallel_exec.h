// The parallel online matching stage (the paper's explicit "parallel
// processing version" future-work item; docs/ARCHITECTURE.md, "The parallel
// online stage").
//
// Unit of parallelism: one CandInit candidate of the first component's
// initial vertex. The root candidate list is split into fixed chunks that
// workers claim from a shared queue (util/thread_pool.h); each worker owns
// a MatcherScratch arena reused across all the chunks it processes, so the
// per-worker steady state stays allocation-free.
//
// Pool ownership: when ExecOptions::pool is set, helper workers are
// borrowed from that externally owned pool (per-query completion tracked
// with a latch, so concurrent queries can multiplex one pool — the serving
// runtime of server/query_service.h owns one persistent pool per service).
// Otherwise a transient pool is spawned for this query and torn down at the
// end, exactly as before.
//
// Three modes: non-DISTINCT counting, factorizing (the answer graph every
// retained result is read from) and streaming.
//
// Determinism contract: for every combination of SELECT / DISTINCT / LIMIT
// and every mode, the parallel mode returns rows (and counts)
// BIT-IDENTICAL to serial execution. Serial enumeration visits root
// candidates in CandInit order, so concatenating per-chunk results in
// chunk order reproduces the serial row order exactly; DISTINCT replays
// the chunks through one ordered global dedup; LIMIT takes the ordered
// prefix. A shared row budget provides early cutoff without breaking the
// contract: a chunk may only be skipped or stopped when chunks strictly
// *before* it have already produced the full row cap (their rows shadow
// everything this chunk could contribute). The only nondeterministic case
// is a timeout — exactly as in serial execution, a timed-out query reports
// partial results and stats.timed_out.

#ifndef AMBER_CORE_PARALLEL_EXEC_H_
#define AMBER_CORE_PARALLEL_EXEC_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/exec.h"
#include "core/factorized.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "sparql/query_graph.h"
#include "util/status.h"

namespace amber {

/// Outcome of a parallel matching run.
struct ParallelRunResult {
  /// Result rows (bag semantics; distinct rows under DISTINCT), capped.
  uint64_t rows = 0;
  /// True when the row cap stopped enumeration early (matches the serial
  /// sinks: set exactly when the cap was reached).
  bool truncated = false;
};

/// \brief Streaming consumer for RunMatcherParallel (the engine Stream
/// path).
///
/// Rows arrive in the EXACT serial order (the deterministic chunk-order
/// contract): each chunk's finished prefix is streamed as soon as every
/// earlier chunk has fully drained, while later chunks buffer at most
/// ExecOptions::stream_chunk_buffer_rows rows before their producer blocks
/// (bounded-memory backpressure). `emit` is invoked from worker threads but
/// never concurrently (the internal single-emitter protocol serializes it
/// and hands off with a happens-before edge); return false to stop the
/// stream — remaining workers unwind like a row-cap stop.
struct ParallelStreamSink {
  std::function<bool(std::span<const VertexId>)> emit;
};

/// \brief Factorized output mode of RunMatcherParallel.
///
/// Each chunk collects raw groups through its own FactorizedBuilder (the
/// shared row budget charged in group-cardinality units); the merge then
/// re-feeds every chunk's groups, in chunk order, through ONE global
/// builder — the exact code path the serial FactorizedSink drives — so the
/// merged result (collision flags, totals, cap cut) and its expansion are
/// identical to a serial factorized run by construction.
struct ParallelFactorizeRequest {
  /// Projection slots per row and the per-slot list mapping (BuildSlotList).
  uint32_t num_slots = 0;
  std::vector<uint32_t> slot_list;
  /// Receives the merged result.
  FactorizedResult* out = nullptr;
  /// Out: rows the merge-time DISTINCT collision fallback expanded
  /// (chunk-local expansions are already in the merged worker stats).
  uint64_t rows_expanded = 0;
};

/// Runs the matcher across `options.num_threads` workers and merges
/// deterministically. `cap` is the effective row cap (0 = unlimited).
/// When `stream` is non-null rows are pushed into it incrementally, in
/// serial order; when `factorize` is non-null the result is retained as a
/// factorized answer graph; with neither, rows are counted — a mode only
/// for non-DISTINCT queries (the engine counts DISTINCT through the answer
/// graph). At most one of the two may be set. Requires a satisfiable query
/// with at least one component (the engine keeps ground-only queries on
/// the serial path) and `options.num_threads > 1`.
///
/// Cancellation: ExecOptions::cancel is observed at chunk claiming (chunks
/// not yet claimed are never started) and inside every chunk Run; a
/// cancelled query returns partial results with stats->cancelled set, like
/// a timeout.
///
/// Stats: per-counter sums over workers, max for peak_arena_bytes, plus
/// threads_used / tasks_dispatched; initial_candidates is attributed once
/// (to the root CandInit computation), as in serial execution.
Result<ParallelRunResult> RunMatcherParallel(
    const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
    const QueryPlan& plan, const ExecOptions& options, uint64_t cap,
    ExecStats* stats, ParallelStreamSink* stream = nullptr,
    ParallelFactorizeRequest* factorize = nullptr);

}  // namespace amber

#endif  // AMBER_CORE_PARALLEL_EXEC_H_
