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
// Two modes: the ordered replay and the order-free count.
//
// Determinism contract (ordered replay): the caller's sink receives the
// serial run's groups, in the serial order. Serial enumeration visits root
// candidates in CandInit order, so replaying the chunks' groups in chunk
// order reproduces it exactly; DISTINCT, LIMIT and expansion are then the
// sink's, the same code whatever the thread count. The only
// nondeterministic case is a timeout — exactly as in serial execution, a
// timed-out query reports partial results and stats.timed_out.

#ifndef AMBER_CORE_PARALLEL_EXEC_H_
#define AMBER_CORE_PARALLEL_EXEC_H_

#include <cstdint>

#include "core/exec.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "sparql/query_graph.h"
#include "util/status.h"

namespace amber {

/// Outcome of an order-free parallel count.
struct ParallelRunResult {
  /// Result rows (bag semantics), capped.
  uint64_t rows = 0;
  /// True when the row cap stopped enumeration early (matches the serial
  /// sinks: set exactly when the cap was reached).
  bool truncated = false;
};

/// Runs the matcher across `options.num_threads` workers. `cap` is the
/// effective row cap (0 = unlimited).
///
/// With `ordered` set, every chunk's groups are replayed into it in chunk
/// order, which is the serial order, so `ordered` sees exactly what a
/// serial Matcher::Run would hand it. It is called from worker threads but
/// never concurrently (one thread at a time holds the emitter role, handed
/// on under a mutex). A chunk behind the head buffers its groups, up to
/// `buffer_rows` represented rows (0 = unbounded; a chunk always accepts one
/// group, however large) before its producer blocks. Without DISTINCT a
/// chunk stops once it produced `cap` rows. The sink decides truncation:
/// the returned ParallelRunResult is empty and stats->truncated is left
/// alone.
///
/// With `ordered` null, rows are counted in any order — a mode only for
/// non-DISTINCT queries (the engine counts DISTINCT through the answer
/// graph).
///
/// Requires a satisfiable query with at least one component (the engine
/// keeps ground-only queries on the serial path) and
/// `options.num_threads > 1`.
///
/// Cancellation: ExecOptions::cancel is observed at chunk claiming (chunks
/// not yet claimed are never started), inside every chunk Run and, once
/// per 64 rows, in the expansion of every replayed group; a cancelled
/// query returns partial results with stats->cancelled set, like a
/// timeout.
///
/// Stats: per-counter sums over workers, max for peak_arena_bytes, plus
/// threads_used / tasks_dispatched; initial_candidates is attributed once
/// (to the root CandInit computation), as in serial execution. In the
/// ordered mode rows_expanded counts the rows the replay expanded.
Result<ParallelRunResult> RunMatcherParallel(
    const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
    const QueryPlan& plan, const ExecOptions& options, uint64_t cap,
    ExecStats* stats, EmbeddingSink* ordered = nullptr,
    uint64_t buffer_rows = 0);

}  // namespace amber

#endif  // AMBER_CORE_PARALLEL_EXEC_H_
