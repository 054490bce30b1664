// Common interface implemented by AMbER and by the baseline engines, so the
// benchmark harness and the cross-engine consistency tests can drive them
// uniformly.
//
// All engines implement the *paper's* query model: variables bind to
// IRIs/blank nodes (multigraph vertices); literals occur only as constants
// (vertex attributes). Results are identical across engines by construction
// and verified by property tests.

#ifndef AMBER_CORE_QUERY_ENGINE_H_
#define AMBER_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/exec.h"
#include "core/factorized.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace amber {

/// Result of a counting execution.
struct CountResult {
  uint64_t count = 0;
  ExecStats stats;
};

/// Result of a materializing execution: rows of N-Triples tokens.
struct MaterializedRows {
  std::vector<std::string> var_names;
  std::vector<std::vector<std::string>> rows;
  ExecStats stats;
};

/// \brief Consumer of a streaming execution (QueryEngine::Stream).
///
/// OnRow receives each result row of N-Triples tokens, in the SAME order a
/// Materialize call would produce (the deterministic chunk-order contract
/// holds for streams too); the span is only valid during the call. Return
/// false to stop the stream early — the engine unwinds cooperatively and
/// reports StreamResult::sink_stopped.
class RowSink {
 public:
  virtual ~RowSink() = default;
  virtual bool OnRow(std::span<const std::string> row) = 0;
};

/// Result of a factorizing execution: the unexpanded answer graph, in
/// data-vertex ids. Expand rows lazily via `result.Expand()` and translate
/// them with QueryEngine::TranslateRow.
struct FactorizedRows {
  std::vector<std::string> var_names;
  FactorizedResult result;
  ExecStats stats;
};

/// Result of a streaming execution. The rows themselves already left
/// through the RowSink; this carries the tail metadata.
struct StreamResult {
  std::vector<std::string> var_names;
  /// Rows delivered to the sink (distinct rows under DISTINCT).
  uint64_t rows = 0;
  /// True when the sink stopped the stream (OnRow returned false).
  bool sink_stopped = false;
  /// timed_out / truncated / cancelled describe the stream's end state;
  /// `stats.rows` equals `rows`.
  ExecStats stats;
};

/// \brief Abstract SPARQL (SELECT/WHERE fragment) query engine.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Engine display name ("AMbER", "TripleStore", ...).
  virtual std::string name() const = 0;

  /// Counts result rows (bag semantics; distinct rows under DISTINCT)
  /// without materializing them. Timeouts are reported via
  /// `stats.timed_out`, not as an error.
  virtual Result<CountResult> Count(const SelectQuery& query,
                                    const ExecOptions& options) = 0;

  /// Materializes result rows as strings (subject to LIMIT / max_rows).
  virtual Result<MaterializedRows> Materialize(const SelectQuery& query,
                                               const ExecOptions& options) = 0;

  /// Streams result rows into `sink` instead of materializing them. Rows
  /// arrive in Materialize order; a false return from the sink stops the
  /// stream. The base implementation materializes and replays (correct
  /// for every engine, O(result) memory); AMbER overrides it with true
  /// incremental emission bounded by O(buffer) memory.
  virtual Result<StreamResult> Stream(const SelectQuery& query,
                                      const ExecOptions& options,
                                      RowSink* sink);

  /// Executes the query and retains the result in factorized form (see
  /// docs/ARCHITECTURE.md, "Factorized answer graphs") instead of
  /// expanding rows: each group is a core embedding times its projected
  /// satellites' candidate lists, and a plan without satellites yields one
  /// row per group. The base implementation returns kUnimplemented —
  /// callers fall back to Materialize; AMbER overrides it.
  virtual Result<FactorizedRows> Factorize(const SelectQuery& query,
                                           const ExecOptions& options);

  /// Translates one expanded row of data-vertex ids into N-Triples tokens
  /// (the Materialize output format). Only meaningful on engines whose
  /// Factorize succeeds; the base implementation returns an empty row.
  virtual std::vector<std::string> TranslateRow(
      std::span<const VertexId> row) const;

  /// Parses `text` and counts.
  Result<CountResult> CountSparql(std::string_view text,
                                  const ExecOptions& options = {});

  /// Parses `text` and materializes.
  Result<MaterializedRows> MaterializeSparql(std::string_view text,
                                             const ExecOptions& options = {});

  /// Parses `text` and streams.
  Result<StreamResult> StreamSparql(std::string_view text,
                                    const ExecOptions& options, RowSink* sink);
};

/// The row cap implied by options.max_rows and the query's LIMIT (0 = none).
uint64_t EffectiveRowCap(const SelectQuery& query, const ExecOptions& options);

}  // namespace amber

#endif  // AMBER_CORE_QUERY_ENGINE_H_
