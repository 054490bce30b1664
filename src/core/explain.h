// EXPLAIN facility: a human-readable account of how AMbER would execute a
// query — the query multigraph, the core/satellite decomposition, the
// matching order with ranking values, per-vertex constraint summaries and
// the initial candidate estimate from the S index. Production engines live
// and die by their EXPLAIN; it also makes the Section 3/5 machinery
// observable in tests and examples.

#ifndef AMBER_CORE_EXPLAIN_H_
#define AMBER_CORE_EXPLAIN_H_

#include <string>

#include "core/exec.h"
#include "core/query_plan.h"
#include "index/index_set.h"
#include "sparql/ast.h"
#include "sparql/query_graph.h"
#include "util/status.h"

namespace amber {

/// Renders the execution plan of `query` against data described by `dicts`
/// (and, when `indexes` is non-null, initial candidate counts from S).
/// When `exec` is non-null, also reports how the parallel online stage
/// would run under those execution options (partition unit, worker count,
/// determinism contract) — or that execution stays serial — and whether
/// the plan has satellites, i.e. whether a group of its answer graph can
/// stand for more than one row. When `stats` is additionally non-null,
/// reports the factorization outcome of an actual execution: groups
/// emitted, rows represented vs expanded, and the compression ratio.
Result<std::string> ExplainQuery(const SelectQuery& query,
                                 const RdfDictionaries& dicts,
                                 const IndexSet* indexes,
                                 const PlanOptions& options = {},
                                 const ExecOptions* exec = nullptr,
                                 const ExecStats* stats = nullptr);

}  // namespace amber

#endif  // AMBER_CORE_EXPLAIN_H_
