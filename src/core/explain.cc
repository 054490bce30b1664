#include "core/explain.h"

#include <cstdio>
#include <string>
#include <vector>

#include "core/matcher.h"

namespace amber {

namespace {

// `pushed` is u's row of PushedConstraints, or null without indexes.
void AppendVertexLine(const QueryGraph& q, uint32_t u,
                      const RdfDictionaries& dicts,
                      const std::vector<uint8_t>* pushed, std::string* out) {
  const QueryVertex& v = q.vertices()[u];
  *out += "  ?" + v.name;
  *out += " (degree " + std::to_string(q.Degree(u));
  *out += ", r2=" + std::to_string(q.SignatureEdgeCount(u)) + ")";
  if (!v.attrs.empty()) {
    *out += " attrs={";
    for (size_t i = 0; i < v.attrs.size(); ++i) {
      if (i) *out += ", ";
      *out += dicts.AttributeDescription(v.attrs[i]);
    }
    *out += "}";
  }
  if (!v.preds.empty()) {
    // The matcher's own push classes (PushedConstraints): core vertices get
    // selective constraints as ValueIndex range scans; satellites, wide
    // ranges and the post-filter mode evaluate residually per candidate.
    *out += " preds={";
    for (size_t i = 0; i < v.preds.size(); ++i) {
      if (i) *out += ", ";
      const PredicateConstraint& pc = v.preds[i];
      *out += "<";
      *out += dicts.AttrPredicateIri(pc.predicate);
      *out += ">";
      for (const ValueComparison& c : pc.comparisons) {
        *out += " ";
        *out += CompareOpToken(c.op);
        *out += " ";
        *out += c.value.ToString();
      }
      if (pushed != nullptr) {
        *out += (*pushed)[i] ? " [index-pushed]" : " [residual]";
      }
    }
    *out += "}";
  }
  for (const IriConstraint& c : v.iris) {
    *out += " anchor=";
    *out += dicts.VertexToken(c.anchor);
    if (!c.out_types.empty()) {
      *out += " out:" + std::to_string(c.out_types.size());
    }
    if (!c.in_types.empty()) {
      *out += " in:" + std::to_string(c.in_types.size());
    }
  }
  if (!v.self_types.empty()) {
    *out += " self-loop(" + std::to_string(v.self_types.size()) + ")";
  }
  *out += "\n";
}

}  // namespace

Result<std::string> ExplainQuery(const SelectQuery& query,
                                 const RdfDictionaries& dicts,
                                 const IndexSet* indexes,
                                 const PlanOptions& options,
                                 const ExecOptions* exec,
                                 const ExecStats* stats) {
  AMBER_ASSIGN_OR_RETURN(QueryGraph q, QueryGraph::Build(query, dicts));

  std::string out;
  out += "Query multigraph: " + std::to_string(q.NumVertices()) +
         " variable vertices, " + std::to_string(q.edges().size()) +
         " multi-edges, " + std::to_string(q.ground_edges().size()) +
         " ground edges, " + std::to_string(q.ground_attributes().size()) +
         " ground attributes";
  if (!q.ground_predicates().empty()) {
    out += ", " + std::to_string(q.ground_predicates().size()) +
           " ground predicate checks";
  }
  out += "\n";

  if (q.unsatisfiable()) {
    out += "UNSATISFIABLE: " + q.unsatisfiable_reason() + "\n";
    return out;
  }

  // The plan, push classes and CandInit sources come from the helpers the
  // engine and the matcher use, so EXPLAIN describes the plan that runs.
  ExecOptions run = exec != nullptr ? *exec : ExecOptions{};
  run.plan = options;
  QueryPlan plan;
  std::vector<std::vector<uint8_t>> pushed;
  if (indexes != nullptr) {
    const uint64_t num_vertices = indexes->signature.NumVertices();
    plan = PlanForExecution(q, run, *indexes, num_vertices);
    pushed = PushedConstraints(q, plan, run, indexes->value, num_vertices);
  } else {
    plan = PlanQuery(q, options);
  }
  out += "Decomposition: " + std::to_string(plan.NumCoreVertices()) +
         " core, " + std::to_string(plan.NumSatelliteVertices()) +
         " satellite, " + std::to_string(plan.components.size()) +
         " component(s)\n";

  if (exec != nullptr) {
    // Mirrors AmberEngine's parallel gate: >1 threads and at least one
    // component (fully ground queries have nothing to shard).
    if (exec->num_threads > 1 && !plan.components.empty()) {
      const uint32_t uinit = plan.components[0].core_order[0];
      out += "Parallel online stage: " +
             std::to_string(exec->num_threads) + " threads over CandInit(?" +
             q.vertices()[uinit].name +
             ") chunks, deterministic chunk-order merge (rows bit-identical "
             "to serial)\n";
    } else {
      out += "Parallel online stage: serial (num_threads=" +
             std::to_string(exec->num_threads < 1 ? 1 : exec->num_threads) +
             ")\n";
    }

    // Retained results are always answer graphs; satellites decide
    // whether a group can stand for more than one row.
    const size_t satellites = plan.NumSatelliteVertices();
    out += "Result form: factorized (";
    if (satellites > 0) {
      out += std::to_string(satellites) +
             " satellite vertices grouped per core embedding";
    } else {
      out += "no satellites: one row per group";
    }
    out += ")\n";

    if (stats != nullptr && stats->groups_emitted > 0) {
      out += "  groups emitted: " + std::to_string(stats->groups_emitted) +
             ", rows represented: " +
             std::to_string(stats->factorized_rows_represented) +
             ", rows expanded: " + std::to_string(stats->rows_expanded);
      if (stats->rows_expanded == 0) {
        out += " (never expanded)";
      } else {
        char ratio[32];
        std::snprintf(ratio, sizeof(ratio), " (%.2fx)",
                      static_cast<double>(stats->factorized_rows_represented) /
                          static_cast<double>(stats->rows_expanded));
        out += ratio;
      }
      out += "\n";
    }
  }

  for (size_t ci = 0; ci < plan.components.size(); ++ci) {
    const ComponentPlan& cp = plan.components[ci];
    out += "Component " + std::to_string(ci) + " matching order:\n";
    for (size_t i = 0; i < cp.core_order.size(); ++i) {
      const uint32_t u = cp.core_order[i];
      out += (i == 0) ? "  [init] " : "  [" + std::to_string(i) + "]    ";
      out += "?" + q.vertices()[u].name;
      if (!cp.satellites[i].empty()) {
        out += "  satellites:";
        for (uint32_t s : cp.satellites[i]) {
          out += " ?" + q.vertices()[s].name;
        }
      }
      if (i == 0 && indexes != nullptr) {
        const Synopsis syn = q.VertexSynopsis(u);
        out += "  |C^S| = " +
               std::to_string(indexes->signature.Candidates(syn).size());
        out += ", seed: ";
        if (HasConstantList(q.vertices()[u], pushed[u])) {
          out += "constants";
        } else {
          out += run.use_signature_index ? "S index" : "synopsis scan";
        }
      }
      out += "\n";
    }
  }

  out += "Vertex detail:\n";
  for (uint32_t u = 0; u < q.NumVertices(); ++u) {
    AppendVertexLine(q, u, dicts, indexes != nullptr ? &pushed[u] : nullptr,
                     &out);
  }
  return out;
}

}  // namespace amber
