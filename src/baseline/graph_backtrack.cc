#include "baseline/graph_backtrack.h"

#include <algorithm>
#include <cassert>

#include "index/attribute_index.h"
#include "util/clock.h"

namespace amber {

Result<GraphBacktrackEngine> GraphBacktrackEngine::Build(
    const std::vector<Triple>& triples) {
  AMBER_ASSIGN_OR_RETURN(EncodedDataset dataset,
                         EncodedDataset::Encode(triples));
  GraphBacktrackEngine engine;
  engine.graph_ = Multigraph::FromDataset(dataset);
  engine.dicts_ = std::move(dataset.dictionaries);
  engine.attr_values_ = std::move(dataset.attribute_values);
  return engine;
}

/// Stateful executor for one query.
class GraphBacktrackExec {
 public:
  GraphBacktrackExec(const GraphBacktrackEngine& engine,
                     const QueryGraph& q, const ExecOptions& options)
      : g_(engine.graph_),
        attr_values_(engine.attr_values_),
        q_(q),
        options_(options) {}

  void Run(EmbeddingSink* sink, ExecStats* stats) {
    sink_ = sink;
    stats_ = stats;
    deadline_ = Deadline::After(options_.timeout);
    match_.assign(q_.NumVertices(), kInvalidId);
    row_buffer_.resize(q_.projection().size());
    core_slots_.assign(q_.projection().size(), kNoGroupList);

    // Ground checks first.
    for (const GroundEdge& e : q_.ground_edges()) {
      if (!g_.HasEdge(e.subject, e.predicate, e.object)) return;
    }
    for (const GroundAttribute& a : q_.ground_attributes()) {
      std::span<const AttributeId> attrs = g_.Attributes(a.subject);
      if (!std::binary_search(attrs.begin(), attrs.end(), a.attribute)) {
        return;
      }
    }
    for (const GroundPredicate& gp : q_.ground_predicates()) {
      if (!HasQualifyingLiteral(gp.subject, gp.predicate, gp.comparisons)) {
        return;
      }
    }
    if (q_.NumVertices() == 0) {
      sink_->OnGroup(EmbeddingGroupView{});  // one empty row
      return;
    }

    ComputeOrder();
    Recurse(0);
  }

 private:
  // Connectivity-constrained greedy order over ALL variables, ranked by
  // signature richness (no core/satellite split — that is AMbER's trick).
  void ComputeOrder() {
    const size_t n = q_.NumVertices();
    std::vector<bool> chosen(n, false), frontier(n, false);
    order_.clear();
    for (size_t step = 0; step < n; ++step) {
      uint32_t best = kInvalidId;
      bool best_connected = false;
      for (uint32_t u = 0; u < n; ++u) {
        if (chosen[u]) continue;
        bool connected = frontier[u];
        if (best == kInvalidId || (connected && !best_connected) ||
            (connected == best_connected &&
             q_.SignatureEdgeCount(u) > q_.SignatureEdgeCount(best))) {
          best = u;
          best_connected = connected;
        }
      }
      chosen[best] = true;
      order_.push_back(best);
      for (uint32_t w : q_.Neighbors(best)) frontier[w] = true;
    }
  }

  /// Residual FILTER check over the vertex's own attributes (no index).
  bool HasQualifyingLiteral(VertexId v, AttrPredId pred,
                            std::span<const ValueComparison> cmps) const {
    for (AttributeId a : g_.Attributes(v)) {
      if (a >= attr_values_.size()) continue;
      const AttributeValueInfo& info = attr_values_[a];
      if (info.predicate == pred && SatisfiesAll(info.value, cmps)) {
        return true;
      }
    }
    return false;
  }

  bool CheckLocal(uint32_t u, VertexId v) const {
    const QueryVertex& qv = q_.vertices()[u];
    std::span<const AttributeId> have = g_.Attributes(v);
    for (AttributeId a : qv.attrs) {
      if (!std::binary_search(have.begin(), have.end(), a)) return false;
    }
    for (const PredicateConstraint& pc : qv.preds) {
      if (!HasQualifyingLiteral(v, pc.predicate, pc.comparisons)) {
        return false;
      }
    }
    for (const IriConstraint& c : qv.iris) {
      if (!c.out_types.empty() &&
          !g_.HasMultiEdgeSuperset(v, Direction::kOut, c.anchor,
                                   c.out_types)) {
        return false;
      }
      if (!c.in_types.empty() &&
          !g_.HasMultiEdgeSuperset(v, Direction::kIn, c.anchor, c.in_types)) {
        return false;
      }
    }
    if (!qv.self_types.empty() &&
        !g_.HasMultiEdgeSuperset(v, Direction::kOut, v, qv.self_types)) {
      return false;
    }
    return true;
  }

  // All edges between u and already-matched variables must be satisfiable.
  bool CheckEdges(uint32_t u, VertexId v) const {
    for (const auto& [edge_idx, u_is_from] : q_.IncidentEdges(u)) {
      const QueryEdge& e = q_.edges()[edge_idx];
      const uint32_t other = u_is_from ? e.to : e.from;
      const VertexId w = match_[other];
      if (w == kInvalidId) continue;
      const Direction d = u_is_from ? Direction::kOut : Direction::kIn;
      if (!g_.HasMultiEdgeSuperset(v, d, w, e.types)) return false;
    }
    return true;
  }

  bool Expired() {
    if ((++tick_ & 63u) != 0) return false;
    if (deadline_.Expired()) {
      stats_->timed_out = true;
      return true;
    }
    return false;
  }

  bool Emit() {
    ++stats_->embeddings_found;
    const std::vector<uint32_t>& proj = q_.projection();
    for (size_t i = 0; i < proj.size(); ++i) {
      row_buffer_[i] = match_[proj[i]];
    }
    // Each solution is a one-row group: every slot bound, no lists.
    const EmbeddingGroupView row{.fixed = row_buffer_,
                                 .slot_list = core_slots_};
    const bool keep_going = sink_->OnGroup(row);
    if (!keep_going) stats_->truncated = true;
    return keep_going;
  }

  // Returns false to stop the whole enumeration.
  bool Recurse(size_t depth) {
    if (depth == order_.size()) return Emit();
    if (Expired()) return false;
    ++stats_->recursion_calls;

    const uint32_t u = order_[depth];

    // Candidate generation: from the smallest matched-neighbour adjacency
    // if one exists, otherwise a full vertex scan (no indexes).
    std::vector<VertexId> cand;
    bool have_anchor = false;
    for (const auto& [edge_idx, u_is_from] : q_.IncidentEdges(u)) {
      const QueryEdge& e = q_.edges()[edge_idx];
      const uint32_t other = u_is_from ? e.to : e.from;
      const VertexId w = match_[other];
      if (w == kInvalidId) continue;
      // u_is_from: psi(u) --types--> w, so scan w's in-neighbours.
      const Direction d = u_is_from ? Direction::kIn : Direction::kOut;
      std::vector<VertexId> list;
      const size_t groups = g_.GroupCount(w, d);
      list.reserve(groups);
      for (size_t i = 0; i < groups; ++i) {
        GroupView view = g_.Group(w, d, i);
        // Linear containment check over the group's sorted types.
        size_t k = 0;
        bool contains = true;
        for (EdgeTypeId t : e.types) {
          while (k < view.types.size() && view.types[k] < t) ++k;
          if (k == view.types.size() || view.types[k] != t) {
            contains = false;
            break;
          }
          ++k;
        }
        if (contains) list.push_back(view.neighbor);
      }
      std::sort(list.begin(), list.end());
      cand = have_anchor ? IntersectSorted(cand, list) : std::move(list);
      have_anchor = true;
      if (cand.empty()) return true;
    }

    if (have_anchor) {
      for (VertexId v : cand) {
        if (Expired()) return false;
        if (!CheckLocal(u, v)) continue;
        match_[u] = v;
        bool cont = Recurse(depth + 1);
        match_[u] = kInvalidId;
        if (!cont) return false;
      }
      return true;
    }

    // No matched neighbour (first vertex of a component): full scan.
    const uint32_t stats_candidates_base = depth == 0 ? 1 : 0;
    uint64_t initial = 0;
    for (VertexId v = 0; v < g_.NumVertices(); ++v) {
      if (Expired()) return false;
      if (!CheckLocal(u, v)) continue;
      if (!CheckEdges(u, v)) continue;
      ++initial;
      match_[u] = v;
      bool cont = Recurse(depth + 1);
      match_[u] = kInvalidId;
      if (!cont) return false;
    }
    if (stats_candidates_base) stats_->initial_candidates += initial;
    return true;
  }

  const Multigraph& g_;
  const std::vector<AttributeValueInfo>& attr_values_;
  const QueryGraph& q_;
  const ExecOptions& options_;

  std::vector<uint32_t> order_;
  std::vector<VertexId> match_;
  std::vector<VertexId> row_buffer_;
  std::vector<uint32_t> core_slots_;  // kNoGroupList per projection slot
  EmbeddingSink* sink_ = nullptr;
  ExecStats* stats_ = nullptr;
  Deadline deadline_;
  uint32_t tick_ = 0;
};

namespace {

Result<uint64_t> RunQuery(const GraphBacktrackEngine& engine,
                          const Multigraph& graph,
                          const RdfDictionaries& dicts,
                          const SelectQuery& query, const ExecOptions& options,
                          ExecStats* stats,
                          std::vector<std::vector<VertexId>>* rows_out) {
  (void)graph;
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts));
  const uint64_t cap = EffectiveRowCap(query, options);
  uint64_t rows = 0;
  if (!qg.unsatisfiable()) {
    GraphBacktrackExec exec(engine, qg, options);
    if (rows_out != nullptr) {
      if (qg.distinct()) {
        DistinctSink sink(/*keep_rows=*/true, cap);
        exec.Run(&sink, stats);
        *rows_out = sink.rows();
        rows = sink.count();
      } else {
        CollectingSink sink(cap);
        exec.Run(&sink, stats);
        *rows_out = std::move(sink.TakeRows());
        rows = rows_out->size();
      }
    } else if (qg.distinct()) {
      DistinctSink sink(/*keep_rows=*/false, cap);
      exec.Run(&sink, stats);
      rows = sink.count();
    } else {
      CountingSink sink(cap);
      exec.Run(&sink, stats);
      rows = sink.count();
    }
  }
  stats->rows = rows;
  stats->elapsed_ms = sw.ElapsedMillis();
  return rows;
}

}  // namespace

Result<CountResult> GraphBacktrackEngine::Count(const SelectQuery& query,
                                                const ExecOptions& options) {
  CountResult result;
  AMBER_ASSIGN_OR_RETURN(
      result.count,
      RunQuery(*this, graph_, dicts_, query, options, &result.stats, nullptr));
  return result;
}

Result<MaterializedRows> GraphBacktrackEngine::Materialize(
    const SelectQuery& query, const ExecOptions& options) {
  MaterializedRows result;
  std::vector<std::vector<VertexId>> raw;
  AMBER_RETURN_IF_ERROR(
      RunQuery(*this, graph_, dicts_, query, options, &result.stats, &raw)
          .status());
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  for (uint32_t u : qg.projection()) {
    result.var_names.push_back(qg.vertices()[u].name);
  }
  for (const auto& row : raw) {
    std::vector<std::string> cooked;
    cooked.reserve(row.size());
    for (VertexId v : row) cooked.emplace_back(dicts_.VertexToken(v));
    result.rows.push_back(std::move(cooked));
  }
  return result;
}

}  // namespace amber
