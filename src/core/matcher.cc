#include "core/matcher.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "core/factorized.h"

namespace amber {

namespace {

// Materialize-vs-probe cutover. A constraint's neighbour list is probed per
// candidate instead of materialized when its O(1) size bound exceeds the
// step's smallest bound by this factor — probing at most |smallest bound|
// candidates (each an O(log) trie seek on the candidate's own small trie)
// then beats walking and sorting a hub-sized list. Lists under the absolute
// floor are always materialized: they are nearly free to build and the
// galloping kernels handle them well.
constexpr uint32_t kProbeSkewFactor = 8;
constexpr uint32_t kProbeMinBound = 64;

template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}

}  // namespace

QueryPlan PlanForExecution(const QueryGraph& q, const ExecOptions& options,
                           const IndexSet& indexes, uint64_t num_vertices) {
  return PlanQuery(q, options.plan,
                   options.use_value_index ? &indexes.value : nullptr,
                   num_vertices);
}

std::vector<std::vector<uint8_t>> PushedConstraints(
    const QueryGraph& q, const QueryPlan& plan, const ExecOptions& options,
    const ValueIndex& values, uint64_t num_vertices) {
  std::vector<std::vector<uint8_t>> pushed(q.NumVertices());
  for (uint32_t u = 0; u < q.NumVertices(); ++u) {
    const std::vector<PredicateConstraint>& preds = q.vertices()[u].preds;
    pushed[u].resize(preds.size(), 0);
    for (size_t i = 0; i < preds.size(); ++i) {
      pushed[u][i] =
          options.use_value_index && plan.is_core[u] &&
          RangeScanWorthPushing(
              values.EstimateRange(preds[i].predicate, preds[i].comparisons),
              num_vertices);
    }
  }
  return pushed;
}

bool HasConstantList(const QueryVertex& qv, std::span<const uint8_t> pushed) {
  return !qv.attrs.empty() || !qv.iris.empty() ||
         std::find(pushed.begin(), pushed.end(), 1) != pushed.end();
}

MatcherScratch::MatcherScratch(const Multigraph& g, const IndexSet& indexes,
                               const QueryGraph& q, const QueryPlan& plan,
                               const ExecOptions& options) {
  core_match.assign(q.NumVertices(), kInvalidId);
  sat_match.assign(q.NumVertices(), {});
  size_t total_depth = 0;
  for (const ComponentPlan& cp : plan.components) {
    depth_base.push_back(total_depth);
    total_depth += cp.core_order.size();
  }
  depths.resize(total_depth);
  row_buffer.resize(q.projection().size());

  local_state.assign(q.NumVertices(), LocalState::kUnknown);
  local_cache.resize(q.NumVertices());
  preds_pushed =
      PushedConstraints(q, plan, options, indexes.value, g.NumVertices());
  comp_cand_cached.assign(plan.components.size(), false);
  comp_cand_cache.resize(plan.components.size());

  // Projected satellites (unique), in first-appearance order: the group
  // lists. The other satellites repeat each row by their candidate counts
  // (bag semantics), except under DISTINCT, where a row appears once.
  for (uint32_t u : q.projection()) {
    if (!plan.is_core[u] &&
        std::find(expand.begin(), expand.end(), u) == expand.end()) {
      expand.push_back(u);
    }
  }
  if (!q.distinct()) {
    for (const ComponentPlan& cp : plan.components) {
      for (const std::vector<uint32_t>& sats : cp.satellites) {
        for (uint32_t u : sats) {
          if (std::find(expand.begin(), expand.end(), u) == expand.end()) {
            multiplicity_sats.push_back(u);
          }
        }
      }
    }
  }
  slot_list = BuildSlotList(q.projection(), plan.is_core);
  group_views.resize(expand.size());
}

uint64_t MatcherScratch::ArenaBytes() const {
  uint64_t total = 0;
  for (const DepthScratch& ds : depths) {
    total += VectorBytes(ds.constraints) + VectorBytes(ds.views) +
             VectorBytes(ds.cursors) + VectorBytes(ds.cand);
    for (const std::vector<VertexId>& list : ds.lists) {
      total += VectorBytes(list);
    }
  }
  for (const std::vector<VertexId>& list : sat_match) {
    total += VectorBytes(list);
  }
  for (const std::vector<VertexId>& list : local_cache) {
    total += VectorBytes(list);
  }
  for (const std::vector<VertexId>& list : comp_cand_cache) {
    total += VectorBytes(list);
  }
  total += VectorBytes(sat_tmp) + VectorBytes(range_tmp) +
           VectorBytes(core_match) + VectorBytes(row_buffer) +
           nbr_scratch.ByteSize();
  return total;
}

Matcher::Matcher(const Multigraph& g, const IndexSet& indexes,
                 const QueryGraph& q, const QueryPlan& plan,
                 const ExecOptions& options, MatcherScratch* scratch)
    : g_(g),
      indexes_(indexes),
      q_(q),
      plan_(plan),
      options_(options),
      s_(scratch) {
  assert(s_ != nullptr);
}

Matcher::Matcher(const Multigraph& g, const IndexSet& indexes,
                 const QueryGraph& q, const QueryPlan& plan,
                 const ExecOptions& options)
    : g_(g),
      indexes_(indexes),
      q_(q),
      plan_(plan),
      options_(options),
      owned_scratch_(
          std::make_unique<MatcherScratch>(g, indexes, q, plan, options)),
      s_(owned_scratch_.get()) {}

Matcher::Flow Matcher::CheckInterruptNow() {
  // Token before clock: checking the token is one relaxed load, and a
  // cancelled query should report kCancelled even when its deadline
  // happens to expire in the same tick window.
  if (cancel_.cancelled()) return Flow::kCancelled;
  if (deadline_.Expired()) return Flow::kTimeout;
  return Flow::kContinue;
}

Matcher::Flow Matcher::CheckInterrupt() {
  // An interrupt recorded by a scan loop outranks the tick: it already
  // paid for the real check.
  if (pending_ != InterruptKind::kNone) return TakePendingInterrupt();
  // Amortize the clock read: every 64th check actually reads the clock
  // (and the cancellation token).
  if ((++deadline_tick_ & 63u) != 0) return Flow::kContinue;
  return CheckInterruptNow();
}

void Matcher::PollInterrupt() {
  if (pending_ != InterruptKind::kNone) return;
  if ((++deadline_tick_ & 63u) != 0) return;
  switch (CheckInterruptNow()) {
    case Flow::kCancelled:
      pending_ = InterruptKind::kCancelled;
      break;
    case Flow::kTimeout:
      pending_ = InterruptKind::kTimeout;
      break;
    default:
      break;
  }
}

Matcher::Flow Matcher::TakePendingInterrupt() {
  const InterruptKind kind = pending_;
  pending_ = InterruptKind::kNone;
  switch (kind) {
    case InterruptKind::kCancelled:
      return Flow::kCancelled;
    case InterruptKind::kTimeout:
      return Flow::kTimeout;
    default:
      return Flow::kContinue;
  }
}

void Matcher::PairCandidates(const QueryEdge& e, bool u_is_from, VertexId vn,
                             std::vector<VertexId>* out) {
  // u --types--> un: candidates must appear among vn's in-neighbours with a
  // superset multi-edge; un --types--> u: among vn's out-neighbours.
  const Direction d = u_is_from ? Direction::kIn : Direction::kOut;
  indexes_.neighborhood.SupersetNeighbors(vn, d, e.types, out,
                                          &s_->nbr_scratch);
}

void Matcher::ProbeFilter(const QueryEdge& e, bool u_is_from, VertexId vn,
                          std::vector<VertexId>* cand) {
  // Seen from a candidate c, the edge orientation flips: the query edge
  // leaving u makes vn an out-neighbour of c. Probing c's trie instead of
  // materializing vn's neighbour list is the whole point — c is one of few
  // surviving candidates and usually low-degree, vn is the hub.
  const Direction d = u_is_from ? Direction::kOut : Direction::kIn;
  s_->probe_checks += cand->size();
  std::erase_if(*cand, [&](VertexId c) {
    return !indexes_.neighborhood.Contains(c, d, e.types, vn,
                                           &s_->nbr_scratch);
  });
  s_->probe_hits += cand->size();
}

const std::vector<VertexId>* Matcher::CachedLocalCandidates(uint32_t u) {
  if (s_->local_state[u] == MatcherScratch::LocalState::kNone) return nullptr;
  if (s_->local_state[u] == MatcherScratch::LocalState::kCached) {
    return &s_->local_cache[u];
  }

  const QueryVertex& qv = q_.vertices()[u];
  // FILTER constraints only enter the cached list when pushed; residual
  // constraints are evaluated per candidate in FilterByVertex instead (a
  // satellite's paired candidates are usually far smaller than a range,
  // and a wide range costs more to materialize than to check).
  if (!HasConstantList(qv, s_->preds_pushed[u])) {
    s_->local_state[u] = MatcherScratch::LocalState::kNone;
    return nullptr;
  }
  // Cold path: computed once per query vertex per scratch, then served from
  // the cache for every subsequent refinement (RefineByVertex used to
  // recompute this per satellite per embedding).
  std::vector<VertexId>& result = s_->local_cache[u];
  result.clear();
  std::vector<VertexId> tmp;
  bool first = true;

  if (!qv.attrs.empty()) {
    result = indexes_.attribute.Candidates(qv.attrs);  // C^A_u
    first = false;
    PollInterrupt();
  }
  for (size_t i = 0; i < qv.preds.size(); ++i) {  // C^P_u
    if (!ConstraintPushed(u, i)) continue;  // residual, see above
    if (pending_ != InterruptKind::kNone) break;
    const PredicateConstraint& pc = qv.preds[i];
    ValueIndex::ScanStats scan_stats;
    if (first) {
      indexes_.value.RangeScan(pc.predicate, pc.comparisons, &result,
                               &scan_stats);
      first = false;
    } else if (!result.empty()) {
      indexes_.value.RangeScan(pc.predicate, pc.comparisons, &s_->range_tmp,
                               &scan_stats);
      IntersectInPlace(&result, std::span<const VertexId>(s_->range_tmp),
                       &s_->icounters);
    }
    s_->range_scans += scan_stats.scans;
    s_->range_scan_elements += scan_stats.elements;
    // Deadline/cancellation poll between range scans: one scan is the
    // interrupt granularity of CandInit, not the whole pipeline.
    PollInterrupt();
  }
  auto refine = [&](VertexId anchor, Direction d,
                    std::span<const EdgeTypeId> types) {
    if (pending_ != InterruptKind::kNone) return;
    if (first) {
      indexes_.neighborhood.SupersetNeighbors(anchor, d, types, &result,
                                              &s_->nbr_scratch);
      first = false;
    } else if (!result.empty()) {
      tmp.clear();
      indexes_.neighborhood.SupersetNeighbors(anchor, d, types, &tmp,
                                              &s_->nbr_scratch);
      IntersectInPlace(&result, std::span<const VertexId>(tmp),
                       &s_->icounters);
    }
    PollInterrupt();
  };
  for (const IriConstraint& c : qv.iris) {  // C^I_u
    // u --out_types--> anchor: u is an in-neighbour of the anchor, and
    // anchor --in_types--> u: u is an out-neighbour of the anchor.
    if (!c.out_types.empty()) refine(c.anchor, Direction::kIn, c.out_types);
    if (!c.in_types.empty()) refine(c.anchor, Direction::kOut, c.in_types);
  }
  if (pending_ != InterruptKind::kNone) {
    // Interrupted mid-computation: hand back the partial list (the caller
    // aborts via CheckInterrupt) but do NOT cache it — a later run with a
    // fresh budget must recompute. local_state stays kUnknown.
    return &result;
  }
  s_->local_state[u] = MatcherScratch::LocalState::kCached;
  return &result;
}

void Matcher::RefineByVertex(uint32_t u, std::vector<VertexId>* cand) {
  if (cand->empty()) return;
  const std::vector<VertexId>* local = CachedLocalCandidates(u);
  if (local != nullptr) {
    IntersectInPlace(cand, std::span<const VertexId>(*local), &s_->icounters);
  }
  FilterByVertex(u, cand);
}

void Matcher::FilterByVertex(uint32_t u, std::vector<VertexId>* cand) {
  const QueryVertex& qv = q_.vertices()[u];
  if (!qv.self_types.empty()) {
    std::erase_if(*cand, [&](VertexId v) {
      return !g_.HasMultiEdgeSuperset(v, Direction::kOut, v, qv.self_types);
    });
  }
  // Residual FILTER evaluation: constraints not served by a pushed range
  // scan are checked per candidate against the vertex's own attributes.
  for (size_t i = 0; i < qv.preds.size(); ++i) {
    if (cand->empty()) break;
    if (ConstraintPushed(u, i)) continue;  // already intersected above
    const PredicateConstraint& pc = qv.preds[i];
    s_->predicate_checks += cand->size();
    std::erase_if(*cand, [&](VertexId v) {
      return !indexes_.value.VertexMatches(g_.Attributes(v), pc.predicate,
                                           pc.comparisons);
    });
  }
}

std::vector<VertexId> Matcher::InitialCandidates(uint32_t uinit) {
  const Synopsis syn = q_.VertexSynopsis(uinit);
  std::vector<VertexId> cand;
  // The two scans below run beneath the Recurse tick check, so they poll
  // the deadline/token themselves: a constant list can be as long as |V|
  // (a common attribute, a hub anchor), the ablation-B scan is |V| long,
  // and without the poll a large graph would overshoot the budget by a
  // full pass before the first recursion step notices. A constant list
  // cut short while it was built leaves pending_ set: its walk stops at
  // once.
  if (const std::vector<VertexId>* local = CachedLocalCandidates(uinit)) {
    // The constant list is built anyway and is exact for its constraints,
    // so C^S ∩ local is local filtered by the same dominance test the
    // R-tree applies: the same set in the same ascending order, without
    // walking the tree.
    for (VertexId v : *local) {
      PollInterrupt();
      if (pending_ != InterruptKind::kNone) break;
      if (indexes_.signature.Of(v).Dominates(syn)) cand.push_back(v);
    }
  } else if (options_.use_signature_index) {
    cand = indexes_.signature.Candidates(syn);  // QuerySynIndex via R-tree
  } else {
    // Ablation B: same complete filter, evaluated by a full scan.
    cand.reserve(64);
    for (VertexId v = 0; v < g_.NumVertices(); ++v) {
      PollInterrupt();
      if (pending_ != InterruptKind::kNone) break;
      if (indexes_.signature.Of(v).Dominates(syn)) cand.push_back(v);
    }
  }
  if (pending_ == InterruptKind::kNone) FilterByVertex(uinit, &cand);
  return cand;
}

const std::vector<VertexId>& Matcher::CachedComponentCandidates(size_t ci) {
  // Components after the first are re-entered once per upstream embedding;
  // their CandInit does not depend on earlier assignments, so compute it
  // once per run.
  if (!s_->comp_cand_cached[ci]) {
    s_->comp_cand_cache[ci] =
        InitialCandidates(plan_.components[ci].core_order[0]);
    // Never cache a scan the deadline/token cut short — the next upstream
    // embedding (or a fresh run reusing this scratch) must recompute.
    if (pending_ == InterruptKind::kNone) s_->comp_cand_cached[ci] = true;
  }
  return s_->comp_cand_cache[ci];
}

std::vector<VertexId> Matcher::ComputeRootCandidates() {
  return ComputeRootCandidates(Deadline::After(options_.timeout),
                               options_.cancel);
}

std::vector<VertexId> Matcher::ComputeRootCandidates(
    const Deadline& deadline, const CancellationToken& cancel) {
  if (plan_.components.empty()) return {};
  deadline_ = deadline;
  cancel_ = cancel;
  deadline_tick_ = 0;
  pending_ = InterruptKind::kNone;
  return InitialCandidates(plan_.components[0].core_order[0]);
}

bool Matcher::MatchSatellites(const std::vector<uint32_t>& sats, uint32_t uc,
                              VertexId vc) {
  for (uint32_t us : sats) {
    std::vector<VertexId>& cand = s_->sat_match[us];
    cand.clear();
    const std::vector<std::pair<uint32_t, bool>>& incident =
        q_.IncidentEdges(us);

    // Seed from the smallest-bound incident edge (same cutover as the core
    // path), so a bidirectional satellite never materializes the hub side
    // of vc just because it came first in edge order.
    size_t seed = incident.size();
    size_t seed_bound = SIZE_MAX;
    for (size_t k = 0; k < incident.size(); ++k) {
      const Direction d =
          incident[k].second ? Direction::kIn : Direction::kOut;
      const size_t bound = indexes_.neighborhood.NeighborCount(vc, d);
      if (bound < seed_bound) {
        seed_bound = bound;
        seed = k;
      }
    }
    if (seed == incident.size()) {
      // Satellite without variable edges cannot occur (degree is 1), but
      // guard against it: fall back to local constraints only.
      const std::vector<VertexId>* local = CachedLocalCandidates(us);
      if (local != nullptr) cand.assign(local->begin(), local->end());
      if (cand.empty()) return false;
      continue;
    }

    PairCandidates(q_.edges()[incident[seed].first], incident[seed].second,
                   vc, &cand);
    ++s_->lists_materialized;
    for (size_t idx = 0; idx < incident.size() && !cand.empty(); ++idx) {
      if (idx == seed) continue;
      const auto& [edge_idx, us_is_from] = incident[idx];
      const QueryEdge& e = q_.edges()[edge_idx];
      const uint32_t other = us_is_from ? e.to : e.from;
      assert(other == uc);
      (void)uc;
      (void)other;
      // Further (bidirectional) satellite edges: probe the survivors when
      // the list is hub-sized relative to them, else materialize and
      // intersect in place.
      const Direction d = us_is_from ? Direction::kIn : Direction::kOut;
      const size_t bound = indexes_.neighborhood.NeighborCount(vc, d);
      if (bound > kProbeMinBound && bound / kProbeSkewFactor > cand.size()) {
        ProbeFilter(e, us_is_from, vc, &cand);
      } else {
        s_->sat_tmp.clear();
        PairCandidates(e, us_is_from, vc, &s_->sat_tmp);
        ++s_->lists_materialized;
        IntersectInPlace(&cand, std::span<const VertexId>(s_->sat_tmp),
                         &s_->icounters);
      }
    }
    RefineByVertex(us, &cand);
    if (cand.empty()) return false;  // no solution possible for this vc
  }
  return true;
}

Matcher::Flow Matcher::Emit() {
  // A satellite scan the deadline or the token cut short hands back a
  // partial list, a superset of the true one: never build a group from it.
  if (pending_ != InterruptKind::kNone) return TakePendingInterrupt();
  ++stats_->embeddings_found;

  // The solution record itself: core slots plus one candidate list per
  // projected satellite, times the other satellites' multiplicity. The
  // spans borrow matcher scratch — valid only during the OnGroup call.
  const std::vector<uint32_t>& proj = q_.projection();
  for (size_t i = 0; i < proj.size(); ++i) {
    const uint32_t u = proj[i];
    s_->row_buffer[i] = plan_.is_core[u] ? s_->core_match[u] : kInvalidId;
  }
  for (size_t j = 0; j < s_->expand.size(); ++j) {
    s_->group_views[j] = s_->sat_match[s_->expand[j]];
  }
  uint64_t multiplicity = 1;
  for (uint32_t us : s_->multiplicity_sats) {
    multiplicity = SaturatingMul(multiplicity, s_->sat_match[us].size());
  }
  const EmbeddingGroupView view{s_->row_buffer, s_->slot_list,
                                s_->group_views, multiplicity, this};
  ++stats_->groups_emitted;
  stats_->factorized_rows_represented =
      SaturatingAdd(stats_->factorized_rows_represented, view.Cardinality());
  const bool more = sink_->OnGroup(view);
  // An interrupt the expansion's poll recorded outranks the sink's answer:
  // it never reads as a stop, and a stop never reads as an interrupt.
  if (pending_ != InterruptKind::kNone) return TakePendingInterrupt();
  return more ? Flow::kContinue : Flow::kStop;
}

bool Matcher::NextRow() {
  PollInterrupt();
  if (pending_ != InterruptKind::kNone) return false;
  ++stats_->rows_expanded;
  return true;
}

Matcher::Flow Matcher::MatchComponent(
    size_t ci, const std::optional<std::span<const VertexId>>& root) {
  if (ci == plan_.components.size()) return Emit();
  const ComponentPlan& cp = plan_.components[ci];
  const uint32_t uinit = cp.core_order[0];

  const std::span<const VertexId> cand =
      (ci == 0 && root.has_value())
          ? *root
          : std::span<const VertexId>(CachedComponentCandidates(ci));
  if (ci == 0) stats_->initial_candidates += cand.size();

  for (VertexId vinit : cand) {
    if (Flow f = CheckInterrupt(); f != Flow::kContinue) return f;
    if (!cp.satellites[0].empty() &&
        !MatchSatellites(cp.satellites[0], uinit, vinit)) {
      continue;
    }
    s_->core_match[uinit] = vinit;
    Flow f = Recurse(ci, 1);
    s_->core_match[uinit] = kInvalidId;
    if (f != Flow::kContinue) return f;
  }
  return Flow::kContinue;
}

Matcher::Flow Matcher::Recurse(size_t ci, size_t depth) {
  ++stats_->recursion_calls;
  const ComponentPlan& cp = plan_.components[ci];
  if (depth == cp.core_order.size()) {
    return MatchComponent(ci + 1, std::nullopt);
  }
  if (Flow f = CheckInterrupt(); f != Flow::kContinue) return f;

  const uint32_t unxt = cp.core_order[depth];
  MatcherScratch::DepthScratch& ds = s_->depths[s_->depth_base[ci] + depth];

  // Constraints from every already-matched core neighbour (Algorithm 4
  // lines 5-7), each with the O(1) neighbour-count upper bound on its
  // candidate list.
  ds.constraints.clear();
  uint32_t min_bound = UINT32_MAX;
  for (const auto& [edge_idx, u_is_from] : q_.IncidentEdges(unxt)) {
    const QueryEdge& e = q_.edges()[edge_idx];
    const uint32_t other = u_is_from ? e.to : e.from;
    const VertexId vn = s_->core_match[other];
    if (vn == kInvalidId) continue;  // satellite or not yet matched
    const Direction d = u_is_from ? Direction::kIn : Direction::kOut;
    const uint32_t bound =
        static_cast<uint32_t>(indexes_.neighborhood.NeighborCount(vn, d));
    if (bound == 0) return Flow::kContinue;
    ds.constraints.push_back(
        MatcherScratch::Constraint{&e, vn, bound, u_is_from});
    min_bound = std::min(min_bound, bound);
  }
  assert(!ds.constraints.empty() && "ordering guarantees a matched neighbour");

  // Cutover: materialize the cheap lists into the arena, defer hub-sized
  // ones (bound ≫ the smallest bound) to the probe path. The smallest-
  // bound constraint always materializes, so there is always a seed.
  ds.views.clear();
  size_t used = 0;
  for (MatcherScratch::Constraint& c : ds.constraints) {
    c.probe =
        c.bound > kProbeMinBound && c.bound / kProbeSkewFactor > min_bound;
    if (c.probe) continue;
    if (used == ds.lists.size()) ds.lists.emplace_back();
    std::vector<VertexId>& list = ds.lists[used];
    list.clear();
    PairCandidates(*c.edge, c.u_is_from, c.vn, &list);
    ++s_->lists_materialized;
    if (list.empty()) return Flow::kContinue;
    ds.views.emplace_back(list.data(), list.size());
    ++used;
  }

  if (ds.views.size() == 1) {
    // Single materialized list: adopt its buffer outright (both are arena
    // storage, so this is a pointer swap, not a copy).
    std::swap(ds.cand, ds.lists[0]);
  } else {
    IntersectKWay(std::span<const std::span<const VertexId>>(ds.views),
                  &ds.cursors, &ds.cand, &s_->icounters);
  }
  if (ds.cand.empty()) return Flow::kContinue;
  RefineByVertex(unxt, &ds.cand);

  // Probe the deferred hub constraints against the (now small) survivor
  // set — per-candidate trie seeks instead of hub-sized materialization.
  for (const MatcherScratch::Constraint& c : ds.constraints) {
    if (!c.probe || ds.cand.empty()) continue;
    ProbeFilter(*c.edge, c.u_is_from, c.vn, &ds.cand);
  }
  if (ds.cand.empty()) return Flow::kContinue;

  const std::vector<uint32_t>& sats = cp.satellites[depth];
  for (VertexId vnxt : ds.cand) {
    if (Flow f = CheckInterrupt(); f != Flow::kContinue) return f;
    if (!sats.empty() && !MatchSatellites(sats, unxt, vnxt)) continue;
    s_->core_match[unxt] = vnxt;
    Flow f = Recurse(ci, depth + 1);
    s_->core_match[unxt] = kInvalidId;
    if (f != Flow::kContinue) return f;
  }
  return Flow::kContinue;
}

void Matcher::FlushHotPathStats(ExecStats* stats) {
  stats->lists_materialized += s_->lists_materialized;
  stats->galloped_elements += s_->icounters.galloped_elements;
  stats->scanned_elements += s_->icounters.scanned_elements;
  stats->probe_checks += s_->probe_checks;
  stats->probe_hits += s_->probe_hits;
  stats->range_scans += s_->range_scans;
  stats->range_scan_elements += s_->range_scan_elements;
  stats->predicate_checks += s_->predicate_checks;
  stats->peak_arena_bytes =
      std::max(stats->peak_arena_bytes, s_->ArenaBytes());
  s_->lists_materialized = 0;
  s_->probe_checks = 0;
  s_->probe_hits = 0;
  s_->range_scans = 0;
  s_->range_scan_elements = 0;
  s_->predicate_checks = 0;
  s_->icounters = IntersectCounters{};
}

bool Matcher::GroundChecksPass() {
  // Ground checks (patterns without variables) gate the whole query.
  for (const GroundEdge& e : q_.ground_edges()) {
    if (!g_.HasEdge(e.subject, e.predicate, e.object)) return false;
  }
  for (const GroundAttribute& a : q_.ground_attributes()) {
    std::span<const AttributeId> attrs = g_.Attributes(a.subject);
    if (!std::binary_search(attrs.begin(), attrs.end(), a.attribute)) {
      return false;
    }
  }
  for (const GroundPredicate& gp : q_.ground_predicates()) {
    ++s_->predicate_checks;
    if (!indexes_.value.VertexMatches(g_.Attributes(gp.subject),
                                      gp.predicate, gp.comparisons)) {
      return false;
    }
  }
  return true;
}

Status Matcher::Run(EmbeddingSink* sink, ExecStats* stats,
                    const RunControl& control) {
  sink_ = sink;
  stats_ = stats;
  deadline_ = control.deadline.has_value()
                  ? *control.deadline
                  : Deadline::After(options_.timeout);
  cancel_ = options_.cancel;
  deadline_tick_ = 0;
  pending_ = InterruptKind::kNone;

  if (!control.skip_ground_checks && !GroundChecksPass()) {
    FlushHotPathStats(stats_);
    return Status::OK();
  }

  if (plan_.components.empty()) {
    // Fully ground query: all checks passed above; its one row is empty.
    sink_->OnGroup(EmbeddingGroupView{});
    FlushHotPathStats(stats_);
    return Status::OK();
  }

  Flow f = MatchComponent(0, control.root_candidates);
  // A CandInit scan cut short before it found a candidate leaves its
  // interrupt for a check no candidate ever reached.
  if (f == Flow::kContinue) f = TakePendingInterrupt();
  if (f == Flow::kTimeout) stats_->timed_out = true;
  if (f == Flow::kStop) stats_->truncated = true;
  if (f == Flow::kCancelled) stats_->cancelled = true;
  FlushHotPathStats(stats_);
  return Status::OK();
}

}  // namespace amber
