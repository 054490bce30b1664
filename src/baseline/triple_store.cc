#include "baseline/triple_store.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "sparql/filters.h"
#include "util/clock.h"

namespace amber {

namespace {

// Component order of each permutation, as indices into (s, p, o).
constexpr int kPermOrder[6][3] = {
    {0, 1, 2},  // SPO
    {0, 2, 1},  // SOP
    {1, 0, 2},  // PSO
    {1, 2, 0},  // POS
    {2, 0, 1},  // OSP
    {2, 1, 0},  // OPS
};

// One slot of a compiled pattern: constant term id, variable slot, or a
// FILTERed literal position (matches literals passing the conjunction
// without binding anything).
struct Slot {
  bool is_var = false;
  bool is_filter = false;
  uint32_t value = 0;  // term id (const) or variable index (var)
};

struct CompiledPattern {
  Slot slot[3];  // s, p, o
  // Non-null for the single pattern of a FILTERed literal variable: the
  // comparison conjunction its object literals must pass. The pattern is
  // then an existential semi-join (sparql/filters.h): it constrains or
  // enumerates subjects but never multiplies rows per literal.
  const std::vector<ValueComparison>* filter = nullptr;
};

uint32_t Component(const TripleStoreEngine* unused, uint32_t s, uint32_t p,
                   uint32_t o, int which) {
  (void)unused;
  return which == 0 ? s : (which == 1 ? p : o);
}

}  // namespace

Result<TripleStoreEngine> TripleStoreEngine::Build(
    const std::vector<Triple>& triples, const Options& options) {
  TripleStoreEngine store;
  store.options_ = options;

  std::vector<Row> rows;
  rows.reserve(triples.size());
  for (const Triple& t : triples) {
    if (t.subject.is_literal()) {
      return Status::InvalidArgument("literal subject: " + t.ToNTriples());
    }
    if (!t.predicate.is_iri()) {
      return Status::InvalidArgument("non-IRI predicate: " + t.ToNTriples());
    }
    auto intern = [&store](const Term& term) {
      DictId id = store.terms_.GetOrAdd(term.ToNTriples());
      if (id >= store.is_literal_.size()) {
        store.is_literal_.resize(id + 1, false);
        store.literal_values_.resize(id + 1);
      }
      if (term.is_literal()) {
        store.is_literal_[id] = true;
        store.literal_values_[id] = LiteralValueOf(term);
      }
      return id;
    };
    Row r;
    r.s = intern(t.subject);
    r.p = intern(t.predicate);
    r.o = intern(t.object);
    rows.push_back(r);
  }

  // Deduplicate (RDF set semantics), then materialize all six sort orders.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  });
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const Row& a, const Row& b) {
                           return a.s == b.s && a.p == b.p && a.o == b.o;
                         }),
             rows.end());
  store.num_triples_ = rows.size();

  for (int perm = 0; perm < kNumPerms; ++perm) {
    store.perms_[perm] = rows;
    const int* order = kPermOrder[perm];
    std::sort(store.perms_[perm].begin(), store.perms_[perm].end(),
              [order](const Row& a, const Row& b) {
                for (int i = 0; i < 3; ++i) {
                  uint32_t av = Component(nullptr, a.s, a.p, a.o, order[i]);
                  uint32_t bv = Component(nullptr, b.s, b.p, b.o, order[i]);
                  if (av != bv) return av < bv;
                }
                return false;
              });
  }
  return store;
}

uint64_t TripleStoreEngine::ByteSize() const {
  uint64_t total = terms_.ByteSize() + is_literal_.capacity() / 8 +
                   literal_values_.capacity() * sizeof(LiteralValue);
  for (const auto& perm : perms_) total += perm.capacity() * sizeof(Row);
  return total;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Stateful executor for one query (friend of the store).
class TripleStoreExec {
 public:
  TripleStoreExec(const TripleStoreEngine& store, const SelectQuery& query,
                  const ExecOptions& options)
      : store_(store), query_(query), options_(options) {}

  Result<CountResult> Count() {
    CountResult result;
    AMBER_RETURN_IF_ERROR(Prepare());
    Stopwatch sw;
    if (!unsatisfiable_) {
      if (query_.distinct) {
        DistinctSink sink(/*keep_rows=*/false,
                          EffectiveRowCap(query_, options_));
        RunInto(&sink);
        result.count = sink.count();
      } else {
        CountingSink sink(EffectiveRowCap(query_, options_));
        RunInto(&sink);
        result.count = sink.count();
      }
    }
    result.stats = stats_;
    result.stats.rows = result.count;
    result.stats.elapsed_ms = sw.ElapsedMillis();
    return result;
  }

  Result<MaterializedRows> Materialize() {
    MaterializedRows result;
    AMBER_RETURN_IF_ERROR(Prepare());
    Stopwatch sw;
    std::vector<std::vector<VertexId>> raw;
    if (!unsatisfiable_) {
      if (query_.distinct) {
        DistinctSink sink(/*keep_rows=*/true, EffectiveRowCap(query_, options_));
        RunInto(&sink);
        raw = sink.rows();
      } else {
        CollectingSink sink(EffectiveRowCap(query_, options_));
        RunInto(&sink);
        raw = std::move(sink.TakeRows());
      }
    }
    for (uint32_t v : projection_) result.var_names.push_back(var_names_[v]);
    for (const auto& row : raw) {
      std::vector<std::string> cooked;
      cooked.reserve(row.size());
      for (uint32_t id : row) cooked.emplace_back(store_.terms_.Lookup(id));
      result.rows.push_back(std::move(cooked));
    }
    result.stats = stats_;
    result.stats.rows = raw.size();
    result.stats.elapsed_ms = sw.ElapsedMillis();
    return result;
  }

 private:
  using Row = TripleStoreEngine::Row;

  // Resolves terms against the dictionary and compiles patterns; computes
  // the join order.
  Status Prepare() {
    AMBER_ASSIGN_OR_RETURN(filters_, AnalyzeFilters(query_));
    for (size_t pi = 0; pi < query_.patterns.size(); ++pi) {
      const TriplePattern& p = query_.patterns[pi];
      if (p.predicate.is_variable()) {
        return Status::Unimplemented(
            "variable predicates are outside the paper's query model");
      }
      if (p.subject.is_literal()) {
        return Status::InvalidArgument("literal subject in pattern");
      }
      const bool filtered = filters_.IsFiltered(pi);
      CompiledPattern cp;
      const PatternTerm* slots[3] = {&p.subject, &p.predicate, &p.object};
      for (int i = 0; i < 3; ++i) {
        if (filtered && i == 2) {
          // The FILTERed literal variable: never interned, never bound.
          cp.slot[i].is_filter = true;
          continue;
        }
        if (slots[i]->is_variable()) {
          cp.slot[i].is_var = true;
          cp.slot[i].value = VarIndex(slots[i]->value);
        } else {
          auto id = store_.terms_.Find(slots[i]->ToTerm().ToNTriples());
          if (!id) {
            unsatisfiable_ = true;  // constant unknown to this dataset
            cp.slot[i].value = kInvalidDictId;
          } else {
            cp.slot[i].value = *id;
          }
          cp.slot[i].is_var = false;
        }
      }
      if (filtered) cp.filter = &filters_.FilterFor(pi).comparisons;
      patterns_.push_back(cp);
    }

    // Projection.
    if (query_.select_all) {
      for (uint32_t v = 0; v < var_names_.size(); ++v) {
        projection_.push_back(v);
      }
      if (projection_.empty()) {
        return Status::InvalidArgument("SELECT * with no variables");
      }
    } else {
      for (const std::string& name : query_.projection) {
        auto it = var_index_.find(name);
        if (it == var_index_.end()) {
          return Status::InvalidArgument("projected variable ?" + name +
                                         " does not occur in WHERE clause");
        }
        projection_.push_back(it->second);
      }
    }

    ComputeJoinOrder();
    return Status::OK();
  }

  uint32_t VarIndex(const std::string& name) {
    auto it = var_index_.find(name);
    if (it != var_index_.end()) return it->second;
    uint32_t idx = static_cast<uint32_t>(var_names_.size());
    var_names_.push_back(name);
    var_index_.emplace(name, idx);
    return idx;
  }

  // Picks the permutation whose sort order starts with the bound slots and
  // returns the matching row range.
  std::pair<const Row*, const Row*> ScanRange(const CompiledPattern& cp,
                                              const uint32_t* bindings) const {
    uint32_t value[3];
    bool bound[3];
    for (int i = 0; i < 3; ++i) {
      if (cp.slot[i].is_filter) {
        bound[i] = false;
        value[i] = kInvalidDictId;
      } else if (cp.slot[i].is_var) {
        uint32_t b = bindings ? bindings[cp.slot[i].value] : kInvalidDictId;
        bound[i] = (b != kInvalidDictId);
        value[i] = b;
      } else {
        bound[i] = true;
        value[i] = cp.slot[i].value;
      }
    }
    // Select the permutation with the longest bound prefix.
    int best_perm = 0, best_len = -1;
    for (int perm = 0; perm < TripleStoreEngine::kNumPerms; ++perm) {
      int len = 0;
      for (int i = 0; i < 3 && bound[kPermOrder[perm][i]]; ++i) ++len;
      if (len > best_len) {
        best_len = len;
        best_perm = perm;
      }
    }
    const std::vector<Row>& data = store_.perms_[best_perm];
    const int* order = kPermOrder[best_perm];

    // Binary search the bound prefix.
    auto key_less = [&](const Row& r, int prefix_len, bool upper) {
      for (int i = 0; i < prefix_len; ++i) {
        uint32_t rv = Component(nullptr, r.s, r.p, r.o, order[i]);
        uint32_t kv = value[order[i]];
        if (rv != kv) return rv < kv;
      }
      return upper;  // equal prefix: "less" for upper_bound semantics
    };
    const Row* lo = data.data();
    const Row* hi = data.data() + data.size();
    // Manual binary searches over the prefix.
    {
      const Row* first = lo;
      size_t count = static_cast<size_t>(hi - lo);
      while (count > 0) {
        size_t step = count / 2;
        const Row* mid = first + step;
        if (key_less(*mid, best_len, /*upper=*/false)) {
          first = mid + 1;
          count -= step + 1;
        } else {
          count = step;
        }
      }
      lo = first;
    }
    {
      const Row* first = lo;
      size_t count = static_cast<size_t>(data.data() + data.size() - lo);
      while (count > 0) {
        size_t step = count / 2;
        const Row* mid = first + step;
        if (key_less(*mid, best_len, /*upper=*/true)) {
          first = mid + 1;
          count -= step + 1;
        } else {
          count = step;
        }
      }
      hi = first;
    }
    return {lo, hi};
  }

  uint64_t EstimateCardinality(const CompiledPattern& cp,
                               const std::vector<bool>& var_bound) const {
    // Range size treating bound-variable slots as bound with unknown value:
    // approximate by the constant-only range divided by nothing — a simple,
    // monotone estimate good enough for greedy ordering.
    uint32_t bindings_stub[1];
    (void)bindings_stub;
    // Build a binding array marking bound vars with a fake value so the
    // permutation choice is right; for the estimate we use constants only.
    auto [lo, hi] = ScanRange(cp, nullptr);
    uint64_t base = static_cast<uint64_t>(hi - lo);
    // Each bound variable slot narrows the scan; discount heuristically.
    for (int i = 0; i < 3; ++i) {
      if (cp.slot[i].is_var && var_bound[cp.slot[i].value]) {
        base = std::max<uint64_t>(1, base / 16);
      }
    }
    return base;
  }

  void ComputeJoinOrder() {
    const size_t n = patterns_.size();
    order_.clear();
    if (!store_.options_.reorder_patterns) {
      for (size_t i = 0; i < n; ++i) order_.push_back(i);
      return;
    }
    std::vector<bool> used(n, false);
    std::vector<bool> var_bound(var_names_.size(), false);
    for (size_t step = 0; step < n; ++step) {
      size_t best = n;
      uint64_t best_cost = 0;
      bool best_connected = false;
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        bool connected = false;
        for (int s = 0; s < 3; ++s) {
          if (patterns_[i].slot[s].is_var &&
              var_bound[patterns_[i].slot[s].value]) {
            connected = true;
          }
        }
        uint64_t cost = EstimateCardinality(patterns_[i], var_bound);
        // Prefer connected patterns; among them the cheapest.
        if (best == n || (connected && !best_connected) ||
            (connected == best_connected && cost < best_cost)) {
          best = i;
          best_cost = cost;
          best_connected = connected;
        }
      }
      used[best] = true;
      order_.push_back(best);
      for (int s = 0; s < 3; ++s) {
        if (patterns_[best].slot[s].is_var) {
          var_bound[patterns_[best].slot[s].value] = true;
        }
      }
    }
  }

  void RunInto(EmbeddingSink* sink) {
    deadline_ = Deadline::After(options_.timeout);
    bindings_.assign(var_names_.size(), kInvalidDictId);
    sink_ = sink;
    row_buffer_.resize(projection_.size());
    core_slots_.assign(projection_.size(), kNoGroupList);
    Recurse(0);
  }

  // Existential semi-join for a FILTERed pattern (sparql/filters.h): a
  // bound subject needs one witness literal; a free subject variable
  // enumerates each witness subject exactly once (no per-literal row
  // multiplicity). Returns false to stop enumeration.
  bool RecurseFiltered(const CompiledPattern& cp, size_t depth) {
    auto [lo, hi] = ScanRange(cp, bindings_.data());
    const bool subj_free = cp.slot[0].is_var &&
                           bindings_[cp.slot[0].value] == kInvalidDictId;
    uint32_t last_subject = kInvalidDictId;
    for (const Row* r = lo; r != hi; ++r) {
      if ((++tick_ & 63u) == 0 && deadline_.Expired()) {
        stats_.timed_out = true;
        return false;
      }
      const uint32_t rv[3] = {r->s, r->p, r->o};
      bool ok = true;
      for (int i = 0; i < 2 && ok; ++i) {  // subject + predicate slots
        if (cp.slot[i].is_var) {
          uint32_t b = bindings_[cp.slot[i].value];
          if (b != kInvalidDictId) ok = (b == rv[i]);
        } else {
          ok = (rv[i] == cp.slot[i].value);
        }
      }
      if (!ok) continue;
      if (rv[2] >= store_.is_literal_.size() || !store_.is_literal_[rv[2]]) {
        continue;  // resource object: FILTERed variables bind literals only
      }
      if (!SatisfiesAll(store_.literal_values_[rv[2]], *cp.filter)) continue;
      if (!subj_free) {
        // One witness suffices; the pattern binds nothing.
        return Recurse(depth + 1);
      }
      // Free subject: the range is served by a permutation whose sort
      // order continues with the subject after the bound prefix, so equal
      // subjects are consecutive and a one-row memory deduplicates them.
      if (rv[0] == last_subject) continue;
      last_subject = rv[0];
      const uint32_t var = cp.slot[0].value;
      bindings_[var] = rv[0];
      bool cont = Recurse(depth + 1);
      bindings_[var] = kInvalidDictId;
      if (!cont) return false;
    }
    return true;
  }

  // Returns false to stop enumeration (limit hit or timeout).
  bool Recurse(size_t depth) {
    if ((++tick_ & 63u) == 0 && deadline_.Expired()) {
      stats_.timed_out = true;
      return false;
    }
    if (depth == order_.size()) {
      for (size_t i = 0; i < projection_.size(); ++i) {
        row_buffer_[i] = bindings_[projection_[i]];
      }
      // Each solution is a one-row group: every slot bound, no lists.
      const EmbeddingGroupView row{.fixed = row_buffer_,
                                   .slot_list = core_slots_};
      if (!sink_->OnGroup(row)) {
        stats_.truncated = true;
        return false;
      }
      return true;
    }
    ++stats_.recursion_calls;
    const CompiledPattern& cp = patterns_[order_[depth]];
    if (cp.filter != nullptr) return RecurseFiltered(cp, depth);
    auto [lo, hi] = ScanRange(cp, bindings_.data());
    for (const Row* r = lo; r != hi; ++r) {
      if ((++tick_ & 63u) == 0 && deadline_.Expired()) {
        stats_.timed_out = true;
        return false;
      }
      uint32_t rv[3] = {r->s, r->p, r->o};
      // Check bound slots and bind free ones.
      uint32_t newly_bound[3];
      int num_new = 0;
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        if (!cp.slot[i].is_var) {
          ok = (rv[i] == cp.slot[i].value);
          continue;
        }
        uint32_t var = cp.slot[i].value;
        if (bindings_[var] != kInvalidDictId) {
          ok = (bindings_[var] == rv[i]);
          continue;
        }
        // Paper model: variables bind resources, never literals.
        if (rv[i] < store_.is_literal_.size() && store_.is_literal_[rv[i]]) {
          ok = false;
          continue;
        }
        bindings_[var] = rv[i];
        newly_bound[num_new++] = var;
      }
      if (ok && !Recurse(depth + 1)) {
        for (int i = 0; i < num_new; ++i) {
          bindings_[newly_bound[i]] = kInvalidDictId;
        }
        return false;
      }
      for (int i = 0; i < num_new; ++i) {
        bindings_[newly_bound[i]] = kInvalidDictId;
      }
    }
    return true;
  }

  const TripleStoreEngine& store_;
  const SelectQuery& query_;
  const ExecOptions& options_;

  FilterAnalysis filters_;  // owns the comparisons patterns_ point into
  std::vector<CompiledPattern> patterns_;
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, uint32_t> var_index_;
  std::vector<uint32_t> projection_;
  std::vector<size_t> order_;
  std::vector<uint32_t> bindings_;
  std::vector<VertexId> row_buffer_;
  std::vector<uint32_t> core_slots_;  // kNoGroupList per projection slot
  EmbeddingSink* sink_ = nullptr;
  Deadline deadline_;
  ExecStats stats_;
  uint32_t tick_ = 0;
  bool unsatisfiable_ = false;
};

Result<CountResult> TripleStoreEngine::Count(const SelectQuery& query,
                                             const ExecOptions& options) {
  TripleStoreExec exec(*this, query, options);
  return exec.Count();
}

Result<MaterializedRows> TripleStoreEngine::Materialize(
    const SelectQuery& query, const ExecOptions& options) {
  TripleStoreExec exec(*this, query, options);
  return exec.Materialize();
}

}  // namespace amber
