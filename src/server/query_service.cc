#include "server/query_service.h"

#include <algorithm>
#include <limits>
#include <span>
#include <thread>
#include <utility>

#include "sparql/formatter.h"
#include "sparql/parser.h"
#include "util/fault_injector.h"

namespace amber {

namespace {

/// Remaining budget at `now`, or a negative value when expired. Zero
/// budget means unlimited and always returns zero.
std::chrono::milliseconds RemainingBudget(
    std::chrono::steady_clock::time_point start,
    std::chrono::milliseconds budget,
    std::chrono::steady_clock::time_point now) {
  if (budget.count() <= 0) return std::chrono::milliseconds(0);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start);
  return budget - elapsed;
}

/// Maps canonical variable names back to the request's own spelling.
std::vector<std::string> RequestVarNames(
    const std::vector<std::string>& canon_names, const NormalizedQuery& nq) {
  std::vector<std::string> out;
  out.reserve(canon_names.size());
  for (const std::string& canon : canon_names) {
    auto it = nq.canon_to_orig.find(canon);
    out.push_back(it != nq.canon_to_orig.end() ? it->second : canon);
  }
  return out;
}

/// Rows a factorized handle retains: its cardinality, clamped to the row
/// cap it was built under.
uint64_t RetainedRows(const FactorizedResult& fact) {
  return fact.row_limit == 0 ? fact.total_rows
                             : std::min(fact.total_rows, fact.row_limit);
}

}  // namespace

Result<NormalizedQuery> NormalizeQuery(std::string_view text) {
  AMBER_ASSIGN_OR_RETURN(SelectQuery q, SparqlParser::Parse(text));
  NormalizedQuery out;
  std::unordered_map<std::string, std::string> orig_to_canon;
  auto canon = [&](std::string* name) {
    auto [it, inserted] = orig_to_canon.try_emplace(*name);
    if (inserted) {
      // First appearance: assign the next canonical name.
      it->second = "v";
      it->second += std::to_string(orig_to_canon.size() - 1);
      out.canon_to_orig.emplace(it->second, *name);
    }
    *name = it->second;
  };
  // First-appearance order over patterns, then filters, then projection:
  // any two queries equal up to variable renaming visit their variables in
  // corresponding order, so they canonicalize identically.
  for (TriplePattern& p : q.patterns) {
    if (p.subject.is_variable()) canon(&p.subject.value);
    if (p.predicate.is_variable()) canon(&p.predicate.value);
    if (p.object.is_variable()) canon(&p.object.value);
  }
  for (FilterPredicate& f : q.filters) canon(&f.var);
  for (std::string& v : q.projection) canon(&v);
  out.key = FormatQuery(q);
  out.query = std::move(q);
  return out;
}

QueryService::QueryService(QueryEngine* engine, const ServiceOptions& options)
    : engine_(engine),
      options_(options),
      pool_(static_cast<size_t>(std::max(options.pool_threads, 1))) {}

QueryService::~QueryService() { pool_.Shutdown(); }

QueryService::Admission QueryService::Admit(
    std::chrono::steady_clock::time_point start,
    std::chrono::milliseconds budget, bool* shed) {
  std::unique_lock<std::mutex> lock(mu_);
  // Overload shedding decision belongs to the admission moment: the
  // request counts itself, so with shed_high_water = H the (H+1)th
  // concurrent execution is the first to run degraded.
  auto admit_locked = [this, shed] {
    ++in_flight_;
    stats_.peak_in_flight = std::max<uint64_t>(
        stats_.peak_in_flight, static_cast<uint64_t>(in_flight_));
    *shed = options_.shed_high_water > 0 &&
            in_flight_ > options_.shed_high_water;
  };
  if (options_.max_in_flight <= 0 || in_flight_ < options_.max_in_flight) {
    admit_locked();
    return Admission::kAdmitted;
  }
  if (queued_ >= std::max(options_.max_queued, 0)) {
    ++stats_.rejected;
    return Admission::kRejected;
  }
  ++queued_;
  const bool bounded = budget.count() > 0;
  const auto wait_deadline = start + budget;
  bool got_slot;
  if (bounded) {
    got_slot = admission_cv_.wait_until(lock, wait_deadline, [this] {
      return in_flight_ < options_.max_in_flight;
    });
  } else {
    admission_cv_.wait(
        lock, [this] { return in_flight_ < options_.max_in_flight; });
    got_slot = true;
  }
  --queued_;
  if (!got_slot) {
    // Budget expired while waiting: an answered (timed-out) request. Wake
    // the next waiter in case a slot freed concurrently with the timeout.
    admission_cv_.notify_one();
    ++stats_.timed_out;
    ++stats_.queries;
    return Admission::kExpired;
  }
  admit_locked();
  return Admission::kAdmitted;
}

Status QueryService::Saturated() const {
  return Status::ResourceExhausted(
      "query service saturated (max_in_flight=" +
      std::to_string(options_.max_in_flight) +
      ", max_queued=" + std::to_string(options_.max_queued) + ")");
}

ExecOptions QueryService::BuildExecOptions(const RequestOptions& request,
                                           bool shed,
                                           const CancellationSource& cancel) {
  ExecOptions exec;
  const int max_budget = options_.max_thread_budget > 0
                             ? options_.max_thread_budget
                             : options_.pool_threads + 1;
  const int want = request.thread_budget > 0 ? request.thread_budget
                                             : options_.default_thread_budget;
  exec.num_threads = std::clamp(want, 1, max_budget);
  const int shed_budget = std::max(options_.shed_thread_budget, 1);
  if (shed && exec.num_threads > shed_budget) {
    // Overload: degrade gracefully by shedding PARALLELISM, not the
    // request — it still runs, on a reduced thread budget.
    exec.num_threads = shed_budget;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_thread_budgets;
  }
  if (options_.share_pool) exec.pool = &pool_;
  exec.cancel = cancel.token();
  return exec;
}

void QueryService::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  admission_cv_.notify_one();
}

Result<uint64_t> QueryService::RegisterRequest(
    const CancellationSource& cancel) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    ++stats_.shutdown_rejects;
    return Status::Unavailable("query service is shutting down");
  }
  const uint64_t id = next_request_id_++;
  active_requests_.emplace(id, cancel);
  return id;
}

void QueryService::UnregisterRequest(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  active_requests_.erase(id);
  if (active_requests_.empty()) drain_cv_.notify_all();
}

void QueryService::Shutdown(std::chrono::milliseconds grace) {
  std::unique_lock<std::mutex> lock(mu_);
  shutting_down_ = true;  // new requests now fail fast with kUnavailable
  auto drained = [this] { return active_requests_.empty(); };
  if (grace.count() > 0) {
    drain_cv_.wait_for(lock, grace, drained);
  }
  while (!drained()) {
    // Past the grace budget: trip every in-flight request's source.
    // Cancel() runs OUTSIDE mu_ — a tripped token can wake code that
    // immediately re-locks mu_ to unregister. Executions unwind within
    // one matcher tick window; queued requests drain as the cancelled
    // ones release their admission slots (woken below); single-flight
    // followers resolve through their leader's publication. Sources are
    // sticky, so re-cancelling on a later iteration is a no-op.
    std::vector<CancellationSource> to_cancel;
    to_cancel.reserve(active_requests_.size());
    for (auto& [id, src] : active_requests_) to_cancel.push_back(src);
    lock.unlock();
    for (CancellationSource& src : to_cancel) src.Cancel();
    admission_cv_.notify_all();
    lock.lock();
    drain_cv_.wait_for(lock, std::chrono::milliseconds(10), drained);
  }
}

QueryService::CacheEntry* QueryService::LookupLocked(const std::string& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
  return &it->second;
}

uint64_t QueryService::EntryBytes(const std::string& key,
                                  const CacheEntry& e) {
  // Deterministic O(cells) accounting of what the entry retains: row and
  // cell payloads plus per-object header overhead (sizes, not
  // capacities, so the figure is reproducible across allocators).
  uint64_t bytes = sizeof(CacheEntry) + key.size();
  bytes += e.var_names.size() * sizeof(std::string);
  for (const std::string& name : e.var_names) bytes += name.size();
  bytes += e.rows.size() * sizeof(std::vector<std::string>);
  for (const auto& row : e.rows) {
    bytes += row.size() * sizeof(std::string);
    for (const std::string& cell : row) bytes += cell.size();
  }
  // A factorized handle is charged at its true (group) storage — the
  // whole point of retaining it instead of the expanded cross-product.
  if (e.have_fact) bytes += e.fact.ByteSize();
  return bytes;
}

void QueryService::EvictLocked() {
  while (!cache_.empty() &&
         (cache_.size() > options_.cache_entries ||
          (options_.cache_bytes > 0 &&
           cache_bytes_used_ > options_.cache_bytes))) {
    auto it = cache_.find(lru_.back());
    cache_bytes_used_ -= it->second.bytes;
    cache_.erase(it);
    lru_.pop_back();
    ++stats_.cache_evictions;
  }
}

void QueryService::UpsertLocked(const std::string& key, CacheEntry&& fresh) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    fresh.bytes = EntryBytes(key, fresh);
    // Oversized bypass: an entry alone bigger than the whole byte budget
    // would evict every other entry and then itself — serve it once and
    // keep the cache for results that fit.
    if (options_.cache_bytes > 0 && fresh.bytes > options_.cache_bytes) {
      return;
    }
    lru_.push_front(key);
    fresh.lru_it = lru_.begin();
    cache_bytes_used_ += fresh.bytes;
    cache_.emplace(key, std::move(fresh));
    EvictLocked();
    return;
  }
  // Merge: a concurrent miss (or the other mode of the same query) may
  // have filled one half already; keep whatever is present — both runs
  // computed identical results by the determinism contract.
  CacheEntry& e = it->second;
  bool grew = false;
  if (fresh.have_rows && !e.have_rows) {
    e.have_rows = true;
    e.var_names = fresh.var_names;
    e.rows = std::move(fresh.rows);
    e.truncated = fresh.truncated;
    grew = true;
  }
  if (fresh.have_fact && !e.have_fact) {
    e.have_fact = true;
    e.fact = std::move(fresh.fact);
    if (!e.have_rows) {
      e.var_names = fresh.var_names;
      e.truncated = fresh.truncated;
    }
    grew = true;
  }
  if (fresh.have_count && !e.have_count) {
    e.have_count = true;
    e.count = fresh.count;
    grew = true;
  }
  if (grew) {
    cache_bytes_used_ -= e.bytes;
    e.bytes = EntryBytes(key, e);
    cache_bytes_used_ += e.bytes;
  }
  lru_.splice(lru_.begin(), lru_, e.lru_it);  // touch
  // A merge can push past the byte budget; the merged entry was just
  // touched to the LRU front, so it is evicted only if nothing else
  // remains to give back.
  EvictLocked();
}

void QueryService::PublishFlightLocked(
    const std::string& flight_key, Flight* flight, Status status,
    std::shared_ptr<const CacheEntry> entry) {
  flight->status = std::move(status);
  flight->entry = std::move(entry);
  flight->done = true;
  // Retiring the flight and resolving it are one atomic step under mu_:
  // any later request either found this flight (and wakes here) or will
  // miss it and consult the cache / lead its own flight. Erase only the
  // flight we own: the orphan path may have retired it already AND a
  // newer flight for the same key may have taken its place.
  auto it = flights_.find(flight_key);
  if (it != flights_.end() && it->second.get() == flight) {
    flights_.erase(it);
  }
  flight->cv.notify_all();
}

ResultGroup QueryService::TranslateGroup(const FactorizedResult& fact,
                                         const FactorizedResult::Group& g) {
  ResultGroup out;
  out.multiplicity = g.multiplicity;
  out.fixed.resize(g.fixed.size());
  std::vector<VertexId> one(1);
  for (size_t i = 0; i < g.fixed.size(); ++i) {
    if (i < fact.slot_list.size() && fact.slot_list[i] != kNoGroupList) {
      continue;  // satellite slot: unspecified, ships as the empty string
    }
    one[0] = g.fixed[i];
    out.fixed[i] = std::move(engine_->TranslateRow(one)[0]);
  }
  out.lists.reserve(g.lists.size());
  for (const std::vector<VertexId>& list : g.lists) {
    out.lists.push_back(engine_->TranslateRow(list));
  }
  return out;
}

QueryResponse QueryService::BuildResponse(const CacheEntry& entry,
                                          const NormalizedQuery& nq,
                                          const RequestOptions& request,
                                          bool cache_hit) {
  QueryResponse resp;
  resp.cache_hit = cache_hit;
  resp.stats = entry.exec_stats;
  resp.timed_out = entry.exec_stats.timed_out;
  resp.cancelled = entry.exec_stats.cancelled;
  // Whether the answer graph answered this request (factorized_hits).
  bool from_fact = false;
  if (request.count_only) {
    // A complete (untruncated) handle is an exact count too — for a
    // factorized one the count is product-of-list-sizes arithmetic
    // (FactorizedResult::total_rows), no expansion involved.
    if (entry.have_count) {
      resp.total_rows = entry.count;
    } else if (entry.have_rows && !entry.truncated) {
      resp.total_rows = entry.rows.size();
    } else {
      resp.total_rows = entry.fact.total_rows;
      from_fact = entry.have_fact;
    }
  } else {
    resp.truncated = entry.truncated;
    resp.var_names = RequestVarNames(entry.var_names, nq);
    if (request.want_groups && entry.have_fact &&
        !entry.fact.needs_row_dedup) {
      // Granted groups form: ship the factorized records themselves. A
      // DISTINCT handle with colliding groups is excluded above — its
      // expansion routes through a row-level dedup set no client could
      // replay — and falls through to expanded rows instead.
      resp.total_rows = RetainedRows(entry.fact);
      resp.groups_form = true;
      resp.slot_list = entry.fact.slot_list;
      resp.groups.reserve(entry.fact.groups.size());
      for (const FactorizedResult::Group& g : entry.fact.groups) {
        resp.groups.push_back(TranslateGroup(entry.fact, g));
      }
      from_fact = true;
    } else {
      // The page: rows [offset, offset+limit) of the retained handle.
      const bool fact_page = !entry.have_rows && entry.have_fact;
      const uint64_t retained =
          fact_page ? RetainedRows(entry.fact) : entry.rows.size();
      resp.total_rows = retained;
      const uint64_t begin = std::min<uint64_t>(request.offset, retained);
      uint64_t end = retained;
      if (request.limit != 0) {
        end = std::min(SaturatingAdd(begin, request.limit), end);
      }
      if (fact_page) {
        // Factorized handle: the page expands ONLY its own rows — Skip()
        // jumps whole groups, so a deep-OFFSET page never re-enumerates
        // its prefix.
        FactorizedResult::Cursor cur = entry.fact.Expand();
        cur.Skip(begin);
        resp.rows.reserve(static_cast<size_t>(end - begin));
        for (uint64_t i = begin; i < end && cur.Next(); ++i) {
          resp.rows.push_back(engine_->TranslateRow(cur.Row()));
        }
        resp.stats.rows_expanded += cur.rows_expanded();
        from_fact = true;
      } else {
        resp.rows.assign(entry.rows.begin() + static_cast<ptrdiff_t>(begin),
                         entry.rows.begin() + static_cast<ptrdiff_t>(end));
      }
    }
  }
  if (cache_hit && from_fact) ++stats_.factorized_hits;
  stats_.rows_served += resp.rows.size();
  return resp;
}

Result<QueryResponse> QueryService::Query(std::string_view text,
                                          const RequestOptions& request) {
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::milliseconds budget = request.deadline.count() > 0
                                               ? request.deadline
                                               : options_.default_deadline;

  if (request.want_groups) {
    if (request.count_only) {
      return Status::InvalidArgument(
          "want_groups cannot combine with count_only");
    }
    if (request.offset != 0 || request.limit != 0) {
      return Status::InvalidArgument(
          "want_groups responses are not row-addressable: offset/limit "
          "must be zero (paginate in rows mode instead)");
    }
  }
  AMBER_ASSIGN_OR_RETURN(NormalizedQuery nq, NormalizeQuery(text));

  // One merged cancel scope per request: the client's token plus every
  // internal abort signal (orphaned-flight retirement cancels through the
  // flight's copy of this source). The engine sees its token.
  CancellationSource exec_cancel(request.cancel);

  // Drain registry: Shutdown() rejects us here or can cancel us later.
  AMBER_ASSIGN_OR_RETURN(const uint64_t drain_id,
                         RegisterRequest(exec_cancel));
  DrainGuard drain_guard{this, drain_id};

  const bool use_cache = options_.cache_entries > 0 && !request.bypass_cache;
  // Rows and counts of one query are distinct flights: a count result
  // cannot answer a materializing follower or vice versa.
  const std::string flight_key =
      nq.key + (request.count_only ? "#count" : "#rows");
  std::shared_ptr<Flight> flight;  // set iff this request leads a flight

  // The budget ran out before an answer arrived: resolves the flight (if
  // this request leads one) with a timed-out marker and answers
  // timed_out. Caller holds mu_.
  auto timed_out_locked = [&] {
    if (flight != nullptr) {
      auto marker = std::make_shared<CacheEntry>();
      marker->exec_stats.timed_out = true;
      PublishFlightLocked(flight_key, flight.get(), Status::OK(),
                          std::move(marker));
    }
    QueryResponse resp;
    resp.timed_out = true;
    return resp;
  };

  if (use_cache) {
    std::unique_lock<std::mutex> lock(mu_);
    CacheEntry* entry = LookupLocked(nq.key);
    // A hit must actually be able to answer this request's mode: rows (or
    // a factorized handle, expanded per page) for a materializing
    // request; an exact count (stored, or derivable from a complete
    // handle of either form) for a counting one.
    const bool usable =
        entry != nullptr &&
        (request.count_only
             ? (entry->have_count ||
                (entry->have_rows && !entry->truncated) ||
                (entry->have_fact && !entry->truncated))
             : (entry->have_rows || entry->have_fact));
    if (usable) {
      ++stats_.cache_hits;
      ++stats_.queries;
      return BuildResponse(*entry, nq, request, true);
    }
    ++stats_.cache_misses;

    if (options_.single_flight) {
      auto [it, inserted] =
          flights_.try_emplace(flight_key, std::make_shared<Flight>());
      if (!inserted) {
        // Follower: another request is already executing this exact
        // (key, mode). Wait for its published outcome under OUR deadline
        // — an expired follower answers timed_out on its own without
        // cancelling the leader.
        std::shared_ptr<Flight> lead = it->second;
        ++stats_.single_flight_hits;
        ++lead->waiters;
        bool resolved;
        if (budget.count() > 0) {
          resolved = lead->cv.wait_until(lock, start + budget,
                                         [&] { return lead->done; });
        } else {
          lead->cv.wait(lock, [&] { return lead->done; });
          resolved = true;
        }
        --lead->waiters;
        if (!resolved) {
          // Orphan check: if this was the LAST follower and the leader's
          // own client budget has expired too, nobody is left who could
          // use the result — cancel the leader's execution and retire
          // the flight so later requests lead fresh ones.
          if (!lead->done && lead->waiters == 0 &&
              std::chrono::steady_clock::now() >= lead->leader_deadline) {
            lead->leader_cancel.Cancel();
            ++stats_.orphaned_flights;
            auto fit = flights_.find(flight_key);
            if (fit != flights_.end() && fit->second == lead) {
              flights_.erase(fit);
            }
          }
          ++stats_.timed_out;
          ++stats_.queries;
          return timed_out_locked();
        }
        // Leader failure propagates to every waiter; it is never cached.
        if (!lead->status.ok()) return lead->status;
        ++stats_.queries;
        if (lead->entry->exec_stats.timed_out) ++stats_.timed_out;
        if (lead->entry->exec_stats.cancelled) ++stats_.cancelled;
        return BuildResponse(*lead->entry, nq, request, true);
      }
      flight = it->second;  // leader: must publish on EVERY exit below
      // Bind the orphan machinery: the flight's source shares state with
      // this request's exec token, and the leader counts as gone once its
      // own budget has elapsed (never, when unbounded).
      flight->leader_cancel = exec_cancel;
      if (budget.count() > 0) flight->leader_deadline = start + budget;
    }
  }

  // Admission: acquire an execution slot inside the request's own budget.
  bool shed = false;
  const Admission admission = Admit(start, budget, &shed);
  if (admission != Admission::kAdmitted) {
    std::lock_guard<std::mutex> lock(mu_);
    if (admission == Admission::kExpired) return timed_out_locked();
    Status status = Saturated();
    if (flight != nullptr) {
      PublishFlightLocked(flight_key, flight.get(), status, nullptr);
    }
    return status;
  }
  SlotGuard slot_guard{this};
  ExecOptions exec = BuildExecOptions(request, shed, exec_cancel);
  if (!request.count_only) exec.max_rows = options_.max_result_rows;

  // One execution attempt on the canonical parse (the plan half of the
  // cache): results depend on variables positionally, never on their
  // spelling. Fills `*out` on success.
  auto execute_once = [&](CacheEntry* out) -> Status {
    AMBER_RETURN_IF_ERROR(
        FaultInjector::Global().Inject(faults::kServiceExecute));
    if (request.count_only) {
      Result<CountResult> cr = engine_->Count(nq.query, exec);
      if (!cr.ok()) return cr.status();
      out->have_count = true;
      out->count = cr->count;
      out->exec_stats = cr->stats;
      return Status::OK();
    }
    // A want_groups request retains the answer graph even on a
    // flat-configured service: the factorized handle it needs gets cached
    // without changing what other requests retain.
    if (options_.result_form == ResultForm::kFactorized ||
        request.want_groups) {
      // Retain the factorized answer graph instead of translated rows.
      // Engines that cannot factorize (the baselines) report
      // kUnimplemented ONCE and this service instance could pin that,
      // but the probe is cheap — fall through to the flat handle.
      Result<FactorizedRows> fr = engine_->Factorize(nq.query, exec);
      if (fr.ok()) {
        out->have_fact = true;
        out->var_names = std::move(fr->var_names);
        out->fact = std::move(fr->result);
        out->truncated = fr->stats.truncated;
        out->exec_stats = fr->stats;
        return Status::OK();
      }
      if (!fr.status().IsUnimplemented()) return fr.status();
    }
    Result<MaterializedRows> mr = engine_->Materialize(nq.query, exec);
    if (!mr.ok()) return mr.status();
    out->have_rows = true;
    out->var_names = std::move(mr->var_names);
    out->rows = std::move(mr->rows);
    out->truncated = mr->stats.truncated;
    out->exec_stats = mr->stats;
    return Status::OK();
  };

  // Retry loop: transient (kUnavailable) failures are re-attempted with
  // doubling backoff, but only while the remaining budget covers the
  // sleep — the last milliseconds of a deadline are spent querying, not
  // waiting. The deadline is a per-query budget from Query() entry:
  // whatever the queue (and earlier attempts) consumed is gone.
  CacheEntry fresh;
  Status exec_status = Status::OK();
  uint64_t retries_done = 0;
  bool expired = false;
  std::chrono::milliseconds backoff =
      options_.initial_backoff.count() > 0 ? options_.initial_backoff
                                           : std::chrono::milliseconds(1);
  for (int attempt = 0;; ++attempt) {
    if (budget.count() > 0) {
      const auto remaining =
          RemainingBudget(start, budget, std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        expired = true;
        break;
      }
      exec.timeout = remaining;
    }
    if (exec_cancel.cancelled()) {
      // Abandoned before this attempt started: answer cancelled without
      // touching the engine.
      fresh = CacheEntry();
      fresh.exec_stats.cancelled = true;
      exec_status = Status::OK();
      break;
    }
    fresh = CacheEntry();  // drop any state from a failed attempt
    exec_status = execute_once(&fresh);
    if (exec_status.ok()) break;
    if (!exec_status.IsUnavailable() || attempt >= options_.max_retries) {
      break;
    }
    if (budget.count() > 0 &&
        RemainingBudget(start, budget, std::chrono::steady_clock::now()) <=
            backoff) {
      break;  // the budget no longer covers the backoff: fail now
    }
    if (exec_cancel.token().WaitFor(backoff)) {
      // The token tripped during the backoff sleep: wake immediately and
      // answer cancelled instead of burning the rest of the sleep and
      // another attempt.
      fresh = CacheEntry();
      fresh.exec_stats.cancelled = true;
      exec_status = Status::OK();
      break;
    }
    backoff *= 2;
    ++retries_done;
  }

  if (expired) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.retries += retries_done;
    ++stats_.timed_out;
    ++stats_.queries;
    return timed_out_locked();
  }
  if (!exec_status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.retries += retries_done;
    if (flight != nullptr) {
      PublishFlightLocked(flight_key, flight.get(), exec_status, nullptr);
    }
    return exec_status;
  }

  std::lock_guard<std::mutex> lock(mu_);
  stats_.retries += retries_done;
  ++stats_.queries;
  if (fresh.exec_stats.timed_out) ++stats_.timed_out;
  if (fresh.exec_stats.cancelled) ++stats_.cancelled;
  stats_.exec.MergeFrom(fresh.exec_stats);
  QueryResponse resp = BuildResponse(fresh, nq, request, false);
  if (flight != nullptr) {
    // Copy the result for the waiters only when someone is still there
    // to read it (the lone-miss fast path pays no copy). Timed-out
    // results reach followers this way yet are never cached below.
    std::shared_ptr<const CacheEntry> published;
    if (flight->waiters > 0) {
      published = std::make_shared<const CacheEntry>(fresh);
    } else {
      auto marker = std::make_shared<CacheEntry>();
      marker->exec_stats = fresh.exec_stats;
      published = std::move(marker);
    }
    PublishFlightLocked(flight_key, flight.get(), Status::OK(),
                        std::move(published));
  }
  // A timed-out or cancelled run holds partial results; caching it would
  // poison every later hit. Complete runs are upserted (plan + result
  // handle).
  if (use_cache && !fresh.exec_stats.timed_out &&
      !fresh.exec_stats.cancelled) {
    fresh.query = std::move(nq.query);
    UpsertLocked(nq.key, std::move(fresh));
  }
  return resp;
}

namespace {

/// The one page writer behind QueryStream. Both page sources feed it: the
/// engine's row stream (it is the RowSink QueryEngine::Stream drives) and
/// a groups stream's answer graph (translated groups, or cursor rows when
/// DISTINCT groups need row-level dedup). It skips the request offset,
/// buffers ONE in-flight page, and flushes it once the rows the page
/// represents reach `page_rows` or its accounted bytes reach
/// `page_bytes`. Each flush passes the `service.stream` fault site once
/// and hands the page to the client synchronously: the source does not
/// advance while a page is consumed — that handoff IS the backpressure,
/// so buffered memory is O(page), never O(result). A fault or a refused
/// page trips the execution token and stops the source.
class PageWriter final : public RowSink {
 public:
  PageWriter(PageSink* out, uint64_t offset, uint64_t page_rows,
             uint64_t page_bytes, CancellationSource* cancel)
      : out_(out),
        skip_(offset),
        page_rows_(std::max<uint64_t>(1, page_rows)),
        page_bytes_(page_bytes),
        cancel_(cancel) {}

  bool OnRow(std::span<const std::string> row) override {
    if (skip_ > 0) {
      --skip_;
      return true;
    }
    uint64_t bytes = row.size() * sizeof(std::string);
    for (const std::string& cell : row) bytes += cell.size();
    page_.rows.emplace_back(row.begin(), row.end());
    return Buffered(/*rows=*/1, bytes);
  }

  /// One translated group standing for `rows` expanded rows.
  bool OnGroup(ResultGroup&& group, uint64_t rows) {
    uint64_t bytes =
        sizeof(ResultGroup) + group.fixed.size() * sizeof(std::string);
    for (const std::string& cell : group.fixed) bytes += cell.size();
    for (const std::vector<std::string>& list : group.lists) {
      bytes += sizeof(list) + list.size() * sizeof(std::string);
      for (const std::string& cell : list) bytes += cell.size();
    }
    page_.groups.push_back(std::move(group));
    return Buffered(rows, bytes);
  }

  /// Hands the in-flight page to the client. `last` also flushes an empty
  /// terminator page. Returns false when the stream must stop.
  bool Flush(bool last) {
    if (page_.rows.empty() && page_.groups.empty() && !last) return true;
    // Page-handoff fault site: a firing aborts the stream exactly like a
    // client that stopped consuming.
    if (Status fault = FaultInjector::Global().Inject(faults::kServiceStream);
        !fault.ok()) {
      status_ = std::move(fault);
      cancel_->Cancel();
      return false;
    }
    StreamPage page = std::exchange(page_, StreamPage());
    page.first_row = delivered_;
    page.last = last;
    // A page counts as delivered once it is handed over, refused or not.
    delivered_ = SaturatingAdd(delivered_, page_represented_);
    page_represented_ = 0;
    buffered_bytes_ = 0;
    ++pages_;
    if (!out_->OnPage(std::move(page))) {
      aborted_ = true;
      cancel_->Cancel();
      return false;
    }
    return true;
  }

  uint64_t delivered() const { return delivered_; }
  uint64_t pages() const { return pages_; }
  uint64_t peak_bytes() const { return peak_bytes_; }
  bool aborted() const { return aborted_; }
  const Status& status() const { return status_; }

 private:
  /// Accounts what was just buffered; flushes once a page bound is hit.
  bool Buffered(uint64_t rows, uint64_t bytes) {
    page_represented_ = SaturatingAdd(page_represented_, rows);
    buffered_bytes_ += bytes;
    peak_bytes_ = std::max(peak_bytes_, buffered_bytes_);
    if (page_represented_ >= page_rows_ ||
        (page_bytes_ > 0 && buffered_bytes_ >= page_bytes_)) {
      return Flush(/*last=*/false);
    }
    return true;
  }

  PageSink* out_;
  uint64_t skip_;
  const uint64_t page_rows_;
  const uint64_t page_bytes_;
  CancellationSource* cancel_;
  StreamPage page_;                // the in-flight page
  uint64_t page_represented_ = 0;  // rows the in-flight page stands for
  uint64_t buffered_bytes_ = 0;
  uint64_t delivered_ = 0;
  uint64_t pages_ = 0;
  uint64_t peak_bytes_ = 0;
  bool aborted_ = false;
  Status status_ = Status::OK();
};

}  // namespace

Result<StreamResponse> QueryService::QueryStream(std::string_view text,
                                                 const RequestOptions& request,
                                                 PageSink* sink) {
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::milliseconds budget = request.deadline.count() > 0
                                               ? request.deadline
                                               : options_.default_deadline;
  if (request.count_only) {
    return Status::InvalidArgument(
        "count_only requests cannot stream; use Query()");
  }
  if (request.want_groups && (request.offset != 0 || request.limit != 0)) {
    return Status::InvalidArgument(
        "want_groups streams are not row-addressable: offset/limit must "
        "be zero (stream in rows mode instead)");
  }
  AMBER_ASSIGN_OR_RETURN(NormalizedQuery nq, NormalizeQuery(text));

  // Client token merged with the service's internal abort signals (sink
  // abort, page-handoff fault). Streams bypass the cache and single-flight
  // entirely: rows leave incrementally, so there is no materialized handle
  // to retain or share — and a cancelled partial stream can never be
  // cached by construction.
  CancellationSource exec_cancel(request.cancel);

  // Drain registry: Shutdown() rejects us here or can cancel us later.
  AMBER_ASSIGN_OR_RETURN(const uint64_t drain_id,
                         RegisterRequest(exec_cancel));
  DrainGuard drain_guard{this, drain_id};

  bool shed = false;
  switch (Admit(start, budget, &shed)) {
    case Admission::kRejected:
      return Saturated();
    case Admission::kExpired: {
      StreamResponse resp;
      resp.timed_out = true;
      return resp;
    }
    case Admission::kAdmitted:
      break;
  }
  SlotGuard slot_guard{this};
  ExecOptions exec = BuildExecOptions(request, shed, exec_cancel);
  // Pagination folds into the engine's row cap: enumeration stops once
  // offset + limit rows exist, instead of materializing the full result
  // and slicing.
  if (request.limit != 0) {
    exec.max_rows = SaturatingAdd(request.offset, request.limit);
  }
  if (budget.count() > 0) {
    const auto remaining =
        RemainingBudget(start, budget, std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.timed_out;
      ++stats_.queries;
      StreamResponse resp;
      resp.timed_out = true;
      return resp;
    }
    exec.timeout = remaining;
  }

  // Single attempt — no retries for streams: pages already delivered
  // cannot be unsent, so a mid-stream failure is surfaced, not retried.
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kServiceExecute));

  // Two page sources, one writer. A want_groups stream pages out its
  // answer graph; every other stream — and a groups stream on an engine
  // that cannot factorize — pages the engine's row stream.
  StreamResponse resp;
  PageWriter writer(sink, request.offset, options_.stream_page_rows,
                    options_.stream_buffer_bytes, &exec_cancel);
  std::vector<std::string> canon_names;
  ExecStats stats;       // the source's execution stats
  bool stopped = false;  // the source ended before its last row or group
  bool from_fact = false;
  uint64_t row_cap = std::numeric_limits<uint64_t>::max();
  if (request.want_groups) {
    Result<FactorizedRows> fr = engine_->Factorize(nq.query, exec);
    if (!fr.ok() && !fr.status().IsUnimplemented()) return fr.status();
    if (fr.ok()) {
      from_fact = true;
      canon_names = std::move(fr->var_names);
      stats = fr->stats;
      const FactorizedResult& fact = fr->result;
      row_cap = RetainedRows(fact);
      // A partial (timed-out / cancelled) answer graph ships no pages;
      // the end-state rule below classifies it.
      const bool partial = stats.timed_out || stats.cancelled;
      if (!partial && !fact.needs_row_dedup) {
        // Ship the groups themselves, never expanding. The group crossing
        // a row cap is delivered whole; rows_streamed is clamped to
        // row_cap so clients trim expansion to it.
        resp.groups_form = true;
        resp.slot_list = fact.slot_list;
        for (const FactorizedResult::Group& g : fact.groups) {
          if (exec_cancel.cancelled() ||
              !writer.OnGroup(TranslateGroup(fact, g), g.Cardinality())) {
            stopped = true;
            break;
          }
        }
      } else if (!partial) {
        // DISTINCT groups that collide route their expansion through a
        // row-level dedup set no client could replay: ship cursor rows.
        FactorizedResult::Cursor cur = fact.Expand();
        for (uint64_t i = 0; i < row_cap && cur.Next(); ++i) {
          if (exec_cancel.cancelled() ||
              !writer.OnRow(engine_->TranslateRow(cur.Row()))) {
            stopped = true;
            break;
          }
        }
        stats.rows_expanded += cur.rows_expanded();
      }
    }
  }
  if (!from_fact) {
    Result<StreamResult> sr = engine_->Stream(nq.query, exec, &writer);
    if (!sr.ok()) return sr.status();
    canon_names = std::move(sr->var_names);
    stats = sr->stats;
    stopped = sr->sink_stopped;
  }
  if (!writer.status().ok()) return writer.status();  // page-handoff fault

  resp.var_names = RequestVarNames(canon_names, nq);
  resp.truncated = stats.truncated;
  // The end-state rule of every stream (exactly one of the three): the
  // stream is cancelled if the sink refused a page, the engine reported
  // cancelled, or the source stopped early under a tripped token;
  // otherwise an engine timeout stands; otherwise it is complete — a
  // truncated (cap-reached) stream satisfied the request.
  resp.cancelled = writer.aborted() || stats.cancelled ||
                   (stopped && exec_cancel.cancelled());
  resp.timed_out = !resp.cancelled && stats.timed_out;
  resp.complete = !resp.cancelled && !resp.timed_out;
  // Terminator: flush the final partial page with last=true (an empty
  // page when the stream ended on a page boundary or had no rows).
  if (resp.complete && !writer.Flush(/*last=*/true)) {
    if (!writer.status().ok()) return writer.status();
    resp.cancelled = true;
    resp.complete = false;
  }
  resp.rows_streamed = std::min(writer.delivered(), row_cap);
  resp.pages = writer.pages();
  resp.peak_buffered_bytes = writer.peak_bytes();
  resp.stats = stats;
  resp.stats.rows = resp.rows_streamed;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  if (resp.cancelled) ++stats_.cancelled;
  if (resp.timed_out) ++stats_.timed_out;
  if (resp.groups_form) ++stats_.factorized_hits;
  stats_.exec.MergeFrom(stats);
  stats_.rows_served += resp.rows_streamed;
  return resp;
}

ServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.cache_entries = cache_.size();
  out.bytes_cached = cache_bytes_used_;
  out.in_flight = static_cast<uint64_t>(in_flight_);
  out.queued = static_cast<uint64_t>(queued_);
  return out;
}

}  // namespace amber
