#include "core/parallel_exec.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/factorized.h"
#include "core/matcher.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace amber {

namespace {

// Chunks per worker in the shared queue. More chunks than workers gives
// work-stealing-style load balancing (a worker that drew a cheap chunk
// claims another) without the merge cost growing past O(#chunks).
constexpr size_t kChunksPerWorker = 8;

/// Counting sink with a shared row budget: the local count is exact (summed
/// at merge time), while the shared counter lets every worker stop as soon
/// as the fleet has counted `cap` rows in total — for counting, the result
/// is min(sum, cap) regardless of *which* rows were counted, so a global
/// (unordered) budget preserves determinism.
class BudgetCountingSink : public EmbeddingSink {
 public:
  BudgetCountingSink(uint64_t cap, std::atomic<uint64_t>* global)
      : cap_(cap), global_(global) {}

  bool OnGroup(const EmbeddingGroupView& group) override {
    const uint64_t count = group.Cardinality();
    local_ = SaturatingAdd(local_, count);
    if (cap_ == 0) return true;
    // Increments are clamped to the cap so the shared counter cannot wrap
    // even with saturated satellite products.
    const uint64_t inc = std::min(count, cap_);
    const uint64_t total =
        global_->fetch_add(inc, std::memory_order_relaxed) + inc;
    return total < cap_;
  }

  uint64_t count() const { return local_; }

 private:
  uint64_t cap_;
  std::atomic<uint64_t>* global_;
  uint64_t local_ = 0;
};

/// \brief The ordered replay: every chunk's groups reach the caller's sink
/// in chunk order (== serial order), through bounded buffers.
///
/// The *head* chunk — the first one not yet fully replayed — replays its
/// groups straight from its matcher's view: its producer takes the emitter
/// role when its chunk is the head and nothing is buffered, and keeps it
/// until the chunk finishes. No group can be queued ahead of its own, so
/// that path copies nothing and takes no lock per group. A chunk behind the
/// head appends its groups to a flat record buffer, and its producer BLOCKS
/// once the buffer holds `buffer_rows` represented rows, so peak buffered
/// memory is O(num_chunks × buffer_rows) whatever the result's size.
///
/// Single-emitter protocol: the role is taken and released under `mu_`. A
/// producer finishing the chunk whose role it holds, or finding no emitter
/// active, drains buffered records with the lock released and re-checks
/// under the lock before retiring — a group buffered meanwhile is either
/// replayed by the active emitter or found by its own producer, which takes
/// the role once `emitting_` clears. Consecutive emitters hand off through
/// `mu_`, so the caller's sink and the emitter-private state below are
/// serialized with happens-before edges despite running on different
/// worker threads.
///
/// Blocked producers wake on: space freed, head advance, stop, or (via
/// bounded wait slices) deadline expiry / cancellation — a stuck consumer
/// can therefore never deadlock a timed or cancelled query.
class OrderedReplay : private RowPoll {
 public:
  OrderedReplay(size_t num_chunks, uint64_t buffer_rows,
                std::vector<uint32_t> slot_list, const Deadline& deadline,
                CancellationToken cancel, EmbeddingSink* sink)
      : slots_(num_chunks),
        buffer_rows_(buffer_rows),
        slot_list_(std::move(slot_list)),
        deadline_(deadline),
        cancel_(std::move(cancel)),
        sink_(sink) {
    size_t num_lists = 0;
    for (uint32_t sl : slot_list_) {
      if (sl != kNoGroupList) num_lists = std::max<size_t>(num_lists, sl + 1);
    }
    lists_.resize(num_lists);
  }

  /// One group of chunk `c`, representing `rows` rows, from the chunk's
  /// producer. `*held` is that producer's emitter role: false before its
  /// first group, then set here once its chunk is the head. Returns false
  /// once the replay stopped — the producer's Run unwinds.
  bool Push(size_t c, const EmbeddingGroupView& view, uint64_t rows,
            bool* held) {
    if (!*held) {
      std::unique_lock<std::mutex> lock(mu_);
      Slot& s = slots_[c];
      while (true) {
        if (stopped_) return false;
        if (c == head_) {
          // The head never blocks (deadlock freedom: someone can always
          // make progress towards replaying it). With an emitter active it
          // buffers, and that emitter replays the buffer before retiring.
          if (emitting_) break;
          // An emitter retires only with the head's buffer empty, and the
          // head's producer buffers only while one is active.
          assert(s.buf.empty());
          emitting_ = true;
          *held = true;
          break;
        }
        if (s.buf.empty() || buffer_rows_ == 0 || s.buf.rows < buffer_rows_) {
          break;
        }
        if (cancel_.cancelled() || deadline_.Expired()) {
          StopLocked(/*abort=*/true);
          return false;
        }
        cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
      if (!*held) {
        assert(view.fixed.size() == slot_list_.size() &&
               view.lists.size() == lists_.size());
        s.buf.Append(view, rows);
        return true;
      }
    } else if (stopped_.load(std::memory_order_acquire)) {
      return false;  // aborted by another chunk
    }
    if (Deliver(view)) return true;
    std::lock_guard<std::mutex> lock(mu_);
    StopLocked(/*abort=*/interrupted_);
    return false;
  }

  /// Marks chunk `c` exhausted (its producer finished or unwound). `held`:
  /// the producer holds the emitter role, which it hands on from here.
  void FinishChunk(size_t c, bool held) {
    std::unique_lock<std::mutex> lock(mu_);
    slots_[c].done = true;
    if (held || !emitting_) PumpLocked(lock);
  }

  /// Stops the replay (worker error, timeout, cancellation): wakes every
  /// blocked producer; subsequent Push calls return false.
  void Abort() {
    std::lock_guard<std::mutex> lock(mu_);
    StopLocked(/*abort=*/true);
  }

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// The replay was cut short by an abort or by its poll's interrupt — not
  /// by the sink, and never after the last chunk was replayed (each abort
  /// happens while a chunk is in flight).
  bool aborted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }
  /// Rows the replayed groups' expansions produced (ExecStats::rows_expanded).
  uint64_t rows_expanded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_expanded_;
  }

 private:
  /// Buffered groups of one chunk, flat: per group, its fixed slots then
  /// each list's ids in `ids`, and its multiplicity then each list's length
  /// in `lens` — no allocation per group.
  struct Records {
    std::vector<VertexId> ids;
    std::vector<uint64_t> lens;
    uint64_t rows = 0;  // represented rows

    bool empty() const { return lens.empty(); }
    void Append(const EmbeddingGroupView& view, uint64_t card) {
      ids.insert(ids.end(), view.fixed.begin(), view.fixed.end());
      lens.push_back(view.multiplicity);
      for (std::span<const VertexId> l : view.lists) {
        ids.insert(ids.end(), l.begin(), l.end());
        lens.push_back(l.size());
      }
      rows = SaturatingAdd(rows, card);
    }
    void Clear() {
      ids.clear();
      lens.clear();
      rows = 0;
    }
  };

  struct Slot {
    Records buf;
    bool done = false;
  };

  // RowPoll, lent to every replayed view: the shared deadline and the token
  // once per 64 rows, like the matcher's own poll.
  bool NextRow() override {
    if ((++tick_ & 63u) == 0 && (cancel_.cancelled() || deadline_.Expired())) {
      interrupted_ = true;
      return false;
    }
    ++rows_expanded_;
    return true;
  }

  /// Emitter role only: hands `view` to the sink with this replay's poll.
  /// False when the sink stopped or the poll recorded an interrupt, which
  /// outranks the sink's answer, as in Matcher::Emit.
  bool Deliver(EmbeddingGroupView view) {
    view.poll = this;
    const bool more = sink_->OnGroup(view);
    return more && !interrupted_;
  }

  /// Emitter role only, lock released: replays `batch_` as views.
  bool ReplayBatch() {
    const std::span<const VertexId> ids(batch_.ids);
    const size_t stride = 1 + lists_.size();
    size_t at = 0;
    for (size_t r = 0; r < batch_.lens.size(); r += stride) {
      const std::span<const VertexId> fixed =
          ids.subspan(at, slot_list_.size());
      at += fixed.size();
      for (size_t d = 0; d < lists_.size(); ++d) {
        lists_[d] = ids.subspan(at, batch_.lens[r + 1 + d]);
        at += lists_[d].size();
      }
      if (!Deliver({.fixed = fixed,
                    .slot_list = slot_list_,
                    .lists = lists_,
                    .multiplicity = batch_.lens[r]})) {
        return false;
      }
    }
    return true;
  }

  void StopLocked(bool abort) {
    if (!stopped_) {
      stopped_.store(true, std::memory_order_release);
      aborted_ = abort;
    }
    cv_.notify_all();
  }

  /// The emitter loop. Precondition: `lock` held, and either no emitter is
  /// active or the caller holds the role. Replays the head chunk's buffer
  /// batch-wise (lock released around the sink), advancing the head past
  /// finished chunks, until nothing is replayable — checked under the lock
  /// *while still holding the role*, so a producer that buffered
  /// concurrently either gets replayed here or finds `emitting_` false.
  void PumpLocked(std::unique_lock<std::mutex>& lock) {
    emitting_ = true;
    while (!stopped_) {
      Slot& s = slots_[head_];
      if (!s.buf.empty()) {
        // The slot takes the spare buffer's capacity in exchange.
        std::swap(batch_, s.buf);
        lock.unlock();
        const bool ok = ReplayBatch();
        batch_.Clear();
        lock.lock();
        if (!ok) {
          StopLocked(/*abort=*/interrupted_);
          break;
        }
        cv_.notify_all();  // buffer space freed
        continue;
      }
      if (s.done) {
        ++head_;
        if (head_ == slots_.size()) break;  // replay complete
        cv_.notify_all();  // the new head may replay / stop blocking
        continue;
      }
      break;  // head still running with an empty buffer: nothing to replay
    }
    emitting_ = false;
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  const uint64_t buffer_rows_;  // 0 = unbounded
  const std::vector<uint32_t> slot_list_;
  const Deadline deadline_;
  const CancellationToken cancel_;
  EmbeddingSink* const sink_;

  size_t head_ = 0;        // first chunk not fully replayed
  bool emitting_ = false;  // a thread currently owns the emitter role
  // Written under mu_; read without it by the producer holding the role.
  std::atomic<bool> stopped_{false};
  bool aborted_ = false;
  // Emitter-private: touched only while holding the role, without the
  // lock; the role's hand-off under mu_ publishes them.
  Records batch_;
  std::vector<std::span<const VertexId>> lists_;
  uint32_t tick_ = 0;
  bool interrupted_ = false;
  uint64_t rows_expanded_ = 0;
};

/// One chunk's producer: pushes its groups into the replay. `cap` (0 =
/// none) stops the chunk once it produced that many rows — without
/// DISTINCT no chunk can contribute more to the serial answer.
class ChunkSink : public EmbeddingSink {
 public:
  ChunkSink(OrderedReplay* replay, size_t chunk, uint64_t cap)
      : replay_(replay), chunk_(chunk), cap_(cap) {}

  bool OnGroup(const EmbeddingGroupView& view) override {
    const uint64_t rows = view.Cardinality();
    if (!replay_->Push(chunk_, view, rows, &held_)) return false;
    produced_ = SaturatingAdd(produced_, rows);
    return cap_ == 0 || produced_ < cap_;
  }

  /// The producer holds the replay's emitter role.
  bool held() const { return held_; }

 private:
  OrderedReplay* replay_;
  size_t chunk_;
  uint64_t cap_;
  bool held_ = false;
  uint64_t produced_ = 0;
};

}  // namespace

Result<ParallelRunResult> RunMatcherParallel(
    const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
    const QueryPlan& plan, const ExecOptions& options, uint64_t cap,
    ExecStats* stats, EmbeddingSink* ordered, uint64_t buffer_rows) {
  assert(ordered != nullptr || !q.distinct());

  // ONE absolute deadline for the whole query, shared by every chunk Run:
  // ExecOptions::timeout is a per-query budget, exactly as in serial mode.
  const Deadline deadline = Deadline::After(options.timeout);

  ParallelRunResult out;

  // Ground checks and CandInit run once, on the calling thread (workers
  // skip both). The root matcher never Runs, so its hot-path counters are
  // flushed here to keep serial and parallel stats in agreement.
  Matcher root_matcher(g, indexes, q, plan, options);
  if (!root_matcher.GroundChecksPass()) {
    root_matcher.FlushHotPathStats(stats);
    return out;  // a constant pattern is absent => no rows
  }
  const std::vector<VertexId> root =
      root_matcher.ComputeRootCandidates(deadline, options.cancel);
  stats->initial_candidates = root.size();
  root_matcher.FlushHotPathStats(stats);
  if (const Matcher::InterruptKind k = root_matcher.pending_interrupt();
      k != Matcher::InterruptKind::kNone) {
    // The root CandInit scan itself was cut short: the candidate list is
    // partial, so executing over it would silently drop results. Report
    // the interrupt with zero rows instead, exactly like a pre-execution
    // expiry on the serial path.
    if (k == Matcher::InterruptKind::kCancelled) {
      stats->cancelled = true;
    } else {
      stats->timed_out = true;
    }
    return out;
  }

  if (root.empty()) return out;  // component 0 unmatchable => no rows

  const size_t num_workers =
      std::min<size_t>(static_cast<size_t>(options.num_threads), root.size());
  const size_t target_chunks =
      std::min(root.size(), num_workers * kChunksPerWorker);
  const size_t chunk_size = (root.size() + target_chunks - 1) / target_chunks;
  const size_t num_chunks = (root.size() + chunk_size - 1) / chunk_size;

  // Per-worker outputs: written by exactly one worker, read after the pool
  // barrier (the latch / ThreadPool::Wait provides the happens-before edge).
  std::vector<uint64_t> worker_rows(num_workers, 0);  // counting mode
  std::vector<ExecStats> worker_stats(num_workers);
  std::vector<Status> worker_status(num_workers);

  std::atomic<size_t> next_chunk{0};
  // Counting budget: rows counted by the whole fleet (counting mode only).
  std::atomic<uint64_t> counted{0};

  std::optional<OrderedReplay> replay;
  if (ordered != nullptr) {
    replay.emplace(num_chunks, buffer_rows,
                   BuildSlotList(q.projection(), plan.is_core), deadline,
                   options.cancel, ordered);
  }
  const uint64_t chunk_cap = q.distinct() ? 0 : cap;

  auto worker = [&](size_t wi) {
    // One scratch arena per worker, reused across every chunk it claims:
    // caches (LocalCandidates, component CandInit) stay warm and the
    // steady-state recursion stays allocation-free.
    MatcherScratch scratch(g, indexes, q, plan, options);
    Matcher matcher(g, indexes, q, plan, options, &scratch);
    while (true) {
      const size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      // Cooperative gate BEFORE the chunk starts: once the token trips or
      // the shared deadline fires, claimed-but-unstarted chunks are
      // abandoned (and unclaimed ones never start) — the worker records
      // the interrupt so the merged stats classify the partial result.
      if (options.cancel.cancelled() || deadline.Expired()) {
        if (options.cancel.cancelled()) {
          worker_stats[wi].cancelled = true;
        } else {
          worker_stats[wi].timed_out = true;
        }
        if (replay) replay->Abort();
        break;
      }
      // A stopped replay (sink stop / abort) shadows every remaining chunk.
      if (replay && replay->stopped()) break;
      // Per-chunk fault site: a firing poisons this worker's status (the
      // whole query fails, exactly like an organic chunk error) and stops
      // the replay before any later chunk's groups can pass this one.
      if (Status fault =
              FaultInjector::Global().Inject(faults::kParallelChunk);
          !fault.ok()) {
        worker_status[wi] = std::move(fault);
        if (replay) replay->Abort();
        break;
      }
      const size_t begin = c * chunk_size;
      const size_t end = std::min(root.size(), begin + chunk_size);
      const std::span<const VertexId> slice(root.data() + begin, end - begin);

      // Counting's early cutoff: once the fleet has counted `cap` rows the
      // result is pinned at the cap, so remaining chunks are moot.
      if (!replay && cap != 0 &&
          counted.load(std::memory_order_relaxed) >= cap) {
        continue;
      }

      Matcher::RunControl control;
      control.root_candidates = slice;
      control.deadline = deadline;
      control.skip_ground_checks = true;  // gated once, before dispatch

      Status status;
      if (replay) {
        ChunkSink sink(&*replay, c, chunk_cap);
        status = matcher.Run(&sink, &worker_stats[wi], control);
        // A chunk cut short by an error or an interrupt is not exhausted:
        // abort BEFORE marking it done, or the head could advance past its
        // missing groups and replay a later chunk's.
        if (!status.ok() || worker_stats[wi].timed_out ||
            worker_stats[wi].cancelled) {
          replay->Abort();
        }
        replay->FinishChunk(c, sink.held());
      } else {
        BudgetCountingSink sink(cap, &counted);
        status = matcher.Run(&sink, &worker_stats[wi], control);
        worker_rows[wi] = SaturatingAdd(worker_rows[wi], sink.count());
      }
      if (!status.ok()) {
        worker_status[wi] = std::move(status);
        break;
      }
      // Once the shared deadline fired (or the token tripped) there is no
      // point claiming further chunks; sibling workers notice the same
      // interrupt on their next claim or within one check interval inside
      // Run.
      if (worker_stats[wi].timed_out || worker_stats[wi].cancelled) break;
    }
  };

  if (options.pool != nullptr && num_workers > 1) {
    // Borrowed-pool mode (the serving runtime): helpers run as plain tasks
    // on the caller-owned shared pool, so no threads are spawned per query
    // and many concurrent queries can multiplex one pool. Completion is
    // tracked per query with a latch — ThreadPool::Wait() is a whole-pool
    // barrier and would wait on *other* queries' tasks too. A helper that
    // starts late (pool busy) just finds the chunk queue drained and
    // returns; worker 0 (the calling thread) always makes progress, so a
    // query never waits on another query to be admitted to the pool.
    std::latch done(static_cast<ptrdiff_t>(num_workers - 1));
    for (size_t w = 1; w < num_workers; ++w) {
      const bool submitted = options.pool->Submit([&worker, &done, w] {
        worker(w);
        done.count_down();
      });
      // A shut-down pool accepts nothing; run without that helper.
      if (!submitted) done.count_down();
    }
    worker(0);
    // The latch is both the completion barrier and the happens-before edge
    // publishing every helper's chunk outputs to this thread.
    done.wait();
  } else {
    // Spawn-per-query mode: the calling thread participates as worker 0;
    // the transient pool only holds the helpers. This saves one thread
    // spawn per query and keeps the caller's core busy.
    std::optional<ThreadPool> pool;
    if (num_workers > 1) {
      pool.emplace(num_workers - 1);
      for (size_t w = 1; w < num_workers; ++w) {
        pool->Submit([&worker, w] { worker(w); });
      }
    }
    worker(0);
    if (pool.has_value()) pool->Wait();
  }

  for (size_t w = 0; w < num_workers; ++w) {
    AMBER_RETURN_IF_ERROR(worker_status[w]);
    // initial_candidates was attributed to the root computation above.
    worker_stats[w].initial_candidates = 0;
    // A chunk the replay stopped is not a truncation: the caller's sink
    // decides that, exactly as serially.
    if (replay) worker_stats[w].truncated = false;
    stats->MergeFrom(worker_stats[w]);
  }
  stats->threads_used = std::max<uint64_t>(stats->threads_used, num_workers);
  stats->tasks_dispatched += num_chunks;

  if (replay) {
    stats->rows_expanded += replay->rows_expanded();
    if (replay->aborted()) {
      // The replay was cut short by neither the sink nor the end of the
      // answer: attribute it to the token or the deadline (covers the
      // replay's own poll and producers that unwound through a stop
      // before their own tick check could classify the interrupt).
      if (options.cancel.cancelled()) {
        stats->cancelled = true;
      } else if (deadline.Expired()) {
        stats->timed_out = true;
      }
    }
    return out;
  }

  // Counting: the sum is order-free; `truncated` mirrors the serial sink,
  // set exactly when the total reaches the cap.
  uint64_t total = 0;
  for (uint64_t rows : worker_rows) total = SaturatingAdd(total, rows);
  if (cap != 0 && total >= cap) {
    total = cap;
    out.truncated = true;
  }
  out.rows = total;
  return out;
}

}  // namespace amber
