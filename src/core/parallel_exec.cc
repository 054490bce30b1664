#include "core/parallel_exec.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

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

/// \brief The ordered, bounded-memory fan-in of the streaming mode.
///
/// Chunk workers push rows via OnRow(chunk, row); the streamer forwards
/// them to the consumer in exact chunk order (== serial order). The *head*
/// chunk — the first one not yet fully drained — streams through
/// immediately; later chunks buffer locally and their producers BLOCK once
/// the per-chunk soft cap is hit, so peak buffered memory is bounded by
/// O(num_chunks × buffer_rows) regardless of result cardinality.
///
/// Single-emitter protocol: whichever thread finds the head drainable and
/// no emitter active becomes the emitter, drains batches with the lock
/// released, and re-checks under the lock before retiring — any row
/// buffered meanwhile is either seen by the active emitter or pumped by
/// its own producer after `emitting_` clears (both transitions happen
/// under `mu_`, so no row can be stranded). Consecutive emitters hand off
/// through `mu_`, so the consumer callback is serialized with
/// happens-before edges despite running on different worker threads.
///
/// Blocked producers wake on: space freed, head advance, stop, or (via
/// bounded wait slices) deadline expiry / cancellation — a stuck consumer
/// can therefore never deadlock a timed or cancelled query.
class OrderedStreamer {
 public:
  enum class StopReason { kNone, kConsumer, kCap, kAbort };

  OrderedStreamer(size_t num_chunks, uint64_t buffer_rows, uint64_t cap,
                  bool distinct, const Deadline& deadline,
                  CancellationToken cancel, ParallelStreamSink* sink)
      : slots_(num_chunks),
        buffer_rows_(std::max<uint64_t>(1, buffer_rows)),
        cap_(cap),
        distinct_(distinct),
        deadline_(deadline),
        cancel_(std::move(cancel)),
        sink_(sink) {}

  /// Called by chunk `c`'s worker for every row it produces (chunk-locally
  /// deduplicated already under DISTINCT). Returns false when the stream
  /// stopped — the worker's sink unwinds its Run.
  bool OnRow(size_t c, std::span<const VertexId> row) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (stopped_) return false;
      // The head chunk may always buffer: its rows are immediately
      // drainable, so its producer must never block (deadlock freedom —
      // someone can always make progress towards draining the head).
      if (c == head_) break;
      if (slots_[c].buf.size() < buffer_rows_) break;
      if (cancel_.cancelled() || deadline_.Expired()) {
        StopLocked(StopReason::kAbort);
        return false;
      }
      cv_.wait_for(lock, std::chrono::milliseconds(2));
    }
    slots_[c].buf.emplace_back(row.begin(), row.end());
    if (c == head_ && !emitting_) PumpLocked(lock);
    return !stopped_;
  }

  /// Marks chunk `c` exhausted (its worker finished or skipped it).
  void FinishChunk(size_t c) {
    std::unique_lock<std::mutex> lock(mu_);
    slots_[c].done = true;
    if (!emitting_) PumpLocked(lock);
    cv_.notify_all();
  }

  /// Stops the stream (worker error, timeout, cancellation): wakes every
  /// blocked producer; subsequent OnRow calls return false.
  void Abort() {
    std::lock_guard<std::mutex> lock(mu_);
    StopLocked(StopReason::kAbort);
  }

  bool stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }
  /// All chunks fully drained into the consumer.
  bool complete() const {
    std::lock_guard<std::mutex> lock(mu_);
    return head_ == slots_.size();
  }
  /// Rows delivered to the consumer (post-dedup under DISTINCT).
  uint64_t emitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return emitted_;
  }
  StopReason stop_reason() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_reason_;
  }

 private:
  struct Slot {
    std::vector<std::vector<VertexId>> buf;
    bool done = false;
  };

  void StopLocked(StopReason reason) {
    if (!stopped_) {
      stopped_ = true;
      stop_reason_ = reason;
    }
    cv_.notify_all();
  }

  /// The emitter loop. Precondition: `lock` held, `emitting_` false.
  /// Drains the head chunk batch-wise (lock released around the consumer
  /// callback), advancing the head past finished chunks, until nothing is
  /// drainable — checked under the lock *while still holding the emitter
  /// role*, so a producer that buffered concurrently either gets drained
  /// here or finds `emitting_` false and pumps itself.
  void PumpLocked(std::unique_lock<std::mutex>& lock) {
    emitting_ = true;
    while (!stopped_) {
      Slot& s = slots_[head_];
      if (!s.buf.empty()) {
        std::vector<std::vector<VertexId>> batch;
        batch.swap(s.buf);
        lock.unlock();
        bool ok = true;
        for (const std::vector<VertexId>& r : batch) {
          if (distinct_ && !seen_.insert(RowDedupKey(r)).second) continue;
          ++emitted_pump_;
          if (!sink_->emit(r)) {
            ok = false;
            reason_pump_ = StopReason::kConsumer;
            break;
          }
          if (cap_ != 0 && emitted_pump_ >= cap_) {
            ok = false;
            reason_pump_ = StopReason::kCap;
            break;
          }
        }
        lock.lock();
        emitted_ = emitted_pump_;
        if (!ok) {
          StopLocked(reason_pump_);
          break;
        }
        cv_.notify_all();  // buffer space freed
        continue;
      }
      if (s.done) {
        ++head_;
        if (head_ == slots_.size()) break;  // stream complete
        cv_.notify_all();  // the new head may drain / stop blocking
        continue;
      }
      break;  // head still running with an empty buffer: nothing to drain
    }
    emitting_ = false;
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  const uint64_t buffer_rows_;
  const uint64_t cap_;
  const bool distinct_;
  const Deadline deadline_;
  const CancellationToken cancel_;
  ParallelStreamSink* const sink_;

  size_t head_ = 0;       // first chunk not fully drained
  bool emitting_ = false;  // a thread currently owns the emitter role
  bool stopped_ = false;
  StopReason stop_reason_ = StopReason::kNone;
  uint64_t emitted_ = 0;
  // Emitter-private mirrors, touched only while holding the emitter role
  // (updated without the lock during a batch, published under it).
  uint64_t emitted_pump_ = 0;
  StopReason reason_pump_ = StopReason::kNone;
  std::unordered_set<std::string> seen_;  // DISTINCT global dedup
};

/// Factorized chunk sink: groups flow into the chunk-local builder, and
/// the chunk stops once the finished prefix of earlier chunks already
/// covers the cap in represented-row units — those rows shadow anything
/// this chunk could contribute, so stopping cannot change the merged
/// output (the ordered early-cutoff of the determinism contract;
/// non-DISTINCT only — DISTINCT chunks pass a null prefix and rely on
/// their builder's exact local total).
class FactorizedChunkSink : public FactorizedSink {
 public:
  FactorizedChunkSink(FactorizedBuilder* builder,
                      const std::atomic<uint64_t>* prefix_rows, uint64_t cap)
      : FactorizedSink(builder), prefix_rows_(prefix_rows), cap_(cap) {}

  bool OnGroup(const EmbeddingGroupView& view) override {
    if (Shadowed()) return false;
    return FactorizedSink::OnGroup(view);
  }

 private:
  bool Shadowed() const {
    return cap_ != 0 && prefix_rows_ != nullptr &&
           prefix_rows_->load(std::memory_order_acquire) >= cap_;
  }

  const std::atomic<uint64_t>* prefix_rows_;
  uint64_t cap_;
};

}  // namespace

Result<ParallelRunResult> RunMatcherParallel(
    const Multigraph& g, const IndexSet& indexes, const QueryGraph& q,
    const QueryPlan& plan, const ExecOptions& options, uint64_t cap,
    ExecStats* stats, ParallelStreamSink* stream,
    ParallelFactorizeRequest* factorize) {
  const bool distinct = q.distinct();
  const bool streaming = stream != nullptr;
  const bool factorizing = factorize != nullptr;
  assert(streaming || factorizing || !distinct);

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

  // Per-chunk output slots: written by exactly one worker, read after the
  // pool barrier (ThreadPool::Wait provides the happens-before edge).
  struct ChunkOut {
    uint64_t count = 0;     // counting mode
    FactorizedResult fact;  // factorized mode
  };
  std::vector<ChunkOut> chunks(num_chunks);
  std::vector<ExecStats> worker_stats(num_workers);
  std::vector<Status> worker_status(num_workers);

  std::atomic<size_t> next_chunk{0};
  // Counting budget: rows counted by the whole fleet (counting mode only).
  std::atomic<uint64_t> counted{0};
  // Ordered cutoff state, read by the factorized mode: rows produced by
  // the longest fully-finished prefix of chunks. Guarded by prefix_mu;
  // published via prefix_rows.
  std::mutex prefix_mu;
  std::vector<uint8_t> chunk_done(num_chunks, 0);
  std::vector<uint64_t> chunk_row_counts(num_chunks, 0);
  size_t prefix_next = 0;
  uint64_t prefix_total = 0;
  std::atomic<uint64_t> prefix_rows{0};

  // Streaming fan-in (stream mode only): ordered delivery with per-chunk
  // bounded buffers; replaces the materialize-then-merge machinery.
  std::optional<OrderedStreamer> streamer;
  if (streaming) {
    streamer.emplace(num_chunks, options.stream_chunk_buffer_rows, cap,
                     distinct, deadline, options.cancel, stream);
  }

  auto finish_chunk = [&](size_t c, uint64_t rows_produced) {
    std::lock_guard<std::mutex> lock(prefix_mu);
    chunk_row_counts[c] = rows_produced;
    chunk_done[c] = 1;
    while (prefix_next < num_chunks && chunk_done[prefix_next]) {
      prefix_total = SaturatingAdd(prefix_total, chunk_row_counts[prefix_next]);
      ++prefix_next;
    }
    prefix_rows.store(prefix_total, std::memory_order_release);
  };

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
        if (streaming) streamer->Abort();
        break;
      }
      // A stopped stream (consumer stop / cap / abort) shadows every
      // remaining chunk.
      if (streaming && streamer->stopped()) break;
      // Per-chunk fault site: a firing poisons this worker's status (the
      // whole query fails, exactly like an organic chunk error) but still
      // marks the chunk finished so sibling workers' prefix accounting
      // never deadlocks on it.
      if (Status fault =
              FaultInjector::Global().Inject(faults::kParallelChunk);
          !fault.ok()) {
        worker_status[wi] = std::move(fault);
        if (streaming) {
          // Abort BEFORE marking the chunk done: FinishChunk on a live
          // stream could advance the head past this (rowless) chunk and
          // emit a later chunk's rows, breaking the prefix guarantee.
          streamer->Abort();
          streamer->FinishChunk(c);
        } else {
          finish_chunk(c, 0);
        }
        break;
      }
      const size_t begin = c * chunk_size;
      const size_t end = std::min(root.size(), begin + chunk_size);
      const std::span<const VertexId> slice(root.data() + begin, end - begin);

      // Early cutoff. Counting: once the fleet has counted `cap` rows the
      // result is pinned at the cap, so remaining chunks are moot.
      // Factorizing: a chunk is shadowed only when *earlier* chunks (a
      // superset of the finished prefix, which never reaches an in-flight
      // chunk) already hold the cap. DISTINCT chunks always run:
      // cross-chunk duplicates make their contribution unknowable here.
      if (!streaming && cap != 0 && !distinct) {
        const bool moot =
            factorizing
                ? prefix_rows.load(std::memory_order_acquire) >= cap
                : counted.load(std::memory_order_relaxed) >= cap;
        if (moot) {
          finish_chunk(c, 0);
          continue;
        }
      }

      Matcher::RunControl control;
      control.root_candidates = slice;
      control.deadline = deadline;
      control.skip_ground_checks = true;  // gated once, before dispatch

      Status status;
      uint64_t produced = 0;
      if (streaming) {
        // Stream mode: rows flow straight into the ordered fan-in (which
        // enforces order, backpressure, the cap, and — under DISTINCT —
        // the global dedup); the prefix machinery is idle here. The chunk
        // pre-deduplicates locally (first-occurrence order, which the
        // emitter's global dedup refines) so buffered duplicates never
        // occupy backpressure budget, and stops at `cap` forwarded rows:
        // no chunk can contribute more than the cap to the merged prefix.
        StreamingSink sink(distinct, cap,
                           [&streamer, c](std::span<const VertexId> row) {
                             return streamer->OnRow(c, row);
                           });
        status = matcher.Run(&sink, &worker_stats[wi], control);
        // A chunk cut short by an error or an interrupt is not exhausted:
        // abort BEFORE marking it done, or the head could advance past its
        // missing rows and emit a later chunk's, breaking the prefix.
        if (!status.ok() || worker_stats[wi].timed_out ||
            worker_stats[wi].cancelled) {
          streamer->Abort();
        }
        streamer->FinishChunk(c);
      } else if (factorizing) {
        // Factorized mode: collect raw groups chunk-locally. The chunk
        // builder is DISTINCT-aware only when a cap can stop it early —
        // its exact local total is what makes that stop safe (a chunk
        // holding `cap` local-distinct rows can never owe the merge more);
        // without a cap the collision bookkeeping would be wasted work
        // (the merge recomputes it from the raw groups anyway).
        FactorizedBuilder builder(factorize->num_slots, factorize->slot_list,
                                  distinct && cap != 0, cap);
        FactorizedChunkSink sink(&builder, distinct ? nullptr : &prefix_rows,
                                 cap);
        status = matcher.Run(&sink, &worker_stats[wi], control);
        worker_stats[wi].rows_expanded += builder.rows_expanded();
        chunks[c].fact = builder.Finish();
        produced = chunks[c].fact.total_rows;
      } else {
        BudgetCountingSink sink(cap, &counted);
        status = matcher.Run(&sink, &worker_stats[wi], control);
        chunks[c].count = sink.count();
        produced = chunks[c].count;
      }
      if (!streaming) finish_chunk(c, produced);
      if (!status.ok()) {
        worker_status[wi] = std::move(status);
        if (streaming) streamer->Abort();
        break;
      }
      // Once the shared deadline fired (or the token tripped) there is no
      // point claiming further chunks; sibling workers notice the same
      // interrupt on their next claim or within one check interval inside
      // Run.
      if (worker_stats[wi].timed_out || worker_stats[wi].cancelled) {
        if (streaming) streamer->Abort();
        break;
      }
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
    stats->MergeFrom(worker_stats[w]);
  }
  stats->threads_used = std::max<uint64_t>(stats->threads_used, num_workers);
  stats->tasks_dispatched += num_chunks;

  if (streaming) {
    // Rows already left through the sink in serial order; only classify.
    out.rows = streamer->emitted();
    out.truncated = cap != 0 && out.rows >= cap;
    if (!streamer->complete() && !out.truncated &&
        streamer->stop_reason() != OrderedStreamer::StopReason::kConsumer) {
      // The stream was cut short by neither the consumer nor the cap:
      // attribute the partial prefix to the token or the deadline (covers
      // producers that unwound through a sink-stop before their own tick
      // check could classify the interrupt).
      if (options.cancel.cancelled()) {
        stats->cancelled = true;
      } else if (deadline.Expired()) {
        stats->timed_out = true;
      }
    }
    return out;
  }

  if (factorizing) {
    // Re-feed every chunk's groups, in chunk order, through one global
    // builder — the code path the serial FactorizedSink drives — so
    // collision flags, exact totals and the cap cut land identically to a
    // serial run. A chunk that stopped early always holds at least as many
    // (distinct) rows as the merge can still take below the cap, so the
    // merge never runs out of groups it would have needed.
    FactorizedBuilder merged(factorize->num_slots, factorize->slot_list,
                             distinct, cap);
    bool open = true;
    for (ChunkOut& chunk : chunks) {
      if (!open) break;
      for (FactorizedResult::Group& grp : chunk.fact.groups) {
        if (!merged.Add(std::move(grp))) {
          open = false;
          break;
        }
      }
    }
    factorize->rows_expanded = merged.rows_expanded();
    FactorizedResult merged_result = merged.Finish();
    out.rows = cap == 0 ? merged_result.total_rows
                        : std::min(merged_result.total_rows, cap);
    out.truncated = merged_result.truncated;
    *factorize->out = std::move(merged_result);
    return out;
  }

  // Counting: the sum is order-free; `truncated` mirrors the serial sink,
  // set exactly when the total reaches the cap.
  uint64_t total = 0;
  for (const ChunkOut& chunk : chunks) {
    total = SaturatingAdd(total, chunk.count);
  }
  if (cap != 0 && total >= cap) {
    total = cap;
    out.truncated = true;
  }
  out.rows = total;
  return out;
}

}  // namespace amber
