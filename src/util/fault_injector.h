// Deterministic fault injection for the serving stack (docs/ARCHITECTURE.md,
// "Failure semantics").
//
// Named sites on the hot request path (engine execution, parallel chunk
// dispatch, artifact open, service execution) consult the process-global
// FaultInjector. By default every site is a no-op costing one relaxed
// atomic load — the hook is compiled in ALWAYS, including release builds,
// so the code paths tests exercise under injected failure are byte-for-byte
// the paths production runs. Tests (and the bench fault sweep) arm sites by
// name with a trigger schedule:
//
//   fail_nth      fire exactly on the Nth visit (1-based)
//   fail_every    fire on every Kth visit
//   probability   fire with probability p per visit, from a seeded RNG —
//                 "random" chaos schedules replay exactly given the seed
//
// A firing site can inject an error Status (kUnavailable transients,
// kResourceExhausted allocation pressure, kIOError artifact read faults...)
// and/or latency padding (a slow-down fault: code == kOk with a delay).
// Sites report visit ("hit") and firing counts so tests can pin schedules.
//
// Thread-safety: Arm/Disarm/Reset and Inject may be called concurrently
// from any thread. The disarmed fast path is wait-free.

#ifndef AMBER_UTIL_FAULT_INJECTOR_H_
#define AMBER_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/status.h"

namespace amber {

/// The names of every instrumented site, kept in one place so tests and
/// the sites themselves can never drift apart (docs/ARCHITECTURE.md holds
/// the authoritative table).
namespace faults {
/// QueryService::Query, before each execution attempt (retried).
inline constexpr const char kServiceExecute[] = "service.execute";
/// Each public AmberEngine query call (Count, Materialize, Stream,
/// Factorize), once, before planning/matching.
inline constexpr const char kEngineExecute[] = "engine.execute";
/// parallel_exec worker, before each claimed chunk runs.
inline constexpr const char kParallelChunk[] = "parallel.chunk";
/// QueryService::QueryStream, before each page handoff to the PageSink.
inline constexpr const char kServiceStream[] = "service.stream";
/// HttpServer, before each response/page write to a client socket — a
/// firing behaves exactly like a mid-response transport failure (the
/// connection is aborted and the request's token trips).
inline constexpr const char kServerWrite[] = "server.write";
/// MappedFile::Open, before the mmap (artifact read fault).
inline constexpr const char kMmapOpen[] = "mmap.open";
/// amf::Reader::Open, before header/table validation.
inline constexpr const char kAmfOpen[] = "amf.open";
}  // namespace faults

/// What an armed site does when its schedule fires.
struct FaultSpec {
  /// Status code of the injected error. kOk injects no error — combined
  /// with `delay` this is a pure slow-down fault.
  StatusCode code = StatusCode::kUnavailable;
  std::string message = "injected fault";

  // Trigger schedule: the site fires on a visit when ANY armed trigger
  // matches. All zero = never fires (counting-only site).
  uint64_t fail_nth = 0;    ///< fire exactly on the Nth visit (1-based)
  uint64_t fail_every = 0;  ///< fire on every Kth visit
  double probability = 0.0; ///< fire with probability p per visit
  uint64_t seed = 1;        ///< RNG seed for `probability` (replayable)

  /// Stop firing after this many firings (0 = unlimited). fail_nth sites
  /// implicitly fire once.
  uint64_t max_fires = 0;

  /// Latency padding applied when the site fires, before any error is
  /// returned (a firing with code == kOk is a slow-down only).
  std::chrono::milliseconds delay{0};
};

/// \brief The process-global named-site fault injector. See file comment.
class FaultInjector {
 public:
  /// The one injector every site consults.
  static FaultInjector& Global();

  /// Arms (or re-arms, resetting counters for) `site` with `spec`.
  void Arm(const std::string& site, const FaultSpec& spec);

  /// Disarms `site`; its counters stay readable until Reset().
  void Disarm(const std::string& site);

  /// Disarms every site and clears all counters.
  void Reset();

  /// Visits of `site` while it was armed / firings it produced.
  uint64_t Hits(const std::string& site) const;
  uint64_t Fires(const std::string& site) const;

  /// The site hook: returns OK instantly when nothing is armed; otherwise
  /// consults `site`'s schedule, applies its delay, and returns the
  /// injected error (or OK). Sites propagate the returned Status exactly
  /// like an organic failure of the operation they guard.
  Status Inject(const char* site) {
    if (armed_sites_.load(std::memory_order_relaxed) == 0) {
      return Status::OK();
    }
    return InjectSlow(site);
  }

 private:
  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
    uint64_t rng_state = 1;  // splitmix64, seeded from spec.seed
  };

  Status InjectSlow(const char* site);

  std::atomic<int> armed_sites_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, SiteState> sites_;
};

/// RAII arm/disarm for tests: the site is disarmed on scope exit even when
/// an assertion fails out of the block.
class ScopedFault {
 public:
  ScopedFault(std::string site, const FaultSpec& spec)
      : site_(std::move(site)) {
    FaultInjector::Global().Arm(site_, spec);
  }
  ~ScopedFault() { FaultInjector::Global().Disarm(site_); }

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string site_;
};

}  // namespace amber

#endif  // AMBER_UTIL_FAULT_INJECTOR_H_
