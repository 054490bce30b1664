// The serving half of amber_bench: the pinned service configuration, the
// timed set-up (triples -> serving-ready), untimed reference answers, and
// the HTTP load phases (closed loop and open loop) over one opened
// artifact, plus the traced run.

#ifndef AMBER_BENCH_SERVE_H_
#define AMBER_BENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "trace.h"
#include "workloads.h"

namespace amber::bench {

/// Every ServiceOptions field, pinned (never a default, never derived
/// from the hardware): pool 5, cache 64 entries / 64 MiB, 1000-row
/// handles, 5 s deadline.
ServiceOptions PinnedServiceOptions();
/// HTTP transport: loopback, ephemeral port, 4 connections.
HttpServerOptions PinnedHttpOptions();

/// Wall-clock parts of one set-up, in seconds.
struct SetupTimes {
  double build = 0;  // AmberEngine::Build wall time; BuildTimings split it:
  double encode = 0;
  double graph = 0;
  double index = 0;
  double save = 0;
  double open = 0;
  double server_start = 0;  // QueryService + HttpServer::Start
  double total() const { return build + save + open + server_start; }
};

/// One timed set-up: AmberEngine::Build -> SaveFile -> drop the built
/// engine -> OpenFile -> QueryService + HttpServer::Start (then stopped).
/// `before_drop`, when set, runs untimed on the freshly built engine
/// (reference answers). When `drop_triples` is set the triples are freed
/// before OpenFile and `*rss_before_open_kb` is read just before it.
/// Returns the opened (mmap-backed) engine, or null on failure.
std::unique_ptr<AmberEngine> SetUpOnce(
    std::vector<Triple>* triples, const std::string& artifact_path,
    bool drop_triples, const std::function<void(AmberEngine&)>& before_drop,
    SetupTimes* times, long* rss_before_open_kb);

/// The answer digest of one distinct request, computed in process by
/// serial execution on `engine` (no service, no cache, no HTTP).
uint64_t ReferenceDigest(AmberEngine& engine, const DistinctRequest& r,
                         RequestKind kind);

/// Reference digests of `which` (indices into `distinct`), computed on
/// four threads; the map is keyed by distinct index.
std::map<uint32_t, uint64_t> ReferenceDigests(
    AmberEngine& engine, const std::vector<DistinctRequest>& distinct,
    const std::vector<uint32_t>& which, RequestKind kind);

/// Per-request records of one load phase over requests [first, first + n)
/// of the list, indexed by request id - first.
struct PhaseRecord {
  uint64_t first = 0;
  std::vector<double> latency_ms;  // open loop: from the request's due time
  std::vector<double> ttfp_ms;     // to the first result page
  std::vector<double> late_ms;     // open loop: send time - due time
  std::vector<uint64_t> digest;
  std::vector<uint8_t> ok;  // 2xx, whole body, not timed out or cancelled
  double elapsed_s = 0;
  // Counters over the measured part (warm-up excluded).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t bytes_out = 0;
  long rss_end_kb = 0;  // VmRSS at the end, after TrimHeap()
};

/// One round of load: requests [first, first + n) of `inputs.list` over
/// HTTP against a fresh QueryService and HttpServer on `engine`, from
/// `clients` new client threads, after an untimed warm-up. `paced_qps` > 0
/// sends request first + i at t0 + i / paced_qps (open loop, timed from
/// that due time); otherwise each client sends its next request when the
/// previous one completes (closed loop).
PhaseRecord RunRound(AmberEngine* engine, const WorkloadSpec& spec,
                     const WorkloadInputs& inputs, uint64_t first,
                     uint64_t n, int clients, double paced_qps);

/// The measured phases, one record per round.
struct Phases {
  std::vector<PhaseRecord> capacity;  // closed loop
  std::vector<PhaseRecord> paced;     // open loop; empty if spec.paced_qps 0
};

/// Runs the capacity list (and the paced list) in spec.rounds consecutive
/// slices, alternating capacity and paced rounds. Every round has fresh
/// threads: on a small VM, where a thread lands relative to its peer moves
/// loopback throughput by tens of percent and the host's load drifts over
/// tens of seconds, a phase's statistics are medians over its rounds,
/// which the alternation spreads over the whole run.
Phases RunPhases(AmberEngine* engine, const WorkloadSpec& spec,
                 const WorkloadInputs& inputs);

/// Result of the traced run.
struct TraceRecord {
  uint64_t failed = 0;
  /// /query responses whose wire::SerializeResponse bytes differed from
  /// the HTTP body (streams: the serialized pages and summary).
  uint64_t serialize_mismatches = 0;
  /// Per-layer metrics by name (README.md, "Per-layer metrics").
  std::map<std::string, double> metrics;
  std::map<std::string, SpanSummary> spans;
  SpanStore store;
};

/// The traced run: a 1-client untraced pass over the first `n` requests
/// (the overhead baseline), then a traced 1-client pass over the same
/// prefix with a twin QueryService and the engine path replayed through
/// public functions for every twin miss. `expected` holds the reference
/// digest of every distinct request in the prefix.
TraceRecord RunTraced(AmberEngine* engine, const WorkloadSpec& spec,
                      const WorkloadInputs& inputs, uint64_t n,
                      const std::map<uint32_t, uint64_t>& expected);

}  // namespace amber::bench

#endif  // AMBER_BENCH_SERVE_H_
