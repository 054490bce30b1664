// The four amber_bench workloads (README.md, "Workloads") and the seeded
// generation of their inputs: the tripleset, the distinct requests, the
// fixed request list of the measured phases and a separate warm-up list.
// Everything is a pure function of (workload, seed, mode); the program
// under test only ever sees the generated inputs.

#ifndef AMBER_BENCH_WORKLOADS_H_
#define AMBER_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/workload.h"
#include "rdf/term.h"

namespace amber::bench {

enum class RequestKind {
  kCount,   // POST /query with count_only
  kPage,    // POST /query, one LIMIT/OFFSET page
  kStream,  // POST /query/stream, NDJSON rows
};

struct WorkloadSpec {
  const char* name = "";
  /// "DBPEDIA" or "YAGO" (scale-free profiles; scale 1 ~ 225k / 198k
  /// triples) or "LUBM" (scale = universities, ~73k triples each).
  const char* dataset = "";
  double scale = 1;
  QueryShape shape = QueryShape::kStar;
  /// Query sizes, cycled over the distinct queries.
  std::vector<int> sizes = {};
  /// Distinct queries in the measured pool (the warm pool is separate).
  int distinct_queries = 0;
  /// WorkloadOptions::satellite_fanout.
  int satellite_fanout = 0;
  /// No constant IRIs and no literal patterns beyond what a star centre
  /// needs, so results are broad and every page is full.
  bool variables_only = false;
  RequestKind kind = RequestKind::kPage;
  /// kPage: one distinct request per (query, offset).
  std::vector<uint64_t> offsets = {};
  /// kPage: rows per page; kStream: the request's row limit; kCount: a
  /// LIMIT appended to the query text (0 = none).
  uint64_t limit = 0;
  /// > 0: requests are Zipf(zipf)-drawn over the distinct requests;
  /// 0: the distinct requests are cycled in a seeded order, in whole
  /// passes.
  double zipf = 0;
  int clients = 1;
  /// Each phase runs in this many rounds (RunPhases in serve.h).
  int rounds = 1;
  /// RequestOptions::thread_budget (0 = service default, 1).
  int thread_budget = 0;
  /// About the seed's capacity (req/s). Fixes the length of the request
  /// lists, so a faster build does the same work in less time rather than
  /// more work. Frozen: changing it changes the workload.
  double nominal_qps = 0;
  /// Open-loop rate (req/s) of the paced phase, about half of the seed's
  /// capacity; 0 = no paced phase (closed loop only). Frozen likewise.
  double paced_qps = 0;
  /// Requests in the traced run (a prefix of the measured list).
  int trace_prefix = 0;
  /// The tripleset and the query pools come from a fixed generation seed
  /// and --seed only orders the request list (README.md, "Workloads").
  bool frozen_pool = false;
  /// Frozen pools only, ascending: generated queries left out of the
  /// pool, each slower than the pinned 5 s deadline on the seed commit
  /// (README.md, "Findings").
  std::vector<int> excluded_queries = {};
};

/// The workload table, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Run-size knobs derived from the command line.
struct RunShape {
  /// Dataset scale multiplier (1; 0.05 under --smoke).
  double scale_factor = 1.0;
  /// Seconds of measured work per run, at nominal rates.
  double seconds = 20;
  /// Distinct-pool multiplier (1; smaller under --smoke).
  double pool_factor = 1.0;
};

/// One distinct request: its query text, its pre-serialized wire body and
/// the RequestOptions it maps to.
struct DistinctRequest {
  std::string query;
  std::string body;
  uint64_t offset = 0;
  uint64_t limit = 0;
  bool count_only = false;
  int thread_budget = 0;
};

struct WorkloadInputs {
  std::vector<Triple> triples;
  std::vector<DistinctRequest> distinct;
  /// Measured list: indices into `distinct`, in request-id order.
  std::vector<uint32_t> list;
  /// Warm-up requests (drawn from a query pool disjoint from the measured
  /// one, so warm-up leaves no measured answer in the cache).
  std::vector<DistinctRequest> warm;
  /// FNV digest of the measured list (every body, in request-id order).
  uint64_t fingerprint = 0;
  /// Lengths of the capacity and paced phases' lists (the paced phase
  /// replays the first `paced_requests` of `list`).
  uint64_t capacity_requests = 0;
  uint64_t paced_requests = 0;
};

/// Generates the tripleset for (spec, seed).
std::vector<Triple> GenerateTriples(const WorkloadSpec& spec, uint64_t seed,
                                    const RunShape& shape);

/// Generates every input of one run. Fails (empty `distinct`) only when
/// the data cannot support the workload's query sizes.
WorkloadInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                              const RunShape& shape);

}  // namespace amber::bench

#endif  // AMBER_BENCH_WORKLOADS_H_
