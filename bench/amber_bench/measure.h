// Measurement helpers of amber_bench: nearest-rank percentiles, answer
// digests that a client can compute from a response body without a JSON
// DOM, and process memory readings.

#ifndef AMBER_BENCH_MEASURE_H_
#define AMBER_BENCH_MEASURE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace amber::bench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; sorts a copy.
/// 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (nearest rank); 0 for an empty sample.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// FNV-1a 64 over bytes, continuing from `h`.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
uint64_t Fnv(uint64_t h, std::string_view bytes);

/// Lowercase 16-digit hex form of a 64-bit digest.
std::string Hex64(uint64_t v);

/// \brief The answer carried by one response body.
///
/// The digest folds counts as "count:<n>" and rows as their JSON-quoted
/// cells, each row closed by '\n' — exactly the bytes the wire layer
/// writes, so an in-process reference (DigestRows) folds to the same value.
struct BodyAnswer {
  uint64_t digest = kFnvOffset;
  /// Result rows in the body (1 for a count answer).
  uint64_t rows = 0;
  /// NDJSON page lines (streams) or 1 (a /query body).
  uint64_t pages = 0;
  /// The body is a whole, successful answer: not timed out, not cancelled,
  /// and (streams) closed by a summary line that says complete.
  bool complete = false;
};

/// Scans a POST /query response body.
BodyAnswer ScanQueryBody(std::string_view body);

/// Scans a POST /query/stream NDJSON body (page lines, then the summary).
BodyAnswer ScanStreamBody(std::string_view body);

/// Reference side of the digest: folds rows of N-Triples tokens.
uint64_t DigestRows(std::span<const std::vector<std::string>> rows);
/// Reference side of the digest: folds a count answer.
uint64_t DigestCount(uint64_t count);

/// VmRSS of this process in KiB (0 when /proc is unavailable).
long ReadRssKb();

/// Returns freed heap pages to the OS, so an RSS reading taken next is
/// not inflated by memory the allocator kept from earlier work.
void TrimHeap();

}  // namespace amber::bench

#endif  // AMBER_BENCH_MEASURE_H_
