// In-memory span store of the traced amber_bench run. Spans are recorded
// around calls into each layer from the benchmark's own code (the program
// under test carries no tracing), kept in memory, and written out at exit
// as Chrome trace-event JSON, which Perfetto and chrome://tracing load.
//
// Self time of a span = its duration minus the part of its interval that
// its children cover (the union of the child intervals, clipped to the
// parent). For a parent whose children do not account for all of its time,
// that self time is the unattributed remainder; it is reported as such and
// never folded into a child.

#ifndef AMBER_BENCH_TRACE_H_
#define AMBER_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace amber::bench {

struct Span {
  /// A string literal (span names are fixed layer names).
  const char* name = "";
  uint32_t parent = kNoParent;
  /// Identifier shared by every span of one request.
  uint64_t request = 0;
  /// Nanoseconds since the store was created.
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  static constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-name aggregate over a store: sample count and nearest-rank
/// medians of duration and self time, in microseconds.
struct SpanSummary {
  uint64_t count = 0;
  double p50_us = 0;
  double self_p50_us = 0;
  double total_ms = 0;
  double self_total_ms = 0;
};

class SpanStore {
 public:
  SpanStore() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span now; close it with End(). Returns its id.
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);
  /// Records a finished span with explicit times (tests, imported spans).
  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(uint32_t id) const { return spans_[id]; }

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> SelfTimesNs() const;

  /// Per-name summaries, keyed by span name.
  std::map<std::string, SpanSummary> Summaries() const;

  /// Writes Chrome trace-event JSON ("X" events on one thread) for the
  /// spans of the first `max_requests` requests. False on I/O failure.
  bool WriteChromeTrace(const std::string& path, uint64_t max_requests) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// `amber_bench --selftest`: checks the self-time math on a hand-built
/// span tree, the Chrome trace output, percentiles and the body scanners.
/// Returns the number of failed checks.
int RunSelfTest();

}  // namespace amber::bench

#endif  // AMBER_BENCH_TRACE_H_
