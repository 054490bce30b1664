// Factorized-result ablation (ROADMAP: factorized answer graphs): one
// AMbER engine, star workloads whose result cardinality is multiplied by
// the generator's satellite_fanout knob, four operations compared at each
// fanout level:
//
//   count-fact       Count() — product-of-list-sizes arithmetic, the
//                    odometer never runs;
//   enumerate-flat   Stream() into a discarding sink — the row sinks expand
//                    every group the matcher emits, the full cross-product
//                    row by row;
//   expand-fact      Factorize() + cursor expansion of every row — same
//                    output as enumerate-flat, through the factorized
//                    handle (what Materialize() does);
//   page-fact        Factorize() + Skip(total - 10) + a 10-row page — the
//                    deep-offset pagination path (prefix groups are
//                    skipped arithmetically, only the page expands).
//
// The "size" axis is the fanout level (extra `anchor <p> ?SFi` patterns
// per query), not the query size: rows grow as fanout^k while groups stay
// constant, so count-fact and page-fact should flatten where the flat
// enumeration curve climbs. The driver prints the COUNT speedup at the
// largest fanout; the expected shape is >= 5x once the cross-product
// dominates (the acceptance observation for this ablation).
//
// Env knobs (bench_common.h): AMBER_BENCH_SCALE / _QUERIES / _TIMEOUT_MS /
// _JSON_DIR; AMBER_BENCH_SIZES here means the fanout sweep (default 1,2,4).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "core/factorized.h"
#include "gen/workload.h"
#include "sparql/parser.h"

namespace {

/// Accepts and drops every streamed row.
class DiscardingRowSink : public amber::RowSink {
 public:
  bool OnRow(std::span<const std::string>) override { return true; }
};

}  // namespace

int main() {
  using namespace amber;
  using namespace amber::bench;
  using Clock = std::chrono::steady_clock;

  BenchConfig config = BenchConfig::FromEnv();
  // The sizes axis is reused as the fanout sweep.
  if (std::getenv("AMBER_BENCH_SIZES") == nullptr) config.sizes = {1, 2, 4};

  DatasetBundle dataset = MakeDataset("DBPEDIA", config.scale);
  std::fprintf(stderr, "[Ablation factorized] dataset: %zu triples\n",
               dataset.triples.size());
  auto built = AmberEngine::Build(dataset.triples);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  AmberEngine engine = std::move(built).value();
  WorkloadGenerator generator(dataset.triples);

  const std::vector<std::string> names = {"count-fact", "enumerate-flat",
                                          "expand-fact", "page-fact"};
  enum Op { kCountFact = 0, kEnumerateFlat, kExpandFact, kPageFact };
  std::vector<std::vector<SeriesPoint>> series(
      names.size(), std::vector<SeriesPoint>(config.sizes.size()));

  for (size_t fi = 0; fi < config.sizes.size(); ++fi) {
    const int fanout = config.sizes[fi];
    WorkloadOptions wopts;
    wopts.query_size = 3;  // small star: the fanout patterns dominate
    wopts.count = config.queries_per_point;
    wopts.satellite_fanout = fanout;
    std::vector<std::string> queries =
        generator.Generate(QueryShape::kStar, wopts);
    std::fprintf(stderr, "  fanout %d: %zu queries\n", fanout,
                 queries.size());

    for (size_t op = 0; op < names.size(); ++op) {
      SeriesPoint& point = series[op][fi];
      point.size = fanout;
      double total_ms = 0;
      for (const std::string& text : queries) {
        ++point.total;
        auto parsed = SparqlParser::Parse(text);
        if (!parsed.ok()) continue;
        ExecOptions opts;
        opts.timeout = std::chrono::milliseconds(config.timeout_ms);
        bool answered = false;
        const auto start = Clock::now();
        switch (op) {
          case kCountFact: {
            auto r = engine.Count(*parsed, opts);
            answered = r.ok() && !r->stats.timed_out;
            break;
          }
          case kEnumerateFlat: {
            DiscardingRowSink discard;
            auto r = engine.Stream(*parsed, opts, &discard);
            answered = r.ok() && !r->stats.timed_out;
            break;
          }
          case kExpandFact: {
            auto r = engine.Factorize(*parsed, opts);
            answered = r.ok() && !r->stats.timed_out;
            if (answered) {
              FactorizedResult::Cursor cur = r->result.Expand();
              size_t sink = 0;
              while (cur.Next()) sink += engine.TranslateRow(cur.Row()).size();
              if (sink == SIZE_MAX) std::fprintf(stderr, "?");  // keep alive
            }
            break;
          }
          case kPageFact: {
            auto r = engine.Factorize(*parsed, opts);
            answered = r.ok() && !r->stats.timed_out;
            if (answered) {
              const uint64_t total = r->result.total_rows;
              const uint64_t page = 10;
              FactorizedResult::Cursor cur = r->result.Expand();
              cur.Skip(total > page ? total - page : 0);
              size_t sink = 0;
              for (uint64_t i = 0; i < page && cur.Next(); ++i) {
                sink += engine.TranslateRow(cur.Row()).size();
              }
              if (sink == SIZE_MAX) std::fprintf(stderr, "?");
            }
            break;
          }
        }
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (answered) {
          ++point.answered;
          total_ms += ms;
        }
      }
      point.avg_ms = point.answered > 0 ? total_ms / point.answered : 0;
      point.unanswered_pct =
          point.total > 0
              ? 100.0 * (point.total - point.answered) / point.total
              : 0;
    }
  }

  std::printf("\nAblation: factorized answer graphs (star queries + fanout "
              "satellites, DBPEDIA-like data)\n");
  std::printf("%-8s", "fanout");
  for (const std::string& n : names) std::printf("%16s", n.c_str());
  std::printf("\n");
  for (size_t fi = 0; fi < config.sizes.size(); ++fi) {
    std::printf("%-8d", config.sizes[fi]);
    for (size_t op = 0; op < names.size(); ++op) {
      if (series[op][fi].answered > 0) {
        std::printf("%14.3fms", series[op][fi].avg_ms);
      } else {
        std::printf("%16s", "-");
      }
    }
    std::printf("\n");
  }

  const SeriesPoint& count_last = series[kCountFact].back();
  const SeriesPoint& flat_last = series[kEnumerateFlat].back();
  if (count_last.answered > 0 && flat_last.answered > 0 &&
      count_last.avg_ms > 0) {
    std::printf("\nCOUNT speedup at fanout %d: %.1fx (flat enumeration "
                "%.3fms vs factorized count %.3fms; expected >= 5x once "
                "the cross-product dominates)\n",
                count_last.size, flat_last.avg_ms / count_last.avg_ms,
                flat_last.avg_ms, count_last.avg_ms);
  }
  std::printf("\nExpected shape: count-fact and page-fact stay flat as "
              "fanout grows (groups are constant); enumerate-flat and "
              "expand-fact climb with the expanded row count.\n");

  WriteSeriesJson("Ablation factorized", names, series, config);
  return 0;
}
