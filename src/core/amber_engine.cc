#include "core/amber_engine.h"

#include <algorithm>

#include "core/factorized.h"
#include "core/matcher.h"
#include "core/parallel_exec.h"
#include "core/query_plan.h"
#include "rdf/ntriples.h"
#include "util/amf.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"

namespace amber {

namespace {
// The parallel mode covers every execution shape except fully ground
// queries (no components => nothing to partition): results are
// bit-identical to serial by the ordered replay of parallel_exec.h.
bool RunsParallel(const ExecOptions& options, const QueryPlan& plan) {
  return options.num_threads > 1 && !plan.components.empty();
}

// Hands `sink` the matcher's groups in the serial order: through one
// Matcher, or through the parallel stage's ordered replay, whose chunks
// behind the head buffer up to `buffer_rows` represented rows (0 =
// unbounded). Either way the sink alone applies DISTINCT and the cap.
Status MatchInto(const Multigraph& graph, const IndexSet& indexes,
                 const QueryGraph& qg, const QueryPlan& plan,
                 const ExecOptions& options, uint64_t cap,
                 uint64_t buffer_rows, EmbeddingSink* sink, ExecStats* stats) {
  if (RunsParallel(options, plan)) {
    return RunMatcherParallel(graph, indexes, qg, plan, options, cap, stats,
                              sink, buffer_rows)
        .status();
  }
  Matcher matcher(graph, indexes, qg, plan, options);
  return matcher.Run(sink, stats);
}

std::vector<std::string> VarNames(const QueryGraph& qg) {
  std::vector<std::string> names;
  names.reserve(qg.projection().size());
  for (uint32_t u : qg.projection()) names.push_back(qg.vertices()[u].name);
  return names;
}
}  // namespace

Result<AmberEngine> AmberEngine::Build(const std::vector<Triple>& triples,
                                       const BuildOptions& options) {
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(EncodedDataset dataset,
                         EncodedDataset::Encode(triples));
  double encode_s = sw.ElapsedSeconds();
  AmberEngine engine = FromEncoded(std::move(dataset), options);
  engine.timings_.encode_seconds = encode_s;
  return engine;
}

AmberEngine AmberEngine::FromEncoded(EncodedDataset dataset,
                                     const BuildOptions& options) {
  AmberEngine engine;
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(
        static_cast<size_t>(options.num_threads));
  }
  Stopwatch sw;
  engine.graph_ = Multigraph::FromDataset(dataset, pool.get());
  engine.timings_.graph_seconds = sw.ElapsedSeconds();
  sw.Reset();
  engine.indexes_ = IndexSet::Build(
      engine.graph_, dataset.attribute_values,
      dataset.dictionaries.attr_predicates().size(), pool.get());
  engine.timings_.index_seconds = sw.ElapsedSeconds();
  engine.dicts_ = std::move(dataset.dictionaries);
  return engine;
}

Result<AmberEngine> AmberEngine::BuildFromFile(const std::string& path) {
  AMBER_ASSIGN_OR_RETURN(std::vector<Triple> triples,
                         NTriplesParser::ParseFile(path));
  return Build(triples);
}

Result<CountResult> AmberEngine::Count(const SelectQuery& query,
                                       const ExecOptions& options) {
  CountResult result;
  if (query.distinct) {
    // DISTINCT counts read the answer graph's exact total.
    AMBER_ASSIGN_OR_RETURN(FactorizedRows fr, Factorize(query, options));
    result.count = fr.stats.rows;
    result.stats = fr.stats;
    return result;
  }
  // Transient-fault site, passed once by every public query call: chaos
  // tests inject kUnavailable / allocation pressure here; the serving
  // layer's retry policy treats the injected Status exactly like an
  // organic engine failure.
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);
  ExecStats& stats = result.stats;
  if (!qg.unsatisfiable()) {
    // Bag counts are cardinality arithmetic: the counting sinks take each
    // solution record's satellite product without expanding it.
    const QueryPlan plan =
        PlanForExecution(qg, options, indexes_, graph_.NumVertices());
    if (RunsParallel(options, plan)) {
      AMBER_ASSIGN_OR_RETURN(
          ParallelRunResult pr,
          RunMatcherParallel(graph_, indexes_, qg, plan, options, cap,
                             &stats));
      stats.rows = pr.rows;
      stats.truncated = stats.truncated || pr.truncated;
    } else {
      Matcher matcher(graph_, indexes_, qg, plan, options);
      CountingSink sink(cap);
      AMBER_RETURN_IF_ERROR(matcher.Run(&sink, &stats));
      stats.rows = sink.count();
    }
  }
  result.count = stats.rows;
  stats.elapsed_ms = sw.ElapsedMillis();
  return result;
}

Result<MaterializedRows> AmberEngine::Materialize(const SelectQuery& query,
                                                  const ExecOptions& options) {
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(FactorizedRows fr, Factorize(query, options));
  MaterializedRows result;
  result.var_names = std::move(fr.var_names);
  result.stats = fr.stats;
  // The cursor expands in the order Stream delivers and stats.rows is the
  // capped exact total, so the cursor's first stats.rows rows are the answer.
  FactorizedResult::Cursor cur = fr.result.Expand();
  while (result.rows.size() < result.stats.rows && cur.Next()) {
    result.rows.push_back(TranslateRow(cur.Row()));
  }
  result.stats.rows_expanded += cur.rows_expanded();
  result.stats.elapsed_ms = sw.ElapsedMillis();
  return result;
}

Result<FactorizedRows> AmberEngine::Factorize(const SelectQuery& query,
                                              const ExecOptions& options) {
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);
  const uint32_t num_slots = static_cast<uint32_t>(qg.projection().size());

  FactorizedRows out;
  out.var_names = VarNames(qg);
  ExecStats& stats = out.stats;
  if (qg.unsatisfiable()) {
    out.result = FactorizedBuilder(num_slots,
                                   std::vector<uint32_t>(num_slots,
                                                         kNoGroupList),
                                   qg.distinct(), cap)
                     .Finish();
  } else {
    const QueryPlan plan =
        PlanForExecution(qg, options, indexes_, graph_.NumVertices());
    FactorizedBuilder builder(num_slots,
                              BuildSlotList(qg.projection(), plan.is_core),
                              qg.distinct(), cap);
    FactorizedSink sink(&builder);
    // The answer graph is retained whole anyway: a parallel chunk may buffer
    // up to the cap, and a tighter bound would only hold the workers behind
    // the head.
    AMBER_RETURN_IF_ERROR(MatchInto(graph_, indexes_, qg, plan, options, cap,
                                    cap, &sink, &stats));
    stats.rows_expanded += builder.rows_expanded();
    out.result = builder.Finish();
  }
  stats.rows = cap == 0 ? out.result.total_rows
                        : std::min(out.result.total_rows, cap);
  stats.truncated = stats.truncated || out.result.truncated;
  stats.bytes_factorized += out.result.ByteSize();
  stats.elapsed_ms = sw.ElapsedMillis();
  return out;
}

Result<StreamResult> AmberEngine::Stream(const SelectQuery& query,
                                         const ExecOptions& options,
                                         RowSink* sink) {
  AMBER_RETURN_IF_ERROR(
      FaultInjector::Global().Inject(faults::kEngineExecute));
  Stopwatch sw;
  AMBER_ASSIGN_OR_RETURN(QueryGraph qg, QueryGraph::Build(query, dicts_));
  const uint64_t cap = EffectiveRowCap(query, options);

  StreamResult out;
  out.var_names = VarNames(qg);

  // Translation + forwarding. Never invoked concurrently (the serial
  // matcher is single-threaded; the parallel replay serializes its
  // emitter), so one reusable text buffer suffices.
  uint64_t delivered = 0;
  std::vector<std::string> row_text;
  auto deliver = [&](std::span<const VertexId> row) -> bool {
    row_text.clear();
    for (VertexId v : row) row_text.emplace_back(dicts_.VertexToken(v));
    if (!sink->OnRow(row_text)) {
      out.sink_stopped = true;
      return false;
    }
    ++delivered;
    return true;
  };

  if (!qg.unsatisfiable()) {
    // The row sink expands each group as it arrives: rows leave one at a
    // time, so memory stays bounded by the chunk buffers whatever the
    // result's size.
    const QueryPlan plan =
        PlanForExecution(qg, options, indexes_, graph_.NumVertices());
    StreamingSink ssink(qg.distinct(), cap, deliver);
    AMBER_RETURN_IF_ERROR(MatchInto(
        graph_, indexes_, qg, plan, options, cap,
        std::max<uint64_t>(1, options.stream_chunk_buffer_rows), &ssink,
        &out.stats));
  }

  out.rows = delivered;
  out.stats.rows = delivered;
  // Uniform truncation semantics for streams: set exactly when the cap
  // stopped delivery (a sink stop or an interrupt is NOT a truncation).
  out.stats.truncated = cap != 0 && delivered >= cap;
  out.stats.elapsed_ms = sw.ElapsedMillis();
  return out;
}

std::vector<std::string> AmberEngine::TranslateRow(
    std::span<const VertexId> row) const {
  std::vector<std::string> out;
  out.reserve(row.size());
  for (VertexId v : row) {
    out.emplace_back(dicts_.VertexToken(v));
  }
  return out;
}

Status AmberEngine::SaveFile(const std::string& path) const {
  amf::Writer writer;
  dicts_.SaveAmf(&writer);
  graph_.SaveAmf(&writer);
  indexes_.SaveAmf(&writer);
  return writer.WriteTo(path);
}

Result<AmberEngine> AmberEngine::OpenFile(const std::string& path) {
  AMBER_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  auto mapping = std::make_shared<MappedFile>(std::move(file));
  AMBER_ASSIGN_OR_RETURN(amf::Reader reader,
                         amf::Reader::Open(mapping->data()));
  AmberEngine engine;
  AMBER_RETURN_IF_ERROR(engine.dicts_.LoadAmf(reader));
  AMBER_RETURN_IF_ERROR(engine.graph_.LoadAmf(reader));
  AMBER_RETURN_IF_ERROR(
      engine.indexes_.LoadAmf(reader, engine.graph_.NumVertices()));
  // Cross-component consistency: the indexes and dictionaries must cover
  // the graph's id spaces, or the first query indexes past their ends.
  if (engine.indexes_.neighborhood.NumVertices() !=
          engine.graph_.NumVertices() ||
      engine.indexes_.signature.NumVertices() !=
          engine.graph_.NumVertices()) {
    return Status::Corruption("index/graph vertex count mismatch");
  }
  if (engine.dicts_.vertices().size() < engine.graph_.NumVertices() ||
      engine.dicts_.edge_types().size() < engine.graph_.NumEdgeTypes() ||
      engine.dicts_.attributes().size() < engine.graph_.NumAttributes()) {
    return Status::Corruption("dictionary/graph id space mismatch");
  }
  if (engine.indexes_.value.NumAttributes() <
          engine.graph_.NumAttributes() ||
      engine.indexes_.value.NumPredicates() !=
          engine.dicts_.attr_predicates().size()) {
    return Status::Corruption("value index/dictionary id space mismatch");
  }
  engine.mapping_ = std::move(mapping);
  return engine;
}

}  // namespace amber
