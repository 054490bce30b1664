// amber_cli: a minimal command-line front end for the engine, exercising
// the offline artifact path end to end. Artifacts are AMF files
// (AmberEngine::SaveFile / OpenFile); a corrupt one fails with a Status.
//
//   amber_cli build  <data.nt> <artifact.amber>   # offline stage + save
//   amber_cli stats  <artifact.amber>             # dataset/index statistics
//   amber_cli query  <artifact.amber> <query.rq> [--limit N] [--count]
//
// With no arguments, runs a self-contained demo on the paper's example.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/amber_engine.h"
#include "gen/paper_example.h"
#include "rdf/ntriples.h"
#include "util/string_util.h"

namespace {

using namespace amber;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdBuild(const char* data_path, const char* artifact_path) {
  auto engine = AmberEngine::BuildFromFile(data_path);
  if (!engine.ok()) return Fail(engine.status());
  if (Status s = engine->SaveFile(artifact_path); !s.ok()) return Fail(s);
  std::printf("built %s: %zu vertices, %llu edges; offline stage "
              "%.2fs db + %.2fs index\n",
              artifact_path, engine->graph().NumVertices(),
              static_cast<unsigned long long>(engine->graph().NumEdges()),
              engine->timings().database_seconds(),
              engine->timings().index_seconds);
  return 0;
}

int CmdStats(const char* artifact_path) {
  auto engine = AmberEngine::OpenFile(artifact_path);
  if (!engine.ok()) return Fail(engine.status());
  const Multigraph& g = engine->graph();
  std::printf("vertices:    %zu\n", g.NumVertices());
  std::printf("edges:       %llu\n",
              static_cast<unsigned long long>(g.NumEdges()));
  std::printf("edge types:  %zu\n", g.NumEdgeTypes());
  std::printf("attributes:  %zu (%llu assignments)\n", g.NumAttributes(),
              static_cast<unsigned long long>(g.NumAttributeAssignments()));
  std::printf("graph size:  %s\n", FormatBytes(g.ByteSize()).c_str());
  std::printf("index size:  %s\n",
              FormatBytes(engine->indexes().ByteSize()).c_str());
  return 0;
}

int CmdQuery(const char* artifact_path, const char* query_path,
             uint64_t limit, bool count_only) {
  auto engine = AmberEngine::OpenFile(artifact_path);
  if (!engine.ok()) return Fail(engine.status());
  std::ifstream in(query_path);
  if (!in) return Fail(Status::IOError("cannot open query file"));
  std::stringstream buffer;
  buffer << in.rdbuf();

  ExecOptions options;
  options.max_rows = limit;
  if (count_only) {
    auto result = engine->CountSparql(buffer.str(), options);
    if (!result.ok()) return Fail(result.status());
    std::printf("%llu rows (%.3f ms)\n",
                static_cast<unsigned long long>(result->count),
                result->stats.elapsed_ms);
    return 0;
  }
  auto rows = engine->MaterializeSparql(buffer.str(), options);
  if (!rows.ok()) return Fail(rows.status());
  for (const auto& name : rows->var_names) std::printf("?%s\t", name.c_str());
  std::printf("\n");
  for (const auto& row : rows->rows) {
    for (const auto& v : row) std::printf("%s\t", v.c_str());
    std::printf("\n");
  }
  std::fprintf(stderr, "%zu rows in %.3f ms\n", rows->rows.size(),
               rows->stats.elapsed_ms);
  return 0;
}

int Demo() {
  std::printf("amber_cli demo (no arguments given)\n\n");
  auto triples = NTriplesParser::ParseString(kPaperExampleNTriples);
  if (!triples.ok()) return Fail(triples.status());
  auto engine = AmberEngine::Build(*triples);
  if (!engine.ok()) return Fail(engine.status());
  auto rows = engine->MaterializeSparql(kPaperExampleQuery, {});
  if (!rows.ok()) return Fail(rows.status());
  std::printf("paper example query: %zu embeddings\n", rows->rows.size());
  std::printf("\nusage:\n"
              "  amber_cli build <data.nt> <artifact.amber>\n"
              "  amber_cli stats <artifact.amber>\n"
              "  amber_cli query <artifact.amber> <query.rq> "
              "[--limit N] [--count]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Demo();
  if (std::strcmp(argv[1], "build") == 0 && argc == 4) {
    return CmdBuild(argv[2], argv[3]);
  }
  if (std::strcmp(argv[1], "stats") == 0 && argc == 3) {
    return CmdStats(argv[2]);
  }
  if (std::strcmp(argv[1], "query") == 0 && argc >= 4) {
    uint64_t limit = 0;
    bool count_only = false;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
        limit = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--count") == 0) {
        count_only = true;
      }
    }
    return CmdQuery(argv[2], argv[3], limit, count_only);
  }
  return Demo();
}
