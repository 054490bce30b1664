// AMbER engine facade (Section 3): offline stage (encode triples, build the
// multigraph and the index ensemble I = {A, S, N}) plus the online stage
// (SPARQL -> query multigraph -> decomposition -> sub-multigraph
// homomorphism via Matcher).

#ifndef AMBER_CORE_AMBER_ENGINE_H_
#define AMBER_CORE_AMBER_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "rdf/encoded_dataset.h"
#include "rdf/term.h"
#include "sparql/query_graph.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace amber {

/// \brief The AMbER RDF query engine.
class AmberEngine : public QueryEngine {
 public:
  /// Offline-stage wall-clock breakdown (Table 5).
  struct BuildTimings {
    double encode_seconds = 0;  // tripleset -> dictionaries + encoded edges
    double graph_seconds = 0;   // multigraph construction
    double index_seconds = 0;   // I = {A, S, N}
    double database_seconds() const { return encode_seconds + graph_seconds; }
  };

  /// Offline-stage knobs.
  struct BuildOptions {
    /// Worker threads for the offline stage (multigraph CSRs, per-vertex
    /// synopsis/trie construction). Every parallel path is bit-identical
    /// to the serial build, so the persisted artifact does not depend on
    /// this value. <= 1 builds serially.
    int num_threads = 1;
  };

  /// Runs the full offline stage on a tripleset.
  static Result<AmberEngine> Build(const std::vector<Triple>& triples,
                                   const BuildOptions& options);
  static Result<AmberEngine> Build(const std::vector<Triple>& triples) {
    return Build(triples, BuildOptions());
  }

  /// Offline stage starting from an already encoded dataset.
  static AmberEngine FromEncoded(EncodedDataset dataset,
                                 const BuildOptions& options);
  static AmberEngine FromEncoded(EncodedDataset dataset) {
    return FromEncoded(std::move(dataset), BuildOptions());
  }

  /// Loads data from an N-Triples file and builds the engine.
  static Result<AmberEngine> BuildFromFile(const std::string& path);

  std::string name() const override { return "AMbER"; }

  Result<CountResult> Count(const SelectQuery& query,
                            const ExecOptions& options) override;
  Result<MaterializedRows> Materialize(const SelectQuery& query,
                                       const ExecOptions& options) override;

  /// True incremental streaming: one StreamingSink expands groups into
  /// rows as the matcher finds them (serial path) or as the parallel
  /// stage's ordered replay hands them on (parallel_exec.h), and rows leave
  /// through `sink` in exact Materialize order, with peak memory bounded by
  /// the chunk buffers instead of the result.
  Result<StreamResult> Stream(const SelectQuery& query,
                              const ExecOptions& options,
                              RowSink* sink) override;

  /// Executes and retains the result as a factorized answer graph (see
  /// docs/ARCHITECTURE.md, "Factorized answer graphs"): groups come
  /// straight from the matcher and the cross-product is never expanded.
  /// This is the one way the engine retains a result — Materialize is
  /// this plus a translating cursor, and DISTINCT counts read its exact
  /// total.
  Result<FactorizedRows> Factorize(const SelectQuery& query,
                                   const ExecOptions& options) override;

  /// Translates a row of data-vertex ids back to RDF terms via Mv^-1.
  std::vector<std::string> TranslateRow(
      std::span<const VertexId> row) const override;

  const Multigraph& graph() const { return graph_; }
  const IndexSet& indexes() const { return indexes_; }
  const RdfDictionaries& dictionaries() const { return dicts_; }
  const BuildTimings& timings() const { return timings_; }

  /// Writes the offline artifacts as one AMF file (the mmap-able format;
  /// see docs/ARCHITECTURE.md, "Artifact format"). Byte-identical output
  /// for identical engines, regardless of BuildOptions::num_threads.
  Status SaveFile(const std::string& path) const;

  /// Re-opens an AMF artifact via mmap. All CSR arrays, index pools and
  /// dictionary string bytes are borrowed straight from the mapping —
  /// zero per-element copies; only the dictionary hash indexes are
  /// rebuilt. The engine keeps the mapping alive for its lifetime.
  static Result<AmberEngine> OpenFile(const std::string& path);

  /// The raw bytes of the mapped artifact backing this engine, or an empty
  /// span when the engine owns its data (built in process). Lets tests
  /// prove the zero-copy property.
  std::span<const std::byte> MappedRegion() const {
    return mapping_ != nullptr ? mapping_->data()
                               : std::span<const std::byte>{};
  }

 private:
  AmberEngine() = default;

  RdfDictionaries dicts_;
  Multigraph graph_;
  IndexSet indexes_;
  BuildTimings timings_;
  // Non-null iff this engine was restored via OpenFile(); owns the mapping
  // every borrowed span points into.
  std::shared_ptr<MappedFile> mapping_;
};

}  // namespace amber

#endif  // AMBER_CORE_AMBER_ENGINE_H_
