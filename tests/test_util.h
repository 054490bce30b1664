// Shared helpers for the AMbER test suite: paper-example fixtures, random
// dataset/query generators for property tests, a term-level brute-force
// reference evaluator used as the oracle for cross-engine agreement, and a
// per-component AMF round trip.

#ifndef AMBER_TESTS_TEST_UTIL_H_
#define AMBER_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "rdf/literal_value.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"
#include "sparql/ast.h"
#include "sparql/filters.h"
#include "util/amf.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace amber {
namespace testutil {

/// One component's AMF sections, written to a file of their own and
/// mapped back, so a SaveAmf/LoadAmf pair can be tested without an engine.
/// Whatever is loaded from `reader` borrows from `file`: keep this alive
/// while it is used.
struct MappedSections {
  MappedFile file;
  amf::Reader reader;
};

/// Writes the sections `save` adds to a per-process temp file named after
/// `name` and maps it back.
inline MappedSections WriteAndMapSections(
    const std::string& name, const std::function<void(amf::Writer*)>& save) {
  amf::Writer writer;
  save(&writer);
  const std::string path = testing::TempDir() + "/" + name + "_" +
                           std::to_string(::getpid()) + ".amf";
  MappedSections out;
  Status written = writer.WriteTo(path);
  if (!written.ok()) {
    ADD_FAILURE() << "writing " << path << ": " << written;
    return out;
  }
  auto file = MappedFile::Open(path);
  std::remove(path.c_str());  // the mapping outlives the directory entry
  if (!file.ok()) {
    ADD_FAILURE() << "mapping " << path << ": " << file.status();
    return out;
  }
  out.file = std::move(file).value();
  auto reader = amf::Reader::Open(out.file.data());
  if (!reader.ok()) {
    ADD_FAILURE() << "opening " << path << ": " << reader.status();
    return out;
  }
  out.reader = std::move(reader).value();
  return out;
}

/// Parses N-Triples text, aborting the test on failure.
inline std::vector<Triple> MustParse(std::string_view ntriples) {
  auto result = NTriplesParser::ParseString(ntriples);
  if (!result.ok()) {
    ADD_FAILURE() << "fixture parse failed: " << result.status();
    return {};
  }
  return std::move(result).value();
}

/// Canonical form of a result table: each row joined with '\x1f', rows
/// sorted. Two engines agree iff their canonical forms are equal (bag
/// semantics).
inline std::vector<std::string> CanonicalRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string joined;
    for (const auto& cell : row) {
      joined += cell;
      joined += '\x1f';
    }
    out.push_back(std::move(joined));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted, deduplicated vertex-id list (expected form of index scans).
inline std::vector<uint32_t> CanonicalIds(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// The rows `engine` streams for `query`, in delivery order. AMbER streams
/// by expanding each group as the matcher emits it, with row-level
/// DISTINCT, never through the answer graph, so these are the independent
/// exact-order reference for Materialize. `result`, when non-null, receives the stream's tail.
inline std::vector<std::vector<std::string>> StreamedRows(
    QueryEngine& engine, const SelectQuery& query,
    const ExecOptions& options = {}, StreamResult* result = nullptr) {
  struct Collect : RowSink {
    std::vector<std::vector<std::string>> rows;
    bool OnRow(std::span<const std::string> row) override {
      rows.emplace_back(row.begin(), row.end());
      return true;
    }
  } sink;
  auto streamed = engine.Stream(query, options, &sink);
  EXPECT_TRUE(streamed.ok()) << streamed.status();
  if (result != nullptr && streamed.ok()) *result = std::move(*streamed);
  return std::move(sink.rows);
}

/// \brief Term-level brute-force evaluator of the paper's query model.
///
/// Variables bind resources only; literal objects are constants. Used as
/// the oracle: O(|data|^|patterns|), fine for the small random fixtures.
class BruteForceReference {
 public:
  explicit BruteForceReference(const std::vector<Triple>& data)
      : data_(data) {
    // RDF graphs are *sets* of statements; duplicate input triples must not
    // inflate result multiplicities (the engines dedup during build too).
    std::sort(data_.begin(), data_.end());
    data_.erase(std::unique(data_.begin(), data_.end()), data_.end());
  }

  /// Returns rows of N-Triples tokens for the projected variables
  /// (bag semantics; deduplicated under DISTINCT). FILTERed literal
  /// variables follow the shared existential semantics (sparql/filters.h):
  /// they bind satisfying literals while matching, are excluded from
  /// SELECT *, and assignments differing only in them collapse to one row.
  std::vector<std::vector<std::string>> Evaluate(const SelectQuery& query) {
    bindings_.clear();
    rows_.clear();
    witness_seen_.clear();
    filter_cmps_.clear();
    query_ = &query;
    auto analysis = AnalyzeFilters(query);
    EXPECT_TRUE(analysis.ok()) << analysis.status();
    if (!analysis.ok()) return {};
    for (const VarFilter& vf : analysis->var_filters) {
      filter_cmps_[vf.var] = &vf.comparisons;
    }
    CollectVariables();
    Recurse(0);
    if (query.distinct) {
      std::sort(rows_.begin(), rows_.end());
      rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
    }
    return rows_;
  }

 private:
  void CollectVariables() {
    vars_.clear();
    auto add = [this](const PatternTerm& t) {
      if (t.is_variable() && !filter_cmps_.count(t.value) &&
          std::find(vars_.begin(), vars_.end(), t.value) == vars_.end()) {
        vars_.push_back(t.value);
      }
    };
    for (const TriplePattern& p : query_->patterns) {
      add(p.subject);
      add(p.predicate);
      add(p.object);
    }
  }

  bool Unify(const PatternTerm& slot, const Term& term,
             std::vector<std::pair<std::string, std::string>>* trail) {
    if (!slot.is_variable()) {
      return slot.ToTerm() == term;
    }
    auto fit = filter_cmps_.find(slot.value);
    if (fit != filter_cmps_.end()) {
      // FILTERed literal variable: binds literals passing its conjunction.
      if (!term.is_literal()) return false;
      if (!SatisfiesAll(LiteralValueOf(term), *fit->second)) return false;
    } else if (term.is_literal()) {
      return false;  // paper model: resource variables never bind literals
    }
    std::string token = term.ToNTriples();
    auto it = bindings_.find(slot.value);
    if (it != bindings_.end()) return it->second == token;
    bindings_[slot.value] = token;
    trail->emplace_back(slot.value, token);
    return true;
  }

  void Recurse(size_t depth) {
    if (depth == query_->patterns.size()) {
      if (!filter_cmps_.empty()) {
        // Existential collapse: assignments that differ only in FILTERed
        // variables produce one row (vars_ excludes them).
        std::string key;
        for (const std::string& v : vars_) {
          key += bindings_.at(v);
          key += '\x1f';
        }
        if (!witness_seen_.insert(std::move(key)).second) return;
      }
      std::vector<std::string> row;
      if (query_->select_all) {
        for (const std::string& v : vars_) row.push_back(bindings_.at(v));
      } else {
        for (const std::string& v : query_->projection) {
          row.push_back(bindings_.at(v));
        }
      }
      rows_.push_back(std::move(row));
      return;
    }
    const TriplePattern& p = query_->patterns[depth];
    for (const Triple& t : data_) {
      std::vector<std::pair<std::string, std::string>> trail;
      bool ok = Unify(p.subject, t.subject, &trail) &&
                Unify(p.predicate, t.predicate, &trail) &&
                Unify(p.object, t.object, &trail);
      if (ok) Recurse(depth + 1);
      for (auto& [var, token] : trail) {
        (void)token;
        bindings_.erase(var);
      }
    }
  }

  std::vector<Triple> data_;
  const SelectQuery* query_ = nullptr;
  std::vector<std::string> vars_;  // non-FILTERed variables only
  std::map<std::string, std::string> bindings_;
  std::map<std::string, const std::vector<ValueComparison>*> filter_cmps_;
  std::set<std::string> witness_seen_;
  std::vector<std::vector<std::string>> rows_;
};

/// Random small multigraph dataset for property tests: `num_entities`
/// resources, `num_edges` edges over `num_predicates` predicates, plus
/// literal attributes. `num_numeric_attrs` additionally draws integer-typed
/// literals (values in [0, 50)) under `urn:num0` / `urn:num1` — the
/// substrate of FILTER range tests — from an independent rng stream, so
/// passing 0 reproduces the historical datasets exactly.
inline std::vector<Triple> RandomDataset(uint64_t seed, int num_entities,
                                         int num_edges, int num_predicates,
                                         int num_literal_values = 4,
                                         int num_numeric_attrs = 0) {
  Rng rng(seed);
  std::vector<Triple> data;
  auto ent = [](uint64_t i) {
    return Term::Iri("urn:e" + std::to_string(i));
  };
  auto pred = [](uint64_t i) {
    return Term::Iri("urn:p" + std::to_string(i));
  };
  for (int i = 0; i < num_edges; ++i) {
    data.emplace_back(ent(rng.Uniform(num_entities)),
                      pred(rng.Uniform(num_predicates)),
                      ent(rng.Uniform(num_entities)));
  }
  const int num_attrs = num_edges / 3 + 1;
  for (int i = 0; i < num_attrs; ++i) {
    // Built in two steps: GCC 12 misfires -Wrestrict on the inlined
    // `const char* + std::string&&` at -O2.
    std::string value = "v";
    value += std::to_string(rng.Uniform(num_literal_values));
    data.emplace_back(ent(rng.Uniform(num_entities)),
                      pred(rng.Uniform(num_predicates)),
                      Term::Literal(value));
  }
  Rng nrng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (int i = 0; i < num_numeric_attrs; ++i) {
    // Two-step strings: GCC 12 misfires -Wrestrict on the inlined
    // `const char* + std::string&&` at -O2 (see above).
    std::string pred_iri = "urn:num";
    pred_iri += std::to_string(nrng.Uniform(2));
    data.emplace_back(
        ent(nrng.Uniform(num_entities)), Term::Iri(std::move(pred_iri)),
        Term::Literal(std::to_string(nrng.Uniform(50)),
                      "http://www.w3.org/2001/XMLSchema#integer"));
  }
  return data;
}

/// Random connected conjunctive query drawn from the dataset (so it usually
/// has answers); mirrors the complex-shaped workload at miniature scale.
inline std::string RandomQueryFromData(const std::vector<Triple>& data,
                                       uint64_t seed, int num_patterns,
                                       double constant_prob = 0.2) {
  Rng rng(seed);
  if (data.empty()) return "SELECT ?X0 WHERE { ?X0 <urn:p0> ?X1 . }";

  std::vector<const Triple*> chosen;
  std::vector<std::string> frontier;  // entity tokens in the query so far
  const Triple& first = data[rng.Uniform(data.size())];
  chosen.push_back(&first);
  frontier.push_back(first.subject.ToNTriples());
  if (first.object.is_resource()) {
    frontier.push_back(first.object.ToNTriples());
  }
  int guard = 0;
  while (static_cast<int>(chosen.size()) < num_patterns && guard++ < 500) {
    const Triple& t = data[rng.Uniform(data.size())];
    std::string s = t.subject.ToNTriples();
    std::string o = t.object.ToNTriples();
    bool touches = false;
    for (const std::string& f : frontier) {
      if (f == s || (t.object.is_resource() && f == o)) touches = true;
    }
    if (!touches) continue;
    chosen.push_back(&t);
    frontier.push_back(s);
    if (t.object.is_resource()) frontier.push_back(o);
  }

  std::map<std::string, std::string> var_of;
  std::vector<std::string> var_order;
  auto slot = [&](const Term& term) -> std::string {
    std::string token = term.ToNTriples();
    auto it = var_of.find(token);
    if (it != var_of.end()) return it->second;
    if (rng.NextDouble() < constant_prob) return token;
    std::string v = "?X" + std::to_string(var_order.size());
    var_order.push_back(v);
    var_of[token] = v;
    return v;
  };
  std::string body;
  for (const Triple* t : chosen) {
    std::string s = slot(t->subject);
    std::string o =
        t->object.is_literal() ? t->object.ToNTriples() : slot(t->object);
    body += "  " + s + " " + t->predicate.ToNTriples() + " " + o + " .\n";
  }
  if (var_order.empty()) {
    // Ensure at least one variable so SELECT is well-formed.
    return "SELECT ?X0 WHERE { ?X0 " +
           chosen[0]->predicate.ToNTriples() + " " +
           (chosen[0]->object.is_literal()
                ? chosen[0]->object.ToNTriples()
                : chosen[0]->object.ToNTriples()) +
           " . }";
  }
  std::string head = "SELECT";
  for (const std::string& v : var_order) head += " " + v;
  return head + " WHERE {\n" + body + "}";
}

/// Random conjunctive query with a FILTER predicate attached: a base query
/// from RandomQueryFromData plus one filtered pattern `?s <urn:numK> ?F .
/// FILTER(?F op c)` on one of its subject variables (or a fresh variable
/// when the base query kept everything constant). Thresholds span the
/// numeric value range of RandomDataset, so generated queries cover empty,
/// partial, and full selectivities.
inline std::string RandomFilterQueryFromData(const std::vector<Triple>& data,
                                             uint64_t seed,
                                             int num_patterns) {
  Rng rng(seed ^ 0xF117E4);
  std::string base = RandomQueryFromData(data, seed, num_patterns);

  // Pick a variable to constrain: the first one mentioned in the query.
  size_t qpos = base.find('?');
  if (qpos == std::string::npos) return base;
  size_t qend = qpos + 1;
  while (qend < base.size() &&
         (std::isalnum(static_cast<unsigned char>(base[qend])) ||
          base[qend] == '_')) {
    ++qend;
  }
  std::string var = base.substr(qpos, qend - qpos);

  static const char* kOps[] = {">", ">=", "<", "<=", "=", "!="};
  const char* op = kOps[rng.Uniform(std::size(kOps))];
  const uint64_t threshold = rng.Uniform(55);  // values live in [0, 50)
  const std::string pred = "urn:num" + std::to_string(rng.Uniform(2));

  std::string pattern = "  " + var + " <" + pred + "> ?FQ .\n  FILTER(?FQ " +
                        op + " " + std::to_string(threshold) + ")\n";
  size_t close = base.rfind('}');
  if (close == std::string::npos) return base;
  return base.substr(0, close) + pattern + base.substr(close);
}

}  // namespace testutil
}  // namespace amber

#endif  // AMBER_TESTS_TEST_UTIL_H_
