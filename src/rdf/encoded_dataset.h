// The offline encoding step of Section 2.1.1: an RDF tripleset becomes
//   * vertex ids        for subject / object IRIs and blank nodes,
//   * edge-type ids     for predicates of IRI-object triples,
//   * attribute ids     for <predicate, literal> pairs of literal-object
//                       triples (assigned to the subject vertex).
//
// The first three dictionaries correspond exactly to Table 2 of the paper.
// Beyond the paper, the encoder also surfaces *typed* literal values: a
// fourth dictionary of attribute predicates (the predicate IRIs of
// literal-object triples, disjoint from the edge-type id space so Table 2
// semantics are untouched) and, per attribute id, the predicate plus the
// comparable LiteralValue. This is what FILTER pushdown and the ValueIndex
// are built from.

#ifndef AMBER_RDF_ENCODED_DATASET_H_
#define AMBER_RDF_ENCODED_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/literal_value.h"
#include "rdf/term.h"
#include "util/status.h"

namespace amber {

/// Vertex identifier in the data multigraph (maps to a subject/object IRI).
using VertexId = uint32_t;
/// Edge-type identifier (maps to a predicate IRI).
using EdgeTypeId = uint32_t;
/// Vertex-attribute identifier (maps to a <predicate, literal> pair).
using AttributeId = uint32_t;
/// Attribute-predicate identifier (maps to the predicate IRI of a
/// literal-object triple; independent of the EdgeTypeId space).
using AttrPredId = uint32_t;

inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

/// One dictionary-encoded edge (triple with IRI/blank object).
struct EncodedEdge {
  VertexId subject;
  EdgeTypeId predicate;
  VertexId object;
};

/// One dictionary-encoded vertex attribute (triple with literal object).
struct EncodedAttribute {
  VertexId subject;
  AttributeId attribute;
};

/// Typed view of one attribute id: its predicate (AttrPredId) and the
/// comparable value of its literal. Indexed by AttributeId.
struct AttributeValueInfo {
  AttrPredId predicate = kInvalidId;
  LiteralValue value;

  bool operator==(const AttributeValueInfo&) const = default;
};

/// \brief The three mapping dictionaries Mv, Me, Ma of the paper (Table 2),
/// plus the attribute-predicate dictionary backing FILTER pushdown.
class RdfDictionaries {
 public:
  RdfDictionaries() = default;
  RdfDictionaries(RdfDictionaries&&) = default;
  RdfDictionaries& operator=(RdfDictionaries&&) = default;

  /// Canonical dictionary key of a vertex term (IRI or blank node).
  static std::string VertexKey(const Term& term) { return term.ToNTriples(); }
  /// Canonical dictionary key of a predicate term.
  static std::string PredicateKey(const Term& term) { return term.value; }
  /// Canonical dictionary key of a <predicate, literal> attribute pair.
  static std::string AttributeKey(const Term& predicate, const Term& literal);

  StringDictionary& vertices() { return vertices_; }
  const StringDictionary& vertices() const { return vertices_; }
  StringDictionary& edge_types() { return edge_types_; }
  const StringDictionary& edge_types() const { return edge_types_; }
  StringDictionary& attributes() { return attributes_; }
  const StringDictionary& attributes() const { return attributes_; }
  /// Predicate IRIs of literal-object triples (the FILTER-addressable
  /// predicates). Keyed like edge types (PredicateKey), own id space.
  StringDictionary& attr_predicates() { return attr_predicates_; }
  const StringDictionary& attr_predicates() const { return attr_predicates_; }

  /// Inverse vertex mapping Mv^-1: vertex id -> N-Triples token.
  std::string_view VertexToken(VertexId v) const {
    return vertices_.Lookup(v);
  }
  /// Inverse edge-type mapping Me^-1: edge-type id -> predicate IRI.
  std::string_view PredicateIri(EdgeTypeId t) const {
    return edge_types_.Lookup(t);
  }
  /// Inverse attribute mapping Ma^-1, rendered "<pred> -> <literal token>".
  std::string AttributeDescription(AttributeId a) const;
  /// Inverse attribute-predicate mapping: id -> predicate IRI.
  std::string_view AttrPredicateIri(AttrPredId p) const {
    return attr_predicates_.Lookup(p);
  }

  uint64_t ByteSize() const {
    return vertices_.ByteSize() + edge_types_.ByteSize() +
           attributes_.ByteSize() + attr_predicates_.ByteSize();
  }

  /// AMF sections of the three dictionaries (see docs/ARCHITECTURE.md,
  /// "Artifact format").
  void SaveAmf(amf::Writer* w) const;
  Status LoadAmf(const amf::Reader& r);

 private:
  StringDictionary vertices_;
  StringDictionary edge_types_;
  StringDictionary attributes_;
  StringDictionary attr_predicates_;
};

/// \brief Dictionary-encoded RDF dataset: the input of multigraph
/// construction (offline stage, Section 3).
struct EncodedDataset {
  RdfDictionaries dictionaries;
  std::vector<EncodedEdge> edges;
  std::vector<EncodedAttribute> attributes;
  /// Typed value of each attribute id (parallel to the attribute
  /// dictionary); source data for the ValueIndex and the baselines'
  /// residual FILTER checks.
  std::vector<AttributeValueInfo> attribute_values;
  uint64_t num_triples = 0;

  /// Encodes a tripleset. Every triple contributes either one edge (IRI /
  /// blank object) or one vertex attribute (literal object). Literal
  /// subjects are rejected (W3C forbids them).
  static Result<EncodedDataset> Encode(const std::vector<Triple>& triples);
};

}  // namespace amber

#endif  // AMBER_RDF_ENCODED_DATASET_H_
