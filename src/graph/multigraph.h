// The directed, vertex-attributed data multigraph G of Definition 1.
//
// Storage is a two-level CSR per direction:
//
//   vertex v --> [neighbour groups] --> [edge-type ids]
//
// A *group* is the multi-edge between v and one neighbour: the set of edge
// types on the (v, neighbour) pair, sorted ascending. Groups of a vertex are
// sorted by neighbour id, so the multi-edge of a specific pair is found by
// binary search and returned as one contiguous span. Vertex attributes (the
// <predicate, literal> pairs of Section 2.1.1) live in a parallel CSR.
//
// The structure is immutable after Build(); this is the paper's offline
// stage artifact, and immutability is what lets the indexes hold raw spans
// into it.

#ifndef AMBER_GRAPH_MULTIGRAPH_H_
#define AMBER_GRAPH_MULTIGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/encoded_dataset.h"
#include "util/amf.h"
#include "util/status.h"
#include "util/storage.h"

namespace amber {

class ThreadPool;

/// Edge orientation relative to a vertex. Following the paper's convention,
/// an edge *incoming* to a vertex is positive ('+') and an *outgoing* edge is
/// negative ('-').
enum class Direction : uint8_t {
  kIn = 0,   // '+' edges pointing at the vertex
  kOut = 1,  // '-' edges leaving the vertex
};

/// Flips kIn <-> kOut.
inline Direction Opposite(Direction d) {
  return d == Direction::kIn ? Direction::kOut : Direction::kIn;
}

/// One neighbour group: a neighbour vertex and the multi-edge (sorted edge
/// types) shared with it.
struct GroupView {
  VertexId neighbor;
  std::span<const EdgeTypeId> types;
};

/// \brief Immutable directed vertex-attributed multigraph (Definition 1).
class Multigraph {
 public:
  /// \brief Accumulates edges/attributes, then sorts and dedups into a
  /// Multigraph.
  class Builder {
   public:
    Builder() = default;

    /// Adds the directed edge s --t--> o. Duplicate (s,t,o) statements are
    /// deduplicated at Build() time (RDF is a *set* of triples).
    void AddEdge(VertexId s, EdgeTypeId t, VertexId o);

    /// Attaches attribute `a` to vertex `v`.
    void AddAttribute(VertexId v, AttributeId a);

    /// Ensures the graph has at least `n` vertices (isolated vertices are
    /// legal: a subject may only carry attributes).
    void EnsureVertexCount(size_t n);

    /// Finalizes the graph. The builder is consumed. When `pool` is
    /// non-null, the two adjacency directions and the attribute CSR are
    /// built as concurrent tasks; the result is bit-identical to the
    /// serial build.
    Multigraph Build(ThreadPool* pool = nullptr) &&;

   private:
    std::vector<EncodedEdge> edges_;
    std::vector<EncodedAttribute> attrs_;
    size_t min_vertices_ = 0;
  };

  Multigraph() = default;

  /// Builds the multigraph of an encoded dataset (offline stage).
  static Multigraph FromDataset(const EncodedDataset& dataset,
                                ThreadPool* pool = nullptr);

  size_t NumVertices() const { return num_vertices_; }
  /// Number of distinct directed typed edges (s, t, o).
  uint64_t NumEdges() const { return num_edges_; }
  /// Number of distinct edge types (max id + 1 over stored edges, or the
  /// value forced via Builder dataset encoding).
  size_t NumEdgeTypes() const { return num_edge_types_; }
  /// Number of distinct attribute ids referenced.
  size_t NumAttributes() const { return num_attributes_; }
  /// Number of (vertex, attribute) assignments.
  uint64_t NumAttributeAssignments() const { return attr_pool_.size(); }

  /// Sorted attribute ids of vertex `v`.
  std::span<const AttributeId> Attributes(VertexId v) const {
    return {attr_pool_.data() + attr_offsets_[v],
            attr_offsets_[v + 1] - attr_offsets_[v]};
  }

  /// Number of neighbour groups (= distinct neighbours) of `v` on side `d`.
  size_t GroupCount(VertexId v, Direction d) const {
    const Adjacency& a = adj_[static_cast<int>(d)];
    return a.offsets[v + 1] - a.offsets[v];
  }

  /// The `i`-th neighbour group of `v` on side `d` (groups sorted by
  /// neighbour id).
  GroupView Group(VertexId v, Direction d, size_t i) const {
    const Adjacency& a = adj_[static_cast<int>(d)];
    const GroupEntry& g = a.groups[a.offsets[v] + i];
    return {g.neighbor, {a.types.data() + g.type_begin, g.type_count}};
  }

  /// The multi-edge between `v` and `neighbor` on side `d`; empty span when
  /// the pair is not adjacent. For d == kOut this is L_E(v, neighbor).
  std::span<const EdgeTypeId> MultiEdge(VertexId v, Direction d,
                                        VertexId neighbor) const;

  /// True iff the edge s --t--> o exists.
  bool HasEdge(VertexId s, EdgeTypeId t, VertexId o) const;

  /// True iff every type in `types` (sorted) is on the (v, neighbor) pair on
  /// side `d`.
  bool HasMultiEdgeSuperset(VertexId v, Direction d, VertexId neighbor,
                            std::span<const EdgeTypeId> types) const;

  /// Total in-degree + out-degree in distinct neighbours (used by baselines
  /// for ordering).
  size_t DegreeGroups(VertexId v) const {
    return GroupCount(v, Direction::kIn) + GroupCount(v, Direction::kOut);
  }

  /// Approximate heap footprint in bytes.
  uint64_t ByteSize() const;

  /// AMF sections: one meta pod plus the seven CSR arrays, all borrowed
  /// zero-copy from the mapping on LoadAmf.
  void SaveAmf(amf::Writer* w) const;
  Status LoadAmf(const amf::Reader& r);

  bool operator==(const Multigraph& o) const;

 private:
  struct GroupEntry {
    VertexId neighbor;
    uint32_t type_begin;
    uint32_t type_count;
  };

  struct Adjacency {
    ArrayRef<uint64_t> offsets;  // size NumVertices()+1, into groups
    ArrayRef<GroupEntry> groups;
    ArrayRef<EdgeTypeId> types;  // pooled, per-group contiguous + sorted

    bool operator==(const Adjacency& o) const;
  };

  // Builds the (offsets, groups, types) arrays from edges sorted in (key,
  // neighbor, type) order where key is the owning vertex on side `d`.
  static void BuildAdjacency(std::vector<EncodedEdge>* edges, Direction d,
                             size_t num_vertices, Adjacency* adj);

  friend class Builder;

  size_t num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  size_t num_edge_types_ = 0;
  size_t num_attributes_ = 0;

  Adjacency adj_[2];  // indexed by Direction

  ArrayRef<uint64_t> attr_offsets_;    // size NumVertices()+1
  ArrayRef<AttributeId> attr_pool_;    // sorted per vertex
};

}  // namespace amber

#endif  // AMBER_GRAPH_MULTIGRAPH_H_
