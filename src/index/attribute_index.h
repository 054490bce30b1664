// Attribute index A (Section 4.1): an inverted list mapping each vertex
// attribute a_i (a <predicate, literal> pair) to the sorted list of data
// vertices carrying it. Candidate retrieval for a query vertex with several
// attributes is a sorted-list intersection, smallest list first.

#ifndef AMBER_INDEX_ATTRIBUTE_INDEX_H_
#define AMBER_INDEX_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/multigraph.h"
#include "util/amf.h"
#include "util/status.h"
#include "util/storage.h"

namespace amber {

/// \brief Inverted list index over vertex attributes.
class AttributeIndex {
 public:
  AttributeIndex() = default;

  /// Builds the inverted lists from the data multigraph (offline stage).
  static AttributeIndex Build(const Multigraph& g);

  /// Sorted vertices carrying attribute `a`; empty for unknown ids.
  std::span<const VertexId> Vertices(AttributeId a) const {
    if (a + 1 >= offsets_.size()) return {};
    return {pool_.data() + offsets_[a], offsets_[a + 1] - offsets_[a]};
  }

  /// Sorted vertices carrying *all* of `attrs` (C^A_u of the paper). An
  /// unknown attribute yields the empty set.
  std::vector<VertexId> Candidates(std::span<const AttributeId> attrs) const;

  /// True iff vertex `v` carries all of `attrs` (uses the inverted lists).
  bool VertexHasAll(VertexId v, std::span<const AttributeId> attrs) const;

  size_t NumAttributes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  uint64_t ByteSize() const {
    return offsets_.ByteSize() + pool_.ByteSize();
  }

  void SaveAmf(amf::Writer* w) const;
  /// `num_vertices` bounds the pool entries (they are graph vertex ids the
  /// matcher feeds straight into CSR lookups).
  Status LoadAmf(const amf::Reader& r, uint64_t num_vertices);

  bool operator==(const AttributeIndex& o) const {
    return offsets_ == o.offsets_ && pool_ == o.pool_;
  }

 private:
  ArrayRef<uint64_t> offsets_;  // size NumAttributes()+1
  ArrayRef<VertexId> pool_;     // sorted per attribute
};

/// Intersects two sorted id lists into a fresh vector. Cold-path
/// convenience over the allocation-free kernels in util/intersect.h, which
/// the hot path uses directly.
std::vector<VertexId> IntersectSorted(std::span<const VertexId> a,
                                      std::span<const VertexId> b);

}  // namespace amber

#endif  // AMBER_INDEX_ATTRIBUTE_INDEX_H_
