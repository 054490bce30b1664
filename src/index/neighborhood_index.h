// Vertex neighbourhood index N (Section 4.3): per data vertex, two OTIL
// structures — Ordered Trie with Inverted List, after Terrovitis et al.
// (CIKM'06) — one for incoming ('+', N+) and one for outgoing ('-', N-)
// edges.
//
// For a vertex v, each neighbour group (the sorted multi-edge type set shared
// with one neighbour) is inserted as a root-anchored path in the trie; the
// neighbour id is appended to the inverted list of the node where its path
// ends. The core query is:
//
//   Superset(v, dir, T') = { v' in N_dir(v) : T' subseteq L_E(v,v') }
//
// answered by walking the trie and matching the sorted T' as a subsequence of
// node labels. Because labels are sorted along paths *and* across siblings,
// a node labelled greater than the next unmatched query type prunes itself
// and all its later siblings; once every query type is matched, the whole
// subtree (one contiguous node/list range in our flat layout) is accepted.
//
// The entire forest of tries is stored in four flat arrays per direction —
// no per-node allocation, cheap to serialize, and subtree acceptance is a
// single memcpy-style append.

#ifndef AMBER_INDEX_NEIGHBORHOOD_INDEX_H_
#define AMBER_INDEX_NEIGHBORHOOD_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/multigraph.h"
#include "util/amf.h"
#include "util/status.h"
#include "util/storage.h"

namespace amber {

class ThreadPool;

/// \brief OTIL-based neighbourhood index over a data multigraph.
class NeighborhoodIndex {
 public:
  /// Reusable workspace for the trie walks (the DFS frame stack). Callers
  /// on the matching hot path keep one Scratch per Matcher so repeated
  /// SupersetNeighbors/Contains calls perform no heap allocation once the
  /// stack has grown to the deepest trie visited.
  class Scratch {
   public:
    Scratch() = default;

    /// Heap footprint of the reusable stack (for arena accounting).
    uint64_t ByteSize() const {
      return static_cast<uint64_t>(frames.capacity()) * sizeof(Frame);
    }

   private:
    friend class NeighborhoodIndex;
    struct Frame {
      uint32_t node;
      uint32_t limit;  // one past the last sibling in this chain
      uint32_t qi;     // matched query-prefix length
    };
    std::vector<Frame> frames;
  };

  NeighborhoodIndex() = default;

  /// Builds N+ and N- for every vertex (offline stage). With a pool, the
  /// per-vertex trie construction is sharded into fixed-size vertex chunks
  /// built concurrently and concatenated in order, which makes the result
  /// bit-identical to the serial build regardless of thread count.
  static NeighborhoodIndex Build(const Multigraph& g,
                                 ThreadPool* pool = nullptr);

  /// Appends to `*out` every neighbour v' of `v` on side `d` whose
  /// multi-edge with `v` is a superset of `types` (sorted ascending).
  /// With empty `types`, all neighbours on that side are returned.
  /// The appended range is sorted and duplicate-free. When `scratch` is
  /// non-null its stack is reused instead of allocating one per call.
  void SupersetNeighbors(VertexId v, Direction d,
                         std::span<const EdgeTypeId> types,
                         std::vector<VertexId>* out,
                         Scratch* scratch = nullptr) const;

  /// Convenience wrapper returning a fresh vector.
  std::vector<VertexId> Superset(VertexId v, Direction d,
                                 std::span<const EdgeTypeId> types) const {
    std::vector<VertexId> out;
    SupersetNeighbors(v, d, types, &out);
    return out;
  }

  /// True iff `neighbor` would appear in Superset(v, d, types): the
  /// multi-edge between `v` and `neighbor` on side `d` covers `types`.
  /// Seeks through the trie (pruned exactly like SupersetNeighbors, plus a
  /// binary search of each accepted node's inverted list) without
  /// materializing any neighbour list — the probe-without-materialize
  /// primitive of the matcher's hot path.
  bool Contains(VertexId v, Direction d, std::span<const EdgeTypeId> types,
                VertexId neighbor, Scratch* scratch = nullptr) const;

  /// Exact number of distinct neighbours of `v` on side `d`, in O(1); an
  /// upper bound on |Superset(v, d, types)| for any `types`. The matcher's
  /// materialize-vs-probe cutover is driven by this bound.
  size_t NeighborCount(VertexId v, Direction d) const {
    const DirIndex& dir = dirs_[static_cast<int>(d)];
    if (v + 1 >= dir.pool_offsets.size()) return 0;
    return static_cast<size_t>(dir.pool_offsets[v + 1] -
                               dir.pool_offsets[v]);
  }

  size_t NumVertices() const {
    return dirs_[0].node_offsets.empty() ? 0
                                         : dirs_[0].node_offsets.size() - 1;
  }

  uint64_t ByteSize() const;

  void SaveAmf(amf::Writer* w) const;
  Status LoadAmf(const amf::Reader& r);

 private:
  // One trie node. Children of node i are the maximal chain
  // i+1, subtree_end(i+1), ... inside (i, subtree_end(i)); both node and
  // inverted-list storage of a subtree are contiguous.
  struct Node {
    EdgeTypeId type;
    uint32_t subtree_end;  // absolute node index one past the subtree
    uint32_t list_begin;   // own inverted list in `pool`
    uint32_t list_end;
  };

  struct DirIndex {
    ArrayRef<uint64_t> node_offsets;  // per vertex, size V+1
    ArrayRef<uint64_t> pool_offsets;  // per vertex, size V+1
    ArrayRef<Node> nodes;
    ArrayRef<VertexId> pool;          // inverted lists, DFS order
  };

  // Recursive trie construction over the sorted groups [lo, hi), appending
  // to chunk-local node/pool vectors.
  static void BuildChildren(
      const std::vector<std::pair<std::span<const EdgeTypeId>, VertexId>>&
          groups,
      size_t lo, size_t hi, size_t depth, std::vector<Node>* nodes,
      std::vector<VertexId>* pool);

  DirIndex dirs_[2];  // indexed by Direction
};

}  // namespace amber

#endif  // AMBER_INDEX_NEIGHBORHOOD_INDEX_H_
