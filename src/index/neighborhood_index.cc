#include "index/neighborhood_index.h"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.h"

namespace amber {

namespace {
// AMF section ids (namespace 0x40xx).
constexpr uint32_t kAmfNbrDirBase = 0x4010;  // + 0x10 per direction

// Vertices per parallel build chunk. Fixed (not derived from the thread
// count) so that the chunk boundaries — and therefore the merged arrays —
// are identical for every num_threads, including the serial build.
constexpr size_t kBuildChunkVertices = 1024;

bool LexLess(std::span<const EdgeTypeId> a, std::span<const EdgeTypeId> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}
}  // namespace

void NeighborhoodIndex::BuildChildren(
    const std::vector<std::pair<std::span<const EdgeTypeId>, VertexId>>&
        groups,
    size_t lo, size_t hi, size_t depth, std::vector<Node>* nodes,
    std::vector<VertexId>* pool) {
  size_t i = lo;
  while (i < hi) {
    const EdgeTypeId t = groups[i].first[depth];
    size_t j = i;
    while (j < hi && groups[j].first[depth] == t) ++j;

    const uint32_t node_idx = static_cast<uint32_t>(nodes->size());
    nodes->push_back(Node{t, 0, 0, 0});

    // Groups whose set ends exactly at this node come first (a proper
    // prefix sorts before its extensions).
    uint32_t list_begin = static_cast<uint32_t>(pool->size());
    size_t k = i;
    while (k < j && groups[k].first.size() == depth + 1) {
      pool->push_back(groups[k].second);
      ++k;
    }
    (*nodes)[node_idx].list_begin = list_begin;
    (*nodes)[node_idx].list_end = static_cast<uint32_t>(pool->size());

    BuildChildren(groups, k, j, depth + 1, nodes, pool);
    (*nodes)[node_idx].subtree_end = static_cast<uint32_t>(nodes->size());
    i = j;
  }
}

NeighborhoodIndex NeighborhoodIndex::Build(const Multigraph& g,
                                           ThreadPool* pool) {
  NeighborhoodIndex index;
  const size_t num_vertices = g.NumVertices();
  const size_t num_chunks =
      (num_vertices + kBuildChunkVertices - 1) / kBuildChunkVertices;

  for (Direction d : {Direction::kIn, Direction::kOut}) {
    DirIndex& dir = index.dirs_[static_cast<int>(d)];

    // Phase 1: build each vertex chunk into local arrays. Node indices and
    // list offsets inside a chunk are chunk-relative; the merge rebases
    // them. Chunks only read the (immutable) multigraph, so they can run
    // on any thread.
    struct ChunkOut {
      std::vector<Node> nodes;
      std::vector<VertexId> pool;
      std::vector<uint32_t> node_counts;  // per vertex in the chunk
      std::vector<uint32_t> pool_counts;
    };
    std::vector<ChunkOut> chunks(num_chunks);
    auto build_chunk = [&g, &chunks, d, num_vertices](size_t c) {
      ChunkOut& out = chunks[c];
      const size_t begin = c * kBuildChunkVertices;
      const size_t end =
          std::min(num_vertices, begin + kBuildChunkVertices);
      std::vector<std::pair<std::span<const EdgeTypeId>, VertexId>> groups;
      for (size_t v = begin; v < end; ++v) {
        groups.clear();
        const size_t n = g.GroupCount(static_cast<VertexId>(v), d);
        groups.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          GroupView view = g.Group(static_cast<VertexId>(v), d, i);
          groups.emplace_back(view.types, view.neighbor);
        }
        // Order multi-edges lexicographically by their (sorted) type
        // sequence so prefix sharing in the trie falls out of a linear
        // scan.
        std::sort(groups.begin(), groups.end(),
                  [](const auto& a, const auto& b) {
                    if (LexLess(a.first, b.first)) return true;
                    if (LexLess(b.first, a.first)) return false;
                    return a.second < b.second;
                  });
        const size_t nodes_before = out.nodes.size();
        const size_t pool_before = out.pool.size();
        BuildChildren(groups, 0, groups.size(), 0, &out.nodes, &out.pool);
        out.node_counts.push_back(
            static_cast<uint32_t>(out.nodes.size() - nodes_before));
        out.pool_counts.push_back(
            static_cast<uint32_t>(out.pool.size() - pool_before));
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(num_chunks, build_chunk);
    } else {
      for (size_t c = 0; c < num_chunks; ++c) build_chunk(c);
    }

    // Phase 2: in-order concatenation with offset fixups — equivalent to
    // having built every vertex sequentially into one array.
    uint64_t total_nodes = 0, total_pool = 0;
    for (const ChunkOut& c : chunks) {
      total_nodes += c.nodes.size();
      total_pool += c.pool.size();
    }
    std::vector<uint64_t> node_offsets(num_vertices + 1, 0);
    std::vector<uint64_t> pool_offsets(num_vertices + 1, 0);
    std::vector<Node> nodes;
    nodes.reserve(total_nodes);
    std::vector<VertexId> pool_ids;
    pool_ids.reserve(total_pool);
    size_t v = 0;
    for (const ChunkOut& c : chunks) {
      const uint32_t node_base = static_cast<uint32_t>(nodes.size());
      const uint32_t pool_base = static_cast<uint32_t>(pool_ids.size());
      for (Node n : c.nodes) {
        n.subtree_end += node_base;
        n.list_begin += pool_base;
        n.list_end += pool_base;
        nodes.push_back(n);
      }
      pool_ids.insert(pool_ids.end(), c.pool.begin(), c.pool.end());
      for (size_t i = 0; i < c.node_counts.size(); ++i, ++v) {
        node_offsets[v + 1] = node_offsets[v] + c.node_counts[i];
        pool_offsets[v + 1] = pool_offsets[v] + c.pool_counts[i];
      }
    }
    dir.node_offsets = std::move(node_offsets);
    dir.pool_offsets = std::move(pool_offsets);
    dir.nodes = std::move(nodes);
    dir.pool = std::move(pool_ids);
  }
  return index;
}

void NeighborhoodIndex::SupersetNeighbors(VertexId v, Direction d,
                                          std::span<const EdgeTypeId> types,
                                          std::vector<VertexId>* out,
                                          Scratch* scratch) const {
  const DirIndex& dir = dirs_[static_cast<int>(d)];
  if (v + 1 >= dir.node_offsets.size()) return;
  const size_t out_start = out->size();

  if (types.empty()) {
    // Every neighbour on this side: the vertex's whole inverted-list range.
    out->insert(out->end(), dir.pool.begin() + dir.pool_offsets[v],
                dir.pool.begin() + dir.pool_offsets[v + 1]);
    std::sort(out->begin() + out_start, out->end());
    return;
  }

  const uint32_t begin = static_cast<uint32_t>(dir.node_offsets[v]);
  const uint32_t end = static_cast<uint32_t>(dir.node_offsets[v + 1]);

  // Iterative DFS over (node, matched query prefix length). Sibling walks
  // stop early once a label exceeds the next unmatched query type.
  Scratch local;
  std::vector<Scratch::Frame>& stack =
      (scratch != nullptr ? scratch->frames : local.frames);
  stack.clear();
  if (begin < end) stack.push_back(Scratch::Frame{begin, end, 0});

  while (!stack.empty()) {
    Scratch::Frame f = stack.back();
    stack.pop_back();

    uint32_t n = f.node;
    uint32_t qi = f.qi;
    while (n < f.limit) {
      const Node& node = dir.nodes[n];
      if (qi < types.size() && node.type > types[qi]) {
        break;  // this sibling and all later ones are > types[qi]: prune
      }
      uint32_t qn = qi;
      if (qi < types.size() && node.type == types[qi]) qn = qi + 1;

      if (qn == types.size()) {
        // Whole subtree matches; its inverted lists are contiguous.
        const Node& last = dir.nodes[node.subtree_end - 1];
        out->insert(out->end(), dir.pool.begin() + node.list_begin,
                    dir.pool.begin() + last.list_end);
      } else if (node.subtree_end > n + 1) {
        stack.push_back(Scratch::Frame{n + 1, node.subtree_end, qn});
      }
      n = node.subtree_end;
    }
  }
  std::sort(out->begin() + out_start, out->end());
}

bool NeighborhoodIndex::Contains(VertexId v, Direction d,
                                 std::span<const EdgeTypeId> types,
                                 VertexId neighbor, Scratch* scratch) const {
  const DirIndex& dir = dirs_[static_cast<int>(d)];
  if (v + 1 >= dir.node_offsets.size()) return false;

  if (types.empty()) {
    // Any adjacency qualifies: scan the vertex's inverted-list range (it is
    // contiguous but not globally sorted, so no binary search here).
    const VertexId* lo = dir.pool.begin() + dir.pool_offsets[v];
    const VertexId* hi = dir.pool.begin() + dir.pool_offsets[v + 1];
    return std::find(lo, hi, neighbor) != hi;
  }

  const uint32_t begin = static_cast<uint32_t>(dir.node_offsets[v]);
  const uint32_t end = static_cast<uint32_t>(dir.node_offsets[v + 1]);

  // Same pruned DFS as SupersetNeighbors. Once every query type is matched
  // the subtree is accepted; `neighbor` is then binary-searched in each of
  // the subtree's per-node inverted lists (each list is sorted).
  Scratch local;
  std::vector<Scratch::Frame>& stack =
      (scratch != nullptr ? scratch->frames : local.frames);
  stack.clear();
  if (begin < end) stack.push_back(Scratch::Frame{begin, end, 0});

  while (!stack.empty()) {
    Scratch::Frame f = stack.back();
    stack.pop_back();

    uint32_t n = f.node;
    uint32_t qi = f.qi;
    while (n < f.limit) {
      const Node& node = dir.nodes[n];
      if (qi < types.size() && node.type > types[qi]) break;
      uint32_t qn = qi;
      if (qi < types.size() && node.type == types[qi]) qn = qi + 1;

      if (qn == types.size()) {
        for (uint32_t m = n; m < node.subtree_end; ++m) {
          const Node& sub = dir.nodes[m];
          const VertexId* lo = dir.pool.begin() + sub.list_begin;
          const VertexId* hi = dir.pool.begin() + sub.list_end;
          if (std::binary_search(lo, hi, neighbor)) return true;
        }
      } else if (node.subtree_end > n + 1) {
        stack.push_back(Scratch::Frame{n + 1, node.subtree_end, qn});
      }
      n = node.subtree_end;
    }
  }
  return false;
}

uint64_t NeighborhoodIndex::ByteSize() const {
  uint64_t total = 0;
  for (const DirIndex& dir : dirs_) {
    total += dir.node_offsets.ByteSize();
    total += dir.pool_offsets.ByteSize();
    total += dir.nodes.ByteSize();
    total += dir.pool.ByteSize();
  }
  return total;
}

void NeighborhoodIndex::SaveAmf(amf::Writer* w) const {
  for (int d = 0; d < 2; ++d) {
    const uint32_t base = kAmfNbrDirBase + d * 0x10;
    w->AddArray(base + 0, dirs_[d].node_offsets.span());
    w->AddArray(base + 1, dirs_[d].pool_offsets.span());
    w->AddArray(base + 2, dirs_[d].nodes.span());
    w->AddArray(base + 3, dirs_[d].pool.span());
  }
}

Status NeighborhoodIndex::LoadAmf(const amf::Reader& r) {
  for (int d = 0; d < 2; ++d) {
    const uint32_t base = kAmfNbrDirBase + d * 0x10;
    AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> node_offsets,
                           r.Array<uint64_t>(base + 0));
    AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> pool_offsets,
                           r.Array<uint64_t>(base + 1));
    AMBER_ASSIGN_OR_RETURN(std::span<const Node> nodes,
                           r.Array<Node>(base + 2));
    AMBER_ASSIGN_OR_RETURN(std::span<const VertexId> pool,
                           r.Array<VertexId>(base + 3));
    if (node_offsets.size() != pool_offsets.size()) {
      return Status::Corruption("neighborhood offset tables malformed");
    }
    AMBER_RETURN_IF_ERROR(
        amf::ValidateOffsets(node_offsets, nodes.size(),
                             "neighborhood node"));
    AMBER_RETURN_IF_ERROR(
        amf::ValidateOffsets(pool_offsets, pool.size(),
                             "neighborhood pool"));
    // Trie invariants the DFS relies on: subtree_end strictly advances
    // (or the walk loops forever) and stays in range; inverted-list ranges
    // index the pool; pool entries are vertex ids.
    const uint64_t num_vertices = node_offsets.size() - 1;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const Node& n = nodes[i];
      if (n.subtree_end <= i || n.subtree_end > nodes.size() ||
          n.list_begin > n.list_end || n.list_end > pool.size()) {
        return Status::Corruption("neighborhood trie node out of range");
      }
    }
    for (VertexId v : pool) {
      if (v >= num_vertices) {
        return Status::Corruption("neighborhood pool entry out of range");
      }
    }
    dirs_[d].node_offsets = ArrayRef<uint64_t>::Borrowed(node_offsets);
    dirs_[d].pool_offsets = ArrayRef<uint64_t>::Borrowed(pool_offsets);
    dirs_[d].nodes = ArrayRef<Node>::Borrowed(nodes);
    dirs_[d].pool = ArrayRef<VertexId>::Borrowed(pool);
  }
  return Status::OK();
}

}  // namespace amber
