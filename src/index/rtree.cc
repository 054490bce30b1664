#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace amber {

namespace {
// AMF section ids (namespace 0x30xx).
constexpr uint32_t kAmfRTreeMeta = 0x3000;
constexpr uint32_t kAmfRTreePoints = 0x3001;
constexpr uint32_t kAmfRTreeNodes = 0x3002;
constexpr uint32_t kAmfRTreeEntries = 0x3003;
constexpr uint32_t kAmfRTreeChildPool = 0x3004;

struct RTreeMetaPod {
  uint32_t root;
  uint32_t reserved;
};
}  // namespace

struct SynopsisRTree::Bulk {
  std::span<const Synopsis> points;
  std::vector<Node> nodes;
  std::vector<uint32_t> entries;
  std::vector<uint32_t> child_pool;

  uint32_t BuildNode(std::span<uint32_t> ids, int depth,
                     const Options& options) {
    assert(!ids.empty());
    Node node;
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      node.mbr_min[i] = std::numeric_limits<int32_t>::max();
      node.mbr_max[i] = std::numeric_limits<int32_t>::min();
    }
    node.entry_begin = static_cast<uint32_t>(entries.size());

    if (ids.size() <= options.leaf_capacity) {
      for (uint32_t id : ids) {
        entries.push_back(id);
        const Synopsis& p = points[id];
        for (int i = 0; i < Synopsis::kNumFields; ++i) {
          node.mbr_min[i] = std::min(node.mbr_min[i], p.f[i]);
          node.mbr_max[i] = std::max(node.mbr_max[i], p.f[i]);
        }
      }
      node.entry_end = static_cast<uint32_t>(entries.size());
      node.children_begin = 0;
      node.children_count = 0;
      nodes.push_back(node);
      return static_cast<uint32_t>(nodes.size() - 1);
    }

    // Partition along one dimension per level (round-robin), into up to
    // `fanout` equal slices: a sort-tile-recursive style pack.
    const int dim = depth % Synopsis::kNumFields;
    std::sort(ids.begin(), ids.end(), [this, dim](uint32_t a, uint32_t b) {
      if (points[a].f[dim] != points[b].f[dim]) {
        return points[a].f[dim] < points[b].f[dim];
      }
      return a < b;
    });

    const size_t slices =
        std::min<size_t>(options.fanout,
                         (ids.size() + options.leaf_capacity - 1) /
                             options.leaf_capacity);
    const size_t per_slice = (ids.size() + slices - 1) / slices;

    std::vector<uint32_t> children;
    for (size_t begin = 0; begin < ids.size(); begin += per_slice) {
      size_t end = std::min(ids.size(), begin + per_slice);
      children.push_back(
          BuildNode(ids.subspan(begin, end - begin), depth + 1, options));
    }

    for (uint32_t child : children) {
      const Node& c = nodes[child];
      for (int i = 0; i < Synopsis::kNumFields; ++i) {
        node.mbr_min[i] = std::min(node.mbr_min[i], c.mbr_min[i]);
        node.mbr_max[i] = std::max(node.mbr_max[i], c.mbr_max[i]);
      }
    }
    node.entry_end = static_cast<uint32_t>(entries.size());
    node.children_begin = static_cast<uint32_t>(child_pool.size());
    node.children_count = static_cast<uint32_t>(children.size());
    child_pool.insert(child_pool.end(), children.begin(), children.end());
    nodes.push_back(node);
    return static_cast<uint32_t>(nodes.size() - 1);
  }
};

SynopsisRTree SynopsisRTree::Build(std::span<const Synopsis> points,
                                   const Options& options) {
  SynopsisRTree tree;
  tree.points_ = std::vector<Synopsis>(points.begin(), points.end());
  if (points.empty()) return tree;

  std::vector<uint32_t> ids(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) ids[i] = i;
  Bulk bulk;
  bulk.points = tree.points_.span();
  bulk.entries.reserve(points.size());
  tree.root_ = bulk.BuildNode(std::span<uint32_t>(ids), 0, options);
  tree.nodes_ = std::move(bulk.nodes);
  tree.entries_ = std::move(bulk.entries);
  tree.child_pool_ = std::move(bulk.child_pool);
  return tree;
}

void SynopsisRTree::CollectRange(uint32_t begin, uint32_t end,
                                 std::vector<uint32_t>* out) const {
  out->insert(out->end(), entries_.begin() + begin, entries_.begin() + end);
}

void SynopsisRTree::QueryDominating(const Synopsis& q,
                                    std::vector<uint32_t>* out) const {
  const size_t out_start = out->size();
  if (nodes_.empty()) return;

  std::vector<uint32_t> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();

    bool prune = false;
    bool all_inside = true;
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      if (q.f[i] > node.mbr_max[i]) {
        prune = true;
        break;
      }
      if (q.f[i] > node.mbr_min[i]) all_inside = false;
    }
    if (prune) continue;
    if (all_inside) {
      // Every point in the subtree dominates q.
      CollectRange(node.entry_begin, node.entry_end, out);
      continue;
    }
    if (node.children_count == 0) {
      for (uint32_t e = node.entry_begin; e < node.entry_end; ++e) {
        if (points_[entries_[e]].Dominates(q)) out->push_back(entries_[e]);
      }
      continue;
    }
    for (uint32_t c = 0; c < node.children_count; ++c) {
      stack.push_back(child_pool_[node.children_begin + c]);
    }
  }
  std::sort(out->begin() + out_start, out->end());
}

void SynopsisRTree::SaveAmf(amf::Writer* w) const {
  RTreeMetaPod meta{root_, 0};
  w->AddPod(kAmfRTreeMeta, meta);
  w->AddArray(kAmfRTreePoints, points_.span());
  w->AddArray(kAmfRTreeNodes, nodes_.span());
  w->AddArray(kAmfRTreeEntries, entries_.span());
  w->AddArray(kAmfRTreeChildPool, child_pool_.span());
}

Status SynopsisRTree::LoadAmf(const amf::Reader& r) {
  RTreeMetaPod meta;
  AMBER_RETURN_IF_ERROR(r.Pod(kAmfRTreeMeta, &meta));
  AMBER_ASSIGN_OR_RETURN(std::span<const Synopsis> points,
                         r.Array<Synopsis>(kAmfRTreePoints));
  AMBER_ASSIGN_OR_RETURN(std::span<const Node> nodes,
                         r.Array<Node>(kAmfRTreeNodes));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint32_t> entries,
                         r.Array<uint32_t>(kAmfRTreeEntries));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint32_t> child_pool,
                         r.Array<uint32_t>(kAmfRTreeChildPool));
  if (!nodes.empty() && meta.root >= nodes.size()) {
    return Status::Corruption("rtree root out of range");
  }
  if (entries.size() != points.size()) {
    return Status::Corruption("rtree entries/points size mismatch");
  }
  // Structural invariants the dominance walk relies on: entry/child
  // ranges index their pools, entries are point ids, and every child id is
  // below its parent (the bulk loader emits children first), which rules
  // out traversal cycles.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.entry_begin > n.entry_end || n.entry_end > entries.size() ||
        static_cast<uint64_t>(n.children_begin) + n.children_count >
            child_pool.size()) {
      return Status::Corruption("rtree node out of range");
    }
    for (uint32_t c = 0; c < n.children_count; ++c) {
      if (child_pool[n.children_begin + c] >= i) {
        return Status::Corruption("rtree child link not topological");
      }
    }
  }
  for (uint32_t e : entries) {
    if (e >= points.size()) {
      return Status::Corruption("rtree entry out of range");
    }
  }
  root_ = meta.root;
  points_ = ArrayRef<Synopsis>::Borrowed(points);
  nodes_ = ArrayRef<Node>::Borrowed(nodes);
  entries_ = ArrayRef<uint32_t>::Borrowed(entries);
  child_pool_ = ArrayRef<uint32_t>::Borrowed(child_pool);
  return Status::OK();
}

}  // namespace amber
