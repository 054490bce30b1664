#include "graph/multigraph.h"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.h"

namespace amber {

namespace {
// AMF section ids (namespace 0x10xx).
constexpr uint32_t kAmfMgMeta = 0x1000;
constexpr uint32_t kAmfMgAdjBase = 0x1010;  // + 0x10 per direction
constexpr uint32_t kAmfMgAttrOffsets = 0x1030;
constexpr uint32_t kAmfMgAttrPool = 0x1031;

struct MgMetaPod {
  uint64_t num_vertices;
  uint64_t num_edges;
  uint64_t num_edge_types;
  uint64_t num_attributes;
};

// amf::ValidateOffsets plus the size the graph's meta demands.
Status ValidateOffsets(std::span<const uint64_t> offsets, size_t expect_size,
                       uint64_t pool_size, const char* what) {
  if (offsets.size() != expect_size) {
    return Status::Corruption(std::string(what) + " offsets size mismatch");
  }
  return amf::ValidateOffsets(offsets, pool_size, what);
}
}  // namespace

void Multigraph::Builder::AddEdge(VertexId s, EdgeTypeId t, VertexId o) {
  edges_.push_back(EncodedEdge{s, t, o});
}

void Multigraph::Builder::AddAttribute(VertexId v, AttributeId a) {
  attrs_.push_back(EncodedAttribute{v, a});
}

void Multigraph::Builder::EnsureVertexCount(size_t n) {
  min_vertices_ = std::max(min_vertices_, n);
}

Multigraph Multigraph::Builder::Build(ThreadPool* pool) && {
  Multigraph g;

  size_t num_vertices = min_vertices_;
  for (const EncodedEdge& e : edges_) {
    num_vertices = std::max<size_t>(num_vertices, e.subject + 1);
    num_vertices = std::max<size_t>(num_vertices, e.object + 1);
    g.num_edge_types_ =
        std::max<size_t>(g.num_edge_types_, e.predicate + 1);
  }
  for (const EncodedAttribute& a : attrs_) {
    num_vertices = std::max<size_t>(num_vertices, a.subject + 1);
    g.num_attributes_ = std::max<size_t>(g.num_attributes_, a.attribute + 1);
  }
  g.num_vertices_ = num_vertices;

  // Deduplicate edges: RDF data is a set of statements.
  std::sort(edges_.begin(), edges_.end(),
            [](const EncodedEdge& a, const EncodedEdge& b) {
              if (a.subject != b.subject) return a.subject < b.subject;
              if (a.object != b.object) return a.object < b.object;
              return a.predicate < b.predicate;
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const EncodedEdge& a, const EncodedEdge& b) {
                             return a.subject == b.subject &&
                                    a.object == b.object &&
                                    a.predicate == b.predicate;
                           }),
               edges_.end());
  g.num_edges_ = edges_.size();

  // The three CSRs (out-adjacency, in-adjacency, attributes) are
  // independent; each is deterministic on its own (BuildAdjacency fully
  // re-sorts its input, so starting order is irrelevant), which keeps the
  // artifact bit-identical between the serial and concurrent paths. Only
  // the concurrent path needs a second edge buffer; the serial path
  // re-sorts `edges_` in place for the second direction.
  auto build_attrs = [this, num_vertices, &g] {
    std::sort(attrs_.begin(), attrs_.end(),
              [](const EncodedAttribute& a, const EncodedAttribute& b) {
                if (a.subject != b.subject) return a.subject < b.subject;
                return a.attribute < b.attribute;
              });
    attrs_.erase(std::unique(attrs_.begin(), attrs_.end(),
                             [](const EncodedAttribute& a,
                                const EncodedAttribute& b) {
                               return a.subject == b.subject &&
                                      a.attribute == b.attribute;
                             }),
                 attrs_.end());
    std::vector<uint64_t> offsets(num_vertices + 1, 0);
    for (const EncodedAttribute& a : attrs_) {
      ++offsets[a.subject + 1];
    }
    for (size_t v = 0; v < num_vertices; ++v) {
      offsets[v + 1] += offsets[v];
    }
    std::vector<AttributeId> attr_pool;
    attr_pool.reserve(attrs_.size());
    for (const EncodedAttribute& a : attrs_) {
      attr_pool.push_back(a.attribute);
    }
    g.attr_offsets_ = std::move(offsets);
    g.attr_pool_ = std::move(attr_pool);
  };

  if (pool != nullptr) {
    std::vector<EncodedEdge> in_edges = edges_;
    pool->Submit([this, num_vertices, &g] {
      BuildAdjacency(&edges_, Direction::kOut, num_vertices,
                     &g.adj_[static_cast<int>(Direction::kOut)]);
    });
    pool->Submit([&in_edges, num_vertices, &g] {
      BuildAdjacency(&in_edges, Direction::kIn, num_vertices,
                     &g.adj_[static_cast<int>(Direction::kIn)]);
    });
    pool->Submit(build_attrs);
    pool->Wait();
  } else {
    BuildAdjacency(&edges_, Direction::kOut, num_vertices,
                   &g.adj_[static_cast<int>(Direction::kOut)]);
    BuildAdjacency(&edges_, Direction::kIn, num_vertices,
                   &g.adj_[static_cast<int>(Direction::kIn)]);
    build_attrs();
  }

  return g;
}

void Multigraph::BuildAdjacency(std::vector<EncodedEdge>* edges, Direction d,
                                size_t num_vertices, Adjacency* adj) {
  const bool out = (d == Direction::kOut);
  auto key = [out](const EncodedEdge& e) {
    return out ? e.subject : e.object;
  };
  auto nbr = [out](const EncodedEdge& e) {
    return out ? e.object : e.subject;
  };
  std::sort(edges->begin(), edges->end(),
            [&](const EncodedEdge& a, const EncodedEdge& b) {
              if (key(a) != key(b)) return key(a) < key(b);
              if (nbr(a) != nbr(b)) return nbr(a) < nbr(b);
              return a.predicate < b.predicate;
            });

  std::vector<uint64_t> offsets(num_vertices + 1, 0);
  std::vector<GroupEntry> groups;
  std::vector<EdgeTypeId> types;
  types.reserve(edges->size());

  size_t i = 0;
  while (i < edges->size()) {
    VertexId v = key((*edges)[i]);
    VertexId n = nbr((*edges)[i]);
    GroupEntry group;
    group.neighbor = n;
    group.type_begin = static_cast<uint32_t>(types.size());
    size_t j = i;
    while (j < edges->size() && key((*edges)[j]) == v &&
           nbr((*edges)[j]) == n) {
      types.push_back((*edges)[j].predicate);
      ++j;
    }
    group.type_count = static_cast<uint32_t>(j - i);
    groups.push_back(group);
    ++offsets[v + 1];
    i = j;
  }
  for (size_t v = 0; v < num_vertices; ++v) {
    offsets[v + 1] += offsets[v];
  }

  adj->offsets = std::move(offsets);
  adj->groups = std::move(groups);
  adj->types = std::move(types);
}

Multigraph Multigraph::FromDataset(const EncodedDataset& dataset,
                                   ThreadPool* pool) {
  Builder builder;
  builder.EnsureVertexCount(dataset.dictionaries.vertices().size());
  for (const EncodedEdge& e : dataset.edges) {
    builder.AddEdge(e.subject, e.predicate, e.object);
  }
  for (const EncodedAttribute& a : dataset.attributes) {
    builder.AddAttribute(a.subject, a.attribute);
  }
  Multigraph g = std::move(builder).Build(pool);
  // The dictionaries are authoritative for id-space sizes: an edge type or
  // attribute may exist in the dictionary without surviving deduplication.
  g.num_edge_types_ =
      std::max(g.num_edge_types_, dataset.dictionaries.edge_types().size());
  g.num_attributes_ =
      std::max(g.num_attributes_, dataset.dictionaries.attributes().size());
  return g;
}

std::span<const EdgeTypeId> Multigraph::MultiEdge(VertexId v, Direction d,
                                                  VertexId neighbor) const {
  const Adjacency& a = adj_[static_cast<int>(d)];
  const GroupEntry* begin = a.groups.data() + a.offsets[v];
  const GroupEntry* end = a.groups.data() + a.offsets[v + 1];
  const GroupEntry* it = std::lower_bound(
      begin, end, neighbor, [](const GroupEntry& g, VertexId n) {
        return g.neighbor < n;
      });
  if (it == end || it->neighbor != neighbor) return {};
  return {a.types.data() + it->type_begin, it->type_count};
}

bool Multigraph::HasEdge(VertexId s, EdgeTypeId t, VertexId o) const {
  std::span<const EdgeTypeId> types = MultiEdge(s, Direction::kOut, o);
  return std::binary_search(types.begin(), types.end(), t);
}

bool Multigraph::HasMultiEdgeSuperset(
    VertexId v, Direction d, VertexId neighbor,
    std::span<const EdgeTypeId> types) const {
  std::span<const EdgeTypeId> have = MultiEdge(v, d, neighbor);
  if (have.size() < types.size()) return false;
  // Both sides sorted: linear merge containment test.
  size_t i = 0;
  for (EdgeTypeId t : types) {
    while (i < have.size() && have[i] < t) ++i;
    if (i == have.size() || have[i] != t) return false;
    ++i;
  }
  return true;
}

uint64_t Multigraph::ByteSize() const {
  uint64_t total = 0;
  for (const Adjacency& a : adj_) {
    total += a.offsets.ByteSize();
    total += a.groups.ByteSize();
    total += a.types.ByteSize();
  }
  total += attr_offsets_.ByteSize();
  total += attr_pool_.ByteSize();
  return total;
}

bool Multigraph::Adjacency::operator==(const Adjacency& o) const {
  if (!(offsets == o.offsets) || !(types == o.types)) return false;
  if (groups.size() != o.groups.size()) return false;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].neighbor != o.groups[i].neighbor ||
        groups[i].type_begin != o.groups[i].type_begin ||
        groups[i].type_count != o.groups[i].type_count) {
      return false;
    }
  }
  return true;
}

bool Multigraph::operator==(const Multigraph& o) const {
  return num_vertices_ == o.num_vertices_ && num_edges_ == o.num_edges_ &&
         num_edge_types_ == o.num_edge_types_ &&
         num_attributes_ == o.num_attributes_ && adj_[0] == o.adj_[0] &&
         adj_[1] == o.adj_[1] && attr_offsets_ == o.attr_offsets_ &&
         attr_pool_ == o.attr_pool_;
}

void Multigraph::SaveAmf(amf::Writer* w) const {
  MgMetaPod meta{num_vertices_, num_edges_, num_edge_types_,
                 num_attributes_};
  w->AddPod(kAmfMgMeta, meta);
  for (int d = 0; d < 2; ++d) {
    const uint32_t base = kAmfMgAdjBase + d * 0x10;
    w->AddArray(base + 0, adj_[d].offsets.span());
    w->AddArray(base + 1, adj_[d].groups.span());
    w->AddArray(base + 2, adj_[d].types.span());
  }
  w->AddArray(kAmfMgAttrOffsets, attr_offsets_.span());
  w->AddArray(kAmfMgAttrPool, attr_pool_.span());
}

Status Multigraph::LoadAmf(const amf::Reader& r) {
  MgMetaPod meta;
  AMBER_RETURN_IF_ERROR(r.Pod(kAmfMgMeta, &meta));
  if (meta.num_vertices >= amf::kMaxPayloadBytes) {
    return Status::Corruption("implausible vertex count in AMF meta");
  }
  num_vertices_ = meta.num_vertices;
  num_edges_ = meta.num_edges;
  num_edge_types_ = meta.num_edge_types;
  num_attributes_ = meta.num_attributes;
  for (int d = 0; d < 2; ++d) {
    const uint32_t base = kAmfMgAdjBase + d * 0x10;
    AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                           r.Array<uint64_t>(base + 0));
    AMBER_ASSIGN_OR_RETURN(std::span<const GroupEntry> groups,
                           r.Array<GroupEntry>(base + 1));
    AMBER_ASSIGN_OR_RETURN(std::span<const EdgeTypeId> types,
                           r.Array<EdgeTypeId>(base + 2));
    AMBER_RETURN_IF_ERROR(ValidateOffsets(offsets, num_vertices_ + 1,
                                          groups.size(), "adjacency"));
    // Per-group ranges index into the types pool and neighbor ids index
    // the vertex space; a crafted artifact must not be able to point query-
    // time reads outside either.
    for (const GroupEntry& g : groups) {
      if (g.neighbor >= num_vertices_ ||
          static_cast<uint64_t>(g.type_begin) + g.type_count >
              types.size()) {
        return Status::Corruption("adjacency group out of range");
      }
    }
    adj_[d].offsets = ArrayRef<uint64_t>::Borrowed(offsets);
    adj_[d].groups = ArrayRef<GroupEntry>::Borrowed(groups);
    adj_[d].types = ArrayRef<EdgeTypeId>::Borrowed(types);
  }
  AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> attr_offsets,
                         r.Array<uint64_t>(kAmfMgAttrOffsets));
  AMBER_ASSIGN_OR_RETURN(std::span<const AttributeId> attr_pool,
                         r.Array<AttributeId>(kAmfMgAttrPool));
  AMBER_RETURN_IF_ERROR(ValidateOffsets(attr_offsets, num_vertices_ + 1,
                                        attr_pool.size(), "attribute"));
  attr_offsets_ = ArrayRef<uint64_t>::Borrowed(attr_offsets);
  attr_pool_ = ArrayRef<AttributeId>::Borrowed(attr_pool);
  return Status::OK();
}

}  // namespace amber
