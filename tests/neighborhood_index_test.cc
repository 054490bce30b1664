// Property tests for the OTIL neighbourhood index (Section 4.3): superset
// queries must equal a brute-force scan of the adjacency groups for every
// (graph shape, query size, seed) combination; plus structural edge cases.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/multigraph.h"
#include "index/neighborhood_index.h"
#include "test_util.h"
#include "util/random.h"

namespace amber {
namespace {

std::vector<VertexId> BruteForceSuperset(const Multigraph& g, VertexId v,
                                         Direction d,
                                         std::span<const EdgeTypeId> types) {
  std::vector<VertexId> out;
  const size_t n = g.GroupCount(v, d);
  for (size_t i = 0; i < n; ++i) {
    GroupView view = g.Group(v, d, i);
    size_t k = 0;
    bool contains = true;
    for (EdgeTypeId t : types) {
      while (k < view.types.size() && view.types[k] < t) ++k;
      if (k == view.types.size() || view.types[k] != t) {
        contains = false;
        break;
      }
      ++k;
    }
    if (contains) out.push_back(view.neighbor);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(NeighborhoodIndexTest, PaperFigure3Example) {
  // v2's (London's) N+ trie from Figure 3: multi-edges {t1}<-v3, {t5}<-v1
  // and v7, {t6}<-v0, {t4,t5}<-v1.
  Multigraph::Builder b;
  b.AddEdge(3, 1, 2);
  b.AddEdge(1, 5, 2);
  b.AddEdge(7, 5, 2);
  b.AddEdge(0, 6, 2);
  b.AddEdge(1, 4, 2);
  b.EnsureVertexCount(8);
  Multigraph g = std::move(b).Build();
  NeighborhoodIndex index = NeighborhoodIndex::Build(g);

  std::vector<EdgeTypeId> t5 = {5};
  EXPECT_EQ(index.Superset(2, Direction::kIn, t5),
            (std::vector<VertexId>{1, 7}));
  std::vector<EdgeTypeId> t45 = {4, 5};
  EXPECT_EQ(index.Superset(2, Direction::kIn, t45),
            (std::vector<VertexId>{1}));
  std::vector<EdgeTypeId> t6 = {6};
  EXPECT_EQ(index.Superset(2, Direction::kIn, t6),
            (std::vector<VertexId>{0}));
  std::vector<EdgeTypeId> t9 = {9};
  EXPECT_TRUE(index.Superset(2, Direction::kIn, t9).empty());
  // Empty query: all in-neighbours.
  EXPECT_EQ(index.Superset(2, Direction::kIn, {}),
            (std::vector<VertexId>{0, 1, 3, 7}));
  // Out side of v2 is empty here.
  EXPECT_TRUE(index.Superset(2, Direction::kOut, t5).empty());
}

TEST(NeighborhoodIndexTest, SharedPrefixesInTrie) {
  // Multi-edges {1}, {1,2}, {1,2,3}, {1,3}, {2,3} towards vertex 0.
  Multigraph::Builder b;
  b.AddEdge(10, 1, 0);
  b.AddEdge(11, 1, 0);
  b.AddEdge(11, 2, 0);
  b.AddEdge(12, 1, 0);
  b.AddEdge(12, 2, 0);
  b.AddEdge(12, 3, 0);
  b.AddEdge(13, 1, 0);
  b.AddEdge(13, 3, 0);
  b.AddEdge(14, 2, 0);
  b.AddEdge(14, 3, 0);
  Multigraph g = std::move(b).Build();
  NeighborhoodIndex index = NeighborhoodIndex::Build(g);

  std::vector<EdgeTypeId> q1 = {1};
  EXPECT_EQ(index.Superset(0, Direction::kIn, q1),
            (std::vector<VertexId>{10, 11, 12, 13}));
  std::vector<EdgeTypeId> q13 = {1, 3};
  EXPECT_EQ(index.Superset(0, Direction::kIn, q13),
            (std::vector<VertexId>{12, 13}));
  std::vector<EdgeTypeId> q23 = {2, 3};
  EXPECT_EQ(index.Superset(0, Direction::kIn, q23),
            (std::vector<VertexId>{12, 14}));
  std::vector<EdgeTypeId> q123 = {1, 2, 3};
  EXPECT_EQ(index.Superset(0, Direction::kIn, q123),
            (std::vector<VertexId>{12}));
  std::vector<EdgeTypeId> q3 = {3};
  EXPECT_EQ(index.Superset(0, Direction::kIn, q3),
            (std::vector<VertexId>{12, 13, 14}));
}

struct OtilParam {
  int num_entities;
  int num_edges;
  int num_predicates;
  uint64_t seed;
};

class OtilPropertyTest : public ::testing::TestWithParam<OtilParam> {};

TEST_P(OtilPropertyTest, MatchesBruteForceScan) {
  const OtilParam param = GetParam();
  auto triples = testutil::RandomDataset(param.seed, param.num_entities,
                                         param.num_edges,
                                         param.num_predicates);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  NeighborhoodIndex index = NeighborhoodIndex::Build(g);

  Rng rng(param.seed ^ 0x515151);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (Direction d : {Direction::kIn, Direction::kOut}) {
      // Random query type sets of size 0..3.
      for (int trial = 0; trial < 6; ++trial) {
        size_t qsize = rng.Uniform(4);
        std::vector<EdgeTypeId> types;
        for (size_t i = 0; i < qsize; ++i) {
          types.push_back(static_cast<EdgeTypeId>(
              rng.Uniform(param.num_predicates + 2)));  // incl. unknown ids
        }
        std::sort(types.begin(), types.end());
        types.erase(std::unique(types.begin(), types.end()), types.end());
        EXPECT_EQ(index.Superset(v, d, types), BruteForceSuperset(g, v, d,
                                                                  types))
            << "v=" << v << " d=" << static_cast<int>(d);
      }
      // Exact multi-edges of real groups (guaranteed hits).
      const size_t n = g.GroupCount(v, d);
      for (size_t i = 0; i < n && i < 4; ++i) {
        GroupView view = g.Group(v, d, i);
        std::vector<EdgeTypeId> types(view.types.begin(), view.types.end());
        auto got = index.Superset(v, d, types);
        EXPECT_EQ(got, BruteForceSuperset(g, v, d, types));
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(),
                                       view.neighbor));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OtilPropertyTest,
    ::testing::Values(OtilParam{5, 10, 2, 1}, OtilParam{10, 60, 3, 2},
                      OtilParam{20, 200, 4, 3}, OtilParam{30, 400, 8, 4},
                      OtilParam{15, 300, 2, 5}, OtilParam{50, 150, 20, 6},
                      OtilParam{8, 256, 3, 7}),
    [](const ::testing::TestParamInfo<OtilParam>& info) {
      std::string name = "e";
      name += std::to_string(info.param.num_entities);
      name += "_m";
      name += std::to_string(info.param.num_edges);
      name += "_p";
      name += std::to_string(info.param.num_predicates);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(NeighborhoodIndexTest, SaveLoadRoundTrip) {
  auto triples = testutil::RandomDataset(21, 25, 300, 5);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  NeighborhoodIndex index = NeighborhoodIndex::Build(g);

  auto sections = testutil::WriteAndMapSections(
      "neighborhood_index", [&](amf::Writer* w) { index.SaveAmf(w); });
  NeighborhoodIndex loaded;
  ASSERT_TRUE(loaded.LoadAmf(sections.reader).ok());

  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (Direction d : {Direction::kIn, Direction::kOut}) {
      EXPECT_EQ(loaded.Superset(v, d, {}), index.Superset(v, d, {}));
      std::vector<EdgeTypeId> q = {1, 3};
      EXPECT_EQ(loaded.Superset(v, d, q), index.Superset(v, d, q));
    }
  }
}

TEST(NeighborhoodIndexTest, EmptyGraph) {
  Multigraph g = Multigraph::Builder().Build();
  NeighborhoodIndex index = NeighborhoodIndex::Build(g);
  EXPECT_EQ(index.NumVertices(), 0u);
}

}  // namespace
}  // namespace amber
