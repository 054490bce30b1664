// Unit tests for the CSR multigraph: construction, neighbour groups,
// multi-edge lookup, deduplication, attributes, AMF round trip.

#include <gtest/gtest.h>

#include "graph/multigraph.h"
#include "rdf/encoded_dataset.h"
#include "test_util.h"

namespace amber {
namespace {

Multigraph SmallGraph() {
  // 0 --{0,1}--> 1, 0 --{2}--> 2, 2 --{0}--> 1, 1 --{1}--> 1 (self loop).
  Multigraph::Builder b;
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 0, 1);
  b.AddEdge(0, 2, 2);
  b.AddEdge(2, 0, 1);
  b.AddEdge(1, 1, 1);
  b.AddEdge(0, 0, 1);  // duplicate statement: must dedup
  b.AddAttribute(2, 5);
  b.AddAttribute(2, 3);
  b.AddAttribute(2, 3);  // duplicate attribute
  return std::move(b).Build();
}

TEST(MultigraphTest, CountsAndDedup) {
  Multigraph g = SmallGraph();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 5u);  // duplicate (0,0,1) collapsed
  EXPECT_EQ(g.NumEdgeTypes(), 3u);
  EXPECT_EQ(g.NumAttributes(), 6u);  // max attribute id 5 -> id space 6
  EXPECT_EQ(g.NumAttributeAssignments(), 2u);
}

TEST(MultigraphTest, OutGroupsSortedByNeighborWithSortedTypes) {
  Multigraph g = SmallGraph();
  ASSERT_EQ(g.GroupCount(0, Direction::kOut), 2u);
  GroupView g0 = g.Group(0, Direction::kOut, 0);
  EXPECT_EQ(g0.neighbor, 1u);
  ASSERT_EQ(g0.types.size(), 2u);
  EXPECT_EQ(g0.types[0], 0u);
  EXPECT_EQ(g0.types[1], 1u);
  GroupView g1 = g.Group(0, Direction::kOut, 1);
  EXPECT_EQ(g1.neighbor, 2u);
  ASSERT_EQ(g1.types.size(), 1u);
  EXPECT_EQ(g1.types[0], 2u);
}

TEST(MultigraphTest, InGroupsMirrorOutEdges) {
  Multigraph g = SmallGraph();
  // Vertex 1 in-neighbours: 0 (types {0,1}), 1 (self, {1}), 2 ({0}).
  ASSERT_EQ(g.GroupCount(1, Direction::kIn), 3u);
  EXPECT_EQ(g.Group(1, Direction::kIn, 0).neighbor, 0u);
  EXPECT_EQ(g.Group(1, Direction::kIn, 1).neighbor, 1u);
  EXPECT_EQ(g.Group(1, Direction::kIn, 2).neighbor, 2u);
}

TEST(MultigraphTest, MultiEdgeLookup) {
  Multigraph g = SmallGraph();
  auto types = g.MultiEdge(0, Direction::kOut, 1);
  ASSERT_EQ(types.size(), 2u);
  EXPECT_TRUE(g.MultiEdge(1, Direction::kOut, 0).empty());  // no reverse edge
  EXPECT_TRUE(g.MultiEdge(0, Direction::kOut, 0).empty());  // no self loop at 0
  // Directional symmetry: MultiEdge(1, kIn, 0) == MultiEdge(0, kOut, 1).
  auto in_types = g.MultiEdge(1, Direction::kIn, 0);
  ASSERT_EQ(in_types.size(), types.size());
  EXPECT_TRUE(std::equal(types.begin(), types.end(), in_types.begin()));
}

TEST(MultigraphTest, HasEdgeAndSupersets) {
  Multigraph g = SmallGraph();
  EXPECT_TRUE(g.HasEdge(0, 0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1, 1));
  EXPECT_FALSE(g.HasEdge(0, 2, 1));
  EXPECT_TRUE(g.HasEdge(1, 1, 1));  // self loop

  std::vector<EdgeTypeId> both = {0, 1};
  EXPECT_TRUE(g.HasMultiEdgeSuperset(0, Direction::kOut, 1, both));
  std::vector<EdgeTypeId> missing = {0, 2};
  EXPECT_FALSE(g.HasMultiEdgeSuperset(0, Direction::kOut, 1, missing));
  std::vector<EdgeTypeId> empty;
  EXPECT_TRUE(g.HasMultiEdgeSuperset(0, Direction::kOut, 1, empty));
}

TEST(MultigraphTest, AttributesSortedAndDeduped) {
  Multigraph g = SmallGraph();
  auto attrs = g.Attributes(2);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], 3u);
  EXPECT_EQ(attrs[1], 5u);
  EXPECT_TRUE(g.Attributes(0).empty());
}

TEST(MultigraphTest, IsolatedVerticesSupported) {
  Multigraph::Builder b;
  b.AddAttribute(4, 0);  // vertex 4 exists only through an attribute
  b.EnsureVertexCount(7);
  Multigraph g = std::move(b).Build();
  EXPECT_EQ(g.NumVertices(), 7u);
  EXPECT_EQ(g.GroupCount(6, Direction::kOut), 0u);
  EXPECT_EQ(g.Attributes(4).size(), 1u);
}

TEST(MultigraphTest, EmptyGraph) {
  Multigraph g = Multigraph::Builder().Build();
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  // Only the sentinel offset entries remain.
  EXPECT_LE(g.ByteSize(), 64u);
}

TEST(MultigraphTest, FromDatasetUsesDictionarySizes) {
  std::vector<Triple> triples = {
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b")},
      {Term::Iri("urn:c"), Term::Iri("urn:q"), Term::Literal("x")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  EXPECT_EQ(g.NumVertices(), 3u);  // a, b, c
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.NumAttributes(), 1u);
}

TEST(MultigraphTest, SaveLoadRoundTrip) {
  Multigraph g = SmallGraph();
  auto sections = testutil::WriteAndMapSections(
      "multigraph", [&](amf::Writer* w) { g.SaveAmf(w); });
  Multigraph loaded;
  ASSERT_TRUE(loaded.LoadAmf(sections.reader).ok());
  EXPECT_TRUE(loaded == g);
  EXPECT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_TRUE(loaded.HasEdge(1, 1, 1));
}

TEST(MultigraphTest, LoadRejectsCorruptHeader) {
  // The meta section (0x1000) holds the counts every CSR array is checked
  // against: a record of the wrong size, or a vertex count too large to
  // size anything by, must fail before any array is read.
  Multigraph g;
  auto short_meta = testutil::WriteAndMapSections(
      "multigraph_short_meta",
      [](amf::Writer* w) { w->AddOwned<uint32_t>(0x1000, {1, 2, 3}); });
  EXPECT_TRUE(g.LoadAmf(short_meta.reader).IsCorruption());
  auto forged_count = testutil::WriteAndMapSections(
      "multigraph_forged_count", [](amf::Writer* w) {
        w->AddOwned<uint64_t>(0x1000, {1ULL << 50, 0, 0, 0});
      });
  EXPECT_TRUE(g.LoadAmf(forged_count.reader).IsCorruption());
}

}  // namespace
}  // namespace amber
