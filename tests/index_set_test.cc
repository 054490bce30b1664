// Tests for the IndexSet ensemble: joint build, byte accounting, and the
// combined AMF save/load round trip used by the offline stage.

#include <gtest/gtest.h>

#include "index/index_set.h"
#include "test_util.h"

namespace amber {
namespace {

TEST(IndexSetTest, BuildAllThree) {
  auto triples = testutil::RandomDataset(4, 40, 200, 6);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  IndexSet set =
      IndexSet::Build(g, encoded->attribute_values,
                      encoded->dictionaries.attr_predicates().size());
  EXPECT_EQ(set.signature.NumVertices(), g.NumVertices());
  EXPECT_EQ(set.neighborhood.NumVertices(), g.NumVertices());
  EXPECT_EQ(set.attribute.NumAttributes(), g.NumAttributes());
  EXPECT_EQ(set.value.NumAttributes(), g.NumAttributes());
  EXPECT_GT(set.ByteSize(), 0u);
  EXPECT_EQ(set.ByteSize(),
            set.attribute.ByteSize() + set.signature.ByteSize() +
                set.neighborhood.ByteSize() + set.value.ByteSize());
}

TEST(IndexSetTest, SaveLoadRoundTripPreservesAnswers) {
  auto triples = testutil::RandomDataset(8, 30, 250, 5);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  IndexSet set =
      IndexSet::Build(g, encoded->attribute_values,
                      encoded->dictionaries.attr_predicates().size());

  auto sections = testutil::WriteAndMapSections(
      "index_set", [&](amf::Writer* w) { set.SaveAmf(w); });
  IndexSet loaded;
  ASSERT_TRUE(loaded.LoadAmf(sections.reader, g.NumVertices()).ok());

  // Compare probe answers from all three indexes.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    Synopsis q = ComputeVertexSynopsis(g, v).NormalizedForQuery();
    EXPECT_EQ(loaded.signature.Candidates(q), set.signature.Candidates(q));
    std::vector<EdgeTypeId> t = {0};
    EXPECT_EQ(loaded.neighborhood.Superset(v, Direction::kIn, t),
              set.neighborhood.Superset(v, Direction::kIn, t));
  }
  for (AttributeId a = 0; a < g.NumAttributes(); ++a) {
    std::vector<AttributeId> attrs = {a};
    EXPECT_EQ(loaded.attribute.Candidates(attrs),
              set.attribute.Candidates(attrs));
  }
}

// Lemma 1 end-to-end at index level: the S candidates for a query synopsis
// derived from a real embedding always contain the embedded vertex.
TEST(IndexSetTest, SignatureIndexCompletenessOnQuerySynopses) {
  auto triples = testutil::RandomDataset(10, 25, 150, 4);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  IndexSet set =
      IndexSet::Build(g, encoded->attribute_values,
                      encoded->dictionaries.attr_predicates().size());
  Rng rng(5);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    SynopsisBuilder qb;
    for (Direction d : {Direction::kIn, Direction::kOut}) {
      const size_t n = g.GroupCount(v, d);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Chance(0.5)) continue;
        qb.AddMultiEdge(d, g.Group(v, d, i).types);
      }
    }
    Synopsis q = qb.Build().NormalizedForQuery();
    auto cand = set.signature.Candidates(q);
    EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), v))
        << "S index dropped vertex " << v;
  }
}

}  // namespace
}  // namespace amber
