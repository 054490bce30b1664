// Unit tests for the ValueIndex: typed-value classification, numeric and
// string range scans (bounds, exclusions, dedup), selectivity estimates,
// residual vertex checks, stream round trip, and AMF corruption discipline.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "core/amber_engine.h"
#include "index/value_index.h"
#include "rdf/encoded_dataset.h"
#include "test_util.h"
#include "util/mmap_file.h"

namespace amber {
namespace {

constexpr const char* kXsdInt = "http://www.w3.org/2001/XMLSchema#integer";
constexpr const char* kXsdDec = "http://www.w3.org/2001/XMLSchema#decimal";

struct Fixture {
  EncodedDataset dataset;
  Multigraph graph;
  ValueIndex index;
  RdfDictionaries dicts;
};

// e0..e3 with ages {10, 25, 25, 40}; names {"ann", "bob", "ann"}; e0 also
// has a non-numeric "age" (string "old") and an edge so the graph has both
// kinds of triples.
Fixture MakeFixture() {
  auto iri = [](const std::string& s) { return Term::Iri("urn:" + s); };
  std::vector<Triple> triples = {
      {iri("e0"), iri("age"), Term::Literal("10", kXsdInt)},
      {iri("e1"), iri("age"), Term::Literal("25", kXsdInt)},
      {iri("e2"), iri("age"), Term::Literal("25.0", kXsdDec)},
      {iri("e3"), iri("age"), Term::Literal("40", kXsdInt)},
      {iri("e0"), iri("age"), Term::Literal("old")},
      {iri("e0"), iri("name"), Term::Literal("ann")},
      {iri("e1"), iri("name"), Term::Literal("bob")},
      {iri("e2"), iri("name"), Term::Literal("ann")},
      {iri("e0"), iri("knows"), iri("e1")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  EXPECT_TRUE(encoded.ok());
  Fixture f;
  f.dataset = std::move(encoded).value();
  f.graph = Multigraph::FromDataset(f.dataset);
  f.index = ValueIndex::Build(f.graph, f.dataset.attribute_values,
                              f.dataset.dictionaries.attr_predicates().size());
  f.dicts = std::move(f.dataset.dictionaries);
  return f;
}

AttrPredId PredOf(const Fixture& f, const std::string& iri) {
  auto id = f.dicts.attr_predicates().Find(iri);
  EXPECT_TRUE(id.has_value()) << iri;
  return id.value_or(kInvalidId);
}

ValueComparison Num(CompareOp op, double v) {
  ValueComparison c;
  c.op = op;
  c.value.numeric = true;
  c.value.number = v;
  return c;
}

ValueComparison Str(CompareOp op, std::string s) {
  ValueComparison c;
  c.op = op;
  c.value.text = std::move(s);
  return c;
}

std::vector<VertexId> Scan(const ValueIndex& index, AttrPredId pred,
                           std::vector<ValueComparison> cmps) {
  std::vector<VertexId> out;
  index.RangeScan(pred, cmps, &out);
  return out;
}

TEST(ValueIndexTest, EncodeSurfacesTypedValues) {
  Fixture f = MakeFixture();
  // 7 distinct <predicate, literal> pairs; 2 attribute predicates.
  EXPECT_EQ(f.index.NumAttributes(), 7u);
  EXPECT_EQ(f.index.NumPredicates(), 2u);
  // "25" (int) and "25.0" (decimal) are distinct attributes with the same
  // numeric value; "old" under age is a string value.
  AttrPredId age = PredOf(f, "urn:age");
  EXPECT_EQ(Scan(f.index, age, {Num(CompareOp::kEq, 25)}).size(), 2u);
  EXPECT_EQ(Scan(f.index, age, {Str(CompareOp::kEq, "old")}).size(), 1u);
}

TEST(ValueIndexTest, NumericRangeScans) {
  Fixture f = MakeFixture();
  AttrPredId age = PredOf(f, "urn:age");
  VertexId e0 = *f.dicts.vertices().Find("<urn:e0>");
  VertexId e1 = *f.dicts.vertices().Find("<urn:e1>");
  VertexId e2 = *f.dicts.vertices().Find("<urn:e2>");
  VertexId e3 = *f.dicts.vertices().Find("<urn:e3>");

  EXPECT_EQ(Scan(f.index, age, {Num(CompareOp::kGt, 10)}),
            testutil::CanonicalIds({e1, e2, e3}));
  EXPECT_EQ(Scan(f.index, age, {Num(CompareOp::kGe, 10)}),
            testutil::CanonicalIds({e0, e1, e2, e3}));
  EXPECT_EQ(Scan(f.index, age, {Num(CompareOp::kLt, 25)}),
            testutil::CanonicalIds({e0}));
  EXPECT_EQ(Scan(f.index, age,
                 {Num(CompareOp::kGe, 20), Num(CompareOp::kLe, 30)}),
            testutil::CanonicalIds({e1, e2}));
  EXPECT_EQ(Scan(f.index, age, {Num(CompareOp::kNe, 25)}),
            testutil::CanonicalIds({e0, e3}));
  EXPECT_TRUE(Scan(f.index, age,
                   {Num(CompareOp::kGt, 30), Num(CompareOp::kLt, 20)})
                  .empty());
  // Mixed-kind conjunctions are unsatisfiable.
  EXPECT_TRUE(
      Scan(f.index, age, {Num(CompareOp::kGt, 0), Str(CompareOp::kEq, "old")})
          .empty());
}

TEST(ValueIndexTest, StringRangeScans) {
  Fixture f = MakeFixture();
  AttrPredId name = PredOf(f, "urn:name");
  VertexId e0 = *f.dicts.vertices().Find("<urn:e0>");
  VertexId e1 = *f.dicts.vertices().Find("<urn:e1>");
  VertexId e2 = *f.dicts.vertices().Find("<urn:e2>");

  EXPECT_EQ(Scan(f.index, name, {Str(CompareOp::kEq, "ann")}),
            testutil::CanonicalIds({e0, e2}));
  EXPECT_EQ(Scan(f.index, name, {Str(CompareOp::kGt, "ann")}),
            testutil::CanonicalIds({e1}));
  EXPECT_EQ(Scan(f.index, name, {Str(CompareOp::kLe, "bob")}),
            testutil::CanonicalIds({e0, e1, e2}));
  EXPECT_EQ(Scan(f.index, name, {Str(CompareOp::kNe, "ann")}),
            testutil::CanonicalIds({e1}));
}

TEST(ValueIndexTest, EstimateTracksRangeWidth) {
  Fixture f = MakeFixture();
  AttrPredId age = PredOf(f, "urn:age");
  // 4 numeric entries in total.
  EXPECT_EQ(f.index.EstimateRange(
                age, std::vector<ValueComparison>{Num(CompareOp::kGe, 0)}),
            4u);
  EXPECT_EQ(f.index.EstimateRange(
                age, std::vector<ValueComparison>{Num(CompareOp::kGt, 25)}),
            1u);
  EXPECT_EQ(f.index.EstimateRange(
                age, std::vector<ValueComparison>{Num(CompareOp::kEq, 25)}),
            2u);
  // Unknown predicate id.
  EXPECT_EQ(f.index.EstimateRange(
                999, std::vector<ValueComparison>{Num(CompareOp::kGe, 0)}),
            0u);
}

TEST(ValueIndexTest, VertexMatchesIsResidualTruth) {
  Fixture f = MakeFixture();
  AttrPredId age = PredOf(f, "urn:age");
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    std::vector<ValueComparison> cmps = {Num(CompareOp::kGt, 20)};
    std::vector<VertexId> scanned = Scan(f.index, age, cmps);
    const bool in_scan =
        std::binary_search(scanned.begin(), scanned.end(), v);
    EXPECT_EQ(f.index.VertexMatches(f.graph.Attributes(v), age, cmps),
              in_scan)
        << "vertex " << v;
  }
}

TEST(ValueIndexTest, AmfRoundTrip) {
  Fixture f = MakeFixture();
  auto sections = testutil::WriteAndMapSections(
      "value_index", [&](amf::Writer* w) { f.index.SaveAmf(w); });
  ValueIndex loaded;
  ASSERT_TRUE(loaded.LoadAmf(sections.reader, f.graph.NumVertices()).ok());
  EXPECT_TRUE(loaded == f.index);
}

// AMF corruption: flipping a value-index section's contents must surface
// as Status::Corruption at OpenFile, with the same discipline as the
// other indexes.
TEST(ValueIndexTest, AmfCorruptionRejected) {
  auto data = testutil::RandomDataset(3, 12, 60, 3, 4, 30);
  auto engine = AmberEngine::Build(data);
  ASSERT_TRUE(engine.ok());
  const std::string path = testing::TempDir() + "/value_index_corrupt.amf";
  ASSERT_TRUE(engine->SaveFile(path).ok());

  std::ifstream is(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  auto find_section = [&](uint32_t id) -> amf::SectionEntry {
    for (uint64_t i = 0; i < header.section_count; ++i) {
      amf::SectionEntry entry;
      std::memcpy(&entry, bytes.data() + sizeof(header) + i * sizeof(entry),
                  sizeof(entry));
      if (entry.id == id) return entry;
    }
    ADD_FAILURE() << "section " << id << " not found";
    return {};
  };

  // 0x6007 = numeric column vertices: out-of-range vertex id.
  {
    amf::SectionEntry section = find_section(0x6007);
    ASSERT_GE(section.length, sizeof(uint32_t));
    std::vector<char> patched = bytes;
    uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(patched.data() + section.offset, &huge, sizeof(huge));
    const std::string bad = testing::TempDir() + "/value_index_bad1.amf";
    std::ofstream os(bad, std::ios::binary | std::ios::trunc);
    os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    os.close();
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt value-index vertex";
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
  // 0x6000 = attribute predicate table: id beyond the predicate space.
  {
    amf::SectionEntry section = find_section(0x6000);
    ASSERT_GE(section.length, sizeof(uint32_t));
    std::vector<char> patched = bytes;
    uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(patched.data() + section.offset, &huge, sizeof(huge));
    const std::string bad = testing::TempDir() + "/value_index_bad2.amf";
    std::ofstream os(bad, std::ios::binary | std::ios::trunc);
    os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    os.close();
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt attribute predicate";
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
}

// The mmap-restored index serves the same scans as the built one, borrowed
// straight from the mapping.
TEST(ValueIndexTest, MmapRestoredScansAgree) {
  auto data = testutil::RandomDataset(5, 15, 80, 3, 4, 40);
  auto built = AmberEngine::Build(data);
  ASSERT_TRUE(built.ok());
  const std::string path = testing::TempDir() + "/value_index_mmap.amf";
  ASSERT_TRUE(built->SaveFile(path).ok());
  auto mapped = AmberEngine::OpenFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  for (AttrPredId p = 0;
       p < built->dictionaries().attr_predicates().size(); ++p) {
    for (double threshold : {0.0, 10.0, 25.0, 49.0}) {
      std::vector<ValueComparison> cmps = {Num(CompareOp::kGt, threshold)};
      std::vector<VertexId> a, b;
      built->indexes().value.RangeScan(p, cmps, &a);
      mapped->indexes().value.RangeScan(p, cmps, &b);
      EXPECT_EQ(a, b) << "pred " << p << " > " << threshold;
    }
  }
}

}  // namespace
}  // namespace amber
