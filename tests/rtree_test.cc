// Property tests for the 8-D R-tree: dominance query results must equal a
// brute-force scan for every (size, shape, seed) combination, including
// degenerate trees (empty, single point, all-identical points).

#include <gtest/gtest.h>

#include "index/rtree.h"
#include "test_util.h"
#include "util/random.h"

namespace amber {
namespace {

std::vector<Synopsis> RandomPoints(uint64_t seed, size_t n, int32_t range) {
  Rng rng(seed);
  std::vector<Synopsis> points(n);
  for (Synopsis& p : points) {
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      // f3 fields are negated mins: allow negative coordinates everywhere.
      p.f[i] = static_cast<int32_t>(rng.UniformRange(-range, range));
    }
  }
  return points;
}

std::vector<uint32_t> BruteForceDominating(const std::vector<Synopsis>& pts,
                                           const Synopsis& q) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < pts.size(); ++i) {
    if (pts[i].Dominates(q)) out.push_back(i);
  }
  return out;
}

TEST(RTreeTest, EmptyTree) {
  SynopsisRTree tree = SynopsisRTree::Build({});
  std::vector<uint32_t> out;
  tree.QueryDominating(Synopsis{}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.NumPoints(), 0u);
}

TEST(RTreeTest, SinglePoint) {
  Synopsis p;
  p.f = {1, 2, 3, 4, 5, 6, 7, 8};
  SynopsisRTree tree = SynopsisRTree::Build(std::vector<Synopsis>{p});
  std::vector<uint32_t> out;
  tree.QueryDominating(Synopsis{}, &out);  // all-zero query: p >= 0
  EXPECT_EQ(out, std::vector<uint32_t>{0});
  out.clear();
  Synopsis q = p;
  q.f[3] += 1;  // now p no longer dominates
  tree.QueryDominating(q, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeTest, AllIdenticalPoints) {
  Synopsis p;
  p.f = {2, 2, 2, 2, 2, 2, 2, 2};
  std::vector<Synopsis> pts(500, p);
  SynopsisRTree tree = SynopsisRTree::Build(pts);
  std::vector<uint32_t> out;
  tree.QueryDominating(p, &out);
  EXPECT_EQ(out.size(), 500u);
  // Sorted ascending ids.
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

struct RTreeParam {
  size_t num_points;
  int32_t coord_range;
  uint64_t seed;
};

class RTreePropertyTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreePropertyTest, MatchesBruteForceScan) {
  const RTreeParam param = GetParam();
  std::vector<Synopsis> pts =
      RandomPoints(param.seed, param.num_points, param.coord_range);
  SynopsisRTree tree = SynopsisRTree::Build(pts);

  Rng rng(param.seed ^ 0xABCDEF);
  for (int trial = 0; trial < 50; ++trial) {
    Synopsis q;
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      q.f[i] = static_cast<int32_t>(
          rng.UniformRange(-param.coord_range, param.coord_range));
    }
    std::vector<uint32_t> got;
    tree.QueryDominating(q, &got);
    EXPECT_EQ(got, BruteForceDominating(pts, q)) << "trial " << trial;
  }
  // Also query with existing points (guaranteed non-empty results).
  for (int trial = 0; trial < 20 && !pts.empty(); ++trial) {
    const Synopsis& q = pts[rng.Uniform(pts.size())];
    std::vector<uint32_t> got;
    tree.QueryDominating(q, &got);
    EXPECT_EQ(got, BruteForceDominating(pts, q));
    EXPECT_FALSE(got.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreePropertyTest,
    ::testing::Values(RTreeParam{1, 3, 1}, RTreeParam{10, 2, 2},
                      RTreeParam{100, 5, 3}, RTreeParam{100, 1, 4},
                      RTreeParam{1000, 8, 5}, RTreeParam{1000, 2, 6},
                      RTreeParam{5000, 20, 7}, RTreeParam{5000, 3, 8},
                      RTreeParam{20000, 10, 9}),
    [](const ::testing::TestParamInfo<RTreeParam>& info) {
      std::string name = "n";
      name += std::to_string(info.param.num_points);
      name += "_r";
      name += std::to_string(info.param.coord_range);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(RTreeTest, BulkAcceptPathIsExercised) {
  // Many points far above the query: the all-inside fast path must fire and
  // still produce exact results.
  std::vector<Synopsis> pts;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    Synopsis p;
    for (int j = 0; j < Synopsis::kNumFields; ++j) {
      p.f[j] = 100 + static_cast<int32_t>(rng.Uniform(10));
    }
    pts.push_back(p);
  }
  SynopsisRTree tree = SynopsisRTree::Build(pts);
  Synopsis q;
  q.f = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<uint32_t> out;
  tree.QueryDominating(q, &out);
  EXPECT_EQ(out.size(), 2000u);
}

TEST(RTreeTest, SaveLoadRoundTrip) {
  std::vector<Synopsis> pts = RandomPoints(77, 3000, 10);
  SynopsisRTree tree = SynopsisRTree::Build(pts);
  auto sections = testutil::WriteAndMapSections(
      "rtree", [&](amf::Writer* w) { tree.SaveAmf(w); });
  SynopsisRTree loaded;
  ASSERT_TRUE(loaded.LoadAmf(sections.reader).ok());
  EXPECT_EQ(loaded.NumPoints(), tree.NumPoints());
  EXPECT_EQ(loaded.NumNodes(), tree.NumNodes());
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Synopsis q;
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      q.f[i] = static_cast<int32_t>(rng.UniformRange(-10, 10));
    }
    std::vector<uint32_t> a, b;
    tree.QueryDominating(q, &a);
    loaded.QueryDominating(q, &b);
    EXPECT_EQ(a, b);
  }
}

TEST(RTreeTest, CustomFanoutStillExact) {
  std::vector<Synopsis> pts = RandomPoints(31, 4000, 6);
  SynopsisRTree::Options opts;
  opts.leaf_capacity = 4;
  opts.fanout = 3;
  SynopsisRTree tree = SynopsisRTree::Build(pts, opts);
  Rng rng(32);
  for (int trial = 0; trial < 30; ++trial) {
    Synopsis q;
    for (int i = 0; i < Synopsis::kNumFields; ++i) {
      q.f[i] = static_cast<int32_t>(rng.UniformRange(-6, 6));
    }
    std::vector<uint32_t> got;
    tree.QueryDominating(q, &got);
    EXPECT_EQ(got, BruteForceDominating(pts, q));
  }
}

}  // namespace
}  // namespace amber
