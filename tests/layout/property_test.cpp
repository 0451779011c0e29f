// Randomized property tests over the striping layer: for arbitrary
// geometries and regions, the brick maps must tile exactly, the run
// enumeration must cover the request buffer exactly once, and planning must
// conserve bytes regardless of combination or placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "layout/plan.h"

namespace dpfs::layout {
namespace {

struct GeometryCase {
  std::uint64_t seed;
  int level;  // 0 linear-array, 1 multidim, 2 array
};

class RandomGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  /// Builds a random map + in-bounds region from the parameterized seed.
  void Build() {
    const auto [level, seed] = GetParam();
    SplitMix64 rng(static_cast<std::uint64_t>(seed) * 7919 + level);
    const std::size_t rank = 1 + rng.NextBelow(3);
    Shape shape(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      shape[d] = 1 + rng.NextBelow(40);
    }
    element_size_ = 1 + rng.NextBelow(8);

    switch (level) {
      case 0: {
        const std::uint64_t brick_bytes = 1 + rng.NextBelow(64);
        map_ = BrickMap::LinearArray(shape, element_size_, brick_bytes).value();
        break;
      }
      case 1: {
        Shape brick(rank);
        for (std::size_t d = 0; d < rank; ++d) {
          brick[d] = 1 + rng.NextBelow(shape[d]);
        }
        map_ = BrickMap::Multidim(shape, brick, element_size_).value();
        break;
      }
      case 2: {
        // Array level needs divisible dims; force them.
        HpfPattern pattern;
        ProcessGrid grid;
        for (std::size_t d = 0; d < rank; ++d) {
          const bool block = rng.NextBelow(2) == 0 || d == 0;
          pattern.dims.push_back(block ? DimDist::kBlock : DimDist::kStar);
          if (block) {
            const std::uint64_t parts = 1 + rng.NextBelow(4);
            shape[d] = ((shape[d] + parts - 1) / parts) * parts;
            grid.grid.push_back(parts);
          }
        }
        map_ = BrickMap::Array(shape, pattern, grid, element_size_).value();
        break;
      }
    }
    shape_ = map_.array_shape();
    region_.lower.resize(rank);
    region_.extent.resize(rank);
    for (std::size_t d = 0; d < rank; ++d) {
      region_.lower[d] = rng.NextBelow(shape_[d]);
      region_.extent[d] = 1 + rng.NextBelow(shape_[d] - region_.lower[d]);
    }
  }

  BrickMap map_;
  Shape shape_;
  Region region_;
  std::uint64_t element_size_ = 1;
};

TEST_P(RandomGeometryTest, WholeArraySummaryTilesExactly) {
  Build();
  Region all;
  all.lower.assign(shape_.size(), 0);
  all.extent = shape_;
  const auto usage = map_.SummarizeRegion(all).value();
  std::uint64_t total = 0;
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.useful_bytes, map_.brick_valid_bytes(brick));
    total += brick_usage.useful_bytes;
  }
  EXPECT_EQ(total, NumElements(shape_) * element_size_);
}

TEST_P(RandomGeometryTest, RunsCoverBufferExactlyOnce) {
  Build();
  const std::uint64_t buffer_bytes = region_.num_elements() * element_size_;
  std::vector<int> coverage(buffer_bytes, 0);
  std::uint64_t expected_offset = 0;
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    EXPECT_EQ(run.buffer_offset, expected_offset);
    expected_offset += run.length;
    EXPECT_LT(run.brick, map_.num_bricks());
    EXPECT_LE(run.offset_in_brick + run.length, map_.brick_bytes());
    for (std::uint64_t i = 0; i < run.length; ++i) {
      coverage.at(run.buffer_offset + i) += 1;
    }
  }).ok());
  EXPECT_EQ(expected_offset, buffer_bytes);
  for (std::uint64_t i = 0; i < buffer_bytes; ++i) {
    ASSERT_EQ(coverage[i], 1) << "byte " << i;
  }
}

TEST_P(RandomGeometryTest, SummaryAgreesWithRunEnumeration) {
  Build();
  const auto usage = map_.SummarizeRegion(region_).value();
  std::map<BrickId, std::uint64_t> bytes_by_brick;
  std::map<BrickId, std::uint64_t> runs_by_brick;
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    bytes_by_brick[run.brick] += run.length;
    runs_by_brick[run.brick] += 1;
  }).ok());
  ASSERT_EQ(usage.size(), bytes_by_brick.size());
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.useful_bytes, bytes_by_brick.at(brick));
    EXPECT_EQ(brick_usage.num_runs, runs_by_brick.at(brick));
    EXPECT_GE(brick_usage.fragments, 1u);
    EXPECT_LE(brick_usage.fragments, brick_usage.num_runs);
  }
}

TEST_P(RandomGeometryTest, FragmentCountMatchesCoalescedRuns) {
  // The analytic fragment count must equal what actually coalescing the
  // enumerated runs produces.
  Build();
  const auto usage = map_.SummarizeRegion(region_).value();
  std::map<BrickId, std::uint64_t> coalesced;
  std::map<BrickId, std::uint64_t> last_end;
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    const auto it = last_end.find(run.brick);
    if (it == last_end.end() || it->second != run.offset_in_brick) {
      coalesced[run.brick] += 1;
    }
    last_end[run.brick] = run.offset_in_brick + run.length;
  }).ok());
  for (const auto& [brick, brick_usage] : usage) {
    EXPECT_EQ(brick_usage.fragments, coalesced.at(brick))
        << "brick " << brick;
  }
}

TEST_P(RandomGeometryTest, RunsStayInsideTheFetchedBrickImage) {
  // Whole-brick reads fetch brick_fetch_bytes; every scatter run must land
  // inside that image (edge tiles keep full-tile offsets, so valid_bytes is
  // NOT the right bound — this property caught that bug).
  Build();
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    EXPECT_LE(run.offset_in_brick + run.length,
              map_.brick_fetch_bytes(run.brick))
        << "brick " << run.brick;
  }).ok());
}

TEST_P(RandomGeometryTest, PlanConservesBytesAcrossOptions) {
  Build();
  SplitMix64 rng(std::get<1>(GetParam()) * 31 + 5);
  std::vector<std::uint32_t> perf(1 + rng.NextBelow(6));
  for (std::uint32_t& p : perf) {
    p = 1 + static_cast<std::uint32_t>(rng.NextBelow(4));
  }
  const BrickDistribution dist =
      BrickDistribution::Greedy(map_.num_bricks(), perf).value();
  PlanOptions general;
  general.combine = false;
  PlanOptions combined;
  combined.combine = true;
  const ClientPlan plan_g =
      PlanRegionAccess(map_, dist, 0, region_, general).value();
  const ClientPlan plan_c =
      PlanRegionAccess(map_, dist, 0, region_, combined).value();
  EXPECT_EQ(plan_g.useful_bytes(), plan_c.useful_bytes());
  EXPECT_EQ(plan_g.useful_bytes(),
            region_.num_elements() * element_size_);
  EXPECT_LE(plan_c.num_requests(), plan_g.num_requests());
  EXPECT_LE(plan_c.num_requests(), perf.size());
  // Each request targets the server that actually owns its bricks.
  for (const ClientPlan* plan : {&plan_g, &plan_c}) {
    for (const ServerRequest& request : plan->requests) {
      for (const BrickRequest& brick : request.bricks) {
        EXPECT_EQ(dist.server_for(brick.brick), request.server);
      }
    }
  }
}

TEST_P(RandomGeometryTest, RotationIsAPermutationOfRequests) {
  Build();
  const BrickDistribution dist =
      BrickDistribution::RoundRobin(map_.num_bricks(), 4).value();
  PlanOptions rotated;
  rotated.combine = true;
  rotated.rotate_start = true;
  PlanOptions unrotated;
  unrotated.combine = true;
  unrotated.rotate_start = false;
  for (std::uint32_t client = 0; client < 5; ++client) {
    const ClientPlan a =
        PlanRegionAccess(map_, dist, client, region_, rotated).value();
    const ClientPlan b =
        PlanRegionAccess(map_, dist, client, region_, unrotated).value();
    ASSERT_EQ(a.num_requests(), b.num_requests());
    std::multiset<ServerId> servers_a;
    std::multiset<ServerId> servers_b;
    for (const ServerRequest& request : a.requests) {
      servers_a.insert(request.server);
    }
    for (const ServerRequest& request : b.requests) {
      servers_b.insert(request.server);
    }
    EXPECT_EQ(servers_a, servers_b);
  }
}

/// Checks one request's lowering: the extents carry the request's transfer
/// bytes, the pieces are sorted and each lies inside one extent, and every
/// piece's buffer bytes are counted in `coverage`.
void CheckLowering(const ServerRequest& request, const LoweredRequest& lowered,
                   std::vector<int>& coverage) {
  std::uint64_t wire = 0;
  std::vector<std::uint64_t> extent_ends;
  for (const WireExtent& extent : lowered.extents) {
    EXPECT_GT(extent.length, 0u);
    wire += extent.length;
    extent_ends.push_back(wire);
  }
  EXPECT_EQ(wire, request.transfer_bytes());
  std::uint64_t prev = 0;
  for (const BufferPiece& piece : lowered.pieces) {
    EXPECT_GE(piece.wire_offset, prev);
    prev = piece.wire_offset;
    // The piece ends inside the extent it starts in.
    const auto end = std::upper_bound(extent_ends.begin(), extent_ends.end(),
                                      piece.wire_offset);
    ASSERT_NE(end, extent_ends.end());
    EXPECT_LE(piece.wire_offset + piece.length, *end);
    for (std::uint64_t i = 0; i < piece.length; ++i) {
      coverage.at(piece.buffer_offset + i) += 1;
    }
  }
}

TEST_P(RandomGeometryTest, LoweringTilesTheBufferInEveryMode) {
  Build();
  SplitMix64 rng(std::get<1>(GetParam()) * 53 + 11);
  std::vector<std::uint32_t> perf(1 + rng.NextBelow(5));
  for (std::uint32_t& p : perf) {
    p = 1 + static_cast<std::uint32_t>(rng.NextBelow(4));
  }
  const BrickDistribution dist =
      BrickDistribution::Greedy(map_.num_bricks(), perf).value();
  RunsByBrick runs;
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    runs[run.brick].push_back(run);
  }).ok());
  const std::uint64_t buffer_bytes = region_.num_elements() * element_size_;

  struct Mode {
    IoDirection direction;
    bool whole_bricks;
  };
  for (const Mode mode : {Mode{IoDirection::kRead, true},
                          Mode{IoDirection::kRead, false},
                          Mode{IoDirection::kWrite, false}}) {
    PlanOptions options;
    options.direction = mode.direction;
    options.whole_brick_reads = mode.whole_bricks;
    options.combine = rng.NextBelow(2) == 0;
    const ClientPlan plan =
        PlanRegionAccess(map_, dist, 0, region_, options).value();
    std::vector<int> coverage(buffer_bytes, 0);
    for (const ServerRequest& request : plan.requests) {
      const LoweredRequest lowered =
          LowerRequest(request, dist, map_, runs, mode.whole_bricks);
      CheckLowering(request, lowered, coverage);
      if (mode.whole_bricks) {
        // One extent per brick: its slot, at the (edge-aware) fetch length.
        ASSERT_EQ(lowered.extents.size(), request.bricks.size());
        for (std::size_t i = 0; i < request.bricks.size(); ++i) {
          const BrickId brick = request.bricks[i].brick;
          EXPECT_EQ(lowered.extents[i],
                    (WireExtent{dist.slot_for(brick) * map_.brick_bytes(),
                                map_.brick_fetch_bytes(brick)}));
        }
      }
    }
    for (std::uint64_t i = 0; i < buffer_bytes; ++i) {
      ASSERT_EQ(coverage[i], 1) << "byte " << i << " whole_bricks "
                                << mode.whole_bricks;
    }
  }

  // List I/O over the same bytes, on the linear level: the region's runs
  // flattened to file extents.
  if (map_.level() != FileLevel::kLinear) return;
  std::vector<FileExtent> extents;
  ASSERT_TRUE(map_.ForEachRun(region_, [&](const BrickRun& run) {
    const std::uint64_t offset =
        run.brick * map_.brick_bytes() + run.offset_in_brick;
    if (!extents.empty() &&
        extents.back().offset + extents.back().length == offset) {
      extents.back().length += run.length;
    } else {
      extents.push_back({offset, run.length});
    }
  }).ok());
  const ClientPlan plan =
      PlanListAccess(map_, dist, 0, extents, PlanOptions{}).value();
  std::vector<int> coverage(buffer_bytes, 0);
  for (const ServerRequest& request : plan.requests) {
    const LoweredRequest lowered =
        LowerRequest(request, dist, map_, {}, /*whole_bricks=*/false);
    CheckLowering(request, lowered, coverage);
    for (std::size_t i = 1; i < lowered.extents.size(); ++i) {
      EXPECT_GT(lowered.extents[i].subfile_offset,
                lowered.extents[i - 1].subfile_offset +
                    lowered.extents[i - 1].length - 1)
          << "list extents must be strictly ascending";
    }
  }
  for (std::uint64_t i = 0; i < buffer_bytes; ++i) {
    ASSERT_EQ(coverage[i], 1) << "list byte " << i;
  }
}

std::string GeometryCaseName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
  static constexpr const char* kLevels[] = {"LinearArray", "Multidim",
                                            "Array"};
  return std::string(kLevels[std::get<0>(param_info.param)]) + "Seed" +
         std::to_string(std::get<1>(param_info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGeometryTest,
    ::testing::Combine(::testing::Values(0, 1, 2),   // level
                       ::testing::Range(0, 20)),     // seed
    GeometryCaseName);

class GreedyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyPropertyTest, FasterServersNeverGetFewerBricks) {
  SplitMix64 rng(GetParam() * 97 + 13);
  std::vector<std::uint32_t> perf(2 + rng.NextBelow(6));
  for (std::uint32_t& p : perf) {
    p = 1 + static_cast<std::uint32_t>(rng.NextBelow(5));
  }
  const std::uint64_t bricks = 50 + rng.NextBelow(500);
  const BrickDistribution dist =
      BrickDistribution::Greedy(bricks, perf).value();
  for (std::size_t a = 0; a < perf.size(); ++a) {
    for (std::size_t b = 0; b < perf.size(); ++b) {
      if (perf[a] < perf[b]) {
        EXPECT_GE(dist.bricks_on(static_cast<ServerId>(a)).size() + 1,
                  dist.bricks_on(static_cast<ServerId>(b)).size())
            << "perf " << perf[a] << " vs " << perf[b];
      }
    }
  }
}

TEST_P(GreedyPropertyTest, LoadIsBalancedInWeightedTerms) {
  // After placement, A[k] = count_k * P_k should be near-equal: the greedy
  // rule keeps max(A) - min(A) <= max(P).
  SplitMix64 rng(GetParam() * 131 + 7);
  std::vector<std::uint32_t> perf(2 + rng.NextBelow(5));
  std::uint32_t max_perf = 1;
  for (std::uint32_t& p : perf) {
    p = 1 + static_cast<std::uint32_t>(rng.NextBelow(6));
    max_perf = std::max(max_perf, p);
  }
  const std::uint64_t bricks = 200 + rng.NextBelow(800);
  const BrickDistribution dist =
      BrickDistribution::Greedy(bricks, perf).value();
  std::uint64_t min_load = ~0ull;
  std::uint64_t max_load = 0;
  for (std::size_t k = 0; k < perf.size(); ++k) {
    const std::uint64_t load =
        dist.bricks_on(static_cast<ServerId>(k)).size() * perf[k];
    min_load = std::min(min_load, load);
    max_load = std::max(max_load, load);
  }
  EXPECT_LE(max_load - min_load, max_perf);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedyPropertyTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace dpfs::layout
