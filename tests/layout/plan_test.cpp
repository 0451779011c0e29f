#include "layout/plan.h"

#include <gtest/gtest.h>

namespace dpfs::layout {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  // Fig 3's file: 32 bricks over 4 servers round-robin. We model it as a
  // linear byte file of 32 bricks x 8 bytes.
  PlanTest()
      : map_(BrickMap::Linear(32 * 8, 8).value()),
        dist_(BrickDistribution::RoundRobin(32, 4).value()) {}

  BrickMap map_;
  BrickDistribution dist_;
};

TEST_F(PlanTest, UncombinedOneRequestPerBrick) {
  PlanOptions options;
  options.combine = false;
  // Processor 0 accesses bricks 0..7 (bytes 0..64).
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 64, options).value();
  EXPECT_EQ(plan.num_requests(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.requests[i].bricks.size(), 1u);
    EXPECT_EQ(plan.requests[i].bricks[0].brick, i);
    EXPECT_EQ(plan.requests[i].server, i % 4);
  }
}

TEST_F(PlanTest, CombinedOneRequestPerServer) {
  // §4.2: "there are only 4 requests needed for each processor, much
  // smaller than 8 requests of general approach."
  PlanOptions options;
  options.combine = true;
  options.rotate_start = false;
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 64, options).value();
  EXPECT_EQ(plan.num_requests(), 4u);
  for (const ServerRequest& request : plan.requests) {
    EXPECT_EQ(request.bricks.size(), 2u);
  }
  // Client 0's request to server 0 carries bricks 0 and 4.
  EXPECT_EQ(plan.requests[0].server, 0u);
  EXPECT_EQ(plan.requests[0].bricks[0].brick, 0u);
  EXPECT_EQ(plan.requests[0].bricks[1].brick, 4u);
}

TEST_F(PlanTest, RotationStaggersStartServers) {
  PlanOptions options;
  options.combine = true;
  options.rotate_start = true;
  // All four processors access disjoint brick ranges covering all servers.
  for (std::uint32_t client = 0; client < 4; ++client) {
    const ClientPlan plan =
        PlanByteAccess(map_, dist_, client, client * 64, 64, options).value();
    ASSERT_EQ(plan.num_requests(), 4u);
    EXPECT_EQ(plan.requests[0].server, client % 4)
        << "client " << client << " should start on its own server";
  }
}

TEST_F(PlanTest, ReadTransfersWholeBricks) {
  PlanOptions options;
  options.direction = IoDirection::kRead;
  options.combine = false;
  // Read 4 bytes spanning half of brick 1.
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 8, 4, options).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  EXPECT_EQ(plan.requests[0].bricks[0].useful_bytes, 4u);
  EXPECT_EQ(plan.requests[0].bricks[0].transfer_bytes, 8u);  // whole brick
  EXPECT_EQ(plan.transfer_bytes(), 8u);
  EXPECT_EQ(plan.useful_bytes(), 4u);
}

TEST_F(PlanTest, WriteTransfersOnlyUsefulBytes) {
  PlanOptions options;
  options.direction = IoDirection::kWrite;
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 8, 4, options).value();
  EXPECT_EQ(plan.transfer_bytes(), 4u);
  EXPECT_EQ(plan.useful_bytes(), 4u);
}

TEST_F(PlanTest, ReadOfLinearTailBrickTransfersValidBytesOnly) {
  const BrickMap map = BrickMap::Linear(20, 8).value();  // bricks 8,8,4
  const BrickDistribution dist = BrickDistribution::RoundRobin(3, 2).value();
  PlanOptions options;
  options.direction = IoDirection::kRead;
  const ClientPlan plan = PlanByteAccess(map, dist, 0, 16, 4, options).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  EXPECT_EQ(plan.requests[0].bricks[0].transfer_bytes, 4u);
}

TEST_F(PlanTest, CollectivePlanCoversAllClients) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  std::vector<Region> regions;
  for (std::uint64_t c = 0; c < 4; ++c) {
    regions.push_back({{0, c * 2}, {8, 2}});  // (*,BLOCK) with 4 clients
  }
  PlanOptions options;
  options.combine = true;
  const IoPlan plan = PlanCollectiveAccess(map, dist, regions, options).value();
  ASSERT_EQ(plan.clients.size(), 4u);
  EXPECT_EQ(plan.total_useful_bytes(), 64u);
  for (const ClientPlan& client : plan.clients) {
    EXPECT_EQ(client.useful_bytes(), 16u);
  }
}

TEST_F(PlanTest, DistributionSmallerThanFileRejected) {
  const BrickDistribution small = BrickDistribution::RoundRobin(4, 2).value();
  PlanOptions options;
  EXPECT_FALSE(PlanByteAccess(map_, small, 0, 0, 64, options).ok());
}

TEST_F(PlanTest, RegionPlanOnShapedLinearFile) {
  // Fig 5 workload through the planner: 8x8 array, 4-element linear bricks,
  // processor reading two columns touches 8 bricks.
  const BrickMap map = BrickMap::LinearArray({8, 8}, 1, 4).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  PlanOptions options;
  options.combine = false;
  const ClientPlan plan =
      PlanRegionAccess(map, dist, 0, {{0, 0}, {8, 2}}, options).value();
  EXPECT_EQ(plan.num_requests(), 8u);
  // Whole-brick reads: 8 bricks x 4 bytes transferred for 16 useful bytes.
  EXPECT_EQ(plan.transfer_bytes(), 32u);
  EXPECT_EQ(plan.useful_bytes(), 16u);
}

TEST_F(PlanTest, CombineReducesRequestsNotBytes) {
  const BrickMap map = BrickMap::Multidim({8, 8}, {2, 2}, 1).value();
  const BrickDistribution dist = BrickDistribution::RoundRobin(16, 4).value();
  const Region region{{0, 0}, {8, 2}};
  PlanOptions uncombined;
  uncombined.combine = false;
  PlanOptions combined;
  combined.combine = true;
  const ClientPlan plan_u =
      PlanRegionAccess(map, dist, 0, region, uncombined).value();
  const ClientPlan plan_c =
      PlanRegionAccess(map, dist, 0, region, combined).value();
  EXPECT_GT(plan_u.num_requests(), plan_c.num_requests());
  EXPECT_EQ(plan_u.transfer_bytes(), plan_c.transfer_bytes());
  EXPECT_EQ(plan_u.useful_bytes(), plan_c.useful_bytes());
}

TEST_F(PlanTest, BrickOrderPreservedInsideCombinedRequest) {
  PlanOptions options;
  options.combine = true;
  options.rotate_start = false;
  const ClientPlan plan =
      PlanByteAccess(map_, dist_, 0, 0, 32 * 8, options).value();
  for (const ServerRequest& request : plan.requests) {
    for (std::size_t i = 1; i < request.bricks.size(); ++i) {
      EXPECT_LT(request.bricks[i - 1].brick, request.bricks[i].brick);
    }
  }
}

TEST_F(PlanTest, EmptyAccessYieldsEmptyPlan) {
  PlanOptions options;
  const ClientPlan plan = PlanByteAccess(map_, dist_, 0, 0, 0, options).value();
  EXPECT_EQ(plan.num_requests(), 0u);
  EXPECT_EQ(plan.transfer_bytes(), 0u);
}

// --- list I/O (PlanListAccess, docs/NONCONTIGUOUS_IO.md) -------------------

TEST_F(PlanTest, ListAccessOneRequestPerServer) {
  // A strided pattern touching bricks 0..7 (one 2-byte piece each): list
  // I/O always combines, so 4 requests cover 4 servers.
  PlanOptions options;
  options.rotate_start = false;
  std::vector<FileExtent> extents;
  for (std::uint64_t i = 0; i < 8; ++i) extents.push_back({i * 8, 2});
  const ClientPlan plan =
      PlanListAccess(map_, dist_, 0, extents, options).value();
  EXPECT_TRUE(plan.list_io);
  EXPECT_FALSE(plan.whole_brick_reads);
  ASSERT_EQ(plan.num_requests(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const ServerRequest& request = plan.requests[s];
    EXPECT_EQ(request.server, s);
    // Bricks s and s+4 → subfile slots 0 and 1 → extents at 0 and 8.
    ASSERT_EQ(request.list_extents.size(), 2u);
    EXPECT_EQ(request.list_extents[0], (ListExtent{0, 2 * s, 2}));
    EXPECT_EQ(request.list_extents[1], (ListExtent{8, 2 * (s + 4), 2}));
    ASSERT_EQ(request.bricks.size(), 2u);
    EXPECT_EQ(request.bricks[0].brick, s);
    EXPECT_EQ(request.bricks[1].brick, s + 4);
  }
  // List transfers move exactly the useful bytes.
  EXPECT_EQ(plan.transfer_bytes(), 16u);
  EXPECT_EQ(plan.useful_bytes(), 16u);
}

TEST_F(PlanTest, ListAccessMergesAdjacentPieces) {
  // Two touching extents inside one brick merge to one wire extent; a
  // whole-brick-spanning extent also merges across consecutive slots of the
  // same subfile (bricks 0 and 4 are slots 0 and 1 on server 0).
  PlanOptions options;
  options.rotate_start = false;
  const ClientPlan touching =
      PlanListAccess(map_, dist_, 0, {{0, 3}, {3, 2}}, options).value();
  ASSERT_EQ(touching.num_requests(), 1u);
  ASSERT_EQ(touching.requests[0].list_extents.size(), 1u);
  EXPECT_EQ(touching.requests[0].list_extents[0], (ListExtent{0, 0, 5}));
  EXPECT_EQ(touching.requests[0].bricks[0].fragments, 1u);

  // Bytes 0..48 touch bricks 0..5; server 0's pieces (bricks 0 and 4 →
  // slots 0 and 1) are adjacent in the subfile but NOT in the packed
  // buffer (bricks 1..3 sit between them), so they must stay separate.
  const ClientPlan spanning =
      PlanListAccess(map_, dist_, 0, {{0, 48}}, options).value();
  ASSERT_EQ(spanning.num_requests(), 4u);
  EXPECT_EQ(spanning.requests[0].list_extents.size(), 2u);
  EXPECT_EQ(spanning.requests[0].list_extents[0], (ListExtent{0, 0, 8}));
  EXPECT_EQ(spanning.requests[0].list_extents[1], (ListExtent{8, 32, 8}));
}

TEST_F(PlanTest, ListAccessSingleServerMergesAcrossSlots) {
  // With one server every brick lands on it consecutively: a contiguous
  // file range becomes ONE wire extent spanning slots.
  const BrickDistribution one = BrickDistribution::RoundRobin(32, 1).value();
  PlanOptions options;
  const ClientPlan plan =
      PlanListAccess(map_, one, 0, {{0, 24}}, options).value();
  ASSERT_EQ(plan.num_requests(), 1u);
  ASSERT_EQ(plan.requests[0].list_extents.size(), 1u);
  EXPECT_EQ(plan.requests[0].list_extents[0], (ListExtent{0, 0, 24}));
  EXPECT_EQ(plan.requests[0].bricks.size(), 3u);
}

TEST_F(PlanTest, ListAccessRotationStaggersStartServers) {
  PlanOptions options;
  options.rotate_start = true;
  std::vector<FileExtent> extents;
  for (std::uint64_t i = 0; i < 8; ++i) extents.push_back({i * 8, 2});
  for (std::uint32_t client = 0; client < 4; ++client) {
    const ClientPlan plan =
        PlanListAccess(map_, dist_, client, extents, options).value();
    ASSERT_EQ(plan.num_requests(), 4u);
    EXPECT_EQ(plan.requests[0].server, client % 4);
  }
}

TEST_F(PlanTest, ListAccessValidatesExtents) {
  PlanOptions options;
  // Zero-length extent.
  EXPECT_FALSE(PlanListAccess(map_, dist_, 0, {{0, 0}}, options).ok());
  // Overlap.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{0, 16}, {8, 4}}, options).ok());
  // Out of order.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{64, 4}, {0, 4}}, options).ok());
  // Past the distribution's bricks.
  EXPECT_FALSE(
      PlanListAccess(map_, dist_, 0, {{32 * 8, 4}}, options).ok());
  // Adjacent extents are legal (they merge).
  EXPECT_TRUE(PlanListAccess(map_, dist_, 0, {{0, 4}, {4, 4}}, options).ok());
}

TEST_F(PlanTest, ListAccessRequiresLinearFile) {
  const BrickMap tiled = BrickMap::Multidim({8, 8}, {4, 4}, 1).value();
  const BrickDistribution dist =
      BrickDistribution::RoundRobin(tiled.num_bricks(), 2).value();
  PlanOptions options;
  EXPECT_FALSE(PlanListAccess(tiled, dist, 0, {{0, 4}}, options).ok());
}

TEST_F(PlanTest, ListAccessEmptyExtentsYieldEmptyPlan) {
  PlanOptions options;
  const ClientPlan plan = PlanListAccess(map_, dist_, 0, {}, options).value();
  EXPECT_TRUE(plan.list_io);
  EXPECT_EQ(plan.num_requests(), 0u);
}

TEST_F(PlanTest, ListAccessAccountingMatchesSievePlan) {
  // A list plan's per-brick useful/transfer accounting equals the sieve
  // (non-whole-brick) plan for the same single extent.
  PlanOptions sieve;
  sieve.combine = true;
  sieve.rotate_start = false;
  sieve.whole_brick_reads = false;
  PlanOptions list = sieve;
  const ClientPlan a = PlanByteAccess(map_, dist_, 0, 4, 40, sieve).value();
  const ClientPlan b = PlanListAccess(map_, dist_, 0, {{4, 40}}, list).value();
  EXPECT_EQ(a.transfer_bytes(), b.transfer_bytes());
  EXPECT_EQ(a.useful_bytes(), b.useful_bytes());
  EXPECT_EQ(a.num_requests(), b.num_requests());
}

// --- LowerRequest: every mode as one extent list -------------------------

class LowerRequestTest : public ::testing::Test {
 protected:
  // 10 bricks of 1 KiB, the last one short (784 bytes), round-robin over 3
  // servers: server 0 holds bricks 0, 3, 6, 9 in slots 0..3.
  LowerRequestTest()
      : map_(BrickMap::Linear(10000, 1024).value()),
        dist_(BrickDistribution::RoundRobin(10, 3).value()) {}

  /// Server 0's request for bytes [100, 9900), with the access's runs.
  ServerRequest Server0(bool whole_brick_reads, IoDirection direction) {
    PlanOptions options;
    options.direction = direction;
    options.whole_brick_reads = whole_brick_reads;
    options.combine = true;
    options.rotate_start = false;
    const ClientPlan plan =
        PlanByteAccess(map_, dist_, 0, 100, 9800, options).value();
    runs_.clear();
    EXPECT_TRUE(map_.ForEachByteRun(100, 9800, [&](const BrickRun& run) {
                      runs_[run.brick].push_back(run);
                    }).ok());
    return plan.requests.at(0);
  }

  BrickMap map_;
  BrickDistribution dist_;
  RunsByBrick runs_;
};

TEST_F(LowerRequestTest, WholeBrickReadFetchesEveryBrickAtFetchLength) {
  const ServerRequest request = Server0(true, IoDirection::kRead);
  const LoweredRequest lowered = LowerRequest(request, dist_, map_, runs_,
                                              /*whole_bricks=*/true);
  EXPECT_EQ(lowered.extents, (std::vector<WireExtent>{
                                 {0, 1024}, {1024, 1024}, {2048, 1024},
                                 {3072, 784}}));
  // Each brick's one run sits at its offset inside the brick's image.
  EXPECT_EQ(lowered.pieces, (std::vector<BufferPiece>{{100, 0, 924},
                                                       {1024, 2972, 1024},
                                                       {2048, 6044, 1024},
                                                       {3072, 9116, 684}}));
}

TEST_F(LowerRequestTest, SieveReadAndWriteMergeRunsAcrossAdjacentSlots) {
  for (const IoDirection direction : {IoDirection::kRead, IoDirection::kWrite}) {
    const ServerRequest request = Server0(false, direction);
    const LoweredRequest lowered = LowerRequest(request, dist_, map_, runs_,
                                                /*whole_bricks=*/false);
    // Slots 0..3 are adjacent in the subfile: one extent, four pieces.
    EXPECT_EQ(lowered.extents, (std::vector<WireExtent>{{100, 3656}}));
    EXPECT_EQ(lowered.pieces, (std::vector<BufferPiece>{{0, 0, 924},
                                                         {924, 2972, 1024},
                                                         {1948, 6044, 1024},
                                                         {2972, 9116, 684}}));
    EXPECT_EQ(request.transfer_bytes(), 3656u);
  }
}

TEST_F(LowerRequestTest, ListExtentsPassThroughUnchanged) {
  PlanOptions options;
  options.rotate_start = false;
  const ClientPlan plan =
      PlanListAccess(map_, dist_, 0, {{10, 20}, {1030, 20}, {3100, 40}},
                     options)
          .value();
  const ServerRequest& request = plan.requests.at(0);
  const LoweredRequest lowered =
      LowerRequest(request, dist_, map_, {}, /*whole_bricks=*/false);
  ASSERT_EQ(lowered.extents.size(), request.list_extents.size());
  std::uint64_t wire = 0;
  for (std::size_t i = 0; i < lowered.extents.size(); ++i) {
    const ListExtent& extent = request.list_extents[i];
    EXPECT_EQ(lowered.extents[i],
              (WireExtent{extent.subfile_offset, extent.length}));
    EXPECT_EQ(lowered.pieces[i],
              (BufferPiece{wire, extent.buffer_offset, extent.length}));
    wire += extent.length;
  }
}

TEST_F(LowerRequestTest, ReplicaRankUsesItsOwnSlots) {
  // The same request lowered against another rank's distribution lands at
  // that rank's slots: brick 3 is slot 0 of a distribution that starts
  // server 0 at brick 3.
  const ServerRequest request = Server0(true, IoDirection::kRead);
  const BrickDistribution shifted =
      BrickDistribution::FromBrickLists(10, {{3, 0, 6, 9}, {1, 4, 7},
                                             {2, 5, 8}})
          .value();
  const LoweredRequest lowered =
      LowerRequest(request, shifted, map_, runs_, /*whole_bricks=*/true);
  EXPECT_EQ(lowered.extents, (std::vector<WireExtent>{
                                 {1024, 1024}, {0, 1024}, {2048, 1024},
                                 {3072, 784}}));
}

}  // namespace
}  // namespace dpfs::layout
