// FileSystem API tests against a real in-process cluster: every byte here
// travels over loopback TCP to IoServer subfile stores.
#include "client/file_system.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "net/frame.h"
#include "net/messages.h"

namespace dpfs::client {
namespace {

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(rng.NextU64());
  }
  return data;
}

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest() {
    core::ClusterOptions options;
    options.num_servers = 4;
    cluster_ = core::LocalCluster::Start(std::move(options)).value();
    fs_ = cluster_->fs();
  }

  std::unique_ptr<core::LocalCluster> cluster_;
  std::shared_ptr<FileSystem> fs_;
};

TEST_F(FileSystemTest, LinearCreateWriteReadBytes) {
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.total_bytes = 10000;
  options.brick_bytes = 1024;
  FileHandle handle = fs_->Create("/lin.bin", options).value();

  const Bytes data = PatternBytes(10000, 1);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());
  Bytes read(10000);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, data);
}

TEST_F(FileSystemTest, PartialReadAtOffsetAcrossBricks) {
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/f", options).value();
  const Bytes data = PatternBytes(4096, 2);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());

  Bytes window(700);
  ASSERT_TRUE(fs_->ReadBytes(handle, 200, window).ok());
  EXPECT_TRUE(std::equal(window.begin(), window.end(), data.begin() + 200));
}

TEST_F(FileSystemTest, WritePastCapacityRejected) {
  CreateOptions options;
  options.total_bytes = 100;
  FileHandle handle = fs_->Create("/tiny", options).value();
  const Bytes data(101, 0);
  EXPECT_EQ(fs_->WriteBytes(handle, 0, data).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fs_->WriteBytes(handle, 50, Bytes(51, 0)).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(fs_->WriteBytes(handle, 50, Bytes(50, 0)).ok());
}

TEST_F(FileSystemTest, CreateRequiresSize) {
  CreateOptions options;  // neither total_bytes nor array_shape
  EXPECT_FALSE(fs_->Create("/f", options).ok());
}

TEST_F(FileSystemTest, CreateInMissingDirectoryFails) {
  CreateOptions options;
  options.total_bytes = 10;
  EXPECT_FALSE(fs_->Create("/no/such/dir/f", options).ok());
}

TEST_F(FileSystemTest, OpenReturnsSameGeometry) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.element_size = 4;
  options.array_shape = {64, 64};
  options.brick_shape = {16, 16};
  const FileHandle created = fs_->Create("/m", options).value();
  const FileHandle opened = fs_->Open("/m").value();
  EXPECT_EQ(opened.map.num_bricks(), created.map.num_bricks());
  EXPECT_EQ(opened.map.brick_bytes(), created.map.brick_bytes());
  EXPECT_EQ(opened.meta().array_shape, (layout::Shape{64, 64}));
  for (layout::BrickId b = 0; b < created.map.num_bricks(); ++b) {
    EXPECT_EQ(opened.record.distribution.server_for(b),
              created.record.distribution.server_for(b));
  }
}

TEST_F(FileSystemTest, MultidimRegionWriteReadRoundTrip) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {32, 32};
  options.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/grid", options).value();

  // Write the whole array, then read back an interior region.
  const Bytes all = PatternBytes(32 * 32, 3);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  const layout::Region window{{5, 7}, {10, 12}};
  Bytes read(10 * 12);
  ASSERT_TRUE(fs_->ReadRegion(handle, window, read).ok());
  for (std::uint64_t r = 0; r < 10; ++r) {
    for (std::uint64_t c = 0; c < 12; ++c) {
      EXPECT_EQ(read[r * 12 + c], all[(r + 5) * 32 + (c + 7)])
          << "(" << r << "," << c << ")";
    }
  }
}

TEST_F(FileSystemTest, MultidimColumnAccess) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {64, 64};
  options.brick_shape = {16, 16};
  FileHandle handle = fs_->Create("/cols", options).value();
  const Bytes all = PatternBytes(64 * 64, 4);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all).ok());

  Bytes column(64);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 13}, {64, 1}}, column).ok());
  for (std::uint64_t r = 0; r < 64; ++r) {
    EXPECT_EQ(column[r], all[r * 64 + 13]) << "row " << r;
  }
}

TEST_F(FileSystemTest, DisjointRegionWritesCompose) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/quad", options).value();

  // Four clients write four quadrants.
  for (std::uint32_t q = 0; q < 4; ++q) {
    const layout::Region quadrant{{(q / 2) * 8, (q % 2) * 8}, {8, 8}};
    const Bytes data(64, static_cast<std::uint8_t>(q + 1));
    handle.client_id = q;
    ASSERT_TRUE(fs_->WriteRegion(handle, quadrant, data).ok());
  }
  Bytes all(256);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 0}, {16, 16}}, all).ok());
  EXPECT_EQ(all[0], 1);
  EXPECT_EQ(all[15], 2);
  EXPECT_EQ(all[8 * 16], 3);
  EXPECT_EQ(all[8 * 16 + 15], 4);
}

TEST_F(FileSystemTest, ArrayLevelChunkCheckpoint) {
  CreateOptions options;
  options.level = layout::FileLevel::kArray;
  options.array_shape = {32, 32};
  options.pattern = layout::HpfPattern::Parse("(BLOCK,BLOCK)").value();
  options.num_chunks = 4;
  FileHandle handle = fs_->Create("/ckpt", options).value();
  EXPECT_EQ(handle.map.num_bricks(), 4u);

  const layout::HpfPattern pattern = *handle.meta().pattern;
  layout::ProcessGrid grid;
  grid.grid = handle.meta().chunk_grid;
  std::vector<Bytes> chunks;
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const layout::Region chunk =
        layout::ChunkForProcess({32, 32}, pattern, grid, rank).value();
    chunks.push_back(PatternBytes(chunk.num_elements(), 100 + rank));
    handle.client_id = static_cast<std::uint32_t>(rank);
    IoReport report;
    ASSERT_TRUE(fs_->WriteRegion(handle, chunk, chunks.back(), {}, &report)
                    .ok());
    // A chunk is one brick: exactly one request (§3.3).
    EXPECT_EQ(report.requests, 1u);
  }
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const layout::Region chunk =
        layout::ChunkForProcess({32, 32}, pattern, grid, rank).value();
    Bytes restored(chunk.num_elements());
    ASSERT_TRUE(fs_->ReadRegion(handle, chunk, restored).ok());
    EXPECT_EQ(restored, chunks[rank]);
  }
}

TEST_F(FileSystemTest, ReadRegionBufferSizeChecked) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {8, 8};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/s", options).value();
  Bytes wrong(63);
  EXPECT_FALSE(fs_->ReadRegion(handle, {{0, 0}, {8, 8}}, wrong).ok());
  Bytes data(63);
  EXPECT_FALSE(fs_->WriteRegion(handle, {{0, 0}, {8, 8}}, data).ok());
}

TEST_F(FileSystemTest, DatatypeVectorColumnRoundTrip) {
  // An 8x8 byte matrix stored as a linear file; access column 3 via a
  // derived vector datatype (the MPI-IO idiom from §6).
  CreateOptions options;
  options.total_bytes = 64;
  options.brick_bytes = 16;
  FileHandle handle = fs_->Create("/mat", options).value();
  const Bytes matrix = PatternBytes(64, 5);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, matrix).ok());

  const Datatype column = Datatype::Vector(8, 1, 8, Datatype::Bytes(1)).value();
  Bytes col(8);
  ASSERT_TRUE(fs_->ReadType(handle, 3, column, col).ok());
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(col[r], matrix[r * 8 + 3]);
  }

  // Overwrite the column and verify neighbours are untouched.
  Bytes new_col(8, 0xEE);
  ASSERT_TRUE(fs_->WriteType(handle, 3, column, new_col).ok());
  Bytes after(64);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after).ok());
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      if (c == 3) {
        EXPECT_EQ(after[r * 8 + c], 0xEE);
      } else {
        EXPECT_EQ(after[r * 8 + c], matrix[r * 8 + c]);
      }
    }
  }
}

TEST_F(FileSystemTest, SubarrayDatatypeMatchesRegionRead) {
  // A linear file holding a flattened 32x32 array: reading a subarray via
  // the datatype path must agree with the region path.
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.array_shape = {32, 32};
  options.brick_bytes = 128;
  FileHandle handle = fs_->Create("/sub", options).value();
  const Bytes all = PatternBytes(32 * 32, 31);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  const Datatype subarray =
      Datatype::Subarray({32, 32}, {5, 7}, {10, 12}, 1).value();
  Bytes via_type(subarray.size());
  ASSERT_TRUE(fs_->ReadType(handle, 0, subarray, via_type).ok());

  Bytes via_region(10 * 12);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{5, 7}, {10, 12}}, via_region).ok());
  EXPECT_EQ(via_type, via_region);
}

TEST_F(FileSystemTest, ListIoAgreesWithPerExtentPath) {
  // The same datatype access with and without IoOptions::list_io must
  // produce identical bytes; list I/O only changes how the extents travel
  // (docs/NONCONTIGUOUS_IO.md). Stride 24 over 64-byte bricks makes the
  // extents split across bricks, servers, and batch boundaries.
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 64;
  FileHandle handle = fs_->Create("/listio", options).value();
  const Bytes base = PatternBytes(4096, 77);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, base).ok());

  const Datatype pattern =
      Datatype::Vector(128, 10, 24, Datatype::Bytes(1)).value();
  Bytes per_extent(pattern.size());
  ASSERT_TRUE(fs_->ReadType(handle, 5, pattern, per_extent).ok());
  IoOptions list;
  list.list_io = true;
  Bytes via_list(pattern.size());
  IoReport report;
  ASSERT_TRUE(fs_->ReadType(handle, 5, pattern, via_list, list, &report).ok());
  EXPECT_EQ(via_list, per_extent);
  // Combined per-server requests: at most one per server here.
  EXPECT_LE(report.requests, 4u);

  // Writes through both paths land identically.
  const Bytes payload = PatternBytes(pattern.size(), 78);
  ASSERT_TRUE(fs_->WriteType(handle, 5, pattern, payload, list).ok());
  Bytes after_list(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after_list).ok());
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, base).ok());
  ASSERT_TRUE(fs_->WriteType(handle, 5, pattern, payload).ok());
  Bytes after_plain(4096);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, after_plain).ok());
  EXPECT_EQ(after_list, after_plain);
}

TEST_F(FileSystemTest, ListIoRespectsRequestBatching) {
  // A tiny max_request_bytes forces the executor to split one server's
  // extent list into several wire requests; bytes must still round-trip.
  CreateOptions options;
  options.total_bytes = 8192;
  options.brick_bytes = 1024;
  FileHandle handle = fs_->Create("/batched", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(8192, 0x11)).ok());

  const Datatype pattern =
      Datatype::Vector(64, 16, 128, Datatype::Bytes(1)).value();
  IoOptions list;
  list.list_io = true;
  list.max_request_bytes = 64;  // 4 extents per wire request
  const Bytes payload = PatternBytes(pattern.size(), 79);
  metrics::Counter& wire_writes =
      metrics::GetCounter("io_server.requests.list_write");
  const std::uint64_t writes_before = wire_writes.value();
  ASSERT_TRUE(fs_->WriteType(handle, 0, pattern, payload, list).ok());
  // 64 extents over 4 servers at 4 extents per frame: more wire requests
  // than servers proves the executor split the batches.
  EXPECT_GT(wire_writes.value() - writes_before, 4u);

  Bytes back(pattern.size());
  ASSERT_TRUE(fs_->ReadType(handle, 0, pattern, back, list).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(FileSystemTest, ShortReadReplyIsRejected) {
  // A server whose reply carries fewer bytes than the request named must
  // fail the read instead of scattering past the end of the reply.
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 1024;
  FileHandle handle = fs_->Create("/short", options).value();
  net::TcpListener listener = net::TcpListener::Bind(0).value();
  std::thread fake_server([&listener] {
    Result<net::TcpSocket> conn = listener.Accept();
    Bytes request;
    while (conn.ok() && net::RecvFrame(conn.value(), request).ok() &&
           net::SendFrame(conn.value(),
                          net::EncodeReply(Status::Ok(), Bytes(10, 0)))
               .ok()) {
    }
  });
  for (ServerInfo& server : handle.record.servers) {
    server.endpoint = net::Endpoint{"127.0.0.1", listener.port()};
  }
  IoOptions io;
  io.max_retries = 0;
  Bytes out(4096);
  EXPECT_EQ(fs_->ReadBytes(handle, 0, out, io).code(),
            StatusCode::kProtocolError);
  listener.Close();
  fake_server.join();
}

TEST_F(FileSystemTest, ListIoRejectsNonLinearFiles) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};
  FileHandle handle = fs_->Create("/md", options).value();
  const Datatype type = Datatype::Vector(4, 2, 8, Datatype::Bytes(1)).value();
  IoOptions list;
  list.list_io = true;
  Bytes buf(type.size());
  EXPECT_FALSE(fs_->ReadType(handle, 0, type, buf, list).ok());
}

TEST_F(FileSystemTest, DatatypeExtentBoundsChecked) {
  CreateOptions options;
  options.total_bytes = 64;
  FileHandle handle = fs_->Create("/b", options).value();
  const Datatype type = Datatype::Vector(8, 1, 8, Datatype::Bytes(1)).value();
  Bytes buf(8);
  // extent of the vector is 57 bytes; base 8 would end at 65 > 64.
  EXPECT_FALSE(fs_->ReadType(handle, 8, type, buf).ok());
  EXPECT_TRUE(fs_->ReadType(handle, 7, type, buf).ok());
}

TEST_F(FileSystemTest, RemoveDeletesSubfilesAndMetadata) {
  CreateOptions options;
  options.total_bytes = 1024;
  options.brick_bytes = 64;
  FileHandle handle = fs_->Create("/gone", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(1024, 7)).ok());
  ASSERT_TRUE(fs_->Remove("/gone").ok());
  EXPECT_FALSE(fs_->Open("/gone").ok());
  // Server-side subfiles are removed too.
  for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
    EXPECT_FALSE(cluster_->server(s).store().Stat("/gone").value().exists);
  }
  // Removing twice fails cleanly.
  EXPECT_FALSE(fs_->Remove("/gone").ok());
}

TEST_F(FileSystemTest, IoReportCountsRequestsAndBytes) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {16, 16};
  options.brick_shape = {4, 4};  // 16 bricks over 4 servers
  FileHandle handle = fs_->Create("/r", options).value();
  const Bytes all = PatternBytes(256, 6);

  IoReport combined_report;
  IoOptions combined;
  combined.combine = true;
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {16, 16}}, all, combined,
                               &combined_report)
                  .ok());
  EXPECT_EQ(combined_report.requests, 4u);  // one per server
  EXPECT_EQ(combined_report.useful_bytes, 256u);

  IoReport uncombined_report;
  IoOptions uncombined;
  uncombined.combine = false;
  Bytes read(256);
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 0}, {16, 16}}, read, uncombined,
                              &uncombined_report)
                  .ok());
  EXPECT_EQ(uncombined_report.requests, 16u);  // one per brick
  EXPECT_EQ(read, all);
}

TEST_F(FileSystemTest, CombinedAndUncombinedReadsAgree) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {24, 24};
  options.brick_shape = {6, 6};
  FileHandle handle = fs_->Create("/agree", options).value();
  const Bytes all = PatternBytes(24 * 24, 7);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {24, 24}}, all).ok());

  const layout::Region window{{3, 2}, {17, 19}};
  Bytes a(17 * 19);
  Bytes b(17 * 19);
  IoOptions combined;
  combined.combine = true;
  IoOptions uncombined;
  uncombined.combine = false;
  ASSERT_TRUE(fs_->ReadRegion(handle, window, a, combined).ok());
  ASSERT_TRUE(fs_->ReadRegion(handle, window, b, uncombined).ok());
  EXPECT_EQ(a, b);
}

TEST_F(FileSystemTest, SieveReadsReturnIdenticalDataWithLessTransfer) {
  // Column access through a linear-array file: the worst case for
  // whole-brick reads, the best case for sieve reads.
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.array_shape = {64, 64};
  options.brick_bytes = 64;  // one row per brick
  FileHandle handle = fs_->Create("/sieve", options).value();
  const Bytes all = PatternBytes(64 * 64, 21);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all).ok());

  const layout::Region column{{0, 30}, {64, 2}};
  Bytes whole(128);
  Bytes sieve(128);
  IoOptions whole_options;
  whole_options.whole_brick_reads = true;
  IoOptions sieve_options;
  sieve_options.whole_brick_reads = false;
  IoReport whole_report;
  IoReport sieve_report;
  ASSERT_TRUE(
      fs_->ReadRegion(handle, column, whole, whole_options, &whole_report)
          .ok());
  ASSERT_TRUE(
      fs_->ReadRegion(handle, column, sieve, sieve_options, &sieve_report)
          .ok());
  EXPECT_EQ(whole, sieve);
  EXPECT_EQ(sieve_report.useful_bytes, whole_report.useful_bytes);
  // Whole-brick: 64 bricks x 64 bytes; sieve: exactly the 128 useful bytes.
  EXPECT_EQ(whole_report.transfer_bytes, 64u * 64u);
  EXPECT_EQ(sieve_report.transfer_bytes, 128u);
}

TEST_F(FileSystemTest, SieveReadsWorkOnMultidimAndByteAccess) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {32, 32};
  options.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/sieve2", options).value();
  const Bytes all = PatternBytes(32 * 32, 22);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {32, 32}}, all).ok());

  IoOptions sieve_options;
  sieve_options.whole_brick_reads = false;
  Bytes window(5 * 7);
  ASSERT_TRUE(
      fs_->ReadRegion(handle, {{3, 9}, {5, 7}}, window, sieve_options).ok());
  for (std::uint64_t r = 0; r < 5; ++r) {
    for (std::uint64_t c = 0; c < 7; ++c) {
      EXPECT_EQ(window[r * 7 + c], all[(r + 3) * 32 + (c + 9)]);
    }
  }
}

TEST_F(FileSystemTest, SuggestedIoNodesLimitsServers) {
  CreateOptions options;
  options.total_bytes = 1024;
  options.brick_bytes = 64;
  options.suggested_io_nodes = 2;
  const FileHandle handle = fs_->Create("/two", options).value();
  EXPECT_EQ(handle.record.servers.size(), 2u);
  EXPECT_EQ(handle.record.distribution.num_servers(), 2u);
}

TEST_F(FileSystemTest, ParallelDispatchMatchesSequential) {
  CreateOptions options;
  options.level = layout::FileLevel::kMultidim;
  options.array_shape = {64, 64};
  options.brick_shape = {8, 8};
  FileHandle handle = fs_->Create("/pd.dpfs", options).value();
  const Bytes all = PatternBytes(64 * 64, 77);

  IoOptions parallel;
  parallel.parallel_dispatch = true;
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all, parallel).ok());

  Bytes sequential_read(64 * 64);
  Bytes parallel_read(64 * 64);
  ASSERT_TRUE(
      fs_->ReadRegion(handle, {{0, 0}, {64, 64}}, sequential_read).ok());
  IoReport report;
  ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 0}, {64, 64}}, parallel_read,
                              parallel, &report)
                  .ok());
  EXPECT_EQ(sequential_read, all);
  EXPECT_EQ(parallel_read, all);
  EXPECT_EQ(report.requests, 4u);  // one combined request per server
}

TEST_F(FileSystemTest, ParallelDispatchSurfacesErrors) {
  CreateOptions options;
  options.total_bytes = 4096;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/pd-err", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(4096, 1)).ok());
  cluster_->server(2).Stop();
  fs_->connections().Clear();
  IoOptions parallel;
  parallel.parallel_dispatch = true;
  Bytes read(4096);
  const Status status = fs_->ReadBytes(handle, 0, read, parallel);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(FileSystemTest, CloseResetsHandle) {
  CreateOptions options;
  options.total_bytes = 128;
  FileHandle handle = fs_->Create("/closable", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(128, 5)).ok());
  FileSystem::Close(handle);
  EXPECT_EQ(handle.map.num_bricks(), 0u);
  EXPECT_TRUE(handle.meta().path.empty());
  // The file itself is unaffected: reopening works.
  FileHandle reopened = fs_->Open("/closable").value();
  Bytes read(128);
  ASSERT_TRUE(fs_->ReadBytes(reopened, 0, read).ok());
  EXPECT_EQ(read, Bytes(128, 5));
}

TEST_F(FileSystemTest, RequestBatchingSplitsLargeTransfers) {
  CreateOptions options;
  options.total_bytes = 8192;
  options.brick_bytes = 512;  // 16 bricks over 4 servers
  FileHandle handle = fs_->Create("/batched", options).value();
  const Bytes data = PatternBytes(8192, 66);

  IoOptions tiny;
  tiny.max_request_bytes = 1024;  // forces ~2 bricks per wire request
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data, tiny).ok());

  const std::uint64_t requests_before = [&] {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
      total += cluster_->server(s).stats().requests.load();
    }
    return total;
  }();
  Bytes read(8192);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read, tiny).ok());
  EXPECT_EQ(read, data);
  const std::uint64_t requests_after = [&] {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < cluster_->num_servers(); ++s) {
      total += cluster_->server(s).stats().requests.load();
    }
    return total;
  }();
  // 4 combined plan-requests (one per server), but each split into two wire
  // requests by the 1 KB cap: 8 wire requests total.
  EXPECT_EQ(requests_after - requests_before, 8u);

  // Sieve reads batch too, and still reconstruct correctly.
  IoOptions tiny_sieve = tiny;
  tiny_sieve.whole_brick_reads = false;
  Bytes sieve_read(8192);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, sieve_read, tiny_sieve).ok());
  EXPECT_EQ(sieve_read, data);
}

TEST_F(FileSystemTest, AccessLoggingFeedsLevelAdvice) {
  fs_->SetAccessLogging(true);
  // The Fig 5 pathology: a linear-array file read by columns.
  CreateOptions options;
  options.level = layout::FileLevel::kLinear;
  options.array_shape = {64, 64};
  options.brick_bytes = 64;
  FileHandle handle = fs_->Create("/pathological", options).value();
  const Bytes all = PatternBytes(64 * 64, 88);
  ASSERT_TRUE(fs_->WriteRegion(handle, {{0, 0}, {64, 64}}, all).ok());
  Bytes column(64);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs_->ReadRegion(handle, {{0, 10}, {64, 1}}, column).ok());
  }
  const std::string advice = fs_->AdviseLevel("/pathological").value();
  EXPECT_NE(advice.find("multidim"), std::string::npos) << advice;

  // The matching workload gets a clean bill.
  CreateOptions good;
  good.level = layout::FileLevel::kMultidim;
  good.array_shape = {64, 64};
  good.brick_shape = {16, 16};
  FileHandle grid = fs_->Create("/matched", good).value();
  ASSERT_TRUE(fs_->WriteRegion(grid, {{0, 0}, {64, 64}}, all).ok());
  Bytes quarter(32 * 32);
  ASSERT_TRUE(fs_->ReadRegion(grid, {{0, 0}, {32, 32}}, quarter).ok());
  const std::string good_advice = fs_->AdviseLevel("/matched").value();
  EXPECT_NE(good_advice.find("fits this workload"), std::string::npos)
      << good_advice;

  // With logging off, nothing accumulates.
  fs_->SetAccessLogging(false);
  CreateOptions quiet;
  quiet.total_bytes = 64;
  FileHandle q = fs_->Create("/quiet", quiet).value();
  ASSERT_TRUE(fs_->WriteBytes(q, 0, Bytes(64, 1)).ok());
  const std::string no_data = fs_->AdviseLevel("/quiet").value();
  EXPECT_NE(no_data.find("no access observations"), std::string::npos);

  // The summary aggregates correctly.
  const auto summary =
      fs_->metadata().SummarizeAccess("/pathological").value();
  EXPECT_EQ(summary.accesses, 4u);  // 1 write + 3 reads
  EXPECT_LT(summary.efficiency(), 0.5);
  ASSERT_TRUE(fs_->metadata().ClearAccessLog("/pathological").ok());
  EXPECT_EQ(fs_->metadata().SummarizeAccess("/pathological").value().accesses,
            0u);
}

TEST_F(FileSystemTest, RenameMovesMetadataNotBytes) {
  CreateOptions options;
  options.total_bytes = 2048;
  options.brick_bytes = 256;
  FileHandle handle = fs_->Create("/old.bin", options).value();
  const Bytes data = PatternBytes(2048, 55);
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, data).ok());
  const std::uint64_t writes_before =
      cluster_->server(0).stats().bytes_written.load();

  ASSERT_TRUE(fs_->metadata().MakeDirectory("/archive").ok());
  ASSERT_TRUE(fs_->Rename("/old.bin", "/archive/new.bin").ok());

  // No payload bytes moved during the rename.
  EXPECT_EQ(cluster_->server(0).stats().bytes_written.load(), writes_before);
  EXPECT_FALSE(fs_->Open("/old.bin").ok());
  FileHandle renamed = fs_->Open("/archive/new.bin").value();
  Bytes restored(2048);
  ASSERT_TRUE(fs_->ReadBytes(renamed, 0, restored).ok());
  EXPECT_EQ(restored, data);
  // Directory links updated on both sides.
  EXPECT_TRUE(fs_->metadata().ListDirectory("/").value().files.empty());
  EXPECT_EQ(fs_->metadata().ListDirectory("/archive").value().files.size(),
            1u);
}

TEST_F(FileSystemTest, RenamePreconditionsChecked) {
  CreateOptions options;
  options.total_bytes = 64;
  ASSERT_TRUE(fs_->Create("/a", options).ok());
  ASSERT_TRUE(fs_->Create("/b", options).ok());
  EXPECT_FALSE(fs_->Rename("/missing", "/x").ok());
  EXPECT_EQ(fs_->Rename("/a", "/b").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(fs_->Rename("/a", "/no/dir/x").ok());
  // Failed renames leave the source intact and readable.
  FileHandle a = fs_->Open("/a").value();
  Bytes read(64);
  EXPECT_TRUE(fs_->ReadBytes(a, 0, read).ok());
}

TEST_F(FileSystemTest, RenameOfNeverWrittenFileWorks) {
  // No subfiles exist yet; the rename is metadata-only.
  CreateOptions options;
  options.total_bytes = 64;
  ASSERT_TRUE(fs_->Create("/empty", options).ok());
  ASSERT_TRUE(fs_->Rename("/empty", "/still-empty").ok());
  FileHandle handle = fs_->Open("/still-empty").value();
  Bytes read(64);
  ASSERT_TRUE(fs_->ReadBytes(handle, 0, read).ok());
  EXPECT_EQ(read, Bytes(64, 0));  // unwritten bytes are zero
}

TEST_F(FileSystemTest, MetadataCacheServesRepeatOpens) {
  CreateOptions options;
  options.total_bytes = 512;
  ASSERT_TRUE(fs_->Create("/cached.bin", options).ok());
  const auto before = fs_->metadata_cache_stats();
  // Create primed the cache, so the first Open already hits.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs_->Open("/cached.bin").ok());
  }
  const auto after = fs_->metadata_cache_stats();
  EXPECT_EQ(after.hits, before.hits + 5);
  EXPECT_EQ(after.misses, before.misses);
  // Path normalization feeds the same cache entry.
  ASSERT_TRUE(fs_->Open("//cached.bin").ok());
  EXPECT_EQ(fs_->metadata_cache_stats().hits, after.hits + 1);
}

TEST_F(FileSystemTest, RemoveInvalidatesMetadataCache) {
  CreateOptions options;
  options.total_bytes = 512;
  FileHandle handle = fs_->Create("/gone2.bin", options).value();
  ASSERT_TRUE(fs_->WriteBytes(handle, 0, Bytes(512, 1)).ok());
  ASSERT_TRUE(fs_->Remove("/gone2.bin").ok());
  EXPECT_FALSE(fs_->Open("/gone2.bin").ok());
}

TEST_F(FileSystemTest, ExplicitInvalidationForcesRelookup) {
  CreateOptions options;
  options.total_bytes = 512;
  ASSERT_TRUE(fs_->Create("/inv.bin", options).ok());
  fs_->InvalidateMetadataCache();
  const auto before = fs_->metadata_cache_stats();
  ASSERT_TRUE(fs_->Open("/inv.bin").ok());
  EXPECT_EQ(fs_->metadata_cache_stats().misses, before.misses + 1);
  // Out-of-band deletion in the DB is visible after invalidation.
  ASSERT_TRUE(fs_->metadata().DeleteFile("/inv.bin").ok());
  ASSERT_TRUE(fs_->Open("/inv.bin").ok());  // stale cache still answers
  fs_->InvalidateMetadataCache("/inv.bin");
  EXPECT_FALSE(fs_->Open("/inv.bin").ok());  // now it does not
}

TEST_F(FileSystemTest, CapacityAwarePlacementHonorsAdvertisedSpace) {
  // A fresh cluster whose servers advertise room for only 8 bricks each.
  core::ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  cluster_options.capacity_bytes = 8 * 1024;
  auto small_cluster =
      core::LocalCluster::Start(std::move(cluster_options)).value();
  auto fs = small_cluster->fs();

  CreateOptions options;
  options.brick_bytes = 1024;
  options.placement = layout::PlacementPolicy::kCapacityAware;

  // 16 bricks fit exactly (8 + 8).
  options.total_bytes = 16 * 1024;
  ASSERT_TRUE(fs->Create("/fits", options).ok());
  // 17 bricks do not.
  options.total_bytes = 17 * 1024;
  const Result<FileHandle> too_big = fs->Create("/overflow", options);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  // The failed create leaves no metadata behind.
  EXPECT_FALSE(fs->metadata().FileExists("/overflow").value());
}

TEST_F(FileSystemTest, GreedyPlacementViaHints) {
  // Register heterogeneity by recreating the cluster with perf numbers is
  // heavy; instead verify the hint plumbs through on this homogeneous
  // cluster (greedy with equal perf ≡ balanced).
  CreateOptions options;
  options.total_bytes = 64 * 64;
  options.brick_bytes = 64;
  options.placement = layout::PlacementPolicy::kGreedy;
  const FileHandle handle = fs_->Create("/greedy", options).value();
  for (layout::ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(handle.record.distribution.bricks_on(s).size(), 16u);
  }
}

}  // namespace
}  // namespace dpfs::client
