// The three workloads (why each exists: README.md). Every op's inputs come
// from the seed; every byte read is checked against what the workload
// knows it wrote.
#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <set>

#include "bench.h"
#include "client/datatype.h"

namespace perfbench {
namespace {

using dpfs::Bytes;
using dpfs::ByteSpan;
using dpfs::MutableByteSpan;
using dpfs::SplitMix64;
using dpfs::Status;
using dpfs::client::FileHandle;
using dpfs::client::FileSystem;
using dpfs::client::IoOptions;
using dpfs::layout::IoDirection;
using dpfs::layout::Region;

std::uint64_t Key(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  SplitMix64 rng(a ^ (b * 0x9E3779B97F4A7C15ull) ^ (c * 0xC2B2AE3D27D4EB4Full));
  return rng.NextU64();
}

void FillPattern(std::uint64_t key, MutableByteSpan out) {
  SplitMix64 rng(key);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t v = rng.NextU64();
    std::memcpy(out.data() + i, &v, 8);
  }
  if (i < out.size()) {
    const std::uint64_t v = rng.NextU64();
    std::memcpy(out.data() + i, &v, out.size() - i);
  }
}

bool Equal(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// Opens `path` the way a separate client process would: without this
// FileSystem's cached record.
Status OpenFresh(FileSystem& fs, Run& run, const std::string& path,
                 FileHandle& handle) {
  fs.InvalidateMetadataCache(path);
  return run.Call(CallClass::kMeta, 0, "open", [&] {
    auto opened = fs.Open(path);
    if (!opened.ok()) return opened.status();
    handle = std::move(opened).value();
    return Status::Ok();
  });
}

// ---------------------------------------------------------------------------
// stripe_rw: N-to-1 checkpoint/restart by kPieces ranks. A phase starts
// with every rank opening the shared file (one op each, as MPI-IO's
// collective open does); then each rank writes (checkpoint phase) or reads
// and verifies (restart phase) its 1 MiB piece, one op each, in a fresh
// seeded order. Phases alternate.

class StripeRw final : public Workload {
 public:
  explicit StripeRw(std::uint64_t seed) : seed_(seed), rng_(Key(seed, 1, 0)) {}

  Status Setup(FileSystem& fs) override {
    DPFS_RETURN_IF_ERROR(fs.metadata().MakeDirectory("/ckpt"));
    dpfs::client::CreateOptions options;
    options.total_bytes = kFileBytes;
    options.brick_bytes = 64 * 1024;
    DPFS_ASSIGN_OR_RETURN(handle_, fs.Create(kPath, options));
    // Prefill so every timed write overwrites allocated blocks.
    Bytes piece(kPiece);
    for (std::uint64_t b = 0; b < kPieces; ++b) {
      version_[b] = Key(seed_, 0, b);
      FillPattern(version_[b], piece);
      DPFS_RETURN_IF_ERROR(fs.WriteBytes(handle_, b * kPiece, piece));
    }
    buffer_.resize(kPiece);
    expected_.resize(kPiece);
    return Status::Ok();
  }

  Status Step(FileSystem& fs, Run& run, std::uint64_t op) override {
    if (next_ == 2 * kPieces) {
      ++phase_;
      for (std::uint64_t b = 0; b < kPieces; ++b) order_[b] = b;
      for (std::uint64_t b = kPieces - 1; b > 0; --b) {
        std::swap(order_[b], order_[rng_.NextBelow(b + 1)]);
      }
      next_ = 0;
    }
    if (next_++ < kPieces) {
      run.BeginOp(op, "open");
      const Status status = OpenFresh(fs, run, kPath, handle_);
      run.EndOp(status.ok());
      return status;
    }
    const bool writing = phase_ % 2 == 1;
    const std::uint64_t piece = order_[next_ - 1 - kPieces];
    const bool sampled = run.BeginOp(op, writing ? "write" : "read");
    Status status;
    if (writing) {
      const std::uint64_t key = Key(seed_, phase_, piece);
      FillPattern(key, buffer_);
      status = run.Call(CallClass::kWrite, kPiece, "write_bytes", [&] {
        return fs.WriteBytes(handle_, piece * kPiece, buffer_);
      });
      if (status.ok()) version_[piece] = key;
    } else {
      status = run.Call(CallClass::kRead, kPiece, "read_bytes", [&] {
        return fs.ReadBytes(handle_, piece * kPiece, buffer_);
      });
      if (status.ok()) {
        FillPattern(version_[piece], expected_);
        if (!Equal(buffer_, expected_)) {
          run.Mismatch("stripe_rw: piece " + std::to_string(piece) +
                       " differs from the last checkpoint");
        }
      }
    }
    if (sampled && status.ok()) {
      Access access;
      access.handle = handle_;
      access.direction = writing ? IoDirection::kWrite : IoDirection::kRead;
      access.shape = Access::Shape::kBytes;
      access.offset = piece * kPiece;
      access.length = kPiece;
      run.AddAccess(std::move(access));
    }
    run.EndOp(status.ok());
    return status;
  }

  Status Finish(FileSystem&, Run&) override { return Status::Ok(); }
  std::string LivePath() override { return kPath; }
  double sample_rate() const override { return 0.05; }
  std::uint64_t warmup_ops() const override { return 2 * kPieces; }

 private:
  static constexpr std::uint64_t kFileBytes = 64ull << 20;
  static constexpr std::uint64_t kPiece = 1ull << 20;
  static constexpr std::uint64_t kPieces = kFileBytes / kPiece;
  static constexpr const char* kPath = "/ckpt/state";

  std::uint64_t seed_;
  SplitMix64 rng_;
  FileHandle handle_;
  std::uint64_t version_[kPieces] = {};  // pattern key of each piece
  std::uint64_t order_[kPieces] = {};
  std::uint64_t next_ = 2 * kPieces;  // ops done in this phase
  std::uint64_t phase_ = 0;       // odd = checkpoint, even = restart
  Bytes buffer_, expected_;
};

// ---------------------------------------------------------------------------
// region_mix: out-of-core analysis. Tasks of kTaskOps accesses each open
// both files, then read (70%) or write (30%) column strips, row strips and
// tiles of a multidim array, or PVFS-style vectors of a linear file.

class RegionMix final : public Workload {
 public:
  explicit RegionMix(std::uint64_t seed) : seed_(seed), rng_(Key(seed, 2, 0)) {}

  Status Setup(FileSystem& fs) override {
    DPFS_RETURN_IF_ERROR(fs.metadata().MakeDirectory("/ooc"));
    dpfs::client::CreateOptions array;
    array.level = dpfs::layout::FileLevel::kMultidim;
    array.element_size = kElem;
    array.array_shape = {kN, kN};
    array.brick_shape = {kBrick, kBrick};
    DPFS_ASSIGN_OR_RETURN(array_, fs.Create(kArrayPath, array));
    dpfs::client::CreateOptions stream;
    stream.total_bytes = kBytes;
    stream.brick_bytes = 64 * 1024;
    DPFS_ASSIGN_OR_RETURN(stream_, fs.Create(kStreamPath, stream));

    array_shadow_.resize(kBytes);
    stream_shadow_.resize(kBytes);
    FillPattern(Key(seed_, 2, 1), array_shadow_);
    FillPattern(Key(seed_, 2, 2), stream_shadow_);
    DPFS_RETURN_IF_ERROR(
        fs.WriteRegion(array_, Region{{0, 0}, {kN, kN}}, array_shadow_));
    DPFS_RETURN_IF_ERROR(fs.WriteBytes(stream_, 0, stream_shadow_));
    fs.EnableBrickCache(kCacheBytes);
    return Status::Ok();
  }

  Status Step(FileSystem& fs, Run& run, std::uint64_t op) override {
    static constexpr const char* kKinds[] = {"column", "row", "tile",
                                             "vector"};
    // Kind weights per direction put each pooled p50 and p90 inside one
    // kind's latency cluster (reads: vectors sit between brick-cache hits
    // and misses; writes: rows < tiles < vectors < columns), so a
    // quantile does not jump between kinds from run to run.
    static constexpr double kReadMix[] = {0.2, 0.2, 0.2, 0.4};
    static constexpr double kWriteMix[] = {0.2, 0.15, 0.45, 0.2};
    const bool reading = rng_.NextDouble() < 0.7;
    const double* mix = reading ? kReadMix : kWriteMix;
    double pick = rng_.NextDouble();
    std::uint64_t kind = 0;
    while (kind < 3 && pick >= mix[kind]) pick -= mix[kind++];
    const bool sampled = run.BeginOp(op, kKinds[kind]);

    Status status;
    if (op % kTaskOps == 0 || !opened_) {
      status = OpenFresh(fs, run, kStreamPath, stream_);
      if (status.ok()) status = OpenFresh(fs, run, kArrayPath, array_);
      opened_ = status.ok();
    }
    if (status.ok()) {
      status = kind == 3 ? Vector(fs, run, reading, sampled)
                         : Array(fs, run, kind, reading, sampled);
    }
    run.EndOp(status.ok());
    return status;
  }

  Status Finish(FileSystem& fs, Run& run) override {
    // A whole-array read must give identical bytes with request
    // combination on and off, and match the shadow copy.
    Bytes combined(kBytes), separate(kBytes), stream(kBytes);
    IoOptions off;
    off.combine = false;
    const Region all{{0, 0}, {kN, kN}};
    DPFS_RETURN_IF_ERROR(fs.ReadRegion(array_, all, combined));
    DPFS_RETURN_IF_ERROR(fs.ReadRegion(array_, all, separate, off));
    DPFS_RETURN_IF_ERROR(fs.ReadBytes(stream_, 0, stream));
    if (!Equal(combined, array_shadow_)) {
      run.Mismatch("region_mix: whole-array read (combine on) != shadow");
    }
    if (!Equal(separate, array_shadow_)) {
      run.Mismatch("region_mix: whole-array read (combine off) != shadow");
    }
    if (!Equal(stream, stream_shadow_)) {
      run.Mismatch("region_mix: whole linear-file read != shadow");
    }
    return Status::Ok();
  }

  std::string LivePath() override { return kArrayPath; }
  double sample_rate() const override { return 0.02; }
  // Fills the brick cache with the hot quarter.
  std::uint64_t warmup_ops() const override { return 2000; }

 private:
  static constexpr std::uint64_t kN = 1024;     // elements per dimension
  static constexpr std::uint64_t kElem = 8;     // bytes per element
  static constexpr std::uint64_t kBrick = 64;   // elements per brick side
  static constexpr std::uint64_t kStrip = 256;  // elements per strip
  static constexpr std::uint64_t kTile = 32;    // elements per tile side
  static constexpr std::uint64_t kBytes = kN * kN * kElem;  // 8 MiB each
  static constexpr std::uint64_t kCacheBytes = 2ull << 20;  // hot quarter
  static constexpr std::uint64_t kTaskOps = 8;
  static constexpr const char* kArrayPath = "/ooc/array";
  static constexpr const char* kStreamPath = "/ooc/stream";

  // Column strip, row strip or tile; reads favour the hot quarter
  // (the top-left N/2 x N/2 block, as many bytes as the brick cache).
  Status Array(FileSystem& fs, Run& run, std::uint64_t kind, bool reading,
               bool sampled) {
    const std::uint64_t limit =
        reading && rng_.NextDouble() < 0.75 ? kN / 2 : kN;
    Region region;
    if (kind == 0) {
      region = {{kBrick * rng_.NextBelow((limit - kStrip) / kBrick + 1),
                 rng_.NextBelow(limit)},
                {kStrip, 1}};
    } else if (kind == 1) {
      region = {{rng_.NextBelow(limit),
                 kBrick * rng_.NextBelow((limit - kStrip) / kBrick + 1)},
                {1, kStrip}};
    } else {
      region = {{kTile * rng_.NextBelow(limit / kTile),
                 kTile * rng_.NextBelow(limit / kTile)},
                {kTile, kTile}};
    }
    const std::uint64_t bytes = region.num_elements() * kElem;
    buffer_.resize(bytes);
    Status status;
    if (reading) {
      status = run.Call(CallClass::kRead, bytes, "read_region", [&] {
        return fs.ReadRegion(array_, region, buffer_);
      });
      if (status.ok() && !Equal(buffer_, Extract(region))) {
        run.Mismatch("region_mix: read of " + region.ToString() +
                     " differs from the shadow copy");
      }
    } else {
      FillPattern(rng_.NextU64(), buffer_);
      status = run.Call(CallClass::kWrite, bytes, "write_region", [&] {
        return fs.WriteRegion(array_, region, buffer_);
      });
      if (status.ok()) Apply(region, buffer_);
    }
    if (sampled && status.ok()) {
      Access access;
      access.handle = array_;
      access.direction = reading ? IoDirection::kRead : IoDirection::kWrite;
      access.shape = Access::Shape::kRegion;
      access.region = region;
      run.AddAccess(std::move(access));
    }
    return status;
  }

  // MPI_Type_vector of 64 blocks of 4 elements, strided 8, 32 or 128
  // elements apart, served as list I/O.
  Status Vector(FileSystem& fs, Run& run, bool reading, bool sampled) {
    static constexpr std::uint64_t kStrides[] = {8, 32, 128};
    const std::uint64_t stride = kStrides[rng_.NextBelow(3)];
    auto type = dpfs::client::Datatype::Vector(
        64, 4, stride, dpfs::client::Datatype::Bytes(kElem));
    if (!type.ok()) return type.status();
    const dpfs::client::Datatype& vec = type.value();
    const std::uint64_t base =
        kElem * rng_.NextBelow((kBytes - vec.extent()) / kElem + 1);
    IoOptions options;
    options.list_io = true;
    buffer_.resize(vec.size());
    Status status;
    if (reading) {
      status = run.Call(CallClass::kRead, vec.size(), "read_type", [&] {
        return fs.ReadType(stream_, base, vec, buffer_, options);
      });
      if (status.ok()) {
        std::uint64_t cursor = 0;
        bool same = true;
        for (const dpfs::client::ByteExtent& e : vec.extents()) {
          same = same && std::memcmp(buffer_.data() + cursor,
                                     stream_shadow_.data() + base + e.offset,
                                     e.length) == 0;
          cursor += e.length;
        }
        if (!same) {
          run.Mismatch("region_mix: vector read at " + std::to_string(base) +
                       " differs from the shadow copy");
        }
      }
    } else {
      FillPattern(rng_.NextU64(), buffer_);
      status = run.Call(CallClass::kWrite, vec.size(), "write_type", [&] {
        return fs.WriteType(stream_, base, vec, buffer_, options);
      });
      if (status.ok()) {
        std::uint64_t cursor = 0;
        for (const dpfs::client::ByteExtent& e : vec.extents()) {
          std::memcpy(stream_shadow_.data() + base + e.offset,
                      buffer_.data() + cursor, e.length);
          cursor += e.length;
        }
      }
    }
    if (sampled && status.ok()) {
      Access access;
      access.handle = stream_;
      access.direction = reading ? IoDirection::kRead : IoDirection::kWrite;
      access.shape = Access::Shape::kList;
      for (const dpfs::client::ByteExtent& e : vec.extents()) {
        access.extents.push_back({base + e.offset, e.length});
      }
      access.options = options;
      run.AddAccess(std::move(access));
    }
    return status;
  }

  // The packed bytes of `region` in the shadow array (row-major).
  Bytes Extract(const Region& region) const {
    const std::uint64_t row = region.extent[1] * kElem;
    Bytes out(region.extent[0] * row);
    for (std::uint64_t i = 0; i < region.extent[0]; ++i) {
      std::memcpy(out.data() + i * row,
                  array_shadow_.data() +
                      ((region.lower[0] + i) * kN + region.lower[1]) * kElem,
                  row);
    }
    return out;
  }

  void Apply(const Region& region, ByteSpan data) {
    const std::uint64_t row = region.extent[1] * kElem;
    for (std::uint64_t i = 0; i < region.extent[0]; ++i) {
      std::memcpy(array_shadow_.data() +
                      ((region.lower[0] + i) * kN + region.lower[1]) * kElem,
                  data.data() + i * row, row);
    }
  }

  std::uint64_t seed_;
  SplitMix64 rng_;
  FileHandle array_, stream_;
  bool opened_ = false;
  Bytes array_shadow_, stream_shadow_, buffer_;
};

// ---------------------------------------------------------------------------
// meta_churn: ~kLiveFiles 4 KiB files in kDirs directories. Ops: create
// plus a 4 KiB record write, open (fresh) plus a 4 KiB record read, rename,
// ListDirectory, remove of the oldest file. Create and remove share one
// slot of the mix and keep the live count at kLiveFiles.
//
// Each file's 4 KiB record lives in its slot of one shared manifest file,
// not in the file itself: a first write would create a subfile on a server
// (and remove/rename would unlink/rename it). On ext4 on a shared 4-vCPU
// VM, creating one 4 KiB file took 15-570 us and drifted 2x within
// minutes. The files stay sparse, so the servers' share of
// create/rename/remove is a lookup of a missing subfile and the time is the
// metadata's.

class MetaChurn final : public Workload {
 public:
  explicit MetaChurn(std::uint64_t seed) : seed_(seed), rng_(Key(seed, 3, 0)) {}

  Status Setup(FileSystem& fs) override {
    DPFS_RETURN_IF_ERROR(fs.metadata().MakeDirectory("/m"));
    for (std::uint64_t d = 0; d < kDirs; ++d) {
      DPFS_RETURN_IF_ERROR(fs.metadata().MakeDirectory(DirPath(d)));
    }
    dpfs::client::CreateOptions manifest;
    manifest.total_bytes = kSlots * kFileBytes;
    manifest.brick_bytes = kFileBytes;  // a record read moves one brick
    DPFS_ASSIGN_OR_RETURN(manifest_, fs.Create(kManifestPath, manifest));
    data_.resize(kFileBytes);
    expected_.resize(kFileBytes);
    for (std::uint64_t i = 0; i < kLiveFiles; ++i) {
      const std::uint64_t id = next_id_++;
      const std::string path = DirPath(id % kDirs) + "/" + FileName(id);
      DPFS_RETURN_IF_ERROR(fs.Create(path, Options()).status());
      FillPattern(Key(seed_, 3, id), data_);
      DPFS_RETURN_IF_ERROR(fs.WriteBytes(manifest_, Slot(id), data_));
      Link(id, id % kDirs, FileName(id));
    }
    return Status::Ok();
  }

  Status Step(FileSystem& fs, Run& run, std::uint64_t op) override {
    // create|remove 25%, open 50%, rename 15%, list 10%. The pooled
    // namespace p50 then falls inside the opens and the p90 inside the
    // renames and removes, not on a boundary between two kinds.
    const double pick = rng_.NextDouble();
    if (pick < 0.25) {
      return live_.size() < kLiveFiles ? Create(fs, run, op)
                                       : Remove(fs, run, op);
    }
    if (pick < 0.75) return Open(fs, run, op);
    if (pick < 0.90) return Rename(fs, run, op);
    return List(fs, run, op);
  }

  Status Finish(FileSystem& fs, Run& run) override {
    for (std::uint64_t d = 0; d < kDirs; ++d) {
      DPFS_ASSIGN_OR_RETURN(auto listing, fs.metadata().ListDirectory(DirPath(d)));
      CheckListing(run, d, listing);
    }
    return Status::Ok();
  }

  std::string LivePath() override { return files_[RandomLive()].path(); }
  double sample_rate() const override { return 0.02; }
  std::uint64_t warmup_ops() const override { return 1000; }

 private:
  static constexpr std::uint64_t kDirs = 16;
  static constexpr std::uint64_t kLiveFiles = 1000;
  static constexpr std::uint64_t kFileBytes = 4096;
  // Live ids span fewer than kSlots values, so live records never share a
  // slot.
  static constexpr std::uint64_t kSlots = 1024;
  static constexpr const char* kManifestPath = "/m/manifest";

  struct File {
    std::uint64_t dir = 0;
    std::string name;
    [[nodiscard]] std::string path() const {
      return DirPath(dir) + "/" + name;
    }
  };

  static std::string DirPath(std::uint64_t d) {
    return "/m/d" + std::to_string(d);
  }
  static std::string FileName(std::uint64_t id) {
    return "f" + std::to_string(id);
  }
  static dpfs::client::CreateOptions Options() {
    dpfs::client::CreateOptions options;
    options.total_bytes = kFileBytes;
    return options;
  }

  void Link(std::uint64_t id, std::uint64_t dir, std::string name) {
    dirs_[dir].insert(name);
    files_[id] = File{dir, std::move(name)};
    live_.push_back(id);
  }

  std::uint64_t RandomLive() { return live_[rng_.NextBelow(live_.size())]; }
  static std::uint64_t Slot(std::uint64_t id) {
    return (id % kSlots) * kFileBytes;
  }

  Status Create(FileSystem& fs, Run& run, std::uint64_t op) {
    const std::uint64_t id = next_id_++;
    const std::uint64_t dir = rng_.NextBelow(kDirs);
    const std::string path = DirPath(dir) + "/" + FileName(id);
    const bool sampled = run.BeginOp(op, "create");
    Status status = run.Call(CallClass::kMeta, 0, "create", [&] {
      return fs.Create(path, Options()).status();
    });
    if (status.ok()) {
      Link(id, dir, FileName(id));
      FillPattern(Key(seed_, 3, id), data_);
      status = run.Call(CallClass::kWrite, kFileBytes, "write_bytes", [&] {
        return fs.WriteBytes(manifest_, Slot(id), data_);
      });
    }
    if (sampled && status.ok()) AddRecord(run, id, IoDirection::kWrite);
    run.EndOp(status.ok());
    return status;
  }

  Status Open(FileSystem& fs, Run& run, std::uint64_t op) {
    const std::uint64_t id = RandomLive();
    const std::string path = files_[id].path();
    const bool sampled = run.BeginOp(op, "open");
    FileHandle handle;
    Status status = OpenFresh(fs, run, path, handle);
    if (status.ok()) {
      if (handle.meta().size_bytes != kFileBytes) {
        run.Mismatch("meta_churn: " + path + " has size " +
                     std::to_string(handle.meta().size_bytes));
      }
      status = run.Call(CallClass::kRead, kFileBytes, "read_bytes", [&] {
        return fs.ReadBytes(manifest_, Slot(id), data_);
      });
      if (status.ok()) {
        FillPattern(Key(seed_, 3, id), expected_);
        if (!Equal(data_, expected_)) {
          run.Mismatch("meta_churn: manifest record of " + path + " differs");
        }
      }
    }
    if (sampled && status.ok()) AddRecord(run, id, IoDirection::kRead);
    run.EndOp(status.ok());
    return status;
  }

  Status Rename(FileSystem& fs, Run& run, std::uint64_t op) {
    const std::uint64_t id = RandomLive();
    File& file = files_[id];
    const std::uint64_t dir = rng_.NextBelow(kDirs);
    const std::string name = FileName(id) + "r" + std::to_string(op);
    const std::string from = file.path();
    const std::string to = DirPath(dir) + "/" + name;
    run.BeginOp(op, "rename");
    const Status status = run.Call(CallClass::kMeta, 0, "rename",
                                   [&] { return fs.Rename(from, to); });
    if (status.ok()) {
      dirs_[file.dir].erase(file.name);
      dirs_[dir].insert(name);
      file = File{dir, name};
    }
    run.EndOp(status.ok());
    return status;
  }

  Status List(FileSystem& fs, Run& run, std::uint64_t op) {
    const std::uint64_t dir = rng_.NextBelow(kDirs);
    run.BeginOp(op, "list");
    dpfs::client::MetadataService::Listing listing;
    const Status status = run.Call(CallClass::kMeta, 0, "list", [&] {
      auto listed = fs.metadata().ListDirectory(DirPath(dir));
      if (!listed.ok()) return listed.status();
      listing = std::move(listed).value();
      return Status::Ok();
    });
    if (status.ok()) CheckListing(run, dir, listing);
    run.EndOp(status.ok());
    return status;
  }

  Status Remove(FileSystem& fs, Run& run, std::uint64_t op) {
    const std::uint64_t id = live_.front();
    const File file = files_[id];
    run.BeginOp(op, "remove");
    const Status status = run.Call(CallClass::kMeta, 0, "remove",
                                   [&] { return fs.Remove(file.path()); });
    if (status.ok()) {
      dirs_[file.dir].erase(file.name);
      files_.erase(id);
      live_.pop_front();
    }
    run.EndOp(status.ok());
    return status;
  }

  void CheckListing(Run& run, std::uint64_t dir,
                    const dpfs::client::MetadataService::Listing& listing) {
    const std::set<std::string> got(listing.files.begin(),
                                    listing.files.end());
    if (got != dirs_[dir] || !listing.directories.empty() ||
        got.size() != listing.files.size()) {
      run.Mismatch("meta_churn: listing of " + DirPath(dir) + " has " +
                   std::to_string(listing.files.size()) + " files, expected " +
                   std::to_string(dirs_[dir].size()));
    }
  }

  void AddRecord(Run& run, std::uint64_t id, IoDirection direction) const {
    Access access;
    access.handle = manifest_;
    access.direction = direction;
    access.shape = Access::Shape::kBytes;
    access.offset = Slot(id);
    access.length = kFileBytes;
    run.AddAccess(std::move(access));
  }

  std::uint64_t seed_;
  SplitMix64 rng_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, File> files_;
  std::map<std::uint64_t, std::set<std::string>> dirs_;
  std::deque<std::uint64_t> live_;  // oldest first
  FileHandle manifest_;
  Bytes data_, expected_;
};

}  // namespace

std::vector<const char*> AllKinds() {
  return {"write", "read",   "column", "row",  "tile",  "vector",
          "create", "open", "rename", "list", "remove"};
}

dpfs::Result<std::unique_ptr<Workload>> MakeWorkload(std::string_view name,
                                                     std::uint64_t seed) {
  if (name == "stripe_rw") return std::unique_ptr<Workload>(new StripeRw(seed));
  if (name == "region_mix") {
    return std::unique_ptr<Workload>(new RegionMix(seed));
  }
  if (name == "meta_churn") {
    return std::unique_ptr<Workload>(new MetaChurn(seed));
  }
  return dpfs::InvalidArgumentError("unknown workload " + std::string(name));
}

}  // namespace perfbench
