// Request planning: turns (file layout, placement, per-client access) into
// the stream of client→server requests, with or without the paper's request
// combination optimization (§4.2).
//
// The resulting IoPlan is consumed by two executors:
//   * dpfs::client — issues the requests over real TCP and moves real bytes;
//   * dpfs::simnet — replays the request stream against calibrated network
//     and disk models to reproduce the paper's performance figures.
//
// Transfer accounting follows the paper's semantics: a READ fetches whole
// bricks ("only the first two elements of each brick are really useful, the
// second half will be discarded", §3.2), so partially-useful bricks still
// move their full size across the wire. A WRITE sends only the useful bytes
// (the server writes them at the right offsets), which in the paper's
// workloads always covers whole bricks anyway.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "layout/brick_map.h"
#include "layout/placement.h"

namespace dpfs::layout {

enum class IoDirection : std::uint8_t { kRead = 0, kWrite = 1 };

/// One contiguous byte extent of a linear file — the input unit of list I/O
/// planning (a flattened `Datatype` access, already coalesced).
struct FileExtent {
  std::uint64_t offset = 0;  // bytes from the start of the file
  std::uint64_t length = 0;  // bytes

  friend bool operator==(const FileExtent&, const FileExtent&) = default;
};

/// One wire fragment of a list request: a contiguous subfile byte range
/// paired with where those bytes live in the caller's packed access buffer.
/// This is exactly the (offset, length) pair the list_read/list_write wire
/// bodies carry (docs/WIRE_PROTOCOL.md); buffer_offset stays client-side.
struct ListExtent {
  std::uint64_t subfile_offset = 0;  // bytes from the subfile's start
  std::uint64_t buffer_offset = 0;   // bytes into the packed access buffer
  std::uint64_t length = 0;          // bytes

  friend bool operator==(const ListExtent&, const ListExtent&) = default;
};

/// One brick's worth of a request.
struct BrickRequest {
  BrickId brick = 0;
  std::uint64_t useful_bytes = 0;    // bytes the client actually needs
  std::uint64_t transfer_bytes = 0;  // bytes that cross the wire
  std::uint64_t num_runs = 0;        // buffer-side scatter/gather runs
  std::uint64_t fragments = 0;       // wire fragments after run coalescing

  friend bool operator==(const BrickRequest&, const BrickRequest&) = default;
};

/// One client→server message (a combined request carries many bricks; an
/// uncombined one exactly one).
struct ServerRequest {
  ServerId server = 0;
  /// Replica rank this request targets (replication extension,
  /// layout/replication.h). 0 = the primary copy — the only value
  /// unreplicated plans ever carry.
  std::uint32_t replica = 0;
  std::vector<BrickRequest> bricks;
  /// List-I/O plans only (PlanListAccess): the exact subfile extents this
  /// request names on the wire, in subfile-offset order, merged where both
  /// the subfile and the packed buffer continue. Empty for every other plan.
  std::vector<ListExtent> list_extents;

  [[nodiscard]] std::uint64_t transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t useful_bytes() const noexcept;
};

/// An access's buffer runs grouped by brick (BrickMap::ForEachRun or
/// ForEachByteRun output): what requests gather from and scatter into.
using RunsByBrick = std::unordered_map<BrickId, std::vector<BrickRun>>;

/// One contiguous subfile byte range named on the wire.
struct WireExtent {
  std::uint64_t subfile_offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const WireExtent&, const WireExtent&) = default;
};

/// One contiguous piece of the caller's access buffer inside a request's
/// wire stream — the bytes of its extents concatenated in order, which is
/// both a read reply and the payload a write gathers.
struct BufferPiece {
  std::uint64_t wire_offset = 0;    // bytes into the wire stream
  std::uint64_t buffer_offset = 0;  // bytes into the packed access buffer
  std::uint64_t length = 0;

  friend bool operator==(const BufferPiece&, const BufferPiece&) = default;
};

/// A request lowered to what crosses the wire.
struct LoweredRequest {
  std::vector<WireExtent> extents;
  std::vector<BufferPiece> pieces;  // sorted by wire_offset
};

/// Lowers one request of any plan mode to one extent list:
///   * list I/O (request.list_extents set): the list extents unchanged;
///   * whole-brick reads (`whole_bricks`): one extent per brick, in brick
///     order, at slot * brick_bytes and brick_fetch_bytes long, carrying
///     one piece per run of the brick;
///   * sieve reads and writes: the runs in brick order, merged wherever
///     the subfile continues (also across adjacent slots), one piece each.
/// `dist` is the distribution of the request's replica rank. No piece
/// straddles two extents, so any split of the extents into batches splits
/// the pieces too.
LoweredRequest LowerRequest(const ServerRequest& request,
                            const BrickDistribution& dist,
                            const BrickMap& map, const RunsByBrick& runs,
                            bool whole_bricks);

/// The ordered request stream of one client.
struct ClientPlan {
  std::uint32_t client = 0;
  IoDirection direction = IoDirection::kRead;
  /// Read fetch granularity this plan was built with (see PlanOptions).
  bool whole_brick_reads = true;
  /// Extension: issue every request concurrently (one dispatch thread per
  /// server) instead of the paper's sequential client loop.
  bool parallel_dispatch = false;
  /// Extension: this plan carries per-request subfile extent lists
  /// (ServerRequest::list_extents) and executes as list_read/list_write
  /// wire requests (docs/NONCONTIGUOUS_IO.md). Built by PlanListAccess.
  bool list_io = false;
  std::vector<ServerRequest> requests;

  [[nodiscard]] std::size_t num_requests() const noexcept {
    return requests.size();
  }
  [[nodiscard]] std::uint64_t transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t useful_bytes() const noexcept;
};

/// All clients of one collective access.
struct IoPlan {
  std::vector<ClientPlan> clients;

  [[nodiscard]] std::size_t total_requests() const noexcept;
  [[nodiscard]] std::uint64_t total_transfer_bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_useful_bytes() const noexcept;
};

struct PlanOptions {
  IoDirection direction = IoDirection::kRead;
  /// §4.2 request combination: all bricks a client needs from one server are
  /// coalesced into a single request.
  bool combine = false;
  /// §4.2 scheduling: with combination, client c issues its combined
  /// requests starting at server (c mod S) so clients fan out over distinct
  /// servers instead of stampeding server 0 together.
  bool rotate_start = true;
  /// The paper's READ semantics: fetch whole bricks and discard the unused
  /// part (§3.2). Set false for *sieve reads*, a DPFS extension that
  /// transfers only the useful runs — trading per-fragment overhead for
  /// wire efficiency (see bench/ablation_sieve_reads).
  bool whole_brick_reads = true;
  /// Extension: dispatch the client's requests concurrently rather than
  /// sequentially (see bench/ablation_parallel_dispatch).
  bool parallel_dispatch = false;
};

/// Plans one client's access to an element region of the file.
Result<ClientPlan> PlanRegionAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    std::uint32_t client, const Region& region,
                                    const PlanOptions& options);

/// Plans one client's access to a raw byte extent (linear files).
Result<ClientPlan> PlanByteAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client, std::uint64_t offset,
                                  std::uint64_t length,
                                  const PlanOptions& options);

/// Plans one client's list-I/O access to a set of byte extents of a linear
/// file (a flattened noncontiguous `Datatype` access). Every extent is split
/// at brick boundaries, each piece is mapped to its absolute subfile offset
/// (slot * brick_bytes + offset-in-brick), and all pieces bound for one
/// server ride in a single list request — list I/O always combines, so
/// `options.combine` is ignored and `options.whole_brick_reads` does not
/// apply (a list transfer moves exactly the listed bytes, like sieve).
/// `options.rotate_start` and `options.parallel_dispatch` behave as in the
/// other planners. Extents must be non-empty, sorted by offset, and
/// non-overlapping (adjacent is fine — adjacent pieces merge). Pure math,
/// like the rest of this layer.
Result<ClientPlan> PlanListAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client,
                                  const std::vector<FileExtent>& extents,
                                  const PlanOptions& options);

/// Plans a collective access: client i accesses regions[i].
Result<IoPlan> PlanCollectiveAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    const std::vector<Region>& regions,
                                    const PlanOptions& options);

}  // namespace dpfs::layout
