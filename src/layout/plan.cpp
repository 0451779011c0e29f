#include "layout/plan.h"

#include <algorithm>
#include <map>

namespace dpfs::layout {

std::uint64_t ServerRequest::transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const BrickRequest& brick : bricks) total += brick.transfer_bytes;
  return total;
}

std::uint64_t ServerRequest::useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const BrickRequest& brick : bricks) total += brick.useful_bytes;
  return total;
}

std::uint64_t ClientPlan::transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ServerRequest& request : requests) {
    total += request.transfer_bytes();
  }
  return total;
}

std::uint64_t ClientPlan::useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ServerRequest& request : requests) total += request.useful_bytes();
  return total;
}

std::size_t IoPlan::total_requests() const noexcept {
  std::size_t total = 0;
  for (const ClientPlan& client : clients) total += client.num_requests();
  return total;
}

std::uint64_t IoPlan::total_transfer_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ClientPlan& client : clients) total += client.transfer_bytes();
  return total;
}

std::uint64_t IoPlan::total_useful_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const ClientPlan& client : clients) total += client.useful_bytes();
  return total;
}

namespace {

BrickRequest MakeBrickRequest(const BrickMap& map, const PlanOptions& options,
                              BrickId brick, const BrickUsage& usage) {
  BrickRequest request;
  request.brick = brick;
  request.useful_bytes = usage.useful_bytes;
  request.num_runs = usage.num_runs;
  request.fragments = std::max<std::uint64_t>(1, usage.fragments);
  // Whole-brick reads move the whole brick (the client discards the rest);
  // sieve reads and writes move only the useful bytes, at the right subfile
  // offsets.
  request.transfer_bytes =
      options.direction == IoDirection::kRead && options.whole_brick_reads
          ? map.brick_fetch_bytes(brick)
          : usage.useful_bytes;
  return request;
}

/// Builds the ordered request stream from a per-brick usage summary.
ClientPlan BuildPlan(const BrickMap& map, const BrickDistribution& dist,
                     std::uint32_t client,
                     const std::map<BrickId, BrickUsage>& usage,
                     const PlanOptions& options) {
  ClientPlan plan;
  plan.client = client;
  plan.direction = options.direction;
  plan.whole_brick_reads = options.whole_brick_reads;
  plan.parallel_dispatch = options.parallel_dispatch;

  if (!options.combine) {
    // General approach (§4.2): one request per brick, issued in ascending
    // brick order — exactly the behaviour whose congestion the paper
    // analyses (all clients start on the same server).
    plan.requests.reserve(usage.size());
    for (const auto& [brick, brick_usage] : usage) {
      ServerRequest request;
      request.server = dist.server_for(brick);
      request.bricks.push_back(
          MakeBrickRequest(map, options, brick, brick_usage));
      plan.requests.push_back(std::move(request));
    }
    return plan;
  }

  // Request combination: group bricks by owning server (keeping ascending
  // brick order inside each request).
  std::map<ServerId, ServerRequest> grouped;
  for (const auto& [brick, brick_usage] : usage) {
    const ServerId server = dist.server_for(brick);
    ServerRequest& request = grouped[server];
    request.server = server;
    request.bricks.push_back(
        MakeBrickRequest(map, options, brick, brick_usage));
  }
  std::vector<ServerRequest> requests;
  requests.reserve(grouped.size());
  for (auto& [server, request] : grouped) {
    requests.push_back(std::move(request));
  }
  // Scheduling: rotate the server order per client so client c begins at a
  // different server than client c+1 (§4.2's subfile staggering).
  if (options.rotate_start && !requests.empty()) {
    const std::size_t shift = client % requests.size();
    std::rotate(requests.begin(), requests.begin() + shift, requests.end());
  }
  plan.requests = std::move(requests);
  return plan;
}

}  // namespace

Result<ClientPlan> PlanRegionAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    std::uint32_t client, const Region& region,
                                    const PlanOptions& options) {
  if (dist.num_bricks() < map.num_bricks()) {
    return InvalidArgumentError(
        "distribution covers " + std::to_string(dist.num_bricks()) +
        " bricks but file has " + std::to_string(map.num_bricks()));
  }
  DPFS_ASSIGN_OR_RETURN(const auto usage, map.SummarizeRegion(region));
  return BuildPlan(map, dist, client, usage, options);
}

Result<ClientPlan> PlanByteAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client, std::uint64_t offset,
                                  std::uint64_t length,
                                  const PlanOptions& options) {
  if (dist.num_bricks() < map.num_bricks()) {
    return InvalidArgumentError(
        "distribution covers " + std::to_string(dist.num_bricks()) +
        " bricks but file has " + std::to_string(map.num_bricks()));
  }
  DPFS_ASSIGN_OR_RETURN(const auto usage,
                        map.SummarizeByteRange(offset, length));
  return BuildPlan(map, dist, client, usage, options);
}

Result<ClientPlan> PlanListAccess(const BrickMap& map,
                                  const BrickDistribution& dist,
                                  std::uint32_t client,
                                  const std::vector<FileExtent>& extents,
                                  const PlanOptions& options) {
  if (map.level() != FileLevel::kLinear) {
    return InvalidArgumentError("list I/O requires a linear file");
  }
  if (dist.num_bricks() < map.num_bricks()) {
    return InvalidArgumentError(
        "distribution covers " + std::to_string(dist.num_bricks()) +
        " bricks but file has " + std::to_string(map.num_bricks()));
  }
  const std::uint64_t brick_bytes = map.brick_bytes();
  std::uint64_t prev_end = 0;
  for (const FileExtent& extent : extents) {
    if (extent.length == 0) {
      return InvalidArgumentError("list extents must be non-empty");
    }
    if (prev_end > 0 && extent.offset < prev_end) {
      return InvalidArgumentError(
          "list extents must be sorted by offset and non-overlapping");
    }
    prev_end = extent.offset + extent.length;
  }
  if (prev_end > 0) {
    const BrickId last_brick = (prev_end - 1) / brick_bytes;
    if (last_brick >= dist.num_bricks()) {
      return InvalidArgumentError(
          "distribution covers " + std::to_string(dist.num_bricks()) +
          " bricks but the access reaches brick " + std::to_string(last_brick));
    }
  }

  ClientPlan plan;
  plan.client = client;
  plan.direction = options.direction;
  plan.whole_brick_reads = false;  // a list transfer moves only listed bytes
  plan.parallel_dispatch = options.parallel_dispatch;
  plan.list_io = true;

  // Walk the extents in file order (so bricks — and, per brick, brick-local
  // offsets — only grow), splitting at brick boundaries. The packed buffer
  // cursor advances with every byte taken, extent gaps notwithstanding.
  std::map<ServerId, ServerRequest> grouped;
  std::map<BrickId, std::uint64_t> fragment_end;
  std::uint64_t buffer_offset = 0;
  for (const FileExtent& extent : extents) {
    std::uint64_t offset = extent.offset;
    std::uint64_t remaining = extent.length;
    while (remaining > 0) {
      const BrickId brick = offset / brick_bytes;
      const std::uint64_t within = offset % brick_bytes;
      const std::uint64_t take = std::min(brick_bytes - within, remaining);
      const ServerId server = dist.server_for(brick);
      const std::uint64_t subfile_offset =
          dist.slot_for(brick) * brick_bytes + within;
      ServerRequest& request = grouped[server];
      request.server = server;
      // Per-brick accounting: useful == transfer (sieve-style), fragments
      // counted in brick space exactly as SummarizeByteRange would.
      if (request.bricks.empty() || request.bricks.back().brick != brick) {
        request.bricks.push_back(BrickRequest{brick, 0, 0, 0, 0});
      }
      BrickRequest& usage = request.bricks.back();
      usage.useful_bytes += take;
      usage.transfer_bytes += take;
      usage.num_runs += 1;
      const auto end_it = fragment_end.find(brick);
      if (end_it == fragment_end.end() || end_it->second != within) {
        usage.fragments += 1;
      }
      fragment_end[brick] = within + take;
      // Wire extents: extend the server's last extent when both the subfile
      // and the packed buffer continue exactly (this also merges across
      // consecutive slots of one subfile); otherwise start a new fragment.
      if (!request.list_extents.empty() &&
          request.list_extents.back().subfile_offset +
                  request.list_extents.back().length ==
              subfile_offset &&
          request.list_extents.back().buffer_offset +
                  request.list_extents.back().length ==
              buffer_offset) {
        request.list_extents.back().length += take;
      } else {
        request.list_extents.push_back(
            ListExtent{subfile_offset, buffer_offset, take});
      }
      offset += take;
      buffer_offset += take;
      remaining -= take;
    }
  }

  std::vector<ServerRequest> requests;
  requests.reserve(grouped.size());
  for (auto& [server, request] : grouped) {
    // The wire requires strictly ascending extents. The walk above emits
    // them in file order, which is subfile order for every placement whose
    // slots grow with brick id (all built-in policies); a hand-built
    // distribution (FromBrickLists) may permute slots, so sort to be sure.
    std::sort(request.list_extents.begin(), request.list_extents.end(),
              [](const ListExtent& a, const ListExtent& b) {
                return a.subfile_offset < b.subfile_offset;
              });
    requests.push_back(std::move(request));
  }
  // Same §4.2 staggering as combined plans: client c starts on a different
  // server than client c+1.
  if (options.rotate_start && !requests.empty()) {
    const std::size_t shift = client % requests.size();
    std::rotate(requests.begin(), requests.begin() + shift, requests.end());
  }
  plan.requests = std::move(requests);
  return plan;
}

LoweredRequest LowerRequest(const ServerRequest& request,
                            const BrickDistribution& dist,
                            const BrickMap& map, const RunsByBrick& runs,
                            bool whole_bricks) {
  LoweredRequest lowered;
  std::uint64_t wire = 0;  // length of the wire stream lowered so far
  if (!request.list_extents.empty()) {
    for (const ListExtent& extent : request.list_extents) {
      lowered.extents.push_back({extent.subfile_offset, extent.length});
      lowered.pieces.push_back({wire, extent.buffer_offset, extent.length});
      wire += extent.length;
    }
    return lowered;
  }
  for (const BrickRequest& brick : request.bricks) {
    const std::uint64_t slot = dist.slot_for(brick.brick) * map.brick_bytes();
    const auto it = runs.find(brick.brick);
    if (whole_bricks) {
      const std::uint64_t fetch = map.brick_fetch_bytes(brick.brick);
      lowered.extents.push_back({slot, fetch});
      if (it != runs.end()) {
        for (const BrickRun& run : it->second) {
          lowered.pieces.push_back(
              {wire + run.offset_in_brick, run.buffer_offset, run.length});
        }
      }
      wire += fetch;
      continue;
    }
    if (it == runs.end()) continue;
    for (const BrickRun& run : it->second) {
      const std::uint64_t offset = slot + run.offset_in_brick;
      if (!lowered.extents.empty() &&
          lowered.extents.back().subfile_offset +
                  lowered.extents.back().length ==
              offset) {
        lowered.extents.back().length += run.length;
      } else {
        lowered.extents.push_back({offset, run.length});
      }
      lowered.pieces.push_back({wire, run.buffer_offset, run.length});
      wire += run.length;
    }
  }
  return lowered;
}

Result<IoPlan> PlanCollectiveAccess(const BrickMap& map,
                                    const BrickDistribution& dist,
                                    const std::vector<Region>& regions,
                                    const PlanOptions& options) {
  IoPlan plan;
  plan.clients.reserve(regions.size());
  for (std::size_t client = 0; client < regions.size(); ++client) {
    DPFS_ASSIGN_OR_RETURN(
        ClientPlan client_plan,
        PlanRegionAccess(map, dist, static_cast<std::uint32_t>(client),
                         regions[client], options));
    plan.clients.push_back(std::move(client_plan));
  }
  return plan;
}

}  // namespace dpfs::layout
