// Layer replay for the traced run: each sampled op's data accesses are
// re-run through the public function of every layer they cross — plan,
// frame encode/decode with CRC, one RPC per server request against a
// bench-owned IoServer, and subfile I/O on a bench-private SubfileStore —
// each timed as a child span carrying the op's id.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "net/connection.h"
#include "server/io_server.h"
#include "server/subfile_store.h"

namespace perfbench {

/// Sums over every replayed sample.
struct LayerTotals {
  std::uint64_t samples = 0;
  double op_us = 0;  // live time of the sampled ops
  std::uint64_t accesses = 0, read_accesses = 0, write_accesses = 0;
  double access_us = 0;  // live time of the sampled accesses
  std::uint64_t requests = 0;
  double plan_us = 0;
  double encode_us = 0;  // request + reply, EncodeFrame included
  double decode_us = 0;  // request + reply, FrameDecoder included
  double crc_us = 0, crc_bytes = 0;
  double rpc_read_us = 0, rpc_write_us = 0;
  double subfile_read_us = 0, subfile_read_bytes = 0;
  double subfile_write_us = 0, subfile_write_bytes = 0;
  double copy_us = 0;  // gather/scatter of the useful bytes
  double lookup_us = 0;
  std::uint64_t lookups = 0;
};

class Replayer {
 public:
  static dpfs::Result<std::unique_ptr<Replayer>> Start(
      const std::filesystem::path& root);
  ~Replayer();
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Replays `sample`'s accesses, then times a metadata lookup of
  /// `live_path`.
  dpfs::Status Replay(const Sample& sample, dpfs::client::FileSystem& fs,
                      const std::string& live_path, LayerTotals& totals,
                      std::vector<Span>& spans, Clock::time_point epoch);

 private:
  Replayer(std::unique_ptr<dpfs::server::IoServer> server,
           dpfs::net::ServerConnection conn, std::filesystem::path store_root);

  dpfs::Status ReplayAccess(const Access& access, std::uint64_t op,
                            LayerTotals& totals, std::vector<Span>& spans,
                            Clock::time_point epoch);
  dpfs::Status Prefill(const std::string& subfile, std::uint64_t bytes);

  std::unique_ptr<dpfs::server::IoServer> server_;
  std::optional<dpfs::net::ServerConnection> conn_;
  dpfs::server::SubfileStore store_;
  std::set<std::string> prefilled_;
};

/// Chrome-trace JSON of `spans` plus `other` (a JSON object) as otherData.
std::string ChromeTraceJson(const std::vector<Span>& spans,
                            const std::string& other);

}  // namespace perfbench
