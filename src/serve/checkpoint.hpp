// Durable campaign checkpoints: CampaignSnapshot <-> MWRW wire frames.
//
// A daemon restart must not forfeit the suite runs already paid for by
// thousands of in-flight campaigns.  Each resident campaign therefore
// serializes, between update cycles, to a self-contained file that a
// fresh daemon can load and resume *bit-identically*: the restored
// session replays the exact stochastic trajectory (same RNG stream
// state, same MWU weights, same working pool) the uninterrupted run
// would have produced, verified end-to-end by the trajectory-hash pin in
// tests/test_serve.cpp.
//
// The encoding deliberately reuses the core::serialize_message seam —
// the checkpoint file is a sequence of ordinary versioned MWRW message
// frames, one per section, with the section id in the message tag and
// the campaign id in the frame's dest field:
//
//   tag 0 header   — format version, campaign id, snapshot scalars;
//   tag 1 request  — the original SubmitRequest (the campaign definition,
//                    so resume needs no side channel);
//   tag 2 bugs     — finished-bug ledgers plus the in-flight bug's;
//   tag 3 pool     — the working pool as (kind, target, donor) triples;
//   tag 4 repair   — RNG stream state, MWU strategy state (bit-exact
//                    doubles), online counters; present only when a
//                    RepairSession was live.
//
// Using message frames means the bytes inherit the wire format's
// versioning, endianness discipline, and length-prefixed framing for
// free, and any tooling that can read a transport trace can read a
// checkpoint.  Fields wider than a double use the payload_codec.hpp
// conventions (u64 as two u32 halves, strings char-per-double).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apr/campaign_session.hpp"
#include "serve/control.hpp"

namespace mwr::serve {

struct CampaignCheckpoint {
  std::uint64_t campaign_id = 0;
  SubmitRequest request;          ///< definition: replan on resume.
  apr::CampaignSnapshot snapshot; ///< execution state between cycles.
};

/// Encodes to the framed byte sequence described above.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint);

/// Decodes a byte sequence produced by encode_checkpoint.  Throws
/// std::runtime_error on truncation, unknown sections, or a format
/// version from the future.
[[nodiscard]] CampaignCheckpoint decode_checkpoint(
    std::span<const std::uint8_t> bytes);

/// Durable file write: writes `bytes` to `path + ".tmp"`, fsyncs it,
/// then renames over `path`, so a crash mid-write never leaves a torn
/// checkpoint under the canonical name (a kill -9 mid-flush leaves only
/// the tmp file, which restore_from_dir ignores).  Returns bytes.size().
/// Throws std::runtime_error on I/O failure.
std::size_t write_checkpoint_bytes(std::span<const std::uint8_t> bytes,
                                   const std::string& path);

/// Reads and decodes one checkpoint file.
[[nodiscard]] CampaignCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace mwr::serve
