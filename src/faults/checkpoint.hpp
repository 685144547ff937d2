#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/detector.hpp"
#include "core/investigation.hpp"
#include "logging/log_store.hpp"
#include "net/byte_codec.hpp"
#include "net/medium.hpp"
#include "olsr/agent.hpp"
#include "sim/rng.hpp"
#include "trust/trust_store.hpp"

namespace manet::faults {

/// First bytes of every checkpoint ("MNTC" little-endian) and the format
/// version. Compatibility rule: a reader accepts exactly its own version —
/// the snapshot is a byte-exact state image, so any layout change (a new
/// field, a reordered table) bumps the version and invalidates old files.
/// There is deliberately no migration path: checkpoints are short-lived
/// run artifacts, not archival data. Version 2 added the detector's
/// forwarding-audit state and the per-attack-kind experiment payload.
inline constexpr std::uint32_t kCheckpointMagic = 0x43544E4Du;  // "MNTC"
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Thrown on malformed, truncated or version-mismatched snapshots.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Little-endian writer of the snapshot format. Fixed-width fields only —
/// the restore path must consume exactly what was written.
using CheckpointWriter = net::ByteWriter<std::endian::little>;

/// Bounds-checked mirror of CheckpointWriter; throws CheckpointError on
/// truncation instead of reading past the end.
using CheckpointReader = net::ByteReader<std::endian::little, CheckpointError>;

// ---------------------------------------------------------------- components
// Each component codec is a matched encode/decode pair; decode applies
// state directly through the component's checkpoint surface. Pending
// *events* (timers, in-flight frames, jittered forwards, the injector
// cursor) are returned as images instead — the restore harness re-arms
// them globally, sorted by (time, original seq), so the rebuilt event
// queue preserves every tie-break of the uninterrupted run.
// Each decode passes count() the least wire bytes one element of that
// table occupies as encoded, so a corrupt count cannot size a container
// beyond what the input can hold.

/// One periodic timer's pending firing.
struct TimerImage {
  bool running = false;
  sim::Time next_fire{};
  std::uint64_t seq = 0;
};

/// One jittered §3.4.1 forward not yet emitted (message in wire form).
struct ForwardImage {
  std::vector<std::uint8_t> message;
  sim::Time at{};
  std::uint64_t seq = 0;
};

/// Everything about one agent that is an event, not state.
struct AgentImage {
  bool running = false;
  TimerImage hello, tc, mid, housekeeping;
  std::vector<ForwardImage> forwards;
};

void encode_rng(CheckpointWriter& w, const sim::Rng::State& state);
sim::Rng::State decode_rng(CheckpointReader& r);

void encode_log(CheckpointWriter& w, const logging::LogStore& log);
void decode_log(CheckpointReader& r, logging::LogStore& log);

void encode_agent(CheckpointWriter& w, const olsr::Agent& agent);
AgentImage decode_agent(CheckpointReader& r, olsr::Agent& agent);

void encode_trust(CheckpointWriter& w, const trust::TrustStore& store);
void decode_trust(CheckpointReader& r, trust::TrustStore& store);

void encode_detector(CheckpointWriter& w, const core::Detector& detector);
void decode_detector(CheckpointReader& r, core::Detector& detector);

void encode_investigations(CheckpointWriter& w,
                           const core::InvestigationManager& inv);
void decode_investigations(CheckpointReader& r,
                           core::InvestigationManager& inv);

/// Medium image: counters and per-host radio state (up/down, brown-out
/// override, partition id) are applied to `medium` on decode; the in-flight
/// frames are returned for the ordered global re-arm.
struct MediumImage {
  net::MediumStats stats;
  std::vector<net::InFlightFrame> flights;
};

void encode_medium(CheckpointWriter& w, const net::Medium& medium);
MediumImage decode_medium(CheckpointReader& r, net::Medium& medium);

}  // namespace manet::faults
