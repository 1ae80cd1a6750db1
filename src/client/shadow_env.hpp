// The shadow environment (paper §6.3.1): per-user customization database.
// Set up automatically with defaults; every knob the paper names is here —
// choice of editor, default host, retention of old versions — plus the
// knobs our reproduction adds for the ablation studies (diff algorithm,
// compression codec, flow-control mode, background updates).
#pragma once

#include <string>

#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "util/result.hpp"
#include "version/version_store.hpp"

namespace shadow::client {

/// Who drives data transfer (paper §5.2).
enum class FlowMode : u8 {
  /// The server pulls when it decides to (the paper's design).
  kDemandDriven = 0,
  /// The client pushes updates unprompted and tracks server state (the
  /// rejected baseline, implemented for the ablation bench).
  kRequestDriven = 1,
};

const char* flow_mode_name(FlowMode mode);

struct ShadowEnvironment {
  /// Default supercomputer for submit when none is named (§6.2).
  std::string default_server;
  /// The encapsulated editor (cosmetic; the paper reads $EDITOR).
  std::string editor = "vi";
  /// Old versions kept besides the latest (§6.3.2 customization).
  std::size_t retention_limit = 8;
  /// How old versions are stored on the workstation: verbatim, or as
  /// reverse deltas from their successor (Tichy's RCS technique — [Tic84]
  /// appears in the paper's bibliography).
  version::StorageMode version_storage = version::StorageMode::kFull;
  /// Diff algorithm for outgoing updates (§8.3 lists the alternatives).
  diff::Algorithm algorithm = diff::Algorithm::kHuntMcIlroy;
  /// Compute ed-script AND block-move deltas, ship the smaller (§3
  /// adaptability; doubles diff CPU, wins on moves and binary content).
  bool adaptive_diff = false;
  /// Offer the content-defined-chunking codec in the Hello handshake
  /// (docs/DELTAS.md). Off = the client offers only the two line codecs
  /// (kLegacyCodecs), and no pull to it carries a codec hint.
  bool cdc = true;
  /// CDC crossover: files at least this big always go as chunk deltas
  /// (text included — past this size chunk matching beats line diffing
  /// on workstation CPU alone).
  u64 cdc_min_bytes = 256 * 1024;
  /// Lower crossover for content the binariness sniff flags: line-based
  /// ed-scripts degenerate on binaries long before they do on text.
  u64 cdc_min_binary_bytes = 16 * 1024;
  /// Chunking geometry for outgoing CDC deltas. Both sides derive the
  /// same cut points from the params carried in each delta/signature, so
  /// this is a per-client tuning knob, not a handshake matter.
  cdc::ChunkerParams cdc_params;
  /// Compression for outgoing payloads (§8.3).
  compress::Codec codec = compress::Codec::kStored;
  /// Notify the server as soon as an editing session ends, so updates can
  /// flow in the background (§5.1); false = server learns at submit time.
  bool background_updates = true;
  FlowMode flow = FlowMode::kDemandDriven;
  /// Run each server session over the reliable session layer (sequence
  /// numbers + CRC frames + ack/retransmit — proto::ReliableChannel).
  /// Required when the transport below can lose, reorder or corrupt
  /// messages; both ends must agree (ServerConfig::reliable_session).
  bool reliable_session = false;
  /// Fractional jitter on the reliable session's retransmit backoff and
  /// on the lost-job census retry timer, seeded per (client, server) so
  /// each schedule stays reproducible. Decorrelates the retry bursts of
  /// many clients recovering from one server outage (thundering herd);
  /// 0 keeps the historical deterministic schedules.
  double retransmit_jitter = 0.0;
  /// First retransmit delay / backoff cap for the reliable session's
  /// ack/retransmit timer, microseconds. 0 keeps the channel defaults
  /// (200ms / 1.6s), sized for LAN-class links. On slow lines these MUST
  /// exceed the worst-case frame transmission time plus a round trip, or
  /// every large frame is resent before its ack can possibly arrive and
  /// the retransmissions amplify the very congestion that delayed it.
  u64 retransmit_initial_usec = 0;
  u64 retransmit_cap_usec = 0;
  /// Workstation throughput for computing differential comparisons, in
  /// bytes of base file per second (simulation only). ~100 KB/s models the
  /// 1987-class workstations of the paper running HM75 diff; the cost is
  /// what makes the paper's speedups saturate near 25x on big files
  /// instead of growing without bound. 0 disables the model.
  double diff_bytes_per_second = 100'000;

  /// Serialize as a dotfile ("key value" lines).
  std::string to_text() const;
  static Result<ShadowEnvironment> from_text(const std::string& text);
};

}  // namespace shadow::client
