// Shadow protocol wire messages (paper §6.4).
//
// The exchange is demand driven: the client only ever *notifies* (small,
// fixed-size messages); the server decides when to *pull* file content.
//
//   client                              server
//   ------ NotifyNewVersion ----------->        (end of editing session)
//   <----------------- PullRequest -----        (server's chosen moment)
//   ------ Update (delta|full) -------->
//   <------------------- UpdateAck -----        (client may GC versions)
//   ------ SubmitJob ------------------>        (names + versions only)
//   <----------------- SubmitReply -----
//   <----- PullRequest / UpdateAck ----->       (missing files, if any)
//   ------ StatusQuery ---------------->
//   <----------------- StatusReply -----
//   <------------------- JobOutput -----        (run complete; may be a
//   ------ JobOutputAck --------------->         delta — reverse shadow)
//
// Update and JobOutput payloads are a diff::Delta encoded and then wrapped
// by compress::compress() (self-describing codec tag), so compression is
// negotiated per message at zero protocol cost. pack_payload() and
// unpack_payload() are the only writer and reader of that format.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "naming/file_id.hpp"
#include "telemetry/registry.hpp"
#include "util/byte_io.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::proto {

enum class MessageType : u8 {
  kHello = 1,
  kHelloReply = 2,
  kNotifyNewVersion = 3,
  kPullRequest = 4,
  kUpdate = 5,
  kUpdateAck = 6,
  kSubmitJob = 7,
  kSubmitReply = 8,
  kStatusQuery = 9,
  kStatusReply = 10,
  kJobOutput = 11,
  kJobOutputAck = 12,
  kAdminQuery = 13,
  kAdminReply = 14,
  kServerBusy = 15,
  kHeartbeat = 16,
};

const char* message_type_name(MessageType type);

/// Lifecycle of a job at the server (also reported over the wire).
enum class JobState : u8 {
  kQueued = 0,        // accepted, not yet scheduled
  kWaitingFiles = 1,  // scheduled but input files not all cached yet
  kRunning = 2,
  kCompleted = 3,     // ran; output not yet delivered
  kFailed = 4,
  kDelivered = 5,     // output transferred and acknowledged
};

const char* job_state_name(JobState state);

// ---- session ----

/// Shadow protocol revision spoken by this build. Version 0 is the
/// pre-overload-control wire format; version 1 adds ServerBusy, Heartbeat
/// and the trailing version fields on Hello/HelloReply. Both fields are
/// OPTIONAL on the wire (absent = 0), so either end can talk to a legacy
/// peer: a v1 client only sends Heartbeats to a server that announced
/// v1 back, and a v1 server never sends ServerBusy to a v0 client — it
/// falls back to the v0 behaviours (silent close / SubmitReply reject).
inline constexpr u32 kShadowProtocolVersion = 1;

// Delta-codec capability bits exchanged at Hello (docs/DELTAS.md). A
// frame that ends before the codec mask — any pre-CDC peer — implies the
// legacy pair, so negotiation degrades transparently: the intersection of
// both masks never includes CDC unless both ends advertise it.
inline constexpr u32 kCodecEdScript = 1u << 0;
inline constexpr u32 kCodecBlockMove = 1u << 1;
inline constexpr u32 kCodecCdc = 1u << 2;
inline constexpr u32 kLegacyCodecs = kCodecEdScript | kCodecBlockMove;
inline constexpr u32 kAllCodecs = kLegacyCodecs | kCodecCdc;

struct Hello {
  std::string client_name;  // client host identity
  std::string domain;       // client's naming domain id
  u32 protocol_version = kShadowProtocolVersion;  // 0 = legacy peer
  u32 codecs = kAllCodecs;  // delta codecs the client can produce
};

struct HelloReply {
  std::string server_name;
  u32 protocol_version = kShadowProtocolVersion;  // 0 = legacy peer
  u32 codecs = kAllCodecs;  // delta codecs the server accepts
};

/// Client -> server: explicit lease renewal for a connection with no
/// other traffic (an editor sitting idle between saves). Any message
/// renews the lease; this one exists to renew it at zero semantic cost.
struct Heartbeat {
  u64 client_time_us = 0;  // sender's clock, diagnostics only
};

/// Server -> client: request shed by admission control or drain. The
/// client must not retry the refused operation before `retry_after_usec`
/// has elapsed (and should add jitter on top — see sim::Backoff).
struct ServerBusy {
  u64 retry_after_usec = 0;
  /// Refused SubmitJob's client token; 0 = the whole session was refused
  /// (Hello admission or a drain notice) rather than one operation.
  u64 client_job_token = 0;
  /// Server is shutting down: do not retry this server until it
  /// reappears; reconcile with another replica or wait for restart.
  bool draining = false;
  std::string reason;  // which budget tripped, for logs/operators
};

// ---- cache maintenance (§6.4) ----

/// Client -> server: a new version of a shadow file exists. Contains no
/// file content — the server pulls when it wants it.
struct NotifyNewVersion {
  naming::GlobalFileId file;
  u64 version = 0;
  u64 size = 0;  // content size (lets the server plan cache space)
  u32 crc = 0;
};

/// Server -> client: transmit version `want_version` of `file` as a delta
/// against `have_version` (0 = server holds nothing; send the full file).
struct PullRequest {
  naming::GlobalFileId file;
  u64 have_version = 0;
  u64 want_version = 0;
  /// Codec the server needs the delta in (a kCodec* bit), or 0 for the
  /// sender's choice. A digest-only server sets kCodecCdc: it holds the
  /// base as a signature, so only a CDC delta (or a full transfer) can
  /// advance it. Encoded only when nonzero — a hint-free pull is
  /// byte-identical to the legacy wire format.
  u32 codec_hint = 0;
};

/// Client -> server: the requested content. If the client no longer
/// stores `base_version`, it falls back to a full-content delta and sets
/// base_version = 0 (§6.3.2).
struct Update {
  naming::GlobalFileId file;
  u64 base_version = 0;
  u64 new_version = 0;
  Bytes payload;  // pack_payload(delta, codec)
};

/// Server -> client: cache now holds `version`; older client-side versions
/// may be garbage-collected. This server never sends ok=false: it answers
/// an Update it cannot use with a full re-pull instead. Older servers
/// nack (ok=false), and the client then resends the file in full.
struct UpdateAck {
  naming::GlobalFileId file;
  u64 version = 0;
  bool ok = true;
  std::string error;
};

// ---- batch subsystem (§6.2) ----

struct JobFileRef {
  naming::GlobalFileId file;
  std::string local_name;  // name the command file uses for this input
  u64 version = 0;
  u32 crc = 0;
};

struct SubmitJob {
  u64 client_job_token = 0;  // client-chosen correlation id
  std::string command_file;  // job command file content (one command/line)
  std::vector<JobFileRef> files;
  std::string output_name;  // where the client wants stdout stored
  std::string error_name;   // where the client wants stderr stored
  /// Client name to deliver output to; empty = the submitting client
  /// (output routing, §8.3 future work).
  std::string output_route;
};

struct SubmitReply {
  u64 client_job_token = 0;
  u64 job_id = 0;
  bool accepted = true;
  std::string reason;
};

struct StatusQuery {
  u64 job_id = 0;  // 0 = all jobs of this client (§6.2 Status)
};

struct JobStatusInfo {
  u64 job_id = 0;
  /// The submitter's own token, echoed back so a client can recognize its
  /// jobs even across a server restart that renumbered job ids.
  u64 client_job_token = 0;
  JobState state = JobState::kQueued;
  std::string detail;
};

struct StatusReply {
  std::vector<JobStatusInfo> jobs;
};

/// Server -> client: results of a completed job. Payloads are
/// compress(encode(diff::Delta)); with reverse shadow processing enabled
/// the delta is against the previous output of the same job signature.
struct JobOutput {
  u64 job_id = 0;
  u64 client_job_token = 0;
  int exit_code = 0;
  std::string output_name;
  std::string error_name;
  Bytes output_payload;
  Bytes error_payload;
  /// Output-cache generation the delta is based on (0 = full content).
  u64 output_base_generation = 0;
  u64 output_generation = 0;
};

struct JobOutputAck {
  u64 job_id = 0;
  bool ok = true;
  std::string error;
};

// ---- observability (docs/OBSERVABILITY.md) ----

/// Wire version of the admin (telemetry) exchange. The reply always echoes
/// the version it speaks; a server that cannot honour the requested
/// version answers ok=false instead of guessing.
inline constexpr u32 kAdminProtocolVersion = 1;

/// AdminQuery.sections bitmask: which parts of the registry to ship.
inline constexpr u32 kAdminCounters = 1;
inline constexpr u32 kAdminGauges = 2;
inline constexpr u32 kAdminHistograms = 4;
inline constexpr u32 kAdminEvents = 8;
inline constexpr u32 kAdminServerInfo = 16;
inline constexpr u32 kAdminAllSections =
    kAdminCounters | kAdminGauges | kAdminHistograms | kAdminEvents |
    kAdminServerInfo;

/// Client (shadowtop) -> server: read-only request for a telemetry
/// snapshot. Safe to send over a chaotic link — it mutates nothing and is
/// idempotent.
struct AdminQuery {
  u32 protocol_version = kAdminProtocolVersion;
  u32 sections = kAdminAllSections;
  std::string prefix;  // metric-name prefix filter ("" = everything)
  u64 max_events = 0;  // cap on event entries (0 = none even if requested)
};

/// Server -> client: the snapshot. Counters/gauges/histograms arrive
/// sorted by name; events oldest-first. events_total is the ring's
/// all-time count, so a poller can tell how many events it missed between
/// queries.
struct AdminReply {
  u32 protocol_version = kAdminProtocolVersion;
  bool ok = true;
  std::string error;        // set when ok=false (e.g. version mismatch)
  std::string server_name;  // kAdminServerInfo
  u64 events_total = 0;     // kAdminEvents: EventRing::total_recorded()
  telemetry::Snapshot snapshot;
};

using Message =
    std::variant<Hello, HelloReply, NotifyNewVersion, PullRequest, Update,
                 UpdateAck, SubmitJob, SubmitReply, StatusQuery, StatusReply,
                 JobOutput, JobOutputAck, AdminQuery, AdminReply, ServerBusy,
                 Heartbeat>;

MessageType type_of(const Message& message);

/// Serialize a message (1-byte type tag + body).
Bytes encode_message(const Message& message);

/// Parse a message; rejects malformed or truncated input.
Result<Message> decode_message(const Bytes& wire);

/// Update/JobOutput payload: `delta` encoded, then compressed with `codec`.
Bytes pack_payload(const diff::Delta& delta, compress::Codec codec);

/// Inverse of pack_payload(); rejects a bad codec tag, an undecodable
/// delta and trailing bytes after the delta.
Result<diff::Delta> unpack_payload(const Bytes& payload);

}  // namespace shadow::proto
