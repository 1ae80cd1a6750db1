// The shadow server (paper §4, §6): runs at the supercomputer site,
// maintains the best-effort cache of shadow files, pulls updates on its
// own schedule (demand-driven flow control, §5.2), accepts job
// submissions, executes them, and transfers results back — optionally as
// deltas against the previous output of the same job (reverse shadow
// processing, §8.3) and optionally routed to a different client (§8.3).
#pragma once

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/shadow_cache.hpp"
#include "compress/compress.hpp"
#include "job/executor.hpp"
#include "job/queue.hpp"
#include "naming/domain_map.hpp"
#include "net/transport.hpp"
#include "persist/durable_store.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "server/journal_records.hpp"
#include "server/load_monitor.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace shadow::server {

/// When does the server pull a new version into its cache?
enum class PullPolicy : u8 {
  /// Immediately on NotifyNewVersion — updates flow in the background
  /// while the user keeps editing (§5.1's concurrency advantage).
  kEager = 0,
  /// Only when a submitted job actually needs the file.
  kLazyOnSubmit = 1,
};

const char* pull_policy_name(PullPolicy policy);

struct ServerConfig {
  std::string name = "supercomputer";
  u64 cache_budget = 0;  // bytes; 0 = unlimited
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  PullPolicy pull_policy = PullPolicy::kEager;
  /// Cap on simultaneously outstanding PullRequests (overrun avoidance —
  /// the flow-control advantage §5.2 claims for demand-driven).
  std::size_t max_outstanding_pulls = 4;
  /// Cache job outputs and ship output deltas on re-runs (§8.3).
  bool reverse_shadow = false;
  /// Compression applied to outbound JobOutput payloads (§8.3).
  compress::Codec output_codec = compress::Codec::kStored;
  /// Abstract executor ops per second of simulated CPU.
  double cpu_ops_per_second = 50e6;
  std::size_t max_concurrent_jobs = 4;
  /// Load-average-based deferral (§5.2 / §3 adaptability). Disabled by
  /// default (high_water <= 0).
  LoadMonitorConfig load;
  /// Hard admission budgets answered with ServerBusy + retry_after_usec
  /// (overload control; all budgets default off).
  OverloadConfig overload;
  /// Session lease: a connection whose lease has not been renewed (by any
  /// traffic or an explicit Heartbeat) for this long is expired and its
  /// per-client state reclaimed. 0 = leases disabled.
  u64 lease_usec = 0;
  /// Run every client connection over the reliable session layer
  /// (sequence numbers + CRC frames + ack/retransmit). Both ends must
  /// agree (ShadowEnvironment::reliable_session).
  bool reliable_session = false;
  /// First retransmit delay / backoff cap for the reliable sessions'
  /// ack/retransmit timers, microseconds. 0 keeps the channel defaults
  /// (200ms / 1.6s). Slow links need timers longer than the worst-case
  /// frame transmission time or large frames are resent before their
  /// acks can possibly arrive (see ShadowEnvironment for the client end).
  u64 retransmit_initial_usec = 0;
  u64 retransmit_cap_usec = 0;
  /// How many times a job interrupted mid-run by a crash is re-queued
  /// before it is marked failed and the owner is notified instead.
  u64 max_job_retries = 3;
  /// Which shard of a ShardedServer this instance is (recorded in the
  /// snapshot manifest so recovery can detect a re-sharded store), and
  /// how many shards the server was split into. 0/1 = standalone.
  std::size_t shard_id = 0;
  std::size_t shard_count = 1;
  /// Prepended to every telemetry name this server mirrors ("shard2." for
  /// shard 2; empty for a standalone server, preserving the plain
  /// server.*/load.* names shadowtop has always shown).
  std::string telemetry_prefix;
  /// Accept the content-defined-chunking delta codec and hold CDC-tracked
  /// files as digest-only cache entries (docs/DELTAS.md). Off, the server
  /// advertises only the legacy codecs and every client falls back to
  /// ed-script/block-move.
  bool cdc_enabled = true;
};

struct ServerStats {
  u64 notifies_received = 0;
  u64 pulls_sent = 0;
  u64 pulls_deferred = 0;   // postponed by flow control
  u64 updates_received = 0;
  u64 updates_applied = 0;  // Updates that reached the cache write
  u64 full_repulls = 0;     // Updates answered with a full re-pull
  u64 update_bytes = 0;     // Update payload bytes received
  u64 full_transfers = 0;   // updates that carried full content
  u64 delta_transfers = 0;  // updates that carried a delta
  u64 cdc_transfers = 0;    // delta updates in the CDC codec
  u64 digest_advances = 0;  // signatures advanced without content bytes
  u64 digest_advance_failures = 0;  // stale/failed advances (full re-pull)
  u64 jobs_submitted = 0;
  u64 jobs_completed = 0;
  u64 jobs_failed = 0;
  u64 outputs_sent = 0;
  u64 output_bytes = 0;     // JobOutput payload bytes sent
  u64 output_delta_hits = 0;  // reverse-shadow deltas shipped
  u64 unsolicited_updates = 0;  // request-driven clients pushing
  u64 deferred_by_load = 0;   // pulls/starts postponed by the load monitor
  u64 session_resyncs = 0;    // desyncs detected by the reliable session
  u64 journal_appends = 0;    // durable mutation records written
  u64 journal_failures = 0;   // appends/compactions the storage refused
  u64 acks_deferred = 0;      // gating acks held until their batch fsyncs
  u64 persist_flushes = 0;    // commit-batch flushes this server ran
  u64 compactions = 0;        // snapshot + journal-truncate cycles
  u64 recovered_records = 0;  // journal records replayed at startup
  u64 requeued_jobs = 0;      // orphaned kRunning jobs put back in queue
  u64 retry_capped_jobs = 0;  // orphans failed after too many retries
  u64 busy_rejects = 0;          // Hellos/submits shed with ServerBusy
  u64 conns_dropped_overflow = 0;  // connections dropped at the byte cap
  u64 leases_expired = 0;        // sessions reclaimed by lease expiry
  u64 heartbeats_received = 0;   // explicit lease renewals
  u64 drain_notices = 0;         // ServerBusy(draining) sent at drain
};

/// Every ServerStats field with the telemetry name it is mirrored under.
/// The one list that mirroring (sync_telemetry) and summing (shards,
/// scenario reports) loop over, so a new field cannot be half-wired.
struct ServerStatName {
  const char* name;
  u64 ServerStats::*field;
};
inline constexpr ServerStatName kServerStatNames[] = {
    {"server.notifies_received", &ServerStats::notifies_received},
    {"server.pulls_sent", &ServerStats::pulls_sent},
    {"server.pulls_deferred", &ServerStats::pulls_deferred},
    {"server.updates_received", &ServerStats::updates_received},
    {"server.updates_applied", &ServerStats::updates_applied},
    {"server.full_repulls", &ServerStats::full_repulls},
    {"server.update_bytes", &ServerStats::update_bytes},
    {"server.full_transfers", &ServerStats::full_transfers},
    {"server.delta_transfers", &ServerStats::delta_transfers},
    {"server.cdc_transfers", &ServerStats::cdc_transfers},
    {"server.digest_advances", &ServerStats::digest_advances},
    {"server.digest_advance_failures", &ServerStats::digest_advance_failures},
    {"server.jobs_submitted", &ServerStats::jobs_submitted},
    {"server.jobs_completed", &ServerStats::jobs_completed},
    {"server.jobs_failed", &ServerStats::jobs_failed},
    {"server.outputs_sent", &ServerStats::outputs_sent},
    {"server.output_bytes", &ServerStats::output_bytes},
    {"server.output_delta_hits", &ServerStats::output_delta_hits},
    {"server.unsolicited_updates", &ServerStats::unsolicited_updates},
    {"server.deferred_by_load", &ServerStats::deferred_by_load},
    {"server.session_resyncs", &ServerStats::session_resyncs},
    {"server.journal_appends", &ServerStats::journal_appends},
    {"server.journal_failures", &ServerStats::journal_failures},
    {"server.acks_deferred", &ServerStats::acks_deferred},
    {"server.persist_flushes", &ServerStats::persist_flushes},
    {"server.compactions", &ServerStats::compactions},
    {"server.recovered_records", &ServerStats::recovered_records},
    {"server.requeued_jobs", &ServerStats::requeued_jobs},
    {"server.retry_capped_jobs", &ServerStats::retry_capped_jobs},
    {"overload.busy_rejects", &ServerStats::busy_rejects},
    {"overload.conns_dropped", &ServerStats::conns_dropped_overflow},
    {"overload.drain_notices", &ServerStats::drain_notices},
    {"lease.expired", &ServerStats::leases_expired},
    {"lease.heartbeats", &ServerStats::heartbeats_received},
};

static_assert(sizeof(ServerStats) ==
                  sizeof(u64) * std::size(kServerStatNames),
              "every ServerStats field needs a kServerStatNames entry");

inline ServerStats& operator+=(ServerStats& total, const ServerStats& s) {
  for (const auto& f : kServerStatNames) total.*f.field += s.*f.field;
  return total;
}

class ShadowServer {
 public:
  /// `store` (optional) makes every mutation crash-consistent: the server
  /// appends a journal record — and waits for the fsync — BEFORE it
  /// acknowledges anything to a client. Must outlive the server.
  explicit ShadowServer(ServerConfig config, sim::Simulator* simulator = nullptr,
                        persist::DurableStore* store = nullptr);
  /// DROPS unresolved commit callbacks (they capture this server); never
  /// sends from a destructor.
  ~ShadowServer();

  /// Attach a client connection. The server installs itself as the
  /// transport's receiver; the client identifies itself with Hello.
  void attach(net::Transport* transport);

  /// Forget a connection whose transport is about to be destroyed (the
  /// sharded event loops reap closed sockets). Drops the Connection and
  /// its clients_ entry; per-file state stays — the client may reconnect.
  void detach(net::Transport* transport);

  /// Cross-shard delivery hook, for the §8.3 output_route case where a
  /// job's output goes to a workstation pinned to a sibling shard. When
  /// send_to() finds no local connection for a client, the router is
  /// offered the message (ShardedServer posts it to the client's home
  /// shard); a JobOutputAck for a job another shard numbered is offered
  /// too (posted to that shard). Return true when the message was taken.
  using PeerRouteFn =
      std::function<bool(const std::string& client_name,
                         const proto::Message& m)>;
  void set_peer_router(PeerRouteFn fn) { peer_router_ = std::move(fn); }

  /// True if this client said Hello over one of OUR connections.
  bool has_client(const std::string& client_name) const {
    return clients_.count(client_name) != 0;
  }

  /// The receiving half of the peer-router hook, on this shard's thread:
  /// settle a JobOutputAck that `client_name` sent for one of our jobs,
  /// or deliver any other message to that locally connected client.
  void deliver_routed(const std::string& client_name,
                      const proto::Message& m);

  /// Feed one already-received wire message through the normal dispatch
  /// path on behalf of `transport` (which must be attach()ed). The
  /// sharded lobby uses this to replay the Hello it consumed while
  /// deciding which shard owns the connection.
  void inject_message(net::Transport* transport, Bytes wire);

  const ServerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }
  const LoadMonitor& load_monitor() const { return load_monitor_; }
  cache::ShadowCache& file_cache() { return cache_; }
  const job::JobQueue& jobs() const { return queue_; }
  naming::DomainMap& domains() { return domains_; }

  /// Failure injection for tests: drop a cached file as if evicted.
  void evict_file(const naming::GlobalFileId& id);

  /// One retransmit round on every reliable session (no-op without
  /// config.reliable_session), then pump_persist(), lease expiry and the
  /// doomed-connection reap. Returns frames resent plus records released.
  std::size_t tick();

  // ---- overload control & graceful drain -----------------------------

  /// Expire every connection whose lease ran out (config.lease_usec > 0),
  /// reclaiming its per-client state; clients renew by any traffic or an
  /// explicit Heartbeat. Safe from event-loop idle hooks — never call
  /// from inside a message handler. Returns the number expired.
  std::size_t expire_leases();

  /// Destroy connections doomed by a send-queue overflow or lease expiry
  /// (dooming inside a handler only marks; this reclaims). Returns the
  /// number reaped.
  std::size_t reap_doomed();

  /// Enter drain: refuse new Hellos and submits (ServerBusy with
  /// draining=true), notify connected v1 clients once, and flush the open
  /// commit batch so deferred acks resolve. Idempotent.
  void begin_drain();
  bool draining() const { return draining_; }
  /// True once every journaled record has been fsynced and its deferred
  /// ack released — the point at which exiting loses nothing.
  bool drain_complete() const;

  /// Sum of all connections' queued outbound bytes (overload budget).
  std::size_t total_queued_bytes() const;

  /// Reliable-session stats summed over all connections (diagnostics).
  proto::ReliableChannel::Stats session_stats() const;

  /// Mirror this server's accumulated ServerStats, queue/cache/connection
  /// readings and load-monitor state into the global telemetry registry
  /// (server.* and load.* names). Called before every admin snapshot so
  /// shadowtop sees current values; cheap enough to call at will.
  void sync_telemetry() const;

  /// Snapshot the server's durable state as the shortest record stream
  /// that rebuilds it (server/journal_records.hpp): one cached or digest
  /// record per cache entry (files and reverse-shadow outputs alike), in
  /// the eviction policy's order so recency survives; then one
  /// job-submitted record per job, in any state. Live connections and
  /// pulls in flight are NOT included — after a crash, clients reconnect
  /// and re-announce; the cache is what makes that cheap.
  Bytes save_state() const;
  /// Restore a snapshot into a freshly constructed server (same config):
  /// check the header, replay its records.
  Status restore_state(const Bytes& snapshot);

  /// Crash recovery: load the store's snapshot, replay the journal's
  /// valid prefix (damaged tails were already truncated by the store),
  /// re-queue jobs that were running when the lights went out, and
  /// compact so the next crash starts from here. Call once, before
  /// attach(). A missing/empty store directory recovers to empty state.
  Status recover_from_storage();

  /// False once the durable store has refused a write — acknowledgements
  /// stop flowing because durability can no longer be promised.
  bool persist_alive() const { return store_ == nullptr || !persist_dead_; }

  // ---- group commit --------------------------------------------------

  /// Fsync the open commit batch, releasing every deferred ack
  /// (UpdateAck / SubmitReply / output delivery) it gates, and repeat
  /// until the acks' own records are durable too; then compact if due.
  /// The shard loop calls this once per pass, a simulator at the instant
  /// the first record is staged, in-process callers where a loop would.
  /// Returns the number of records released (0 = nothing pending).
  std::size_t pump_persist();

 private:
  struct Connection {
    net::Transport* transport = nullptr;
    /// Present iff config.reliable_session.
    std::unique_ptr<proto::ReliableChannel> channel;
    std::string client_name;  // empty until Hello
    /// Delta codecs the client advertised at Hello, intersected with what
    /// this server accepts.
    u32 codecs = proto::kLegacyCodecs;
    /// Last traffic/Heartbeat, sim or steady micros (lease bookkeeping).
    u64 lease_renewed_us = 0;
    /// Marked dead mid-dispatch (queue overflow, expired lease); ignored
    /// by every path and reclaimed by reap_doomed() once off the stack.
    bool doomed = false;
  };

  /// Per-file server-side knowledge.
  struct FileState {
    naming::GlobalFileId id;
    std::string cache_key;
    u64 latest_known = 0;  // newest version any client announced
    u64 latest_size = 0;
    u32 latest_crc = 0;
    /// Newest version requested, 0 = none. Non-zero exactly while the
    /// file holds its one outstanding-pull slot (take/release_pull_slot).
    u64 pull_outstanding = 0;
    std::string owner_client;  // client that serves pulls for this file
    bool pull_wanted = false;  // deferred by flow control; retry later
  };

  void on_message(Connection* conn, Bytes wire);
  void handle(Connection* conn, const proto::Hello& m);
  void handle(Connection* conn, const proto::NotifyNewVersion& m);
  /// Unpack, then one of two arms makes the new version: the content arm
  /// applies the delta to cached bytes, the CDC arm advances the cached
  /// chunk digests (docs/DELTAS.md). One shared tail caches, journals and
  /// acks it. Any failure ends in repull_full().
  void handle(Connection* conn, const proto::Update& m);
  void handle(Connection* conn, const proto::SubmitJob& m);
  void handle(Connection* conn, const proto::StatusQuery& m);
  void handle(Connection* conn, const proto::JobOutputAck& m);
  /// Mark one of our jobs delivered (ok) or resend its output in full.
  void settle_output_ack(const std::string& from_client,
                         const proto::JobOutputAck& m);
  void handle(Connection* conn, const proto::AdminQuery& m);
  void handle(Connection* conn, const proto::Heartbeat& m);

  void send_to(const std::string& client_name, const proto::Message& m);
  void send(Connection* conn, const proto::Message& m);

  FileState& file_state(const naming::GlobalFileId& id);
  /// Issue a PullRequest for `state` if flow control allows. `need_bytes`
  /// is set when a job must materialize the file: a current-but-digest-
  /// only cache entry then still triggers a pull (for full content),
  /// because digests cannot feed an executor sandbox.
  void maybe_pull(FileState& state, bool need_bytes = false);
  /// Retry pulls deferred by the outstanding-pull cap.
  void drain_deferred_pulls();
  /// The only writers of outstanding_pulls_: a file holds at most one
  /// slot however many pulls it has in flight. take records `version` as
  /// the newest one requested; release is a no-op for a slotless file.
  void take_pull_slot(FileState& state, u64 version);
  void release_pull_slot(FileState& state);
  /// Answer update `m` with a pull for its version in full (§5.1): the
  /// server cannot use what it received or what it holds. No ack — the
  /// re-pull supersedes. Counted and recorded as a kCache event with `why`.
  void repull_full(Connection* conn, FileState& state,
                   const proto::Update& m, const std::string& why);
  /// True if a queued or waiting job needs `version` (or older) of the
  /// file cached under `cache_key`.
  bool needed_by_job(const std::string& cache_key, u64 version);

  /// Move jobs forward: pull missing files, start runnable jobs.
  void schedule_jobs();
  bool files_ready(const job::JobRecord& record) const;
  void start_job(job::JobRecord& record);
  void finish_job(u64 job_id, job::ExecutionResult result);
  /// Send a finished, undelivered job's output (no-op for other jobs).
  /// With reverse shadow on, the job's output entry in the cache is the
  /// delta base; an output that differs from it becomes the next
  /// generation, one the entry already holds ships under that generation
  /// and stores nothing. `full` sends whole content (the client could not
  /// apply a delta).
  void deliver_output(const job::JobRecord& record, bool full = false);
  /// Deliver every finished, unacknowledged output of `client_name` (a
  /// Hello, or a session resync).
  void redeliver_outputs(const std::string& client_name);

  /// Drop pinned copies no longer needed by any active job.
  void release_pins(const job::JobRecord& finished);

  /// Postpone work while overloaded; retries are self-scheduled.
  bool load_says_wait();

  /// Current sim or steady-clock time for lease bookkeeping.
  u64 now_micros() const;
  /// Mark a connection dead without touching the connection list (safe
  /// mid-dispatch); the transport is asked to close so event loops reap
  /// it, and reap_doomed() reclaims the rest.
  void doom_connection(Connection* conn, const std::string& why);
  /// Budget violated by accepting more work right now, or nullptr.
  const char* admission_refusal() const;
  /// ServerBusy with the configured retry-after.
  void send_busy(Connection* conn, u64 client_job_token,
                 const std::string& reason);

  /// Reliable-session desync recovery: re-arm pulls that were in flight
  /// and re-deliver outputs the client never acknowledged.
  void resync_connection(Connection* conn);

  /// Journal one record (journal::body_of) and run `on_durable` once it
  /// is fsynced, from the flush that seals its batch (inline with no
  /// store attached). On storage failure the callback never runs and the
  /// server stops acking. Pass nullptr for non-gating records.
  void persist_append_then(journal::Body body,
                           std::function<void()> on_durable);
  /// Storage refused a write/fsync: count it, stop acking, log once.
  void mark_persist_dead(persist::RecordType type, const Status& st);
  /// Deferred compaction: runs only between batches so snapshot-then-
  /// truncate never sits on the ack path.
  void maybe_compact_persist();
  /// Snapshot-then-truncate now. A failure is a journal failure: it is
  /// recorded like a refused append and the server stops acking.
  void compact_persist();
  /// Send only if `conn` is still one of ours under the same client name
  /// (deferred acks may outlive a detach).
  void send_if_attached(Connection* conn, const std::string& client_name,
                        const proto::Message& m);
  /// Non-gating eviction record (losing it costs a re-pull, not
  /// correctness).
  void persist_eviction(const std::string& cache_key);

  /// Replay one record (its body read from `in`) over the current state:
  /// a journal record, or one of a snapshot's. All replays are idempotent
  /// so records older than the snapshot are harmless.
  Status replay_record(persist::RecordType type, BufReader& in);
  /// Bind the (file id, shadow id) pair a shadow record carries, in the
  /// domain its cache key names. False for a malformed key.
  bool bind_shadow(const journal::ShadowHeader& head);
  /// The FileState update both shadow records replay: bind, then adopt
  /// the record's version (of `size` bytes) if it is the newest known.
  Status replay_shadow(journal::ShadowHeader& head, u64 size,
                       std::string_view owner);
  /// Drop every piece of recoverable state (used when a damaged snapshot
  /// degrades recovery to journal-only).
  void reset_volatile_state();
  /// Jobs found kRunning after a restart never finished: re-queue them,
  /// or fail them for good once the retry budget is spent.
  void requeue_orphans();

  ServerConfig config_;
  sim::Simulator* sim_;  // nullptr = execute instantaneously
  PeerRouteFn peer_router_;  // cross-shard send_to fallback
  persist::DurableStore* store_;  // nullptr = in-memory only
  bool persist_dead_ = false;     // storage refused a write; stop acking
  bool persist_flush_scheduled_ = false;  // simulator flush armed
  LoadMonitor load_monitor_;
  bool load_retry_scheduled_ = false;
  bool draining_ = false;  // refusing new work; exiting soon
  cache::ShadowCache cache_;
  naming::DomainMap domains_;
  job::JobQueue queue_;
  job::Executor executor_;
  ServerStats stats_;

  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<std::string, Connection*> clients_;  // name -> connection
  std::map<std::string, FileState> files_;      // cache key -> state
  std::size_t outstanding_pulls_ = 0;
  std::size_t running_jobs_ = 0;

  /// Content the best-effort cache refused (over budget) but an active job
  /// still needs; released when the last interested job finishes.
  struct PinnedFile {
    u64 version = 0;
    std::string content;
  };
  std::map<std::string, PinnedFile> pinned_;
};

}  // namespace shadow::server
