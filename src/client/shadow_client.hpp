// The client side of the shadow system (paper §6): runs at the user's
// workstation, hides all communication, tracks versions of shadow files,
// answers the server's pull requests with deltas, submits jobs, and
// receives results. "Multiple clients can have connections open to a
// server simultaneously, and a client can have simultaneous connections
// to multiple servers" (§6.1) — a ShadowClient holds one session per
// server.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <memory>

#include "client/shadow_env.hpp"
#include "naming/resolver.hpp"
#include "naming/tilde.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"
#include "version/version_store.hpp"
#include "vfs/cluster.hpp"

namespace shadow::client {

struct ClientStats {
  u64 notifies_sent = 0;
  u64 pulls_received = 0;
  u64 updates_sent = 0;
  u64 update_payload_bytes = 0;
  u64 full_sent = 0;           // updates carrying full content
  u64 delta_sent = 0;          // updates carrying a delta
  u64 cdc_sent = 0;            // updates carrying a chunk (CDC) delta
  u64 acks_received = 0;
  u64 outputs_received = 0;
  u64 output_payload_bytes = 0;
  u64 output_delta_applied = 0;  // reverse-shadow deltas applied
  u64 output_nacks_sent = 0;
  u64 session_resyncs = 0;    // desyncs detected by the reliable session
  u64 lost_job_resubmits = 0;  // acked jobs a restarted server had lost
  u64 server_busy = 0;         // ServerBusy replies received
  u64 busy_retries = 0;        // Hellos/submits re-sent after backoff
  u64 heartbeats_sent = 0;     // explicit lease renewals
};

/// Client-side view of one submitted job.
struct JobView {
  u64 token = 0;
  u64 job_id = 0;          // server-assigned (0 until SubmitReply)
  std::string server;
  proto::JobState state = proto::JobState::kQueued;
  std::string detail;
  int exit_code = 0;
  bool output_received = false;
  std::string output_path;
  std::string error_path;
};

class ShadowClient {
 public:
  struct SubmitOptions {
    std::vector<std::string> files;  // local paths of data files
    std::string command_file;       // job command file CONTENT
    std::string output_path = "/home/user/job.out";
    std::string error_path = "/home/user/job.err";
    std::string server;        // empty = environment default (§6.2)
    std::string output_route;  // deliver output to this client instead
  };

  /// `name` is both the client's identity and its vfs host name.
  ShadowClient(std::string name, ShadowEnvironment env,
               vfs::Cluster* cluster, std::string domain_id);

  /// Open a session to a server over `transport` (sends Hello). The first
  /// connected server becomes the environment default if none is set.
  void connect(const std::string& server_name, net::Transport* transport);

  /// Attach the discrete-event clock so the workstation's diff-computation
  /// time (env().diff_bytes_per_second) is charged to the simulation, and
  /// reliable-session retransmit timers self-schedule with backoff.
  /// Without a simulator updates are sent immediately.
  void set_simulator(sim::Simulator* simulator);

  /// One retransmit round on every reliable session (no-op without
  /// env().reliable_session), plus due ServerBusy/census retries when no
  /// simulator drives their timers. Poll-driven hosts without a simulator
  /// call this when traffic stalls. Returns the number of frames resent.
  std::size_t tick();

  /// Renew this client's session lease on every server that has answered
  /// its Hello (explicit Heartbeat; any other traffic also renews).
  /// Poll-driven hosts call this on a timer well inside the server's
  /// --lease-usec. Returns the number of heartbeats sent.
  std::size_t heartbeat();

  /// True while a ServerBusy from `server` has a retry pending (the
  /// session is backing off rather than failed). "" = any server.
  bool backing_off(const std::string& server = "") const;

  /// True once `server` answered our Hello with a HelloReply.
  bool hello_done(const std::string& server) const;

  /// The reliable session to `server` (nullptr when not connected or when
  /// the session layer is off) — diagnostics and tests.
  const proto::ReliableChannel* session_channel(
      const std::string& server) const;

  /// Enable Tilde names (§5.3, [CM86]): paths beginning with '~' are
  /// resolved through `user`'s view in `forest`. The forest must outlive
  /// the client.
  void set_tilde(const naming::TildeForest* forest, std::string user) {
    tilde_ = forest;
    tilde_user_ = std::move(user);
  }

  /// (host, absolute path) a local name denotes: the client's own host for
  /// plain paths, the tilde tree's location for '~' paths. The editor and
  /// all file captures go through this.
  Result<std::pair<std::string, std::string>> translate(
      const std::string& path) const;

  /// Full resolution of a local/tilde name to its global id (tooling and
  /// diagnostics; the file must exist).
  Result<naming::GlobalFileId> resolve_name(const std::string& path) const;

  const std::string& name() const { return name_; }
  ShadowEnvironment& env() { return env_; }
  const ClientStats& stats() const { return stats_; }
  version::VersionStore& versions() { return versions_; }
  const std::map<u64, JobView>& jobs() const { return jobs_; }

  /// Shadow-editor postprocessor (§6.2): call after an editing session
  /// wrote `local_path`. Creates a new version and — depending on the
  /// environment — notifies or pushes to every connected server.
  Status edited(const std::string& local_path);

  /// Submit a job (§6.2). Returns the client-side job token immediately;
  /// SubmitReply/JobOutput arrive asynchronously.
  Result<u64> submit(const SubmitOptions& options);

  /// Ask a server for job status (§6.2); the StatusReply updates jobs()
  /// and fires the status callback.
  Status request_status(u64 job_id = 0, const std::string& server = "");

  /// True when the output of `token` has been received and written.
  bool job_done(u64 token) const;

  /// Versions the server has acknowledged holding, per file key. What
  /// "acked" means for the crash harness: the server promised these are
  /// durable, so they must survive any server crash.
  std::map<std::string, u64> acked_versions(const std::string& server) const;

  /// Force a resync: re-announce every file's latest version and resend
  /// pending submits. Used after reconnecting to a restarted server
  /// ("" = every connected server).
  void resync(const std::string& server = "");

  /// Snapshot the client's durable shadow state: version chains, resolved
  /// file ids, reverse-shadow output cache, and per-server acknowledged
  /// versions. Restoring after a restart lets the next edit ship a DELTA
  /// instead of the full file the fresh-state path would pay.
  Bytes save_state() const;
  /// Restore into a freshly constructed client (before or after connect).
  Status restore_state(const Bytes& snapshot);

  /// Fired when a job's output has been written to the local filesystem.
  void on_job_output(std::function<void(const JobView&)> fn) {
    output_callback_ = std::move(fn);
  }
  /// Fired when a StatusReply arrives.
  void on_status(std::function<void(const std::vector<proto::JobStatusInfo>&)> fn) {
    status_callback_ = std::move(fn);
  }

 private:
  struct Session {
    std::string server_name;
    net::Transport* transport = nullptr;
    /// Present iff env.reliable_session: the ack/retransmit layer between
    /// this client and the server. On desync, server_has is cleared so
    /// every subsequent update degrades to a full-file transfer.
    std::unique_ptr<proto::ReliableChannel> channel;
    bool hello_done = false;
    /// Version the server acknowledged holding, per file key
    /// (request-driven mode pushes deltas against this).
    std::map<std::string, u64> server_has;
    /// Delta codecs negotiated with this server (intersection of what we
    /// offered in Hello and what the HelloReply announced).
    u32 codecs = proto::kLegacyCodecs;
    /// Files whose last update to this server went as a CDC delta: the
    /// server may hold them as digests only, so stay on the chunk codec
    /// (an ed-script against a digest entry costs the server a full
    /// re-pull). Cleared on resync/nack with the rest of the peer state.
    std::set<std::string> cdc_files;
    /// Jittered exponential backoff for ServerBusy retries; the server's
    /// retry_after_usec is the floor of every delay. Reset when the
    /// server accepts work again.
    sim::Backoff busy_backoff{100'000, 8'000'000};
    /// Backoff for re-sending the lost-job census query when its
    /// StatusReply never came (the sweep itself can be shed or lost).
    sim::Backoff census_backoff{250'000, 4'000'000};
    /// Retries outstanding against this session: 0 = Hello, otherwise
    /// the job token of a shed submit. With a simulator they are
    /// sim-scheduled; without one tick() fires them past their
    /// steady-clock deadline (microseconds).
    std::map<u64, u64> retry_at_us;
    bool census_retry_armed = false;
    u64 census_retry_at_us = 0;  // non-sim deadline; 0 = none
  };

  void on_message(Session* session, Bytes wire);
  void handle(Session* session, const proto::HelloReply& m);
  void handle(Session* session, const proto::PullRequest& m);
  void handle(Session* session, const proto::UpdateAck& m);
  void handle(Session* session, const proto::SubmitReply& m);
  void handle(Session* session, const proto::StatusReply& m);
  void handle(Session* session, const proto::JobOutput& m);
  void handle(Session* session, const proto::ServerBusy& m);

  void send(Session* session, const proto::Message& m);
  Result<Session*> session_for(const std::string& server);

  /// Reliable-session desync recovery: forget peer state, re-announce
  /// every file's latest version (degrades to full-file transfers).
  void resync_session(Session* session);

  /// Ensure the VFS content of `local_path` is captured as a version;
  /// returns (file id, version of the current content).
  Result<std::pair<naming::GlobalFileId, version::VersionNumber>>
  capture_version(const std::string& local_path);

  /// Build and send an Update for `file` targeting `version`, diffed
  /// against `base` (0 = full). `force_cdc` answers a PullRequest whose
  /// codec_hint asked for a chunk delta (the server holds the base as
  /// digests and cannot apply anything else).
  Status send_update(Session* session, const naming::GlobalFileId& file,
                     u64 base, u64 version, bool force_cdc = false);

  /// Codecs this client offers in its Hello (env-gated).
  u32 offered_codecs() const {
    return env_.cdc ? proto::kAllCodecs : proto::kLegacyCodecs;
  }
  /// True when `content` should cross over to the CDC codec for this
  /// session: the codec is negotiated AND the file is big, binary-and-
  /// not-small, or already digest-tracked by the server.
  bool prefer_cdc(const Session& session, const std::string& key,
                  const std::string& content) const;

  /// Send the fresh Hello of a busy-backoff retry (token 0) or re-send an
  /// archived submit (token != 0).
  void fire_retry(Session* session, u64 token);
  /// Arm the retry: sim-scheduled when a simulator is attached, else a
  /// steady-clock deadline tick() checks.
  void schedule_retry(Session* session, u64 token, u64 delay_us);
  /// Re-send the lost-job census query if its reply never arrived.
  void arm_census_retry(Session* session);

  std::string name_;
  ShadowEnvironment env_;
  sim::Simulator* sim_ = nullptr;
  const naming::TildeForest* tilde_ = nullptr;
  std::string tilde_user_;
  vfs::Cluster* cluster_;
  naming::NameResolver resolver_;
  version::VersionStore versions_;
  std::map<std::string, naming::GlobalFileId> ids_;  // file key -> id
  std::map<std::string, Session> sessions_;          // server name -> session
  /// server_has maps restored before their sessions reconnect.
  std::map<std::string, std::map<std::string, u64>> restored_server_has_;
  std::map<u64, JobView> jobs_;                      // token -> view
  /// Submissions awaiting SubmitReply, kept for resend after a resync.
  std::map<u64, proto::SubmitJob> pending_submits_;
  /// Every submission until its output arrives — the raw material for
  /// resubmitting a job a crashed server acknowledged and then lost.
  std::map<u64, proto::SubmitJob> submit_archive_;
  /// Servers with a full StatusQuery sweep in flight (sent by resync);
  /// the matching StatusReply doubles as a lost-job census.
  std::set<std::string> status_sweep_pending_;
  u64 next_token_ = 1;
  ClientStats stats_;

  /// Reverse-shadow output cache: previous output content per
  /// (server, output name) so server-sent output deltas can be applied.
  struct OutputCacheEntry {
    u64 generation = 0;
    std::string content;
  };
  std::map<std::string, OutputCacheEntry> output_cache_;

  std::function<void(const JobView&)> output_callback_;
  std::function<void(const std::vector<proto::JobStatusInfo>&)>
      status_callback_;
};

}  // namespace shadow::client
