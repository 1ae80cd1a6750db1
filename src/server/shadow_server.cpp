#include "server/shadow_server.hpp"

#include <algorithm>
#include <chrono>

#include "diff/delta.hpp"
#include "proto/admin.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "vfs/path.hpp"

namespace shadow::server {

namespace {
// Flight-recorder entry for the global event ring (shadowtop's "events"
// view). Cold-path only — every call site below is a state change, not a
// per-byte hot loop.
void record_event(telemetry::EventKind kind, std::string detail) {
  telemetry::Registry::global().events().record(kind, std::move(detail));
}

u64 steady_micros() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// Reverse-shadow outputs (§8.3) are cache entries beside the files, keyed
// by "the same job" across re-runs: this prefix, then the client, output
// name, command file and sorted input file ids, each ended by '|'. A file
// key ("<domain>/<shadow-id>") ends in a digit, so the two never meet.
constexpr std::string_view kOutputKeyPrefix = "out:";

std::string output_key(const job::JobRecord& record) {
  std::vector<std::string> files;
  for (const auto& ref : record.files) files.push_back(ref.file.key());
  std::sort(files.begin(), files.end());
  std::string key = std::string(kOutputKeyPrefix) + record.client_name +
                    "|" + record.output_name + "|" + record.command_file + "|";
  for (const auto& file : files) key += file + "|";
  return key;
}

bool is_output_key(std::string_view key) {
  return key.starts_with(kOutputKeyPrefix) && key.ends_with('|');
}

/// A delivered job's output lives on only in the client (and, with
/// reverse shadow, in its cache entry): release the bytes.
void drop_output(job::JobRecord& job) {
  std::string().swap(job.output_content);
  std::string().swap(job.error_content);
}
}  // namespace

const char* pull_policy_name(PullPolicy policy) {
  switch (policy) {
    case PullPolicy::kEager: return "eager";
    case PullPolicy::kLazyOnSubmit: return "lazy-on-submit";
  }
  return "?";
}

ShadowServer::ShadowServer(ServerConfig config, sim::Simulator* simulator,
                           persist::DurableStore* store)
    : config_(std::move(config)),
      sim_(simulator),
      store_(store),
      load_monitor_(config_.load, simulator),
      cache_(config_.cache_budget, config_.eviction),
      queue_(config_.shard_id, config_.shard_count) {}

ShadowServer::~ShadowServer() {
  // Deferred commit callbacks capture `this`; a batch still staged at
  // teardown is dropped, not invoked — its records stay in the journal
  // and replay on recovery, its acks were simply never sent (the client
  // re-offers, exactly as after a crash).
  if (store_ != nullptr) store_->drop_pending();
}

void ShadowServer::mark_persist_dead(persist::RecordType type,
                                     const Status& st) {
  ++stats_.journal_failures;
  if (persist_dead_) return;
  persist_dead_ = true;
  record_event(telemetry::EventKind::kJournal,
               std::string("append refused (") +
                   persist::record_type_name(type) + "); persistence dead");
  SHADOW_WARN() << config_.name << ": journal append failed ("
                << persist::record_type_name(type) << "): " << st.to_string();
}

void ShadowServer::persist_append_then(journal::Body body,
                                       std::function<void()> on_durable) {
  if (store_ == nullptr) {
    if (on_durable) on_durable();
    return;
  }
  if (persist_dead_) return;
  if (on_durable) ++stats_.acks_deferred;
  const persist::RecordType type = body.type;
  (void)store_->append_deferred(
      type, body.bytes,
      [this, type, cb = std::move(on_durable)](const Status& st) {
        if (st.ok()) {
          ++stats_.journal_appends;
          if (cb) cb();
          return;
        }
        mark_persist_dead(type, st);
      });
  // Simulated time has no loop pass to end in a flush: the first staged
  // record schedules one for the current instant instead.
  if (sim_ != nullptr && !persist_flush_scheduled_ &&
      store_->pending_records() > 0) {
    persist_flush_scheduled_ = true;
    sim_->schedule(0, [this] {
      persist_flush_scheduled_ = false;
      (void)pump_persist();
    });
  }
}

std::size_t ShadowServer::pump_persist() {
  if (store_ == nullptr) return 0;
  std::size_t released = 0;
  // Commit callbacks append more records (a job chain runs from started
  // through delivered in one pump), so flush until nothing is staged.
  while (store_->pending_records() > 0) {
    released += store_->pending_records();
    ++stats_.persist_flushes;
    (void)store_->flush();  // failures surface through per-record callbacks
  }
  maybe_compact_persist();
  return released;
}

void ShadowServer::maybe_compact_persist() {
  if (store_ == nullptr || persist_dead_) return;
  if (!store_->compaction_due()) return;
  // Only between batches: compaction must never sit between a client's
  // update and its ack. The next pump_persist() retries.
  if (store_->pending_records() > 0) return;
  compact_persist();
}

void ShadowServer::compact_persist() {
  Status cs = store_->compact(save_state());
  if (cs.ok()) {
    ++stats_.compactions;
    record_event(telemetry::EventKind::kJournal, "journal compacted");
    return;
  }
  // Records already acked stay durable, but no further promises.
  ++stats_.journal_failures;
  persist_dead_ = true;
  record_event(telemetry::EventKind::kJournal,
               "compaction failed; persistence dead");
  SHADOW_WARN() << config_.name << ": compaction failed: " << cs.to_string();
}

void ShadowServer::send_if_attached(Connection* conn,
                                    const std::string& client_name,
                                    const proto::Message& m) {
  for (const auto& c : connections_) {
    if (c.get() == conn && c->client_name == client_name) {
      send(conn, m);
      return;
    }
  }
  // The connection went away while its batch was syncing; the client
  // re-offers after reconnecting, so dropping the ack is safe.
}

void ShadowServer::persist_eviction(const std::string& cache_key) {
  persist_append_then(journal::body_of(journal::ShadowEvicted{cache_key}),
                      nullptr);
}

bool ShadowServer::load_says_wait() {
  if (!load_monitor_.overloaded()) return false;
  ++stats_.deferred_by_load;
  telemetry::Registry::global()
      .counter(config_.telemetry_prefix + "load.deferrals")
      .add();
  record_event(telemetry::EventKind::kLoad, "work deferred by load monitor");
  // Self-schedule one retry per backoff window (§3: the system tunes
  // itself — no user or client intervention).
  if (sim_ != nullptr && !load_retry_scheduled_) {
    load_retry_scheduled_ = true;
    sim_->schedule(load_monitor_.config().backoff, [this] {
      load_retry_scheduled_ = false;
      drain_deferred_pulls();
      schedule_jobs();
    });
  }
  return true;
}

u64 ShadowServer::now_micros() const {
  return sim_ != nullptr ? sim_->now() : steady_micros();
}

void ShadowServer::attach(net::Transport* transport) {
  auto conn = std::make_unique<Connection>();
  conn->transport = transport;
  conn->lease_renewed_us = now_micros();
  if (config_.overload.max_conn_queued_bytes > 0) {
    // Byte-cap this connection's outbound queue; a send that would
    // overflow it dooms the connection instead of blocking the loop.
    transport->set_queue_limit(config_.overload.max_conn_queued_bytes);
  }
  Connection* raw = conn.get();
  if (config_.reliable_session) {
    proto::ReliableChannel::Config channel_config;
    if (config_.retransmit_initial_usec > 0) {
      channel_config.retransmit_initial = config_.retransmit_initial_usec;
    }
    if (config_.retransmit_cap_usec > 0) {
      channel_config.retransmit_cap = config_.retransmit_cap_usec;
    }
    raw->channel =
        std::make_unique<proto::ReliableChannel>(transport, channel_config);
    raw->channel->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
    raw->channel->on_desync([this, raw] { resync_connection(raw); });
    if (sim_ != nullptr) raw->channel->attach_simulator(sim_);
  } else {
    transport->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
  }
  connections_.push_back(std::move(conn));
}

void ShadowServer::detach(net::Transport* transport) {
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if ((*it)->transport != transport) continue;
    Connection* raw = it->get();
    if (!raw->client_name.empty()) {
      auto named = clients_.find(raw->client_name);
      if (named != clients_.end() && named->second == raw) {
        clients_.erase(named);
      }
      record_event(telemetry::EventKind::kServer,
                   "client " + raw->client_name + " disconnected");
    }
    // Jobs this connection submitted keep their record; submitted_via is
    // only ever compared against live Connection pointers (duplicate
    // detection), never dereferenced, so the dangling token is harmless.
    connections_.erase(it);
    return;
  }
}

void ShadowServer::doom_connection(Connection* conn, const std::string& why) {
  if (conn->doomed) return;
  conn->doomed = true;
  record_event(telemetry::EventKind::kServer,
               "connection " +
                   (conn->client_name.empty() ? std::string("<pre-hello>")
                                              : conn->client_name) +
                   " doomed: " + why);
  SHADOW_WARN() << config_.name << ": dropping connection "
                << conn->client_name << ": " << why;
  // Ask the transport to close so event loops reap the socket; the
  // Connection itself is reclaimed by reap_doomed() once no handler on
  // the stack can still be holding the pointer.
  conn->transport->request_close();
}

std::size_t ShadowServer::reap_doomed() {
  std::size_t reaped = 0;
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* raw = it->get();
    if (!raw->doomed) {
      ++it;
      continue;
    }
    // Sever the receive path first: the transport may outlive the
    // Connection (event-loop-owned sockets, sim links), and its receiver
    // lambda captures the raw pointer being freed here.
    raw->transport->set_receiver(nullptr);
    if (!raw->client_name.empty()) {
      auto named = clients_.find(raw->client_name);
      if (named != clients_.end() && named->second == raw) {
        clients_.erase(named);
      }
      // Pulls in flight to this client died with its send queue. Re-arm
      // them so a plain (non-reliable-session) reconnect's re-announce
      // pulls again instead of waiting forever on a dead request.
      for (auto& [key, state] : files_) {
        if (state.owner_client != raw->client_name) continue;
        if (state.pull_outstanding == 0) continue;
        release_pull_slot(state);
        state.pull_wanted = true;
      }
    }
    it = connections_.erase(it);
    ++reaped;
  }
  return reaped;
}

std::size_t ShadowServer::expire_leases() {
  if (config_.lease_usec == 0) return 0;
  const u64 now = now_micros();
  std::size_t expired = 0;
  for (auto& conn : connections_) {
    if (conn->doomed) continue;
    if (now - conn->lease_renewed_us < config_.lease_usec) continue;
    ++stats_.leases_expired;
    ++expired;
    doom_connection(conn.get(),
                    "lease expired (idle " +
                        std::to_string(now - conn->lease_renewed_us) +
                        " us, lease " + std::to_string(config_.lease_usec) +
                        " us)");
  }
  return expired;
}

std::size_t ShadowServer::total_queued_bytes() const {
  std::size_t total = 0;
  for (const auto& conn : connections_) {
    total += conn->transport->queued_bytes();
  }
  return total;
}

const char* ShadowServer::admission_refusal() const {
  if (draining_) return "server draining";
  if (config_.overload.max_total_queued_bytes != 0 &&
      total_queued_bytes() >= config_.overload.max_total_queued_bytes) {
    return "output backlog (queued bytes over budget)";
  }
  if (config_.overload.max_active_jobs != 0 &&
      queue_.active_count() >= config_.overload.max_active_jobs) {
    return "job backlog (active jobs over budget)";
  }
  return nullptr;
}

void ShadowServer::send_busy(Connection* conn, u64 client_job_token,
                             const std::string& reason) {
  proto::ServerBusy busy;
  busy.retry_after_usec = config_.overload.retry_after_usec;
  busy.client_job_token = client_job_token;
  busy.draining = draining_;
  busy.reason = reason;
  send(conn, busy);
}

void ShadowServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  record_event(telemetry::EventKind::kServer,
               config_.name + " draining: refusing new work");
  // One notice per live session: back off and come back elsewhere /
  // later. In-flight acks still flow; only NEW work is refused.
  for (auto& conn : connections_) {
    if (conn->doomed) continue;
    ++stats_.drain_notices;
    send_busy(conn.get(), 0, "server draining");
  }
  // Flush the open batch now: every record a client was promised
  // durability for must fsync — and release its deferred ack — before
  // drain_complete() reports true.
  (void)pump_persist();
}

bool ShadowServer::drain_complete() const {
  return store_ == nullptr || store_->pending_records() == 0;
}

void ShadowServer::handle(Connection* conn, const proto::Heartbeat& m) {
  (void)conn;
  (void)m;  // client_time_us is diagnostic only for now
  ++stats_.heartbeats_received;
  // The lease was renewed by on_message; nothing else to do — heartbeats
  // deliberately have no reply (an overloaded server owes idle clients
  // nothing).
}

void ShadowServer::inject_message(net::Transport* transport, Bytes wire) {
  for (auto& conn : connections_) {
    if (conn->transport == transport) {
      on_message(conn.get(), std::move(wire));
      return;
    }
  }
  SHADOW_WARN() << config_.name
                << ": inject_message for unattached transport";
}

std::size_t ShadowServer::tick() {
  std::size_t resent = 0;
  for (auto& conn : connections_) {
    if (conn->channel != nullptr && !conn->doomed) {
      resent += conn->channel->tick();
    }
  }
  resent += pump_persist();
  expire_leases();
  reap_doomed();
  return resent;
}

void ShadowServer::resync_connection(Connection* conn) {
  ++stats_.session_resyncs;
  record_event(telemetry::EventKind::kSession,
               "session resync with " +
                   (conn->client_name.empty() ? std::string("<pre-hello>")
                                              : conn->client_name));
  // Frames may have been lost in either direction. Re-arm every pull that
  // was in flight (the request or its answer may be gone) and re-deliver
  // outputs the client never acknowledged; duplicates are harmless — the
  // client's handlers are idempotent and nack what it cannot apply.
  for (auto& [key, state] : files_) {
    if (state.pull_outstanding != 0) {
      release_pull_slot(state);
      state.pull_wanted = true;
    }
  }
  drain_deferred_pulls();
  if (!conn->client_name.empty()) redeliver_outputs(conn->client_name);
  schedule_jobs();
}

void ShadowServer::redeliver_outputs(const std::string& client_name) {
  for (const auto& [id, record] : queue_.all()) {
    if (record.client_name == client_name) deliver_output(record);
  }
}

proto::ReliableChannel::Stats ShadowServer::session_stats() const {
  proto::ReliableChannel::Stats total;
  for (const auto& conn : connections_) {
    if (conn->channel == nullptr) continue;
    const auto& s = conn->channel->stats();
    total.data_sent += s.data_sent;
    total.delivered += s.delivered;
    total.retransmits += s.retransmits;
    total.acks_sent += s.acks_sent;
    total.nacks_sent += s.nacks_sent;
    total.duplicates_dropped += s.duplicates_dropped;
    total.corrupt_dropped += s.corrupt_dropped;
    total.out_of_order_held += s.out_of_order_held;
    total.overflow_dropped += s.overflow_dropped;
    total.resets_sent += s.resets_sent;
    total.resets_received += s.resets_received;
    total.desyncs += s.desyncs;
  }
  return total;
}

void ShadowServer::send(Connection* conn, const proto::Message& m) {
  if (conn == nullptr || conn->transport == nullptr || conn->doomed) return;
  Status st = conn->channel != nullptr
                  ? conn->channel->send(proto::encode_message(m))
                  : conn->transport->send(proto::encode_message(m));
  if (!st.ok()) {
    if (st.code() == ErrorCode::kResourceExhausted) {
      // Slow consumer: its outbound queue hit the byte cap. Degrade by
      // dropping the CONNECTION, never by blocking the shard loop or
      // queueing without bound — on reconnect the client resyncs (full
      // transfer fallback), so nothing is corrupted, only re-sent.
      ++stats_.conns_dropped_overflow;
      doom_connection(conn, "send queue overflow (" +
                                std::to_string(conn->transport->queued_bytes()) +
                                " bytes queued)");
      return;
    }
    SHADOW_WARN() << config_.name << ": send to " << conn->client_name
                  << " failed: " << st.to_string();
  }
}

void ShadowServer::send_to(const std::string& client_name,
                           const proto::Message& m) {
  auto it = clients_.find(client_name);
  if (it == clients_.end()) {
    // Not one of ours. In a sharded server the client may be pinned to a
    // sibling shard (a job's output_route to a different workstation —
    // §8.3); offer the message to the facade before giving up.
    if (peer_router_ != nullptr && peer_router_(client_name, m)) return;
    SHADOW_WARN() << config_.name << ": no connection for client "
                  << client_name;
    return;
  }
  send(it->second, m);
}

void ShadowServer::deliver_routed(const std::string& client_name,
                                  const proto::Message& m) {
  if (const auto* ack = std::get_if<proto::JobOutputAck>(&m)) {
    settle_output_ack(client_name, *ack);
    return;
  }
  auto it = clients_.find(client_name);
  if (it == clients_.end()) {
    SHADOW_WARN() << config_.name << ": routed message for unknown client "
                  << client_name;
    return;
  }
  send(it->second, m);
}

void ShadowServer::on_message(Connection* conn, Bytes wire) {
  if (conn->doomed) return;  // dead session awaiting reap
  // Any decodable traffic renews the lease (heartbeats exist for
  // connections with nothing else to say).
  conn->lease_renewed_us = now_micros();
  auto decoded = proto::decode_message(wire);
  if (!decoded.ok()) {
    telemetry::Registry::global()
        .counter(config_.telemetry_prefix + "server.malformed_dropped")
        .add();
    record_event(telemetry::EventKind::kMessage,
                 "malformed message dropped: " + decoded.error().to_string());
    SHADOW_WARN() << config_.name
                  << ": dropping malformed message: "
                  << decoded.error().to_string();
    return;
  }
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::Hello> ||
                      std::is_same_v<T, proto::NotifyNewVersion> ||
                      std::is_same_v<T, proto::Update> ||
                      std::is_same_v<T, proto::SubmitJob> ||
                      std::is_same_v<T, proto::StatusQuery> ||
                      std::is_same_v<T, proto::JobOutputAck> ||
                      std::is_same_v<T, proto::AdminQuery> ||
                      std::is_same_v<T, proto::Heartbeat>) {
          handle(conn, m);
        } else {
          SHADOW_WARN() << config_.name << ": unexpected message type "
                        << proto::message_type_name(proto::type_of(
                               proto::Message(std::move(m))));
        }
      },
      decoded.value());
}

ShadowServer::FileState& ShadowServer::file_state(
    const naming::GlobalFileId& id) {
  const std::string key = domains_.cache_key(id);
  auto it = files_.find(key);
  if (it == files_.end()) {
    FileState state;
    state.id = id;
    state.cache_key = key;
    it = files_.emplace(key, std::move(state)).first;
  }
  return it->second;
}

void ShadowServer::handle(Connection* conn, const proto::Hello& m) {
  // Codec negotiation (docs/DELTAS.md): remember the intersection of what
  // the client can produce and what this server accepts, so CDC is never
  // in it unless both ends advertise it.
  const u32 server_codecs =
      config_.cdc_enabled ? proto::kAllCodecs : proto::kLegacyCodecs;
  conn->codecs = m.codecs & server_codecs;
  // Admission control at the door: a draining server takes no new
  // sessions, and a full shard sheds rather than degrading everyone.
  // The transport stays attached — the client backs off (retry_after)
  // and retries its Hello on the same or a fresh connection.
  const bool returning = clients_.count(m.client_name) != 0;
  if (draining_) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kServer,
                 "hello from " + m.client_name + " refused (draining)");
    send_busy(conn, 0, "server draining");
    return;
  }
  if (!returning && config_.overload.max_connections != 0 &&
      clients_.size() >= config_.overload.max_connections) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kServer,
                 "hello from " + m.client_name + " shed (connection cap " +
                     std::to_string(config_.overload.max_connections) + ")");
    send_busy(conn, 0, "connection budget exhausted");
    return;
  }
  conn->client_name = m.client_name;
  clients_[m.client_name] = conn;
  record_event(telemetry::EventKind::kServer,
               "hello from " + m.client_name + " (domain " + m.domain + ")");
  // Ensure the domain directory exists (paper §5.3: the server's name
  // space is divided into per-domain directories).
  domains_.domain(m.domain);
  proto::HelloReply reply;
  reply.server_name = config_.name;
  reply.codecs = server_codecs;
  send(conn, reply);
  // Results that finished while the client was away (e.g. the server was
  // restarted from its journal): deliver now that there is a connection.
  // Harmless on a first-ever Hello — the queue has nothing for this name.
  redeliver_outputs(m.client_name);
  schedule_jobs();
}

void ShadowServer::handle(Connection* conn, const proto::NotifyNewVersion& m) {
  ++stats_.notifies_received;
  FileState& state = file_state(m.file);
  // Version numbers are per-client. If a different workstation (same NFS
  // file, different mount path — §6.5) announces content that differs from
  // what we track, restart this file's history under the new owner.
  const bool owner_changed = !state.owner_client.empty() &&
                             state.owner_client != conn->client_name;
  // A version number at or below what we already track, with DIFFERENT
  // content, from the same client means the client restarted and its
  // numbering began anew.
  const bool client_restarted =
      !owner_changed && !state.owner_client.empty() &&
      m.version <= state.latest_known &&
      (m.crc != state.latest_crc || m.size != state.latest_size);
  if ((owner_changed &&
       (m.crc != state.latest_crc || m.size != state.latest_size)) ||
      client_restarted) {
    cache_.erase(state.cache_key);
    persist_eviction(state.cache_key);
    state.latest_known = 0;
    release_pull_slot(state);
  }
  if (m.version > state.latest_known) {
    state.latest_known = m.version;
    state.latest_size = m.size;
    state.latest_crc = m.crc;
  }
  state.owner_client = conn->client_name;
  if (config_.pull_policy == PullPolicy::kEager) {
    maybe_pull(state);
  }
}

void ShadowServer::maybe_pull(FileState& state, bool need_bytes) {
  if (state.latest_known == 0) return;
  const cache::CacheEntry* entry = cache_.peek(state.cache_key);
  const bool version_current =
      entry != nullptr && entry->version >= state.latest_known;
  // A digest entry satisfies version tracking but cannot feed a job's
  // sandbox: when bytes are needed and only digests (and no pin) are
  // resident, pull full content for the CURRENT version.
  bool materialize = false;
  if (version_current) {
    if (!need_bytes || entry->has_bytes()) return;  // up to date
    auto pinned = pinned_.find(state.cache_key);
    if (pinned != pinned_.end() &&
        pinned->second.version >= state.latest_known) {
      return;  // bytes already pinned for the job
    }
    materialize = true;
  }
  if (state.pull_outstanding >= state.latest_known) return;  // in flight
  if (state.owner_client.empty()) return;
  if (load_says_wait()) {
    state.pull_wanted = true;  // picked up by the load monitor's retry
    return;
  }
  if (outstanding_pulls_ >= config_.max_outstanding_pulls) {
    // Flow control: the server refuses to be overrun (§5.2); retry after
    // the next update drains a slot.
    state.pull_wanted = true;
    ++stats_.pulls_deferred;
    return;
  }
  proto::PullRequest pull;
  pull.file = state.id;
  if (materialize) {
    // have_version 0 = send the whole file; the digest entry stays (the
    // content is pinned for the job, not cached).
    pull.have_version = 0;
  } else if (entry != nullptr && !entry->has_bytes()) {
    // Digest-only base: only a CDC delta (or full content) can advance
    // it, so say so — otherwise the client might ship an ed script the
    // server has no bytes to apply to.
    pull.have_version = entry->version;
    pull.codec_hint = proto::kCodecCdc;
  } else {
    pull.have_version = entry == nullptr ? 0 : entry->version;
  }
  pull.want_version = state.latest_known;
  take_pull_slot(state, state.latest_known);
  state.pull_wanted = false;
  ++stats_.pulls_sent;
  send_to(state.owner_client, pull);
}

void ShadowServer::drain_deferred_pulls() {
  for (auto& [key, state] : files_) {
    if (outstanding_pulls_ >= config_.max_outstanding_pulls) return;
    if (state.pull_wanted) maybe_pull(state);
  }
}

void ShadowServer::take_pull_slot(FileState& state, u64 version) {
  if (state.pull_outstanding == 0) ++outstanding_pulls_;
  state.pull_outstanding = std::max(state.pull_outstanding, version);
}

void ShadowServer::release_pull_slot(FileState& state) {
  if (state.pull_outstanding == 0) return;
  state.pull_outstanding = 0;
  --outstanding_pulls_;
}

void ShadowServer::repull_full(Connection* conn, FileState& state,
                               const proto::Update& m,
                               const std::string& why) {
  ++stats_.full_repulls;
  record_event(telemetry::EventKind::kCache,
               "full re-pull " + state.cache_key + " v" +
                   std::to_string(m.new_version) + ": " + why);
  proto::PullRequest pull;
  pull.file = m.file;
  pull.have_version = 0;
  pull.want_version = m.new_version;
  take_pull_slot(state, m.new_version);
  ++stats_.pulls_sent;
  send(conn, pull);
}

bool ShadowServer::needed_by_job(const std::string& cache_key, u64 version) {
  for (const auto& [id, record] : queue_.all()) {
    if (record.state != proto::JobState::kQueued &&
        record.state != proto::JobState::kWaitingFiles) {
      continue;
    }
    for (const auto& ref : record.files) {
      if (version >= ref.version &&
          domains_.cache_key(ref.file) == cache_key) {
        return true;
      }
    }
  }
  return false;
}

void ShadowServer::handle(Connection* conn, const proto::Update& m) {
  ++stats_.updates_received;
  stats_.update_bytes += m.payload.size();
  FileState& state = file_state(m.file);
  state.owner_client = conn->client_name;
  if (state.pull_outstanding == 0) {
    ++stats_.unsolicited_updates;  // request-driven client pushing
  } else if (m.new_version >= state.pull_outstanding) {
    release_pull_slot(state);
  }  // else it answers an older pull; the newer one still holds the slot

  auto unpacked = proto::unpack_payload(m.payload);
  if (!unpacked.ok()) {
    repull_full(conn, state, m, unpacked.error().to_string());
    return;
  }
  const diff::Delta& delta = unpacked.value();
  static const std::string kNoBase;
  const cache::CacheEntry* held = cache_.peek(state.cache_key);

  // Each arm makes the new version: its CRC and size, plus its bytes
  // (content arm) or only its chunk digests (CDC arm).
  u32 crc = 0;
  u64 size = 0;
  std::string content;
  std::optional<cdc::Signature> digests;
  if (delta.format != diff::Delta::Format::kCdc) {
    const std::string* base = &kNoBase;
    if (delta.needs_base()) {
      ++stats_.delta_transfers;
      auto cached = cache_.get(state.cache_key);
      // The best-effort cache lost the base, holds the wrong one, or holds
      // only its digests: a line delta cannot apply to a signature.
      if (!cached.ok() || cached.value()->version != m.base_version ||
          !cached.value()->has_bytes()) {
        repull_full(conn, state, m,
                    "base v" + std::to_string(m.base_version) +
                        " not cached as bytes");
        return;
      }
      base = &cached.value()->content;
    } else {
      ++stats_.full_transfers;
    }
    // apply() verifies the delta's CRC, full content included: bit flips
    // inside a payload survive decode, so skipping it would cache bad bytes.
    auto applied = delta.apply(*base);
    if (!applied.ok()) {
      repull_full(conn, state, m, applied.error().to_string());
      return;
    }
    content = std::move(applied).take();
    crc = crc32(reinterpret_cast<const u8*>(content.data()), content.size());
    size = content.size();
  } else {
    ++stats_.delta_transfers;
    ++stats_.cdc_transfers;
    const cdc::CdcDelta& d = delta.cdc;
    // Resolve the base signature the copy ops reference. A digest entry IS
    // the signature; a content entry is chunked on the fly (the transition
    // put: from here on the file is digest-tracked); no copies need no base.
    cdc::Signature base_sig;
    base_sig.params = d.params;
    if (d.has_copies()) {
      if (held == nullptr || held->version != m.base_version) {
        repull_full(conn, state, m,
                    "cdc base v" + std::to_string(m.base_version) +
                        " not cached");
        return;
      }
      base_sig = held->has_bytes() ? cdc::signature_of(held->content, d.params)
                                   : held->signature;
    }
    // Advance digests only: copies are membership-checked against the base
    // signature, literals are digested, and the composed whole-file CRC
    // must match the sender's target CRC (the digest-mode verified apply).
    auto advanced = d.signature_after(base_sig);
    if (!advanced.ok()) {
      ++stats_.digest_advance_failures;
      repull_full(conn, state, m, advanced.error().to_string());
      return;
    }
    ++stats_.digest_advances;
    crc = d.target_crc;
    size = d.target_bytes;
    digests = std::move(advanced).take();
  }

  // The notify for this exact version told us its CRC. A mismatch means
  // the payload was damaged in flight yet still decoded and applied. One
  // shot only: the RECORDED crc may itself be the damaged half (a bad
  // notify), so the full copy the re-pull brings is accepted on its own
  // delta CRC.
  if (m.new_version == state.latest_known && state.latest_crc != 0 &&
      crc != state.latest_crc) {
    state.latest_crc = 0;
    repull_full(conn, state, m, "content crc mismatch");
    return;
  }
  if (m.new_version > state.latest_known) {
    state.latest_known = m.new_version;
    state.latest_size = size;
    state.latest_crc = crc;
  }

  // Jobs need bytes, not digests: pin the new version for a waiting job
  // whenever the cache will not hold its bytes.
  const bool needed = needed_by_job(state.cache_key, m.new_version);
  if (digests.has_value()) {
    if (needed) {
      // Materialize when the delta alone (all literals), the resident base
      // bytes or a pinned base allow it; otherwise the scheduler issues a
      // materialize pull for full content. Advancing an earlier pin beats
      // re-pulling the whole file when edits race the job.
      // With copies the arm has already checked `held` is the base.
      const cdc::CdcDelta& d = delta.cdc;
      auto pin = pinned_.find(state.cache_key);
      const std::string* base =
          !d.has_copies()      ? &kNoBase
          : held->has_bytes()  ? &held->content
          : pin != pinned_.end() && pin->second.version == m.base_version
              ? &pin->second.content
              : nullptr;
      if (base != nullptr) {
        auto bytes = d.apply(*base);
        if (bytes.ok()) {
          pinned_[state.cache_key] =
              PinnedFile{m.new_version, std::move(bytes).take()};
        }
      }
    }
  } else if (held != nullptr && !held->has_bytes()) {
    // A CDC-tracked file stays digest-only even when full content arrives
    // (a materialize pull for a job, or a full re-pull): the server
    // re-digests and keeps O(digests) resident; the bytes go to the job
    // pin, never the cache.
    digests = cdc::signature_of(content, held->signature.params.valid()
                                             ? held->signature.params
                                             : cdc::ChunkerParams{});
    if (needed) {
      pinned_[state.cache_key] = PinnedFile{m.new_version, std::move(content)};
    }
  }

  // One journal record, encoded from the new version in place: the
  // digests pass through the record into the cache, the bytes are read
  // where they lie.
  const char* outcome = "cached ";
  journal::ShadowHeader head{state.id, state.cache_key, m.new_version, crc};
  journal::Body body;
  if (digests.has_value()) {
    outcome = "digest ";
    journal::ShadowDigest record{std::move(head), std::move(*digests),
                                 state.owner_client};
    body = journal::body_of(record);
    (void)cache_.put_digest(state.cache_key, m.new_version,
                            std::move(record.sig), crc);
  } else {
    body = journal::body_of(
        journal::ShadowCached{std::move(head), content, state.owner_client});
    if (!cache_.put(state.cache_key, m.new_version, content, crc).ok()) {
      outcome = "cache refused ";
      if (needed) {
        pinned_[state.cache_key] = PinnedFile{m.new_version, std::move(content)};
      }
    }
  }
  record_event(telemetry::EventKind::kCache,
               outcome + state.cache_key + " v" +
                   std::to_string(m.new_version) + " (" +
                   std::to_string(size) + " bytes)");
  ++stats_.updates_applied;

  // The write-ahead rule: the ack below is a durability promise, so the
  // record must hit the journal (and survive its fsync) first. A refused
  // append means no ack — the client keeps the version and re-offers it
  // after reconnecting. The record is written now; the continuation waits
  // for the fsync that ends this loop pass.
  persist_append_then(std::move(body),
                      [this, conn, client = conn->client_name, file = m.file,
                       version = m.new_version] {
                        proto::UpdateAck ack;
                        ack.file = file;
                        ack.version = version;
                        ack.ok = true;
                        send_if_attached(conn, client, ack);
                        drain_deferred_pulls();
                        schedule_jobs();
                      });
}

void ShadowServer::handle(Connection* conn, const proto::SubmitJob& m) {
  // Duplicate submit: the original or its reply was lost and the client
  // resent after a resync. Answer from the existing record instead of
  // queueing the job twice. Matching is scoped to this connection: token
  // counters restart with a client process, so an identical-looking
  // submission from a new connection is a genuinely new job.
  for (auto& [id, record] : queue_.all_mutable()) {
    if (record.submitted_via != conn ||
        record.client_name != conn->client_name ||
        record.client_job_token != m.client_job_token ||
        record.command_file != m.command_file) {
      continue;
    }
    proto::SubmitReply reply;
    reply.client_job_token = m.client_job_token;
    reply.job_id = record.job_id;
    reply.accepted = true;
    send(conn, reply);
    deliver_output(record);
    return;
  }
  ++stats_.jobs_submitted;
  // Unified overload budget: shed the submit with a retry hint while the
  // server is past any hard budget (drain, queued output bytes, active
  // jobs). ServerBusy means "try the same job again in a moment".
  if (const char* refusal = admission_refusal(); refusal != nullptr) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kJob,
                 "submit shed (" + std::string(refusal) + ") from " +
                     conn->client_name);
    send_busy(conn, m.client_job_token, refusal);
    return;
  }
  job::JobRecord record;
  record.client_name = conn->client_name;
  record.submitted_via = conn;
  record.client_job_token = m.client_job_token;
  record.command_file = m.command_file;
  record.files = m.files;
  record.output_name = m.output_name;
  record.error_name = m.error_name;
  record.output_route = m.output_route;
  record.detail = "queued";
  const u64 job_id = queue_.add(std::move(record));

  // Record what the job will need; the submitting client serves pulls.
  for (const auto& ref : m.files) {
    FileState& state = file_state(ref.file);
    // Owner change with different content: per-client version numbers
    // restart, exactly as in the NotifyNewVersion handler.
    if (!state.owner_client.empty() &&
        state.owner_client != conn->client_name &&
        ref.crc != state.latest_crc) {
      cache_.erase(state.cache_key);
      persist_eviction(state.cache_key);
      state.latest_known = 0;
      release_pull_slot(state);
    }
    if (ref.version > state.latest_known) {
      state.latest_known = ref.version;
      state.latest_crc = ref.crc;
      // The submitter holds this version; it must serve the pull.
      state.owner_client = conn->client_name;
    }
    if (state.owner_client.empty()) state.owner_client = conn->client_name;
  }

  // Journal the accepted job before the SubmitReply: an acked job id is a
  // promise that the job survives a server crash. If the record is never
  // durable there is no reply; the client resubmits after reconnect.
  journal::Body job_body = journal::body_of(*queue_.find(job_id).value());
  // Event details are one-line; keep only the command's first line.
  std::string command_head =
      m.command_file.substr(0, m.command_file.find('\n'));
  persist_append_then(
      std::move(job_body),
      [this, conn, client = conn->client_name, job_id,
       token = m.client_job_token, command_head] {
        record_event(telemetry::EventKind::kJob,
                     "job " + std::to_string(job_id) + " accepted from " +
                         client + " (" + command_head + ")");
        proto::SubmitReply reply;
        reply.client_job_token = token;
        reply.job_id = job_id;
        reply.accepted = true;
        send_if_attached(conn, client, reply);
        schedule_jobs();
      });
}

bool ShadowServer::files_ready(const job::JobRecord& record) const {
  for (const auto& ref : record.files) {
    // cache_key() interns, so use the const-safe lookup path.
    const auto* dir = domains_.find(ref.file.domain);
    if (dir == nullptr) return false;
    const auto sid = dir->lookup(ref.file);
    if (!sid) return false;
    const std::string key =
        ref.file.domain + "/" + std::to_string(*sid);
    // Only entries with resident BYTES count: a digest entry tracks the
    // version but cannot fill an executor sandbox.
    const auto* entry = cache_.peek(key);
    if (entry != nullptr && entry->has_bytes() &&
        entry->version >= ref.version) {
      continue;
    }
    auto pinned = pinned_.find(key);
    if (pinned != pinned_.end() && pinned->second.version >= ref.version) {
      continue;
    }
    return false;
  }
  return true;
}

void ShadowServer::schedule_jobs() {
  for (auto& [id, record] : queue_.all_mutable()) {
    if (record.state != proto::JobState::kQueued &&
        record.state != proto::JobState::kWaitingFiles) {
      continue;
    }
    if (files_ready(record)) {
      if (running_jobs_ < config_.max_concurrent_jobs &&
          !load_says_wait()) {
        start_job(record);
      }
      continue;
    }
    // Demand-driven: pull exactly what the job is missing.
    if (record.state == proto::JobState::kQueued) {
      (void)queue_.transition(record.job_id, proto::JobState::kWaitingFiles,
                              "waiting for input files");
    }
    for (const auto& ref : record.files) {
      FileState& state = file_state(ref.file);
      // Jobs need bytes: a current-but-digest-only entry still pulls.
      maybe_pull(state, /*need_bytes=*/true);
    }
  }
}

void ShadowServer::start_job(job::JobRecord& record) {
  std::map<std::string, std::string> sandbox;
  for (const auto& ref : record.files) {
    const std::string key = domains_.cache_key(ref.file);
    auto cached = cache_.get(key);
    if (cached.ok() && cached.value()->has_bytes() &&
        cached.value()->version >= ref.version) {
      sandbox[ref.local_name] = cached.value()->content;
      continue;
    }
    auto pinned = pinned_.find(key);
    if (pinned != pinned_.end() && pinned->second.version >= ref.version) {
      sandbox[ref.local_name] = pinned->second.content;
      continue;
    }
    // Evicted between readiness check and start (or resident as digests
    // only): go back to waiting and pull real bytes.
    (void)queue_.transition(record.job_id, proto::JobState::kWaitingFiles,
                            "input evicted before start; re-pulling");
    FileState& state = file_state(ref.file);
    maybe_pull(state, /*need_bytes=*/true);
    return;
  }

  (void)queue_.transition(record.job_id, proto::JobState::kRunning,
                          "running");
  // Non-gating: losing this record just means the crash-recovered job
  // replays as still-queued and runs again from scratch.
  persist_append_then(journal::body_of(journal::JobStarted{record.job_id}),
                      nullptr);
  ++running_jobs_;
  load_monitor_.set_demand(static_cast<double>(running_jobs_));

  auto outcome = executor_.run_command_file(record.command_file,
                                            std::move(sandbox));
  job::ExecutionResult result;
  if (outcome.ok()) {
    result = std::move(outcome).take();
  } else {
    result.exit_code = 2;
    result.error = outcome.error().to_string() + "\n";
  }

  const u64 job_id = record.job_id;
  if (sim_ != nullptr) {
    const double seconds =
        static_cast<double>(result.cpu_cost) / config_.cpu_ops_per_second;
    sim_->schedule(sim::from_seconds(seconds),
                   [this, job_id, result = std::move(result)]() mutable {
                     finish_job(job_id, std::move(result));
                   });
  } else {
    finish_job(job_id, std::move(result));
  }
}

void ShadowServer::finish_job(u64 job_id, job::ExecutionResult result) {
  auto found = queue_.find(job_id);
  if (!found.ok()) return;
  job::JobRecord& record = *found.value();
  if (running_jobs_ > 0) --running_jobs_;
  load_monitor_.set_demand(static_cast<double>(running_jobs_));

  record.exit_code = result.exit_code;
  record.cpu_cost = result.cpu_cost;
  record.error_content = result.error;
  // The job's declared output file, if it produced one, takes priority;
  // otherwise stdout is the output (classic batch semantics).
  auto produced = result.sandbox.find(record.output_name);
  record.output_content = (produced != result.sandbox.end())
                              ? produced->second
                              : result.output;

  if (result.exit_code == 0) {
    ++stats_.jobs_completed;
    (void)queue_.transition(job_id, proto::JobState::kCompleted, "completed");
  } else {
    ++stats_.jobs_failed;
    (void)queue_.transition(job_id, proto::JobState::kFailed,
                            "failed: " + result.error);
  }
  record_event(telemetry::EventKind::kJob,
               "job " + std::to_string(job_id) +
                   (result.exit_code == 0 ? " completed" : " failed") +
                   " (exit " + std::to_string(result.exit_code) + ")");

  // The result must be durable before it is delivered: the client's
  // JobOutputAck would otherwise mark delivered a result a crashed server
  // no longer has. The continuation re-finds the record — under group
  // commit it runs after this frame is long gone.
  persist_append_then(
      journal::body_of(journal::JobFinished{
          job_id, record.state, record.exit_code, record.output_content,
          record.error_content, record.cpu_cost, record.detail}),
      [this, job_id] {
        auto finished = queue_.find(job_id);
        if (finished.ok()) deliver_output(*finished.value());
      });

  release_pins(record);

  // A freed job slot may unblock the next queued job.
  schedule_jobs();
}

void ShadowServer::release_pins(const job::JobRecord& finished) {
  for (const auto& ref : finished.files) {
    const std::string key = domains_.cache_key(ref.file);
    auto it = pinned_.find(key);
    if (it == pinned_.end()) continue;
    bool still_needed = false;
    for (const auto& [id, record] : queue_.all()) {
      if (record.job_id == finished.job_id) continue;
      if (record.state != proto::JobState::kQueued &&
          record.state != proto::JobState::kWaitingFiles &&
          record.state != proto::JobState::kRunning) {
        continue;
      }
      for (const auto& other_ref : record.files) {
        if (domains_.cache_key(other_ref.file) == key) still_needed = true;
      }
    }
    if (!still_needed) pinned_.erase(it);
  }
}

void ShadowServer::deliver_output(const job::JobRecord& record, bool full) {
  // Only a finished job has output to send. A delivered one holds no bytes
  // (a late nack, or a Hello that re-delivered the output and had it acked
  // before this job's finished record was flushed).
  if (record.state != proto::JobState::kCompleted &&
      record.state != proto::JobState::kFailed) {
    return;
  }
  const std::string route = record.output_route.empty()
                                ? record.client_name
                                : record.output_route;

  proto::JobOutput out;
  out.job_id = record.job_id;
  out.client_job_token = record.client_job_token;
  out.exit_code = record.exit_code;
  out.output_name = record.output_name;
  out.error_name = record.error_name;

  // Reverse shadow processing (§8.3): delta against the previous output of
  // the same job, held in the cache under the job's output key with its
  // generation as the version.
  diff::Delta output_delta = diff::Delta::make_full(record.output_content);
  if (config_.reverse_shadow) {
    const std::string key = output_key(record);
    auto held = cache_.get(key);
    const cache::CacheEntry* prev = held.ok() ? held.value() : nullptr;
    if (prev != nullptr && !full) {
      output_delta = diff::Delta::compute(prev->content, record.output_content,
                                          diff::Algorithm::kHuntMcIlroy);
      if (output_delta.needs_base()) {
        out.output_base_generation = prev->version;
        ++stats_.output_delta_hits;
      }
    }
    if (prev != nullptr && prev->content == record.output_content) {
      // A re-delivery (or a re-run with the same bytes): the entry already
      // is this output's generation.
      out.output_generation = prev->version;
    } else if (!full) {
      const u64 generation = prev == nullptr ? 1 : prev->version + 1;
      const u32 crc = crc32(reinterpret_cast<const u8*>(
                                record.output_content.data()),
                            record.output_content.size());
      // Best effort like any cache entry: an evicted or refused base, or a
      // lost non-gating record, costs one full output transfer on the
      // next re-run, never correctness.
      if (cache_.put(key, generation, record.output_content, crc).ok()) {
        out.output_generation = generation;
        persist_append_then(
            journal::body_of(journal::ShadowCached{
                {{}, key, generation, crc}, record.output_content, {}}),
            nullptr);
      }
    }
  }

  out.output_payload = proto::pack_payload(output_delta, config_.output_codec);
  out.error_payload = proto::pack_payload(
      diff::Delta::make_full(record.error_content), config_.output_codec);

  ++stats_.outputs_sent;
  stats_.output_bytes += out.output_payload.size() + out.error_payload.size();
  send_to(route, out);
}

void ShadowServer::handle(Connection* conn, const proto::StatusQuery& m) {
  proto::StatusReply reply;
  if (m.job_id == 0) {
    reply.jobs = queue_.status_for_client(conn->client_name);
  } else {
    auto found = queue_.find(m.job_id);
    if (found.ok()) {
      proto::JobStatusInfo info;
      info.job_id = m.job_id;
      info.client_job_token = found.value()->client_job_token;
      info.state = found.value()->state;
      info.detail = found.value()->detail;
      reply.jobs.push_back(std::move(info));
    }
  }
  send(conn, reply);
}

void ShadowServer::handle(Connection* conn, const proto::JobOutputAck& m) {
  // The ack of a routed output arrives on the recipient's shard; the job
  // lives on the shard its id names.
  if (job::shard_of_job(m.job_id, config_.shard_count) != config_.shard_id &&
      peer_router_ != nullptr && peer_router_(conn->client_name, m)) {
    return;
  }
  settle_output_ack(conn->client_name, m);
}

void ShadowServer::settle_output_ack(const std::string& from_client,
                                     const proto::JobOutputAck& m) {
  auto found = queue_.find(m.job_id);
  if (!found.ok()) return;
  job::JobRecord& record = *found.value();
  if (m.ok) {
    if (record.state == proto::JobState::kCompleted ||
        record.state == proto::JobState::kFailed) {
      (void)queue_.transition(m.job_id, proto::JobState::kDelivered,
                              "output delivered");
      drop_output(record);
      // Non-gating: if this record is lost the job replays as kCompleted
      // and the output is re-delivered — a duplicate, not a loss.
      persist_append_then(journal::body_of(journal::JobDelivered{m.job_id}),
                          nullptr);
    }
    return;
  }
  // Client could not apply the output delta (lost its previous output):
  // resend as full content.
  SHADOW_DEBUG() << config_.name << ": client " << from_client
                 << " nacked output of job " << m.job_id
                 << " (" << m.error << "); resending full";
  deliver_output(record, /*full=*/true);
}

void ShadowServer::handle(Connection* conn, const proto::AdminQuery& m) {
  // Read-only: refresh the mirrored server.*/load.* values, then answer
  // from the global registry. Version mismatches come back ok=false from
  // the builder; the query mutates nothing, so it is chaos-safe.
  sync_telemetry();
  send(conn, proto::build_admin_reply(m, telemetry::Registry::global(),
                                      config_.name));
}

Bytes ShadowServer::save_state() const {
  const auto entries = cache_.eviction_order();
  BufWriter w;
  journal::SnapshotHeader{config_.shard_id, config_.shard_count,
                          entries.size() + queue_.size()}
      .encode(w);
  // Cache records come first, so every shadow id a cache key names is
  // bound before a job's files are interned (the recovery pre-pass rule).
  // An entry without a FileState (a reverse-shadow output, or a file
  // tests put in the cache directly) is written with an empty file id and
  // owner; replay still reserves a file's shadow id.
  static const FileState kUntracked;
  for (const cache::CacheEntry* entry : entries) {
    auto tracked = files_.find(entry->key);
    const FileState& state =
        tracked != files_.end() ? tracked->second : kUntracked;
    journal::ShadowHeader head{state.id, entry->key, entry->version,
                               entry->crc};
    if (entry->has_bytes()) {
      journal::put_snapshot_record(
          w, journal::ShadowCached{std::move(head), entry->content,
                                   state.owner_client});
    } else {
      journal::put_snapshot_record(
          w, journal::ShadowDigest{std::move(head), entry->signature,
                                   state.owner_client});
    }
  }
  for (const auto& [id, job] : queue_.all()) {
    journal::put_snapshot_record(w, job);
  }
  return w.take();
}

Status ShadowServer::restore_state(const Bytes& snapshot) {
  BufReader r(snapshot);
  SHADOW_ASSIGN_OR_RETURN(header, journal::SnapshotHeader::decode(r));
  for (u64 i = 0; i < header.records; ++i) {
    SHADOW_ASSIGN_OR_RETURN(type, journal::get_snapshot_record_type(r));
    SHADOW_TRY(replay_record(type, r));
  }
  if (!r.at_end()) {
    return Error{ErrorCode::kProtocolError, "trailing bytes in snapshot"};
  }
  // A re-sharded deployment (e.g. --threads 4 over a store written with
  // --threads 2) changes which shard owns which file. Stale entries are
  // only cache — clients re-announce and re-pull on reconnect — so warn
  // and keep what we have rather than refuse to start.
  if (header.shard_id != config_.shard_id ||
      header.shard_count != config_.shard_count) {
    SHADOW_WARN() << config_.name << ": snapshot written as shard "
                  << header.shard_id << "/" << header.shard_count
                  << ", recovering as " << config_.shard_id << "/"
                  << config_.shard_count
                  << "; cached state may belong to sibling shards";
  }
  return Status();
}

void ShadowServer::reset_volatile_state() {
  cache_.clear();
  domains_ = naming::DomainMap();
  queue_ = job::JobQueue(config_.shard_id, config_.shard_count);
  files_.clear();
  pinned_.clear();
  outstanding_pulls_ = 0;
}

namespace {
/// Shadow id encoded in a cache key ("<domain>/<shadow-id>"), or nullopt
/// for a malformed key (possible only with a corrupted-but-CRC-colliding
/// journal; the caller skips the record).
std::optional<std::pair<std::string, naming::ShadowId>> split_cache_key(
    std::string_view key) {
  const auto slash = key.rfind('/');
  if (slash == std::string_view::npos || slash + 1 >= key.size()) {
    return std::nullopt;
  }
  naming::ShadowId sid = 0;
  for (std::size_t i = slash + 1; i < key.size(); ++i) {
    const char c = key[i];
    if (c < '0' || c > '9') return std::nullopt;
    if (sid > (~u64{0} - (c - '0')) / 10) return std::nullopt;  // overflow
    sid = sid * 10 + static_cast<u64>(c - '0');
  }
  return std::make_pair(std::string(key.substr(0, slash)), sid);
}
}  // namespace

bool ShadowServer::bind_shadow(const journal::ShadowHeader& head) {
  const auto split = split_cache_key(head.key);
  if (!split) return false;
  domains_.domain(split->first).bind(head.id, split->second);
  return true;
}

Status ShadowServer::replay_shadow(journal::ShadowHeader& head, u64 size,
                                   std::string_view owner) {
  if (is_output_key(head.key)) return Status();  // no file behind it
  if (!bind_shadow(head)) {
    return Error{ErrorCode::kProtocolError,
                 "malformed cache key " + std::string(head.key)};
  }
  FileState& state = files_[std::string(head.key)];
  state.id = std::move(head.id);
  state.cache_key = head.key;
  if (head.version >= state.latest_known) {
    state.latest_known = head.version;
    state.latest_size = size;
    state.latest_crc = head.crc;
    state.owner_client = owner;
  }
  state.pull_outstanding = 0;
  state.pull_wanted = false;
  return Status();
}

Status ShadowServer::replay_record(persist::RecordType type, BufReader& in) {
  switch (type) {
    case persist::RecordType::kShadowCached: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::ShadowCached>(in));
      SHADOW_TRY(replay_shadow(rec.head, rec.content.size(), rec.owner));
      // A refused put (over budget) is the cache's normal best-effort
      // behaviour, not a replay failure.
      (void)cache_.put(std::string(rec.head.key), rec.head.version,
                       std::string(rec.content), rec.head.crc);
      return Status();
    }
    case persist::RecordType::kShadowDigest: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::ShadowDigest>(in));
      SHADOW_TRY(replay_shadow(rec.head, rec.sig.total_bytes(), rec.owner));
      (void)cache_.put_digest(std::string(rec.head.key), rec.head.version,
                              std::move(rec.sig), rec.head.crc);
      return Status();
    }
    case persist::RecordType::kShadowEvicted: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::ShadowEvicted>(in));
      const std::string key(rec.key);
      cache_.erase(key);
      auto it = files_.find(key);
      if (it != files_.end()) it->second.latest_known = 0;
      return Status();
    }
    case persist::RecordType::kJobSubmitted: {
      SHADOW_ASSIGN_OR_RETURN(job, journal::decode<job::JobRecord>(in));
      // Seed per-file knowledge so the rerun can pull what it needs once
      // the owner reconnects; intern is safe — every key a shadow record
      // assigned was bound first (the pre-pass, and the snapshot's cache
      // records precede its jobs).
      for (const auto& ref : job.files) {
        FileState& state = file_state(ref.file);
        if (ref.version > state.latest_known) {
          state.latest_known = ref.version;
          state.latest_crc = ref.crc;
          state.owner_client = job.client_name;
        }
        if (state.owner_client.empty()) state.owner_client = job.client_name;
      }
      if (job.state == proto::JobState::kDelivered) drop_output(job);
      queue_.restore_record(std::move(job));
      return Status();
    }
    case persist::RecordType::kJobStarted: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::JobStarted>(in));
      auto found = queue_.find(rec.job_id);
      if (!found.ok()) return Status();  // older than the snapshot horizon
      job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kQueued ||
          job.state == proto::JobState::kWaitingFiles) {
        job.state = proto::JobState::kRunning;
        job.detail = "running (journal)";
      }
      return Status();
    }
    case persist::RecordType::kJobFinished: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::JobFinished>(in));
      if (rec.state != proto::JobState::kCompleted &&
          rec.state != proto::JobState::kFailed) {
        return Error{ErrorCode::kProtocolError, "bad finished state"};
      }
      auto found = queue_.find(rec.job_id);
      if (!found.ok()) return Status();
      job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kDelivered) return Status();
      job.state = rec.state;
      job.exit_code = rec.exit_code;
      job.output_content = rec.output;
      job.error_content = rec.error;
      job.cpu_cost = rec.cpu_cost;
      job.detail = rec.detail;
      return Status();
    }
    case persist::RecordType::kJobDelivered: {
      SHADOW_ASSIGN_OR_RETURN(rec, journal::decode<journal::JobDelivered>(in));
      auto found = queue_.find(rec.job_id);
      if (!found.ok()) return Status();
      job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kCompleted ||
          job.state == proto::JobState::kFailed) {
        job.state = proto::JobState::kDelivered;
        job.detail = "output delivered";
        drop_output(job);
      }
      return Status();
    }
    case persist::RecordType::kOutputStored: {
      // Retired: outputs are cache records now. An older store's record is
      // read past and its base dropped; the next re-run of that job ships
      // its output in full.
      SHADOW_TRY(journal::decode<journal::OutputStored>(in));
      return Status();
    }
  }
  return Error{ErrorCode::kProtocolError,
               "unknown record type " +
                   std::to_string(static_cast<unsigned>(type))};
}

void ShadowServer::requeue_orphans() {
  for (auto& [id, record] : queue_.all_mutable()) {
    if (record.state != proto::JobState::kRunning) continue;
    if (record.retries >= config_.max_job_retries) {
      // Enough is enough: a job that dies with the server on every
      // attempt is failed for good, and the owner is told why (the
      // failure is delivered like any other result).
      ++stats_.retry_capped_jobs;
      ++stats_.jobs_failed;
      record.state = proto::JobState::kFailed;
      record.exit_code = 2;
      record.detail = "failed: interrupted by repeated server crashes";
      record.error_content =
          "job " + std::to_string(id) + " was interrupted by a server "
          "crash " + std::to_string(record.retries + 1) + " time(s); "
          "retry limit (" + std::to_string(config_.max_job_retries) +
          ") reached, not re-queued\n";
      record.output_content.clear();
    } else {
      (void)queue_.requeue(id, "re-queued after server restart");
      ++stats_.requeued_jobs;
    }
  }
}

Status ShadowServer::recover_from_storage() {
  if (store_ == nullptr) return Status();
  SHADOW_ASSIGN_OR_RETURN(recovered, store_->recover());

  // Pre-pass: bind every (file id, shadow id) pair the journal's cached
  // and digest records assigned BEFORE anything is replayed. Replaying a
  // job first — from the snapshot or the journal — could otherwise intern
  // one of its files under a fresh id that a later shadow record claims
  // for a different file. (The snapshot's own cache records precede its
  // jobs for the same reason.)
  auto bind_journal_shadows = [&] {
    for (const auto& record : recovered.records) {
      if (record.type != persist::RecordType::kShadowCached &&
          record.type != persist::RecordType::kShadowDigest) {
        continue;
      }
      BufReader r(record.body);
      auto head = journal::decode<journal::ShadowHeader>(r);
      // The full replay rejects what does not decode.
      if (head.ok()) (void)bind_shadow(head.value());
    }
  };
  bind_journal_shadows();

  bool dirty = recovered.journal_torn || recovered.snapshot_corrupt;
  if (!recovered.snapshot.empty()) {
    Status st = restore_state(recovered.snapshot);
    if (!st.ok()) {
      // Same posture as a CRC failure inside the store: a snapshot this
      // process cannot parse degrades to journal-only recovery.
      SHADOW_WARN() << config_.name << ": snapshot unusable ("
                    << st.to_string() << "); replaying journal only";
      reset_volatile_state();
      bind_journal_shadows();
    }
    dirty = true;
  }

  for (const auto& record : recovered.records) {
    BufReader r(record.body);
    Status st = replay_record(record.type, r);
    if (st.ok() && !r.at_end()) {
      st = Error{ErrorCode::kProtocolError, "trailing bytes in record"};
    }
    if (!st.ok()) {
      // A record that passed its CRC but does not decode is as trustworthy
      // as a torn tail: stop here and keep the clean prefix.
      SHADOW_WARN() << config_.name << ": journal replay stopped at offset "
                    << record.offset << ": " << st.to_string();
      dirty = true;
      break;
    }
    ++stats_.recovered_records;
    dirty = true;
  }

  requeue_orphans();

  record_event(telemetry::EventKind::kServer,
               "recovered from storage: " +
                   std::to_string(stats_.recovered_records) +
                   " journal records replayed");

  // Fold the replay into a fresh snapshot and truncate — this is also
  // what durably discards a torn tail instead of re-reading it forever.
  if (dirty) compact_persist();

  schedule_jobs();
  return Status();
}

void ShadowServer::sync_telemetry() const {
  auto& r = telemetry::Registry::global();
  // Every name carries this server's prefix ("shard2." on shard 2 of a
  // ShardedServer, empty standalone) so `shadowtop --filter shard2.`
  // selects one shard's view; the facade writes the aggregated plain
  // server.* names.
  const std::string& p = config_.telemetry_prefix;
  // store(), not add(): these counters MIRROR the authoritative ServerStats
  // accumulators, so re-syncing is idempotent.
  for (const auto& f : kServerStatNames) {
    r.counter(p + f.name).store(stats_.*f.field);
  }

  // CDC digest residency (docs/DELTAS.md): what the digest-only entries
  // cost vs represent.
  const auto digests = cache_.digest_stats();
  r.gauge(p + "server.digest_entries")
      .set(static_cast<double>(digests.entries));
  r.gauge(p + "server.digest_resident_bytes")
      .set(static_cast<double>(digests.resident_bytes));
  r.gauge(p + "server.digest_represented_bytes")
      .set(static_cast<double>(digests.represented_bytes));

  // Overload control & leases (docs/OPERATIONS.md).
  r.gauge(p + "overload.queued_bytes")
      .set(static_cast<double>(total_queued_bytes()));
  r.gauge(p + "overload.draining").set(draining_ ? 1.0 : 0.0);
  r.gauge(p + "lease.usec").set(static_cast<double>(config_.lease_usec));

  r.gauge(p + "server.connections")
      .set(static_cast<double>(connections_.size()));
  r.gauge(p + "server.named_clients")
      .set(static_cast<double>(clients_.size()));
  r.gauge(p + "server.tracked_files").set(static_cast<double>(files_.size()));
  r.gauge(p + "server.outstanding_pulls")
      .set(static_cast<double>(outstanding_pulls_));
  r.gauge(p + "server.running_jobs").set(static_cast<double>(running_jobs_));
  r.gauge(p + "server.active_jobs")
      .set(static_cast<double>(queue_.active_count()));
  r.gauge(p + "server.cache_bytes")
      .set(static_cast<double>(cache_.bytes_used()));
  r.gauge(p + "server.cache_entries")
      .set(static_cast<double>(cache_.entry_count()));
  r.gauge(p + "server.pinned_files").set(static_cast<double>(pinned_.size()));
  r.gauge(p + "server.persist_alive").set(persist_alive() ? 1.0 : 0.0);

  // Per-connection session totals, summed (the per-channel breakdown stays
  // in ReliableChannel::Stats).
  const auto sessions = session_stats();
  r.counter(p + "server.session_data_sent").store(sessions.data_sent);
  r.counter(p + "server.session_delivered").store(sessions.delivered);
  r.counter(p + "server.session_retransmits").store(sessions.retransmits);
  r.counter(p + "server.session_corrupt_dropped")
      .store(sessions.corrupt_dropped);
  r.counter(p + "server.session_desyncs").store(sessions.desyncs);

  load_monitor_.publish(p);
}

void ShadowServer::evict_file(const naming::GlobalFileId& id) {
  const std::string key = domains_.cache_key(id);
  cache_.erase(key);
  pinned_.erase(key);
  persist_eviction(key);
}

}  // namespace shadow::server
