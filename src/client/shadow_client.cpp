#include "client/shadow_client.hpp"

#include <algorithm>
#include <chrono>

#include "cdc/signature.hpp"
#include "cdc/sniff.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "vfs/path.hpp"

namespace shadow::client {

namespace {
u64 steady_micros() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Per-(client, server) jitter seed: every endpoint pair gets its own
/// reproducible backoff stream (thundering-herd decorrelation).
u64 session_seed(const std::string& client, const std::string& server) {
  const std::string pair = client + "|" + server;
  return crc32(reinterpret_cast<const u8*>(pair.data()), pair.size());
}

// Workstation-side telemetry summed over every ShadowClient instance
// (per-instance numbers stay in ClientStats).
struct ClientMetrics {
  telemetry::Counter& notifies_sent;
  telemetry::Counter& updates_sent;
  telemetry::Counter& update_payload_bytes;
  telemetry::Counter& full_sent;
  telemetry::Counter& delta_sent;
  telemetry::Counter& cdc_sent;
  telemetry::Counter& pulls_received;
  telemetry::Counter& acks_received;
  telemetry::Counter& nack_full_resends;
  telemetry::Counter& session_resyncs;
  telemetry::Counter& lost_job_resubmits;
  telemetry::Counter& outputs_received;
  telemetry::Counter& output_payload_bytes;
  telemetry::Counter& output_nacks_sent;
  telemetry::Counter& output_delta_applied;
  telemetry::Counter& server_busy;
  telemetry::Counter& busy_retries;
  telemetry::Counter& heartbeats_sent;

  static ClientMetrics& get() {
    auto& r = telemetry::Registry::global();
    static ClientMetrics m{r.counter("client.notifies_sent"),
                           r.counter("client.updates_sent"),
                           r.counter("client.update_payload_bytes"),
                           r.counter("client.full_sent"),
                           r.counter("client.delta_sent"),
                           r.counter("client.cdc_sent"),
                           r.counter("client.pulls_received"),
                           r.counter("client.acks_received"),
                           r.counter("client.nack_full_resends"),
                           r.counter("client.session_resyncs"),
                           r.counter("client.lost_job_resubmits"),
                           r.counter("client.outputs_received"),
                           r.counter("client.output_payload_bytes"),
                           r.counter("client.output_nacks_sent"),
                           r.counter("client.output_delta_applied"),
                           r.counter("client.server_busy"),
                           r.counter("client.busy_retries"),
                           r.counter("client.heartbeats_sent")};
    return m;
  }
};
}  // namespace

ShadowClient::ShadowClient(std::string name, ShadowEnvironment env,
                           vfs::Cluster* cluster, std::string domain_id)
    : name_(std::move(name)),
      env_(std::move(env)),
      cluster_(cluster),
      resolver_(std::move(domain_id), cluster),
      versions_(env_.retention_limit, env_.version_storage) {}

void ShadowClient::connect(const std::string& server_name,
                           net::Transport* transport) {
  Session session;
  session.server_name = server_name;
  session.transport = transport;
  auto [it, inserted] = sessions_.insert_or_assign(server_name,
                                                   std::move(session));
  Session* raw = &it->second;
  // A snapshot restored before this connect supplies the acked-version map.
  if (auto restored = restored_server_has_.find(server_name);
      restored != restored_server_has_.end()) {
    raw->server_has = restored->second;
  }
  const u64 seed = session_seed(name_, server_name);
  // ServerBusy retries are always jittered (decorrelated recovery is the
  // point of the backoff); the retransmit/census timers follow the
  // environment knob so the historical deterministic schedules survive.
  const double jitter =
      env_.retransmit_jitter > 0 ? env_.retransmit_jitter : 0.2;
  raw->busy_backoff.set_jitter(jitter, seed);
  if (env_.retransmit_jitter > 0) {
    raw->census_backoff.set_jitter(env_.retransmit_jitter, seed ^ 0x9e3779b9u);
  }
  if (env_.reliable_session) {
    proto::ReliableChannel::Config channel_config;
    channel_config.retransmit_jitter = env_.retransmit_jitter;
    channel_config.jitter_seed = seed;
    if (env_.retransmit_initial_usec > 0) {
      channel_config.retransmit_initial = env_.retransmit_initial_usec;
    }
    if (env_.retransmit_cap_usec > 0) {
      channel_config.retransmit_cap = env_.retransmit_cap_usec;
    }
    raw->channel =
        std::make_unique<proto::ReliableChannel>(transport, channel_config);
    raw->channel->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
    raw->channel->on_desync([this, raw] { resync_session(raw); });
    if (sim_ != nullptr) raw->channel->attach_simulator(sim_);
  } else {
    transport->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
  }
  if (env_.default_server.empty()) env_.default_server = server_name;

  proto::Hello hello;
  hello.client_name = name_;
  hello.domain = resolver_.domain_id();
  hello.codecs = offered_codecs();
  send(raw, hello);
}

void ShadowClient::send(Session* session, const proto::Message& m) {
  Status st = session->channel != nullptr
                  ? session->channel->send(proto::encode_message(m))
                  : session->transport->send(proto::encode_message(m));
  if (!st.ok()) {
    SHADOW_WARN() << name_ << ": send to " << session->server_name
                  << " failed: " << st.to_string();
  }
}

void ShadowClient::resync_session(Session* session) {
  // The session lost messages beyond repair (or the server reset). Forget
  // what the server holds — every subsequent update is then diffed
  // against base 0, i.e. a full-file transfer, the paper's escape hatch
  // (§5.1) — and re-announce the newest version of every shadowed file so
  // whatever the lost frames carried is offered again.
  ++stats_.session_resyncs;
  ClientMetrics::get().session_resyncs.add();
  session->server_has.clear();
  session->cdc_files.clear();
  for (const auto& [key, id] : ids_) {
    auto latest = versions_.chain(key).latest();
    if (!latest.ok()) continue;
    if (env_.flow == FlowMode::kRequestDriven) {
      Status st = send_update(session, id, 0, latest.value().number);
      if (!st.ok()) {
        SHADOW_WARN() << name_ << ": resync push failed: " << st.to_string();
      }
    } else {
      proto::NotifyNewVersion notify;
      notify.file = id;
      notify.version = latest.value().number;
      notify.size = latest.value().content.size();
      notify.crc = latest.value().crc;
      ++stats_.notifies_sent;
      ClientMetrics::get().notifies_sent.add();
      send(session, notify);
    }
  }
  // Submissions the server never answered may have died with the lost
  // frames; resend them (the server dedupes on the token).
  for (const auto& [token, msg] : pending_submits_) {
    auto it = jobs_.find(token);
    if (it == jobs_.end() || it->second.server != session->server_name) {
      continue;
    }
    send(session, msg);
  }
  // Submissions the server DID answer may still be gone: a crashed server
  // whose disk lost the journal record forgets the job entirely, and the
  // client would wait for its output forever. Take a full-status census;
  // the reply names every job this server still knows, and anything of
  // ours missing from it gets resubmitted (handle(StatusReply)).
  bool awaiting_output = false;
  for (const auto& [token, view] : jobs_) {
    if (view.server == session->server_name && view.job_id != 0 &&
        !view.output_received) {
      awaiting_output = true;
    }
  }
  if (awaiting_output) {
    status_sweep_pending_.insert(session->server_name);
    proto::StatusQuery query;
    query.job_id = 0;  // everything of mine
    send(session, query);
    // The census itself rides the lossy link; retry on a (jittered)
    // backoff until its StatusReply lands.
    arm_census_retry(session);
  }
}

void ShadowClient::set_simulator(sim::Simulator* simulator) {
  sim_ = simulator;
  for (auto& [server_name, session] : sessions_) {
    if (session.channel != nullptr && sim_ != nullptr) {
      session.channel->attach_simulator(sim_);
    }
  }
}

std::size_t ShadowClient::tick() {
  std::size_t resent = 0;
  for (auto& [server_name, session] : sessions_) {
    if (session.channel != nullptr) resent += session.channel->tick();
  }
  if (sim_ != nullptr) return resent;  // timers are sim-scheduled
  const u64 now = steady_micros();
  for (auto& [server_name, session] : sessions_) {
    // Fire ServerBusy retries past their steady-clock deadline.
    std::vector<u64> due;
    for (const auto& [token, at] : session.retry_at_us) {
      if (at <= now) due.push_back(token);
    }
    for (const u64 token : due) {
      session.retry_at_us.erase(token);
      fire_retry(&session, token);
    }
    // Re-send the lost-job census if its reply never came.
    if (session.census_retry_at_us != 0 &&
        session.census_retry_at_us <= now &&
        status_sweep_pending_.count(session.server_name) != 0) {
      session.census_retry_at_us = 0;
      proto::StatusQuery query;
      query.job_id = 0;
      send(&session, query);
      arm_census_retry(&session);
    }
  }
  return resent;
}

std::size_t ShadowClient::heartbeat() {
  std::size_t sent = 0;
  for (auto& [server_name, session] : sessions_) {
    // A v0 server would log "unexpected message type" at every beat.
    if (!session.hello_done || session.server_protocol < 1) continue;
    proto::Heartbeat beat;
    beat.client_time_us = sim_ != nullptr ? sim_->now() : steady_micros();
    ++stats_.heartbeats_sent;
    ClientMetrics::get().heartbeats_sent.add();
    send(&session, beat);
    ++sent;
  }
  return sent;
}

bool ShadowClient::backing_off(const std::string& server) const {
  for (const auto& [server_name, session] : sessions_) {
    if (!server.empty() && server_name != server) continue;
    if (!session.retry_at_us.empty()) return true;
  }
  return false;
}

u32 ShadowClient::server_protocol(const std::string& server) const {
  auto it = sessions_.find(server.empty() ? env_.default_server : server);
  return it == sessions_.end() ? 0 : it->second.server_protocol;
}

void ShadowClient::arm_census_retry(Session* session) {
  const u64 delay = session->census_backoff.next();
  if (sim_ == nullptr) {
    session->census_retry_at_us = steady_micros() + delay;
    return;
  }
  if (session->census_retry_armed) return;
  session->census_retry_armed = true;
  sim_->schedule(delay, [this, session] {
    session->census_retry_armed = false;
    if (status_sweep_pending_.count(session->server_name) == 0) return;
    proto::StatusQuery query;
    query.job_id = 0;
    send(session, query);
    arm_census_retry(session);
  });
}

const proto::ReliableChannel* ShadowClient::session_channel(
    const std::string& server) const {
  auto it = sessions_.find(server.empty() ? env_.default_server : server);
  return it == sessions_.end() ? nullptr : it->second.channel.get();
}

Result<ShadowClient::Session*> ShadowClient::session_for(
    const std::string& server) {
  const std::string& target = server.empty() ? env_.default_server : server;
  auto it = sessions_.find(target);
  if (it == sessions_.end()) {
    return Error{ErrorCode::kNotFound, "not connected to server: " + target};
  }
  return &it->second;
}

void ShadowClient::on_message(Session* session, Bytes wire) {
  auto decoded = proto::decode_message(wire);
  if (!decoded.ok()) {
    SHADOW_WARN() << name_ << ": dropping malformed message from "
                  << session->server_name << ": "
                  << decoded.error().to_string();
    return;
  }
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloReply> ||
                      std::is_same_v<T, proto::PullRequest> ||
                      std::is_same_v<T, proto::UpdateAck> ||
                      std::is_same_v<T, proto::SubmitReply> ||
                      std::is_same_v<T, proto::StatusReply> ||
                      std::is_same_v<T, proto::JobOutput> ||
                      std::is_same_v<T, proto::ServerBusy>) {
          handle(session, m);
        } else {
          SHADOW_WARN() << name_ << ": unexpected message from server";
        }
      },
      decoded.value());
}

void ShadowClient::handle(Session* session, const proto::HelloReply& m) {
  session->hello_done = true;
  session->server_protocol = m.protocol_version;
  // Negotiated codec set: what we offered AND what the server announced.
  // A v0 reply carries no codecs field and decodes as kLegacyCodecs.
  session->codecs = m.codecs & offered_codecs();
  // The server accepted the session: any pending Hello retry is obsolete
  // and the shed-work backoff starts over.
  session->retry_at_us.erase(0);
  session->busy_backoff.reset();
}

void ShadowClient::handle(Session* session, const proto::ServerBusy& m) {
  ++stats_.server_busy;
  ClientMetrics::get().server_busy.add();
  // Back off at least as long as the server asked, with our own jittered
  // exponential schedule on top — many shed clients must not return in
  // one synchronized burst.
  const u64 delay =
      std::max<u64>(m.retry_after_usec, session->busy_backoff.next());
  SHADOW_DEBUG() << name_ << ": " << session->server_name << " busy ("
                 << m.reason << (m.draining ? ", draining" : "")
                 << "); retrying "
                 << (m.client_job_token == 0
                         ? std::string("session")
                         : "job token " + std::to_string(m.client_job_token))
                 << " in " << delay << " us";
  if (m.client_job_token == 0) {
    // The whole session was refused (overloaded shard or drain): Hello
    // again after the delay. Work already queued behind hello_done waits
    // with us.
    session->hello_done = false;
    schedule_retry(session, 0, delay);
    return;
  }
  auto it = jobs_.find(m.client_job_token);
  if (it != jobs_.end()) {
    it->second.detail = "shed by server (" + m.reason + "); backing off";
  }
  schedule_retry(session, m.client_job_token, delay);
}

void ShadowClient::schedule_retry(Session* session, u64 token,
                                  u64 delay_us) {
  const u64 now = sim_ != nullptr ? sim_->now() : steady_micros();
  session->retry_at_us[token] = now + delay_us;
  if (sim_ == nullptr) return;  // tick() fires it past the deadline
  sim_->schedule(delay_us, [this, session, token] {
    // Cancelled (the server answered meanwhile) or superseded by a later
    // reschedule: the map is the source of truth.
    auto it = session->retry_at_us.find(token);
    if (it == session->retry_at_us.end() || it->second > sim_->now()) return;
    session->retry_at_us.erase(it);
    fire_retry(session, token);
  });
}

void ShadowClient::fire_retry(Session* session, u64 token) {
  ++stats_.busy_retries;
  ClientMetrics::get().busy_retries.add();
  if (token == 0) {
    proto::Hello hello;
    hello.client_name = name_;
    hello.domain = resolver_.domain_id();
    hello.codecs = offered_codecs();
    send(session, hello);
    return;
  }
  if (!session->hello_done) {
    // The session itself is still being refused; the submit retry waits
    // for the Hello to land rather than racing it.
    schedule_retry(session, token, session->busy_backoff.next());
    return;
  }
  auto archived = submit_archive_.find(token);
  if (archived == submit_archive_.end()) return;  // output arrived meanwhile
  send(session, archived->second);
}

Result<std::pair<std::string, std::string>> ShadowClient::translate(
    const std::string& path) const {
  if (naming::TildeForest::is_tilde_path(path)) {
    if (tilde_ == nullptr) {
      return Error{ErrorCode::kInvalidArgument,
                   "tilde names not configured (set_tilde): " + path};
    }
    return tilde_->locate(tilde_user_, path);
  }
  return std::make_pair(name_, path);
}

Result<naming::GlobalFileId> ShadowClient::resolve_name(
    const std::string& path) const {
  SHADOW_ASSIGN_OR_RETURN(where, translate(path));
  return resolver_.resolve(where.first, where.second);
}

Result<std::pair<naming::GlobalFileId, version::VersionNumber>>
ShadowClient::capture_version(const std::string& local_path) {
  SHADOW_ASSIGN_OR_RETURN(where, translate(local_path));
  SHADOW_ASSIGN_OR_RETURN(id, resolver_.resolve(where.first, where.second));
  SHADOW_ASSIGN_OR_RETURN(content,
                          cluster_->read_file(where.first, where.second));
  ids_[id.key()] = id;
  auto& chain = versions_.chain(id.key());
  chain.set_retention_limit(env_.retention_limit);
  // Skip a new version when the content is unchanged (re-saving without
  // edits must not spam the server).
  auto latest = chain.latest();
  if (latest.ok() && latest.value().content == content) {
    return std::make_pair(id, latest.value().number);
  }
  const auto number = chain.append(std::move(content));
  return std::make_pair(id, number);
}

Status ShadowClient::edited(const std::string& local_path) {
  SHADOW_ASSIGN_OR_RETURN(captured, capture_version(local_path));
  const auto& [id, number] = captured;
  if (!env_.background_updates) {
    return Status();  // server learns at submit time
  }
  for (auto& [server_name, session] : sessions_) {
    if (env_.flow == FlowMode::kRequestDriven) {
      // Push unprompted, diffed against what the server last acked.
      const u64 base = session.server_has.count(id.key()) != 0
                           ? session.server_has[id.key()]
                           : 0;
      SHADOW_TRY(send_update(&session, id, base, number));
    } else {
      proto::NotifyNewVersion notify;
      notify.file = id;
      notify.version = number;
      auto chain_latest = versions_.chain(id.key()).latest();
      if (chain_latest.ok()) {
        notify.size = chain_latest.value().content.size();
        notify.crc = chain_latest.value().crc;
      }
      ++stats_.notifies_sent;
      ClientMetrics::get().notifies_sent.add();
      send(&session, notify);
    }
  }
  return Status();
}

bool ShadowClient::prefer_cdc(const Session& session, const std::string& key,
                              const std::string& content) const {
  if ((session.codecs & proto::kCodecCdc) == 0) return false;
  // Sticky: the server may hold this file as digests only; any other
  // codec would force it into a full re-pull.
  if (session.cdc_files.count(key) != 0) return true;
  if (content.size() >= env_.cdc_min_bytes) return true;
  return content.size() >= env_.cdc_min_binary_bytes &&
         cdc::looks_binary(content);
}

Status ShadowClient::send_update(Session* session,
                                 const naming::GlobalFileId& file, u64 base,
                                 u64 version, bool force_cdc) {
  auto& chain = versions_.chain(file.key());
  SHADOW_ASSIGN_OR_RETURN(target, chain.get(version));

  const bool want_cdc =
      (session->codecs & proto::kCodecCdc) != 0 &&
      (force_cdc || prefer_cdc(*session, file.key(), target.content));

  diff::Delta delta;
  u64 actual_base = 0;
  bool have_delta = false;
  if (want_cdc) {
    // Chunk delta against the base's signature. The signature is derived
    // from content alone, so recomputing it from the retained base is
    // exactly what a digest-only server holds for the same version.
    cdc::Signature base_sig;
    base_sig.params = env_.cdc_params;
    u64 sig_base = 0;
    if (base != 0) {
      auto base_version = chain.get(base);
      if (base_version.ok()) {
        base_sig = cdc::signature_of(base_version.value().content,
                                     env_.cdc_params);
        sig_base = base;
      }
    }
    delta = diff::Delta::compute_cdc(base_sig, target.content);
    if (delta.needs_base()) actual_base = sig_base;
    have_delta = true;
  } else if (base != 0) {
    auto base_version = chain.get(base);
    if (base_version.ok()) {
      delta = env_.adaptive_diff
                  ? diff::Delta::compute_adaptive(
                        base_version.value().content, target.content)
                  : diff::Delta::compute(base_version.value().content,
                                         target.content, env_.algorithm);
      if (delta.needs_base()) actual_base = base;
      have_delta = true;
    }
    // Base no longer stored (§6.3.2): fall through with the full content.
  }
  if (!have_delta) {
    // First submission (or evicted base): the full-content copy is made
    // only on this path, not eagerly before every diff.
    delta = diff::Delta::make_full(target.content);
  }
  if (delta.format == diff::Delta::Format::kCdc) {
    session->cdc_files.insert(file.key());
    ++stats_.cdc_sent;
    ClientMetrics::get().cdc_sent.add();
  }

  proto::Update update;
  update.file = file;
  update.base_version = actual_base;
  update.new_version = version;
  update.payload = proto::pack_payload(delta, env_.codec);

  ++stats_.updates_sent;
  stats_.update_payload_bytes += update.payload.size();
  ClientMetrics& metrics = ClientMetrics::get();
  metrics.updates_sent.add();
  metrics.update_payload_bytes.add(update.payload.size());
  if (actual_base == 0) {
    ++stats_.full_sent;
    metrics.full_sent.add();
  } else {
    ++stats_.delta_sent;
    metrics.delta_sent.add();
  }
  // Charge the workstation's diff-computation time to the simulated clock
  // (a 1987 workstation took real seconds to diff a big file). The delta
  // was computed above against an immutable version, so deferring the
  // send is safe.
  if (sim_ != nullptr && actual_base != 0 &&
      env_.diff_bytes_per_second > 0) {
    const double seconds =
        static_cast<double>(target.content.size()) /
        env_.diff_bytes_per_second;
    sim_->schedule(sim::from_seconds(seconds),
                   [this, session, update = std::move(update)]() {
                     send(session, update);
                   });
    return Status();
  }
  send(session, update);
  return Status();
}

void ShadowClient::handle(Session* session, const proto::PullRequest& m) {
  ++stats_.pulls_received;
  ClientMetrics::get().pulls_received.add();
  auto& chain = versions_.chain(m.file.key());
  // Serve the requested version, or the latest if the user has moved on.
  u64 target = m.want_version;
  if (!chain.has(target)) {
    const auto latest = chain.latest_number();
    if (!latest || *latest < m.want_version) {
      SHADOW_WARN() << name_ << ": pull for unknown version "
                    << m.want_version << " of " << m.file.display();
      return;
    }
    target = *latest;
  } else if (const auto latest = chain.latest_number();
             latest && *latest > target) {
    target = *latest;  // newer content supersedes the request
  }
  const u64 base = (m.have_version != 0 && chain.has(m.have_version))
                       ? m.have_version
                       : 0;
  // A codec_hint of kCodecCdc means the server holds the base as chunk
  // digests and can apply nothing but a chunk delta against it.
  const bool force_cdc = (m.codec_hint & proto::kCodecCdc) != 0 &&
                         (session->codecs & proto::kCodecCdc) != 0;
  Status st = send_update(session, m.file, base, target, force_cdc);
  if (!st.ok()) {
    SHADOW_WARN() << name_ << ": failed to answer pull: " << st.to_string();
  }
}

void ShadowClient::handle(Session* session, const proto::UpdateAck& m) {
  ++stats_.acks_received;
  ClientMetrics::get().acks_received.add();
  if (!m.ok) {
    // An older server could not apply our update (corrupt payload, wrong
    // base — a desync); current servers re-pull instead of nacking. Forget
    // what it holds and resend the newest version as full content: delta
    // sync must degrade to a full-file transfer, never to a corrupt shadow
    // copy (§5.1).
    SHADOW_WARN() << name_ << ": server failed to apply update v"
                  << m.version << " of " << m.file.display() << ": "
                  << m.error << "; resending full";
    session->server_has.erase(m.file.key());
    session->cdc_files.erase(m.file.key());
    const auto latest = versions_.chain(m.file.key()).latest_number();
    if (latest) {
      ++stats_.nack_full_resends;
      ClientMetrics::get().nack_full_resends.add();
      Status st = send_update(session, m.file, 0, *latest);
      if (!st.ok()) {
        SHADOW_WARN() << name_ << ": full resend failed: " << st.to_string();
      }
    }
    return;
  }
  session->server_has[m.file.key()] = m.version;
  // §6.3.2: older versions may be GC'd once a later one is acknowledged.
  // With several servers, only GC below the minimum acked version.
  u64 min_acked = m.version;
  for (const auto& [server_name, other] : sessions_) {
    auto it = other.server_has.find(m.file.key());
    const u64 acked = it == other.server_has.end() ? 0 : it->second;
    min_acked = std::min(min_acked, acked);
  }
  if (min_acked > 0) {
    versions_.chain(m.file.key()).acknowledge(min_acked);
  }
}

Result<u64> ShadowClient::submit(const SubmitOptions& options) {
  SHADOW_ASSIGN_OR_RETURN(session, session_for(options.server));

  proto::SubmitJob msg;
  msg.client_job_token = next_token_++;
  msg.command_file = options.command_file;
  msg.output_name = options.output_path;
  msg.error_name = options.error_path;
  msg.output_route = options.output_route;

  for (const auto& path : options.files) {
    SHADOW_ASSIGN_OR_RETURN(captured, capture_version(path));
    const auto& [id, number] = captured;
    // A lazily-edited file (background_updates off) is announced now, so
    // the demand-driven server knows whom to pull from.
    if (env_.flow == FlowMode::kRequestDriven) {
      const u64 base = session->server_has.count(id.key()) != 0
                           ? session->server_has[id.key()]
                           : 0;
      if (base < number) {
        SHADOW_TRY(send_update(session, id, base, number));
      }
    }
    proto::JobFileRef ref;
    ref.file = id;
    ref.local_name = vfs::basename(path);
    ref.version = number;
    auto latest = versions_.chain(id.key()).get(number);
    if (latest.ok()) ref.crc = latest.value().crc;
    msg.files.push_back(std::move(ref));
  }

  JobView view;
  view.token = msg.client_job_token;
  view.server = session->server_name;
  view.state = proto::JobState::kQueued;
  view.output_path = options.output_path;
  view.error_path = options.error_path;
  jobs_[view.token] = view;

  // Kept until SubmitReply so a session resync can resend the submission
  // (the server dedupes on the token); archived until the output arrives
  // so a job lost to a server crash can be submitted afresh.
  pending_submits_[view.token] = msg;
  submit_archive_[view.token] = msg;
  send(session, msg);
  return view.token;
}

void ShadowClient::handle(Session* session, const proto::SubmitReply& m) {
  pending_submits_.erase(m.client_job_token);
  // Answered — a busy-backoff retry for this token is obsolete, and an
  // accepted job means the server is taking work again.
  session->retry_at_us.erase(m.client_job_token);
  if (m.accepted) session->busy_backoff.reset();
  auto it = jobs_.find(m.client_job_token);
  if (it == jobs_.end()) return;
  it->second.job_id = m.job_id;
  if (!m.accepted) {
    it->second.state = proto::JobState::kFailed;
    it->second.detail = m.reason;
  }
}

Status ShadowClient::request_status(u64 job_id, const std::string& server) {
  SHADOW_ASSIGN_OR_RETURN(session, session_for(server));
  proto::StatusQuery query;
  query.job_id = job_id;
  send(session, query);
  return Status();
}

void ShadowClient::handle(Session* session, const proto::StatusReply& m) {
  for (const auto& info : m.jobs) {
    for (auto& [token, view] : jobs_) {
      if (view.job_id == info.job_id &&
          view.server == session->server_name) {
        view.state = info.state;
        view.detail = info.detail;
      }
    }
  }
  // A census requested by resync_session: any job the server acknowledged
  // that is now absent from its books was lost with the crash. Submit it
  // again as a fresh job — same token, so a dedupe on a server that DID
  // survive is still possible and the view needs no rewiring.
  const bool census_answered =
      status_sweep_pending_.erase(session->server_name) > 0;
  if (census_answered) {
    session->census_backoff.reset();
    session->census_retry_at_us = 0;
  }
  if (census_answered) {
    for (auto& [token, view] : jobs_) {
      if (view.server != session->server_name || token == 0 ||
          view.job_id == 0 || view.output_received ||
          view.state == proto::JobState::kFailed) {
        continue;
      }
      // Match by OUR token, not the server's job id: a restarted server
      // renumbers from 1, so a fresh job can shadow a lost one's id.
      bool known = false;
      for (const auto& info : m.jobs) {
        if (info.client_job_token == token) known = true;
      }
      if (known) continue;
      auto archived = submit_archive_.find(token);
      if (archived == submit_archive_.end()) continue;
      SHADOW_INFO() << name_ << ": server " << session->server_name
                    << " lost job " << view.job_id << " (token " << token
                    << "); resubmitting";
      view.job_id = 0;
      view.state = proto::JobState::kQueued;
      view.detail = "resubmitted after server lost the job";
      ++stats_.lost_job_resubmits;
      ClientMetrics::get().lost_job_resubmits.add();
      pending_submits_[token] = archived->second;
      send(session, archived->second);
    }
  }
  if (status_callback_) status_callback_(m.jobs);
}

void ShadowClient::handle(Session* session, const proto::JobOutput& m) {
  ++stats_.outputs_received;
  stats_.output_payload_bytes += m.output_payload.size() +
                                 m.error_payload.size();
  {
    ClientMetrics& metrics = ClientMetrics::get();
    metrics.outputs_received.add();
    metrics.output_payload_bytes.add(m.output_payload.size() +
                                     m.error_payload.size());
  }

  auto nack = [&](const std::string& why) {
    proto::JobOutputAck ack;
    ack.job_id = m.job_id;
    ack.ok = false;
    ack.error = why;
    ++stats_.output_nacks_sent;
    ClientMetrics::get().output_nacks_sent.add();
    send(session, ack);
  };

  auto output_delta = proto::unpack_payload(m.output_payload);
  if (!output_delta.ok()) {
    nack(output_delta.error().to_string());
    return;
  }

  const std::string cache_key = session->server_name + "|" + m.output_name;
  std::string output_content;
  if (output_delta.value().needs_base()) {
    // Reverse shadow (§8.3): the delta is against our previous output.
    auto prev = output_cache_.find(cache_key);
    if (prev == output_cache_.end() ||
        prev->second.generation != m.output_base_generation) {
      nack("output base generation not available");
      return;
    }
    auto applied = output_delta.value().apply(prev->second.content);
    if (!applied.ok()) {
      nack(applied.error().to_string());
      return;
    }
    output_content = std::move(applied).take();
    ++stats_.output_delta_applied;
    ClientMetrics::get().output_delta_applied.add();
  } else {
    output_content = output_delta.value().full;
  }
  if (m.output_generation > 0) {
    output_cache_[cache_key] =
        OutputCacheEntry{m.output_generation, output_content};
  }

  auto error_delta = proto::unpack_payload(m.error_payload);
  if (!error_delta.ok()) {
    nack(error_delta.error().to_string());
    return;
  }
  auto error_applied = error_delta.value().apply("");
  if (!error_applied.ok()) {
    nack(error_applied.error().to_string());
    return;
  }

  // Write results into the local filesystem at the requested paths
  // (which may be tilde names).
  auto out_where = translate(m.output_name);
  auto err_where = translate(m.error_name);
  if (!out_where.ok() || !err_where.ok()) {
    nack("cannot translate output path");
    return;
  }
  Status write_out = cluster_->write_file(
      out_where.value().first, out_where.value().second, output_content);
  Status write_err = cluster_->write_file(
      err_where.value().first, err_where.value().second,
      error_applied.value());
  if (!write_out.ok() || !write_err.ok()) {
    nack("failed to store output locally");
    return;
  }

  proto::JobOutputAck ack;
  ack.job_id = m.job_id;
  ack.ok = true;
  send(session, ack);

  // Update the job view. Routed outputs (from jobs another client
  // submitted) get a synthetic view with token 0.
  JobView* view = nullptr;
  for (auto& [token, v] : jobs_) {
    if (v.job_id == m.job_id && v.server == session->server_name) view = &v;
  }
  if (view == nullptr && m.client_job_token != 0) {
    for (auto& [token, v] : jobs_) {
      if (token == m.client_job_token) view = &v;
    }
  }
  if (view == nullptr) {
    JobView routed;
    routed.token = 0;
    routed.job_id = m.job_id;
    routed.server = session->server_name;
    routed.output_path = m.output_name;
    routed.error_path = m.error_name;
    jobs_[0] = routed;
    view = &jobs_[0];
  }
  view->state = m.exit_code == 0 ? proto::JobState::kDelivered
                                 : proto::JobState::kFailed;
  view->exit_code = m.exit_code;
  view->output_received = true;
  submit_archive_.erase(view->token);
  if (output_callback_) output_callback_(*view);
}

bool ShadowClient::job_done(u64 token) const {
  auto it = jobs_.find(token);
  return it != jobs_.end() && it->second.output_received;
}

std::map<std::string, u64> ShadowClient::acked_versions(
    const std::string& server) const {
  auto it = sessions_.find(server);
  if (it == sessions_.end()) return {};
  return it->second.server_has;
}

void ShadowClient::resync(const std::string& server) {
  for (auto& [name, session] : sessions_) {
    if (!server.empty() && name != server) continue;
    resync_session(&session);
  }
}

namespace {
constexpr u32 kClientSnapshotMagic = 0x53484356;  // "SHCV"
constexpr u8 kSnapshotVersion = 1;
}  // namespace

Bytes ShadowClient::save_state() const {
  BufWriter w;
  w.put_u32(kClientSnapshotMagic);
  w.put_u8(kSnapshotVersion);
  versions_.encode(w);
  w.put_varint(ids_.size());
  for (const auto& [key, id] : ids_) {
    w.put_string(key);
    id.encode(w);
  }
  w.put_varint(output_cache_.size());
  for (const auto& [key, entry] : output_cache_) {
    w.put_string(key);
    w.put_varint(entry.generation);
    w.put_string(entry.content);
  }
  // Per-server acknowledged versions (live sessions + restored stashes).
  std::map<std::string, std::map<std::string, u64>> acked =
      restored_server_has_;
  for (const auto& [server_name, session] : sessions_) {
    acked[server_name] = session.server_has;
  }
  w.put_varint(acked.size());
  for (const auto& [server_name, has] : acked) {
    w.put_string(server_name);
    w.put_varint(has.size());
    for (const auto& [key, ver] : has) {
      w.put_string(key);
      w.put_varint(ver);
    }
  }
  return w.take();
}

Status ShadowClient::restore_state(const Bytes& snapshot) {
  BufReader r(snapshot);
  SHADOW_ASSIGN_OR_RETURN(magic, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(version, r.get_u8());
  if (magic != kClientSnapshotMagic || version != kSnapshotVersion) {
    return Error{ErrorCode::kInvalidArgument, "not a client snapshot"};
  }
  SHADOW_ASSIGN_OR_RETURN(versions, version::VersionStore::decode(r));
  versions_ = std::move(versions);
  SHADOW_ASSIGN_OR_RETURN(id_count, r.get_varint());
  if (id_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "id count exceeds data"};
  }
  ids_.clear();
  for (u64 i = 0; i < id_count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(id, naming::GlobalFileId::decode(r));
    ids_.emplace(std::move(key), std::move(id));
  }
  SHADOW_ASSIGN_OR_RETURN(output_count, r.get_varint());
  if (output_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "output count exceeds data"};
  }
  output_cache_.clear();
  for (u64 i = 0; i < output_count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(generation, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(content, r.get_string());
    output_cache_[key] = OutputCacheEntry{generation, std::move(content)};
  }
  SHADOW_ASSIGN_OR_RETURN(server_count, r.get_varint());
  if (server_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "server count exceeds data"};
  }
  restored_server_has_.clear();
  for (u64 i = 0; i < server_count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(server_name, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(entry_count, r.get_varint());
    if (entry_count > r.remaining()) {
      return Error{ErrorCode::kProtocolError, "acked count exceeds data"};
    }
    auto& has = restored_server_has_[server_name];
    for (u64 j = 0; j < entry_count; ++j) {
      SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
      SHADOW_ASSIGN_OR_RETURN(ver, r.get_varint());
      has[key] = ver;
    }
    // An already-open session picks the restored map up immediately.
    auto session = sessions_.find(server_name);
    if (session != sessions_.end()) {
      session->second.server_has = has;
    }
  }
  if (!r.at_end()) {
    return Error{ErrorCode::kProtocolError, "trailing bytes in snapshot"};
  }
  return Status();
}

}  // namespace shadow::client
