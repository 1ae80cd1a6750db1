#include "server/sharded_server.hpp"

#include <poll.h>
#include <unistd.h>

#include <variant>

#include "proto/admin.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace shadow::server {

ShardedServer::ShardedServer(ServerConfig base, std::size_t shard_count,
                             std::vector<persist::DurableStore*> stores,
                             sim::Simulator* simulator)
    : base_(std::move(base)),
      router_(shard_count),
      sim_(simulator) {
  // The lobby reads raw protocol frames to route; a reliable session
  // would wrap them in channel frames it cannot peek through.
  base_.reliable_session = false;
  const std::size_t n = router_.shard_count();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServerConfig cfg = base_;
    cfg.shard_id = i;
    cfg.shard_count = n;
    cfg.telemetry_prefix =
        n > 1 ? "shard" + std::to_string(i) + "." : std::string();
    persist::DurableStore* store =
        i < stores.size() ? stores[i] : nullptr;
    auto shard = std::make_unique<ShadowServer>(cfg, sim_, store);
    shard->set_peer_router(
        [this, i](const std::string& client, const proto::Message& m) {
          return route_to_peer(i, client, m);
        });
    shards_.push_back(std::move(shard));
  }
}

ShardedServer::~ShardedServer() { stop_threads(); }

std::optional<std::size_t> ShardedServer::shard_of_client(
    const std::string& client_name) const {
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto it = client_shard_.find(client_name);
  if (it == client_shard_.end()) return std::nullopt;
  return it->second;
}

Status ShardedServer::recover_all() {
  for (auto& shard : shards_) {
    SHADOW_TRY(shard->recover_from_storage());
  }
  return Status();
}

std::size_t ShardedServer::route_hello(const proto::Hello& hello) {
  const std::size_t s =
      router_.shard_of_client(hello.domain, hello.client_name);
  std::lock_guard<std::mutex> lock(clients_mu_);
  client_shard_[hello.client_name] = s;
  return s;
}

bool ShardedServer::route_to_peer(std::size_t from_shard,
                                  const std::string& client_name,
                                  const proto::Message& m) {
  std::size_t target;
  if (const auto* ack = std::get_if<proto::JobOutputAck>(&m)) {
    target = job::shard_of_job(ack->job_id, shards_.size());
  } else {
    std::lock_guard<std::mutex> lock(clients_mu_);
    auto it = client_shard_.find(client_name);
    if (it == client_shard_.end()) return false;
    target = it->second;
  }
  if (target == from_shard) return false;  // send_to already missed here
  if (target < loops_.size() && !threads_.empty()) {
    // Hop to the target shard's loop; delivery happens on its thread.
    proto::Message copy = m;
    loops_[target]->post([this, target, client_name, copy = std::move(copy)] {
      shards_[target]->deliver_routed(client_name, copy);
    });
  } else {
    shards_[target]->deliver_routed(client_name, m);
  }
  return true;
}

// ---- inline mode ----

void ShardedServer::attach(net::Transport* transport) {
  transport->set_receiver([this, transport](Bytes wire) {
    route_first_message(transport, wire);
  });
}

void ShardedServer::route_first_message(net::Transport* transport,
                                        const Bytes& wire) {
  auto decoded = proto::decode_message(wire);
  if (!decoded.ok()) {
    if (lobby_refuses(wire, decoded.error())) {
      transport->set_receiver([](Bytes) {});
      transport->request_close();
    }
    return;
  }
  if (const auto* hello = std::get_if<proto::Hello>(&decoded.value())) {
    const std::size_t s = route_hello(*hello);
    // attach() installs the shard as the transport's receiver; replaying
    // the consumed Hello through inject_message() makes the handshake
    // indistinguishable from a standalone server's.
    shards_[s]->attach(transport);
    shards_[s]->inject_message(transport, wire);
    return;
  }
  if (const auto* admin = std::get_if<proto::AdminQuery>(&decoded.value())) {
    // shadowtop never says Hello; the connection stays in the lobby and
    // every AdminQuery it sends lands back here.
    Status st = transport->send(proto::encode_message(answer_admin(*admin)));
    if (!st.ok()) {
      SHADOW_WARN() << base_.name
                    << ": admin reply failed: " << st.to_string();
    }
    return;
  }
  SHADOW_WARN() << base_.name << ": lobby expected Hello, got "
                << proto::message_type_name(proto::type_of(decoded.value()));
}

bool ShardedServer::lobby_refuses(const Bytes& wire, const Error& error) const {
  const bool hello =
      !wire.empty() && wire[0] == static_cast<u8>(proto::MessageType::kHello);
  SHADOW_WARN() << base_.name
                << (hello ? ": lobby closing connection: "
                          : ": lobby dropping malformed message: ")
                << error.to_string();
  return hello;
}

std::size_t ShardedServer::tick() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->tick();
  return total;
}

// ---- overload control & graceful drain ----

void ShardedServer::begin_drain() {
  if (draining_.exchange(true)) return;
  on_every_shard([this](std::size_t i) { shards_[i]->begin_drain(); });
}

bool ShardedServer::drain_complete() {
  std::vector<char> done(shards_.size(), 0);
  on_every_shard([this, &done](std::size_t i) {
    // Flush what the shard staged since its last pass (releasing the
    // acks) before the completeness check — on shard i's own thread.
    (void)shards_[i]->pump_persist();
    done[i] = shards_[i]->drain_complete() ? 1 : 0;
  });
  for (const char d : done) {
    if (d == 0) return false;
  }
  return true;
}

std::size_t ShardedServer::expire_leases() {
  std::size_t expired = 0;
  for (auto& shard : shards_) {
    expired += shard->expire_leases();
    shard->reap_doomed();
  }
  return expired;
}

// ---- threaded mode ----

void ShardedServer::start_threads() {
  if (!threads_.empty() || sim_ != nullptr) return;
  const std::size_t n = shards_.size();
  loops_.clear();
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<net::EventLoop>();
    loop->set_on_detach([this, i](net::TcpTransport* t) {
      shards_[i]->detach(t);
    });
    // Per-shard group commit: every record the pass's I/O staged shares
    // one fsync here, and the acks go out before the loop polls again —
    // no cross-shard coordination, each shard batches only its journal.
    loop->set_on_idle([this, i] {
      (void)shards_[i]->pump_persist();
      // Lease expiry and doomed-connection reaping run here — never from
      // inside a handler — so a reclaimed Connection can't be on the
      // loop's dispatch stack.
      (void)shards_[i]->expire_leases();
      (void)shards_[i]->reap_doomed();
    });
    loops_.push_back(std::move(loop));
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([loop = loops_[i].get()] { loop->run(); });
  }
}

void ShardedServer::stop_threads() {
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Flush every shard's open batch before shutdown returns: a record the
  // server wrote must not sit unfsynced. Any acks this releases go to
  // connections the stopped loops already detached, which
  // send_if_attached drops.
  for (auto& shard : shards_) (void)shard->pump_persist();
}

void ShardedServer::adopt_tcp(std::unique_ptr<net::TcpTransport> transport) {
  auto conn = std::make_unique<LobbyConn>();
  conn->transport = std::move(transport);
  LobbyConn* raw = conn.get();
  raw->transport->set_receiver(
      [raw](Bytes wire) { raw->inbox.push_back(std::move(wire)); });
  lobby_.push_back(std::move(conn));
}

std::size_t ShardedServer::poll_lobby() {
  std::size_t handled = 0;
  for (auto it = lobby_.begin(); it != lobby_.end();) {
    LobbyConn& conn = **it;
    conn.transport->poll();
    if (conn.inbox.empty()) {
      if (conn.transport->closed()) {
        it = lobby_.erase(it);  // gone before identifying itself
        continue;
      }
      ++it;
      continue;
    }
    auto decoded = proto::decode_message(conn.inbox.front());
    if (!decoded.ok()) {
      ++handled;
      if (lobby_refuses(conn.inbox.front(), decoded.error())) {
        it = lobby_.erase(it);  // destroying the transport closes it
        continue;
      }
      conn.inbox.erase(conn.inbox.begin());
      ++it;
      continue;
    }
    if (const auto* hello = std::get_if<proto::Hello>(&decoded.value())) {
      if (draining_.load()) {
        // Drain refuses at the lobby, with the retry hint: the socket
        // never reaches a shard loop.
        proto::ServerBusy busy;
        busy.retry_after_usec = base_.overload.retry_after_usec;
        busy.draining = true;
        busy.reason = "server draining";
        (void)conn.transport->send(proto::encode_message(busy));
        it = lobby_.erase(it);
        ++handled;
        continue;
      }
      const std::size_t s = route_hello(*hello);
      // Push every buffered frame (Hello included) back onto the front of
      // the receive buffer — reverse order restores arrival order — so the
      // shard's first poll replays them through its own dispatch.
      for (auto frame = conn.inbox.rbegin(); frame != conn.inbox.rend();
           ++frame) {
        conn.transport->unread_message(*frame);
      }
      conn.inbox.clear();
      conn.transport->set_receiver(nullptr);
      loops_[s]->adopt(std::move(conn.transport),
                       [this, s](net::TcpTransport* t) {
                         shards_[s]->attach(t);
                       });
      it = lobby_.erase(it);
      ++handled;
      continue;
    }
    if (const auto* admin =
            std::get_if<proto::AdminQuery>(&decoded.value())) {
      conn.inbox.erase(conn.inbox.begin());
      Status st = conn.transport->send(
          proto::encode_message(answer_admin(*admin)));
      if (!st.ok()) {
        SHADOW_WARN() << base_.name
                      << ": admin reply failed: " << st.to_string();
      }
      ++handled;
      ++it;
      continue;
    }
    SHADOW_WARN() << base_.name << ": lobby expected Hello, got "
                  << proto::message_type_name(
                         proto::type_of(decoded.value()));
    conn.inbox.erase(conn.inbox.begin());
    ++handled;
    ++it;
  }
  return handled;
}

void ShardedServer::wait_lobby(int listen_fd, int timeout_ms) {
  std::vector<struct pollfd> fds;
  fds.reserve(lobby_.size() + 1);
  if (listen_fd >= 0) fds.push_back({listen_fd, POLLIN, 0});
  for (const auto& conn : lobby_) {
    // poll_lobby() takes one buffered frame per connection per call.
    if (!conn->inbox.empty()) timeout_ms = 0;
    fds.push_back({conn->transport->fd(), POLLIN, 0});
  }
  (void)::poll(fds.data(), fds.size(), timeout_ms);
}

std::size_t ShardedServer::live_connections() const {
  std::size_t total = lobby_.size();
  // Counted from adoption, not installation: a socket the lobby just
  // handed to a loop is live before that loop's next round picks it up.
  for (const auto& loop : loops_) {
    total += loop->adopted_total() - loop->closed_total();
  }
  return total;
}

void ShardedServer::on_every_shard(
    const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    loops_[i]->post([&fn, &done, i] {
      fn(i);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Bounded wait: a loop thread services its queue every round (<= 50ms
  // poll timeout). 5s of silence means a wedged loop; give up rather than
  // hang the admin path with it.
  for (int spins = 0; done.load(std::memory_order_acquire) < shards_.size();
       ++spins) {
    if (spins > 5000) {
      SHADOW_WARN() << base_.name
                    << ": shard loop unresponsive; partial aggregation";
      break;
    }
    ::usleep(1000);
  }
}

ServerStats ShardedServer::aggregate_stats() {
  std::vector<ServerStats> copies(shards_.size());
  on_every_shard([this, &copies](std::size_t i) {
    copies[i] = shards_[i]->stats();  // copied on shard i's own thread
  });
  ServerStats total;
  for (const auto& s : copies) total += s;
  return total;
}

void ShardedServer::sync_telemetry() {
  // Each shard refreshes its shard<i>.-prefixed mirror on its own thread;
  // aggregate_stats() rides the same hop for the per-shard copies.
  std::vector<ServerStats> copies(shards_.size());
  std::vector<cache::ShadowCache::DigestStats> digests(shards_.size());
  on_every_shard([this, &copies, &digests](std::size_t i) {
    shards_[i]->sync_telemetry();
    copies[i] = shards_[i]->stats();
    digests[i] = shards_[i]->file_cache().digest_stats();
  });
  ServerStats total;
  for (const auto& s : copies) total += s;
  cache::ShadowCache::DigestStats digest_total;
  for (const auto& d : digests) {
    digest_total.entries += d.entries;
    digest_total.resident_bytes += d.resident_bytes;
    digest_total.represented_bytes += d.represented_bytes;
  }

  auto& r = telemetry::Registry::global();
  // The plain names shadowtop has always shown now carry the fleet-wide
  // sums; shard<i>.server.* has the per-shard breakdown.
  for (const auto& f : kServerStatNames) {
    r.counter(f.name).store(total.*f.field);
  }
  r.gauge("server.digest_entries")
      .set(static_cast<double>(digest_total.entries));
  r.gauge("server.digest_resident_bytes")
      .set(static_cast<double>(digest_total.resident_bytes));
  r.gauge("server.digest_represented_bytes")
      .set(static_cast<double>(digest_total.represented_bytes));
  r.gauge("overload.draining").set(draining_ ? 1.0 : 0.0);

  r.gauge("shards.count").set(static_cast<double>(shards_.size()));
  std::size_t connections = lobby_.size();
  for (const auto& loop : loops_) connections += loop->connections();
  r.gauge("shards.connections").set(static_cast<double>(connections));
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    r.gauge("shards.named_clients")
        .set(static_cast<double>(client_shard_.size()));
  }
}

proto::AdminReply ShardedServer::answer_admin(
    const proto::AdminQuery& query) {
  sync_telemetry();
  return proto::build_admin_reply(query, telemetry::Registry::global(),
                                  base_.name);
}

}  // namespace shadow::server
