// ShadowSystem: one-stop wiring of the whole distributed system inside the
// discrete-event simulator — hosts (vfs), clients, servers, and the
// simulated long-haul links between them. This is the facade examples and
// benches use; each piece remains usable on its own (e.g. a ShadowServer
// over a TcpTransport needs none of this).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "net/fault_transport.hpp"
#include "net/mux.hpp"
#include "net/sim_transport.hpp"
#include "server/shadow_server.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "vfs/cluster.hpp"

namespace shadow::core {

class ShadowSystem {
 public:
  explicit ShadowSystem(std::string domain_id = "nfs-net-128.10");

  sim::Simulator& simulator() { return sim_; }
  vfs::Cluster& cluster() { return cluster_; }
  const std::string& domain_id() const { return domain_id_; }

  /// Create a workstation: a vfs host with /home/user, a ShadowClient and
  /// a ShadowEditor.
  client::ShadowClient& add_client(
      const std::string& name,
      const client::ShadowEnvironment& env = client::ShadowEnvironment{});

  /// Create a supercomputer site running a ShadowServer. `store`
  /// (optional, must outlive the system) makes the server journal-backed —
  /// the scenario harness uses it to journal populations at scale.
  server::ShadowServer& add_server(const server::ServerConfig& config,
                                   persist::DurableStore* store = nullptr);

  /// Connect a client to a server over a new simulated link; returns the
  /// link so callers can read its byte counters.
  sim::Link& connect(const std::string& client_name,
                     const std::string& server_name,
                     const sim::LinkConfig& link_config);

  /// connect() with per-direction fault injection (loss / jitter / the
  /// full FaultPlan): each endpoint is wrapped in a FaultTransport whose
  /// plan is seeded from `plan.seed` (client direction) and `plan.seed+1`
  /// (server direction), keeping every schedule reproducible. Lossy plans
  /// need reliable sessions on both ends (ShadowEnvironment /
  /// ServerConfig::reliable_session) or the protocol can stall.
  sim::Link& connect_faulty(const std::string& client_name,
                            const std::string& server_name,
                            const sim::LinkConfig& link_config,
                            const net::FaultPlan& plan);

  /// Connect SEVERAL clients to one server over a single shared trunk
  /// (multiplexed channels over one link): the department's one leased
  /// line of §2.1. All sessions contend for the trunk's bandwidth.
  sim::Link& connect_shared(const std::vector<std::string>& client_names,
                            const std::string& server_name,
                            const sim::LinkConfig& link_config);

  client::ShadowClient& client(const std::string& name);
  client::ShadowEditor& editor(const std::string& name);
  server::ShadowServer& server(const std::string& name);

  /// Run the simulator until no events remain; returns elapsed sim time.
  sim::SimTime settle();

  /// Total bytes that crossed every link (payload, excluding framing).
  u64 total_payload_bytes() const;
  /// Total bytes including per-message framing overhead.
  u64 total_wire_bytes() const;

 private:
  std::string domain_id_;
  sim::Simulator sim_;
  vfs::Cluster cluster_;
  std::map<std::string, std::unique_ptr<client::ShadowClient>> clients_;
  std::map<std::string, std::unique_ptr<client::ShadowEditor>> editors_;
  std::map<std::string, std::unique_ptr<server::ShadowServer>> servers_;
  std::vector<std::unique_ptr<sim::Link>> links_;
  std::vector<std::unique_ptr<net::SimTransport>> transports_;
  std::vector<std::unique_ptr<net::FaultTransport>> fault_transports_;
  std::vector<std::unique_ptr<net::Mux>> muxes_;
};

}  // namespace shadow::core
