// One poll()-driven event loop: the run driver behind each shard of the
// thread-per-core server (docs/CONCURRENCY.md).
//
// Everything that touches a connection — attach, message dispatch, reap —
// happens on the loop's own thread. The only cross-thread surfaces are
// adopt() and post(), which enqueue under a small mutex and wake the loop
// through a self-pipe; the loop drains both queues at the top of each
// round. That keeps the message hot path completely lock-free: once a
// connection is adopted, its frames flow from ::poll() to the receiver
// callback without ever taking a lock.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/tcp_transport.hpp"
#include "util/types.hpp"

namespace shadow::net {

class EventLoop {
 public:
  /// Runs on the loop thread when an adopted connection is installed.
  using AttachFn = std::function<void(TcpTransport*)>;
  /// Runs on the loop thread just before a closed connection is destroyed.
  using DetachFn = std::function<void(TcpTransport*)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Hand a connection to this loop (thread-safe). `on_attach` runs on the
  /// loop thread before the connection's first poll — typically
  /// ShadowServer::attach plus any unread_message() replays.
  void adopt(std::unique_ptr<TcpTransport> transport, AttachFn on_attach);

  /// Run `task` on the loop thread at the top of the next round
  /// (thread-safe). Tasks posted from the loop thread itself run next
  /// round too — there is no re-entrancy.
  void post(std::function<void()> task);

  /// Called on the loop thread before a closed connection is destroyed
  /// (e.g. ShadowServer::detach). Set before run().
  void set_on_detach(DetachFn fn) { on_detach_ = std::move(fn); }

  /// Called once per round after I/O (retransmit ticks etc.). Set before
  /// run().
  void set_on_idle(std::function<void()> fn) { on_idle_ = std::move(fn); }

  /// Process until stop(): poll all connections plus the wake pipe, drain
  /// queues, dispatch frames, reap closed connections.
  void run();

  /// One bounded round of the above; returns frames dispatched. The run()
  /// driver calls this in a loop; tests call it directly.
  std::size_t run_once(int timeout_ms);

  /// Ask the loop to exit run() (thread-safe, idempotent).
  void stop();

  /// Live connections currently owned by the loop (approximate from other
  /// threads; exact from the loop thread).
  std::size_t connections() const {
    return connections_gauge_.load(std::memory_order_relaxed);
  }
  /// Total connections ever adopted / reaped after close.
  u64 adopted_total() const {
    return adopted_total_.load(std::memory_order_relaxed);
  }
  u64 closed_total() const {
    return closed_total_.load(std::memory_order_relaxed);
  }
  u64 rounds() const { return rounds_.load(std::memory_order_relaxed); }

 private:
  struct Adoption {
    std::unique_ptr<TcpTransport> transport;
    AttachFn on_attach;
  };

  void wake();
  void drain_wake_pipe();

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_{false};

  std::mutex mu_;  // guards pending_ and tasks_ only — never held during I/O
  std::vector<Adoption> pending_;
  std::vector<std::function<void()>> tasks_;

  // Loop-thread-only state.
  static constexpr int kDefaultPollMs = 50;
  std::vector<std::unique_ptr<TcpTransport>> owned_;
  DetachFn on_detach_;
  std::function<void()> on_idle_;

  std::atomic<std::size_t> connections_gauge_{0};
  std::atomic<u64> adopted_total_{0};
  std::atomic<u64> closed_total_{0};
  std::atomic<u64> rounds_{0};
};

}  // namespace shadow::net
