#include "net/event_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace shadow::net {

EventLoop::EventLoop() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    wake_read_fd_ = fds[0];
    wake_write_fd_ = fds[1];
    // Non-blocking on both ends: a full pipe just coalesces wakeups, and
    // the drain loop must never block the round.
    for (int fd : fds) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
  }
}

EventLoop::~EventLoop() {
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void EventLoop::wake() {
  if (wake_write_fd_ < 0) return;
  const u8 byte = 1;
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &byte, 1);
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the pipe already holds a pending wakeup — good enough.
}

void EventLoop::drain_wake_pipe() {
  if (wake_read_fd_ < 0) return;
  u8 chunk[64];
  while (::read(wake_read_fd_, chunk, sizeof(chunk)) > 0) {
  }
}

void EventLoop::adopt(std::unique_ptr<TcpTransport> transport,
                      AttachFn on_attach) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(Adoption{std::move(transport), std::move(on_attach)});
  }
  adopted_total_.fetch_add(1, std::memory_order_relaxed);
  wake();
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

std::size_t EventLoop::run_once(int timeout_ms) {
  rounds_.fetch_add(1, std::memory_order_relaxed);

  // Take this round's handoffs and tasks in one critical section; run
  // them outside it (a task may post again).
  std::vector<Adoption> adoptions;
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adoptions.swap(pending_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
  for (auto& adoption : adoptions) {
    TcpTransport* raw = adoption.transport.get();
    owned_.push_back(std::move(adoption.transport));
    if (adoption.on_attach) adoption.on_attach(raw);
  }
  connections_gauge_.store(owned_.size(), std::memory_order_relaxed);

  // Wait for traffic on any connection or a wakeup. Freshly adopted
  // connections may already hold buffered frames (the lobby's unread
  // replay), so skip the wait when there is anything to do right away.
  bool immediate = !adoptions.empty();
  for (const auto& t : owned_) {
    if (t->closed()) immediate = true;
  }
  std::vector<struct pollfd> fds;
  fds.reserve(owned_.size() + 1);
  if (wake_read_fd_ >= 0) {
    fds.push_back({wake_read_fd_, POLLIN, 0});
  }
  for (const auto& t : owned_) {
    // POLLOUT only while a bounded sender has parked bytes, so a slow
    // consumer's drain resumes as soon as its socket turns writable
    // instead of waiting out the poll timeout.
    const short events =
        t->queued_bytes() > 0 ? (POLLIN | POLLOUT) : POLLIN;
    fds.push_back({t->fd(), events, 0});
  }
  int rc;
  do {
    rc = ::poll(fds.data(), fds.size(), immediate ? 0 : timeout_ms);
  } while (rc < 0 && errno == EINTR);
  drain_wake_pipe();

  // Dispatch every connection's buffered frames. TcpTransport::poll() is
  // cheap when nothing is pending, and dispatching everything (not only
  // POLLIN-flagged fds) also picks up bytes buffered by a send()'s
  // write-stall drain.
  std::size_t dispatched = 0;
  for (auto& t : owned_) {
    dispatched += t->poll();
  }

  // Reap closed connections after dispatch so the final frames of a
  // closing peer are still delivered.
  for (auto it = owned_.begin(); it != owned_.end();) {
    if ((*it)->closed()) {
      if (on_detach_) on_detach_(it->get());
      it = owned_.erase(it);
      closed_total_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  connections_gauge_.store(owned_.size(), std::memory_order_relaxed);

  if (on_idle_) on_idle_();
  return dispatched;
}

void EventLoop::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    run_once(kDefaultPollMs);
  }
  // Final round so tasks/adoptions posted just before stop() still run.
  run_once(/*timeout_ms=*/0);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

}  // namespace shadow::net
