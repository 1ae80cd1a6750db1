// In-memory span recorder for the traced run, and the transport decorator
// that records client-side spans around each TcpTransport without touching
// the program: `net.poll` around every receive drain, and
// `client.recv.<MessageType>` around the client's handling of each frame.
// Spans are written to a Chrome trace-event file when the run ends.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/tcp_transport.hpp"
#include "util/types.hpp"

namespace shadowbench {

using shadow::Bytes;
using shadow::i64;
using shadow::u32;
using shadow::u64;

struct Span {
  u32 name = 0;      // index into Tracer::names()
  u32 conn = 0;      // connection the span belongs to
  i64 start_ns = 0;
  i64 end_ns = 0;
  int parent = -1;   // index of the causing span, -1 = none
  u64 request = 0;   // operation id shared by every span of one request
  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  /// Interned span name.
  u32 name_id(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  /// Open a span; close it with end().
  int begin(u32 name, u32 conn, int parent, u64 request);
  void end(int span);

  const std::vector<Span>& spans() const { return spans_; }
  Span& span(int index) { return spans_[static_cast<std::size_t>(index)]; }

  /// Durations (us) of every closed span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Write Chrome trace-event JSON (viewable in chrome://tracing or
  /// Perfetto); parent and request ids ride in each event's args.
  bool write_json(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Pass-through decorator around one client TcpTransport. While enabled it
/// records spans into the tracer; disabled it only forwards (the untraced
/// half of a traced run, which measures what the decorator itself costs).
class TracingTransport final : public shadow::net::Transport {
 public:
  /// Maps a received frame to (parent span, request id) of the operation
  /// it belongs to; the load generator supplies it.
  using Attribution = std::function<std::pair<int, u64>(const Bytes& wire)>;
  /// Sees every frame the client sends while tracing is enabled.
  using SendHook = std::function<void(const Bytes& wire)>;

  TracingTransport(shadow::net::TcpTransport* inner, Tracer* tracer, u32 conn,
                   Attribution attribution, SendHook on_send);

  void set_enabled(bool on) { enabled_ = on; }

  shadow::Status send(Bytes message) override;
  void set_receiver(ReceiveFn fn) override;
  std::size_t poll() override;
  u64 bytes_sent() const override { return inner_->bytes_sent(); }
  u64 messages_sent() const override { return inner_->messages_sent(); }
  std::string peer_name() const override { return inner_->peer_name(); }

  /// Sum over all traced polls of poll time not spent inside the client's
  /// message handlers: socket reads and frame reassembly.
  double poll_self_us() const { return poll_self_ns_ / 1e3; }

 private:
  void dispatch(Bytes wire);

  shadow::net::TcpTransport* inner_;
  Tracer* tracer_;
  u32 conn_;
  Attribution attribution_;
  SendHook on_send_;
  ReceiveFn receiver_;
  bool enabled_ = false;
  u32 poll_name_;
  std::vector<u32> recv_names_;  // by MessageType tag
  i64 handler_ns_ = 0;            // handler time inside the current poll
  double poll_self_ns_ = 0;
};

}  // namespace shadowbench
