#include "trace.hpp"

#include <cstdio>

#include "proc.hpp"
#include "proto/messages.hpp"

namespace shadowbench {

u32 Tracer::name_id(const std::string& name) {
  for (u32 i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<u32>(names_.size() - 1);
}

int Tracer::begin(u32 name, u32 conn, int parent, u64 request) {
  Span span;
  span.name = name;
  span.conn = conn;
  span.parent = parent;
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && names_[s.name] == name) out.push_back(s.dur_us());
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const i64 origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", names_[s.name].c_str(), s.conn,
                 static_cast<double>(s.start_ns - origin) / 1e3, s.dur_us(), i,
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

TracingTransport::TracingTransport(shadow::net::TcpTransport* inner,
                                   Tracer* tracer, u32 conn,
                                   Attribution attribution, SendHook on_send)
    : inner_(inner),
      tracer_(tracer),
      conn_(conn),
      attribution_(std::move(attribution)),
      on_send_(std::move(on_send)),
      poll_name_(tracer->name_id("net.poll")) {
  for (int tag = 0; tag <= static_cast<int>(shadow::proto::MessageType::kHeartbeat);
       ++tag) {
    recv_names_.push_back(tracer->name_id(
        std::string("client.recv.") +
        shadow::proto::message_type_name(
            static_cast<shadow::proto::MessageType>(tag))));
  }
}

shadow::Status TracingTransport::send(Bytes message) {
  if (enabled_ && on_send_) on_send_(message);
  return inner_->send(std::move(message));
}

void TracingTransport::set_receiver(ReceiveFn fn) {
  receiver_ = std::move(fn);
  inner_->set_receiver([this](Bytes wire) { dispatch(std::move(wire)); });
}

std::size_t TracingTransport::poll() {
  if (!enabled_) return inner_->poll();
  handler_ns_ = 0;
  const int span = tracer_->begin(poll_name_, conn_, -1, 0);
  const std::size_t n = inner_->poll();
  tracer_->end(span);
  const Span& s = tracer_->spans()[static_cast<std::size_t>(span)];
  poll_self_ns_ += static_cast<double>(s.end_ns - s.start_ns - handler_ns_);
  return n;
}

void TracingTransport::dispatch(Bytes wire) {
  if (!enabled_ || wire.empty()) {
    receiver_(std::move(wire));
    return;
  }
  const std::size_t tag = wire[0] < recv_names_.size() ? wire[0] : 0;
  const auto [parent, request] = attribution_(wire);
  const int span = tracer_->begin(recv_names_[tag], conn_, parent, request);
  receiver_(std::move(wire));
  tracer_->end(span);
  const Span& s = tracer_->spans()[static_cast<std::size_t>(span)];
  handler_ns_ += s.end_ns - s.start_ns;
}

}  // namespace shadowbench
