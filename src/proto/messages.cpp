#include "proto/messages.hpp"

#include <bit>

namespace shadow::proto {

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kHello: return "Hello";
    case MessageType::kHelloReply: return "HelloReply";
    case MessageType::kNotifyNewVersion: return "NotifyNewVersion";
    case MessageType::kPullRequest: return "PullRequest";
    case MessageType::kUpdate: return "Update";
    case MessageType::kUpdateAck: return "UpdateAck";
    case MessageType::kSubmitJob: return "SubmitJob";
    case MessageType::kSubmitReply: return "SubmitReply";
    case MessageType::kStatusQuery: return "StatusQuery";
    case MessageType::kStatusReply: return "StatusReply";
    case MessageType::kJobOutput: return "JobOutput";
    case MessageType::kJobOutputAck: return "JobOutputAck";
    case MessageType::kAdminQuery: return "AdminQuery";
    case MessageType::kAdminReply: return "AdminReply";
    case MessageType::kServerBusy: return "ServerBusy";
    case MessageType::kHeartbeat: return "Heartbeat";
  }
  return "?";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kWaitingFiles: return "waiting-for-files";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kDelivered: return "delivered";
  }
  return "?";
}

MessageType type_of(const Message& message) {
  return std::visit(
      [](const auto& m) -> MessageType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) return MessageType::kHello;
        else if constexpr (std::is_same_v<T, HelloReply>)
          return MessageType::kHelloReply;
        else if constexpr (std::is_same_v<T, NotifyNewVersion>)
          return MessageType::kNotifyNewVersion;
        else if constexpr (std::is_same_v<T, PullRequest>)
          return MessageType::kPullRequest;
        else if constexpr (std::is_same_v<T, Update>)
          return MessageType::kUpdate;
        else if constexpr (std::is_same_v<T, UpdateAck>)
          return MessageType::kUpdateAck;
        else if constexpr (std::is_same_v<T, SubmitJob>)
          return MessageType::kSubmitJob;
        else if constexpr (std::is_same_v<T, SubmitReply>)
          return MessageType::kSubmitReply;
        else if constexpr (std::is_same_v<T, StatusQuery>)
          return MessageType::kStatusQuery;
        else if constexpr (std::is_same_v<T, StatusReply>)
          return MessageType::kStatusReply;
        else if constexpr (std::is_same_v<T, JobOutput>)
          return MessageType::kJobOutput;
        else if constexpr (std::is_same_v<T, JobOutputAck>)
          return MessageType::kJobOutputAck;
        else if constexpr (std::is_same_v<T, AdminQuery>)
          return MessageType::kAdminQuery;
        else if constexpr (std::is_same_v<T, AdminReply>)
          return MessageType::kAdminReply;
        else if constexpr (std::is_same_v<T, ServerBusy>)
          return MessageType::kServerBusy;
        else
          return MessageType::kHeartbeat;
      },
      message);
}

namespace {

// ---- per-message body encoders ----

void encode_body(const Hello& m, BufWriter& w) {
  w.put_string(m.client_name);
  w.put_string(m.domain);
  // Trailing, optional on decode: a legacy frame simply ends here.
  w.put_varint(m.protocol_version);
  w.put_varint(m.codecs);
}

void encode_body(const HelloReply& m, BufWriter& w) {
  w.put_string(m.server_name);
  w.put_varint(m.protocol_version);
  w.put_varint(m.codecs);
}

void encode_body(const Heartbeat& m, BufWriter& w) {
  w.put_varint(m.client_time_us);
}

void encode_body(const ServerBusy& m, BufWriter& w) {
  w.put_varint(m.retry_after_usec);
  w.put_varint(m.client_job_token);
  w.put_u8(m.draining ? 1 : 0);
  w.put_string(m.reason);
}

void encode_body(const NotifyNewVersion& m, BufWriter& w) {
  m.file.encode(w);
  w.put_varint(m.version);
  w.put_varint(m.size);
  w.put_u32(m.crc);
}

void encode_body(const PullRequest& m, BufWriter& w) {
  m.file.encode(w);
  w.put_varint(m.have_version);
  w.put_varint(m.want_version);
  // Optional trailing codec hint: omitted when zero so a hint-free pull
  // stays byte-identical to the legacy encoding.
  if (m.codec_hint != 0) w.put_varint(m.codec_hint);
}

void encode_body(const Update& m, BufWriter& w) {
  m.file.encode(w);
  w.put_varint(m.base_version);
  w.put_varint(m.new_version);
  w.put_bytes(m.payload);
}

void encode_body(const UpdateAck& m, BufWriter& w) {
  m.file.encode(w);
  w.put_varint(m.version);
  w.put_u8(m.ok ? 1 : 0);
  w.put_string(m.error);
}

void encode_body(const JobFileRef& m, BufWriter& w) {
  m.file.encode(w);
  w.put_string(m.local_name);
  w.put_varint(m.version);
  w.put_u32(m.crc);
}

void encode_body(const SubmitJob& m, BufWriter& w) {
  w.put_varint(m.client_job_token);
  w.put_string(m.command_file);
  w.put_varint(m.files.size());
  for (const auto& f : m.files) encode_body(f, w);
  w.put_string(m.output_name);
  w.put_string(m.error_name);
  w.put_string(m.output_route);
}

void encode_body(const SubmitReply& m, BufWriter& w) {
  w.put_varint(m.client_job_token);
  w.put_varint(m.job_id);
  w.put_u8(m.accepted ? 1 : 0);
  w.put_string(m.reason);
}

void encode_body(const StatusQuery& m, BufWriter& w) {
  w.put_varint(m.job_id);
}

void encode_body(const JobStatusInfo& m, BufWriter& w) {
  w.put_varint(m.job_id);
  w.put_varint(m.client_job_token);
  w.put_u8(static_cast<u8>(m.state));
  w.put_string(m.detail);
}

void encode_body(const StatusReply& m, BufWriter& w) {
  w.put_varint(m.jobs.size());
  for (const auto& j : m.jobs) encode_body(j, w);
}

void encode_body(const JobOutput& m, BufWriter& w) {
  w.put_varint(m.job_id);
  w.put_varint(m.client_job_token);
  w.put_varint_signed(m.exit_code);
  w.put_string(m.output_name);
  w.put_string(m.error_name);
  w.put_bytes(m.output_payload);
  w.put_bytes(m.error_payload);
  w.put_varint(m.output_base_generation);
  w.put_varint(m.output_generation);
}

void encode_body(const JobOutputAck& m, BufWriter& w) {
  w.put_varint(m.job_id);
  w.put_u8(m.ok ? 1 : 0);
  w.put_string(m.error);
}

void encode_body(const AdminQuery& m, BufWriter& w) {
  w.put_u32(m.protocol_version);
  w.put_u32(m.sections);
  w.put_string(m.prefix);
  w.put_varint(m.max_events);
}

void encode_body(const AdminReply& m, BufWriter& w) {
  w.put_u32(m.protocol_version);
  w.put_u8(m.ok ? 1 : 0);
  w.put_string(m.error);
  w.put_string(m.server_name);
  w.put_varint(m.events_total);
  w.put_varint(m.snapshot.counters.size());
  for (const auto& c : m.snapshot.counters) {
    w.put_string(c.name);
    w.put_varint(c.value);
  }
  w.put_varint(m.snapshot.gauges.size());
  for (const auto& g : m.snapshot.gauges) {
    w.put_string(g.name);
    // IEEE-754 bit pattern, fixed width: doubles round-trip exactly.
    w.put_u64(std::bit_cast<u64>(g.value));
  }
  w.put_varint(m.snapshot.histograms.size());
  for (const auto& h : m.snapshot.histograms) {
    w.put_string(h.name);
    w.put_varint(h.count);
    w.put_varint(h.sum);
    w.put_varint(h.buckets.size());
    for (const auto& [index, count] : h.buckets) {
      w.put_u8(index);
      w.put_varint(count);
    }
  }
  w.put_varint(m.snapshot.events.size());
  for (const auto& e : m.snapshot.events) {
    w.put_varint(e.seq);
    w.put_u16(static_cast<u16>(e.kind));
    w.put_string(e.detail);
  }
}

// ---- per-message body decoders ----

Result<Hello> decode_hello(BufReader& r) {
  Hello m;
  SHADOW_ASSIGN_OR_RETURN(client_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(domain, r.get_string());
  m.client_name = std::move(client_name);
  m.domain = std::move(domain);
  // Version negotiation: frames from a pre-v1 peer end here.
  m.protocol_version = 0;
  m.codecs = kLegacyCodecs;
  if (!r.at_end()) {
    SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
    m.protocol_version = static_cast<u32>(version);
  }
  // Codec capabilities: frames from a pre-CDC peer end here, which
  // implies the legacy ed-script + block-move pair.
  if (!r.at_end()) {
    SHADOW_ASSIGN_OR_RETURN(codecs, r.get_varint());
    m.codecs = static_cast<u32>(codecs);
  }
  return m;
}

Result<HelloReply> decode_hello_reply(BufReader& r) {
  HelloReply m;
  SHADOW_ASSIGN_OR_RETURN(server_name, r.get_string());
  m.server_name = std::move(server_name);
  m.protocol_version = 0;
  m.codecs = kLegacyCodecs;
  if (!r.at_end()) {
    SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
    m.protocol_version = static_cast<u32>(version);
  }
  if (!r.at_end()) {
    SHADOW_ASSIGN_OR_RETURN(codecs, r.get_varint());
    m.codecs = static_cast<u32>(codecs);
  }
  return m;
}

Result<Heartbeat> decode_heartbeat(BufReader& r) {
  Heartbeat m;
  SHADOW_ASSIGN_OR_RETURN(client_time_us, r.get_varint());
  m.client_time_us = client_time_us;
  return m;
}

Result<ServerBusy> decode_server_busy(BufReader& r) {
  ServerBusy m;
  SHADOW_ASSIGN_OR_RETURN(retry_after, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(token, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(draining, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(reason, r.get_string());
  m.retry_after_usec = retry_after;
  m.client_job_token = token;
  m.draining = draining != 0;
  m.reason = std::move(reason);
  return m;
}

Result<NotifyNewVersion> decode_notify(BufReader& r) {
  NotifyNewVersion m;
  SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(size, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(crc, r.get_u32());
  m.file = std::move(file);
  m.version = version;
  m.size = size;
  m.crc = crc;
  return m;
}

Result<PullRequest> decode_pull(BufReader& r) {
  PullRequest m;
  SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(have, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(want, r.get_varint());
  m.file = std::move(file);
  m.have_version = have;
  m.want_version = want;
  m.codec_hint = 0;
  if (!r.at_end()) {
    SHADOW_ASSIGN_OR_RETURN(hint, r.get_varint());
    m.codec_hint = static_cast<u32>(hint);
  }
  return m;
}

Result<Update> decode_update(BufReader& r) {
  Update m;
  SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(base, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(payload, r.get_bytes());
  m.file = std::move(file);
  m.base_version = base;
  m.new_version = version;
  m.payload = std::move(payload);
  return m;
}

Result<UpdateAck> decode_update_ack(BufReader& r) {
  UpdateAck m;
  SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(ok, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(error, r.get_string());
  m.file = std::move(file);
  m.version = version;
  m.ok = ok != 0;
  m.error = std::move(error);
  return m;
}

Result<JobFileRef> decode_file_ref(BufReader& r) {
  JobFileRef m;
  SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(local_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(crc, r.get_u32());
  m.file = std::move(file);
  m.local_name = std::move(local_name);
  m.version = version;
  m.crc = crc;
  return m;
}

Result<SubmitJob> decode_submit(BufReader& r) {
  SubmitJob m;
  SHADOW_ASSIGN_OR_RETURN(token, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(command_file, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(count, r.get_varint());
  m.client_job_token = token;
  m.command_file = std::move(command_file);
  if (count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "file count exceeds buffer"};
  }
  for (u64 i = 0; i < count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(ref, decode_file_ref(r));
    m.files.push_back(std::move(ref));
  }
  SHADOW_ASSIGN_OR_RETURN(output_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(error_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(output_route, r.get_string());
  m.output_name = std::move(output_name);
  m.error_name = std::move(error_name);
  m.output_route = std::move(output_route);
  return m;
}

Result<SubmitReply> decode_submit_reply(BufReader& r) {
  SubmitReply m;
  SHADOW_ASSIGN_OR_RETURN(token, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(accepted, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(reason, r.get_string());
  m.client_job_token = token;
  m.job_id = job_id;
  m.accepted = accepted != 0;
  m.reason = std::move(reason);
  return m;
}

Result<StatusQuery> decode_status_query(BufReader& r) {
  StatusQuery m;
  SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
  m.job_id = job_id;
  return m;
}

Result<JobStatusInfo> decode_status_info(BufReader& r) {
  JobStatusInfo m;
  SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(client_job_token, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(state, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(detail, r.get_string());
  if (state > static_cast<u8>(JobState::kDelivered)) {
    return Error{ErrorCode::kProtocolError, "bad job state"};
  }
  m.job_id = job_id;
  m.client_job_token = client_job_token;
  m.state = static_cast<JobState>(state);
  m.detail = std::move(detail);
  return m;
}

Result<StatusReply> decode_status_reply(BufReader& r) {
  StatusReply m;
  SHADOW_ASSIGN_OR_RETURN(count, r.get_varint());
  if (count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "job count exceeds buffer"};
  }
  for (u64 i = 0; i < count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(info, decode_status_info(r));
    m.jobs.push_back(std::move(info));
  }
  return m;
}

Result<JobOutput> decode_job_output(BufReader& r) {
  JobOutput m;
  SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(token, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(exit_code, r.get_varint_signed());
  SHADOW_ASSIGN_OR_RETURN(output_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(error_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(output_payload, r.get_bytes());
  SHADOW_ASSIGN_OR_RETURN(error_payload, r.get_bytes());
  SHADOW_ASSIGN_OR_RETURN(base_gen, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(gen, r.get_varint());
  m.job_id = job_id;
  m.client_job_token = token;
  m.exit_code = static_cast<int>(exit_code);
  m.output_name = std::move(output_name);
  m.error_name = std::move(error_name);
  m.output_payload = std::move(output_payload);
  m.error_payload = std::move(error_payload);
  m.output_base_generation = base_gen;
  m.output_generation = gen;
  return m;
}

Result<JobOutputAck> decode_job_output_ack(BufReader& r) {
  JobOutputAck m;
  SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(ok, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(error, r.get_string());
  m.job_id = job_id;
  m.ok = ok != 0;
  m.error = std::move(error);
  return m;
}

Result<AdminQuery> decode_admin_query(BufReader& r) {
  AdminQuery m;
  SHADOW_ASSIGN_OR_RETURN(version, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(sections, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(prefix, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(max_events, r.get_varint());
  m.protocol_version = version;
  m.sections = sections;
  m.prefix = std::move(prefix);
  m.max_events = max_events;
  return m;
}

Result<AdminReply> decode_admin_reply(BufReader& r) {
  AdminReply m;
  SHADOW_ASSIGN_OR_RETURN(version, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(ok, r.get_u8());
  SHADOW_ASSIGN_OR_RETURN(error, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(server_name, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(events_total, r.get_varint());
  m.protocol_version = version;
  m.ok = ok != 0;
  m.error = std::move(error);
  m.server_name = std::move(server_name);
  m.events_total = events_total;

  SHADOW_ASSIGN_OR_RETURN(counter_count, r.get_varint());
  if (counter_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "counter count exceeds buffer"};
  }
  for (u64 i = 0; i < counter_count; ++i) {
    telemetry::CounterSnapshot c;
    SHADOW_ASSIGN_OR_RETURN(name, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(value, r.get_varint());
    c.name = std::move(name);
    c.value = value;
    m.snapshot.counters.push_back(std::move(c));
  }

  SHADOW_ASSIGN_OR_RETURN(gauge_count, r.get_varint());
  if (gauge_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "gauge count exceeds buffer"};
  }
  for (u64 i = 0; i < gauge_count; ++i) {
    telemetry::GaugeSnapshot g;
    SHADOW_ASSIGN_OR_RETURN(name, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(bits, r.get_u64());
    g.name = std::move(name);
    g.value = std::bit_cast<double>(bits);
    m.snapshot.gauges.push_back(std::move(g));
  }

  SHADOW_ASSIGN_OR_RETURN(histogram_count, r.get_varint());
  if (histogram_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "histogram count exceeds buffer"};
  }
  for (u64 i = 0; i < histogram_count; ++i) {
    telemetry::HistogramSnapshot h;
    SHADOW_ASSIGN_OR_RETURN(name, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(count, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(sum, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(bucket_count, r.get_varint());
    if (bucket_count > telemetry::Histogram::kBuckets) {
      return Error{ErrorCode::kProtocolError, "too many histogram buckets"};
    }
    h.name = std::move(name);
    h.count = count;
    h.sum = sum;
    for (u64 j = 0; j < bucket_count; ++j) {
      SHADOW_ASSIGN_OR_RETURN(index, r.get_u8());
      SHADOW_ASSIGN_OR_RETURN(bucket_value, r.get_varint());
      if (index >= telemetry::Histogram::kBuckets) {
        return Error{ErrorCode::kProtocolError, "bad histogram bucket index"};
      }
      h.buckets.emplace_back(index, bucket_value);
    }
    m.snapshot.histograms.push_back(std::move(h));
  }

  SHADOW_ASSIGN_OR_RETURN(event_count, r.get_varint());
  if (event_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "event count exceeds buffer"};
  }
  for (u64 i = 0; i < event_count; ++i) {
    telemetry::Event e;
    SHADOW_ASSIGN_OR_RETURN(seq, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(kind, r.get_u16());
    SHADOW_ASSIGN_OR_RETURN(detail, r.get_string());
    e.seq = seq;
    e.kind = static_cast<telemetry::EventKind>(kind);
    e.detail = std::move(detail);
    m.snapshot.events.push_back(std::move(e));
  }
  return m;
}

}  // namespace

Bytes encode_message(const Message& message) {
  BufWriter w;
  w.put_u8(static_cast<u8>(type_of(message)));
  std::visit([&w](const auto& m) { encode_body(m, w); }, message);
  return w.take();
}

Result<Message> decode_message(const Bytes& wire) {
  BufReader r(wire);
  SHADOW_ASSIGN_OR_RETURN(tag, r.get_u8());
  Result<Message> out = [&]() -> Result<Message> {
    switch (static_cast<MessageType>(tag)) {
      case MessageType::kHello: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_hello(r));
        return Message(std::move(m));
      }
      case MessageType::kHelloReply: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_hello_reply(r));
        return Message(std::move(m));
      }
      case MessageType::kNotifyNewVersion: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_notify(r));
        return Message(std::move(m));
      }
      case MessageType::kPullRequest: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_pull(r));
        return Message(std::move(m));
      }
      case MessageType::kUpdate: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_update(r));
        return Message(std::move(m));
      }
      case MessageType::kUpdateAck: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_update_ack(r));
        return Message(std::move(m));
      }
      case MessageType::kSubmitJob: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_submit(r));
        return Message(std::move(m));
      }
      case MessageType::kSubmitReply: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_submit_reply(r));
        return Message(std::move(m));
      }
      case MessageType::kStatusQuery: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_status_query(r));
        return Message(std::move(m));
      }
      case MessageType::kStatusReply: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_status_reply(r));
        return Message(std::move(m));
      }
      case MessageType::kJobOutput: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_job_output(r));
        return Message(std::move(m));
      }
      case MessageType::kJobOutputAck: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_job_output_ack(r));
        return Message(std::move(m));
      }
      case MessageType::kAdminQuery: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_admin_query(r));
        return Message(std::move(m));
      }
      case MessageType::kAdminReply: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_admin_reply(r));
        return Message(std::move(m));
      }
      case MessageType::kServerBusy: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_server_busy(r));
        return Message(std::move(m));
      }
      case MessageType::kHeartbeat: {
        SHADOW_ASSIGN_OR_RETURN(m, decode_heartbeat(r));
        return Message(std::move(m));
      }
    }
    return Error{ErrorCode::kProtocolError,
                 "unknown message type " + std::to_string(tag)};
  }();
  if (out.ok() && !r.at_end()) {
    return Error{ErrorCode::kProtocolError, "trailing bytes after message"};
  }
  return out;
}

Bytes pack_payload(const diff::Delta& delta, compress::Codec codec) {
  BufWriter w;
  delta.encode(w);
  return compress::compress(w.take(), codec);
}

Result<diff::Delta> unpack_payload(const Bytes& payload) {
  SHADOW_ASSIGN_OR_RETURN(raw, compress::decompress(payload));
  BufReader reader(raw);
  SHADOW_ASSIGN_OR_RETURN(delta, diff::Delta::decode(reader));
  if (!reader.at_end()) {
    return Error{ErrorCode::kProtocolError,
                 "trailing bytes after delta payload"};
  }
  return delta;
}

}  // namespace shadow::proto
