// The server's durable format, in one place (docs/DURABILITY.md). Each
// persist::RecordType has one record struct here that lists its fields
// once. encode(), decode() and describe() are all driven by that list, so
// the append sites, journal replay, the recovery pre-pass, the snapshot (a
// compacted stream of these same records) and tools/wal cannot disagree;
// no record body is built or parsed anywhere else.
//
// Records borrow their bytes: string fields are views. Encoding reads the
// caller's strings in place, so an append site or the snapshot writer
// copies nothing into a record; decoding points them into the buffer it
// parsed, which must outlive the record. kJobSubmitted's record is the
// job::JobRecord itself, encoded from the live job.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cdc/signature.hpp"
#include "job/queue.hpp"
#include "naming/file_id.hpp"
#include "persist/wal.hpp"
#include "util/byte_io.hpp"
#include "util/result.hpp"

namespace shadow::server::journal {

// Each record lists its fields in wire order, each with the name
// tools/wal prints; a field's C++ type picks its encoding (field::put and
// field::get below): u64 a varint, u32 four bytes, int a zigzag varint, a
// JobState one byte, a string a length-prefixed block.

/// The prefix kShadowCached and kShadowDigest share.
struct ShadowHeader {
  naming::GlobalFileId id;
  std::string_view key;  // a file's "<domain>/<shadow-id>", or an output key
  u64 version = 0;
  u32 crc = 0;  // whole-file CRC of the version
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("file", r.id), f("key", r.key), f("v", r.version), f("crc", r.crc);
  }
};

/// A content cache entry: the version's bytes. A reverse-shadow output
/// entry has an empty file id and owner, and its generation as version.
struct ShadowCached {
  static constexpr auto kType = persist::RecordType::kShadowCached;
  ShadowHeader head;
  std::string_view content;
  std::string_view owner;  // client that serves pulls for the file
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("", r.head), f("content", r.content), f("owner", r.owner);
  }
};

/// A digest-only cache entry (CDC): the version's chunk signature.
struct ShadowDigest {
  static constexpr auto kType = persist::RecordType::kShadowDigest;
  ShadowHeader head;
  cdc::Signature sig;
  std::string_view owner;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("", r.head), f("sig", r.sig), f("owner", r.owner);
  }
};

struct ShadowEvicted {
  static constexpr auto kType = persist::RecordType::kShadowEvicted;
  std::string_view key;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("key", r.key);
  }
};

struct JobStarted {
  static constexpr auto kType = persist::RecordType::kJobStarted;
  u64 job_id = 0;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("job", r.job_id);
  }
};

/// A job's result; replay accepts only kCompleted and kFailed.
struct JobFinished {
  static constexpr auto kType = persist::RecordType::kJobFinished;
  u64 job_id = 0;
  proto::JobState state = proto::JobState::kCompleted;
  int exit_code = 0;
  std::string_view output;
  std::string_view error;
  u64 cpu_cost = 0;
  std::string_view detail;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("job", r.job_id), f("state", r.state), f("exit", r.exit_code),
        f("stdout", r.output), f("stderr", r.error), f("cpu", r.cpu_cost),
        f("detail", r.detail);
  }
};

struct JobDelivered {
  static constexpr auto kType = persist::RecordType::kJobDelivered;
  u64 job_id = 0;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("job", r.job_id);
  }
};

/// Retired: a reverse-shadow output as older stores journaled it, before
/// outputs became ShadowCached entries. Never written; decoded only so
/// that replay and tools/wal read past it.
struct OutputStored {
  static constexpr auto kType = persist::RecordType::kOutputStored;
  std::string_view signature;  // "the same job" across re-runs
  u64 generation = 0;
  std::string_view content;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("signature", r.signature), f("gen", r.generation),
        f("content", r.content);
  }
};

/// Where encode/decode/describe find a record's kType and fields: the
/// record itself, except for the two job types this module does not own.
template <class Record>
struct Layout : Record {};

/// A whole job, in any state (the snapshot writes every job this way):
/// every field but submitted_via, which is connection-scoped and
/// meaningless after a restart.
template <>
struct Layout<job::JobRecord> {
  static constexpr auto kType = persist::RecordType::kJobSubmitted;
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("job", r.job_id), f("client", r.client_name),
        f("token", r.client_job_token), f("command", r.command_file),
        f("files", r.files), f("output", r.output_name),
        f("error", r.error_name), f("route", r.output_route),
        f("state", r.state), f("detail", r.detail), f("exit", r.exit_code),
        f("stdout", r.output_content), f("stderr", r.error_content),
        f("cpu", r.cpu_cost), f("retries", r.retries);
  }
};

template <>
struct Layout<proto::JobFileRef> {
  template <class R, class F>
  static void fields(R& r, F&& f) {
    f("file", r.file), f("as", r.local_name), f("v", r.version),
        f("crc", r.crc);
  }
};

template <class Record>
void encode(BufWriter& out, const Record& record);
/// Read `record`'s fields in wire order, stopping at the first error.
template <class Record>
Status decode_into(BufReader& in, Record& record);

/// One encoding per field type.
namespace field {
template <class T, class U>
Status assign(Result<T> got, U& v) {
  if (!got.ok()) return got.error();
  v = static_cast<U>(std::move(got).take());
  return Status();
}
inline void put(BufWriter& out, u64 v) { out.put_varint(v); }
inline void put(BufWriter& out, u32 v) { out.put_u32(v); }
inline void put(BufWriter& out, int v) { out.put_varint_signed(v); }
inline void put(BufWriter& out, proto::JobState v) {
  out.put_u8(static_cast<u8>(v));
}
inline void put(BufWriter& out, std::string_view v) { out.put_string(v); }
inline void put(BufWriter& out, const naming::GlobalFileId& v) {
  v.encode(out);
}
inline void put(BufWriter& out, const cdc::Signature& v) { v.encode(out); }
inline void put(BufWriter& out, const ShadowHeader& v) { encode(out, v); }
inline void put(BufWriter& out, const std::vector<proto::JobFileRef>& v) {
  out.put_varint(v.size());
  for (const auto& ref : v) encode(out, ref);
}

inline Status get(BufReader& in, u64& v) {
  return assign(in.get_varint(), v);
}
inline Status get(BufReader& in, u32& v) { return assign(in.get_u32(), v); }
inline Status get(BufReader& in, int& v) {
  return assign(in.get_varint_signed(), v);
}
inline Status get(BufReader& in, proto::JobState& v) {
  SHADOW_ASSIGN_OR_RETURN(raw, in.get_u8());
  if (raw > static_cast<u8>(proto::JobState::kDelivered)) {
    return Error{ErrorCode::kProtocolError,
                 "bad job state: " + std::to_string(raw)};
  }
  v = static_cast<proto::JobState>(raw);
  return Status();
}
inline Status get(BufReader& in, std::string_view& v) {
  return assign(in.get_string_view(), v);
}
inline Status get(BufReader& in, std::string& v) {
  return assign(in.get_string(), v);
}
inline Status get(BufReader& in, naming::GlobalFileId& v) {
  return assign(naming::GlobalFileId::decode(in), v);
}
inline Status get(BufReader& in, cdc::Signature& v) {
  return assign(cdc::Signature::decode(in), v);
}
inline Status get(BufReader& in, ShadowHeader& v) {
  return decode_into(in, v);
}
inline Status get(BufReader& in, std::vector<proto::JobFileRef>& v) {
  SHADOW_ASSIGN_OR_RETURN(count, in.get_varint());
  if (count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "job file count exceeds data"};
  }
  v.resize(count);
  for (auto& ref : v) SHADOW_TRY(decode_into(in, ref));
  return Status();
}
}  // namespace field

template <class Record>
void encode(BufWriter& out, const Record& record) {
  Layout<Record>::fields(
      record, [&out](const char*, const auto& v) { field::put(out, v); });
}

template <class Record>
Status decode_into(BufReader& in, Record& record) {
  Status st;
  Layout<Record>::fields(record, [&](const char*, auto& v) {
    if (st.ok()) st = field::get(in, v);
  });
  return st;
}

template <class Record>
Result<Record> decode(BufReader& in) {
  Record record;
  SHADOW_TRY(decode_into(in, record));
  return record;
}

/// A record ready to append: its type and its journal body.
struct Body {
  persist::RecordType type = persist::RecordType::kShadowCached;
  Bytes bytes;
};

template <class Record>
Body body_of(const Record& record) {
  BufWriter w;
  encode(w, record);
  return Body{Layout<Record>::kType, w.take()};
}

/// Every field of the record of `type` read from `in`, as "name=value"
/// text (tools/wal); an error when it does not decode.
Result<std::string> describe(persist::RecordType type, BufReader& in);

/// A snapshot (v5) is this header, then `records` records, each a type
/// byte and its body. The records are the shortest journal that rebuilds
/// the state; the snapshot file's CRC covers them, so they carry no frame
/// of their own.
struct SnapshotHeader {
  u64 shard_id = 0;
  u64 shard_count = 1;
  u64 records = 0;

  void encode(BufWriter& out) const;  // magic and version included
  static Result<SnapshotHeader> decode(BufReader& in);
};

/// Append one snapshot record: its type byte, then its body.
template <class Record>
void put_snapshot_record(BufWriter& out, const Record& record) {
  out.put_u8(static_cast<u8>(Layout<Record>::kType));
  encode(out, record);
}

/// Read a snapshot record's type byte; its body follows in `in`.
Result<persist::RecordType> get_snapshot_record_type(BufReader& in);

}  // namespace shadow::server::journal
