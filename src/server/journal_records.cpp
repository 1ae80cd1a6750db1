#include "server/journal_records.hpp"

#include <cstdio>

namespace shadow::server::journal {

namespace {
constexpr u32 kSnapshotMagic = 0x53485356;  // "SHSV"
// v5: the snapshot is a record stream. Older layouts (v2–v4: a separate
// codec per component) are not read; recovery treats them like any other
// unusable snapshot and replays the journal alone.
constexpr u8 kSnapshotVersion = 5;

// describe(): one text form per field type. Strings longer than a line
// (file content, job output) show as their size.
std::string show(u64 v) { return std::to_string(v); }
std::string show(int v) { return std::to_string(v); }
std::string show(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}
std::string show(proto::JobState v) { return proto::job_state_name(v); }
std::string show(std::string_view v) {
  if (v.size() > 64) return std::to_string(v.size()) + "B";
  std::string out = "\"";
  for (const char c : v) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u >= 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}
std::string show(const naming::GlobalFileId& v) {
  return show(v.display()) + "#" + show(v.inode);
}
std::string show(const cdc::Signature& v) {
  const cdc::ChunkerParams& p = v.params;
  return show(u64{v.chunks.size()}) + " chunks of " + show(p.seed) + "/" +
         show(u64{p.min_bytes}) + "/" + show(u64{p.avg_bytes}) + "/" +
         show(u64{p.max_bytes}) + " (" + show(v.total_bytes()) + "B)";
}
std::string show(const ShadowHeader& v);
std::string show(const std::vector<proto::JobFileRef>& v);

template <class Record>
std::string fields_text(const Record& record) {
  std::string out;
  Layout<Record>::fields(record, [&out](const char* name, const auto& v) {
    if (!out.empty()) out += ' ';
    if (*name != '\0') out += std::string(name) + "=";
    out += show(v);
  });
  return out;
}

std::string show(const ShadowHeader& v) { return fields_text(v); }
std::string show(const std::vector<proto::JobFileRef>& v) {
  std::string out = "[";
  for (const auto& ref : v) {
    out += (out.size() > 1 ? "; " : "") + fields_text(ref);
  }
  return out + "]";
}

template <class Record>
Result<std::string> text_of(BufReader& in) {
  SHADOW_ASSIGN_OR_RETURN(record, decode<Record>(in));
  return fields_text(record);
}
}  // namespace

Result<std::string> describe(persist::RecordType type, BufReader& in) {
  using T = persist::RecordType;
  switch (type) {
    case T::kShadowCached: return text_of<ShadowCached>(in);
    case T::kShadowEvicted: return text_of<ShadowEvicted>(in);
    case T::kJobSubmitted: return text_of<job::JobRecord>(in);
    case T::kJobStarted: return text_of<JobStarted>(in);
    case T::kJobFinished: return text_of<JobFinished>(in);
    case T::kJobDelivered: return text_of<JobDelivered>(in);
    case T::kOutputStored: return text_of<OutputStored>(in);
    case T::kShadowDigest: return text_of<ShadowDigest>(in);
  }
  return Error{ErrorCode::kProtocolError,
               "unknown record type " +
                   std::to_string(static_cast<unsigned>(type))};
}

void SnapshotHeader::encode(BufWriter& out) const {
  out.put_u32(kSnapshotMagic);
  out.put_u8(kSnapshotVersion);
  out.put_varint(shard_id);
  out.put_varint(shard_count);
  out.put_varint(records);
}

Result<SnapshotHeader> SnapshotHeader::decode(BufReader& in) {
  SHADOW_ASSIGN_OR_RETURN(magic, in.get_u32());
  SHADOW_ASSIGN_OR_RETURN(version, in.get_u8());
  if (magic != kSnapshotMagic) {
    return Error{ErrorCode::kInvalidArgument, "not a server snapshot"};
  }
  if (version != kSnapshotVersion) {
    return Error{ErrorCode::kInvalidArgument,
                 "snapshot version " + std::to_string(version) +
                     " is not read (want " +
                     std::to_string(kSnapshotVersion) + ")"};
  }
  SnapshotHeader header;
  SHADOW_TRY(field::get(in, header.shard_id));
  SHADOW_TRY(field::get(in, header.shard_count));
  SHADOW_TRY(field::get(in, header.records));
  // Every record costs at least its type byte.
  if (header.records > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "record count exceeds data"};
  }
  return header;
}

Result<persist::RecordType> get_snapshot_record_type(BufReader& in) {
  SHADOW_ASSIGN_OR_RETURN(type, in.get_u8());
  return static_cast<persist::RecordType>(type);
}

}  // namespace shadow::server::journal
