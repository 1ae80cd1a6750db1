// Write-ahead journal record framing. Every record crossing into storage
// is wrapped the way proto/frame wraps wire messages: length-prefixed and
// CRC32-guarded, so that a torn or bit-flipped tail is DETECTED and
// discarded rather than trusted. A journal scan never fails — damage
// simply ends the valid prefix, because a damaged tail is something a
// crashed process recovers FROM, not an error it reports.
//
// File layout:
//   u32 magic 'SHWL' | u8 version | u8[3] reserved        (8-byte header)
//   then zero or more records:
//   u32 len | u32 crc32(payload) | payload                 (8-byte frame)
//   where payload = u8 record type | type-specific body
#pragma once

#include <string>
#include <vector>

#include "util/byte_io.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::persist {

/// Durable server mutations. Values are wire-stable: never renumber.
enum class RecordType : u8 {
  kShadowCached = 1,   // a shadow file version entered the cache
  kShadowEvicted = 2,  // a cached shadow was dropped
  kJobSubmitted = 3,   // a job was accepted (before SubmitReply)
  kJobStarted = 4,     // a job began executing
  kJobFinished = 5,    // a job completed or failed (before JobOutput)
  kJobDelivered = 6,   // the client acknowledged the job's output
  kOutputStored = 7,   // retired: read past, never written
  kShadowDigest = 8,   // a CDC-tracked shadow's digest signature advanced
};

const char* record_type_name(RecordType type);

constexpr u32 kJournalMagic = 0x4C574853;  // "SHWL" little-endian
constexpr u8 kJournalVersion = 1;
constexpr std::size_t kJournalHeaderSize = 8;
constexpr std::size_t kRecordFrameSize = 8;  // len + crc
/// Frames longer than this are treated as tail damage — a torn length
/// field must never trigger a runaway allocation.
constexpr u32 kMaxRecordSize = 256u << 20;

/// The 8-byte file header.
Bytes journal_header();

/// One record, framed and ready to append.
Bytes frame_record(RecordType type, const Bytes& body);

struct JournalRecord {
  RecordType type = RecordType::kShadowCached;
  Bytes body;
  u64 offset = 0;  // frame start within the journal file
};

struct JournalScan {
  std::vector<JournalRecord> records;
  bool header_ok = false;  // false for an empty or foreign file
  /// Bytes up to and including the last intact record (the safe
  /// truncation point).
  u64 valid_bytes = 0;
  u64 total_bytes = 0;
  /// True when trailing bytes after valid_bytes were discarded.
  bool torn = false;
  std::string tail_detail;  // why the scan stopped, when torn
};

/// Parse as much intact prefix as the bytes contain. Total: never fails,
/// never reads past the end, never trusts a record whose CRC disagrees.
JournalScan scan_journal(const Bytes& raw);

/// Snapshot file wrapper: u32 magic 'SHSN' | u8 version | u32 crc32(state)
/// | varint len | state. The whole-file CRC turns "the snapshot rename
/// raced the crash" and "a cosmic ray visited" into the same clean
/// answer: not a snapshot.
Bytes wrap_snapshot(const Bytes& state);
Result<Bytes> unwrap_snapshot(const Bytes& raw);

}  // namespace shadow::persist
