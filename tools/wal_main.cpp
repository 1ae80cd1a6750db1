// wal — inspector for the server's durability files (src/persist/).
//
//   wal <dir> [--snapshot] [--verbose]
//   wal --selftest [--seed N] [--edits N]
//
// Reads <dir>/journal.wal (and with --snapshot, <dir>/snapshot.bin) the
// way a recovering server would: scans the CRC-framed record stream,
// prints every field of every intact record through the server's record
// codec (server/journal_records.hpp), and reports exactly where — and
// why — a damaged tail ends the valid prefix. --snapshot lists the
// snapshot's records the same way. Exit 0 when both files are clean, 1
// when damage was found or a record does not decode (printed as
// UNDECODABLE; the files are still recoverable — damage means a
// truncated tail, not a loss of acked state), 2 on usage errors.
//
// --selftest runs a miniature crash matrix (core/crash.hpp): the mixed
// edit+submit workload is killed at every storage write point and must
// recover, keep its acked state, and converge with the no-crash oracle.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/crash.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"
#include "server/journal_records.hpp"
#include "util/logging.hpp"

using namespace shadow;
namespace journal = server::journal;

namespace {

/// Long listings keep their first and last ten records unless --verbose.
struct Listing {
  std::size_t total = 0;
  bool verbose = false;

  bool shown(std::size_t i) const {
    return verbose || total <= 20 || i < 10 || i + 10 >= total;
  }
  void note_elided(std::size_t i) const {
    if (i == 10) std::printf("  ... %zu more (use --verbose)\n", total - 20);
  }
};

/// Describe record `i` (read from `in`) and print it if the listing shows
/// it. A journal record's reader holds just its body, which must decode to
/// the last byte; a snapshot's records are unframed and end where their
/// decode does. An UNDECODABLE record is always printed; returns false
/// for one.
bool print_record(const Listing& listing, std::size_t i, u64 offset,
                  persist::RecordType type, BufReader& in, bool framed) {
  auto text = journal::describe(type, in);
  if (text.ok() && framed && !in.at_end()) {
    text = Error{ErrorCode::kProtocolError, "trailing bytes in record"};
  }
  if (text.ok() && !listing.shown(i)) {
    listing.note_elided(i);
    return true;
  }
  std::printf("  #%-4zu @%-8llu %-14s %s\n", i,
              static_cast<unsigned long long>(offset),
              persist::record_type_name(type),
              text.ok() ? text.value().c_str()
                        : ("UNDECODABLE (" + text.error().to_string() + ")")
                              .c_str());
  return text.ok();
}

/// Returns true when the journal is clean (header ok or absent, no torn
/// tail, every record decodes).
bool inspect_journal(persist::StorageDir& dir, bool verbose) {
  if (!dir.exists(persist::DurableStore::kJournalName)) {
    std::printf("journal: (absent)\n");
    return true;
  }
  auto raw = dir.read(persist::DurableStore::kJournalName);
  if (!raw.ok()) {
    std::printf("journal: unreadable: %s\n", raw.error().to_string().c_str());
    return false;
  }
  const auto scan = persist::scan_journal(raw.value());
  std::printf("journal: %llu bytes, header %s, %zu records\n",
              static_cast<unsigned long long>(scan.total_bytes),
              scan.header_ok ? "ok" : "MISSING/FOREIGN",
              scan.records.size());
  const Listing listing{scan.records.size(), verbose};
  bool decoded = true;
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const auto& record = scan.records[i];
    BufReader in(record.body);
    decoded = print_record(listing, i, record.offset, record.type, in,
                           /*framed=*/true) &&
              decoded;
  }
  if (scan.torn) {
    std::printf("  TORN TAIL at offset %llu: %s (%llu bytes would be "
                "truncated on recovery)\n",
                static_cast<unsigned long long>(scan.valid_bytes),
                scan.tail_detail.c_str(),
                static_cast<unsigned long long>(scan.total_bytes -
                                                scan.valid_bytes));
  }
  return decoded &&
         (scan.header_ok ? !scan.torn : scan.total_bytes == 0);
}

/// Returns true when the snapshot is absent, or intact and every record
/// decodes.
bool inspect_snapshot(persist::StorageDir& dir, bool verbose) {
  if (!dir.exists(persist::DurableStore::kSnapshotName)) {
    std::printf("snapshot: (absent)\n");
    return true;
  }
  auto raw = dir.read(persist::DurableStore::kSnapshotName);
  if (!raw.ok()) {
    std::printf("snapshot: unreadable: %s\n",
                raw.error().to_string().c_str());
    return false;
  }
  auto state = persist::unwrap_snapshot(raw.value());
  if (!state.ok()) {
    std::printf("snapshot: %zu bytes, CORRUPT: %s (recovery would degrade "
                "to journal-only state)\n",
                raw.value().size(), state.error().to_string().c_str());
    return false;
  }
  const Bytes& bytes = state.value();
  std::printf("snapshot: %zu bytes wrapped, %zu bytes of state, crc ok\n",
              raw.value().size(), bytes.size());
  BufReader in(bytes);
  auto header = journal::SnapshotHeader::decode(in);
  if (!header.ok()) {
    std::printf("  UNDECODABLE header (%s): recovery would replay the "
                "journal alone\n",
                header.error().to_string().c_str());
    return false;
  }
  std::printf("  shard %llu/%llu, %llu records\n",
              static_cast<unsigned long long>(header.value().shard_id),
              static_cast<unsigned long long>(header.value().shard_count),
              static_cast<unsigned long long>(header.value().records));
  const Listing listing{header.value().records, verbose};
  for (std::size_t i = 0; i < header.value().records; ++i) {
    const u64 offset = in.position();
    auto type = journal::get_snapshot_record_type(in);
    if (!type.ok()) {
      std::printf("  #%-4zu @%-8llu UNDECODABLE (%s)\n", i,
                  static_cast<unsigned long long>(offset),
                  type.error().to_string().c_str());
      return false;
    }
    if (!print_record(listing, i, offset, type.value(), in,
                      /*framed=*/false)) {
      return false;
    }
  }
  if (!in.at_end()) {
    std::printf("  UNDECODABLE: %zu trailing bytes after the last record\n",
                in.remaining());
    return false;
  }
  return true;
}

int run_selftest(u64 seed, int edits) {
  core::CrashOptions options;
  options.seed = seed;
  options.edits = edits;
  const auto oracle = core::run_crash_trial(options, 0);
  if (!oracle.converged) {
    std::printf("FAIL: oracle run did not converge: %s\n",
                oracle.detail.c_str());
    return 1;
  }
  std::printf("workload: %llu storage write points, %llu acked versions, "
              "%llu acked jobs\n",
              static_cast<unsigned long long>(oracle.write_points),
              static_cast<unsigned long long>(oracle.acked_versions_checked),
              static_cast<unsigned long long>(oracle.acked_jobs_checked));
  u64 failures = 0;
  for (u64 w = 1; w <= oracle.write_points; ++w) {
    const auto out = core::run_crash_trial(options, w);
    const bool ok = out.clean_recovery && out.acked_survived &&
                    out.converged &&
                    out.server_cached == oracle.server_cached &&
                    out.job_outputs == oracle.job_outputs;
    if (!ok) {
      ++failures;
      std::printf("  crash@%-3llu FAIL: %s\n",
                  static_cast<unsigned long long>(w),
                  out.detail.empty() ? "diverged from oracle"
                                     : out.detail.c_str());
    }
  }
  if (failures == 0) {
    std::printf("PASS: all %llu crash points recovered and converged\n",
                static_cast<unsigned long long>(oracle.write_points));
    return 0;
  }
  std::printf("FAIL: %llu/%llu crash points diverged\n",
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(oracle.write_points));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir_path;
  bool want_snapshot = false;
  bool verbose = false;
  bool selftest = false;
  u64 seed = 1;
  int edits = 8;
  Logger::instance().set_level(LogLevel::kError);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--snapshot") {
      want_snapshot = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--seed") {
      if (const char* v = next()) seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--edits") {
      if (const char* v = next()) edits = std::atoi(v);
    } else if (arg == "--help") {
      std::printf("usage: wal <dir> [--snapshot] [--verbose]\n"
                  "       wal --selftest [--seed N] [--edits N]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    } else {
      dir_path = arg;
    }
  }

  if (selftest) return run_selftest(seed, edits);
  if (dir_path.empty()) {
    std::fprintf(stderr, "usage: wal <dir> [--snapshot] [--verbose]\n");
    return 2;
  }

  persist::FsDir dir(dir_path);
  bool clean = inspect_journal(dir, verbose);
  if (want_snapshot) clean = inspect_snapshot(dir, verbose) && clean;
  return clean ? 0 : 1;
}
