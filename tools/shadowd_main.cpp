// shadowd — the shadow server daemon (paper §7: "a server process listens
// at a well-known port for connections from clients").
//
//   shadowd --port 7788 [--name supercomputer] [--threads N]
//           [--cache-budget BYTES] [--eviction lru|fifo|largest-first]
//           [--reverse-shadow] [--no-cdc] [--codec stored|rle|lz77]
//           [--journal DIR] [--verbose]
//
// Accepts any number of clients; serves until killed. With --once it
// exits after the first client disconnects (used by the e2e test).
//
// One daemon shape (docs/CONCURRENCY.md): --threads N (default 1) shard
// event loops, each on its own thread, and the main thread running the
// routing lobby, blocked in poll() on the listener and the lobby sockets.
//
// Durability: --journal DIR write-ahead journals every acknowledged
// mutation, so acked state survives a kill -9. One shard journals in DIR
// itself; with N > 1 shard i journals in DIR/shard<i>. Inspect a journal
// directory with tools/wal.
//
// Group commit (docs/DURABILITY.md): each pass of a shard's event loop
// ends in one fsync covering every record the pass journaled, and the
// acks it gates go out after that fsync.
//
// Overload control (docs/OPERATIONS.md): --lease-usec expires sessions
// whose clients stopped talking; --max-connections / --max-conn-bytes /
// --max-queued-bytes / --max-active-jobs cap the work the daemon will
// accept before answering ServerBusy with --retry-after-usec. SIGTERM
// (or SIGINT) begins a graceful drain: stop admitting, tell connected
// clients, flush every open commit batch, then exit — or give up after
// --drain-deadline microseconds. A second signal exits at once.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "net/tcp_transport.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "server/sharded_server.hpp"
#include "util/logging.hpp"

using namespace shadow;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = g_stop + 1; }

u64 steady_micros() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Strict numeric flag parsing: the whole value must be a base-10
/// integer. atoi-style prefix parsing let typos like `--port 78x88`
/// silently bind the wrong port; a missing value used to be silently
/// ignored, leaving the default in place.
bool parse_u64(const char* flag, const char* v, unsigned long long* out) {
  if (v == nullptr) {
    std::fprintf(stderr, "shadowd: %s requires a value\n", flag);
    return false;
  }
  if (*v == '\0') {
    std::fprintf(stderr, "shadowd: %s requires a numeric value\n", flag);
    return false;
  }
  for (const char* p = v; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      std::fprintf(stderr, "shadowd: bad value for %s: '%s'\n", flag, v);
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (errno != 0 || *end != '\0') {
    std::fprintf(stderr, "shadowd: value for %s out of range: '%s'\n", flag,
                 v);
    return false;
  }
  *out = n;
  return true;
}
}  // namespace

int main(int argc, char** argv) {
  u16 port = 7788;
  bool once = false;
  std::size_t threads = 1;
  u64 drain_deadline_us = 5'000'000;
  std::string journal_dir;
  server::ServerConfig config;
  config.name = "supercomputer";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto missing = [](const char* flag) {
      std::fprintf(stderr, "shadowd: %s requires a value\n", flag);
    };
    if (arg == "--port") {
      unsigned long long n = 0;
      if (!parse_u64("--port", next(), &n)) return 2;
      if (n > 65535) {
        std::fprintf(stderr, "shadowd: --port must be 0..65535\n");
        return 2;
      }
      port = static_cast<u16>(n);
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) { missing("--name"); return 2; }
      config.name = v;
    } else if (arg == "--cache-budget") {
      unsigned long long n = 0;
      if (!parse_u64("--cache-budget", next(), &n)) return 2;
      config.cache_budget = static_cast<std::size_t>(n);
    } else if (arg == "--eviction") {
      const char* v = next();
      if (v == nullptr) { missing("--eviction"); return 2; }
      if (std::strcmp(v, "lru") == 0) {
        config.eviction = cache::EvictionPolicy::kLru;
      } else if (std::strcmp(v, "fifo") == 0) {
        config.eviction = cache::EvictionPolicy::kFifo;
      } else if (std::strcmp(v, "largest-first") == 0) {
        config.eviction = cache::EvictionPolicy::kLargestFirst;
      } else {
        std::fprintf(stderr, "shadowd: unknown eviction policy: %s\n", v);
        return 2;
      }
    } else if (arg == "--reverse-shadow") {
      config.reverse_shadow = true;
    } else if (arg == "--no-cdc") {
      config.cdc_enabled = false;
    } else if (arg == "--codec") {
      const char* v = next();
      if (v == nullptr) { missing("--codec"); return 2; }
      if (std::strcmp(v, "stored") == 0) {
        config.output_codec = compress::Codec::kStored;
      } else if (std::strcmp(v, "rle") == 0) {
        config.output_codec = compress::Codec::kRle;
      } else if (std::strcmp(v, "lz77") == 0) {
        config.output_codec = compress::Codec::kLz77;
      } else {
        std::fprintf(stderr, "shadowd: unknown codec: %s\n", v);
        return 2;
      }
    } else if (arg == "--threads") {
      unsigned long long n = 0;
      if (!parse_u64("--threads", next(), &n)) return 2;
      if (n < 1 || n > 64) {
        std::fprintf(stderr, "shadowd: --threads must be 1..64\n");
        return 2;
      }
      threads = static_cast<std::size_t>(n);
    } else if (arg == "--lease-usec") {
      unsigned long long n = 0;
      if (!parse_u64("--lease-usec", next(), &n)) return 2;
      config.lease_usec = n;
    } else if (arg == "--max-connections") {
      unsigned long long n = 0;
      if (!parse_u64("--max-connections", next(), &n)) return 2;
      config.overload.max_connections = static_cast<std::size_t>(n);
    } else if (arg == "--max-conn-bytes") {
      unsigned long long n = 0;
      if (!parse_u64("--max-conn-bytes", next(), &n)) return 2;
      config.overload.max_conn_queued_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--max-queued-bytes") {
      unsigned long long n = 0;
      if (!parse_u64("--max-queued-bytes", next(), &n)) return 2;
      config.overload.max_total_queued_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--max-active-jobs") {
      unsigned long long n = 0;
      if (!parse_u64("--max-active-jobs", next(), &n)) return 2;
      config.overload.max_active_jobs = static_cast<std::size_t>(n);
    } else if (arg == "--retry-after-usec") {
      unsigned long long n = 0;
      if (!parse_u64("--retry-after-usec", next(), &n)) return 2;
      config.overload.retry_after_usec = n;
    } else if (arg == "--drain-deadline") {
      unsigned long long n = 0;
      if (!parse_u64("--drain-deadline", next(), &n)) return 2;
      drain_deadline_us = n;
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr) { missing("--journal"); return 2; }
      journal_dir = v;
    } else if (arg == "--verbose") {
      Logger::instance().set_level(LogLevel::kDebug);
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) { missing("--log-level"); return 2; }
      auto level = log_level_from_name(v);
      if (!level.ok()) {
        std::fprintf(stderr, "shadowd: %s\n",
                     level.error().to_string().c_str());
        return 2;
      }
      Logger::instance().set_level(level.value());
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--help") {
      std::printf("usage: shadowd [--port N] [--name NAME] [--threads N] "
                  "[--cache-budget BYTES] [--eviction POLICY] "
                  "[--reverse-shadow] [--no-cdc] [--codec CODEC] "
                  "[--journal DIR] [--lease-usec USEC] "
                  "[--max-connections N] [--max-conn-bytes B] "
                  "[--max-queued-bytes B] [--max-active-jobs N] "
                  "[--retry-after-usec USEC] [--drain-deadline USEC] "
                  "[--once] [--verbose] [--log-level LEVEL]\n");
      return 0;
    } else {
      std::fprintf(stderr, "shadowd: unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Drain notices go to every live connection, some of which are already
  // half-closed; a write there must fail with EPIPE, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

#ifdef __GLIBC__
  // glibc would give each shard thread a malloc arena beside the main
  // thread's, which grew a one-shard daemon's resident memory by a third.
  ::mallopt(M_ARENA_MAX, static_cast<int>(threads));
  // A compaction builds the whole snapshot in memory twice (the state and
  // its CRC-wrapped copy). With a fixed mmap threshold such buffers are
  // mapped, and unmapped when freed; glibc's dynamic threshold could leave
  // them resident in the heap, depending on their exact sizes.
  ::mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif

  std::vector<std::unique_ptr<persist::FsDir>> shard_fs;
  std::vector<std::unique_ptr<persist::DurableStore>> shard_stores;
  std::vector<persist::DurableStore*> store_ptrs;
  if (!journal_dir.empty()) {
    for (std::size_t i = 0; i < threads; ++i) {
      // One shard journals in DIR itself, where tools/wal looks.
      shard_fs.push_back(std::make_unique<persist::FsDir>(
          threads == 1 ? journal_dir
                       : journal_dir + "/shard" + std::to_string(i)));
      shard_stores.push_back(
          std::make_unique<persist::DurableStore>(shard_fs.back().get()));
      store_ptrs.push_back(shard_stores.back().get());
    }
  }
  server::ShardedServer sharded(config, threads, store_ptrs);
  if (!store_ptrs.empty()) {
    if (auto st = sharded.recover_all(); st.ok()) {
      const auto stats = sharded.aggregate_stats();
      std::printf("shadowd: recovered from %s (%zu shards, %llu journal "
                  "records, %llu requeued jobs)\n",
                  journal_dir.c_str(), threads,
                  static_cast<unsigned long long>(stats.recovered_records),
                  static_cast<unsigned long long>(stats.requeued_jobs));
    } else {
      std::fprintf(stderr, "shadowd: cannot recover from %s: %s\n",
                   journal_dir.c_str(), st.to_string().c_str());
      return 1;
    }
  }
  net::TcpListener listener;
  if (auto st = listener.listen(port); !st.ok()) {
    std::fprintf(stderr, "shadowd: %s\n", st.to_string().c_str());
    return 1;
  }
  sharded.start_threads();
  std::printf("shadowd: %s listening on 127.0.0.1:%u (%zu shards)\n",
              config.name.c_str(), listener.port(), threads);
  std::fflush(stdout);

  // The lobby blocks in poll(); the timeout bounds how late a --once exit,
  // the drain deadline or a signal landing on a shard thread is noticed.
  constexpr int kLobbyPollMs = 50;
  bool had_client = false;
  u64 drain_t0 = 0;
  bool drained = false;
  while (g_stop < 2) {
    if (g_stop != 0 && !sharded.draining()) {
      // Graceful drain: tell every connected v1 client, flush the open
      // commit batches, and keep answering late dialers with
      // ServerBusy(draining) until the deadline. A second signal (or the
      // deadline) forces the exit; stop_threads() below still syncs
      // whatever the journal already holds.
      sharded.begin_drain();
      std::printf("shadowd: draining (deadline %llu us)\n",
                  static_cast<unsigned long long>(drain_deadline_us));
      std::fflush(stdout);
      drain_t0 = steady_micros();
    }
    if (sharded.draining()) {
      if (sharded.drain_complete()) { drained = true; break; }
      if (steady_micros() - drain_t0 >= drain_deadline_us) break;
    }
    sharded.wait_lobby(listener.fd(), kLobbyPollMs);
    if (auto accepted = listener.accept(); accepted.ok()) {
      std::printf("shadowd: client connected\n");
      std::fflush(stdout);
      sharded.adopt_tcp(std::move(accepted).take());
      had_client = true;
    }
    sharded.poll_lobby();
    if (once && had_client && sharded.live_connections() == 0) break;
  }
  if (drained) {
    std::printf("shadowd: drained cleanly in %llu us\n",
                static_cast<unsigned long long>(steady_micros() - drain_t0));
  } else if (sharded.draining()) {
    std::fprintf(stderr, "shadowd: drain deadline passed with persist "
                 "work still pending; exiting anyway\n");
  }
  sharded.stop_threads();

  const auto stats = sharded.aggregate_stats();
  std::printf("shadowd: exiting; %llu updates received (%llu full, %llu "
              "delta), %llu jobs completed\n",
              static_cast<unsigned long long>(stats.updates_received),
              static_cast<unsigned long long>(stats.full_transfers),
              static_cast<unsigned long long>(stats.delta_transfers),
              static_cast<unsigned long long>(stats.jobs_completed));
  return 0;
}
