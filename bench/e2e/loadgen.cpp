#include "loadgen.hpp"

#include <poll.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <tuple>
#include <unordered_map>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "job/executor.hpp"
#include "net/tcp_transport.hpp"
#include "proto/messages.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadowbench {

namespace {

using shadow::Error;
using shadow::ErrorCode;
using shadow::i64;

constexpr char kServer[] = "shadowd";
constexpr i64 kGraceNs = 5'000'000'000;       // after the window closes
constexpr i64 kSetupTimeoutNs = 60'000'000'000;
constexpr std::size_t kSourceBytes = 4u << 20;  // edits copy from here
constexpr std::size_t kCaptureBytes = 64u << 20;
constexpr std::size_t kCaptureFrames = 400;
/// Closed-loop edit pool per connection and second: over ten times the
/// measured rate, so a faster program still never runs dry.
constexpr double kClosedOpsPerConnSecond[2] = {500.0, 400.0};  // text, binary

double cpu_self_seconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

std::string file_name(u32 file) {
  char name[16];
  std::snprintf(name, sizeof name, "f%02u", file);
  return name;
}

u32 crc_of(const std::string& s) {
  return shadow::crc32(reinterpret_cast<const shadow::u8*>(s.data()), s.size());
}

}  // namespace

struct LiveRun::Conn {
  std::string host;
  shadow::vfs::Cluster cluster;
  std::unique_ptr<shadow::net::TcpTransport> tcp;
  std::unique_ptr<TracingTransport> traced;
  std::unique_ptr<shadow::client::ShadowClient> client;
  std::unique_ptr<shadow::client::ShadowEditor> editor;
  std::vector<std::string> paths, keys, content;
  std::vector<u64> initial_version;  // per file, after the set-up's create
  std::unordered_map<std::string, u32> file_of_key;
  std::vector<int> last_op;  // per file, for span attribution
  std::unordered_map<u64, u32> op_of_token;
  std::vector<u32> outstanding;
  u32 next_edit = 0;
  u64 acks_seen = 0, outputs_seen = 0;

  shadow::net::Transport* transport() {
    return traced ? static_cast<shadow::net::Transport*>(traced.get())
                  : tcp.get();
  }
};

struct LiveRun::Op {
  u32 conn = 0, file = 0, edit = 0;
  u64 version = 0, token = 0;
  i64 due_ns = 0, start_ns = 0, done_ns = -1;
  bool failed = false;
  u32 out_crc = 0;
  u64 out_len = 0;
  int span = -1;
};

LiveRun::LiveRun(const LiveShape& shape, u64 seed, std::vector<double> windows,
                 std::string shadowd, std::string work_dir, bool traced)
    : shape_(shape),
      shadowd_(std::move(shadowd)),
      work_dir_(std::move(work_dir)),
      traced_run_(traced),
      windows_(std::move(windows)) {
  generate(seed, windows_);
}

LiveRun::~LiveRun() {
  conns_.clear();
  if (daemon_) stop_daemon();
}

void LiveRun::generate(u64 seed, const std::vector<double>& windows) {
  shadow::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5B);
  source_.resize(kSourceBytes);
  for (char& c : source_) {
    const u64 r = rng.next();
    // Text edits stay printable and never touch line structure.
    c = shape_.binary ? static_cast<char>(r & 0xFF)
                      : static_cast<char>('a' + r % 26);
  }

  double total_seconds = 0.0;
  for (double s : windows) total_seconds += s;
  std::vector<std::size_t> pool(kConnections, 0);
  for (double seconds : windows) {
    std::vector<std::pair<i64, u32>> schedule;
    if (shape_.open_rate > 0) {
      // Poisson arrivals, each on a uniformly chosen connection.
      double t = 0.0;
      while (true) {
        t += -std::log(1.0 - rng.uniform()) / shape_.open_rate;
        if (t >= seconds) break;
        const u32 conn = static_cast<u32>(rng.below(kConnections));
        schedule.emplace_back(static_cast<i64>(t * 1e9), conn);
        ++pool[conn];
      }
    }
    arrivals_.push_back(std::move(schedule));
  }
  if (shape_.open_rate <= 0) {
    const double rate = kClosedOpsPerConnSecond[shape_.binary ? 1 : 0];
    pool.assign(kConnections,
                static_cast<std::size_t>(std::ceil(rate * total_seconds)));
  }

  const std::size_t edit_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(shape_.edit_percent / 100.0 *
                                  static_cast<double>(shape_.file_bytes)));
  initial_.resize(kConnections);
  edits_.resize(kConnections);
  for (u32 c = 0; c < kConnections; ++c) {
    std::vector<std::vector<std::pair<u32, u32>>> lines;  // [file] (start, len)
    for (u32 f = 0; f < shape_.files_per_conn; ++f) {
      const u64 file_seed = rng.next();
      initial_[c].push_back(
          shape_.binary ? shadow::core::make_binary_file(shape_.file_bytes, file_seed)
                        : shadow::core::make_file(shape_.file_bytes, file_seed));
      if (shape_.binary) continue;
      const std::string& text = initial_[c].back();
      lines.emplace_back();
      std::size_t start = 0;
      while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        if (end > start) {
          lines.back().emplace_back(static_cast<u32>(start),
                                    static_cast<u32>(end - start));
        }
        start = end + 1;
      }
    }
    for (std::size_t i = 0; i < pool[c]; ++i) {
      Edit edit;
      // Each connection walks its files round-robin, so a file is saved
      // again only after its previous save was long acknowledged. (Saving
      // a file while its pull is in flight leaks one of shadowd's four
      // pull slots, and a run would measure how many had leaked.)
      edit.file = static_cast<u32>(i % shape_.files_per_conn);
      edit.first = static_cast<u32>(regions_.size());
      std::size_t covered = 0;
      if (shape_.binary) {
        // Scattered overwrite: four regions at random offsets.
        const std::size_t len = std::max<std::size_t>(1, edit_bytes / 4);
        const std::size_t size = initial_[c][edit.file].size();
        for (int r = 0; r < 4; ++r) {
          regions_.push_back(Region{
              static_cast<u32>(rng.below(size - len)),
              static_cast<u32>(rng.below(kSourceBytes - len)),
              static_cast<u32>(len)});
        }
      } else {
        // Line edit: rewrite whole lines until the share is covered.
        const auto& table = lines[edit.file];
        while (covered < edit_bytes) {
          const auto [start, len] = table[rng.below(table.size())];
          regions_.push_back(Region{
              start, static_cast<u32>(rng.below(kSourceBytes - len)), len});
          covered += len;
        }
      }
      edit.count = static_cast<u32>(regions_.size()) - edit.first;
      edits_[c].push_back(edit);
    }
  }
}

void LiveRun::apply_edit(const Edit& edit, std::string& text) const {
  for (u32 r = edit.first; r < edit.first + edit.count; ++r) {
    std::memcpy(text.data() + regions_[r].dst, source_.data() + regions_[r].src,
                regions_[r].len);
  }
}

std::string LiveRun::command_for(u32 file) const {
  const std::string name = file_name(file);
  return "wc " + name + "\nsort " + name + " > s\nhead 3 s\n";
}

shadow::Result<double> LiveRun::setup() {
  conns_.clear();
  ops_.clear();
  if (daemon_) stop_daemon();
  journal_ = work_dir_ + "/journal-" + std::to_string(setups_++);
  std::error_code ec;
  std::filesystem::remove_all(journal_, ec);

  const i64 t0 = now_ns();
  SHADOW_ASSIGN_OR_RETURN(daemon, Daemon::start(shadowd_, journal_));
  daemon_ = std::move(daemon);
  for (u32 c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->host = "ws" + std::to_string(c);
    SHADOW_TRY(conn->cluster.add_host(conn->host).mkdir_p("/home/user"));
    SHADOW_ASSIGN_OR_RETURN(tcp, shadow::net::tcp_connect(daemon_->port(), kServer));
    conn->tcp = std::move(tcp);
    if (traced_run_) {
      conn->traced = std::make_unique<TracingTransport>(
          conn->tcp.get(), &tracer_, c,
          [this, c](const shadow::Bytes& wire) { return attribute(c, wire); },
          [this, c](const shadow::Bytes& wire) { capture_sent(c, wire); });
    }
    conn->client = std::make_unique<shadow::client::ShadowClient>(
        conn->host, shadow::client::ShadowEnvironment{}, &conn->cluster,
        "bench");
    conn->editor = std::make_unique<shadow::client::ShadowEditor>(
        conn->client.get(), &conn->cluster);
    conn->client->connect(kServer, conn->transport());
    conn->content = initial_[c];
    conn->last_op.assign(shape_.files_per_conn, -1);
    conns_.push_back(std::move(conn));
  }

  // Each connection uploads its working set one file at a time, the next
  // once the previous is acknowledged. A burst of concurrent full
  // transfers would leave the daemon's receive buffers, and so its RSS, at
  // whatever size their overlap happened to reach.
  while (true) {
    bool all_acked = true;
    for (auto& conn : conns_) {
      const std::size_t f = conn->keys.size();
      if (f > 0) {
        const auto acked = conn->client->acked_versions(kServer);
        if (acked.count(conn->keys.back()) == 0) {
          all_acked = false;
          continue;
        }
      }
      if (f == shape_.files_per_conn) continue;
      all_acked = false;
      conn->paths.push_back("/home/user/" + file_name(static_cast<u32>(f)));
      SHADOW_TRY(conn->editor->create(conn->paths[f], conn->content[f]));
      SHADOW_ASSIGN_OR_RETURN(id, conn->client->resolve_name(conn->paths[f]));
      conn->keys.push_back(id.key());
      conn->file_of_key[id.key()] = static_cast<u32>(f);
      conn->initial_version.push_back(
          conn->client->versions().chain(id.key()).latest_number().value_or(0));
    }
    if (all_acked) break;
    if (now_ns() - t0 > kSetupTimeoutNs) {
      return Error{ErrorCode::kIoError, "initial working set never acked"};
    }
    pump();
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void LiveRun::pump() {
  std::vector<struct pollfd> fds(kConnections);
  for (u32 c = 0; c < kConnections; ++c) {
    fds[c] = {conns_[c]->tcp->fd(), POLLIN, 0};
  }
  ::poll(fds.data(), fds.size(), 100);
  for (u32 c = 0; c < kConnections; ++c) {
    if (fds[c].revents != 0) conns_[c]->transport()->poll();
  }
}

void LiveRun::issue(u32 c, i64 due_ns) {
  Conn& conn = *conns_[c];
  if (conn.next_edit >= edits_[c].size()) {
    pool_exhausted_ = true;
    return;
  }
  const Edit& edit = edits_[c][conn.next_edit];
  Op op;
  op.conn = c;
  op.file = edit.file;
  op.edit = conn.next_edit++;
  op.due_ns = due_ns;
  const u32 index = static_cast<u32>(ops_.size());

  std::string& text = conn.content[edit.file];
  apply_edit(edit, text);
  op.start_ns = now_ns();
  if (tracing_) {
    op.span = tracer_.begin(tracer_.name_id(shape_.submit ? "e2e.job" : "e2e.save"),
                            c, -1, index + 1);
    tracer_.span(op.span).start_ns = due_ns;
  }
  conn.last_op[edit.file] = static_cast<int>(index);
  const int save_span =
      tracing_ ? tracer_.begin(tracer_.name_id("client.save"), c, op.span, index + 1)
               : -1;
  const shadow::Status saved =
      conn.editor->create(conn.paths[edit.file], text);
  if (save_span >= 0) tracer_.end(save_span);
  op.version =
      conn.client->versions().chain(conn.keys[edit.file]).latest_number().value_or(0);
  op.failed = !saved.ok();

  if (shape_.submit && saved.ok()) {
    shadow::client::ShadowClient::SubmitOptions job;
    job.files = {conn.paths[edit.file]};
    job.command_file = command_for(edit.file);
    const std::string name = "/home/user/job" + std::to_string(op.edit);
    job.output_path = name + ".out";
    job.error_path = name + ".err";
    const int submit_span =
        tracing_ ? tracer_.begin(tracer_.name_id("client.submit"), c, op.span,
                                 index + 1)
                 : -1;
    auto token = conn.client->submit(job);
    if (submit_span >= 0) tracer_.end(submit_span);
    if (token.ok()) {
      op.token = token.value();
      conn.op_of_token[op.token] = index;
    } else {
      op.failed = true;
    }
  }
  ops_.push_back(op);
  if (!op.failed) conn.outstanding.push_back(index);
}

void LiveRun::collect(u32 c, i64 now) {
  Conn& conn = *conns_[c];
  const auto& stats = conn.client->stats();
  auto complete = [&](Op& op) {
    op.done_ns = now;
    if (op.span >= 0) tracer_.span(op.span).end_ns = now;
  };
  if (!shape_.submit && stats.acks_received != conn.acks_seen) {
    conn.acks_seen = stats.acks_received;
    const auto acked = conn.client->acked_versions(kServer);
    std::erase_if(conn.outstanding, [&](u32 i) {
      Op& op = ops_[i];
      const auto it = acked.find(conn.keys[op.file]);
      if (it == acked.end() || it->second < op.version) return false;
      complete(op);
      return true;
    });
  }
  if (shape_.submit && stats.outputs_received != conn.outputs_seen) {
    conn.outputs_seen = stats.outputs_received;
    std::erase_if(conn.outstanding, [&](u32 i) {
      Op& op = ops_[i];
      if (!conn.client->job_done(op.token)) return false;
      const auto& view = conn.client->jobs().at(op.token);
      auto output = conn.cluster.read_file(conn.host, view.output_path);
      op.failed = view.exit_code != 0 || !output.ok();
      if (output.ok()) {
        op.out_crc = crc_of(output.value());
        op.out_len = output.value().size();
      }
      complete(op);
      return true;
    });
  }
}

WindowResult LiveRun::window(bool traced, TraceCounters* counters) {
  WindowResult result;
  if (window_index_ >= windows_.size() || !daemon_) return result;
  const auto& arrivals = arrivals_[window_index_++];
  const bool open = shape_.open_rate > 0;

  tracing_ = traced;
  for (auto& conn : conns_) {
    if (conn->traced) conn->traced->set_enabled(traced);
  }
  double poll_self_before = 0.0, loadgen_cpu_before = 0.0, daemon_cpu_before = 0.0;
  if (traced && counters != nullptr) {
    if (auto snap = daemon_->snapshot(); snap.ok()) counters->daemon_before = snap.value();
    counters->client_before = shadow::telemetry::Registry::global().snapshot();
    daemon_cpu_before = daemon_->cpu_seconds();
    loadgen_cpu_before = cpu_self_seconds();
    for (auto& conn : conns_) poll_self_before += conn->traced->poll_self_us();
  }

  u64 bytes_before = 0;
  for (auto& conn : conns_) bytes_before += conn->tcp->bytes_sent();
  const std::size_t first_op = ops_.size();
  const double seconds = windows_[window_index_ - 1];
  in_window_ = traced;
  const i64 t0 = now_ns();
  const i64 deadline = t0 + static_cast<i64>(seconds * 1e9);
  const i64 grace_end = deadline + kGraceNs;

  std::size_t next = 0;
  i64 next_rss_sample = t0;
  std::vector<struct pollfd> fds(kConnections);
  while (true) {
    i64 now = now_ns();
    if (now >= next_rss_sample && now < deadline) {
      result.server_rss_mib.push_back(daemon_->rss_mib());
      next_rss_sample += 1'000'000'000;
    }
    while (open && next < arrivals.size() && t0 + arrivals[next].first <= now) {
      issue(arrivals[next].second, t0 + arrivals[next].first);
      ++next;
    }
    // A closed-loop connection with nothing in flight gets its next
    // operation here: at the start, and after an operation that failed to
    // issue (its socket would never become readable again).
    for (u32 c = 0; !open && now < deadline && c < kConnections; ++c) {
      if (conns_[c]->outstanding.empty()) issue(c, now);
    }
    std::size_t outstanding = 0;
    for (auto& conn : conns_) outstanding += conn->outstanding.size();
    if (now >= deadline && outstanding == 0) break;
    if (now >= grace_end) break;

    i64 wake = grace_end;
    if (now < deadline) wake = std::min(wake, deadline);
    if (open && next < arrivals.size()) wake = std::min(wake, t0 + arrivals[next].first);
    const i64 wait = std::max<i64>(0, wake - now);
    struct timespec timeout {static_cast<time_t>(wait / 1'000'000'000),
                             static_cast<long>(wait % 1'000'000'000)};
    for (u32 c = 0; c < kConnections; ++c) {
      fds[c] = {conns_[c]->tcp->fd(), POLLIN, 0};
    }
    ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    for (u32 c = 0; c < kConnections; ++c) {
      if (fds[c].revents == 0) continue;
      conns_[c]->transport()->poll();
      now = now_ns();
      collect(c, now);
      if (!open && now < deadline && conns_[c]->outstanding.empty()) {
        issue(c, now);
      }
    }
  }

  in_window_ = false;
  for (auto& conn : conns_) {
    result.wire_bytes += conn->tcp->bytes_sent();
    conn->outstanding.clear();  // unanswered after the grace period: failed
  }
  result.wire_bytes -= bytes_before;
  result.seconds = seconds;
  for (std::size_t i = first_op; i < ops_.size(); ++i) {
    Op& op = ops_[i];
    ++result.attempted;
    result.lag_ms.push_back(static_cast<double>(op.start_ns - op.due_ns) / 1e6);
    if (op.done_ns < 0 || op.failed) {
      op.failed = true;
      ++result.failed;
      continue;
    }
    result.latency_ms.push_back(static_cast<double>(op.done_ns - op.due_ns) / 1e6);
  }

  if (traced && counters != nullptr) {
    if (auto snap = daemon_->snapshot(); snap.ok()) counters->daemon_after = snap.value();
    counters->client_after = shadow::telemetry::Registry::global().snapshot();
    counters->daemon_cpu_s = daemon_->cpu_seconds() - daemon_cpu_before;
    counters->loadgen_cpu_s = cpu_self_seconds() - loadgen_cpu_before;
    double poll_self_after = 0.0;
    for (auto& conn : conns_) poll_self_after += conn->traced->poll_self_us();
    counters->poll_self_us = poll_self_after - poll_self_before;
  }
  return result;
}

std::pair<int, u64> LiveRun::attribute(u32 c, const shadow::Bytes& wire) const {
  const Conn& conn = *conns_[c];
  auto decoded = shadow::proto::decode_message(wire);
  if (!decoded.ok()) return {-1, 0};
  int op = -1;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, shadow::proto::PullRequest> ||
                      std::is_same_v<T, shadow::proto::UpdateAck>) {
          const auto it = conn.file_of_key.find(m.file.key());
          if (it != conn.file_of_key.end()) op = conn.last_op[it->second];
        } else if constexpr (std::is_same_v<T, shadow::proto::SubmitReply> ||
                             std::is_same_v<T, shadow::proto::JobOutput>) {
          const auto it = conn.op_of_token.find(m.client_job_token);
          if (it != conn.op_of_token.end()) op = static_cast<int>(it->second);
        }
      },
      decoded.value());
  if (op < 0) return {-1, 0};
  return {ops_[static_cast<std::size_t>(op)].span, static_cast<u64>(op) + 1};
}

void LiveRun::capture_sent(u32 c, const shadow::Bytes& wire) {
  // This runs inside the client's send, and so inside its spans and its
  // operation's latency: it only copies the frame. Decoding it and
  // rebuilding its base wait until captured().
  if (!in_window_ || wire.empty() ||
      wire[0] != static_cast<shadow::u8>(shadow::proto::MessageType::kUpdate) ||
      sent_.size() >= kCaptureFrames || sent_bytes_ >= kCaptureBytes) {
    return;
  }
  sent_bytes_ += wire.size() + shape_.file_bytes;  // the frame and its base
  sent_.push_back(Sent{c, wire});
}

std::vector<CapturedUpdate> LiveRun::captured() const {
  // The version each frame is a delta against, as (connection, file,
  // version); version 0 is a full transfer.
  using Base = std::tuple<u32, u32, u64>;
  std::vector<std::pair<CapturedUpdate, Base>> frames;
  std::map<Base, std::string> bases;
  for (const Sent& sent : sent_) {
    auto decoded = shadow::proto::decode_message(sent.frame);
    if (!decoded.ok()) continue;
    const auto& update = std::get<shadow::proto::Update>(decoded.value());
    const Conn& conn = *conns_[sent.conn];
    const auto file = conn.file_of_key.find(update.file.key());
    if (file == conn.file_of_key.end()) continue;
    const Base base{sent.conn, file->second, update.base_version};
    if (update.base_version != 0) bases.emplace(base, std::string{});
    frames.emplace_back(CapturedUpdate{sent.frame, {}}, base);
  }

  // Rebuild those versions from the seeded inputs: the initial contents,
  // then every edit in issue order.
  std::vector<std::vector<std::string>> content = initial_;
  auto keep = [&](u32 c, u32 f, u64 version) {
    const auto it = bases.find({c, f, version});
    if (it != bases.end() && it->second.empty()) it->second = content[c][f];
  };
  for (u32 c = 0; c < conns_.size(); ++c) {
    for (u32 f = 0; f < conns_[c]->initial_version.size(); ++f) {
      keep(c, f, conns_[c]->initial_version[f]);
    }
  }
  for (const Op& op : ops_) {
    if (op.version == 0) continue;  // a final cat job, not a save
    const Edit& edit = edits_[op.conn][op.edit];
    apply_edit(edit, content[op.conn][edit.file]);
    keep(op.conn, edit.file, op.version);
  }

  std::vector<CapturedUpdate> out;
  for (auto& [update, base] : frames) {
    if (std::get<2>(base) != 0) {
      const std::string& content_of_base = bases.at(base);
      if (content_of_base.empty()) continue;  // not a version of this run
      update.base = content_of_base;
    }
    out.push_back(std::move(update));
  }
  return out;
}

u64 LiveRun::verify(bool corrupt, u64* attempted, u64* failed) {
  u64 mismatches = 0;
  const shadow::job::Executor executor;
  auto run_local = [&](const std::string& command,
                       std::map<std::string, std::string> inputs) {
    const i64 t0 = now_ns();
    auto result = executor.run_command_file(command, std::move(inputs));
    exec_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    return result;
  };

  // Jobs of the windows. Walking each connection's edits in issue order
  // gives every version's bytes; the daemon runs a job on the version it
  // names or on a newer one that reached it first (the same file saved
  // again while the job waited), so an output must match the local run
  // on one of those.
  if (shape_.submit) {
    std::vector<std::vector<std::string>> content = initial_;
    std::vector<std::pair<u32, u64>> expected;  // output crc, length
    for (const Op& op : ops_) {
      const Edit& edit = edits_[op.conn][op.edit];
      std::string& text = content[op.conn][edit.file];
      apply_edit(edit, text);
      auto local = run_local(command_for(op.file), {{file_name(op.file), text}});
      expected.emplace_back(
          local.ok() ? crc_of(local.value().output) : 0,
          local.ok() && local.value().exit_code == 0 ? local.value().output.size()
                                                     : ~u64{0});
    }
    bool flipped = false;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (op.failed || op.done_ns < 0) continue;
      std::pair<u32, u64> got{op.out_crc, op.out_len};
      if (corrupt && !flipped) {
        got.first ^= 1;
        flipped = true;
      }
      bool match = false;
      for (std::size_t k = i; k < ops_.size() && !match; ++k) {
        const Op& later = ops_[k];
        if (later.start_ns > op.done_ns) break;
        if (later.conn == op.conn && later.file == op.file) {
          match = expected[k] == got;
        }
      }
      if (!match) ++mismatches;
    }
  }

  // One cat per connection over all its files: the daemon's copy of every
  // file must equal the client's current bytes.
  tracing_ = traced_run_;
  std::vector<u64> tokens(kConnections, 0);
  std::string command = "cat";
  for (u32 f = 0; f < shape_.files_per_conn; ++f) command += " " + file_name(f);
  command += "\n";
  for (u32 c = 0; c < kConnections && daemon_; ++c) {
    Conn& conn = *conns_[c];
    shadow::client::ShadowClient::SubmitOptions job;
    job.files = conn.paths;
    job.command_file = command;
    job.output_path = "/home/user/final.out";
    job.error_path = "/home/user/final.err";
    const u32 index = static_cast<u32>(ops_.size());
    Op op;
    op.conn = c;
    op.start_ns = op.due_ns = now_ns();
    if (tracing_) {
      op.span = tracer_.begin(tracer_.name_id("e2e.verify"), c, -1, index + 1);
    }
    const int submit_span =
        tracing_ ? tracer_.begin(tracer_.name_id("client.submit"), c, op.span,
                                 index + 1)
                 : -1;
    auto token = conn.client->submit(job);
    if (submit_span >= 0) tracer_.end(submit_span);
    ++*attempted;
    if (!token.ok()) {
      ++*failed;
      continue;
    }
    tokens[c] = op.token = token.value();
    conn.op_of_token[op.token] = index;
    ops_.push_back(op);
  }
  const i64 deadline = now_ns() + kSetupTimeoutNs;
  std::vector<bool> done(kConnections, false);
  while (now_ns() < deadline && daemon_) {
    bool all_done = true;
    for (u32 c = 0; c < kConnections; ++c) {
      if (tokens[c] == 0 || done[c]) continue;
      done[c] = conns_[c]->client->job_done(tokens[c]);
      const Op& op = ops_[conns_[c]->op_of_token.at(tokens[c])];
      if (done[c] && op.span >= 0) tracer_.span(op.span).end_ns = now_ns();
      all_done = all_done && done[c];
    }
    if (all_done) break;
    pump();
  }
  for (u32 c = 0; c < kConnections && daemon_; ++c) {
    Conn& conn = *conns_[c];
    if (tokens[c] == 0) continue;
    if (!done[c]) {
      ++*failed;
      ++mismatches;
      continue;
    }
    std::map<std::string, std::string> inputs;
    std::string expected;
    for (u32 f = 0; f < shape_.files_per_conn; ++f) {
      inputs[file_name(f)] = conn.content[f];
      expected += conn.content[f];
    }
    // The local executor is the reference for the window jobs above; hold
    // it to the same bytes here.
    auto local = run_local(command, std::move(inputs));
    if (!local.ok() || local.value().output != expected) ++mismatches;
    if (corrupt && c == 0) expected[expected.size() / 2] ^= 1;
    auto output = conn.cluster.read_file(conn.host, "/home/user/final.out");
    if (!output.ok() || output.value() != expected ||
        conn.client->jobs().at(tokens[c]).exit_code != 0) {
      ++mismatches;
    }
  }
  tracing_ = false;
  return mismatches;
}

void LiveRun::stop_daemon() {
  if (!daemon_) return;
  daemon_->stop();
  daemon_.reset();
  std::error_code ec;
  std::filesystem::remove_all(journal_, ec);
}

}  // namespace shadowbench
