#include "scenario/spec.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/strings.hpp"

namespace shadow::scenario {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFlashCrowd: return "flash_crowd";
    case Workload::kHeavyEditor: return "heavy_editor";
    case Workload::kCasual: return "casual";
  }
  return "unknown";
}

namespace {

// ---- scalar value parsers ---------------------------------------------

bool parse_f64(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) return false;
  if (!std::isfinite(d)) return false;
  *out = d;
  return true;
}

bool parse_uint(const std::string& v, u64* out) {
  if (v.empty()) return false;
  u64 n = 0;
  for (char c : v) {
    if (c < '0' || c > '9') return false;
    if (n > (~u64{0} - static_cast<u64>(c - '0')) / 10) return false;
    n = n * 10 + static_cast<u64>(c - '0');
  }
  *out = n;
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v == "on" || v == "true" || v == "yes" || v == "1") {
    *out = true;
    return true;
  }
  if (v == "off" || v == "false" || v == "no" || v == "0") {
    *out = false;
    return true;
  }
  return false;
}

/// Split "<number><suffix>" (suffix may be empty). False when the numeric
/// part is missing or malformed.
bool split_number(const std::string& v, double* num, std::string* suffix) {
  if (v.empty()) return false;
  char* end = nullptr;
  *num = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || !std::isfinite(*num)) return false;
  *suffix = std::string(end);
  return true;
}

/// Durations: bare numbers are SECONDS; suffixes us/ms/s/min scale.
bool parse_duration(const std::string& v, sim::SimTime* out) {
  double num = 0;
  std::string suffix;
  if (!split_number(v, &num, &suffix) || num < 0) return false;
  double micros = 0;
  if (suffix.empty() || suffix == "s") {
    micros = num * 1e6;
  } else if (suffix == "us") {
    micros = num;
  } else if (suffix == "ms") {
    micros = num * 1e3;
  } else if (suffix == "min") {
    micros = num * 60e6;
  } else {
    return false;
  }
  *out = static_cast<sim::SimTime>(micros + 0.5);
  return true;
}

/// Sizes: bare bytes, or decimal KB/MB/GB.
bool parse_size(const std::string& v, u64* out) {
  double num = 0;
  std::string suffix;
  if (!split_number(v, &num, &suffix) || num < 0) return false;
  double bytes = num;
  if (suffix == "KB") {
    bytes = num * 1e3;
  } else if (suffix == "MB") {
    bytes = num * 1e6;
  } else if (suffix == "GB") {
    bytes = num * 1e9;
  } else if (!suffix.empty()) {
    return false;
  }
  *out = static_cast<u64>(bytes + 0.5);
  return true;
}

/// Line rates: bare bits/second, or k/M/G suffix.
bool parse_rate(const std::string& v, double* out) {
  double num = 0;
  std::string suffix;
  if (!split_number(v, &num, &suffix) || num <= 0) return false;
  if (suffix == "k") {
    num *= 1e3;
  } else if (suffix == "M") {
    num *= 1e6;
  } else if (suffix == "G") {
    num *= 1e9;
  } else if (!suffix.empty()) {
    return false;
  }
  *out = num;
  return true;
}

bool parse_workload(const std::string& v, Workload* out) {
  if (v == "flash_crowd") {
    *out = Workload::kFlashCrowd;
  } else if (v == "heavy_editor") {
    *out = Workload::kHeavyEditor;
  } else if (v == "casual") {
    *out = Workload::kCasual;
  } else {
    return false;
  }
  return true;
}

// ---- line scanner ------------------------------------------------------

struct SpecLine {
  std::size_t number = 0;  // 1-based
  int indent = 0;          // 0, 2 or 4 leading spaces
  std::string key;
  std::string value;  // empty for section headers
};

Error at(std::size_t line, const std::string& message) {
  return Error{ErrorCode::kInvalidArgument,
               "line " + std::to_string(line) + ": " + message};
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Lex the document into (indent, key, value) triples, rejecting tabs,
/// odd indents and lines without a ':'.
Result<std::vector<SpecLine>> scan(const std::string& text) {
  std::vector<SpecLine> lines;
  std::size_t number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string raw = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++number;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    if (trimmed(raw).empty()) continue;
    if (raw.find('\t') != std::string::npos) {
      return at(number, "tabs are not allowed; indent with spaces");
    }
    int indent = 0;
    while (static_cast<std::size_t>(indent) < raw.size() &&
           raw[static_cast<std::size_t>(indent)] == ' ') {
      ++indent;
    }
    if (indent != 0 && indent != 2 && indent != 4) {
      return at(number, "indentation must be 0, 2 or 4 spaces");
    }
    const std::string body = trimmed(raw);
    const std::size_t colon = body.find(':');
    if (colon == std::string::npos) {
      return at(number, "expected 'key: value' or 'section:'");
    }
    SpecLine line;
    line.number = number;
    line.indent = indent;
    line.key = trimmed(body.substr(0, colon));
    line.value = trimmed(body.substr(colon + 1));
    if (line.key.empty()) return at(number, "empty key");
    lines.push_back(std::move(line));
  }
  return lines;
}

// ---- section appliers --------------------------------------------------

Status apply_general(Scenario* s, const SpecLine& l) {
  if (l.key == "duration") {
    if (!parse_duration(l.value, &s->duration) || s->duration == 0) {
      return at(l.number, "bad duration '" + l.value + "' (try '60s')");
    }
  } else if (l.key == "seed") {
    if (!parse_uint(l.value, &s->seed)) {
      return at(l.number, "bad seed '" + l.value + "'");
    }
  } else if (l.key == "name") {
    if (l.value.empty()) return at(l.number, "empty scenario name");
    s->name = l.value;
  } else {
    return at(l.number, "unknown general key '" + l.key + "'");
  }
  return Status::ok_status();
}

Status apply_server(Scenario* s, const SpecLine& l) {
  ServerShape& sv = s->server;
  u64 n = 0;
  if (l.key == "name") {
    if (l.value.empty()) return at(l.number, "empty server name");
    sv.name = l.value;
  } else if (l.key == "shards") {
    if (!parse_uint(l.value, &n) || n == 0 || n > 64) {
      return at(l.number, "shards must be 1..64, got '" + l.value + "'");
    }
    sv.shards = static_cast<std::size_t>(n);
  } else if (l.key == "journal") {
    if (!parse_bool(l.value, &sv.journal)) {
      return at(l.number, "bad journal '" + l.value + "' (on|off)");
    }
  } else if (l.key == "cache_budget") {
    if (!parse_size(l.value, &sv.cache_budget)) {
      return at(l.number, "bad cache_budget '" + l.value + "'");
    }
  } else if (l.key == "eviction") {
    if (l.value == "lru") {
      sv.eviction = cache::EvictionPolicy::kLru;
    } else if (l.value == "fifo") {
      sv.eviction = cache::EvictionPolicy::kFifo;
    } else if (l.value == "largest") {
      sv.eviction = cache::EvictionPolicy::kLargestFirst;
    } else {
      return at(l.number, "eviction must be lru|fifo|largest");
    }
  } else if (l.key == "pull") {
    if (l.value == "eager") {
      sv.pull = server::PullPolicy::kEager;
    } else if (l.value == "lazy") {
      sv.pull = server::PullPolicy::kLazyOnSubmit;
    } else {
      return at(l.number, "pull must be eager|lazy");
    }
  } else if (l.key == "max_pulls") {
    if (!parse_uint(l.value, &n) || n == 0) {
      return at(l.number, "bad max_pulls '" + l.value + "'");
    }
    sv.max_pulls = static_cast<std::size_t>(n);
  } else if (l.key == "executor_slots") {
    if (!parse_uint(l.value, &n) || n == 0) {
      return at(l.number, "bad executor_slots '" + l.value + "'");
    }
    sv.executor_slots = static_cast<std::size_t>(n);
  } else if (l.key == "cpu_ops_per_second") {
    if (!parse_f64(l.value, &sv.cpu_ops_per_second) ||
        sv.cpu_ops_per_second <= 0) {
      return at(l.number, "bad cpu_ops_per_second '" + l.value + "'");
    }
  } else if (l.key == "max_active_jobs") {
    if (!parse_uint(l.value, &n)) {
      return at(l.number, "bad max_active_jobs '" + l.value + "'");
    }
    sv.max_active_jobs = static_cast<std::size_t>(n);
  } else if (l.key == "retry_after") {
    if (!parse_duration(l.value, &sv.retry_after)) {
      return at(l.number, "bad retry_after '" + l.value + "'");
    }
  } else if (l.key == "reverse_shadow") {
    if (!parse_bool(l.value, &sv.reverse_shadow)) {
      return at(l.number, "bad reverse_shadow '" + l.value + "' (on|off)");
    }
  } else {
    return at(l.number, "unknown server key '" + l.key + "'");
  }
  return Status::ok_status();
}

Status apply_link(LinkProfile* p, const SpecLine& l) {
  if (l.key == "base") {
    sim::LinkConfig base;
    if (!sim::link_preset(l.value, &base)) {
      return at(l.number, "unknown base preset '" + l.value + "'");
    }
    const std::string keep = p->link.name;
    p->link = base;
    p->link.name = keep;
  } else if (l.key == "bandwidth") {
    if (!parse_rate(l.value, &p->link.bits_per_second)) {
      return at(l.number, "bad bandwidth '" + l.value + "' (try '56k')");
    }
  } else if (l.key == "latency") {
    if (!parse_duration(l.value, &p->link.latency)) {
      return at(l.number, "bad latency '" + l.value + "'");
    }
  } else if (l.key == "overhead") {
    if (!parse_uint(l.value, &p->link.per_message_overhead)) {
      return at(l.number, "bad overhead '" + l.value + "'");
    }
  } else if (l.key == "congestion") {
    if (!parse_f64(l.value, &p->link.congestion_factor) ||
        p->link.congestion_factor < 1.0) {
      return at(l.number, "congestion must be >= 1.0");
    }
  } else if (l.key == "loss") {
    if (!parse_f64(l.value, &p->loss) || p->loss < 0 || p->loss >= 1) {
      return at(l.number, "loss must be in [0, 1)");
    }
  } else if (l.key == "jitter") {
    if (!parse_duration(l.value, &p->jitter)) {
      return at(l.number, "bad jitter '" + l.value + "'");
    }
  } else if (l.key == "jitter_p") {
    if (!parse_f64(l.value, &p->jitter_p) || p->jitter_p < 0 ||
        p->jitter_p >= 1) {
      return at(l.number, "jitter_p must be in [0, 1)");
    }
  } else {
    return at(l.number, "unknown link key '" + l.key + "'");
  }
  return Status::ok_status();
}

Status apply_host(HostClass* h, const SpecLine& l) {
  if (l.key == "quantity") {
    if (!parse_uint(l.value, &h->quantity) || h->quantity == 0) {
      return at(l.number, "quantity must be >= 1");
    }
  } else if (l.key == "link") {
    if (l.value.empty()) return at(l.number, "empty link name");
    h->link = l.value;
  } else if (l.key == "workload") {
    if (!parse_workload(l.value, &h->workload)) {
      return at(l.number,
                "workload must be flash_crowd|heavy_editor|casual");
    }
  } else if (l.key == "file_size") {
    if (!parse_size(l.value, &h->file_size) || h->file_size == 0) {
      return at(l.number, "bad file_size '" + l.value + "' (try '20KB')");
    }
  } else if (l.key == "file_spread") {
    if (!parse_f64(l.value, &h->file_spread) || h->file_spread < 0 ||
        h->file_spread >= 1) {
      return at(l.number, "file_spread must be in [0, 1)");
    }
  } else if (l.key == "edit_percent") {
    if (!parse_f64(l.value, &h->edit_percent) || h->edit_percent <= 0 ||
        h->edit_percent > 100) {
      return at(l.number, "edit_percent must be in (0, 100]");
    }
  } else if (l.key == "binary") {
    if (!parse_bool(l.value, &h->binary)) {
      return at(l.number, "bad binary '" + l.value + "' (on|off)");
    }
  } else if (l.key == "start") {
    if (!parse_duration(l.value, &h->start)) {
      return at(l.number, "bad start '" + l.value + "'");
    }
  } else if (l.key == "burst") {
    if (!parse_duration(l.value, &h->burst) || h->burst == 0) {
      return at(l.number, "burst must be a positive duration");
    }
  } else if (l.key == "think") {
    if (!parse_duration(l.value, &h->think) || h->think == 0) {
      return at(l.number, "think must be a positive duration");
    }
  } else if (l.key == "cycles") {
    if (!parse_uint(l.value, &h->cycles)) {
      return at(l.number, "bad cycles '" + l.value + "'");
    }
  } else if (l.key == "submit_p") {
    if (!parse_f64(l.value, &h->submit_p) || h->submit_p < 0 ||
        h->submit_p > 1) {
      return at(l.number, "submit_p must be in [0, 1]");
    }
  } else if (l.key == "job_ops") {
    if (!parse_uint(l.value, &h->job_ops) || h->job_ops == 0) {
      return at(l.number, "job_ops must be >= 1");
    }
  } else if (l.key == "request_driven") {
    if (!parse_bool(l.value, &h->request_driven)) {
      return at(l.number, "bad request_driven '" + l.value + "' (on|off)");
    }
  } else if (l.key == "background_updates") {
    if (!parse_bool(l.value, &h->background_updates)) {
      return at(l.number,
                "bad background_updates '" + l.value + "' (on|off)");
    }
  } else {
    return at(l.number, "unknown host key '" + l.key + "'");
  }
  return Status::ok_status();
}

}  // namespace

Result<Scenario> parse_scenario(const std::string& text) {
  SHADOW_ASSIGN_OR_RETURN(lines, scan(text));

  Scenario scenario;
  enum class Section { kNone, kGeneral, kServer, kLinks, kHosts };
  Section section = Section::kNone;
  LinkProfile* open_link = nullptr;
  HostClass* open_host = nullptr;

  for (const SpecLine& l : lines) {
    if (l.indent == 0) {
      open_link = nullptr;
      open_host = nullptr;
      if (!l.value.empty()) {
        return at(l.number, "section header takes no value");
      }
      if (l.key == "general") {
        section = Section::kGeneral;
      } else if (l.key == "server") {
        section = Section::kServer;
      } else if (l.key == "links") {
        section = Section::kLinks;
      } else if (l.key == "hosts") {
        section = Section::kHosts;
      } else {
        return at(l.number, "unknown section '" + l.key +
                                "' (general|server|links|hosts)");
      }
      continue;
    }

    if (section == Section::kNone) {
      return at(l.number, "key before any section header");
    }

    if (l.indent == 2) {
      switch (section) {
        case Section::kGeneral:
          SHADOW_TRY(apply_general(&scenario, l));
          break;
        case Section::kServer:
          SHADOW_TRY(apply_server(&scenario, l));
          break;
        case Section::kLinks: {
          if (!l.value.empty()) {
            return at(l.number, "link profile '" + l.key +
                                    "' must be a section, not a value");
          }
          if (scenario.links.count(l.key) != 0) {
            return at(l.number, "duplicate link profile '" + l.key + "'");
          }
          LinkProfile profile;
          profile.link.name = l.key;
          open_link = &scenario.links.emplace(l.key, profile).first->second;
          break;
        }
        case Section::kHosts: {
          if (!l.value.empty()) {
            return at(l.number, "host class '" + l.key +
                                    "' must be a section, not a value");
          }
          for (const auto& h : scenario.hosts) {
            if (h.name == l.key) {
              return at(l.number, "duplicate host class '" + l.key + "'");
            }
          }
          HostClass host;
          host.name = l.key;
          scenario.hosts.push_back(host);
          open_host = &scenario.hosts.back();
          break;
        }
        case Section::kNone:
          break;
      }
      continue;
    }

    // indent == 4: a property of the open link profile or host class.
    if (open_link != nullptr) {
      SHADOW_TRY(apply_link(open_link, l));
    } else if (open_host != nullptr) {
      SHADOW_TRY(apply_host(open_host, l));
    } else {
      return at(l.number, "4-space indent outside a links/hosts entry");
    }
  }

  if (scenario.hosts.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "spec defines no host classes (hosts: section)"};
  }
  for (const auto& host : scenario.hosts) {
    if (!resolve_link(scenario, host.link, nullptr)) {
      return Error{ErrorCode::kInvalidArgument,
                   "host class '" + host.name + "' names unknown link '" +
                       host.link + "'"};
    }
  }
  return scenario;
}

bool resolve_link(const Scenario& scenario, const std::string& name,
                  LinkProfile* out) {
  auto it = scenario.links.find(name);
  if (it != scenario.links.end()) {
    if (out != nullptr) *out = it->second;
    return true;
  }
  sim::LinkConfig preset;
  if (sim::link_preset(name, &preset)) {
    if (out != nullptr) {
      *out = LinkProfile{};
      out->link = preset;
    }
    return true;
  }
  return false;
}

namespace {
void append_kv(std::string* out, int indent, const char* key,
               const std::string& value) {
  out->append(static_cast<std::size_t>(indent), ' ');
  out->append(key);
  out->append(": ");
  out->append(value);
  out->push_back('\n');
}

std::string fmt_u64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_duration(sim::SimTime usec) { return fmt_u64(usec) + "us"; }
}  // namespace

std::string to_text(const Scenario& s) {
  std::string out;
  out += "general:\n";
  append_kv(&out, 2, "name", s.name);
  append_kv(&out, 2, "duration", fmt_duration(s.duration));
  append_kv(&out, 2, "seed", fmt_u64(s.seed));

  out += "server:\n";
  const ServerShape& sv = s.server;
  append_kv(&out, 2, "name", sv.name);
  append_kv(&out, 2, "shards", fmt_u64(sv.shards));
  append_kv(&out, 2, "journal", sv.journal ? "on" : "off");
  append_kv(&out, 2, "cache_budget", fmt_u64(sv.cache_budget));
  append_kv(&out, 2, "eviction",
            sv.eviction == cache::EvictionPolicy::kLru     ? "lru"
            : sv.eviction == cache::EvictionPolicy::kFifo ? "fifo"
                                                          : "largest");
  append_kv(&out, 2, "pull",
            sv.pull == server::PullPolicy::kEager ? "eager" : "lazy");
  append_kv(&out, 2, "max_pulls", fmt_u64(sv.max_pulls));
  append_kv(&out, 2, "executor_slots", fmt_u64(sv.executor_slots));
  append_kv(&out, 2, "cpu_ops_per_second", fmt_f64(sv.cpu_ops_per_second));
  append_kv(&out, 2, "max_active_jobs", fmt_u64(sv.max_active_jobs));
  append_kv(&out, 2, "retry_after", fmt_duration(sv.retry_after));
  append_kv(&out, 2, "reverse_shadow", sv.reverse_shadow ? "on" : "off");

  if (!s.links.empty()) {
    out += "links:\n";
    for (const auto& [name, p] : s.links) {
      out += "  " + name + ":\n";
      append_kv(&out, 4, "bandwidth", fmt_f64(p.link.bits_per_second));
      append_kv(&out, 4, "latency", fmt_duration(p.link.latency));
      append_kv(&out, 4, "overhead", fmt_u64(p.link.per_message_overhead));
      append_kv(&out, 4, "congestion", fmt_f64(p.link.congestion_factor));
      append_kv(&out, 4, "loss", fmt_f64(p.loss));
      append_kv(&out, 4, "jitter", fmt_duration(p.jitter));
      append_kv(&out, 4, "jitter_p", fmt_f64(p.jitter_p));
    }
  }

  out += "hosts:\n";
  for (const auto& h : s.hosts) {
    out += "  " + h.name + ":\n";
    append_kv(&out, 4, "quantity", fmt_u64(h.quantity));
    append_kv(&out, 4, "link", h.link);
    append_kv(&out, 4, "workload", workload_name(h.workload));
    append_kv(&out, 4, "file_size", fmt_u64(h.file_size));
    append_kv(&out, 4, "file_spread", fmt_f64(h.file_spread));
    append_kv(&out, 4, "edit_percent", fmt_f64(h.edit_percent));
    append_kv(&out, 4, "binary", h.binary ? "on" : "off");
    append_kv(&out, 4, "start", fmt_duration(h.start));
    append_kv(&out, 4, "burst", fmt_duration(h.burst));
    append_kv(&out, 4, "think", fmt_duration(h.think));
    append_kv(&out, 4, "cycles", fmt_u64(h.cycles));
    append_kv(&out, 4, "submit_p", fmt_f64(h.submit_p));
    append_kv(&out, 4, "job_ops", fmt_u64(h.job_ops));
    append_kv(&out, 4, "request_driven", h.request_driven ? "on" : "off");
    append_kv(&out, 4, "background_updates",
              h.background_updates ? "on" : "off");
  }
  return out;
}

}  // namespace shadow::scenario
