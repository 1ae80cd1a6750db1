// Telemetry subsystem tests: registry/histogram/event-ring units, the
// AdminQuery/AdminReply codec (round-trip + malformed-input rejection),
// and the metrics-invariant sweep — accounting identities that must hold
// after ANY workload, checked across 100 chaos schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "core/crash.hpp"
#include "persist/durable_store.hpp"
#include "persist/fault_fs.hpp"
#include "persist/storage.hpp"
#include "proto/admin.hpp"
#include "proto/messages.hpp"
#include "telemetry/registry.hpp"

namespace shadow {
namespace {

using telemetry::Event;
using telemetry::EventKind;
using telemetry::EventRing;
using telemetry::Histogram;
using telemetry::Registry;

// ---- registry units ----------------------------------------------------

TEST(Registry, CounterFetchOrCreateReturnsStableReference) {
  Registry reg;
  telemetry::Counter& a = reg.counter("x.events");
  telemetry::Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.add();
  a.add(41);
  EXPECT_EQ(b.value(), 42u);
}

TEST(Registry, GaugeSetOverwrites) {
  Registry reg;
  auto& g = reg.gauge("x.reading");
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("x.reading").value(), -1.0);
}

TEST(Registry, SnapshotIsSortedAndPrefixFiltered) {
  Registry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.counter("c.three").add(3);
  reg.gauge("b.gauge").set(7.0);

  auto all = reg.snapshot();
  ASSERT_EQ(all.counters.size(), 3u);
  EXPECT_EQ(all.counters[0].name, "a.one");
  EXPECT_EQ(all.counters[1].name, "b.two");
  EXPECT_EQ(all.counters[2].name, "c.three");

  auto filtered = reg.snapshot("b.");
  ASSERT_EQ(filtered.counters.size(), 1u);
  EXPECT_EQ(filtered.counters[0].name, "b.two");
  ASSERT_EQ(filtered.gauges.size(), 1u);
  EXPECT_EQ(filtered.gauges[0].name, "b.gauge");
}

TEST(Registry, ResetZeroesValuesButKeepsReferences) {
  Registry reg;
  auto& c = reg.counter("x.count");
  auto& h = reg.histogram("x.sizes");
  c.add(5);
  h.observe(100);
  reg.events().record(EventKind::kServer, "before reset");
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.events().total_recorded(), 0u);
  c.add(1);  // the reference survived
  EXPECT_EQ(reg.counter("x.count").value(), 1u);
}

TEST(Histogram, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(~u64{0}), Histogram::kBuckets - 1);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
  }
}

TEST(Histogram, ObserveCountsAndSums) {
  Registry reg;
  auto& h = reg.histogram("x.bytes");
  h.observe(0);
  h.observe(1);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001u);
  u64 total = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) total += h.bucket(i);
  EXPECT_EQ(total, h.count());
}

// ---- event ring --------------------------------------------------------

TEST(EventRingTest, SequencesAreContiguousFromOne) {
  EventRing ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.record(EventKind::kCache, "e" + std::to_string(i));
  }
  auto events = ring.recent();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
  }
}

TEST(EventRingTest, KeepsTheMostRecentCapacityEvents) {
  constexpr std::size_t kCap = 16;
  EventRing ring(kCap);
  for (int i = 1; i <= 100; ++i) {
    ring.record(EventKind::kJob, "event " + std::to_string(i));
  }
  EXPECT_EQ(ring.total_recorded(), 100u);
  auto events = ring.recent();
  ASSERT_EQ(events.size(), kCap);
  // The ring holds exactly seqs 85..100, oldest first, no gaps.
  EXPECT_EQ(events.front().seq, 100u - kCap + 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, 100u);
  EXPECT_EQ(events.back().detail, "event 100");
}

TEST(EventRingTest, RecentMaxReturnsNewestSuffix) {
  EventRing ring(8);
  for (int i = 1; i <= 6; ++i) ring.record(EventKind::kServer, "x");
  auto last2 = ring.recent(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].seq, 5u);
  EXPECT_EQ(last2[1].seq, 6u);
}

TEST(EventRingTest, DetailTruncatedAtRecordTime) {
  EventRing ring(4);
  ring.record(EventKind::kServer, std::string(1000, 'a'));
  auto events = ring.recent();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail.size(), EventRing::kMaxDetailBytes);
}

TEST(EventRingTest, ConcurrentProducersKeepInvariants) {
  // The sharded server records from every shard thread at once. After the
  // producers quiesce, the ring must still hold the most recent window
  // with strictly increasing, gap-free sequence numbers and intact
  // payloads — no torn strings, no duplicated slots.
  constexpr std::size_t kCap = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  EventRing ring(kCap);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.record(EventKind::kMessage,
                    "p" + std::to_string(t) + " #" + std::to_string(i));
      }
    });
  }
  for (auto& p : producers) p.join();

  const u64 total = static_cast<u64>(kThreads) * kPerThread;
  EXPECT_EQ(ring.total_recorded(), total);
  auto events = ring.recent();
  ASSERT_EQ(events.size(), kCap);
  EXPECT_EQ(events.front().seq, total - kCap + 1);
  EXPECT_EQ(events.back().seq, total);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1) << "gap at " << i;
  }
  for (const auto& e : events) {
    // Payload is whole: "p<T> #<I>" with both fields in range.
    ASSERT_EQ(e.detail[0], 'p') << e.detail;
    const auto space = e.detail.find(" #");
    ASSERT_NE(space, std::string::npos) << e.detail;
    const int t = std::stoi(e.detail.substr(1, space - 1));
    const int i = std::stoi(e.detail.substr(space + 2));
    EXPECT_GE(t, 0);
    EXPECT_LT(t, kThreads);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, kPerThread);
  }
}

TEST(EventRingTest, ReadersRunConcurrentlyWithProducers) {
  // recent() under live producers: entries may be skipped (writes in
  // flight) but what comes back is always well-formed and ordered.
  EventRing ring(32);
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ring.record(EventKind::kLoad, "spin event with a real payload");
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    auto events = ring.recent();
    for (std::size_t i = 1; i < events.size(); ++i) {
      ASSERT_GT(events[i].seq, events[i - 1].seq);
    }
    for (const auto& e : events) {
      ASSERT_EQ(e.detail, "spin event with a real payload");
      ASSERT_EQ(e.kind, EventKind::kLoad);
    }
  }
  stop.store(true);
  for (auto& p : producers) p.join();
}

// ---- admin codec -------------------------------------------------------

TEST(AdminCodec, QueryRoundTrip) {
  proto::AdminQuery q;
  q.sections = proto::kAdminCounters | proto::kAdminEvents;
  q.prefix = "cache.";
  q.max_events = 32;

  auto decoded = proto::decode_message(proto::encode_message(q));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  auto* back = std::get_if<proto::AdminQuery>(&decoded.value());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->protocol_version, proto::kAdminProtocolVersion);
  EXPECT_EQ(back->sections, q.sections);
  EXPECT_EQ(back->prefix, "cache.");
  EXPECT_EQ(back->max_events, 32u);
}

TEST(AdminCodec, ReplyRoundTripPreservesEverySection) {
  proto::AdminReply r;
  r.server_name = "supercomputer";
  r.events_total = 999;
  r.snapshot.counters = {{"a.one", 1}, {"z.last", ~u64{0}}};
  r.snapshot.gauges = {{"load.average", 0.62}, {"neg", -3.25}};
  telemetry::HistogramSnapshot h;
  h.name = "cache.entry_bytes";
  h.count = 3;
  h.sum = 1001;
  h.buckets = {{0, 1}, {10, 2}};
  r.snapshot.histograms = {h};
  r.snapshot.events = {{41, EventKind::kCache, "cached f v2"},
                       {42, EventKind::kJob, "job 7 accepted"}};

  auto decoded = proto::decode_message(proto::encode_message(r));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  auto* back = std::get_if<proto::AdminReply>(&decoded.value());
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->server_name, "supercomputer");
  EXPECT_EQ(back->events_total, 999u);
  ASSERT_EQ(back->snapshot.counters.size(), 2u);
  EXPECT_EQ(back->snapshot.counters[1].name, "z.last");
  EXPECT_EQ(back->snapshot.counters[1].value, ~u64{0});
  ASSERT_EQ(back->snapshot.gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(back->snapshot.gauges[0].value, 0.62);
  EXPECT_DOUBLE_EQ(back->snapshot.gauges[1].value, -3.25);
  ASSERT_EQ(back->snapshot.histograms.size(), 1u);
  EXPECT_EQ(back->snapshot.histograms[0].count, 3u);
  ASSERT_EQ(back->snapshot.histograms[0].buckets.size(), 2u);
  EXPECT_EQ(back->snapshot.histograms[0].buckets[1].first, 10);
  EXPECT_EQ(back->snapshot.histograms[0].buckets[1].second, 2u);
  ASSERT_EQ(back->snapshot.events.size(), 2u);
  EXPECT_EQ(back->snapshot.events[0].seq, 41u);
  EXPECT_EQ(back->snapshot.events[0].kind, EventKind::kCache);
  EXPECT_EQ(back->snapshot.events[1].detail, "job 7 accepted");
}

TEST(AdminCodec, ErrorReplyRoundTrip) {
  proto::AdminReply r;
  r.ok = false;
  r.error = "unsupported admin protocol version 9";
  auto decoded = proto::decode_message(proto::encode_message(r));
  ASSERT_TRUE(decoded.ok());
  auto* back = std::get_if<proto::AdminReply>(&decoded.value());
  ASSERT_NE(back, nullptr);
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, "unsupported admin protocol version 9");
}

TEST(AdminCodec, TruncatedBytesAreRejectedNotCrashed) {
  proto::AdminReply r;
  r.server_name = "s";
  r.snapshot.counters = {{"a", 1}, {"b", 2}};
  r.snapshot.events = {{1, EventKind::kServer, "hello"}};
  Bytes wire = proto::encode_message(r);
  // Every strict prefix must decode to an error, never to a value.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + len);
    auto decoded = proto::decode_message(truncated);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(AdminCodec, TrailingGarbageIsRejected) {
  Bytes wire = proto::encode_message(proto::AdminQuery{});
  wire.push_back(0x7f);
  EXPECT_FALSE(proto::decode_message(wire).ok());
}

TEST(AdminCodec, OutOfRangeBucketIndexIsRejected) {
  proto::AdminReply r;
  telemetry::HistogramSnapshot h;
  h.name = "x";
  h.count = 1;
  h.sum = 1;
  h.buckets = {{static_cast<u8>(telemetry::Histogram::kBuckets), 1}};
  r.snapshot.histograms = {h};
  EXPECT_FALSE(proto::decode_message(proto::encode_message(r)).ok());
}

// ---- build_admin_reply -------------------------------------------------

TEST(AdminReplyBuilder, VersionMismatchIsRefused) {
  Registry reg;
  proto::AdminQuery q;
  q.protocol_version = proto::kAdminProtocolVersion + 1;
  auto reply = proto::build_admin_reply(q, reg, "srv");
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.error.find("unsupported"), std::string::npos);
  EXPECT_TRUE(reply.snapshot.counters.empty());
}

TEST(AdminReplyBuilder, SectionMaskGatesEachSection) {
  Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(1.0);
  reg.histogram("h").observe(1);
  reg.events().record(EventKind::kServer, "e");

  proto::AdminQuery q;
  q.sections = proto::kAdminGauges;
  q.max_events = 10;
  auto reply = proto::build_admin_reply(q, reg, "srv");
  ASSERT_TRUE(reply.ok);
  EXPECT_TRUE(reply.server_name.empty());
  EXPECT_TRUE(reply.snapshot.counters.empty());
  EXPECT_EQ(reply.snapshot.gauges.size(), 1u);
  EXPECT_TRUE(reply.snapshot.histograms.empty());
  EXPECT_TRUE(reply.snapshot.events.empty());
  EXPECT_EQ(reply.events_total, 0u);

  q.sections = proto::kAdminAllSections;
  reply = proto::build_admin_reply(q, reg, "srv");
  EXPECT_EQ(reply.server_name, "srv");
  EXPECT_EQ(reply.snapshot.counters.size(), 1u);
  EXPECT_EQ(reply.snapshot.events.size(), 1u);
  EXPECT_EQ(reply.events_total, 1u);
}

// ---- renderers ---------------------------------------------------------

TEST(Render, TextAndJsonContainEveryMetricName) {
  Registry reg;
  reg.counter("cache.hits").add(3);
  reg.gauge("load.average").set(0.5);
  reg.histogram("persist.record_bytes").observe(64);
  reg.events().record(EventKind::kJournal, "compacted");
  auto snap = reg.snapshot("", 10);

  std::string text = telemetry::render_text(snap);
  EXPECT_NE(text.find("cache.hits"), std::string::npos);
  EXPECT_NE(text.find("load.average"), std::string::npos);
  EXPECT_NE(text.find("persist.record_bytes"), std::string::npos);
  EXPECT_NE(text.find("compacted"), std::string::npos);

  std::string json = telemetry::render_json(snap);
  EXPECT_NE(json.find("\"cache.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"load.average\""), std::string::npos);
  EXPECT_NE(json.find("\"persist.record_bytes\""), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);  // plain, no raw tabs
}

// ---- metrics invariants across chaos schedules -------------------------

// Accounting identities that must hold after ANY workload, fault schedule
// included. Checked from the global registry because that is exactly what
// shadowtop reads in production.
void expect_global_invariants(u64 seed) {
  auto& reg = Registry::global();
  const u64 lookups = reg.counter("cache.lookups").value();
  const u64 hits = reg.counter("cache.hits").value();
  const u64 misses = reg.counter("cache.misses").value();
  EXPECT_EQ(lookups, hits + misses) << "seed " << seed;

  const u64 computes = reg.counter("diff.computes").value();
  const u64 ed = reg.counter("diff.ed_deltas").value();
  const u64 block = reg.counter("diff.block_deltas").value();
  const u64 full = reg.counter("diff.full_fallbacks").value();
  EXPECT_EQ(computes, ed + block + full) << "seed " << seed;

  // Wire accounting: every frame's bytes split exactly into payload and
  // framing overhead, measured independently at encode time.
  const u64 wire = reg.counter("session.wire_bytes_sent").value();
  const u64 payload = reg.counter("session.payload_bytes_sent").value();
  const u64 overhead = reg.counter("session.frame_overhead_bytes").value();
  EXPECT_EQ(wire, payload + overhead) << "seed " << seed;

  const u64 transitions = reg.counter("job.transitions").value();
  const u64 completions = reg.counter("job.completions").value();
  const u64 failures = reg.counter("job.failures").value();
  const u64 deliveries = reg.counter("job.deliveries").value();
  EXPECT_GE(transitions, completions + failures + deliveries)
      << "seed " << seed;

  // The ring always holds the min(total, capacity) MOST RECENT events
  // with contiguous sequence numbers.
  const auto& ring = reg.events();
  auto events = ring.recent();
  EXPECT_EQ(events.size(),
            std::min<std::size_t>(ring.total_recorded(), ring.capacity()));
  if (!events.empty()) {
    EXPECT_EQ(events.back().seq, ring.total_recorded());
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq, events[i - 1].seq + 1) << "seed " << seed;
    }
  }

  // Group-commit accounting: at any quiesce point every record accepted
  // into the deferred path has been resolved exactly once — flushed
  // durable or failed with its batch — and a flush covers at least one
  // record. (Workloads that never batch keep all four counters at zero,
  // which satisfies the identity trivially.)
  const u64 group_records = reg.counter("persist.group_records").value();
  const u64 group_flushed =
      reg.counter("persist.group_flushed_records").value();
  const u64 group_failed =
      reg.counter("persist.group_failed_records").value();
  const u64 group_flushes = reg.counter("persist.group_flushes").value();
  EXPECT_EQ(group_records, group_flushed + group_failed) << "seed " << seed;
  EXPECT_LE(group_flushes, group_records) << "seed " << seed;

  // Histogram internal consistency.
  for (const auto& h : reg.snapshot().histograms) {
    u64 total = 0;
    for (const auto& [index, count] : h.buckets) total += count;
    EXPECT_EQ(total, h.count) << h.name << " seed " << seed;
  }
}

TEST(MetricsInvariants, HoldAcross100ChaosSeeds) {
  int converged = 0;
  for (u64 seed = 1; seed <= 100; ++seed) {
    Registry::global().reset_values();
    core::ChaosOptions options;
    options.seed = seed;
    options.client_to_server = core::random_fault_plan(seed * 2);
    options.server_to_client = core::random_fault_plan(seed * 2 + 1);
    options.edits = 4;
    options.file_bytes = 2'000;
    auto outcome = core::run_chaos_trial(options);
    if (outcome.converged) ++converged;
    expect_global_invariants(seed);
    // Repair accounting: every Update is applied or re-pulled in full.
    EXPECT_EQ(outcome.server.updates_received,
              outcome.server.updates_applied + outcome.server.full_repulls)
        << "seed " << seed;
  }
  // The sweep is about invariants, not convergence — but if (almost)
  // nothing converged the invariants were checked against empty runs.
  EXPECT_GT(converged, 80) << "chaos convergence collapsed";
}

TEST(MetricsInvariants, GroupCommitAccountingIdentityHolds) {
  Registry::global().reset_values();
  core::CrashOptions options;
  options.seed = 41;
  options.edits = 5;
  options.writers = 2;
  auto outcome = core::run_crash_trial(options, 0);
  ASSERT_TRUE(outcome.converged) << outcome.detail;

  auto& reg = Registry::global();
  const u64 records = reg.counter("persist.group_records").value();
  const u64 flushed = reg.counter("persist.group_flushed_records").value();
  const u64 failed = reg.counter("persist.group_failed_records").value();
  const u64 flushes = reg.counter("persist.group_flushes").value();
  EXPECT_GT(records, 0u);
  EXPECT_GT(flushes, 0u);
  // records appended == records flushed + records failed (+ pending,
  // which is zero at quiesce), and flushes never exceed records.
  EXPECT_EQ(records, flushed + failed);
  EXPECT_LE(flushes, records);
  // Batching happened: an fsync covered more than one record on average.
  EXPECT_LT(flushes, records);
  // Batch-shape histograms carry one sample per flush.
  bool found = false;
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == "persist.group_batch_records") {
      found = true;
      EXPECT_EQ(h.count, flushes);
      EXPECT_EQ(h.sum, static_cast<double>(records));
    }
  }
  EXPECT_TRUE(found);
  expect_global_invariants(41);
}

TEST(MetricsInvariants, GroupCommitFailedBatchCountsEveryRecordOnce) {
  Registry::global().reset_values();
  persist::MemDir mem;
  persist::StorageFaultPlan plan;
  plan.syncs_are_write_points = true;
  plan.crash_at_write = 3;  // two appends, then the dying batch fsync
  persist::FaultFs faults(&mem, plan);
  persist::DurableStore store(&faults, 100);

  Bytes body{0x41, 0x42};
  int callbacks = 0;
  auto count = [&callbacks](const Status&) { ++callbacks; };
  ASSERT_TRUE(
      store.append_deferred(persist::RecordType::kShadowCached, body, count)
          .ok());
  ASSERT_TRUE(
      store.append_deferred(persist::RecordType::kShadowCached, body, count)
          .ok());
  EXPECT_FALSE(store.flush().ok());
  EXPECT_EQ(callbacks, 2);

  auto& reg = Registry::global();
  EXPECT_EQ(reg.counter("persist.group_records").value(), 2u);
  EXPECT_EQ(reg.counter("persist.group_flushed_records").value(), 0u);
  EXPECT_EQ(reg.counter("persist.group_failed_records").value(), 2u);
  EXPECT_EQ(reg.counter("persist.group_flushes").value(), 1u);
  EXPECT_EQ(reg.counter("persist.group_flush_failures").value(), 1u);
}

TEST(MetricsInvariants, CleanTrialProducesNonZeroTelemetry) {
  Registry::global().reset_values();
  core::ChaosOptions options;  // no faults at all
  options.seed = 7;
  auto outcome = core::run_chaos_trial(options);
  ASSERT_TRUE(outcome.converged) << outcome.detail;
  auto& reg = Registry::global();
  EXPECT_GT(reg.counter("diff.computes").value(), 0u);
  EXPECT_GT(reg.counter("cache.puts").value(), 0u);
  EXPECT_GT(reg.counter("job.completions").value(), 0u);
  EXPECT_GT(reg.counter("session.wire_bytes_sent").value(), 0u);
  expect_global_invariants(7);
}

}  // namespace
}  // namespace shadow
