// Fuzz-style robustness tests: every decoder must reject arbitrary and
// mutated input gracefully — error returns, never crashes, never runaway
// allocation. Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include "cdc/cdc_delta.hpp"
#include "cdc/chunker.hpp"
#include "cdc/signature.hpp"
#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "compress/compress.hpp"
#include "core/workload.hpp"
#include "diff/diff.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "server/shadow_server.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<u64>(GetParam()) * 2654435761ULL + 17};
};

TEST_P(FuzzSeeds, RandomBytesIntoMessageDecoder) {
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(300));
    auto result = proto::decode_message(junk);
    // Either a clean parse (possible for tiny valid prefixes) or a clean
    // error; just must not crash or hang.
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    }
  }
}

TEST_P(FuzzSeeds, RandomBytesIntoDeltaDecoder) {
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(300));
    BufReader reader(junk);
    (void)diff::Delta::decode(reader);
  }
}

TEST_P(FuzzSeeds, RandomBytesIntoDecompressor) {
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(300));
    (void)compress::decompress(junk);
  }
}

TEST_P(FuzzSeeds, MutatedValidMessagesNeverCrash) {
  // Start from a real message, flip bytes, truncate, extend.
  proto::SubmitJob msg;
  msg.client_job_token = 7;
  msg.command_file = "sort a > b\nwc b\n";
  proto::JobFileRef ref;
  ref.file.domain = "net";
  ref.file.host = "h";
  ref.file.path = "/a";
  ref.file.inode = 3;
  ref.local_name = "a";
  ref.version = 2;
  msg.files.push_back(ref);
  const Bytes wire = proto::encode_message(proto::Message(msg));

  for (int round = 0; round < 400; ++round) {
    Bytes mutated = wire;
    const u64 op = rng_.below(3);
    if (op == 0 && !mutated.empty()) {
      mutated[rng_.below(mutated.size())] ^=
          static_cast<u8>(1u << rng_.below(8));
    } else if (op == 1 && !mutated.empty()) {
      mutated.resize(rng_.below(mutated.size()));
    } else {
      const Bytes extra = rng_.bytes(rng_.below(16));
      mutated.insert(mutated.end(), extra.begin(), extra.end());
    }
    auto result = proto::decode_message(mutated);
    if (result.ok()) {
      // A surviving parse must round-trip to something encodable.
      (void)proto::encode_message(result.value());
    }
  }
}

TEST_P(FuzzSeeds, MutatedDeltasFailClosedOnApply) {
  const std::string base = core::make_file(2000, 3);
  const std::string target = core::modify_percent(base, 10, 4);
  const diff::Delta delta =
      diff::Delta::compute(base, target, diff::Algorithm::kHuntMcIlroy);
  BufWriter w;
  delta.encode(w);
  const Bytes wire = w.data();

  for (int round = 0; round < 200; ++round) {
    Bytes mutated = wire;
    mutated[rng_.below(mutated.size())] ^=
        static_cast<u8>(1u << rng_.below(8));
    BufReader reader(mutated);
    auto decoded = diff::Delta::decode(reader);
    if (!decoded.ok()) continue;
    if (!reader.at_end()) continue;  // production decode sites reject this
    auto applied = decoded.value().apply(base);
    // Either it fails (CRC/bounds), or — if the flip hit an ignorable
    // byte — it must still reconstruct the exact target (the CRC is part
    // of the payload, so "valid but different output" is impossible).
    if (applied.ok()) {
      EXPECT_EQ(applied.value(), target);
    }
  }
}

TEST_P(FuzzSeeds, MutatedCompressedPayloadsFailClosed) {
  const std::string text = core::make_structured_file(3000, 5);
  const Bytes packed =
      compress::compress(Bytes(text.begin(), text.end()),
                         compress::Codec::kLz77);
  for (int round = 0; round < 200; ++round) {
    Bytes mutated = packed;
    mutated[rng_.below(mutated.size())] ^=
        static_cast<u8>(1u << rng_.below(8));
    auto out = compress::decompress(mutated);
    if (out.ok()) {
      // Header size field is validated; a "successful" decompression has
      // the declared size.
      EXPECT_EQ(out.value().size(), text.size());
    }
  }
}

TEST_P(FuzzSeeds, RandomBytesIntoFrameDecoder) {
  for (int round = 0; round < 400; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(200));
    auto result = proto::decode_frame(junk);
    // Random bytes passing magic + type + CRC checks would be a miracle;
    // what matters is a clean error, never a crash or partial frame.
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    }
  }
}

TEST_P(FuzzSeeds, EveryMutatedFrameIsRejected) {
  // Unlike messages, frames carry a CRC over their full contents: any
  // single flip, truncation or extension MUST fail decode.
  const Bytes wire = proto::encode_frame(proto::FrameType::kData, 42,
                                         rng_.bytes(64));
  for (int round = 0; round < 400; ++round) {
    Bytes mutated = wire;
    const u64 op = rng_.below(3);
    if (op == 0) {
      mutated[rng_.below(mutated.size())] ^=
          static_cast<u8>(1u << rng_.below(8));
    } else if (op == 1) {
      mutated.resize(rng_.below(mutated.size()));
    } else {
      const Bytes extra = rng_.bytes(1 + rng_.below(16));
      mutated.insert(mutated.end(), extra.begin(), extra.end());
    }
    EXPECT_FALSE(proto::decode_frame(mutated).ok());
  }
}

TEST_P(FuzzSeeds, JunkOnTheWireNeverDerailsAReliableChannel) {
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kError);
  auto pair = net::make_loopback_pair("a", "b");
  proto::ReliableChannel a(pair.a.get());
  proto::ReliableChannel b(pair.b.get());
  std::vector<std::string> at_b;
  b.set_receiver([&](Bytes m) { at_b.emplace_back(m.begin(), m.end()); });

  int sent = 0;
  for (int round = 0; round < 200; ++round) {
    if (rng_.chance(0.3)) {
      const std::string payload = "m" + std::to_string(sent++);
      ASSERT_TRUE(a.send(Bytes(payload.begin(), payload.end())).ok());
    } else {
      // Raw garbage injected below the channel, as line noise would.
      (void)pair.a->send(rng_.bytes(rng_.below(60)));
    }
    net::pump(pair);
  }
  (void)a.tick();
  net::pump(pair);
  // Every real payload arrived exactly once, in order, despite the noise.
  ASSERT_EQ(at_b.size(), static_cast<std::size_t>(sent));
  for (int i = 0; i < sent; ++i) {
    EXPECT_EQ(at_b[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
  EXPECT_GT(b.stats().corrupt_dropped, 0u);
  Logger::instance().set_level(saved);
}

TEST_P(FuzzSeeds, JunkIntoClientAndServerReceivePathsNeverCrashes) {
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kOff);
  {
    vfs::Cluster cluster;
    (void)cluster.add_host("ws").mkdir_p("/home/user");
    server::ServerConfig sc;
    sc.name = "super";
    server::ShadowServer server(sc);
    auto pair = net::make_loopback_pair("ws", "super");
    client::ShadowEnvironment env;  // raw link: handlers see bytes directly
    client::ShadowClient client("ws", env, &cluster, "net-fuzz");
    client::ShadowEditor editor(&client, &cluster);
    server.attach(pair.b.get());
    client.connect("super", pair.a.get());
    net::pump(pair);

    ASSERT_TRUE(editor.create("/home/user/f", "b\na\n").ok());
    net::pump(pair);
    for (int round = 0; round < 150; ++round) {
      (void)pair.a->send(rng_.bytes(rng_.below(80)));  // junk to the server
      (void)pair.b->send(rng_.bytes(rng_.below(80)));  // junk to the client
      net::pump(pair);
    }

    // The session still works after the noise storm.
    client::ShadowClient::SubmitOptions job;
    job.files = {"/home/user/f"};
    job.command_file = "sort f\n";
    job.output_path = "/home/user/out";
    auto token = client.submit(job);
    ASSERT_TRUE(token.ok());
    for (int i = 0; i < 50 && !client.job_done(token.value()); ++i) {
      net::pump(pair);
      (void)server.tick();
      (void)client.tick();
    }
    EXPECT_TRUE(client.job_done(token.value()));
    EXPECT_EQ(cluster.read_file("ws", "/home/user/out").value(), "a\nb\n");
  }
  Logger::instance().set_level(saved);
}

TEST_P(FuzzSeeds, RandomBytesIntoJournalScanner) {
  // The scanner contract is total: any byte string yields a (possibly
  // empty) clean record prefix — no crash, no runaway allocation, and
  // every returned record passed its CRC.
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(400));
    const auto scan = persist::scan_journal(junk);
    EXPECT_LE(scan.valid_bytes, junk.size());
    EXPECT_EQ(scan.total_bytes, junk.size());
    if (!scan.header_ok) {
      EXPECT_TRUE(scan.records.empty());
    }
  }
}

TEST_P(FuzzSeeds, RandomBytesIntoSnapshotUnwrap) {
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(400));
    auto result = persist::unwrap_snapshot(junk);
    // A random blob forging the magic, version AND whole-payload CRC is
    // out of reach; what matters is the clean error.
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    }
  }
}

TEST_P(FuzzSeeds, MutatedJournalsAlwaysYieldACleanPrefix) {
  // Build a genuine multi-record journal, then flip/truncate/extend it.
  // The scan must return a byte-identical prefix of the ORIGINAL records
  // — damage truncates, it never fabricates or reorders.
  Bytes raw = persist::journal_header();
  std::vector<Bytes> bodies;
  for (int i = 0; i < 6; ++i) {
    bodies.push_back(rng_.bytes(1 + rng_.below(50)));
    const Bytes frame = persist::frame_record(
        persist::RecordType::kShadowCached, bodies.back());
    raw.insert(raw.end(), frame.begin(), frame.end());
  }

  for (int round = 0; round < 200; ++round) {
    Bytes mutated = raw;
    const u64 op = rng_.below(3);
    if (op == 0) {
      mutated[rng_.below(mutated.size())] ^=
          static_cast<u8>(1u << rng_.below(8));
    } else if (op == 1) {
      mutated.resize(rng_.below(mutated.size()));
    } else {
      const Bytes extra = rng_.bytes(1 + rng_.below(24));
      mutated.insert(mutated.end(), extra.begin(), extra.end());
    }
    const auto scan = persist::scan_journal(mutated);
    ASSERT_LE(scan.records.size(), bodies.size() + 1);
    for (std::size_t i = 0;
         i < scan.records.size() && i < bodies.size(); ++i) {
      EXPECT_EQ(scan.records[i].body, bodies[i]);
    }
  }
}

TEST_P(FuzzSeeds, RandomBytesAsDurableStateRecoverCleanly) {
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kOff);
  // Worst case: the journal AND snapshot files are pure noise (or
  // absent). A server recovering from them must come up OK with empty (or
  // prefix) state and then serve a normal editing session.
  for (int round = 0; round < 30; ++round) {
    persist::MemDir disk;
    if (rng_.chance(0.8)) {
      auto journal =
          disk.open_append(persist::DurableStore::kJournalName);
      ASSERT_TRUE(journal.ok());
      ASSERT_TRUE(journal.value()->append(rng_.bytes(rng_.below(300))).ok());
      ASSERT_TRUE(journal.value()->sync().ok());
    }
    if (rng_.chance(0.8)) {
      ASSERT_TRUE(disk.write_atomic(persist::DurableStore::kSnapshotName,
                                    rng_.bytes(rng_.below(300)))
                      .ok());
    }

    persist::DurableStore store(&disk);
    server::ServerConfig sc;
    sc.name = "super";
    server::ShadowServer server(sc, nullptr, &store);
    ASSERT_TRUE(server.recover_from_storage().ok())
        << "garbage on disk must degrade, never fail recovery";

    vfs::Cluster cluster;
    (void)cluster.add_host("ws").mkdir_p("/home/user");
    client::ShadowEnvironment env;
    client::ShadowClient client("ws", env, &cluster, "recover-fuzz");
    client::ShadowEditor editor(&client, &cluster);
    auto pair = net::make_loopback_pair("ws", "super");
    server.attach(pair.b.get());
    client.connect("super", pair.a.get());
    net::pump(pair);
    ASSERT_TRUE(editor.create("/home/user/f", "b\na\n").ok());
    net::pump(pair);
    (void)server.pump_persist();  // where the shard loop's pass would end
    EXPECT_TRUE(server.persist_alive());
    EXPECT_GE(server.stats().journal_appends, 1u)
        << "the recovered store must accept new appends";
  }
  Logger::instance().set_level(saved);
}

TEST_P(FuzzSeeds, ChunkerCoversArbitraryInputUnderArbitraryGeometry) {
  for (int round = 0; round < 60; ++round) {
    // Random but valid() geometry: avg a power of two, min in [64, avg),
    // max a multiple of avg — the full space the env knob can configure.
    cdc::ChunkerParams params;
    params.seed = rng_.next();
    params.avg_bytes = 128u << rng_.below(8);  // 128 .. 16384
    params.min_bytes = static_cast<u32>(
        64 + rng_.below(params.avg_bytes > 64 ? params.avg_bytes - 64 : 1));
    if (params.min_bytes >= params.avg_bytes) {
      params.min_bytes = params.avg_bytes / 2;
    }
    params.max_bytes = params.avg_bytes * static_cast<u32>(1 + rng_.below(8));
    ASSERT_TRUE(params.valid());

    const Bytes junk = rng_.bytes(rng_.below(20'000));
    const std::string_view data(reinterpret_cast<const char*>(junk.data()),
                                junk.size());
    const auto spans = cdc::chunk_spans(data, params);
    // Spans are contiguous, cover the whole buffer, and obey the bounds.
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].offset, cursor);
      EXPECT_GT(spans[i].length, 0u);
      EXPECT_LE(spans[i].length, params.max_bytes);
      if (i + 1 < spans.size()) {
        EXPECT_GE(spans[i].length, params.min_bytes);
      }
      cursor += spans[i].length;
    }
    EXPECT_EQ(cursor, junk.size());
  }
}

TEST_P(FuzzSeeds, RandomBytesIntoCdcDecoders) {
  for (int round = 0; round < 200; ++round) {
    const Bytes junk = rng_.bytes(rng_.below(300));
    {
      BufReader reader(junk);
      (void)cdc::CdcDelta::decode(reader);
    }
    {
      BufReader reader(junk);
      (void)cdc::Signature::decode(reader);
    }
  }
}

TEST_P(FuzzSeeds, MutatedCdcDeltasFailClosedOnBothApplyPaths) {
  const std::string base = core::make_file(30'000, 5);
  const std::string target = core::modify_percent(base, 10, 6);
  cdc::ChunkerParams params;
  params.min_bytes = 64;
  params.avg_bytes = 512;
  params.max_bytes = 4096;
  const cdc::Signature base_sig = cdc::signature_of(base, params);
  const cdc::Signature target_sig = cdc::signature_of(target, params);
  const cdc::CdcDelta delta = cdc::CdcDelta::compute(base_sig, target);
  BufWriter w;
  delta.encode(w);
  const Bytes wire = w.data();

  for (int round = 0; round < 200; ++round) {
    Bytes mutated = wire;
    mutated[rng_.below(mutated.size())] ^=
        static_cast<u8>(1u << rng_.below(8));
    BufReader reader(mutated);
    auto decoded = cdc::CdcDelta::decode(reader);
    if (!decoded.ok()) continue;
    if (!reader.at_end()) continue;  // production decode sites reject this
    // Content apply: either fails (CRC/missing chunk) or reconstructs the
    // exact target — target_crc rides the payload, so "valid but wrong
    // bytes" is impossible.
    auto applied = decoded.value().apply(base);
    if (applied.ok()) {
      EXPECT_EQ(applied.value(), target);
    }
    // Digest-only advance: same discipline against the base signature.
    auto advanced = decoded.value().signature_after(base_sig);
    if (advanced.ok()) {
      EXPECT_EQ(advanced.value().whole_crc(), target_sig.whole_crc());
      EXPECT_EQ(advanced.value().total_bytes(), target.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 8));

}  // namespace
}  // namespace shadow
