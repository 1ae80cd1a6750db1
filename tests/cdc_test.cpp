// The CDC delta codec (docs/DELTAS.md), bottom to top: chunker geometry
// and edit locality, CRC composition, signature/delta round trips, the
// digest-only advance, the client's crossover selection, the server's
// O(digests) residency, job materialization from a digest-tracked file,
// a pre-v1 Hello refused at decode, and the no-CDC client — one that
// offers only ed-script + block-move must see hint-free pulls and be
// cached as content.
#include <gtest/gtest.h>

#include <string>

#include "cdc/cdc_delta.hpp"
#include "cdc/chunker.hpp"
#include "cdc/signature.hpp"
#include "cdc/sniff.hpp"
#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "diff/delta.hpp"
#include "naming/resolver.hpp"
#include "net/loopback.hpp"
#include "proto/messages.hpp"
#include "server/shadow_server.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

/// Deterministic binary content: high-entropy bytes with guaranteed NULs,
/// so the binariness sniff always fires.
std::string make_binary(std::size_t size, u64 seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  std::string out(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>(rng.below(256));
  }
  if (!out.empty()) out[out.size() / 2] = '\0';
  return out;
}

/// Overwrite ~percent of the content at one deterministic spot (a local
/// edit, the case CDC is built for).
std::string edit_region(std::string content, double percent, u64 seed) {
  if (content.empty()) return content;
  Rng rng(seed ^ 0xB1Fu);
  const std::size_t span = std::max<std::size_t>(
      1, static_cast<std::size_t>(content.size() * percent / 100.0));
  const std::size_t at = rng.below(content.size() - std::min(span, content.size()) + 1);
  for (std::size_t i = 0; i < span && at + i < content.size(); ++i) {
    content[at + i] = static_cast<char>(rng.below(256));
  }
  return content;
}

cdc::ChunkerParams small_chunks() {
  cdc::ChunkerParams params;
  params.min_bytes = 64;
  params.avg_bytes = 512;
  params.max_bytes = 4096;
  return params;
}

TEST(Chunker, DeterministicCutsCoverTheBuffer) {
  const std::string data = make_binary(100'000, 7);
  const auto a = cdc::chunk_spans(data, cdc::ChunkerParams{});
  const auto b = cdc::chunk_spans(data, cdc::ChunkerParams{});
  EXPECT_EQ(a, b);
  std::size_t cursor = 0;
  for (const auto& span : a) {
    EXPECT_EQ(span.offset, cursor);
    cursor += span.length;
  }
  EXPECT_EQ(cursor, data.size());
  EXPECT_TRUE(cdc::chunk_spans("", cdc::ChunkerParams{}).empty());
}

TEST(Chunker, DifferentSeedsCutDifferently) {
  const std::string data = make_binary(200'000, 8);
  cdc::ChunkerParams other;
  other.seed = 0x0ddba11;
  EXPECT_NE(cdc::chunk_spans(data, cdc::ChunkerParams{}),
            cdc::chunk_spans(data, other));
}

TEST(Chunker, LocalEditOnlyMovesNearbyBoundaries) {
  const std::string base = make_binary(300'000, 9);
  const std::string edited = edit_region(base, 1.0, 10);
  const auto params = small_chunks();
  const cdc::Signature base_sig = cdc::signature_of(base, params);
  const cdc::Signature edited_sig = cdc::signature_of(edited, params);

  // Count edited chunks found verbatim in the base — content-defined cuts
  // must realign after the edited region, so the overwhelming majority of
  // chunks keep their identity (a fixed-block scheme would lose every
  // chunk past the edit).
  std::size_t matched = 0;
  for (const auto& chunk : edited_sig.chunks) {
    for (const auto& have : base_sig.chunks) {
      if (chunk == have) {
        ++matched;
        break;
      }
    }
  }
  ASSERT_GT(edited_sig.chunks.size(), 20u);
  EXPECT_GT(matched * 10, edited_sig.chunks.size() * 8);  // > 80% survive
}

TEST(Crc32Combine, MatchesDirectCrcOfConcatenation) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    const Bytes a = rng.bytes(rng.below(5'000));
    const Bytes b = rng.bytes(rng.below(5'000));
    Bytes joined = a;
    joined.insert(joined.end(), b.begin(), b.end());
    const u32 combined = crc32_combine(crc32(a.data(), a.size()),
                                       crc32(b.data(), b.size()), b.size());
    EXPECT_EQ(combined, crc32(joined.data(), joined.size()));
  }
}

TEST(Signature, RoundTripsAndComposesTheWholeFileCrc) {
  const std::string data = make_binary(50'000, 12);
  const cdc::Signature sig = cdc::signature_of(data, small_chunks());
  EXPECT_EQ(sig.total_bytes(), data.size());
  // The composed per-chunk CRCs equal the flat CRC of the file — this is
  // what lets a digest-only server CRC-verify without the bytes.
  EXPECT_EQ(sig.whole_crc(),
            crc32(reinterpret_cast<const u8*>(data.data()), data.size()));

  BufWriter w;
  sig.encode(w);
  BufReader r(w.data());
  auto decoded = cdc::Signature::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded.value().chunks, sig.chunks);
  EXPECT_EQ(decoded.value().params, sig.params);
}

TEST(CdcDelta, SmallEditShipsMostlyCopies) {
  const std::string base = make_binary(400'000, 13);
  const std::string target = edit_region(base, 1.0, 14);
  const cdc::Signature base_sig = cdc::signature_of(base, small_chunks());
  const cdc::CdcDelta delta = cdc::CdcDelta::compute(base_sig, target);

  EXPECT_TRUE(delta.has_copies());
  EXPECT_LT(delta.literal_bytes(), target.size() / 5);
  EXPECT_LT(delta.wire_size(), target.size() / 4);

  auto applied = delta.apply(base);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), target);

  // Digest-only advance reaches the same signature as chunking the real
  // target — the server's entire correctness claim.
  auto advanced = delta.signature_after(base_sig);
  ASSERT_TRUE(advanced.ok());
  EXPECT_EQ(advanced.value().chunks,
            cdc::signature_of(target, small_chunks()).chunks);

  BufWriter w;
  delta.encode(w);
  BufReader r(w.data());
  auto decoded = cdc::CdcDelta::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded.value(), delta);
}

TEST(CdcDelta, EmptyBaseYieldsAllLiteralsThatApplyAgainstNothing) {
  const std::string target = make_binary(30'000, 15);
  cdc::Signature empty;
  empty.params = small_chunks();
  const cdc::CdcDelta delta = cdc::CdcDelta::compute(empty, target);
  EXPECT_FALSE(delta.has_copies());
  EXPECT_EQ(delta.literal_bytes(), target.size());
  auto applied = delta.apply(std::string_view());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), target);
}

TEST(CdcDelta, StaleBaseSignatureFailsTheAdvanceClosed) {
  const std::string base = make_binary(100'000, 16);
  const std::string target = edit_region(base, 1.0, 17);
  const cdc::Signature base_sig = cdc::signature_of(base, small_chunks());
  const cdc::CdcDelta delta = cdc::CdcDelta::compute(base_sig, target);
  ASSERT_TRUE(delta.has_copies());
  // The receiver's base moved on: copies reference digests it no longer
  // holds, and the advance must fail (triggering a full re-pull), never
  // fabricate a signature.
  const cdc::Signature wrong =
      cdc::signature_of(make_binary(100'000, 99), small_chunks());
  EXPECT_FALSE(delta.signature_after(wrong).ok());
}

TEST(Sniff, ClassifiesTextAndBinary) {
  EXPECT_FALSE(cdc::looks_binary(core::make_file(8'000, 18)));
  EXPECT_TRUE(cdc::looks_binary(make_binary(8'000, 19)));
  EXPECT_TRUE(cdc::looks_binary(std::string("hello\0world", 11)));
  EXPECT_FALSE(cdc::looks_binary(""));
}

TEST(DiffDispatch, ComputeCdcRidesTheDeltaEnvelope) {
  const std::string base = make_binary(200'000, 20);
  const std::string target = edit_region(base, 2.0, 21);
  const cdc::Signature base_sig = cdc::signature_of(base, small_chunks());
  const diff::Delta delta = diff::Delta::compute_cdc(base_sig, target);
  ASSERT_EQ(delta.format, diff::Delta::Format::kCdc);
  EXPECT_TRUE(delta.needs_base());

  BufWriter w;
  delta.encode(w);
  BufReader r(w.data());
  auto decoded = diff::Delta::decode(r);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().format, diff::Delta::Format::kCdc);
  auto applied = decoded.value().apply(base);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value(), target);

  // The cdc.* family balances its books at every instant.
  auto& reg = telemetry::Registry::global();
  EXPECT_GT(reg.counter("cdc.computes").value(), 0u);
  EXPECT_EQ(reg.counter("cdc.computes").value(),
            reg.counter("cdc.deltas").value() +
                reg.counter("cdc.fallbacks").value());
  EXPECT_EQ(reg.counter("cdc.wire_bytes").value(),
            reg.counter("cdc.copy_wire_bytes").value() +
                reg.counter("cdc.literal_bytes").value() +
                reg.counter("cdc.framing_bytes").value());
}

// ---- client/server integration over a loopback link ----

class QuietLogs {
 public:
  QuietLogs() : saved_(Logger::instance().level()) {
    Logger::instance().set_level(LogLevel::kError);
  }
  ~QuietLogs() { Logger::instance().set_level(saved_); }

 private:
  LogLevel saved_;
};

struct Rig {
  vfs::Cluster cluster;
  server::ShadowServer server;
  net::LoopbackPair pair;
  client::ShadowClient client;
  client::ShadowEditor editor;

  explicit Rig(client::ShadowEnvironment env,
               server::ServerConfig sc = make_server_config())
      : server(sc),
        pair(net::make_loopback_pair("ws", "super")),
        client("ws", std::move(env), &cluster, "net-cdc"),
        editor(&client, &cluster) {
    (void)cluster.add_host("ws").mkdir_p("/home/user");
    server.attach(pair.b.get());
    client.connect("super", pair.a.get());
    quiesce();
  }

  static server::ServerConfig make_server_config() {
    server::ServerConfig sc;
    sc.name = "super";
    return sc;
  }

  void quiesce() {
    for (int round = 0; round < 2'000; ++round) {
      if (pair.a->poll() + pair.b->poll() != 0) continue;
      if (client.tick() + server.tick() == 0) return;
    }
  }

  const cache::CacheEntry* entry(const std::string& path) {
    naming::NameResolver resolver("net-cdc", &cluster);
    auto id = resolver.resolve("ws", path);
    if (!id.ok()) return nullptr;
    return server.file_cache().peek(server.domains().cache_key(id.value()));
  }
};

client::ShadowEnvironment cdc_env() {
  client::ShadowEnvironment env;
  // Request-driven keeps the transfer schedule deterministic for counter
  // assertions; thresholds scaled down so test files stay small.
  env.flow = client::FlowMode::kRequestDriven;
  env.cdc_min_bytes = 64 * 1024;
  env.cdc_min_binary_bytes = 8 * 1024;
  env.cdc_params = small_chunks();
  return env;
}

TEST(CdcCrossover, SmallTextStaysOnLineDeltasBigAndBinaryCrossOver) {
  QuietLogs quiet;
  Rig rig(cdc_env());

  // Small text file: classic ed-script path, no digest tracking.
  std::string text = core::make_file(4'000, 31);
  ASSERT_TRUE(rig.editor.create("/home/user/notes", text).ok());
  rig.quiesce();
  EXPECT_EQ(rig.client.stats().cdc_sent, 0u);
  const auto* text_entry = rig.entry("/home/user/notes");
  ASSERT_NE(text_entry, nullptr);
  EXPECT_TRUE(text_entry->has_bytes());

  // Binary past the (lower) binary threshold: crosses over immediately.
  std::string blob = make_binary(32 * 1024, 32);
  ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
  rig.quiesce();
  EXPECT_GE(rig.client.stats().cdc_sent, 1u);
  EXPECT_GE(rig.server.stats().cdc_transfers, 1u);
  const auto* blob_entry = rig.entry("/home/user/blob");
  ASSERT_NE(blob_entry, nullptr);
  EXPECT_FALSE(blob_entry->has_bytes());

  // Big text past the general threshold: crosses over too.
  std::string big = core::make_file(96 * 1024, 33);
  ASSERT_TRUE(rig.editor.create("/home/user/big", big).ok());
  rig.quiesce();
  const auto* big_entry = rig.entry("/home/user/big");
  ASSERT_NE(big_entry, nullptr);
  EXPECT_FALSE(big_entry->has_bytes());
}

TEST(CdcDigestServer, ResidencyIsDigestsNotBytesAndCrcTracksContent) {
  QuietLogs quiet;
  Rig rig(cdc_env());

  std::string blob = make_binary(256 * 1024, 41);
  ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
  rig.quiesce();
  const u64 cdc_after_create = rig.server.stats().cdc_transfers;
  EXPECT_GE(cdc_after_create, 1u);

  for (int i = 0; i < 4; ++i) {
    blob = edit_region(blob, 1.0, 42 + static_cast<u64>(i));
    ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
    rig.quiesce();
  }
  // Every edit advanced the digest signature without materializing bytes.
  EXPECT_GE(rig.server.stats().digest_advances, 5u);
  EXPECT_EQ(rig.server.stats().digest_advance_failures, 0u);

  const auto* entry = rig.entry("/home/user/blob");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->has_bytes());
  EXPECT_EQ(entry->crc,
            crc32(reinterpret_cast<const u8*>(blob.data()), blob.size()));
  EXPECT_EQ(entry->represented_bytes(), blob.size());

  // O(digests), not O(bytes): resident cost is a small fraction of the
  // content the signature stands in for.
  const auto digests = rig.server.file_cache().digest_stats();
  EXPECT_EQ(digests.entries, 1u);
  EXPECT_EQ(digests.represented_bytes, blob.size());
  EXPECT_LT(digests.resident_bytes * 10, digests.represented_bytes);
}

TEST(CdcDigestServer, JobMaterializesExactBytesFromADigestTrackedFile) {
  QuietLogs quiet;
  Rig rig(cdc_env());

  std::string blob = make_binary(64 * 1024, 51);
  ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
  rig.quiesce();
  blob = edit_region(blob, 2.0, 52);
  ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
  rig.quiesce();
  const auto* before = rig.entry("/home/user/blob");
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(before->has_bytes());

  // `cat` copies the sandbox file verbatim: the job output IS the bytes
  // the server materialized from the digest-tracked file.
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/blob"};
  job.command_file = "cat blob\n";
  job.output_path = "/home/user/job.out";
  job.error_path = "/home/user/job.err";
  auto token = rig.client.submit(job);
  ASSERT_TRUE(token.ok());
  for (int attempt = 0; attempt < 8 && !rig.client.job_done(token.value());
       ++attempt) {
    rig.quiesce();
  }
  ASSERT_TRUE(rig.client.job_done(token.value()));
  EXPECT_EQ(rig.cluster.read_file("ws", "/home/user/job.out").value(), blob);

  // The materialize pull fed the job pin; the cache entry stays digests.
  const auto* after = rig.entry("/home/user/blob");
  ASSERT_NE(after, nullptr);
  EXPECT_FALSE(after->has_bytes());
}

TEST(CdcDigestServer, ServerWithCdcDisabledKeepsLegacyContentEntries) {
  QuietLogs quiet;
  auto sc = Rig::make_server_config();
  sc.cdc_enabled = false;
  Rig rig(cdc_env(), sc);

  std::string blob = make_binary(32 * 1024, 61);
  ASSERT_TRUE(rig.editor.create("/home/user/blob", blob).ok());
  rig.quiesce();
  // Negotiation removed kCodecCdc: the client shipped plain deltas and
  // the server cached real bytes.
  EXPECT_EQ(rig.client.stats().cdc_sent, 0u);
  EXPECT_EQ(rig.server.stats().cdc_transfers, 0u);
  const auto* entry = rig.entry("/home/user/blob");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_bytes());
  EXPECT_EQ(entry->content, blob);
}

// ---- pre-v1 peers and no-CDC clients ----

TEST(LegacyPeer, PreV1HelloFailsToDecode) {
  // A pre-v1 Hello ends after (name, domain): no version, no codecs.
  BufWriter w;
  w.put_u8(static_cast<u8>(proto::MessageType::kHello));
  w.put_string("oldws");
  w.put_string("net-legacy");
  auto decoded = proto::decode_message(w.take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  EXPECT_NE(decoded.error().message.find("pre-v1 peer"), std::string::npos)
      << decoded.error().to_string();

  BufWriter reply;
  reply.put_u8(static_cast<u8>(proto::MessageType::kHelloReply));
  reply.put_string("oldsuper");
  auto decoded_reply = proto::decode_message(reply.take());
  ASSERT_FALSE(decoded_reply.ok());
  EXPECT_NE(decoded_reply.error().message.find("pre-v1 peer"),
            std::string::npos);
}

TEST(LegacyPeer, PullWithoutHintIsByteIdenticalToTheLegacyEncoding) {
  proto::PullRequest pull;
  pull.file.domain = "net-legacy";
  pull.file.host = "oldws";
  pull.file.path = "/home/user/f";
  pull.file.inode = 9;
  pull.have_version = 3;
  pull.want_version = 5;
  pull.codec_hint = 0;  // what every pull to a legacy client carries

  BufWriter legacy;
  legacy.put_u8(static_cast<u8>(proto::MessageType::kPullRequest));
  pull.file.encode(legacy);
  legacy.put_varint(pull.have_version);
  legacy.put_varint(pull.want_version);
  EXPECT_EQ(proto::encode_message(proto::Message(pull)), legacy.take());
}

TEST(LegacyPeer, ServerNeverDigestTracksALegacyClientsFiles) {
  QuietLogs quiet;
  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc);
  auto pair = net::make_loopback_pair("oldws", "super");
  std::vector<proto::Message> inbox;
  pair.a->set_receiver([&](Bytes wire) {
    auto decoded = proto::decode_message(wire);
    ASSERT_TRUE(decoded.ok());
    inbox.push_back(std::move(decoded).take());
  });
  server.attach(pair.b.get());

  // A no-CDC client (`cdc off`): it offers ed-script + block-move only.
  proto::Hello hello;
  hello.client_name = "oldws";
  hello.domain = "net-legacy";
  hello.codecs = proto::kCodecEdScript | proto::kCodecBlockMove;
  ASSERT_TRUE(pair.a->send(proto::encode_message(hello)).ok());
  net::pump(pair);
  ASSERT_FALSE(inbox.empty());
  ASSERT_NE(std::get_if<proto::HelloReply>(&inbox.front()), nullptr);

  // A big binary announced and pulled: the pull must carry NO codec hint
  // and the full transfer must land as a CONTENT entry.
  const std::string blob = make_binary(64 * 1024, 71);
  naming::GlobalFileId id;
  id.domain = "net-legacy";
  id.host = "oldws";
  id.path = "/home/user/blob";
  id.inode = 4;
  proto::NotifyNewVersion notify;
  notify.file = id;
  notify.version = 1;
  notify.size = blob.size();
  notify.crc = crc32(reinterpret_cast<const u8*>(blob.data()), blob.size());
  inbox.clear();
  ASSERT_TRUE(pair.a->send(proto::encode_message(notify)).ok());
  net::pump(pair);
  ASSERT_EQ(inbox.size(), 1u);
  const auto* pull = std::get_if<proto::PullRequest>(&inbox.front());
  ASSERT_NE(pull, nullptr);
  EXPECT_EQ(pull->codec_hint, 0u);
  EXPECT_EQ(pull->have_version, 0u);

  proto::Update update;
  update.file = id;
  update.base_version = 0;
  update.new_version = 1;
  update.payload = proto::pack_payload(diff::Delta::make_full(blob),
                                       compress::Codec::kStored);
  ASSERT_TRUE(pair.a->send(proto::encode_message(update)).ok());
  net::pump(pair);

  EXPECT_EQ(server.stats().cdc_transfers, 0u);
  EXPECT_EQ(server.file_cache().digest_stats().entries, 0u);
  const auto* entry =
      server.file_cache().peek(server.domains().cache_key(id));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_bytes());
  EXPECT_EQ(entry->content, blob);
}

TEST(CdcEnvironment, KnobsRoundTripThroughTheDotfile) {
  client::ShadowEnvironment env;
  env.default_server = "super";  // to_text of an empty server doesn't parse
  env.cdc = false;
  env.cdc_min_bytes = 111'104;
  env.cdc_min_binary_bytes = 9'216;
  env.cdc_params.avg_bytes = 2048;
  env.cdc_params.min_bytes = 512;
  env.cdc_params.max_bytes = 16'384;
  auto parsed = client::ShadowEnvironment::from_text(env.to_text());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().cdc);
  EXPECT_EQ(parsed.value().cdc_min_bytes, 111'104u);
  EXPECT_EQ(parsed.value().cdc_min_binary_bytes, 9'216u);
  EXPECT_EQ(parsed.value().cdc_params.avg_bytes, 2048u);
}

}  // namespace
}  // namespace shadow
