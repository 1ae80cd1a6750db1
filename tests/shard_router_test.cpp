// ShardRouter invariants the thread-per-core server rests on
// (docs/CONCURRENCY.md): assignment is a pure function of the id (stable
// across restarts), spreads real-world id shapes evenly, agrees between
// the connection-routing and file-ownership projections, and — the big
// one — no file's messages are ever dispatched to two shards, swept over
// 100 randomized multi-shard runs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "net/loopback.hpp"
#include "proto/messages.hpp"
#include "server/shard_router.hpp"
#include "server/sharded_server.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace shadow::server {
namespace {

naming::GlobalFileId file_id(const std::string& domain,
                             const std::string& host,
                             const std::string& path, u64 inode) {
  naming::GlobalFileId id;
  id.domain = domain;
  id.host = host;
  id.path = path;
  id.inode = inode;
  return id;
}

TEST(ShardRouterTest, HashIsStableAcrossRestarts) {
  // Pinned values: shard assignment decides which per-shard journal a
  // file's state lands in, so the hash may NEVER change between builds,
  // library versions or processes. If this test breaks, you have silently
  // re-sharded every existing --journal directory.
  EXPECT_EQ(ShardRouter::stable_hash("anet", "ws0"), 1131290908393780782ull);
  EXPECT_EQ(ShardRouter::stable_hash("anet", "ws1"), 1131292007905408993ull);
  EXPECT_EQ(ShardRouter::stable_hash("bnet", "cray"),
            12932620425976373918ull);
  EXPECT_EQ(ShardRouter::stable_hash("", ""), 12638176205439359886ull);
}

TEST(ShardRouterTest, SeparatorKeepsFieldsDistinct) {
  // ("ab","c") and ("a","bc") concatenate identically; the separator must
  // keep them apart.
  EXPECT_NE(ShardRouter::stable_hash("ab", "c"),
            ShardRouter::stable_hash("a", "bc"));
}

TEST(ShardRouterTest, FileAndClientProjectionsAgree) {
  // A client's files (host == client_name) must land on the client's own
  // shard — that is what makes the hot path shard-local.
  ShardRouter router(4);
  for (int c = 0; c < 50; ++c) {
    const std::string name = "ws" + std::to_string(c);
    for (int f = 0; f < 10; ++f) {
      const auto id =
          file_id("campus-net", name, "/src/f" + std::to_string(f),
                  static_cast<u64>(f) + 100);
      EXPECT_EQ(router.shard_of(id), router.shard_of_client("campus-net", name));
    }
  }
}

TEST(ShardRouterTest, IgnoresPathAndInode) {
  // Hard links and renames must not migrate a file between shards.
  ShardRouter router(8);
  const auto a = file_id("net", "hostX", "/a/b/c", 41);
  const auto b = file_id("net", "hostX", "/other/name", 977);
  EXPECT_EQ(router.shard_of(a), router.shard_of(b));
}

TEST(ShardRouterTest, UniformWithin20PercentOver10kIds) {
  // Synthetic-but-realistic population: many hosts across a few domains.
  const std::size_t kIds = 10'000;
  for (std::size_t shards : {2u, 4u, 8u}) {
    ShardRouter router(shards);
    std::vector<std::size_t> counts(shards, 0);
    for (std::size_t i = 0; i < kIds; ++i) {
      const auto id = file_id("domain" + std::to_string(i % 3),
                              "ws" + std::to_string(i),
                              "/home/u/f" + std::to_string(i), i);
      ++counts[router.shard_of(id)];
    }
    const double mean = static_cast<double>(kIds) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(counts[s], mean * 0.8)
          << "shard " << s << "/" << shards << " underloaded";
      EXPECT_LT(counts[s], mean * 1.2)
          << "shard " << s << "/" << shards << " overloaded";
    }
  }
}

TEST(ShardRouterTest, ZeroShardCountClampsToOne) {
  ShardRouter router(0);
  EXPECT_EQ(router.shard_count(), 1u);
  EXPECT_EQ(router.shard_of(file_id("d", "h", "/p", 1)), 0u);
}

// ---- multi-shard dispatch sweep ----

// Drive an inline ShardedServer with several synthetic clients sending
// Hello / NotifyNewVersion / Update in randomized interleavings, then
// verify the single-owner invariant: every file id is known to AT MOST
// one shard, and that shard is exactly ShardRouter::shard_of(id).
TEST(ShardDispatchSweep, NoFileEverReachesTwoShards) {
  for (u64 seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 2654435761ull + 17);
    const std::size_t shards = 2 + rng.below(3);  // 2..4
    ServerConfig config;
    config.name = "super";
    ShardedServer sharded(config, shards);

    struct SyntheticClient {
      std::string name;
      std::string domain;
      net::LoopbackPair pair;
      u64 version = 0;
    };
    const std::size_t num_clients = 3 + rng.below(4);  // 3..6
    std::vector<SyntheticClient> clients(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
      auto& cl = clients[c];
      cl.name = "ws" + std::to_string(c);
      cl.domain = "net" + std::to_string(rng.below(2));
      cl.pair = net::make_loopback_pair(cl.name, "super");
      sharded.attach(cl.pair.b.get());
      proto::Hello hello;
      hello.client_name = cl.name;
      hello.domain = cl.domain;
      ASSERT_TRUE(
          cl.pair.a->send(proto::encode_message(hello)).ok());
      net::pump(cl.pair);
    }

    const std::size_t files_per_client = 3;
    std::vector<naming::GlobalFileId> all_files;
    for (std::size_t op = 0; op < 60; ++op) {
      auto& cl = clients[rng.below(num_clients)];
      const u64 f = rng.below(files_per_client);
      const auto id = file_id(cl.domain, cl.name,
                              "/work/f" + std::to_string(f), f + 1);
      all_files.push_back(id);
      const std::string content =
          "content " + cl.name + " v" + std::to_string(cl.version);
      if (rng.chance(0.5)) {
        proto::NotifyNewVersion notify;
        notify.file = id;
        notify.version = ++cl.version;
        notify.size = content.size();
        notify.crc = crc32(reinterpret_cast<const u8*>(content.data()),
                           content.size());
        ASSERT_TRUE(
            cl.pair.a->send(proto::encode_message(notify)).ok());
      } else {
        proto::Update update;
        update.file = id;
        update.base_version = 0;
        update.new_version = ++cl.version;
        update.payload = proto::pack_payload(diff::Delta::make_full(content),
                                             compress::Codec::kStored);
        ASSERT_TRUE(
            cl.pair.a->send(proto::encode_message(update)).ok());
      }
      net::pump(cl.pair);
    }

    // Every message a client sent landed on its pinned shard; the file
    // must therefore be unknown everywhere else.
    for (const auto& id : all_files) {
      std::set<std::size_t> owners;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto* dir = sharded.shard(s).domains().find(id.domain);
        if (dir != nullptr && dir->lookup(id).has_value()) {
          owners.insert(s);
        }
      }
      ASSERT_LE(owners.size(), 1u)
          << "seed " << seed << ": file " << id.display()
          << " dispatched to " << owners.size() << " shards";
      if (!owners.empty()) {
        EXPECT_EQ(*owners.begin(), sharded.router().shard_of(id))
            << "seed " << seed << ": file " << id.display()
            << " on the wrong shard";
      }
    }

    // And each client is pinned where the router says it belongs.
    for (const auto& cl : clients) {
      const auto pinned = sharded.shard_of_client(cl.name);
      ASSERT_TRUE(pinned.has_value()) << "seed " << seed;
      EXPECT_EQ(*pinned,
                sharded.router().shard_of_client(cl.domain, cl.name))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace shadow::server
