// Tests for the executor-side block cache: LRU semantics, merged location
// maps, and the end-to-end locality boost it provides.
#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "common/units.h"
#include "dfs/cache.h"
#include "workload/experiment.h"

namespace custody::dfs {
namespace {

using custody::units::MB;

struct CacheFixture {
  CacheFixture()
      : dfs(MakeConfig(), Rng(1), std::make_unique<RoundRobinPlacement>()) {}

  static DfsConfig MakeConfig() {
    DfsConfig c;
    c.num_nodes = 8;
    c.block_bytes = MB(128.0);
    c.default_replication = 1;
    return c;
  }

  BlockId block(int i) {
    while (static_cast<int>(blocks.size()) <= i) {
      const FileId f = dfs.write_file("/f" + std::to_string(blocks.size()),
                                      MB(128.0));
      blocks.push_back(dfs.blocks_of(f).front());
    }
    return blocks[static_cast<std::size_t>(i)];
  }

  Dfs dfs;
  std::vector<BlockId> blocks;
};

TEST(BlockCache, DisabledWhenZeroCapacity) {
  CacheFixture f;
  BlockCache cache(f.dfs, 0.0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(NodeId(1), f.block(0));
  EXPECT_FALSE(cache.is_cached(NodeId(1), f.block(0)));
}

TEST(BlockCache, InsertAndQuery) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(512.0));
  // Block 0 lives on node 0 (round-robin); cache it on node 5.
  cache.insert(NodeId(5), f.block(0));
  EXPECT_TRUE(cache.is_cached(NodeId(5), f.block(0)));
  EXPECT_FALSE(cache.is_cached(NodeId(4), f.block(0)));
  EXPECT_TRUE(cache.is_local(f.block(0), NodeId(5)));
  EXPECT_TRUE(cache.is_local(f.block(0), NodeId(0)));  // disk replica
  EXPECT_DOUBLE_EQ(cache.bytes_on(NodeId(5)), MB(128.0));
}

TEST(BlockCache, SkipsBlocksAlreadyOnDisk) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(512.0));
  cache.insert(NodeId(0), f.block(0));  // node 0 already stores block 0
  EXPECT_FALSE(cache.is_cached(NodeId(0), f.block(0)));
  EXPECT_DOUBLE_EQ(cache.bytes_on(NodeId(0)), 0.0);
}

TEST(BlockCache, LruEviction) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(256.0));  // room for two 128 MB blocks
  cache.insert(NodeId(5), f.block(0));
  cache.insert(NodeId(5), f.block(1));
  // Touch block 0 so block 1 becomes LRU.
  EXPECT_TRUE(cache.is_cached(NodeId(5), f.block(0)));
  cache.insert(NodeId(5), f.block(2));
  EXPECT_TRUE(cache.is_cached(NodeId(5), f.block(0)));
  EXPECT_FALSE(cache.is_cached(NodeId(5), f.block(1)));  // evicted
  EXPECT_TRUE(cache.is_cached(NodeId(5), f.block(2)));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BlockCache, OversizedBlockNeverCached) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(64.0));  // smaller than one block
  cache.insert(NodeId(5), f.block(0));
  EXPECT_FALSE(cache.is_cached(NodeId(5), f.block(0)));
  EXPECT_EQ(cache.stats().insertions, 0u);
}

/// A forged CACH section for the fixture's 8 nodes: node 5 caches block 0
/// (whose disk replica is on node 0) unless a test edits the lists.
struct ForgedCache {
  std::vector<std::uint32_t> lru = {0};  ///< node 5's LRU list
  double bytes = MB(128.0);              ///< node 5's cached bytes
  std::vector<std::uint32_t> cached_on = {5};  ///< holders of block 0

  void restore_into(BlockCache& cache) const {
    snap::SnapshotWriter w;
    w.begin_section("CACH");
    w.f64(MB(512.0));
    w.size(8);
    for (std::uint32_t n = 0; n < 8; ++n) {
      const std::vector<std::uint32_t> held =
          n == 5 ? lru : std::vector<std::uint32_t>{};
      w.size(held.size());
      for (const std::uint32_t b : held) w.u32(b);
      w.f64(n == 5 ? bytes : 0.0);
    }
    w.size(1);  // one block with an entry: block 0
    w.u32(0);
    w.size(cached_on.size());
    for (const std::uint32_t n : cached_on) w.u32(n);
    for (int i = 0; i < 4; ++i) w.u64(0);  // stats
    w.end_section();
    snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
    r.begin_section("CACH");
    cache.RestoreFrom(r);
    r.end_section();
  }
};

// Readers index per-node tables by cached locations (the ready index's
// local-ready nodes, the allocator's candidate nodes).
TEST(BlockCache, RestoreRejectsLocationOffTheCluster) {
  CacheFixture f;
  (void)f.block(0);
  BlockCache cache(f.dfs, MB(512.0));
  ForgedCache forged;
  forged.restore_into(cache);
  EXPECT_TRUE(cache.peek_cached(NodeId(5), f.block(0)));
  forged.cached_on = {8};
  EXPECT_THROW(forged.restore_into(cache), snap::SnapshotError);
}

TEST(BlockCache, RestoreRejectsUnknownOrRepeatedLruBlock) {
  CacheFixture f;
  (void)f.block(0);
  BlockCache cache(f.dfs, MB(512.0));
  ForgedCache forged;
  forged.lru = {7};
  EXPECT_THROW(forged.restore_into(cache), snap::SnapshotError);
  forged.lru = {0, 0};
  EXPECT_THROW(forged.restore_into(cache), snap::SnapshotError);
}

// A restored byte count can overstate what the LRU list holds; making room
// for a block then stops at an empty list instead of evicting past it.
TEST(BlockCache, InsertAfterRestoreEvictsNoFurtherThanTheList) {
  CacheFixture f;
  (void)f.block(1);
  BlockCache cache(f.dfs, MB(512.0));
  ForgedCache forged;
  forged.lru = {};
  forged.bytes = MB(512.0);
  forged.cached_on = {};
  forged.restore_into(cache);
  cache.insert(NodeId(5), f.block(1));
  EXPECT_TRUE(cache.peek_cached(NodeId(5), f.block(1)));
}

TEST(BlockCache, MergedLocationsCombineDiskAndCache) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(512.0));
  const BlockId b = f.block(0);  // disk replica on node 0
  EXPECT_EQ(cache.merged_locations(b), f.dfs.locations(b));
  cache.insert(NodeId(5), b);
  cache.insert(NodeId(3), b);
  const auto& merged = cache.merged_locations(b);
  EXPECT_EQ(merged, (std::vector<NodeId>{NodeId(0), NodeId(3), NodeId(5)}));
}

TEST(BlockCache, MergedLocationsShrinkOnEviction) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(128.0));  // room for exactly one block
  const BlockId b0 = f.block(0);
  cache.insert(NodeId(5), b0);
  EXPECT_EQ(cache.merged_locations(b0).size(), 2u);
  cache.insert(NodeId(5), f.block(1));  // evicts b0 from node 5
  EXPECT_EQ(cache.merged_locations(b0), f.dfs.locations(b0));
}

// A node failure moves disk replicas under blocks the cache has entries
// for.  The merged map must follow them: a stale entry hands remote reads
// a dead node as their source.
TEST(BlockCache, MergedLocationsFollowDiskFailover) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(128.0));  // room for exactly one block
  const BlockId evicted = f.block(0);  // disk replica on node 0
  const BlockId cached = f.block(2);   // disk replica on node 2
  cache.insert(NodeId(5), evicted);
  cache.insert(NodeId(5), f.block(1));  // evicts it; a disk-only entry stays
  cache.insert(NodeId(6), cached);
  const auto live_without = [](std::initializer_list<int> dead) {
    std::vector<NodeId> live;
    for (int n = 0; n < 8; ++n) {
      if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
        live.push_back(NodeId(static_cast<NodeId::value_type>(n)));
      }
    }
    return live;
  };
  f.dfs.fail_node(NodeId(0), live_without({0}));
  cache.fail_node(NodeId(0));
  f.dfs.fail_node(NodeId(2), live_without({0, 2}));
  cache.fail_node(NodeId(2));

  for (const BlockId b : {evicted, cached}) {
    SCOPED_TRACE("block " + std::to_string(b.value()));
    std::vector<NodeId> expected = f.dfs.locations(b);
    const auto& holders = cache.cached_holders(b);
    expected.insert(expected.end(), holders.begin(), holders.end());
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(cache.merged_locations(b), expected);
  }
  const auto& merged = cache.merged_locations(evicted);
  EXPECT_EQ(std::count(merged.begin(), merged.end(), NodeId(0)), 0);
}

// The merged map is not in the snapshot: the restore rebuilds it from the
// cached-on sets and the DFS.  After caching, evictions and a disk
// failover under a cached block, a restored cache offers every block the
// live cache's merged locations.
TEST(BlockCache, RestoreRebuildsMergedLocations) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(256.0));  // room for two blocks per node
  for (int i = 0; i < 5; ++i) cache.insert(NodeId(5), f.block(i));
  EXPECT_EQ(cache.stats().evictions, 3u);  // blocks 0..2 left node 5
  cache.insert(NodeId(6), f.block(1));
  cache.insert(NodeId(7), f.block(2));
  // Node 2 holds block 2's one disk replica; failover moves it while node
  // 7 caches the block.
  std::vector<NodeId> live;
  for (NodeId::value_type n = 0; n < 8; ++n) {
    if (n != 2) live.push_back(NodeId(n));
  }
  f.dfs.fail_node(NodeId(2), live);
  cache.fail_node(NodeId(2));
  ASSERT_NE(f.dfs.locations(f.block(2)), std::vector<NodeId>{NodeId(2)});

  snap::SnapshotWriter w;
  w.begin_section("CACH");
  cache.SaveTo(w);
  w.end_section();
  snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
  BlockCache restored(f.dfs, MB(256.0));
  r.begin_section("CACH");
  restored.RestoreFrom(r);
  r.end_section();
  for (const BlockId b : f.dfs.namenode().all_blocks()) {
    EXPECT_EQ(restored.merged_locations(b), cache.merged_locations(b))
        << "block " << b.value();
  }
}

TEST(BlockCache, StatsCountHitsAndLookups) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(512.0));
  cache.insert(NodeId(5), f.block(0));
  (void)cache.is_cached(NodeId(5), f.block(0));  // hit
  (void)cache.is_cached(NodeId(4), f.block(0));  // miss
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(BlockCache, IndependentPerNodeBudgets) {
  CacheFixture f;
  BlockCache cache(f.dfs, MB(128.0));
  cache.insert(NodeId(4), f.block(0));
  cache.insert(NodeId(5), f.block(1));
  EXPECT_TRUE(cache.is_cached(NodeId(4), f.block(0)));
  EXPECT_TRUE(cache.is_cached(NodeId(5), f.block(1)));
}

// ---------- end-to-end -------------------------------------------------------

TEST(CacheIntegration, CacheLiftsBaselineLocality) {
  using namespace custody::workload;
  ExperimentConfig config;
  config.num_nodes = 16;
  config.manager = ManagerKind::kStandalone;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 6;
  config.trace.files_per_kind = 3;  // hot files: re-reads hit the cache
  config.trace.zipf_skew = 1.2;
  config.seed = 17;

  const auto without = RunExperiment(config);
  config.cache_mb_per_node = 4096.0;
  const auto with_cache = RunExperiment(config);
  EXPECT_GT(with_cache.cache_insertions, 0u);
  EXPECT_GE(with_cache.overall_task_locality_percent,
            without.overall_task_locality_percent);
  EXPECT_LE(with_cache.jct.mean, without.jct.mean * 1.05);
}

TEST(CacheIntegration, CustodySeesCachedCopiesAsLocality) {
  using namespace custody::workload;
  ExperimentConfig config;
  config.num_nodes = 16;
  config.manager = ManagerKind::kCustody;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 6;
  config.trace.files_per_kind = 3;
  config.trace.zipf_skew = 1.2;
  config.cache_mb_per_node = 4096.0;
  config.seed = 17;
  const auto result = RunExperiment(config);
  EXPECT_EQ(result.jobs_completed, 18);
  EXPECT_GT(result.overall_task_locality_percent, 90.0);
}

}  // namespace
}  // namespace custody::dfs
