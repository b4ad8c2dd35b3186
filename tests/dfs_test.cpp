// Tests for the simulated distributed filesystem: NameNode metadata,
// block carving, replica management, placement policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/snapshot.h"
#include "common/units.h"
#include "dfs/dfs.h"

namespace custody::dfs {
namespace {

using custody::units::GB;
using custody::units::MB;

DfsConfig Config(std::size_t nodes = 10, int replication = 3) {
  DfsConfig c;
  c.num_nodes = nodes;
  c.block_bytes = MB(128.0);
  c.default_replication = replication;
  return c;
}

TEST(NameNode, CarvesFileIntoBlocks) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(300.0), MB(128.0), 3);
  const auto& blocks = nn.blocks_of(f);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_DOUBLE_EQ(nn.block(blocks[0]).bytes, MB(128.0));
  EXPECT_DOUBLE_EQ(nn.block(blocks[1]).bytes, MB(128.0));
  EXPECT_DOUBLE_EQ(nn.block(blocks[2]).bytes, MB(44.0));  // tail block
  EXPECT_EQ(nn.block(blocks[2]).index, 2u);
  EXPECT_EQ(nn.block(blocks[0]).file, f);
}

TEST(NameNode, ExactMultipleHasNoTailBlock) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(256.0), MB(128.0), 3);
  ASSERT_EQ(nn.blocks_of(f).size(), 2u);
  EXPECT_DOUBLE_EQ(nn.block(nn.blocks_of(f)[1]).bytes, MB(128.0));
}

TEST(NameNode, LookupByPath) {
  NameNode nn;
  const FileId f = nn.create_file("/x/y", MB(10.0), MB(128.0), 1);
  EXPECT_EQ(nn.lookup("/x/y"), f);
  EXPECT_FALSE(nn.lookup("/missing").has_value());
}

TEST(NameNode, RejectsDuplicatePath) {
  NameNode nn;
  nn.create_file("/a", MB(10.0), MB(128.0), 1);
  EXPECT_THROW(nn.create_file("/a", MB(10.0), MB(128.0), 1),
               std::invalid_argument);
}

TEST(NameNode, RejectsBadSizes) {
  NameNode nn;
  EXPECT_THROW(nn.create_file("/a", 0.0, MB(128.0), 1), std::invalid_argument);
  EXPECT_THROW(nn.create_file("/b", MB(1.0), 0.0, 1), std::invalid_argument);
  EXPECT_THROW(nn.create_file("/c", MB(1.0), MB(128.0), 0),
               std::invalid_argument);
}

TEST(NameNode, ReplicaAddRemoveAndLocality) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(3));
  nn.add_replica(b, NodeId(1));
  EXPECT_TRUE(nn.is_local(b, NodeId(1)));
  EXPECT_TRUE(nn.is_local(b, NodeId(3)));
  EXPECT_FALSE(nn.is_local(b, NodeId(2)));
  EXPECT_EQ(nn.locations(b), (std::vector<NodeId>{NodeId(1), NodeId(3)}));
  nn.remove_replica(b, NodeId(3));
  EXPECT_FALSE(nn.is_local(b, NodeId(3)));
}

TEST(NameNode, RefusesToRemoveLastReplica) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(0));
  EXPECT_THROW(nn.remove_replica(b, NodeId(0)), std::logic_error);
}

TEST(NameNode, RejectsDuplicateReplica) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(0));
  EXPECT_THROW(nn.add_replica(b, NodeId(0)), std::invalid_argument);
}

TEST(Dfs, WriteFilePlacesAllReplicas) {
  Dfs dfs(Config(), Rng(1));
  const FileId f = dfs.write_file("/data", GB(1.0));
  for (BlockId b : dfs.blocks_of(f)) {
    const auto& locs = dfs.locations(b);
    EXPECT_EQ(locs.size(), 3u);
    // Replicas on distinct nodes.
    std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), locs.size());
    for (NodeId n : locs) EXPECT_LT(n.value(), dfs.num_nodes());
  }
}

TEST(Dfs, BytesOnTracksPlacement) {
  Dfs dfs(Config(4, 2), Rng(2));
  dfs.write_file("/data", MB(256.0));
  double total = 0.0;
  for (std::size_t n = 0; n < dfs.num_nodes(); ++n) {
    total += dfs.bytes_on(NodeId(static_cast<NodeId::value_type>(n)));
  }
  EXPECT_DOUBLE_EQ(total, MB(256.0) * 2);  // 2 replicas of every byte
}

TEST(Dfs, ExplicitReplicationOverride) {
  Dfs dfs(Config(10, 3), Rng(3));
  const FileId f = dfs.write_file("/data", MB(128.0), 5);
  EXPECT_EQ(dfs.locations(dfs.blocks_of(f).front()).size(), 5u);
}

TEST(Dfs, RejectsReplicationBeyondClusterSize) {
  Dfs dfs(Config(3), Rng(4));
  EXPECT_THROW(dfs.write_file("/data", MB(10.0), 4), std::invalid_argument);
}

TEST(Dfs, BoostReplicationAddsDistinctNodes) {
  Dfs dfs(Config(10, 2), Rng(5));
  const FileId f = dfs.write_file("/hot", MB(256.0));
  dfs.boost_replication(f, 3);
  for (BlockId b : dfs.blocks_of(f)) {
    const auto& locs = dfs.locations(b);
    EXPECT_EQ(locs.size(), 5u);
    std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), 5u);
  }
}

TEST(Dfs, BoostZeroIsNoop) {
  Dfs dfs(Config(), Rng(6));
  const FileId f = dfs.write_file("/a", MB(128.0));
  dfs.boost_replication(f, 0);
  EXPECT_EQ(dfs.locations(dfs.blocks_of(f).front()).size(), 3u);
}

TEST(Dfs, DeterministicForSameSeed) {
  Dfs a(Config(), Rng(77));
  Dfs b(Config(), Rng(77));
  const FileId fa = a.write_file("/d", GB(2.0));
  const FileId fb = b.write_file("/d", GB(2.0));
  ASSERT_EQ(a.blocks_of(fa).size(), b.blocks_of(fb).size());
  for (std::size_t i = 0; i < a.blocks_of(fa).size(); ++i) {
    EXPECT_EQ(a.locations(a.blocks_of(fa)[i]), b.locations(b.blocks_of(fb)[i]));
  }
}

TEST(NameNode, BlocksOnTracksReplicaChurn) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(300.0), MB(128.0), 3);
  const BlockId b0 = nn.blocks_of(f)[0];
  const BlockId b1 = nn.blocks_of(f)[1];
  nn.add_replica(b0, NodeId(2));
  nn.add_replica(b1, NodeId(2));
  nn.add_replica(b1, NodeId(4));
  EXPECT_EQ(nn.blocks_on(NodeId(2)), (std::vector<BlockId>{b0, b1}));
  EXPECT_EQ(nn.blocks_on(NodeId(4)), (std::vector<BlockId>{b1}));
  EXPECT_TRUE(nn.blocks_on(NodeId(7)).empty());
  nn.remove_replica(b1, NodeId(2));
  EXPECT_EQ(nn.blocks_on(NodeId(2)), (std::vector<BlockId>{b0}));
}

/// Restores a one-block catalog on a 4-node cluster from a forged section
/// whose only block lists `replicas`, and returns the restored list.
std::vector<NodeId> RestoreReplicas(
    const std::vector<std::uint32_t>& replicas) {
  NameNode nn;
  (void)nn.create_file("/a", MB(64.0), MB(128.0), 2);
  snap::SnapshotWriter w;
  w.begin_section("NN  ");
  w.u32(1);   // next file id
  w.u32(1);   // next block id
  w.size(1);  // files
  w.size(1);  // blocks
  w.u32(0);   // block 0
  w.size(replicas.size());
  for (const std::uint32_t n : replicas) w.u32(n);
  w.end_section();
  snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
  r.begin_section("NN  ");
  nn.RestoreFrom(r, /*num_nodes=*/4);
  r.end_section();
  return nn.locations(BlockId(0));
}

// Readers index per-node tables by replica node ids (pending demand, the
// idle lookup of pool_has_useful_executor).
TEST(NameNode, RestoreRejectsReplicaNodeOffTheCluster) {
  EXPECT_EQ(RestoreReplicas({1, 3}),
            (std::vector<NodeId>{NodeId(1), NodeId(3)}));
  EXPECT_THROW(RestoreReplicas({1, 4}), snap::SnapshotError);
  EXPECT_THROW(RestoreReplicas({1000}), snap::SnapshotError);
}

// is_local binary-searches the list, and a block never loses its last
// replica.
TEST(NameNode, RestoreRejectsUnsortedOrEmptyReplicaList) {
  EXPECT_THROW(RestoreReplicas({3, 1}), snap::SnapshotError);
  EXPECT_THROW(RestoreReplicas({2, 2}), snap::SnapshotError);
  EXPECT_THROW(RestoreReplicas({}), snap::SnapshotError);
}

/// The failover reference: the seed's full-block-map scan over a copy of
/// the filesystem's replica map, drawing from a copy of its RNG.  For every
/// block the dead node holds, in block-id order, it picks a target
/// uniformly from the live nodes (in `live_nodes` order) that do not hold
/// the block yet, then drops the dead copy unless it is the last one.
class FailoverModel {
 public:
  explicit FailoverModel(const Dfs& dfs) : dfs_(&dfs), rng_(0) {
    // The RNG is the first thing a Dfs snapshot records.
    snap::SnapshotWriter w;
    dfs.SaveTo(w);
    snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
    rng_.RestoreFrom(r);
    for (const BlockId b : dfs.namenode().all_blocks()) {
      replicas_[b] = dfs.locations(b);
    }
    for (NodeId::value_type n = 0; n < dfs.num_nodes(); ++n) {
      bytes_.push_back(dfs.bytes_on(NodeId(n)));
    }
  }

  void fail_node(NodeId node, const std::vector<NodeId>& live_nodes) {
    for (auto& [block, holders] : replicas_) {
      if (!Holds(holders, node)) continue;
      const double bytes = dfs_->block(block).bytes;
      std::vector<NodeId> candidates;
      for (const NodeId live : live_nodes) {
        if (live != node && !Holds(holders, live)) candidates.push_back(live);
      }
      if (!candidates.empty()) {
        const NodeId target = rng_.pick(candidates);
        holders.insert(std::lower_bound(holders.begin(), holders.end(), target),
                       target);
        bytes_[target.value()] += bytes;
      }
      if (holders.size() > 1) {
        holders.erase(std::find(holders.begin(), holders.end(), node));
        bytes_[node.value()] -= bytes;
      }
    }
  }

  [[nodiscard]] const std::vector<NodeId>& locations(BlockId b) const {
    return replicas_.at(b);
  }
  [[nodiscard]] double bytes_on(NodeId n) const { return bytes_[n.value()]; }

 private:
  static bool Holds(const std::vector<NodeId>& holders, NodeId n) {
    return std::find(holders.begin(), holders.end(), n) != holders.end();
  }

  const Dfs* dfs_;
  Rng rng_;
  std::map<BlockId, std::vector<NodeId>> replicas_;  // block-id order
  std::vector<double> bytes_;
};

/// Several failures applied to a seeded filesystem must agree block for
/// block with the reference scan model: fail_node walks only the dead
/// node's blocks and draws the target as an order statistic, but consumes
/// the same RNG draws and picks the same targets.
TEST(Dfs, IndexedFailoverMatchesReferenceForFixedSeed) {
  for (const std::uint64_t seed : {11u, 29u, 47u, 63u, 81u}) {
    Dfs dfs(Config(12, 3), Rng(seed));
    std::vector<FileId> files;
    for (int i = 0; i < 6; ++i) {
      files.push_back(dfs.write_file("/f" + std::to_string(i), MB(400.0)));
    }
    FailoverModel reference(dfs);

    auto live_without = [](std::initializer_list<NodeId::value_type> dead) {
      std::vector<NodeId> live;
      for (NodeId::value_type n = 0; n < 12; ++n) {
        if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
          live.emplace_back(n);
        }
      }
      return live;
    };
    dfs.fail_node(NodeId(3), live_without({3}));
    reference.fail_node(NodeId(3), live_without({3}));
    dfs.fail_node(NodeId(7), live_without({3, 7}));
    reference.fail_node(NodeId(7), live_without({3, 7}));

    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& blocks = dfs.blocks_of(files[i]);
      for (std::size_t k = 0; k < blocks.size(); ++k) {
        EXPECT_EQ(dfs.locations(blocks[k]), reference.locations(blocks[k]))
            << "seed=" << seed << " file=" << i << " block=" << k;
      }
    }
    for (NodeId::value_type n = 0; n < 12; ++n) {
      EXPECT_EQ(dfs.bytes_on(NodeId(n)), reference.bytes_on(NodeId(n)))
          << "seed=" << seed << " node=" << n;
    }
  }
}

TEST(Dfs, FailNodeRejectsUnsortedLiveNodes) {
  // The order-statistics sampler needs an ascending live list; an unsorted
  // one is refused before any replica moves or any RNG draw is made.
  Dfs dfs(Config(10, 2), Rng(5));
  Dfs twin(Config(10, 2), Rng(5));
  const FileId f = dfs.write_file("/d", MB(600.0));
  twin.write_file("/d", MB(600.0));
  std::vector<NodeId> live{NodeId(9), NodeId(1), NodeId(4),
                           NodeId(8), NodeId(2), NodeId(6),
                           NodeId(5), NodeId(7), NodeId(3)};
  EXPECT_THROW(dfs.fail_node(NodeId(0), live), std::invalid_argument);
  const auto& blocks = dfs.blocks_of(f);
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    EXPECT_EQ(dfs.locations(blocks[k]), twin.locations(blocks[k]))
        << "block " << k;
  }
  for (NodeId::value_type n = 0; n < 10; ++n) {
    EXPECT_EQ(dfs.bytes_on(NodeId(n)), twin.bytes_on(NodeId(n)))
        << "node " << n;
  }
  // The RNG is untouched too: a sorted retry matches the twin's failover.
  std::sort(live.begin(), live.end());
  dfs.fail_node(NodeId(0), live);
  twin.fail_node(NodeId(0), live);
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    EXPECT_EQ(dfs.locations(blocks[k]), twin.locations(blocks[k]))
        << "block " << k << " after the sorted retry";
  }
}

// fail_node takes the dead node's blocks from one scan of the replica
// table: it re-replicates every block whose list names the node, and no
// other, in ascending block id, dropping each dead copy after its new one.
TEST(Dfs, FailNodeReReplicatesExactlyTheNodesBlocksInAscendingId) {
  Dfs dfs(Config(8, 2), Rng(33));
  for (int i = 0; i < 4; ++i) {
    dfs.write_file("/f" + std::to_string(i), MB(700.0));
  }
  const NodeId dead(5);
  std::vector<BlockId> held;
  for (const BlockId b : dfs.namenode().all_blocks()) {
    if (dfs.is_local(b, dead)) held.push_back(b);
  }
  ASSERT_GE(held.size(), 2u);
  std::vector<BlockId> added;
  std::vector<BlockId> removed;
  (void)dfs.add_replica_listener([&](BlockId b, NodeId n, bool is_added) {
    if (is_added) {
      EXPECT_NE(n, dead);
      added.push_back(b);
    } else {
      EXPECT_EQ(n, dead);
      EXPECT_EQ(added.size(), removed.size() + 1) << "block " << b.value();
      removed.push_back(b);
    }
  });
  std::vector<NodeId> live;
  for (NodeId::value_type n = 0; n < 8; ++n) {
    if (NodeId(n) != dead) live.emplace_back(n);
  }
  dfs.fail_node(dead, live);
  EXPECT_EQ(added, held);
  EXPECT_EQ(removed, held);
  EXPECT_TRUE(dfs.namenode().blocks_on(dead).empty());
  for (const BlockId b : held) EXPECT_EQ(dfs.locations(b).size(), 2u);
}

TEST(Dfs, ReplicaListenerSeesFailoverChurn) {
  DfsConfig config = Config(8, 2);
  Dfs dfs(config, Rng(21));
  const FileId f = dfs.write_file("/a", MB(256.0));
  struct Event {
    BlockId block;
    NodeId node;
    bool added;
  };
  std::vector<Event> events;
  const Dfs::ListenerId id = dfs.add_replica_listener(
      [&events](BlockId b, NodeId n, bool added) {
        events.push_back({b, n, added});
      });
  std::vector<NodeId> live;
  for (NodeId::value_type n = 1; n < 8; ++n) live.emplace_back(n);
  dfs.fail_node(NodeId(0), live);
  for (const Event& e : events) {
    if (!e.added) {
      EXPECT_EQ(e.node, NodeId(0));  // only the dead node loses replicas
    } else {
      EXPECT_TRUE(dfs.is_local(e.block, e.node));  // adds landed
    }
  }
  // Every add is paired with the dead-node remove of the same block.
  const auto adds = std::count_if(events.begin(), events.end(),
                                  [](const Event& e) { return e.added; });
  const auto removes = static_cast<std::ptrdiff_t>(events.size()) - adds;
  EXPECT_EQ(adds, removes);
  dfs.remove_replica_listener(id);
  dfs.boost_replication(f, 1);
  EXPECT_EQ(adds + removes, static_cast<std::ptrdiff_t>(events.size()));
}

TEST(Placement, SampleDistinctNodesExcludes) {
  Rng rng(8);
  const std::vector<NodeId> exclude{NodeId(0), NodeId(1)};
  for (int trial = 0; trial < 20; ++trial) {
    const auto nodes = SampleDistinctNodes(5, 3, exclude, rng);
    EXPECT_EQ(nodes.size(), 3u);
    std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
    for (NodeId n : nodes) {
      EXPECT_NE(n, NodeId(0));
      EXPECT_NE(n, NodeId(1));
    }
  }
}

TEST(Placement, SampleDistinctNodesRejectsOverflow) {
  Rng rng(9);
  EXPECT_THROW(SampleDistinctNodes(3, 4, {}, rng), std::invalid_argument);
  EXPECT_THROW(SampleDistinctNodes(3, 2, {NodeId(0), NodeId(1)}, rng),
               std::invalid_argument);
}

TEST(Placement, RandomCoversClusterEventually) {
  DfsConfig config = Config(8, 1);
  Dfs dfs(config, Rng(10));
  for (int i = 0; i < 40; ++i) {
    dfs.write_file("/f" + std::to_string(i), MB(128.0));
  }
  int nodes_with_data = 0;
  for (std::size_t n = 0; n < 8; ++n) {
    if (dfs.bytes_on(NodeId(static_cast<NodeId::value_type>(n))) > 0) {
      ++nodes_with_data;
    }
  }
  EXPECT_GE(nodes_with_data, 7);
}

}  // namespace
}  // namespace custody::dfs
