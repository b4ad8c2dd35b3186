// ReadyTaskIndex against a brute-force recompute.
//
// The index's contract (ready_index.h): a (task, node) pair is in
// local_ready exactly while the task is ready and the node holds a disk
// replica or a cached copy of its block.  This suite drives random churn
// through a small Dfs and BlockCache — task_ready / task_unready /
// job_removed, disk replica adds (boosts, re-replication) and removes
// (node failover), cache inserts, LRU evictions and cache loss — and
// notifies the index exactly the way Application's listeners do.  After
// every step each query is compared with a recompute over the test's own
// task table and the live locations, and the index's node listener calls,
// replayed onto the previous step's local-ready node set, must be real
// joins and leaves that yield the recomputed set.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/ready_index.h"
#include "common/rng.h"
#include "common/units.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"

namespace custody::app {
namespace {

using custody::units::MB;

constexpr std::size_t kNodes = 6;
constexpr int kFiles = 4;
constexpr int kBlocksPerFile = 2;

class ReadyIndexChurn {
 public:
  explicit ReadyIndexChurn(std::uint64_t seed)
      : rng_(seed), dfs_(MakeDfsConfig(), Rng(seed + 1)),
        cache_(dfs_, MB(256.0)),  // two blocks per node
        index_(dfs_) {
    for (int f = 0; f < kFiles; ++f) {
      files_.push_back(dfs_.write_file("/f" + std::to_string(f),
                                       kBlocksPerFile * MB(128.0), 1));
    }
    // Registered like Application does: after the cache subscribed to the
    // Dfs, so the cache's merged view is current when the index hears.
    index_.set_cache(&cache_);
    index_.set_listener([this](NodeId node, bool joined) {
      // A join of a node already in the set, or a leave of one outside
      // it, is not a transition.
      if (joined != (listened_.count(node) == 0)) ++false_transitions_;
      if (joined) {
        listened_.insert(node);
      } else {
        listened_.erase(node);
      }
    });
    dfs_listener_ = dfs_.add_replica_listener(
        [this](BlockId block, NodeId node, bool added) {
          if (added) {
            index_.replica_added(block, node);
          } else {
            count_if_other_kind_remains(block, node);
            index_.replica_removed(block, node);
          }
        });
    cache_listener_ = cache_.add_change_listener(
        [this](BlockId block, NodeId node, bool cached) {
          if (cached) {
            index_.replica_added(block, node);
          } else {
            count_if_other_kind_remains(block, node);
            index_.replica_removed(block, node);
          }
        });
    for (int j = 0; j < 3; ++j) add_job();
  }

  ~ReadyIndexChurn() {
    dfs_.remove_replica_listener(dfs_listener_);
    cache_.remove_change_listener(cache_listener_);
  }

  /// One random mutation of the task table, the disk replicas or the cache.
  void step() {
    switch (rng_.index(9)) {
      case 0:
      case 1:
        make_some_task_ready();
        break;
      case 2:
        launch_some_ready_task();
        break;
      case 3:
        settle_some_running_task();
        break;
      case 4:
        retire_or_add_job();
        break;
      case 5:
        boost_some_file();
        break;
      case 6:
        fail_some_disk();
        break;
      case 7:
        cache_.insert(random_node(), random_block());
        break;
      case 8:
        if (rng_.index(4) == 0) cache_.fail_node(random_node());
        break;
    }
  }

  /// Every index query against the recompute.
  void verify() const {
    int ready = 0;
    std::map<NodeId, std::size_t> nodes;
    std::set<BlockId> blocks;
    for (const auto& [job, ids] : jobs_) {
      std::vector<TaskId> inputs;
      std::vector<TaskId> others;
      for (const TaskId id : ids) {  // ascending
        const Task& t = tasks_.at(id);
        if (t.state != TaskState::kReady) continue;
        ++ready;
        if (!t.is_input()) {
          others.push_back(id);
          continue;
        }
        inputs.push_back(id);
        blocks.insert(t.block);
      }
      ASSERT_EQ(index_.ready_inputs(job), inputs) << "job " << job;
      ASSERT_EQ(index_.first_ready_input(job), First(inputs)) << "job " << job;
      ASSERT_EQ(index_.first_ready_other(job), First(others)) << "job " << job;
      ASSERT_EQ(index_.has_ready_input(job), !inputs.empty());
      ASSERT_EQ(index_.has_ready_other(job), !others.empty());
      for (NodeId::value_type n = 0; n <= kNodes; ++n) {  // one unknown node
        const NodeId node(n);
        TaskId local = TaskId::invalid();
        for (const TaskId id : inputs) {
          if (!Local(tasks_.at(id).block, node)) continue;
          if (!local.valid()) local = id;
          ++nodes[node];
        }
        ASSERT_EQ(index_.first_local_input(job, node), local)
            << "job " << job << " node " << n;
        ASSERT_EQ(index_.has_local_ready_input(job, node), local.valid());
      }
    }
    ASSERT_EQ(index_.ready_count(), ready);
    std::set<NodeId> local_ready;
    for (NodeId::value_type n = 0; n <= kNodes; ++n) {
      const auto it = nodes.find(NodeId(n));
      const std::size_t count = it == nodes.end() ? 0 : it->second;
      ASSERT_EQ(index_.local_ready_count(NodeId(n)), count) << "node " << n;
      ASSERT_EQ(index_.any_local_ready_input(NodeId(n)), count > 0)
          << "node " << n;
      if (count > 0) local_ready.insert(NodeId(n));
    }
    ASSERT_EQ(false_transitions_, 0);
    ASSERT_EQ(listened_, local_ready);
    std::vector<BlockId> walked;
    EXPECT_FALSE(index_.any_ready_block([&walked](BlockId block) {
      walked.push_back(block);
      return false;
    }));
    ASSERT_EQ(walked.size(), blocks.size());  // each block once
    ASSERT_EQ(std::set<BlockId>(walked.begin(), walked.end()), blocks);
    // Jobs the index has forgotten answer like jobs it never knew.
    for (const JobId job : removed_jobs_) {
      ASSERT_TRUE(index_.ready_inputs(job).empty());
      ASSERT_FALSE(index_.first_ready_input(job).valid());
      ASSERT_FALSE(index_.has_local_ready_input(job, NodeId(0)));
    }
  }

  /// Removals of one kind of copy while the other kind stayed on the node
  /// and a ready task read the block — the case replica_removed must keep.
  [[nodiscard]] int other_kind_kept() const { return other_kind_kept_; }

 private:
  static dfs::DfsConfig MakeDfsConfig() {
    dfs::DfsConfig config;
    config.num_nodes = kNodes;
    config.block_bytes = MB(128.0);
    return config;
  }

  static TaskId First(const std::vector<TaskId>& ids) {
    return ids.empty() ? TaskId::invalid() : ids.front();
  }

  [[nodiscard]] bool Local(BlockId block, NodeId node) const {
    return node.value() < kNodes &&
           (dfs_.is_local(block, node) || cache_.peek_cached(node, block));
  }

  void count_if_other_kind_remains(BlockId block, NodeId node) {
    if (!Local(block, node)) return;
    for (const auto& [id, t] : tasks_) {
      if (t.state == TaskState::kReady && t.is_input() && t.block == block) {
        ++other_kind_kept_;
        return;
      }
    }
  }

  NodeId random_node() {
    return NodeId(static_cast<NodeId::value_type>(rng_.index(kNodes)));
  }

  BlockId random_block() {
    const FileId file = files_[rng_.index(files_.size())];
    return dfs_.blocks_of(file)[rng_.index(kBlocksPerFile)];
  }

  /// A job reading one file: an input task per block, then two downstream
  /// tasks.  Ids ascend in stage order, as Application assigns them.
  void add_job() {
    const JobId job(next_job_++);
    const FileId file = files_[rng_.index(files_.size())];
    std::vector<TaskId>& ids = jobs_[job];
    for (const BlockId block : dfs_.blocks_of(file)) {
      Task t;
      t.id = TaskId(next_task_++);
      t.job = job;
      t.stage = 0;
      t.block = block;
      ids.push_back(t.id);
      tasks_.emplace(t.id, t);
    }
    for (int i = 0; i < 2; ++i) {
      Task t;
      t.id = TaskId(next_task_++);
      t.job = job;
      t.stage = 1;
      ids.push_back(t.id);
      tasks_.emplace(t.id, t);
    }
  }

  /// A random task of a live job in `state`, or null.
  Task* pick_task(TaskState state) {
    std::vector<Task*> candidates;
    for (auto& [job, ids] : jobs_) {
      for (const TaskId id : ids) {
        Task& t = tasks_.at(id);
        if (t.state == state) candidates.push_back(&t);
      }
    }
    if (candidates.empty()) return nullptr;
    return candidates[rng_.index(candidates.size())];
  }

  void make_some_task_ready() {
    // Blocked tasks become ready (stage unblocked); running ones are reset
    // after a failure.
    Task* t = pick_task(rng_.index(3) == 0 ? TaskState::kRunning
                                           : TaskState::kBlocked);
    if (t == nullptr) return;
    t->state = TaskState::kReady;
    index_.task_ready(*t);
  }

  void launch_some_ready_task() {
    Task* t = pick_task(TaskState::kReady);
    if (t == nullptr) return;
    index_.task_unready(*t);
    t->state = TaskState::kRunning;
  }

  void settle_some_running_task() {
    Task* t = pick_task(TaskState::kRunning);
    if (t != nullptr) t->state = TaskState::kFinished;
  }

  void retire_or_add_job() {
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      const bool done = std::all_of(
          it->second.begin(), it->second.end(), [this](TaskId id) {
            return tasks_.at(id).state == TaskState::kFinished;
          });
      if (!done) continue;
      index_.job_removed(it->first);
      removed_jobs_.push_back(it->first);
      for (const TaskId id : it->second) tasks_.erase(id);
      jobs_.erase(it);
      break;
    }
    if (jobs_.size() < 5) add_job();
  }

  void boost_some_file() {
    const FileId file = files_[rng_.index(files_.size())];
    for (const BlockId block : dfs_.blocks_of(file)) {
      if (dfs_.locations(block).size() >= kNodes) return;
    }
    dfs_.boost_replication(file, 1);
  }

  void fail_some_disk() {
    // Re-replicates the node's blocks elsewhere and drops its copies (the
    // last copy of a block stays).  The node keeps its cache.
    const NodeId dead = random_node();
    std::vector<NodeId> live;
    for (NodeId::value_type n = 0; n < kNodes; ++n) {
      if (NodeId(n) != dead) live.emplace_back(n);
    }
    dfs_.fail_node(dead, live);
  }

  Rng rng_;
  dfs::Dfs dfs_;
  dfs::BlockCache cache_;
  ReadyTaskIndex index_;
  dfs::Dfs::ListenerId dfs_listener_ = 0;
  dfs::BlockCache::ListenerId cache_listener_ = 0;
  std::vector<FileId> files_;
  TaskTable tasks_;
  std::map<JobId, std::vector<TaskId>> jobs_;
  std::vector<JobId> removed_jobs_;
  /// The local-ready node set as the node listener's calls built it.
  std::set<NodeId> listened_;
  int false_transitions_ = 0;
  JobId::value_type next_job_ = 0;
  TaskId::value_type next_task_ = 0;
  int other_kind_kept_ = 0;
};

TEST(ReadyTaskIndex, MatchesRecomputeUnderChurn) {
  int other_kind_kept = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ReadyIndexChurn churn(seed);
    churn.verify();
    for (int step = 0; step < 600; ++step) {
      churn.step();
      churn.verify();
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "after step " << step;
      }
    }
    other_kind_kept += churn.other_kind_kept();
  }
  // Not vacuous: nodes held both kinds of copy of a ready task's block and
  // lost one of them.
  EXPECT_GT(other_kind_kept, 0);
}

}  // namespace
}  // namespace custody::app
