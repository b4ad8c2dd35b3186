// Tests for the Custody allocation algorithms (Algorithms 1 and 2),
// including the paper's motivating scenarios of Figs. 1, 3 and 4 and
// property checks of the capacity constraints (2)-(4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"
#include "common/snapshot.h"
#include "core/allocator.h"
#include "core/idle_index.h"

namespace custody::core {
namespace {

/// Simple block->nodes oracle backed by a map.
class Locations {
 public:
  void set(BlockId block, std::vector<NodeId> nodes) {
    map_[block] = std::move(nodes);
  }
  BlockLocationsFn fn() const {
    return [this](BlockId b) -> const std::vector<NodeId>& {
      static const std::vector<NodeId> kEmpty;
      auto it = map_.find(b);
      return it == map_.end() ? kEmpty : it->second;
    };
  }

 private:
  std::map<BlockId, std::vector<NodeId>> map_;
};

std::map<ExecutorId, AppId> ByExecutor(const AllocationResult& result) {
  std::map<ExecutorId, AppId> out;
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(out.count(a.exec), 0u) << "executor assigned twice";
    out[a.exec] = a.app;
  }
  return out;
}

// ---------- inter-app ordering ----------------------------------------------

TEST(MinLocality, OrdersByJobFractionThenTaskFraction) {
  AppAllocState a;
  a.app = AppId(0);
  a.projected = {1, 2, 5, 10};  // 50% jobs
  AppAllocState b;
  b.app = AppId(1);
  b.projected = {1, 4, 5, 10};  // 25% jobs
  EXPECT_TRUE(MinLocalityLess(b, a));
  EXPECT_FALSE(MinLocalityLess(a, b));

  b.projected = {1, 2, 4, 10};  // same jobs %, fewer local tasks
  EXPECT_TRUE(MinLocalityLess(b, a));
}

TEST(MinLocality, TieBrokenByAppId) {
  AppAllocState a;
  a.app = AppId(3);
  AppAllocState b;
  b.app = AppId(1);
  EXPECT_TRUE(MinLocalityLess(b, a));
}

TEST(MinLocality, PickSkipsAppsAtBudget) {
  AppAllocState a;
  a.app = AppId(0);
  a.budget = 1;
  a.held = 1;  // full
  AppAllocState b;
  b.app = AppId(1);
  b.budget = 2;
  b.held = 0;
  b.projected = {5, 10, 5, 10};  // worse locality than a, but a is full
  const auto pick = PickMinLocality({a, b});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(MinLocality, PickReturnsNulloptWhenAllFull) {
  AppAllocState a;
  a.budget = 0;
  EXPECT_FALSE(PickMinLocality({a}).has_value());
}

TEST(MinLocality, MakeAllocStateProjectsPendingJobs) {
  AppDemand demand;
  demand.app = AppId(2);
  demand.budget = 4;
  demand.held = 1;
  demand.locality = {1, 2, 8, 16};
  JobDemand job;
  job.job = 9;
  job.total_tasks = 4;
  job.unsatisfied = {{100, BlockId(0)}, {101, BlockId(1)}};
  demand.jobs.push_back(job);

  const auto state = MakeAllocState(demand, 0);
  EXPECT_EQ(state.projected.total_jobs, 3);
  EXPECT_EQ(state.projected.total_tasks, 20);
  // 2 of the pending job's 4 tasks are already covered by held executors.
  EXPECT_EQ(state.projected.local_tasks, 10);
  EXPECT_EQ(state.projected.local_jobs, 1);  // pending job not yet local
}

// ---------- job priority ----------------------------------------------------

TEST(JobPriority, FewestUnsatisfiedFirst) {
  JobDemand small;
  small.job = 2;
  small.unsatisfied = {{1, BlockId(0)}};
  JobDemand big;
  big.job = 1;
  big.unsatisfied = {{2, BlockId(0)}, {3, BlockId(1)}};
  EXPECT_TRUE(JobPriorityLess(small, big));
  EXPECT_FALSE(JobPriorityLess(big, small));
}

TEST(JobPriority, TieBrokenByJobUid) {
  JobDemand a;
  a.job = 5;
  JobDemand b;
  b.job = 3;
  EXPECT_TRUE(JobPriorityLess(b, a));
}

// ---------- idle index round views -----------------------------------------

/// An idle index holding exactly `execs` (distinct executor ids).
IdleExecutorIndex IndexOf(const std::vector<ExecutorInfo>& execs) {
  std::size_t num_execs = 0;
  std::size_t num_nodes = 0;
  for (const ExecutorInfo& e : execs) {
    num_execs = std::max<std::size_t>(num_execs, e.id.value() + 1);
    num_nodes = std::max<std::size_t>(num_nodes, e.node.value() + 1);
  }
  IdleExecutorIndex index(num_execs, num_nodes);
  for (const ExecutorInfo& e : execs) index.add(e.id, e.node);
  return index;
}

TEST(IdlePool, ClaimOnMatchesNode) {
  IdleExecutorIndex index =
      IndexOf({{ExecutorId(3), NodeId(1)}, {ExecutorId(1), NodeId(2)}});
  IdleExecutorIndex::RoundView pool(index);
  EXPECT_TRUE(pool.has_on({NodeId(2)}));
  const ExecutorId claimed = pool.claim_on({NodeId(2)});
  EXPECT_EQ(claimed, ExecutorId(1));
  EXPECT_FALSE(pool.has_on({NodeId(2)}));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.claim_on({NodeId(2)}).valid());
}

TEST(IdlePool, ClaimAnyDrainsPool) {
  IdleExecutorIndex index =
      IndexOf({{ExecutorId(0), NodeId(0)}, {ExecutorId(1), NodeId(1)}});
  IdleExecutorIndex::RoundView pool(index);
  std::set<ExecutorId> seen;
  seen.insert(pool.claim_any());
  seen.insert(pool.claim_any());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.claim_any().valid());
}

// ---------- idle pool edge cases --------------------------------------------

// claim_any takes the lowest-id unclaimed executor: its cursor only moves
// forward, past each claim and over executors claim_on took, and running
// off the end of an exhausted pool reports invalid, not a crash.
TEST(IdlePool, ClaimAnyCursorRotatesAndWrapsAtEnd) {
  IdleExecutorIndex index = IndexOf({{ExecutorId(0), NodeId(0)},
                                     {ExecutorId(1), NodeId(1)},
                                     {ExecutorId(2), NodeId(2)},
                                     {ExecutorId(3), NodeId(0)}});
  IdleExecutorIndex::RoundView pool(index);
  EXPECT_EQ(pool.claim_any(), ExecutorId(0));  // cursor -> 1
  // claim_on does not move the cursor; it takes executor 3 out from under
  // a later claim_any.
  EXPECT_EQ(pool.claim_on({NodeId(0)}), ExecutorId(3));
  EXPECT_EQ(pool.claim_any(), ExecutorId(1));  // cursor -> 2
  EXPECT_EQ(pool.claim_any(), ExecutorId(2));  // the last unclaimed one
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.claim_any().valid());
  EXPECT_FALSE(pool.claim_any().valid());  // stays invalid, cursor stable
}

// claim_on against a node whose executors have all been taken must fall
// through to invalid, and the per-node head cursor must not resurrect a
// taken executor on later queries.
TEST(IdlePool, ClaimOnExhaustedNodeReturnsInvalid) {
  IdleExecutorIndex index = IndexOf({{ExecutorId(0), NodeId(1)},
                                     {ExecutorId(1), NodeId(1)},
                                     {ExecutorId(2), NodeId(2)}});
  IdleExecutorIndex::RoundView pool(index);
  EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(0));
  EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(1));
  EXPECT_FALSE(pool.has_on({NodeId(1)}));
  EXPECT_FALSE(pool.claim_on({NodeId(1)}).valid());
  // The other node is untouched; a multi-node query skips the dry node.
  EXPECT_EQ(pool.claim_on({NodeId(1), NodeId(2)}), ExecutorId(2));
  EXPECT_TRUE(pool.empty());
}

// has_on must flip exactly when the last executor on a queried node is
// taken — including when claim_any (not claim_on) is what takes it.
TEST(IdlePool, HasOnTracksInterleavedTakes) {
  IdleExecutorIndex index = IndexOf({{ExecutorId(0), NodeId(0)},
                                     {ExecutorId(1), NodeId(0)},
                                     {ExecutorId(2), NodeId(1)}});
  IdleExecutorIndex::RoundView pool(index);
  EXPECT_TRUE(pool.has_on({NodeId(0)}));
  EXPECT_EQ(pool.claim_any(), ExecutorId(0));  // takes node 0's head
  EXPECT_TRUE(pool.has_on({NodeId(0)}));       // executor 1 remains
  EXPECT_EQ(pool.claim_any(), ExecutorId(1));
  EXPECT_FALSE(pool.has_on({NodeId(0)}));
  EXPECT_TRUE(pool.has_on({NodeId(0), NodeId(1)}));
  EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(2));
  EXPECT_FALSE(pool.has_on({NodeId(0), NodeId(1)}));
}

// Nodes with no executors — including node values beyond anything in the
// index — must hit the "no head" sentinel path and report invalid/false
// rather than touching out-of-range state.
TEST(IdlePool, UnknownAndEmptyNodeQueriesAreInvalid) {
  IdleExecutorIndex index = IndexOf({{ExecutorId(0), NodeId(3)}});
  IdleExecutorIndex::RoundView pool(index);
  EXPECT_FALSE(pool.has_on({}));
  EXPECT_FALSE(pool.claim_on({}).valid());
  EXPECT_FALSE(pool.has_on({NodeId(0)}));  // node with no executor
  EXPECT_FALSE(pool.claim_on({NodeId(0)}).valid());
  EXPECT_FALSE(pool.has_on({NodeId(99)}));  // beyond any indexed node
  EXPECT_FALSE(pool.claim_on({NodeId(99)}).valid());
  EXPECT_EQ(pool.size(), 1u);  // nothing was consumed
  EXPECT_EQ(pool.claim_on({NodeId(99), NodeId(3)}), ExecutorId(0));
}

// ---------- persistent idle index -------------------------------------------

/// The RoundView claim contract of idle_index.h, by linear scans over the
/// round's idle executors in ascending id order: claim_on takes the first
/// unclaimed executor on any of the nodes; claim_any the first unclaimed
/// one at or after a scan start (wrapping once), then moves the start past
/// it; claim_on leaves the start alone.  Every executor below the start is
/// claimed, so the wrap never finds one: this is the lowest-unclaimed rule
/// of the index, reached by another route.
class LinearIdlePool {
 public:
  explicit LinearIdlePool(std::vector<ExecutorInfo> idle)
      : idle_(std::move(idle)), taken_(idle_.size(), false) {}

  ExecutorId claim_on(const std::vector<NodeId>& nodes) {
    const std::size_t i = first_on(nodes);
    return i < idle_.size() ? take(i) : ExecutorId::invalid();
  }
  ExecutorId claim_any() {
    for (std::size_t k = 0; k < idle_.size(); ++k) {
      const std::size_t i = (start_ + k) % idle_.size();
      if (taken_[i]) continue;
      start_ = (i + 1) % idle_.size();
      return take(i);
    }
    return ExecutorId::invalid();
  }
  [[nodiscard]] bool has_on(const std::vector<NodeId>& nodes) const {
    return first_on(nodes) < idle_.size();
  }
  [[nodiscard]] std::size_t size() const { return idle_.size() - claimed_; }

 private:
  [[nodiscard]] std::size_t first_on(const std::vector<NodeId>& nodes) const {
    std::size_t i = 0;
    while (i < idle_.size() &&
           (taken_[i] || std::find(nodes.begin(), nodes.end(),
                                   idle_[i].node) == nodes.end())) {
      ++i;
    }
    return i;
  }
  ExecutorId take(std::size_t i) {
    taken_[i] = true;
    ++claimed_;
    return idle_[i].id;
  }

  std::vector<ExecutorInfo> idle_;
  std::vector<bool> taken_;
  std::size_t start_ = 0;
  std::size_t claimed_ = 0;
};

// Property: a RoundView over the persistent index must follow the linear
// claim model claim-for-claim, across rounds separated by random
// add/remove churn, and dropping a view without applying its claims must
// leave the index untouched.  The first 20 inputs build the index by
// random adds, over up to 200 executors, so the idle bitset spans up to
// four 64-bit words.  The last starts with all 130 executors idle (a
// partial last word), built twice — once in one pass by add_all, once by
// ascending adds — and both indices must follow the model through the same
// claims and churn.
TEST(IdleIndex, RoundViewMatchesPoolAcrossMutationsAndRounds) {
  Rng rng(4242);
  for (int trial = 0; trial <= 20; ++trial) {
    const bool bulk = trial == 20;
    const int num_nodes = rng.uniform_int(1, 8);
    const int num_execs = bulk ? 130 : rng.uniform_int(0, 200);
    // Fixed executor -> node homes, like a real cluster.
    std::vector<NodeId> home;
    for (int e = 0; e < num_execs; ++e) {
      home.push_back(NodeId(static_cast<NodeId::value_type>(
          rng.index(num_nodes))));
    }
    std::vector<IdleExecutorIndex> indices(
        bulk ? 2 : 1, IdleExecutorIndex(static_cast<std::size_t>(num_execs),
                                        static_cast<std::size_t>(num_nodes)));
    std::vector<bool> idle(static_cast<std::size_t>(num_execs), bulk);
    if (bulk) {
      indices[0].add_all(home);
      for (int e = 0; e < num_execs; ++e) {
        indices[1].add(ExecutorId(static_cast<ExecutorId::value_type>(e)),
                       home[e]);
      }
    } else {
      for (int e = 0; e < num_execs; ++e) {
        if (rng.uniform(0.0, 1.0) < 0.7) {
          indices[0].add(ExecutorId(static_cast<ExecutorId::value_type>(e)),
                         home[e]);
          idle[static_cast<std::size_t>(e)] = true;
        }
      }
    }

    for (int round = 0; round < 8; ++round) {
      std::vector<ExecutorInfo> infos;  // ascending id, like idle_executors()
      for (int e = 0; e < num_execs; ++e) {
        if (idle[static_cast<std::size_t>(e)]) {
          infos.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                           home[static_cast<std::size_t>(e)]});
        }
      }
      for (const IdleExecutorIndex& index : indices) {
        ASSERT_EQ(index.count(), infos.size());
        std::vector<ExecutorId> ids;
        index.append_ids(ids);
        ASSERT_EQ(ids.size(), infos.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ASSERT_EQ(ids[i], infos[i].id);
        }
      }

      LinearIdlePool reference(infos);
      std::vector<ExecutorId> claimed;
      {
        std::vector<std::unique_ptr<IdleExecutorIndex::RoundView>> views;
        for (IdleExecutorIndex& index : indices) {
          views.push_back(std::make_unique<IdleExecutorIndex::RoundView>(index));
        }
        for (int step = 0; step < num_execs + 4; ++step) {
          ExecutorId want = ExecutorId::invalid();
          if (rng.uniform(0.0, 1.0) < 0.5) {
            std::vector<NodeId> nodes;
            const int count = rng.uniform_int(1, 3);
            for (int k = 0; k < count; ++k) {
              nodes.push_back(NodeId(static_cast<NodeId::value_type>(
                  rng.index(num_nodes + 2))));  // may name unknown nodes
            }
            const bool has = reference.has_on(nodes);
            want = reference.claim_on(nodes);
            for (const auto& view : views) {
              ASSERT_EQ(view->has_on(nodes), has);
              ASSERT_EQ(view->claim_on(nodes), want);
            }
          } else {
            want = reference.claim_any();
            for (const auto& view : views) ASSERT_EQ(view->claim_any(), want);
          }
          if (want.valid()) claimed.push_back(want);
          for (const auto& view : views) {
            ASSERT_EQ(view->size(), reference.size());
            ASSERT_EQ(view->empty(), reference.size() == 0);
          }
        }
      }
      // The dropped views left the indices untouched.
      for (const IdleExecutorIndex& index : indices) {
        ASSERT_EQ(index.count(), infos.size());
      }

      // Now apply the round: claimed executors leave the idle set, then
      // random churn (releases add, grants remove) before the next round.
      for (const ExecutorId e : claimed) {
        for (IdleExecutorIndex& index : indices) {
          index.remove(e, home[e.value()]);
        }
        idle[e.value()] = false;
      }
      for (int e = 0; e < num_execs; ++e) {
        if (rng.uniform(0.0, 1.0) >= 0.3) continue;
        const auto id = ExecutorId(static_cast<ExecutorId::value_type>(e));
        const auto i = static_cast<std::size_t>(e);
        for (IdleExecutorIndex& index : indices) {
          if (idle[i]) {
            index.remove(id, home[i]);
          } else {
            index.add(id, home[i]);
          }
        }
        idle[i] = !idle[i];
      }
    }
  }
}

/// A random allocation round: block locations, the idle executors and the
/// applications' demands.  With `some_busy`, a fifth of the executors are
/// left out of the idle set, so executor ids have gaps.
struct RandomRound {
  Locations loc;
  int num_nodes = 0;
  int num_execs = 0;
  std::vector<ExecutorInfo> idle;
  std::vector<AppDemand> demands;
};

void FillRandomRound(Rng& rng, bool some_busy, RandomRound& round) {
  round.num_nodes = rng.uniform_int(2, 40);
  round.num_execs = rng.uniform_int(1, 80);
  const int num_blocks = rng.uniform_int(1, 60);
  for (int b = 0; b < num_blocks; ++b) {
    std::vector<NodeId> nodes;
    const int replicas = rng.uniform_int(1, std::min(3, round.num_nodes));
    while (static_cast<int>(nodes.size()) < replicas) {
      const NodeId n(
          static_cast<NodeId::value_type>(rng.index(round.num_nodes)));
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
        nodes.push_back(n);
      }
    }
    round.loc.set(BlockId(static_cast<BlockId::value_type>(b)), nodes);
  }
  for (int e = 0; e < round.num_execs; ++e) {
    const NodeId node(
        static_cast<NodeId::value_type>(rng.index(round.num_nodes)));
    if (some_busy && rng.uniform(0.0, 1.0) < 0.2) continue;
    round.idle.push_back(
        {ExecutorId(static_cast<ExecutorId::value_type>(e)), node});
  }
  round.demands.resize(rng.uniform_int(1, 6));
  TaskUid next_task = 0;
  for (std::size_t a = 0; a < round.demands.size(); ++a) {
    AppDemand& demand = round.demands[a];
    demand.app = AppId(static_cast<AppId::value_type>(a));
    demand.budget = rng.uniform_int(0, round.num_execs);
    demand.held = rng.uniform_int(0, 2);
    demand.locality = {rng.uniform_int(0, 5), rng.uniform_int(5, 10),
                       rng.uniform_int(0, 40), rng.uniform_int(40, 80)};
    const int jobs = rng.uniform_int(0, 6);
    for (int j = 0; j < jobs; ++j) {
      JobDemand job;
      job.job = next_task * 100 + static_cast<JobUid>(j);
      const int tasks = rng.uniform_int(1, 10);
      job.total_tasks = tasks + rng.uniform_int(0, 2);
      for (int t = 0; t < tasks; ++t) {
        job.unsatisfied.push_back(
            {next_task++, BlockId(static_cast<BlockId::value_type>(
                              rng.index(num_blocks)))});
      }
      demand.jobs.push_back(job);
    }
  }
}

/// Every field of an allocation result, work counters included, as bytes.
void AppendResult(const AllocationResult& r, std::vector<std::uint8_t>& out) {
  const auto put = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(r.assignments.size());
  for (const Assignment& a : r.assignments) {
    put(a.exec.value());
    put(a.app.value());
    put(a.hint_task);
  }
  for (const int n : r.tasks_satisfied) put(static_cast<std::uint64_t>(n));
  for (const int n : r.jobs_satisfied) put(static_cast<std::uint64_t>(n));
  for (const LocalityStats& p : r.projected) {
    put(static_cast<std::uint64_t>(p.local_jobs));
    put(static_cast<std::uint64_t>(p.total_jobs));
    put(static_cast<std::uint64_t>(p.local_tasks));
    put(static_cast<std::uint64_t>(p.total_tasks));
  }
  put(r.stats.executors_scanned);
  put(r.stats.apps_considered);
  put(r.stats.grants);
  put(r.stats.demand_apps);
  put(r.stats.demanded_tasks);
  put(r.stats.demands_saturated);
}

/// One ablation combination and the digest its rounds must fold to.
struct GoldenCombination {
  bool locality_fair;
  bool priority_jobs;
  std::uint64_t digest;
};

// Property: on 60 random rounds from one generator, Allocate over an idle
// vector and AllocateOnIndex over an index holding the same executors
// produce the same bytes, and AllocateOnIndex leaves the index unchanged.
// The rounds of each ablation combination fold into one digest, which must
// equal the pinned one: the claim order, assignments, projections and work
// counters of all 60 rounds.
void ExpectRoundsMatchGoldenDigests(
    bool some_busy, std::uint64_t seed_multiplier,
    const std::vector<GoldenCombination>& combinations) {
  for (const GoldenCombination& combination : combinations) {
    AllocatorOptions options;
    options.locality_fair = combination.locality_fair;
    options.priority_jobs = combination.priority_jobs;
    std::uint64_t digest = snap::Fnv1a(nullptr, 0);
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed * seed_multiplier);
      RandomRound round;
      FillRandomRound(rng, some_busy, round);
      IdleExecutorIndex index(static_cast<std::size_t>(round.num_execs),
                              static_cast<std::size_t>(round.num_nodes));
      for (const ExecutorInfo& e : round.idle) index.add(e.id, e.node);

      const auto on_vector = CustodyAllocator::Allocate(
          round.demands, round.idle, round.loc.fn(), options);
      const auto on_index = CustodyAllocator::AllocateOnIndex(
          round.demands, index, round.loc.fn(), options);
      std::vector<ExecutorId> still_idle;
      index.append_ids(still_idle);
      ASSERT_EQ(still_idle.size(), round.idle.size()) << "seed " << seed;
      for (std::size_t i = 0; i < still_idle.size(); ++i) {
        ASSERT_EQ(still_idle[i], round.idle[i].id) << "seed " << seed;
      }

      std::vector<std::uint8_t> a;
      std::vector<std::uint8_t> b;
      AppendResult(on_vector, a);
      AppendResult(on_index, b);
      ASSERT_EQ(a, b) << "seed " << seed;
      digest = snap::Fnv1a(a.data(), a.size(), digest);
    }
    char actual[24];
    std::snprintf(actual, sizeof actual, "0x%016llxULL",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, combination.digest)
        << "locality_fair=" << combination.locality_fair
        << " priority_jobs=" << combination.priority_jobs << " actual "
        << actual;
  }
}

// Every executor idle: ids are dense.
TEST(CustodyAllocator, PropertyAllIdleRoundsMatchGoldenDigests) {
  ExpectRoundsMatchGoldenDigests(/*some_busy=*/false, 7919,
                                 {{true, true, 0xddf11c87ff46828dULL},
                                  {true, false, 0x3bfba3b4a5ecf472ULL},
                                  {false, true, 0x1b6e07c9e6611d9cULL},
                                  {false, false, 0xc5f60ed20e0a139eULL}});
}

// A fifth of the executors busy: the idle ids have gaps.
TEST(CustodyAllocator, PropertySomeBusyRoundsMatchGoldenDigests) {
  ExpectRoundsMatchGoldenDigests(/*some_busy=*/true, 6151,
                                 {{true, true, 0x245681d85b0bef45ULL},
                                  {true, false, 0x0b335978e0824aa5ULL},
                                  {false, true, 0xfb89225c3a538907ULL},
                                  {false, false, 0x2fcdcbb37f2b760aULL}});
}

// ---------- the paper's motivating scenarios --------------------------------

// Fig. 1: four single-executor nodes, two apps each with one 2-task job.
// A data-aware allocation achieves 100% locality for both applications.
TEST(CustodyAllocator, Fig1PerfectLocalityForBothApps) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});  // D1 on W1
  loc.set(BlockId(2), {NodeId(1)});  // D2 on W2
  loc.set(BlockId(3), {NodeId(2)});  // D3 on W3
  loc.set(BlockId(4), {NodeId(3)});  // D4 on W4

  std::vector<AppDemand> demands(2);
  demands[0].app = AppId(0);
  demands[0].budget = 2;
  demands[0].jobs.push_back(
      {0, 2, {{11, BlockId(1)}, {12, BlockId(2)}}});
  demands[1].app = AppId(1);
  demands[1].budget = 2;
  demands[1].jobs.push_back(
      {1, 2, {{21, BlockId(3)}, {22, BlockId(4)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};

  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  const auto owner = ByExecutor(result);
  EXPECT_EQ(owner.at(ExecutorId(0)), AppId(0));  // E1 -> A1
  EXPECT_EQ(owner.at(ExecutorId(1)), AppId(0));  // E2 -> A1
  EXPECT_EQ(owner.at(ExecutorId(2)), AppId(1));  // E3 -> A2
  EXPECT_EQ(owner.at(ExecutorId(3)), AppId(1));  // E4 -> A2
  EXPECT_EQ(result.tasks_satisfied[0], 2);
  EXPECT_EQ(result.tasks_satisfied[1], 2);
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.jobs_satisfied[1], 1);
}

// Fig. 3: two apps, each with two one-task jobs; both apps want W1 and W2
// (the "hot" nodes for their first jobs).  Locality-aware fairness gives
// each application exactly one local job instead of a 2/0 split.
TEST(CustodyAllocator, Fig3LocalityFairSplit) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(1)});

  std::vector<AppDemand> demands(2);
  for (int a = 0; a < 2; ++a) {
    demands[a].app = AppId(static_cast<AppId::value_type>(a));
    demands[a].budget = 2;
    // Job 1 wants D1 (on W1), job 2 wants D2 (on W2) — for both apps.
    demands[a].jobs.push_back(
        {static_cast<JobUid>(2 * a), 1,
         {{static_cast<TaskUid>(10 * a), BlockId(1)}}});
    demands[a].jobs.push_back(
        {static_cast<JobUid>(2 * a + 1), 1,
         {{static_cast<TaskUid>(10 * a + 1), BlockId(2)}}});
  }

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  // Max-min fairness on local jobs: one hot executor each.
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.jobs_satisfied[1], 1);
  const auto owner = ByExecutor(result);
  EXPECT_NE(owner.at(ExecutorId(0)), owner.at(ExecutorId(1)));
}

// Fig. 4: one app, two jobs x two tasks, budget two executors.  The
// priority strategy satisfies BOTH tasks of one job rather than one task
// of each.
TEST(CustodyAllocator, Fig4PriorityOverJobFairness) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(1)});
  loc.set(BlockId(3), {NodeId(2)});
  loc.set(BlockId(4), {NodeId(3)});

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(5);
  demands[0].budget = 2;
  demands[0].jobs.push_back(
      {1, 2, {{51, BlockId(1)}, {52, BlockId(2)}}});
  demands[0].jobs.push_back(
      {2, 2, {{53, BlockId(3)}, {54, BlockId(4)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 2u);
  // One whole job becomes local; the other gets nothing (not one each).
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.tasks_satisfied[0], 2);
  const auto owner = ByExecutor(result);
  const bool job1 =
      owner.count(ExecutorId(0)) == 1 && owner.count(ExecutorId(1)) == 1;
  const bool job2 =
      owner.count(ExecutorId(2)) == 1 && owner.count(ExecutorId(3)) == 1;
  EXPECT_TRUE(job1 || job2);
  EXPECT_FALSE(job1 && job2);
}

// ---------- behavioural details ---------------------------------------------

TEST(CustodyAllocator, SmallJobHasPriorityWithinApp) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(0)});  // same node: contended

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 1;
  JobDemand big;
  big.job = 1;
  big.total_tasks = 3;
  big.unsatisfied = {{1, BlockId(1)}, {2, BlockId(1)}, {3, BlockId(1)}};
  JobDemand small;
  small.job = 2;
  small.total_tasks = 1;
  small.unsatisfied = {{4, BlockId(2)}};
  demands[0].jobs = {big, small};

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].hint_task, 4u);  // the small job's task
  EXPECT_EQ(result.jobs_satisfied[0], 1);
}

TEST(CustodyAllocator, BackfillsUpToBudgetWithoutLocality) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(9)});  // data on a node with no executor

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 2;
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  EXPECT_EQ(result.assignments.size(), 2u);  // budget, not pool size
  EXPECT_EQ(result.tasks_satisfied[0], 0);
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(a.hint_task, kNoTask);
  }
}

TEST(CustodyAllocator, RespectsHeldCount) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 3;
  demands[0].held = 3;  // already at budget
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});
  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  EXPECT_TRUE(result.assignments.empty());
}

TEST(CustodyAllocator, LeastLocalizedAppPicksFirst) {
  // One hot executor; the app with lower historical locality must get it.
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});

  std::vector<AppDemand> demands(2);
  demands[0].app = AppId(0);
  demands[0].budget = 1;
  demands[0].locality = {9, 10, 90, 100};  // 90% local jobs
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});
  demands[1].app = AppId(1);
  demands[1].budget = 1;
  demands[1].locality = {1, 10, 10, 100};  // 10% local jobs
  demands[1].jobs.push_back({1, 1, {{2, BlockId(1)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].app, AppId(1));
}

TEST(CustodyAllocator, EmptyInputsAreSafe) {
  Locations loc;
  EXPECT_TRUE(
      CustodyAllocator::Allocate({}, {}, loc.fn()).assignments.empty());
  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 5;
  EXPECT_TRUE(
      CustodyAllocator::Allocate(demands, {}, loc.fn()).assignments.empty());
}

// Property: constraints (2)-(4) hold on random instances — every executor
// to at most one app, budgets respected, assignments deterministic.
TEST(CustodyAllocator, PropertyCapacityConstraintsAndDeterminism) {
  Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_nodes = rng.uniform_int(2, 8);
    const int num_execs = rng.uniform_int(1, 12);
    const int num_blocks = rng.uniform_int(1, 10);
    Locations loc;
    for (int b = 0; b < num_blocks; ++b) {
      std::vector<NodeId> nodes;
      const int replicas = rng.uniform_int(1, std::min(3, num_nodes));
      while (static_cast<int>(nodes.size()) < replicas) {
        const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
          nodes.push_back(n);
        }
      }
      loc.set(BlockId(static_cast<BlockId::value_type>(b)), nodes);
    }
    std::vector<ExecutorInfo> idle;
    for (int e = 0; e < num_execs; ++e) {
      idle.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                      NodeId(static_cast<NodeId::value_type>(
                          rng.index(num_nodes)))});
    }
    std::vector<AppDemand> demands(rng.uniform_int(1, 3));
    TaskUid next_task = 0;
    for (std::size_t a = 0; a < demands.size(); ++a) {
      demands[a].app = AppId(static_cast<AppId::value_type>(a));
      demands[a].budget = rng.uniform_int(0, num_execs);
      const int jobs = rng.uniform_int(0, 3);
      for (int j = 0; j < jobs; ++j) {
        JobDemand job;
        job.job = next_task * 100 + static_cast<JobUid>(j);
        const int tasks = rng.uniform_int(1, 4);
        job.total_tasks = tasks;
        for (int t = 0; t < tasks; ++t) {
          job.unsatisfied.push_back(
              {next_task++, BlockId(static_cast<BlockId::value_type>(
                                rng.index(num_blocks)))});
        }
        demands[a].jobs.push_back(job);
      }
    }

    const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
    const auto again = CustodyAllocator::Allocate(demands, idle, loc.fn());

    // Determinism.
    ASSERT_EQ(result.assignments.size(), again.assignments.size());
    for (std::size_t i = 0; i < result.assignments.size(); ++i) {
      EXPECT_EQ(result.assignments[i].exec, again.assignments[i].exec);
      EXPECT_EQ(result.assignments[i].app, again.assignments[i].app);
    }

    // Constraint (2): executor to at most one app.
    const auto owner = ByExecutor(result);

    // Budgets respected.
    std::map<AppId, int> granted;
    for (const auto& [exec, app] : owner) ++granted[app];
    for (const auto& demand : demands) {
      EXPECT_LE(granted[demand.app] + demand.held, std::max(demand.budget,
                demand.held));
    }

    // Hints reference this app's own tasks and a local executor.
    std::map<ExecutorId, NodeId> exec_node;
    for (const auto& e : idle) exec_node[e.id] = e.node;
    for (const Assignment& a : result.assignments) {
      if (a.hint_task == kNoTask) continue;
      bool found = false;
      for (const auto& demand : demands) {
        if (demand.app != a.app) continue;
        for (const auto& job : demand.jobs) {
          for (const auto& task : job.unsatisfied) {
            if (task.task == a.hint_task) {
              found = true;
              const auto& nodes = loc.fn()(task.block);
              EXPECT_NE(std::find(nodes.begin(), nodes.end(),
                                  exec_node[a.exec]),
                        nodes.end())
                  << "hinted executor does not store the task's block";
            }
          }
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

}  // namespace
}  // namespace custody::core
