// Microbenchmarks (google-benchmark): the hot paths of the simulator and
// the allocator — event queue churn, max-min rate recomputation, the
// matching algorithms, Dinic max-flow, a full Custody allocation round
// at cluster scale, and a run's substrate construction.  These bound the overhead Custody would add to a real
// cluster manager's allocation path.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/application.h"
#include "app/ready_index.h"
#include "app/scheduler.h"
#include "cluster/cluster.h"
#include "cluster/manager.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "core/flow_network.h"
#include "core/matching.h"
#include "dfs/dfs.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "obs/perfetto.h"
#include "sim/simulator.h"
#include "workload/harness.h"

/// Process-wide heap-allocation counter, fed by the replaced global
/// operator new below, so benches can report allocations per operation —
/// the event-queue churn metric.  Standalone benchmark binary only.
static std::atomic<std::uint64_t> g_heap_allocs{0};

// noinline keeps GCC's -Wmismatched-new-delete heuristic from flagging the
// (correct) malloc/free pairing at inlined call sites.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace custody;

/// Event-queue churn: push/pop `events` events through a fresh queue.
/// `detached:1` uses push_detached — no cancellation handle, so no
/// shared_ptr<EventState> control block per event; `detached:0` is push()
/// with a handle per event.  allocs_per_event (from the global
/// operator-new hook) is the churn metric: detached pushes of
/// inline-fitting callbacks cost only the heap vector's amortised growth.
void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool detached = state.range(1) != 0;
  Rng rng(1);
  std::vector<double> times(static_cast<std::size_t>(n));
  for (auto& t : times) t = rng.uniform(0.0, 1000.0);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim::EventQueue queue;
    if (detached) {
      for (double t : times) queue.push_detached(t, [] {});
    } else {
      for (double t : times) {
        sim::EventHandle handle = queue.push(t, [] {});
        benchmark::DoNotOptimize(handle);
      }
    }
    while (!queue.empty()) {
      sim::EventQueue::Popped popped = queue.pop();
      benchmark::DoNotOptimize(popped);
    }
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["allocs_per_event"] =
      static_cast<double>(allocs) /
      static_cast<double>(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)
    ->ArgNames({"events", "detached"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_MaxMinFairRates(benchmark::State& state) {
  const std::size_t num_flows = static_cast<std::size_t>(state.range(0));
  const std::size_t num_nodes = 100;
  Rng rng(2);
  std::vector<std::vector<std::size_t>> flow_links(num_flows);
  for (auto& links : flow_links) {
    links = {rng.index(num_nodes), num_nodes + rng.index(num_nodes)};
  }
  std::vector<double> capacity(2 * num_nodes, 1e9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::MaxMinFairRates(flow_links, capacity));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(num_flows));
}
BENCHMARK(BM_MaxMinFairRates)->Arg(16)->Arg(128)->Arg(512);

/// Churn loop shared by the component-solve rows: each iteration retires one
/// flow, starts an identical one and solves, which re-solves only the
/// dirtied component.  The label's per-solve counters are the acceptance
/// metric.
void ChurnAndSolve(benchmark::State& state, std::vector<double> capacity,
                   const std::vector<std::vector<std::size_t>>& flow_links) {
  net::MaxMinFairSolver solver;
  solver.reset_links(std::move(capacity));
  for (std::size_t f = 0; f < flow_links.size(); ++f) {
    solver.add_flow(f, flow_links[f].data(), flow_links[f].size());
  }
  std::vector<double> rates;
  net::SolveCounters counters;
  net::SolveDelta delta;
  // Warm solve: afterwards every component is clean.
  solver.solve(rates, delta, &counters);

  counters = {};
  std::uint64_t solves = 0;
  std::size_t victim = 0;
  for (auto _ : state) {
    solver.remove_flow(victim);
    solver.add_flow(victim, flow_links[victim].data(),
                    flow_links[victim].size());
    solver.solve(rates, delta, &counters);
    benchmark::DoNotOptimize(rates.data());
    victim = (victim + 1) % flow_links.size();
    ++solves;
  }
  state.SetItemsProcessed(static_cast<int64_t>(solves));
  state.SetLabel(
      "flows_scanned_per_solve=" + std::to_string(counters.flows_scanned / solves) +
      " links_scanned_per_solve=" + std::to_string(counters.links_scanned / solves) +
      " components=" + std::to_string(solver.live_component_count()) +
      " dirty_per_solve=" + std::to_string(counters.components_dirty / solves));
}

/// Scoped re-solve after a single-flow churn event, the component
/// partition's target case.  Topologies: `shared_core:0` gives every flow
/// its own src/dst pair (F singleton components — the shuffle-disjoint
/// extreme), `shared_core:1` threads every flow through one 400 Gbps core
/// link, which can bind at these sizes (1,000 x 2 Gbps > 400 Gbps): one giant
/// component — the degenerate case where partitioning must cost nothing.
void BM_ComponentSolve(benchmark::State& state) {
  const std::size_t num_flows = static_cast<std::size_t>(state.range(0));
  const bool shared_core = state.range(1) != 0;
  const std::size_t num_nodes = 2 * num_flows;  // disjoint src/dst per flow
  std::vector<double> capacity(2 * num_nodes + 1);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    capacity[i] = units::Gbps(2.0);
    capacity[num_nodes + i] = units::Gbps(40.0);
  }
  capacity[2 * num_nodes] =
      shared_core ? units::Gbps(400.0) : 0.0;  // unused when not shared

  std::vector<std::vector<std::size_t>> flow_links(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    flow_links[f] = {2 * f, num_nodes + 2 * f + 1};
    if (shared_core) flow_links[f].push_back(2 * num_nodes);
  }
  ChurnAndSolve(state, std::move(capacity), flow_links);
}
BENCHMARK(BM_ComponentSolve)
    ->ArgNames({"flows", "shared_core"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Unit(benchmark::kMicrosecond);

/// The shuffle shape that dominates steady-state Sort runs: every mapper
/// node's 2 Gbps uplink feeds every reducer node's 40 Gbps downlink.  With
/// 16 mappers a downlink carries 16 flows and cannot bind (16 x 2 < 40), so
/// the partition has one component per uplink and a churn re-solves one
/// uplink's flows; with 32 mappers every downlink can bind (32 x 2 >= 40)
/// and the whole shuffle is one component.
void BM_ComponentSolveShuffle(benchmark::State& state) {
  const std::size_t mappers = static_cast<std::size_t>(state.range(0));
  const std::size_t reducers = static_cast<std::size_t>(state.range(1));
  // Network link layout: [0, N) uplinks, [N, 2N) downlinks; mappers occupy
  // nodes [0, mappers), reducers the nodes after them.
  const std::size_t num_nodes = mappers + reducers;
  std::vector<double> capacity(2 * num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    capacity[i] = units::Gbps(2.0);
    capacity[num_nodes + i] = units::Gbps(40.0);
  }
  std::vector<std::vector<std::size_t>> flow_links;
  for (std::size_t m = 0; m < mappers; ++m) {
    for (std::size_t r = 0; r < reducers; ++r) {
      flow_links.push_back({m, num_nodes + mappers + r});
    }
  }
  ChurnAndSolve(state, std::move(capacity), flow_links);
}
BENCHMARK(BM_ComponentSolveShuffle)
    ->ArgNames({"mappers", "reducers"})
    ->Args({16, 32})
    ->Args({32, 16})
    ->Unit(benchmark::kMicrosecond);

/// End-to-end network path under shuffle fan-out: bursts of `fan_in` flows
/// converge on one destination per burst, all started in a single event —
/// the Application's shuffle pattern at scale.  The label's NetStats
/// counters show where the time goes: solves batched away and per-solve
/// link work.
void BM_NetworkShuffleFanOut(benchmark::State& state) {
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t num_flows = static_cast<std::size_t>(state.range(1));
  const std::size_t fan_in = std::min<std::size_t>(num_nodes - 1, 100);
  const std::size_t bursts = num_flows / fan_in;
  std::uint64_t recomputes_run = 0;
  std::uint64_t batched = 0;
  std::uint64_t links_scanned = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::NetworkConfig config;
    config.num_nodes = num_nodes;
    net::Network network(sim, config);
    Rng rng(9);
    std::size_t completed = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      const auto dst =
          NodeId(static_cast<NodeId::value_type>(b % num_nodes));
      const double when = 0.2 * static_cast<double>(b);
      // One event starts the whole fan-in burst (the shuffle pattern).
      sim.schedule_at(when, [&network, &rng, &completed, dst, fan_in,
                             num_nodes] {
        for (std::size_t f = 0; f < fan_in; ++f) {
          auto src =
              NodeId(static_cast<NodeId::value_type>(rng.index(num_nodes)));
          if (src == dst) {
            src = NodeId(static_cast<NodeId::value_type>(
                (src.value() + 1) % num_nodes));
          }
          network.start_flow(src, dst, units::MB(64.0),
                             [&completed] { ++completed; });
        }
      });
    }
    sim.run();
    if (completed != bursts * fan_in) state.SkipWithError("flows lost");
    recomputes_run = network.stats().recomputes_run;
    batched = network.stats().recomputes_batched();
    links_scanned = network.stats().links_scanned;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bursts * fan_in));
  state.SetLabel("recomputes=" + std::to_string(recomputes_run) +
                 " batched=" + std::to_string(batched) +
                 " links_scanned=" + std::to_string(links_scanned));
}
BENCHMARK(BM_NetworkShuffleFanOut)
    ->ArgNames({"nodes", "flows"})
    ->Args({100, 1000})
    ->Args({1000, 10000})
    ->Unit(benchmark::kMillisecond);

std::vector<core::MatchEdge> RandomEdges(int nl, int nr, double density,
                                         Rng& rng) {
  std::vector<core::MatchEdge> edges;
  for (int l = 0; l < nl; ++l) {
    for (int r = 0; r < nr; ++r) {
      if (rng.uniform(0.0, 1.0) < density) {
        edges.push_back({l, r, rng.uniform(0.1, 2.0)});
      }
    }
  }
  return edges;
}

void BM_HopcroftKarp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const auto edges = RandomEdges(n, n, 0.1, rng);
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const auto& e : edges) adj[static_cast<std::size_t>(e.l)].push_back(e.r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaxCardinalityMatching(n, n, adj));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(256)->Arg(1024);

void BM_GreedyWeightedMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  const auto edges = RandomEdges(n, n, 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GreedyWeightedMatching(n, n, edges));
  }
}
BENCHMARK(BM_GreedyWeightedMatching)->Arg(64)->Arg(256)->Arg(1024);

void BM_ExactWeightedMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  const auto edges = RandomEdges(n, n, 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaxWeightMatching(n, n, edges, n));
  }
}
BENCHMARK(BM_ExactWeightedMatching)->Arg(16)->Arg(64);

void BM_DinicMaxFlow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    state.PauseTiming();
    core::MaxFlow flow(n + 2);
    for (int i = 0; i < n; ++i) {
      flow.add_edge(0, 1 + i, rng.uniform_int(1, 10));
      flow.add_edge(1 + i, n + 1, rng.uniform_int(1, 10));
      flow.add_edge(1 + i, 1 + static_cast<int>(rng.index(
                               static_cast<std::size_t>(n))),
                    rng.uniform_int(1, 5));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(flow.solve(0, n + 1));
  }
}
BENCHMARK(BM_DinicMaxFlow)->Arg(100)->Arg(1000);

/// Everything one allocation round consumes, pre-built outside the timed
/// loop so every iteration sees identical inputs.
struct AllocationRoundInstance {
  std::vector<std::vector<NodeId>> locations;
  std::vector<core::ExecutorInfo> idle;
  std::vector<core::AppDemand> demands;
  int pending_tasks = 0;

  [[nodiscard]] core::BlockLocationsFn locate() const {
    return [this](BlockId b) -> const std::vector<NodeId>& {
      return locations[b.value()];
    };
  }
};

/// Build a round instance: `num_nodes` x 2 executors, `num_apps` apps whose
/// budgets sum to the whole pool, jobs of 48 input tasks over 3-replica
/// blocks (one block per 2 executors, the paper's shape scaled up).
AllocationRoundInstance MakeAllocationRound(std::size_t num_nodes,
                                            std::size_t num_apps,
                                            std::size_t jobs_per_app) {
  const int execs_per_node = 2;
  AllocationRoundInstance inst;
  Rng rng(7);
  const std::size_t num_blocks = std::max<std::size_t>(num_nodes, 8);
  inst.locations.resize(num_blocks);
  for (auto& nodes : inst.locations) {
    while (nodes.size() < 3) {
      const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
        nodes.push_back(n);
      }
    }
  }

  for (std::size_t n = 0; n < num_nodes; ++n) {
    for (int e = 0; e < execs_per_node; ++e) {
      inst.idle.push_back(
          {ExecutorId(static_cast<ExecutorId::value_type>(inst.idle.size())),
           NodeId(static_cast<NodeId::value_type>(n))});
    }
  }

  inst.demands.resize(num_apps);
  core::TaskUid uid = 0;
  for (std::size_t a = 0; a < num_apps; ++a) {
    inst.demands[a].app = AppId(static_cast<AppId::value_type>(a));
    inst.demands[a].budget =
        static_cast<int>(inst.idle.size() / num_apps);
    for (std::size_t j = 0; j < jobs_per_app; ++j) {
      core::JobDemand job;
      job.job = uid;
      job.total_tasks = 48;
      for (int t = 0; t < job.total_tasks; ++t) {
        job.unsatisfied.push_back(
            {uid++, BlockId(static_cast<BlockId::value_type>(
                        rng.index(num_blocks)))});
        ++inst.pending_tasks;
      }
      inst.demands[a].jobs.push_back(std::move(job));
    }
  }
  return inst;
}

void RunAllocationRoundBench(benchmark::State& state,
                             const AllocationRoundInstance& inst) {
  const auto locate = inst.locate();
  std::uint64_t grants = 0;
  std::uint64_t scanned = 0;
  for (auto _ : state) {
    const auto result =
        core::CustodyAllocator::Allocate(inst.demands, inst.idle, locate);
    grants = result.stats.grants;
    scanned = result.stats.executors_scanned;
    benchmark::DoNotOptimize(result);
  }
  // items/s == executor grants/s, comparable across scales.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grants));
  state.SetLabel(std::to_string(inst.idle.size()) + " execs, " +
                 std::to_string(inst.pending_tasks) + " tasks, " +
                 std::to_string(grants) + " grants, " +
                 std::to_string(scanned) + " slots scanned");
}

/// A full Custody allocation round at paper scale: 100 nodes, 200
/// executors, 4 applications with a handful of pending jobs each.
void BM_CustodyAllocationRound(benchmark::State& state) {
  const auto inst = MakeAllocationRound(
      static_cast<std::size_t>(state.range(0)), 4, 4);
  RunAllocationRoundBench(state, inst);
}
BENCHMARK(BM_CustodyAllocationRound)->Arg(25)->Arg(100);

/// Allocation rounds at production scale — 1k/5k/10k executors, 8 apps,
/// pending tasks ~ 4x the pool (a contended round: every executor is
/// granted and most tasks stay unsatisfied).  Each iteration builds a
/// round-local idle index from the idle vector and runs the round on it;
/// with 8 applications, every grant re-runs the linear min-locality pick.
/// items_per_second is executor grants per second; the label's
/// slots-scanned count is the round's candidate work, which stays near
/// three per grant at every scale.
void BM_AllocationRoundAtScale(benchmark::State& state) {
  const std::size_t execs = static_cast<std::size_t>(state.range(0));
  const auto inst = MakeAllocationRound(execs / 2, 8, execs / 96);
  RunAllocationRoundBench(state, inst);
}
BENCHMARK(BM_AllocationRoundAtScale)
    ->ArgName("execs")
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// A steady-state round instance: demand FIXED (4 apps x one 8-task job,
/// budget 8 each) while the idle pool scales with the cluster — the shape
/// where round cost must track demand, not cluster size.
AllocationRoundInstance MakeSteadyRound(std::size_t num_nodes) {
  const int execs_per_node = 2;
  AllocationRoundInstance inst;
  Rng rng(13);
  const std::size_t num_blocks = 64;
  inst.locations.resize(num_blocks);
  for (auto& nodes : inst.locations) {
    while (nodes.size() < 3) {
      const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
      if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
        nodes.push_back(n);
      }
    }
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    for (int e = 0; e < execs_per_node; ++e) {
      inst.idle.push_back(
          {ExecutorId(static_cast<ExecutorId::value_type>(inst.idle.size())),
           NodeId(static_cast<NodeId::value_type>(n))});
    }
  }
  inst.demands.resize(4);
  core::TaskUid uid = 0;
  for (std::size_t a = 0; a < inst.demands.size(); ++a) {
    inst.demands[a].app = AppId(static_cast<AppId::value_type>(a));
    inst.demands[a].budget = 8;
    core::JobDemand job;
    job.job = uid;
    job.total_tasks = 8;
    for (int t = 0; t < job.total_tasks; ++t) {
      job.unsatisfied.push_back(
          {uid++,
           BlockId(static_cast<BlockId::value_type>(rng.index(num_blocks)))});
      ++inst.pending_tasks;
    }
    inst.demands[a].jobs.push_back(std::move(job));
  }
  return inst;
}

/// With demand fixed, a round over the persistent idle index
/// (AllocateOnIndex) must cost the same at 100k executors as at 1k.  Round
/// views only stamp epochs, so every iteration replays an identical round
/// against the untouched index — exactly what a steady-state manager does
/// between releases.  Time per round should stay flat down the `execs`
/// column.
void BM_DemandDrivenRound(benchmark::State& state) {
  const std::size_t execs = static_cast<std::size_t>(state.range(0));
  const std::size_t num_nodes = execs / 2;
  const auto inst = MakeSteadyRound(num_nodes);
  const auto locate = inst.locate();
  std::uint64_t grants = 0;
  std::uint64_t scanned = 0;
  core::IdleExecutorIndex index(execs, num_nodes);
  for (const core::ExecutorInfo& info : inst.idle) {
    index.add(info.id, info.node);
  }
  for (auto _ : state) {
    const auto result =
        core::CustodyAllocator::AllocateOnIndex(inst.demands, index, locate);
    grants = result.stats.grants;
    scanned = result.stats.executors_scanned;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());  // rounds per second
  state.SetLabel(std::to_string(inst.idle.size()) + " idle execs, " +
                 std::to_string(inst.pending_tasks) + " demanded tasks, " +
                 std::to_string(grants) + " grants, " +
                 std::to_string(scanned) + " candidates enumerated");
}
BENCHMARK(BM_DemandDrivenRound)
    ->ArgName("execs")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Everything the dispatch benches consume, pre-built outside the timed
/// loop: `num_jobs` jobs of `tasks_per_job` ready input tasks over
/// 3-replica blocks confined to `data_nodes` DFS nodes.  An offer from any
/// node outside that set finds no local work, so with delay scheduling
/// every job sits in its locality wait and each decision walks the whole
/// job list — the worst case an offer storm hammers.
struct DispatchInstance {
  DispatchInstance(std::size_t data_nodes, std::size_t num_jobs,
                   int tasks_per_job)
      : dfs(MakeDfsConfig(data_nodes), Rng(10)), index(dfs) {
    TaskId::value_type next_task = 0;
    for (std::size_t j = 0; j < num_jobs; ++j) {
      const FileId file = dfs.write_file(
          "job" + std::to_string(j),
          tasks_per_job * dfs.config().block_bytes);
      auto job = std::make_unique<app::Job>();
      job->id = JobId(static_cast<JobId::value_type>(j));
      job->input_tasks = tasks_per_job;
      app::Stage stage;
      stage.index = 0;
      const auto& blocks = dfs.blocks_of(file);
      for (int t = 0; t < tasks_per_job; ++t) {
        app::Task task;
        task.id = TaskId(next_task++);
        task.job = job->id;
        task.stage = 0;
        task.index = t;
        task.block = blocks[static_cast<std::size_t>(t)];
        task.state = app::TaskState::kReady;
        stage.tasks.push_back(task.id);
        index.task_ready(task);
      }
      job->stages.push_back(std::move(stage));
      owned.push_back(std::move(job));
      jobs.push_back(owned.back().get());
    }
  }

  static dfs::DfsConfig MakeDfsConfig(std::size_t data_nodes) {
    dfs::DfsConfig config;
    config.num_nodes = data_nodes;
    return config;
  }

  dfs::Dfs dfs;
  app::ReadyTaskIndex index;
  std::vector<std::unique_ptr<app::Job>> owned;
  std::vector<app::Job*> jobs;
};

/// One pick() decision for an idle executor on a node with no local ready
/// work — the per-offer hot path while every job waits out its locality
/// delay: two ReadyTaskIndex lookups per job.  Ready tasks ~ 4x the
/// executor pool, the contended shape of the allocation-round bench.
void BM_SchedulerPick(benchmark::State& state) {
  const std::size_t execs = static_cast<std::size_t>(state.range(0));
  const std::size_t num_jobs = std::max<std::size_t>(execs / 100, 4);
  const int tasks_per_job = static_cast<int>(4 * execs / num_jobs);
  DispatchInstance inst(8, num_jobs, tasks_per_job);
  app::TaskScheduler scheduler(app::SchedulerConfig{}, inst.index);
  const NodeId offer_node(8);  // outside the data nodes: nothing is local
  std::optional<SimTime> retry_at;
  for (auto _ : state) {
    auto pick = scheduler.pick(offer_node, 0.0, inst.jobs, retry_at);
    benchmark::DoNotOptimize(pick);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(num_jobs) + " jobs, " +
                 std::to_string(num_jobs * static_cast<std::size_t>(
                                               tasks_per_job)) +
                 " ready tasks");
}
BENCHMARK(BM_SchedulerPick)
    ->ArgName("execs")
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Stub manager: never grants, so jobs stay pending and every offer
/// exercises the full consider_offer decision.
class NullManager final : public cluster::ClusterManager {
 public:
  using cluster::ClusterManager::ClusterManager;
  [[nodiscard]] const char* name() const override { return "null"; }
  void register_app(cluster::AppHandle&) override {}
  void on_demand_changed(cluster::AppHandle&) override {}
};

/// A Mesos-style offer storm against a real Application: every offer comes
/// from a node holding none of the app's input blocks while all jobs sit
/// in their delay-scheduling locality wait, so each offer is rejected
/// after a full dispatch decision — the OfferManager's steady state on a
/// contended cluster.  Each job is answered from the ready index.
void BM_OfferStorm(benchmark::State& state) {
  const std::size_t execs = static_cast<std::size_t>(state.range(0));
  const std::size_t num_nodes = execs / 2;
  const std::size_t data_nodes = 8;
  const std::size_t num_jobs = std::max<std::size_t>(execs / 100, 4);
  const int tasks_per_job = static_cast<int>(4 * execs / num_jobs);

  sim::Simulator sim;
  dfs::DfsConfig dfs_config;
  dfs_config.num_nodes = data_nodes;
  dfs::Dfs dfs(dfs_config, Rng(11));
  net::NetworkConfig net_config;
  net_config.num_nodes = num_nodes;
  net::Network network(sim, net_config);
  cluster::Cluster cluster(num_nodes, cluster::WorkerConfig{});
  metrics::MetricsCollector metrics;
  app::IdSource ids;
  NullManager manager(sim, cluster);
  app::AppConfig app_config;
  app_config.dynamic_executors = false;
  app_config.locality_swap = false;
  app::Application application(AppId(0), sim, network, dfs, cluster, metrics,
                               ids, Rng(12), app_config);
  application.attach_manager(manager);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    app::JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.input_file = dfs.write_file(
        "file" + std::to_string(j),
        tasks_per_job * dfs.config().block_bytes);
    spec.input_compute_secs_per_byte = 1e-12;
    application.submit_job(spec);
  }

  const ExecutorId offer_exec(0);
  auto next_node = static_cast<NodeId::value_type>(data_nodes);
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    const NodeId node(next_node);
    if (++next_node >= num_nodes) {
      next_node = static_cast<NodeId::value_type>(data_nodes);
    }
    if (application.consider_offer(offer_exec, node)) ++accepted;
  }
  if (accepted != 0) state.SkipWithError("offer unexpectedly accepted");
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(num_jobs) + " jobs, " +
                 std::to_string(num_jobs * static_cast<std::size_t>(
                                               tasks_per_job)) +
                 " ready tasks, all offers rejected");
}
BENCHMARK(BM_OfferStorm)
    ->ArgName("execs")
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// The span-tracing cost contract, end to end: one full experiment (500
/// nodes = 1k executors, 4 WordCount apps x 2 jobs) with tracing off
/// (`mode:0`, the null-pointer-branch path), on (`mode:1`, ring-buffer
/// stores), and on plus a Chrome-JSON export of the recorded buffer
/// (`mode:2`).  mode 0 vs 1 bounds the hot-path overhead the issue caps at
/// <1%; mode 2 adds the (off-path) serialization cost.  The label carries
/// the events recorded per run so the per-event cost can be derived.
void BM_TracerOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  workload::ExperimentConfig config;
  config.num_nodes = 500;
  config.kinds = {workload::WorkloadKind::kWordCount};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = 2;
  config.tracing.enabled = mode != 0;
  const auto snapshot = workload::SubstrateSnapshot::Build(config);
  const std::string export_path = "bm_tracer_overhead_trace.json";
  std::uint64_t events_recorded = 0;
  for (auto _ : state) {
    const workload::ExperimentResult result =
        workload::RunOnSnapshot(snapshot, workload::ManagerKind::kCustody);
    if (mode == 2) obs::WriteChromeTrace(*result.trace, export_path);
    if (result.trace != nullptr) events_recorded = result.trace->recorded();
    benchmark::DoNotOptimize(result);
  }
  if (mode == 2) std::remove(export_path.c_str());
  state.SetLabel(mode == 0 ? "tracing off"
                           : std::to_string(events_recorded) +
                                 " events/run" +
                                 (mode == 2 ? " + JSON export" : ""));
}
BENCHMARK(BM_TracerOverhead)
    ->ArgNames({"mode"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Substrate construction: one LiveRun per iteration — the
/// SimulationContext (DFS materialization, network, cluster, cache) plus
/// the manager and the applications' registration — over a prebuilt
/// SubstrateSnapshot of perfbench's steady-10k shape (WordCount + Sort,
/// 128 files per kind, 4 apps, 2 executors per node).  Destruction is not
/// timed.  Counters: the replicas materialized and the executors built.
void BM_LiveRunConstruct(benchmark::State& state,
                         workload::ManagerKind manager) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  workload::ExperimentConfig config;
  config.num_nodes = nodes;
  config.executors_per_node = 2;
  config.kinds = {workload::WorkloadKind::kWordCount,
                  workload::WorkloadKind::kSort};
  config.trace.files_per_kind = 128;
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = 25;
  config.trace.mean_interarrival = 16.0 * 100.0 / static_cast<double>(nodes);
  config.steady.enabled = true;
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  const auto snapshot = workload::SubstrateSnapshot::Build(config);
  std::size_t replicas = 0;
  std::size_t executors = 0;
  {
    workload::SimulationContext context(snapshot);
    for (const BlockId b : context.dfs().namenode().all_blocks()) {
      replicas += context.dfs().locations(b).size();
    }
    executors = context.cluster().num_executors();
  }
  for (auto _ : state) {
    auto run = std::make_unique<workload::LiveRun>(snapshot, manager);
    state.PauseTiming();
    run.reset();
    state.ResumeTiming();
  }
  state.counters["replicas"] = static_cast<double>(replicas);
  state.counters["executors"] = static_cast<double>(executors);
}
BENCHMARK_CAPTURE(BM_LiveRunConstruct, custody, workload::ManagerKind::kCustody)
    ->ArgName("nodes")
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LiveRunConstruct, standalone,
                  workload::ManagerKind::kStandalone)
    ->ArgName("nodes")
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// End-to-end simulator throughput: events per second on a busy network.
void BM_SimulatedTransfers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::NetworkConfig config;
    config.num_nodes = 50;
    net::Network network(sim, config);
    Rng rng(8);
    int completed = 0;
    for (int i = 0; i < 200; ++i) {
      const auto src = NodeId(static_cast<NodeId::value_type>(rng.index(50)));
      auto dst = NodeId(static_cast<NodeId::value_type>(rng.index(50)));
      if (dst == src) dst = NodeId((src.value() + 1) % 50);
      sim.schedule(rng.uniform(0.0, 5.0), [&network, &completed, src, dst] {
        network.start_flow(src, dst, 1e8, [&completed] { ++completed; });
      });
    }
    sim.run();
    benchmark::DoNotOptimize(completed);
  }
}
BENCHMARK(BM_SimulatedTransfers);

}  // namespace

BENCHMARK_MAIN();
