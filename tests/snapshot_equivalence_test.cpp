// The snapshot/restore contract of the full stack (the checkpoint PR's
// tentpole): run-to-T, save(), restore() into a FRESH LiveRun over the
// same substrate snapshot + manager, run-to-end must be field-for-field
// bit-identical — exact double compare, events_processed included — to the
// uninterrupted run, for every manager, across many seeds and snapshot
// points (including mid-failure-wave), with caches, speculation, slow
// nodes and failure injection all live.
//
// Also covered here:
//  * fork-twice: two restores of one snapshot are identical; a what-if
//    fork (extra injected failure in one) diverges but still completes;
//  * steady-state lazy-stream resume (the SUBS pump re-arm);
//  * RunOnSnapshot's checkpoint.every / checkpoint.resume_path plumbing,
//    including the JSON manifest sidecar;
//  * config-hash pinning: restore onto a different manager or config
//    fails with snap::SnapshotError, never a silent divergence;
//  * ValidateConfig rejection of unsound checkpoint knobs;
//  * RNG and SubmissionStream draw sequences pinned across restore;
//  * forged SUBS sections: a pending submission of an unknown kind or file,
//    or at a time that is not finite or precedes the snapshot, is a typed
//    SnapshotError at restore;
//  * corrupt-payload fuzzing with a recomputed checksum: restore must
//    throw or succeed, never crash (the ASan/UBSan CI job runs this).
//
// Excluded fields: wall-clock diagnostics only (allocation_wall_seconds,
// net_stats.wall_seconds, round_wall's duration stats) — they measure real
// time, not simulated behaviour, and a snapshot does not carry them: a
// restored run reports only the wall time it spent itself.  round_wall's
// count and every other field must match exactly.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "temp_dir.h"
#include "workload/harness.h"

namespace custody::workload {
namespace {

/// Network fabric of a run; uplinks stay at the default 2 Gbps.  The
/// default is the paper's 40 Gbps downlinks on a non-blocking core.
struct Fabric {
  double downlink_gbps = 40.0;
  double core_gbps = 0.0;  ///< 0 = non-blocking
};

// Small but multi-layer: block cache, speculation, slow nodes and a
// three-crash failure wave (t = 10, 18, 26) are all live, so a snapshot
// exercises every layer's dynamic state.
ExperimentConfig BaseConfig(ManagerKind manager, std::uint64_t seed,
                            Fabric fabric = {}) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.downlink_gbps = fabric.downlink_gbps;
  config.core_gbps = fabric.core_gbps;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  config.cache_mb_per_node = 256.0;
  config.speculation = true;
  config.slow_node_fraction = 0.15;
  config.node_failures = 3;
  config.failure_start = 10.0;
  config.failure_interval = 8.0;
  config.seed = seed;
  return config;
}

void ExpectSummariesIdentical(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.max, b.max);
}

/// Exact comparison of every deterministic result field (wall-clock
/// diagnostics excluded, see the header comment).  Unlike the
/// demand-driven equivalence suite, restore equivalence is FULL identity:
/// even the work counters (executors_scanned, rounds_skipped, demand
/// sizes) must match, because a restored run replays the exact same
/// decisions.
void ExpectResultsIdentical(const ExperimentResult& a,
                            const ExperimentResult& b) {
  EXPECT_EQ(a.manager_name, b.manager_name);
  {
    SCOPED_TRACE("job_locality");
    ExpectSummariesIdentical(a.job_locality, b.job_locality);
  }
  EXPECT_EQ(a.overall_task_locality_percent, b.overall_task_locality_percent);
  EXPECT_EQ(a.local_job_percent, b.local_job_percent);
  {
    SCOPED_TRACE("jct");
    ExpectSummariesIdentical(a.jct, b.jct);
  }
  {
    SCOPED_TRACE("input_stage");
    ExpectSummariesIdentical(a.input_stage, b.input_stage);
  }
  {
    SCOPED_TRACE("sched_delay");
    ExpectSummariesIdentical(a.sched_delay, b.sched_delay);
  }
  ASSERT_EQ(a.per_app_local_job_fraction.size(),
            b.per_app_local_job_fraction.size());
  for (std::size_t i = 0; i < a.per_app_local_job_fraction.size(); ++i) {
    EXPECT_EQ(a.per_app_local_job_fraction[i], b.per_app_local_job_fraction[i])
        << "per_app_local_job_fraction[" << i << "]";
  }
  const cluster::ManagerStats& ma = a.manager_stats;
  const cluster::ManagerStats& mb = b.manager_stats;
  EXPECT_EQ(ma.allocation_rounds, mb.allocation_rounds);
  EXPECT_EQ(ma.executors_granted, mb.executors_granted);
  EXPECT_EQ(ma.executors_released, mb.executors_released);
  EXPECT_EQ(ma.offers_made, mb.offers_made);
  EXPECT_EQ(ma.offers_rejected, mb.offers_rejected);
  EXPECT_EQ(ma.executors_scanned, mb.executors_scanned);
  EXPECT_EQ(ma.apps_considered, mb.apps_considered);
  EXPECT_EQ(ma.rounds_skipped, mb.rounds_skipped);
  EXPECT_EQ(ma.demand_apps, mb.demand_apps);
  EXPECT_EQ(ma.demanded_tasks, mb.demanded_tasks);
  EXPECT_EQ(ma.demands_saturated, mb.demands_saturated);
  EXPECT_EQ(a.round_wall.count, b.round_wall.count);
  EXPECT_EQ(a.round_yield_fraction, b.round_yield_fraction);
  EXPECT_EQ(a.net_stats.recomputes_requested, b.net_stats.recomputes_requested);
  EXPECT_EQ(a.net_stats.recomputes_run, b.net_stats.recomputes_run);
  EXPECT_EQ(a.net_stats.recomputes_batched, b.net_stats.recomputes_batched);
  EXPECT_EQ(a.net_stats.flows_scanned, b.net_stats.flows_scanned);
  EXPECT_EQ(a.net_stats.links_scanned, b.net_stats.links_scanned);
  EXPECT_EQ(a.net_stats.rounds, b.net_stats.rounds);
  const app::WorkCounters& wa = a.app_work;
  const app::WorkCounters& wb = b.app_work;
  EXPECT_EQ(wa.kicks, wb.kicks);
  EXPECT_EQ(wa.kick_probes, wb.kick_probes);
  EXPECT_EQ(wa.launches, wb.launches);
  EXPECT_EQ(wa.release_checks, wb.release_checks);
  EXPECT_EQ(wa.release_verdicts, wb.release_verdicts);
  EXPECT_EQ(wa.release_blocks_walked, wb.release_blocks_walked);
  EXPECT_EQ(wa.free_ids_copied, wb.free_ids_copied);
  EXPECT_EQ(a.net_bytes_delivered, b.net_bytes_delivered);
  EXPECT_EQ(a.cache_insertions, b.cache_insertions);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.speculative_launches, b.speculative_launches);
  EXPECT_EQ(a.speculative_wins, b.speculative_wins);
  EXPECT_EQ(a.nodes_failed, b.nodes_failed);
  EXPECT_EQ(a.launches_local, b.launches_local);
  EXPECT_EQ(a.launches_covered_busy, b.launches_covered_busy);
  EXPECT_EQ(a.launches_uncovered, b.launches_uncovered);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_retired, b.jobs_retired);
  EXPECT_EQ(a.peak_live_tasks, b.peak_live_tasks);
}

/// Run to `T`, snapshot, destroy the run, restore into a FRESH LiveRun,
/// finish, collect.  The destroyed first run guarantees nothing leaks
/// between the two halves except the snapshot bytes.
ExperimentResult RunWithRestore(const SubstrateSnapshot& snapshot,
                                ManagerKind manager, SimTime snap_at) {
  std::vector<std::uint8_t> bytes;
  {
    LiveRun first(snapshot, manager);
    first.run_until(snap_at);
    bytes = first.save();
  }
  LiveRun second(snapshot, manager);
  second.restore(bytes);
  // The restore reproduces the saved state exactly: saving it again, before
  // any event, yields the very same bytes.
  EXPECT_TRUE(second.save() == bytes) << "re-save after restore differs";
  second.run();
  return second.collect();
}

// Snapshot points: before the failure wave, inside it (between the t=10
// and t=18 crashes), and after it.
constexpr SimTime kSnapshotPoints[] = {5.0, 14.0, 30.0};

void SweepManager(ManagerKind manager, std::uint64_t seed_base,
                  int num_seeds, Fabric fabric = {}) {
  for (std::uint64_t seed = seed_base;
       seed < seed_base + static_cast<std::uint64_t>(num_seeds); ++seed) {
    const SubstrateSnapshot snapshot =
        SubstrateSnapshot::Build(BaseConfig(manager, seed, fabric));
    const ExperimentResult straight = RunOnSnapshot(snapshot, manager);
    // The failure wave must actually have fired, or the mid-wave snapshot
    // point is vacuous; likewise clones must have run, or the restored
    // clone attempts are.
    ASSERT_EQ(straight.nodes_failed, 3) << "seed=" << seed;
    ASSERT_GT(straight.speculative_launches, 0) << "seed=" << seed;
    for (const SimTime at : kSnapshotPoints) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " snap_at=" + std::to_string(at));
      ExpectResultsIdentical(RunWithRestore(snapshot, manager, at), straight);
    }
  }
}

// 4 managers x 20 seeds x 3 snapshot points, all seeds distinct.
TEST(SnapshotEquivalence, CustodyManySeedsAllPoints) {
  SweepManager(ManagerKind::kCustody, 2000, 20);
}

TEST(SnapshotEquivalence, StandaloneManySeedsAllPoints) {
  SweepManager(ManagerKind::kStandalone, 2100, 20);
}

TEST(SnapshotEquivalence, PoolManySeedsAllPoints) {
  SweepManager(ManagerKind::kPool, 2200, 20);
}

TEST(SnapshotEquivalence, OfferManySeedsAllPoints) {
  SweepManager(ManagerKind::kOffer, 2300, 20);
}

// Tight fabrics, where downlinks and/or the core start and stop binding as
// flows come and go: the rate solver's partition, which a restore rebuilds
// from the flow set, must match the live one, or the solver's scan counters
// (compared by ExpectResultsIdentical) diverge.
TEST(SnapshotEquivalence, TightFabricsRestoreTheLivePartition) {
  const Fabric kFabrics[] = {{4.0, 0.0}, {40.0, 6.0}, {6.0, 9.0}};
  for (const Fabric fabric : kFabrics) {
    SCOPED_TRACE("downlink_gbps=" + std::to_string(fabric.downlink_gbps) +
                 " core_gbps=" + std::to_string(fabric.core_gbps));
    SweepManager(ManagerKind::kCustody, 2600, 5, fabric);
    SweepManager(ManagerKind::kStandalone, 2700, 5, fabric);
  }
}

// The pre-run boundary is a valid snapshot point too: save immediately
// after construction, before a single event fires.
TEST(SnapshotEquivalence, SaveAtConstructionRoundTrips) {
  const SubstrateSnapshot snapshot =
      SubstrateSnapshot::Build(BaseConfig(ManagerKind::kCustody, 2500));
  const ExperimentResult straight =
      RunOnSnapshot(snapshot, ManagerKind::kCustody);
  std::vector<std::uint8_t> bytes;
  {
    LiveRun first(snapshot, ManagerKind::kCustody);
    bytes = first.save();
  }
  LiveRun second(snapshot, ManagerKind::kCustody);
  second.restore(bytes);
  EXPECT_TRUE(second.save() == bytes) << "re-save after restore differs";
  second.run();
  ExpectResultsIdentical(second.collect(), straight);
}

// Forking: one snapshot restored into two independent runs.  Untouched,
// the twins are identical; perturbing one (what-if: extra node crashes)
// diverges it while both still complete every job.
TEST(SnapshotEquivalence, ForkTwiceIsIdenticalAndWhatIfDiverges) {
  const SubstrateSnapshot snapshot =
      SubstrateSnapshot::Build(BaseConfig(ManagerKind::kCustody, 2510));
  std::vector<std::uint8_t> bytes;
  {
    LiveRun base(snapshot, ManagerKind::kCustody);
    base.run_until(12.0);  // one scheduled crash already happened
    bytes = base.save();
  }

  LiveRun fork_a(snapshot, ManagerKind::kCustody);
  fork_a.restore(bytes);
  fork_a.run();
  const ExperimentResult a = fork_a.collect();

  LiveRun fork_b(snapshot, ManagerKind::kCustody);
  fork_b.restore(bytes);
  fork_b.run();
  const ExperimentResult b = fork_b.collect();
  {
    SCOPED_TRACE("fork twice, untouched");
    ExpectResultsIdentical(a, b);
  }

  // What-if: crash three extra nodes in one fork right after restore.  At
  // most one of the chosen ids is already dead, so at least two extra
  // crashes land.
  LiveRun fork_c(snapshot, ManagerKind::kCustody);
  fork_c.restore(bytes);
  fork_c.inject_failure(NodeId(0));
  fork_c.inject_failure(NodeId(1));
  fork_c.inject_failure(NodeId(2));
  fork_c.run();
  const ExperimentResult c = fork_c.collect();
  EXPECT_GT(c.nodes_failed, a.nodes_failed);
  // The perturbed universe still completes the full workload.
  EXPECT_EQ(c.jobs_completed, a.jobs_completed);
}

// Steady-state lazy stream: the pump's seq and the stream's per-app draw
// state must survive restore.
TEST(SnapshotEquivalence, SteadyStateStreamResumes) {
  for (std::uint64_t seed = 2520; seed < 2523; ++seed) {
    ExperimentConfig config = BaseConfig(ManagerKind::kCustody, seed);
    config.trace.jobs_per_app = 12;
    config.steady.enabled = true;
    config.steady.warmup = 20.0;
    const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
    const ExperimentResult straight =
        RunOnSnapshot(snapshot, ManagerKind::kCustody);
    for (const SimTime at : {14.0, 60.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " snap_at=" + std::to_string(at));
      ExpectResultsIdentical(
          RunWithRestore(snapshot, ManagerKind::kCustody, at), straight);
    }
  }
}

// RunOnSnapshot's checkpoint plumbing: periodic checkpoints do not perturb
// the run, files + JSON manifests appear, and resuming from a mid-run
// checkpoint finishes with identical summaries.
TEST(SnapshotEquivalence, CheckpointEveryAndResumeMatchStraightRun) {
  const testing_support::FreshTempDir scratch(
      "snapshot-equivalence-checkpoints");
  const std::string& dir = scratch.path();
  ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2530);
  const SubstrateSnapshot plain = SubstrateSnapshot::Build(config);
  const ExperimentResult straight =
      RunOnSnapshot(plain, ManagerKind::kCustody);

  config.checkpoint.every = 15.0;
  config.checkpoint.directory = dir;
  const SubstrateSnapshot checkpointing = SubstrateSnapshot::Build(config);
  const ExperimentResult with_checkpoints =
      RunOnSnapshot(checkpointing, ManagerKind::kCustody);
  {
    SCOPED_TRACE("checkpointing run vs straight");
    ExpectResultsIdentical(with_checkpoints, straight);
  }

  const std::string first = dir + "/checkpoint-0001.snap";
  std::vector<std::uint8_t> first_bytes;
  ASSERT_NO_THROW(first_bytes = snap::ReadFile(first));
  // The snapshot itself parses and carries this run's identity.
  snap::SnapshotReader reader(first_bytes);
  EXPECT_EQ(reader.config_hash(),
            ConfigHash(config, ManagerKind::kCustody));
  EXPECT_EQ(reader.sim_time(), 15.0);

  // Manifest sidecar: schema version, config hash, sim time, manager.
  std::ifstream manifest(first + ".json");
  ASSERT_TRUE(manifest.good());
  std::stringstream buffer;
  buffer << manifest.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_time\""), std::string::npos);
  EXPECT_NE(json.find("\"manager\""), std::string::npos);

  // Kill-and-resume: a fresh run restored from the mid-run checkpoint must
  // finish with the same summaries as the uninterrupted run.
  ExperimentConfig resumed_config = BaseConfig(ManagerKind::kCustody, 2530);
  resumed_config.checkpoint.resume_path = first;
  const SubstrateSnapshot resumed_snapshot =
      SubstrateSnapshot::Build(resumed_config);
  const ExperimentResult resumed =
      RunOnSnapshot(resumed_snapshot, ManagerKind::kCustody);
  {
    SCOPED_TRACE("resumed run vs straight");
    ExpectResultsIdentical(resumed, straight);
  }
}

// The config hash pins a snapshot to its exact config + manager: restoring
// onto anything else is a typed error, not a silent divergence.
TEST(SnapshotEquivalence, ConfigHashMismatchIsRejected) {
  const SubstrateSnapshot snapshot =
      SubstrateSnapshot::Build(BaseConfig(ManagerKind::kCustody, 2540));
  std::vector<std::uint8_t> bytes;
  {
    LiveRun run(snapshot, ManagerKind::kCustody);
    run.run_until(5.0);
    bytes = run.save();
  }
  // Same substrate, different manager.
  LiveRun other_manager(snapshot, ManagerKind::kStandalone);
  EXPECT_THROW(other_manager.restore(bytes), snap::SnapshotError);

  // Different seed (hence different config hash), same manager.
  const SubstrateSnapshot other_snapshot =
      SubstrateSnapshot::Build(BaseConfig(ManagerKind::kCustody, 2541));
  LiveRun other_seed(other_snapshot, ManagerKind::kCustody);
  EXPECT_THROW(other_seed.restore(bytes), snap::SnapshotError);
}

TEST(SnapshotEquivalence, ConfigHashSeparatesKnobsButNotCheckpointing) {
  const ExperimentConfig base = BaseConfig(ManagerKind::kCustody, 2550);
  const std::uint64_t h = ConfigHash(base, ManagerKind::kCustody);

  ExperimentConfig other = base;
  other.seed = 2551;
  EXPECT_NE(ConfigHash(other, ManagerKind::kCustody), h);

  other = base;
  other.num_nodes += 1;
  EXPECT_NE(ConfigHash(other, ManagerKind::kCustody), h);

  EXPECT_NE(ConfigHash(base, ManagerKind::kPool), h);

  // Checkpoint knobs are operational, not behavioural: toggling them must
  // NOT change the hash (else a resumed run could never match its own
  // snapshot).
  other = base;
  other.checkpoint.every = 15.0;
  other.checkpoint.directory = "/somewhere/else";
  other.checkpoint.resume_path = "x.snap";
  EXPECT_EQ(ConfigHash(other, ManagerKind::kCustody), h);
}

TEST(SnapshotEquivalence, ValidateConfigRejectsUnsoundCheckpointKnobs) {
  {
    ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2560);
    config.checkpoint.every = -1.0;
    try {
      ValidateConfig(config);
      FAIL() << "negative checkpoint.every accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint.every"),
                std::string::npos);
    }
  }
  {
    ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2560);
    config.checkpoint.every = 10.0;
    config.checkpoint.directory.clear();
    try {
      ValidateConfig(config);
      FAIL() << "empty checkpoint.directory accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint.directory"),
                std::string::npos);
    }
  }
  {
    ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2560);
    config.checkpoint.every = 10.0;
    config.tracing.enabled = true;
    EXPECT_THROW(ValidateConfig(config), std::invalid_argument);
  }
  {
    ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2560);
    config.checkpoint.resume_path = "whatever.snap";
    config.tracing.enabled = true;
    EXPECT_THROW(ValidateConfig(config), std::invalid_argument);
  }
}

// save() refuses to snapshot a traced run: the ring buffers are
// observability, not state, and silently dropping them would lie.
TEST(SnapshotEquivalence, SaveWithTracerIsRejected) {
  ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2570);
  config.tracing.enabled = true;
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
  LiveRun run(snapshot, ManagerKind::kCustody);
  run.run_until(5.0);
  EXPECT_THROW((void)run.save(), snap::SnapshotError);
}

// An Rng restored mid-sequence continues with bit-identical draws — the
// foundation every layer's determinism rests on.
TEST(SnapshotEquivalence, RngDrawSequencePinnedAcrossRestore) {
  Rng rng(0xabcdef12345ULL);
  for (int i = 0; i < 100; ++i) (void)rng.uniform(0.0, 1.0);

  snap::SnapshotWriter w;
  w.begin_section("RNG ");
  rng.SaveTo(w);
  w.end_section();
  const auto bytes = w.finish(0, 0.0);

  std::vector<double> expected_uniform;
  std::vector<int> expected_ints;
  std::vector<double> expected_exp;
  for (int i = 0; i < 32; ++i) {
    expected_uniform.push_back(rng.uniform(0.0, 1.0));
    expected_ints.push_back(rng.uniform_int(0, 1000000));
    expected_exp.push_back(rng.exponential(4.0));
  }
  Rng forked = rng.fork(7);
  std::vector<double> expected_fork;
  for (int i = 0; i < 8; ++i) expected_fork.push_back(forked.uniform(0., 1.));

  Rng restored(1);  // deliberately different seed; restore overwrites
  snap::SnapshotReader r(bytes);
  r.begin_section("RNG ");
  restored.RestoreFrom(r);
  r.end_section();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(restored.uniform(0.0, 1.0), expected_uniform[i]) << i;
    EXPECT_EQ(restored.uniform_int(0, 1000000), expected_ints[i]) << i;
    EXPECT_EQ(restored.exponential(4.0), expected_exp[i]) << i;
  }
  // fork() derives from the restored seed, so sub-streams line up too.
  Rng refork = restored.fork(7);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(refork.uniform(0., 1.), expected_fork[i]) << i;
  }
}

// A SubmissionStream restored mid-trace emits the exact tail the original
// would have (the fork(3) arrival process).
TEST(SnapshotEquivalence, SubmissionStreamDrawsPinnedAcrossRestore) {
  ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2580);
  config.trace.jobs_per_app = 8;
  config.steady.enabled = true;
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);

  SubmissionStream original = snapshot.make_submission_stream();
  for (int i = 0; i < 5; ++i) (void)original.next();

  snap::SnapshotWriter w;
  w.begin_section("STRM");
  original.SaveTo(w);
  w.end_section();
  const auto bytes = w.finish(0, 0.0);

  std::vector<Submission> expected;
  while (!original.done()) expected.push_back(original.next());
  ASSERT_FALSE(expected.empty());

  SubmissionStream restored = snapshot.make_submission_stream();
  snap::SnapshotReader r(bytes);
  r.begin_section("STRM");
  restored.RestoreFrom(r);
  r.end_section();
  for (const Submission& want : expected) {
    ASSERT_FALSE(restored.done());
    const Submission got = restored.next();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.app_index, want.app_index);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.file_index, want.file_index);
  }
  EXPECT_TRUE(restored.done());
}

// ---------------------------------------------------------------------------
// Forged SUBS sections
// ---------------------------------------------------------------------------

// A snapshot file's header (magic, version, config hash, sim time), section
// head (4-char tag, u64 length) and footer (checksum) sizes.
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kSectionHeadBytes = 12;
constexpr std::size_t kFooterBytes = 8;

/// Recompute a snapshot file's footer checksum after editing its bytes.
void Reseal(std::vector<std::uint8_t>& file) {
  const std::uint64_t sum =
      snap::Fnv1a(file.data(), file.size() - kFooterBytes);
  for (std::size_t i = 0; i < kFooterBytes; ++i) {
    file[file.size() - kFooterBytes + i] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// The [begin, end) byte range of section `tag`, its tag and length
/// included, in a snapshot file.
std::pair<std::size_t, std::size_t> SectionRange(
    const std::vector<std::uint8_t>& file, const std::string& tag) {
  std::size_t at = kHeaderBytes;
  while (at + kSectionHeadBytes <= file.size() - kFooterBytes) {
    std::uint64_t length = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      length |= std::uint64_t{file[at + 4 + i]} << (8 * i);
    }
    const std::size_t end =
        at + kSectionHeadBytes + static_cast<std::size_t>(length);
    if (std::equal(tag.begin(), tag.end(), file.data() + at)) {
      return {at, end};
    }
    at = end;
  }
  throw std::logic_error("snapshot has no section " + tag);
}

/// A SUBS section field by field: the submission stream's per-app draw
/// state, then the armed pump's seq.
struct ForgedSubs {
  struct App {
    Rng rng{0};
    double clock = 0.0;
    std::int64_t remaining = 0;
    bool has_next = false;
    std::uint8_t kind = 0;
    std::uint64_t file_index = 0;
  };
  std::vector<App> apps;
  std::uint64_t emitted = 0;
  double rate_scale = 1.0;
  std::uint64_t pump_seq = 0;

  /// Decode the SUBS section of a snapshot file.
  static ForgedSubs From(const std::vector<std::uint8_t>& file) {
    const auto [begin, end] = SectionRange(file, "SUBS");
    // The header plus this one section make a file SnapshotReader accepts.
    std::vector<std::uint8_t> alone(file.data(), file.data() + kHeaderBytes);
    alone.insert(alone.end(), file.data() + begin, file.data() + end);
    alone.resize(alone.size() + kFooterBytes);
    Reseal(alone);
    snap::SnapshotReader r(alone);
    r.begin_section("SUBS");
    ForgedSubs f;
    f.apps.resize(r.size());
    for (App& app : f.apps) {
      app.rng.RestoreFrom(r);
      app.clock = r.f64();
      app.remaining = r.i64();
      app.has_next = r.b();
      if (app.has_next) {
        app.kind = r.u8();
        app.file_index = r.u64();
      }
    }
    f.emitted = r.u64();
    f.rate_scale = r.f64();
    if (f.armed()) f.pump_seq = r.u64();
    r.end_section();
    return f;
  }

  /// `file` with its SUBS section replaced by this one, resealed.
  [[nodiscard]] std::vector<std::uint8_t> Into(
      const std::vector<std::uint8_t>& file) const {
    snap::SnapshotWriter w;
    w.begin_section("SUBS");
    w.size(apps.size());
    for (const App& app : apps) {
      app.rng.SaveTo(w);
      w.f64(app.clock);
      w.i64(app.remaining);
      w.b(app.has_next);
      if (app.has_next) {
        w.u8(app.kind);
        w.u64(app.file_index);
      }
    }
    w.u64(emitted);
    w.f64(rate_scale);
    if (armed()) w.u64(pump_seq);
    w.end_section();
    const std::vector<std::uint8_t> section = w.finish(0, 0.0);
    const auto [begin, end] = SectionRange(file, "SUBS");
    std::vector<std::uint8_t> out(file.data(), file.data() + begin);
    out.insert(out.end(), section.data() + kHeaderBytes,
               section.data() + section.size() - kFooterBytes);
    out.insert(out.end(), file.data() + end, file.data() + file.size());
    Reseal(out);
    return out;
  }

  /// The pump is armed iff some application has a pending submission.
  [[nodiscard]] bool armed() const {
    return std::any_of(apps.begin(), apps.end(),
                       [](const App& app) { return app.has_next; });
  }

  /// The pending submission the pump is armed at (earliest, lowest app).
  App& head() {
    App* best = nullptr;
    for (App& app : apps) {
      if (app.has_next && (best == nullptr || app.clock < best->clock)) {
        best = &app;
      }
    }
    return *best;
  }
};

/// A classic run of BaseConfig (kinds WordCount and Sort, 3 files per
/// kind) saved at t = 5, when every application still has a submission
/// pending.
class ForgedSubmissions : public ::testing::Test {
 protected:
  static constexpr SimTime kSavedAt = 5.0;

  ForgedSubmissions()
      : snapshot_(SubstrateSnapshot::Build(
            BaseConfig(ManagerKind::kCustody, 2600))) {
    LiveRun run(snapshot_, ManagerKind::kCustody);
    run.run_until(kSavedAt);
    bytes_ = run.save();
  }

  /// Restores the saved file with `forged` as its SUBS section and returns
  /// the snap::SnapshotError message, or "" when the restore is accepted
  /// (any other exception fails the test).
  std::string Rejection(const ForgedSubs& forged) {
    LiveRun run(snapshot_, ManagerKind::kCustody);
    try {
      run.restore(forged.Into(bytes_));
    } catch (const snap::SnapshotError& e) {
      return e.what();
    }
    return "";
  }

  void ExpectRejected(const ForgedSubs& forged, const std::string& reason) {
    const std::string message = Rejection(forged);
    EXPECT_NE(message.find(reason), std::string::npos)
        << "want \"" << reason << "\", got \"" << message << "\"";
  }

  [[nodiscard]] ForgedSubs Saved() const { return ForgedSubs::From(bytes_); }

  SubstrateSnapshot snapshot_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(ForgedSubmissions, WellFormedSectionRestores) {
  const ForgedSubs saved = Saved();
  ASSERT_EQ(saved.apps.size(), 3u);
  for (const ForgedSubs::App& app : saved.apps) ASSERT_TRUE(app.has_next);
  // The forger reproduces the saved file byte for byte, so each rejection
  // below comes from the one field it changes.
  EXPECT_EQ(saved.Into(bytes_), bytes_);
  EXPECT_EQ(Rejection(saved), "");
}

TEST_F(ForgedSubmissions, RejectsKindOutsideTheConfig) {
  ForgedSubs f = Saved();
  f.head().kind = static_cast<std::uint8_t>(WorkloadKind::kPageRank);
  ExpectRejected(f, "is not one of the config's kinds");
}

TEST_F(ForgedSubmissions, RejectsFileIndexPastTheCatalog) {
  ForgedSubs f = Saved();
  f.head().file_index = 3;  // files_per_kind is 3
  ExpectRejected(f, "is past files_per_kind 3");
}

TEST_F(ForgedSubmissions, RejectsNonFiniteTime) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ForgedSubs head = Saved();
    head.head().clock = bad;
    ExpectRejected(head, "is not finite");
    // Behind the head too: a NaN never compares earliest, so it would
    // otherwise surface only once every other application ran dry.
    ForgedSubs last = Saved();
    ForgedSubs::App* tail = &last.apps.back();
    if (tail == &last.head()) tail = &last.apps.front();
    tail->clock = bad;
    ExpectRejected(last, "is not finite");
  }
}

TEST_F(ForgedSubmissions, RejectsTimeBeforeTheSnapshot) {
  ForgedSubs f = Saved();
  f.head().clock = kSavedAt - 1.0;
  ExpectRejected(f, "precedes the snapshot time");
}

// ---------------------------------------------------------------------------
// Section digests: the snapshot layout, pinned
// ---------------------------------------------------------------------------

// The sections of a LiveRun snapshot, in file order.
constexpr const char* kSectionTags[] = {"SIM ", "IDS ", "DFS ", "CACH",
                                        "NET ", "CLUS", "MGR ", "APPS",
                                        "METR", "SUBS", "FAIL"};
constexpr std::size_t kSectionCount = std::size(kSectionTags);

/// Each section's tag and the FNV-1a digest of its payload (the bytes after
/// the 4-char tag and u64 length), in file order.  The header is excluded:
/// it holds the config hash, which pins the config, not the layout.
std::vector<std::pair<std::string, std::uint64_t>> SectionDigests(
    const std::vector<std::uint8_t>& file) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  const std::size_t payload_end = file.size() - kFooterBytes;
  std::size_t at = kHeaderBytes;
  while (at < payload_end) {
    std::uint64_t length = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      length |= std::uint64_t{file[at + 4 + i]} << (8 * i);
    }
    const std::size_t body = at + kSectionHeadBytes;
    out.emplace_back(std::string(file.begin() + static_cast<long>(at),
                                 file.begin() + static_cast<long>(at + 4)),
                     snap::Fnv1a(file.data() + body,
                                 static_cast<std::size_t>(length)));
    at = body + static_cast<std::size_t>(length);
  }
  return out;
}

/// The digests of one snapshot, in kSectionTags order.
struct LayoutPin {
  ManagerKind manager;
  SimTime at;
  std::uint64_t digests[kSectionCount];
};

// BaseConfig(manager, 2300) saved at each snapshot point.  A change to any
// layer's snapshot layout, or to the state a run holds at these points,
// moves a digest here: a layout change must bump snap::kFormatVersion, and
// a behaviour change also moves the golden result digests.
constexpr LayoutPin kLayoutPins[] = {
    {ManagerKind::kCustody, 5.0,
     {0x8a882b086660b3e0, 0xdef6f20feeeb86df, 0xe43d418f2836a100,
      0xb403d430ebfc13a5, 0x63dadb53f2010c21, 0xbdae87024e3b990e,
      0x66d38d86d999e92b, 0x9cffc1826a04800f, 0x579fb6264ad96eac,
      0x60ab56434be51846, 0xf2c2db1442177f1f}},
    {ManagerKind::kCustody, 14.0,
     {0x1861c509b6efcfb6, 0x6ec8ae66426800f8, 0x92d3b6db36857661,
      0xb403d430ebfc13a5, 0x9fce17ff7fc706dc, 0x73592ebeea4546b5,
      0x95a1337192968947, 0x9dffc2cc219e1912, 0x87a089fc2f0b1eb3,
      0x5a99de35379cd9e, 0x22310996537864a5}},
    {ManagerKind::kCustody, 30.0,
     {0xa561537136a08321, 0xe82bb6515c3e0b9b, 0x61940e5fd227026e,
      0x8d8f29315ade3778, 0xf748c3f01f465d74, 0xd670672a9d4b368,
      0x2b58373800221943, 0x10dd1a7b8b1b59e7, 0xc38ae8a8692de570,
      0xfe78a04b4951c413, 0x21ccf80c66a673ff}},
    {ManagerKind::kStandalone, 5.0,
     {0x5a4ff058dbde03c0, 0xdef6f20feeeb86df, 0xe43d418f2836a100,
      0x9d79611e5d9030fd, 0x907e16c896b8f431, 0x1af41f903d82523,
      0x1681b189269d3872, 0x4c6a9d51c16be909, 0xc1af6e1439288add,
      0xd619028566440391, 0xf2c2db1442177f1f}},
    {ManagerKind::kStandalone, 14.0,
     {0x714827c278feb528, 0x6ec8ae66426800f8, 0x92d3b6db36857661,
      0x5bc11a3a4c045cf7, 0x925f5722d6c0979b, 0x248961727ce34987,
      0x1681b189269d3872, 0x53f5d1d8fb1cee29, 0x9937f6c0cf9ad204,
      0xa08f81108a264043, 0x22310996537864a5}},
    {ManagerKind::kStandalone, 30.0,
     {0xbe65bdc01e7b49c7, 0xe82bb6515c3e0b9b, 0x61940e5fd227026e,
      0xecb94dec8055fffd, 0xecda7845c737457a, 0x6124d31a4e3cd3c1,
      0x1681b189269d3872, 0x1eb486d297b98324, 0x531ab682513c0c83,
      0x3e3fcce07264ec16, 0x21ccf80c66a673ff}},
    {ManagerKind::kPool, 5.0,
     {0x723706b4868c4c8a, 0xdef6f20feeeb86df, 0xe43d418f2836a100,
      0x3adbaede16a31f32, 0xee9591207c1b038f, 0xcde380d53079f49f,
      0xe007849c759d65ba, 0xfde52a6f045a79bd, 0xaa7726c8d4861b22,
      0xe66c91f4b74f6181, 0xf2c2db1442177f1f}},
    {ManagerKind::kPool, 14.0,
     {0x4d8bcd2bbf833202, 0x6ec8ae66426800f8, 0x92d3b6db36857661,
      0x62d29a8a4020ba00, 0x9dd14588530c4c16, 0xe384df59ac8db885,
      0xab836bac3bc099ac, 0x267fce2224e5cc41, 0x63d523e94e9d0b7d,
      0x9865b958e1a0914b, 0x22310996537864a5}},
    {ManagerKind::kPool, 30.0,
     {0x9779cb2638197e2e, 0xe82bb6515c3e0b9b, 0x61940e5fd227026e,
      0x40a85eb7cd41abbc, 0xb7a771564fa59be9, 0x47180b7a02ec3895,
      0x8e3083c30f7f89d5, 0xa959b0ed8074f920, 0xdbbcdcc933d0a010,
      0x59e1e43e4f0552b9, 0x21ccf80c66a673ff}},
    {ManagerKind::kOffer, 5.0,
     {0xbcc35b60455ef6ae, 0xdef6f20feeeb86df, 0xe43d418f2836a100,
      0x3ef667baca9c2088, 0x1c6ac05eddad7c15, 0xd3e79fca68fe467,
      0x461c08a82e23d3d3, 0x7cce9674c02b40e1, 0xadd59c3c5576ad68,
      0x9823747350656f4f, 0xf2c2db1442177f1f}},
    {ManagerKind::kOffer, 14.0,
     {0x20d8cd9c93bb507a, 0x6ec8ae66426800f8, 0x92d3b6db36857661,
      0xb65768b93ee8c1e0, 0xba20cc503daefb71, 0xc7bafa6dc07ca2a7,
      0xd382a072c54b2190, 0x3cddc628acac4ddc, 0x7d99a84787770b1a,
      0xe5027f04b16311be, 0x22310996537864a5}},
    {ManagerKind::kOffer, 30.0,
     {0x54aab2970979cbbf, 0xe82bb6515c3e0b9b, 0x61940e5fd227026e,
      0x5f8072997949de29, 0xda3d8056ee471ca9, 0x551b46ab3a1fddd0,
      0x797aea19b37508bb, 0x534915fe0a27e8b1, 0x945df928bb5a6a92,
      0xef17668166a4405, 0x21ccf80c66a673ff}},
};

TEST(SnapshotEquivalence, SectionDigestsArePinned) {
  for (const LayoutPin& pin : kLayoutPins) {
    const std::string name = std::string(ManagerName(pin.manager)) +
                             " at t=" + std::to_string(pin.at);
    SCOPED_TRACE(name);
    const SubstrateSnapshot snapshot =
        SubstrateSnapshot::Build(BaseConfig(pin.manager, 2300));
    LiveRun run(snapshot, pin.manager);
    run.run_until(pin.at);
    const auto sections = SectionDigests(run.save());
    ASSERT_EQ(sections.size(), kSectionCount);
    std::ostringstream row;
    row << std::hex;
    bool matches = true;
    for (std::size_t i = 0; i < kSectionCount; ++i) {
      const auto& [tag, digest] = sections[i];
      ASSERT_EQ(tag, kSectionTags[i]);
      row << (i == 0 ? "" : ", ") << "0x" << digest;
      if (digest != pin.digests[i]) {
        ADD_FAILURE() << "section '" << tag << "' digest moved";
        matches = false;
      }
    }
    EXPECT_TRUE(matches) << name << " now reads {" << row.str() << "}";
  }
}

// A snapshot is simulation state only — no wall-clock diagnostics — so
// two identical runs save identical bytes.
TEST(SnapshotEquivalence, IdenticalRunsSaveIdenticalBytes) {
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kStandalone, ManagerKind::kPool,
        ManagerKind::kOffer}) {
    SCOPED_TRACE(ManagerName(manager));
    const SubstrateSnapshot snapshot =
        SubstrateSnapshot::Build(BaseConfig(manager, 2300));
    LiveRun first(snapshot, manager);
    LiveRun second(snapshot, manager);
    first.run_until(14.0);
    second.run_until(14.0);
    const std::vector<std::uint8_t> a = first.save();
    const std::vector<std::uint8_t> b = second.save();
    EXPECT_TRUE(a == b);
    EXPECT_EQ(SectionDigests(a), SectionDigests(b));  // names the culprits
  }
}

// Payload corruption with a RECOMPUTED footer checksum sails past the
// integrity check and hits the per-layer validation: restore must throw a
// typed error or succeed benignly — never crash or corrupt memory.  Every
// restore that is accepted then runs, under an event budget that bounds a
// corrupt state the queue would never drain: the run may throw, but must
// not crash, fail an assertion or corrupt memory either.  (The sanitizer
// CI job runs this test under ASan/UBSan.)
TEST(SnapshotEquivalence, CorruptPayloadWithFixedChecksumNeverCrashes) {
  ExperimentConfig config = BaseConfig(ManagerKind::kCustody, 2590);
  config.node_failures = 0;  // smaller state, faster attempts
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 2;
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
  std::vector<std::uint8_t> bytes;
  {
    LiveRun run(snapshot, ManagerKind::kCustody);
    run.run_until(8.0);
    bytes = run.save();
  }
  const std::size_t payload_begin = kHeaderBytes;
  const std::size_t payload_end = bytes.size() - kFooterBytes;
  // Stride through the payload so every section gets hit while the test
  // stays fast; two flip patterns per offset (low bit and high bit).
  const std::size_t stride = std::max<std::size_t>(
      1, (payload_end - payload_begin) / 160);
  // Far more events than the clean remainder of the run (a few hundred).
  constexpr std::uint64_t kEventBudget = 20000;
  int attempted = 0;
  int accepted = 0;
  for (std::size_t off = payload_begin; off < payload_end; off += stride) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bad = bytes;
      bad[off] ^= flip;
      Reseal(bad);
      ++attempted;
      LiveRun victim(snapshot, ManagerKind::kCustody);
      try {
        victim.restore(bad);
      } catch (const std::exception&) {
        continue;  // typed rejection is the expected outcome
      }
      // A flip in slack bits can be benign; that's fine.
      ++accepted;
      RunControl control;
      control.progress_every = kEventBudget;
      control.on_progress = [&control](const RunProgress&) {
        control.request_cancel();
      };
      try {
        if (victim.run(&control)) (void)victim.collect();
      } catch (const std::exception&) {
        // Throwing out of a corrupt run is acceptable.
      }
    }
  }
  EXPECT_GE(attempted, 300);
  // Many flips land in values no check can judge (times, sizes, rng
  // state), so accepted restores do run.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace custody::workload
