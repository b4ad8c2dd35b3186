// Golden result digests: the simulated outcome of 155 small experiments,
// pinned as committed constants.
//
// The grid is 4 managers x 3 scheduler kinds x 8 seeds (96 cells) plus 59
// feature variants that drive the code paths most likely to drift: the
// block cache (ready-index cache listeners, cached locality in rounds),
// node failures (DFS failover, replica listeners, task resets, idle-index
// removals), speculation with slow nodes (straggler candidates and clone
// offers), the steady-state stream (job retirement, release churn) and the
// kick walk on statically provisioned clusters larger than the demand.
// Every configuration uses the default values of everything it does not
// set, so the table pins what a default run does.
//
// A digest is OutcomeDigest (tests/outcome_digest.h): snap::Fnv1a over
// svc::ResultToJson of the result with the cost counters zeroed.
//
// A mismatch prints the case name and the digest the run produced.  A
// change that alters simulated behaviour on purpose must replace the
// affected constants and say why; nothing regenerates them automatically.
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "outcome_digest.h"
#include "workload/harness.h"

namespace custody::workload {
namespace {

struct Case {
  std::string name;
  ExperimentConfig config;
};

ExperimentConfig BaseConfig(ManagerKind manager, app::SchedulerKind kind,
                            std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  config.scheduler.kind = kind;
  config.seed = seed;
  return config;
}

constexpr app::SchedulerKind kKinds[] = {app::SchedulerKind::kDelay,
                                         app::SchedulerKind::kLocalityPreferred,
                                         app::SchedulerKind::kFifo};

const char* KindName(app::SchedulerKind kind) {
  switch (kind) {
    case app::SchedulerKind::kDelay:
      return "delay";
    case app::SchedulerKind::kLocalityPreferred:
      return "locality";
    case app::SchedulerKind::kFifo:
      return "fifo";
  }
  return "?";
}

Case Named(const std::string& group, const ExperimentConfig& config) {
  return {group + "/" + ManagerName(config.manager) + "/" +
              KindName(config.scheduler.kind) + "/" +
              std::to_string(config.seed),
          config};
}

/// Every scheduler kind on `manager`, four seeds per kind, consecutive from
/// `seed_base`.  Each manager runs two such blocks, 1000 seeds apart.
std::vector<Case> GridCells(ManagerKind manager, std::uint64_t seed_base) {
  std::vector<Case> cases;
  std::uint64_t seed = seed_base;
  for (const app::SchedulerKind kind : kKinds) {
    for (int i = 0; i < 4; ++i, ++seed) {
      cases.push_back(Named("grid", BaseConfig(manager, kind, seed)));
    }
  }
  return cases;
}

/// Speculation, slow nodes, a block cache and node failures on top of
/// `BaseConfig`.
ExperimentConfig WithStragglersCacheAndFailures(ExperimentConfig config) {
  config.speculation = true;
  config.slow_node_fraction = 0.2;
  config.cache_mb_per_node = 256.0;
  config.trace.zipf_skew = 1.2;
  config.node_failures = 2;
  config.failure_start = 10.0;
  config.failure_interval = 15.0;
  return config;
}

// The block cache feeds the ready index through cache change listeners and
// joins Custody's block->node lookups; a hot zipf-skewed dataset makes
// inserts and evictions fire constantly.  Four seeds from `seed_base`.
std::vector<Case> CachedCases(std::uint64_t seed_base) {
  std::vector<Case> cases;
  for (std::uint64_t seed = seed_base; seed < seed_base + 4; ++seed) {
    ExperimentConfig config =
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed);
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.2;
    cases.push_back(Named("cached", config));
  }
  return cases;
}

// Node failures drive DFS failover, replica listeners, task resets and
// idle-index removals; speculation on slow nodes adds clone churn.  Every
// manager in `managers` over seeds [seed_begin, seed_end).
std::vector<Case> FailureAndSpeculationCases(
    std::initializer_list<ManagerKind> managers, std::uint64_t seed_begin,
    std::uint64_t seed_end) {
  std::vector<Case> cases;
  for (const ManagerKind manager : managers) {
    for (std::uint64_t seed = seed_begin; seed < seed_end; ++seed) {
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.node_failures = 2;
      config.failure_start = 10.0;
      config.failure_interval = 15.0;
      config.slow_node_fraction = 0.2;
      config.speculation = true;
      cases.push_back(Named("failures-spec", config));
    }
  }
  return cases;
}

// Cache and failures on the offer manager: a failed node loses cached
// copies too, and a disk replica can move under a cached block.  Seed 702
// also runs with each feature alone; only the combination once exposed a
// stale-location bug in the ready index.
Case OfferCacheAndFailureCase(const std::string& group, std::uint64_t seed,
                              bool cache, bool failures) {
  ExperimentConfig config =
      BaseConfig(ManagerKind::kOffer, app::SchedulerKind::kDelay, seed);
  if (cache) {
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.1;
  }
  if (failures) {
    config.node_failures = 2;
    config.failure_start = 8.0;
    config.failure_interval = 12.0;
  }
  return Named(group, config);
}

std::vector<Case> OfferCacheAndFailureCases() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 700; seed < 704; ++seed) {
    cases.push_back(
        OfferCacheAndFailureCase("cache-failures", seed, true, true));
  }
  return cases;
}

Case OfferCacheOnlyCase() {
  return OfferCacheAndFailureCase("cache-only", 702, true, false);
}

Case OfferFailuresOnlyCase() {
  return OfferCacheAndFailureCase("failures-only", 702, false, true);
}

// The steady-state stream: lazy submissions, job retirement and streaming
// metrics, where released executors cycle through the idle index.
std::vector<Case> SteadyStreamCases() {
  std::vector<Case> cases;
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kOffer}) {
    for (std::uint64_t seed = 1700; seed < 1702; ++seed) {
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.trace.jobs_per_app = 30;
      config.steady.enabled = true;
      config.steady.warmup = 20.0;
      cases.push_back(Named("steady", config));
    }
  }
  return cases;
}

// The statically provisioned managers hold many free executors while jobs
// wait for locality: the kick walk's jumps between local-ready nodes
// interleave with clone offers to stragglers.  Every scheduler kind, with
// and without speculation, under cache and failure churn, on a cluster
// larger than the demand.
std::vector<Case> KickWalkCases() {
  std::vector<Case> cases;
  std::uint64_t seed = 1900;
  for (const ManagerKind manager :
       {ManagerKind::kStandalone, ManagerKind::kOffer}) {
    for (const bool speculation : {false, true}) {
      for (const app::SchedulerKind kind : kKinds) {
        for (int i = 0; i < 2; ++i, ++seed) {
          ExperimentConfig config =
              WithStragglersCacheAndFailures(BaseConfig(manager, kind, seed));
          config.num_nodes = 48;
          config.speculation = speculation;
          cases.push_back(
              Named(speculation ? "kick-walk-spec" : "kick-walk", config));
        }
      }
    }
  }
  return cases;
}

// spec-1k's regime at toy scale: a steady-state stream with speculation,
// slow nodes, a block cache and failures, so straggler candidates come and
// go as jobs retire and slow thresholds are re-derived.
std::vector<Case> SteadyStragglerCases() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 2000; seed < 2006; ++seed) {
    ExperimentConfig config = WithStragglersCacheAndFailures(
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed));
    config.kinds = {WorkloadKind::kPageRank, WorkloadKind::kWordCount,
                    WorkloadKind::kSort};
    config.trace.jobs_per_app = 30;
    config.node_failures = 3;
    config.steady.enabled = true;
    config.steady.warmup = 20.0;
    cases.push_back(Named("steady-stragglers", config));
  }
  return cases;
}

constexpr std::pair<ManagerKind, std::uint64_t> kGridSeeds[] = {
    {ManagerKind::kCustody, 100},
    {ManagerKind::kStandalone, 200},
    {ManagerKind::kPool, 300},
    {ManagerKind::kOffer, 400}};

Case SkipTriggerCase() {
  return Named("skip-trigger", BaseConfig(ManagerKind::kCustody,
                                          app::SchedulerKind::kDelay, 1800));
}

/// Every case the tests below run, in table order.
std::vector<Case> AllCases() {
  std::vector<Case> all;
  const auto append = [&all](std::vector<Case> cases) {
    for (Case& c : cases) all.push_back(std::move(c));
  };
  for (const auto& [manager, seed_base] : kGridSeeds) {
    append(GridCells(manager, seed_base));
    append(GridCells(manager, seed_base + 1000));
  }
  append(CachedCases(500));
  append(CachedCases(1600));
  append(FailureAndSpeculationCases({ManagerKind::kCustody}, 600, 604));
  append(FailureAndSpeculationCases(
      {ManagerKind::kCustody, ManagerKind::kPool}, 1500, 1503));
  append(OfferCacheAndFailureCases());
  all.push_back(OfferCacheOnlyCase());
  all.push_back(OfferFailuresOnlyCase());
  append(SteadyStreamCases());
  append(KickWalkCases());
  append(SteadyStragglerCases());
  all.push_back(SkipTriggerCase());
  return all;
}

// clang-format off
const std::map<std::string, std::uint64_t>& GoldenTable() {
  static const std::map<std::string, std::uint64_t> kGolden = {
      {"grid/custody/delay/100", 0x2eea293ad29810baULL},
      {"grid/custody/delay/101", 0x5170b3a4b141049fULL},
      {"grid/custody/delay/102", 0xd62aeb70f26ded3fULL},
      {"grid/custody/delay/103", 0x8a27951cbdcae235ULL},
      {"grid/custody/locality/104", 0xbd1229cfba462346ULL},
      {"grid/custody/locality/105", 0x0a1932dc62ea69f5ULL},
      {"grid/custody/locality/106", 0xf12b0535a7bdbd11ULL},
      {"grid/custody/locality/107", 0xd7c77215d18c9d06ULL},
      {"grid/custody/fifo/108", 0x4867e400542ca65aULL},
      {"grid/custody/fifo/109", 0x76d530463ea1f291ULL},
      {"grid/custody/fifo/110", 0x2ea92e627d7b4b6bULL},
      {"grid/custody/fifo/111", 0x7aceb61aa7f9f3adULL},
      {"grid/custody/delay/1100", 0x3c9278facf83c38dULL},
      {"grid/custody/delay/1101", 0xffb391ef80f5393aULL},
      {"grid/custody/delay/1102", 0xb8932be3bc310af4ULL},
      {"grid/custody/delay/1103", 0xb0abfae246b192c8ULL},
      {"grid/custody/locality/1104", 0x49d83520f45acd38ULL},
      {"grid/custody/locality/1105", 0xf1da825d10ac37c1ULL},
      {"grid/custody/locality/1106", 0xaedcb8aab7173672ULL},
      {"grid/custody/locality/1107", 0x424c7bab69fd9740ULL},
      {"grid/custody/fifo/1108", 0xc065c8dc23aa2466ULL},
      {"grid/custody/fifo/1109", 0x9a30b42f05a052c9ULL},
      {"grid/custody/fifo/1110", 0x12741537d1cfb801ULL},
      {"grid/custody/fifo/1111", 0xb7abe086ed70fd0aULL},
      {"grid/standalone/delay/200", 0xa60f90f514cb4e08ULL},
      {"grid/standalone/delay/201", 0xcab3f5ec834ace36ULL},
      {"grid/standalone/delay/202", 0x6717234ef33140f7ULL},
      {"grid/standalone/delay/203", 0xb403329fb9040db7ULL},
      {"grid/standalone/locality/204", 0xf5499af79818fafdULL},
      {"grid/standalone/locality/205", 0x84aff92b0cbd863fULL},
      {"grid/standalone/locality/206", 0xb8d3fe112431f344ULL},
      {"grid/standalone/locality/207", 0xeae1b1090a7ea13fULL},
      {"grid/standalone/fifo/208", 0x5f3ccd1f0176fc08ULL},
      {"grid/standalone/fifo/209", 0x36b0461311a962d8ULL},
      {"grid/standalone/fifo/210", 0x86f40acacf5c88b4ULL},
      {"grid/standalone/fifo/211", 0x113504fd5a03aa0fULL},
      {"grid/standalone/delay/1200", 0x4a7efe52d4c153deULL},
      {"grid/standalone/delay/1201", 0x4b7af2d38c323d68ULL},
      {"grid/standalone/delay/1202", 0x290b2bad980f9fe4ULL},
      {"grid/standalone/delay/1203", 0x3a4e9bff5cadd606ULL},
      {"grid/standalone/locality/1204", 0xa4a7a9ee62a77534ULL},
      {"grid/standalone/locality/1205", 0xd9fc33a0da401465ULL},
      {"grid/standalone/locality/1206", 0xf81e3ce1b3e988dbULL},
      {"grid/standalone/locality/1207", 0x08f1e976a9084d0dULL},
      {"grid/standalone/fifo/1208", 0x297678276f881898ULL},
      {"grid/standalone/fifo/1209", 0xd3c583e05bb83fe5ULL},
      {"grid/standalone/fifo/1210", 0x4fb09e00871995adULL},
      {"grid/standalone/fifo/1211", 0x36156be8c85412fcULL},
      {"grid/pool/delay/300", 0x0806976106dc59ccULL},
      {"grid/pool/delay/301", 0x45d30cf1c15da1d9ULL},
      {"grid/pool/delay/302", 0x2d7a7ede9d3d85c8ULL},
      {"grid/pool/delay/303", 0x2e8108d05f68fe55ULL},
      {"grid/pool/locality/304", 0x5c3836e0af41cdf6ULL},
      {"grid/pool/locality/305", 0x32a48651bad24512ULL},
      {"grid/pool/locality/306", 0x16068d9971222ed3ULL},
      {"grid/pool/locality/307", 0x5d0f8235eaef52a8ULL},
      {"grid/pool/fifo/308", 0x46bf072b15d9c149ULL},
      {"grid/pool/fifo/309", 0xd4e82579f676f8d9ULL},
      {"grid/pool/fifo/310", 0x8f552a3cda75f54fULL},
      {"grid/pool/fifo/311", 0x5d8475a9e69de049ULL},
      {"grid/pool/delay/1300", 0x91c952dabf530a47ULL},
      {"grid/pool/delay/1301", 0x852373fbb5408e10ULL},
      {"grid/pool/delay/1302", 0xb7f7d163bba04ac0ULL},
      {"grid/pool/delay/1303", 0x8bb3a9d840922b4eULL},
      {"grid/pool/locality/1304", 0xffeca5f793e35db9ULL},
      {"grid/pool/locality/1305", 0xad4b1d0199fda7d8ULL},
      {"grid/pool/locality/1306", 0xc41fca9c49d7d725ULL},
      {"grid/pool/locality/1307", 0x62a403e6aedfa338ULL},
      {"grid/pool/fifo/1308", 0x7139ff925f1e815bULL},
      {"grid/pool/fifo/1309", 0xd2c594631c3b9ee9ULL},
      {"grid/pool/fifo/1310", 0x83ed3bf34a625d34ULL},
      {"grid/pool/fifo/1311", 0x22a9416c4c30b52eULL},
      {"grid/offer/delay/400", 0x8322c5a2bd761a2eULL},
      {"grid/offer/delay/401", 0x1e0224ae57919e6aULL},
      {"grid/offer/delay/402", 0x5e62071ae64d6820ULL},
      {"grid/offer/delay/403", 0x9314f90df7e2aa9cULL},
      {"grid/offer/locality/404", 0x8a51c33233d1be37ULL},
      {"grid/offer/locality/405", 0x29f457e1edf1f1f1ULL},
      {"grid/offer/locality/406", 0x8057e504da7159deULL},
      {"grid/offer/locality/407", 0x8954fbf4c310b386ULL},
      {"grid/offer/fifo/408", 0x45cace3b96ed6f51ULL},
      {"grid/offer/fifo/409", 0x67cac7fff98db7c7ULL},
      {"grid/offer/fifo/410", 0x0e5621ac09dd8011ULL},
      {"grid/offer/fifo/411", 0x7df614e5b6990156ULL},
      {"grid/offer/delay/1400", 0x13f6bba46f8cafa0ULL},
      {"grid/offer/delay/1401", 0xf86c682a36040699ULL},
      {"grid/offer/delay/1402", 0x659b75a5a1395f1dULL},
      {"grid/offer/delay/1403", 0x657ea8069d4e089aULL},
      {"grid/offer/locality/1404", 0xacb6d055d857795aULL},
      {"grid/offer/locality/1405", 0xc5652d9799ebc0e1ULL},
      {"grid/offer/locality/1406", 0x65bbd0ce3b089344ULL},
      {"grid/offer/locality/1407", 0xf5b0fe30428dd997ULL},
      {"grid/offer/fifo/1408", 0xe8764f0c3252562cULL},
      {"grid/offer/fifo/1409", 0x8fe3cd4a148f52caULL},
      {"grid/offer/fifo/1410", 0x3106f652916ef514ULL},
      {"grid/offer/fifo/1411", 0xa2e5cd41e899e763ULL},
      {"cached/custody/delay/500", 0xe8fb876ca1b91a93ULL},
      {"cached/custody/delay/501", 0xbca281f5ee7bb248ULL},
      {"cached/custody/delay/502", 0xc2b294634c3a44e3ULL},
      {"cached/custody/delay/503", 0x1bdf0011ea4c71d5ULL},
      {"cached/custody/delay/1600", 0xcd6030f2b7fe8a4dULL},
      {"cached/custody/delay/1601", 0x17c58e181ed22affULL},
      {"cached/custody/delay/1602", 0x27b104620df8423dULL},
      {"cached/custody/delay/1603", 0x05970f508a519274ULL},
      {"failures-spec/custody/delay/600", 0xad36cad443c7d89aULL},
      {"failures-spec/custody/delay/601", 0xdc2861af0b74d756ULL},
      {"failures-spec/custody/delay/602", 0xb55476720b995fabULL},
      {"failures-spec/custody/delay/603", 0xc91c963cfc8fe66cULL},
      {"failures-spec/custody/delay/1500", 0x285b7d4e71c28c55ULL},
      {"failures-spec/custody/delay/1501", 0x58ee421023cbce1fULL},
      {"failures-spec/custody/delay/1502", 0x5efc400a60ee2e62ULL},
      {"failures-spec/pool/delay/1500", 0x1dacc8616132913fULL},
      {"failures-spec/pool/delay/1501", 0x29bd4ccef1694b3dULL},
      {"failures-spec/pool/delay/1502", 0x70b8af3eb03e38a1ULL},
      {"cache-failures/offer/delay/700", 0x3bb683543ac8370bULL},
      {"cache-failures/offer/delay/701", 0x2e3fe877c672dedaULL},
      {"cache-failures/offer/delay/702", 0xd2196a8f699b4939ULL},
      {"cache-failures/offer/delay/703", 0x9a4ef41520ba196aULL},
      {"cache-only/offer/delay/702", 0x026eca38aac6c72bULL},
      {"failures-only/offer/delay/702", 0xcce19d2b3b08fd54ULL},
      {"steady/custody/delay/1700", 0x6fa2acfc99ab69cbULL},
      {"steady/custody/delay/1701", 0x2c70177628c22078ULL},
      {"steady/offer/delay/1700", 0x2a3f92bfc0838352ULL},
      {"steady/offer/delay/1701", 0x220174ccd64ef47eULL},
      {"kick-walk/standalone/delay/1900", 0x5922afbdd3a7e4c2ULL},
      {"kick-walk/standalone/delay/1901", 0xb4513fd1d943798eULL},
      {"kick-walk/standalone/locality/1902", 0x6a1456f5b1b9761bULL},
      {"kick-walk/standalone/locality/1903", 0xd1e32e46a30ea63bULL},
      {"kick-walk/standalone/fifo/1904", 0x13d1e610fe902c87ULL},
      {"kick-walk/standalone/fifo/1905", 0x9d3085acf7f07f1cULL},
      {"kick-walk-spec/standalone/delay/1906", 0x0b1930f5715d763dULL},
      {"kick-walk-spec/standalone/delay/1907", 0x385b37f713dfbe75ULL},
      {"kick-walk-spec/standalone/locality/1908", 0x63ced827e3d458c9ULL},
      {"kick-walk-spec/standalone/locality/1909", 0x5ed17aaefbd118a9ULL},
      {"kick-walk-spec/standalone/fifo/1910", 0x555d2092ae23b6ebULL},
      {"kick-walk-spec/standalone/fifo/1911", 0xe6bcaae5b93f9d90ULL},
      {"kick-walk/offer/delay/1912", 0x66d86885a482f89eULL},
      {"kick-walk/offer/delay/1913", 0x32373ee266999dfbULL},
      {"kick-walk/offer/locality/1914", 0xd491f5752dd6b502ULL},
      {"kick-walk/offer/locality/1915", 0x4ea3f14c884cf8b2ULL},
      {"kick-walk/offer/fifo/1916", 0x0b9f25149330d0bbULL},
      {"kick-walk/offer/fifo/1917", 0xbb3837e283bbf03eULL},
      {"kick-walk-spec/offer/delay/1918", 0xc92c3b5cb484f708ULL},
      {"kick-walk-spec/offer/delay/1919", 0xdf8acd6915d85e9eULL},
      {"kick-walk-spec/offer/locality/1920", 0xcbe2ca8fdf6b6fbeULL},
      {"kick-walk-spec/offer/locality/1921", 0x5ebd9053ff62e7f0ULL},
      {"kick-walk-spec/offer/fifo/1922", 0x304ea6794493311aULL},
      {"kick-walk-spec/offer/fifo/1923", 0x346759706d60ade9ULL},
      {"steady-stragglers/custody/delay/2000", 0x2933d43f0678e1ddULL},
      {"steady-stragglers/custody/delay/2001", 0x217a4697e27adbffULL},
      {"steady-stragglers/custody/delay/2002", 0xbe3ccd0a36e02b10ULL},
      {"steady-stragglers/custody/delay/2003", 0x6029f6e614ab4f8dULL},
      {"steady-stragglers/custody/delay/2004", 0x3e8eeaa955e94ddfULL},
      {"steady-stragglers/custody/delay/2005", 0xb57786ab8335a374ULL},
      {"skip-trigger/custody/delay/1800", 0x83fef47c5335457dULL},
  };
  return kGolden;
}
// clang-format on

/// Runs every case, checks its digest against the table and returns the
/// results for the non-vacuity checks.
std::vector<ExperimentResult> ExpectGolden(const std::vector<Case>& cases) {
  std::vector<ExperimentResult> results;
  for (const Case& c : cases) {
    results.push_back(RunExperiment(c.config));
    const std::uint64_t actual = OutcomeDigest(results.back());
    const auto it = GoldenTable().find(c.name);
    if (it == GoldenTable().end()) {
      ADD_FAILURE() << "no golden digest for " << c.name << "; actual {\""
                    << c.name << "\", " << Hex(actual) << "},";
    } else if (it->second != actual) {
      ADD_FAILURE() << "golden digest mismatch for " << c.name << ": expected "
                    << Hex(it->second) << ", actual {\"" << c.name << "\", "
                    << Hex(actual) << "},";
    }
  }
  return results;
}

std::uint64_t Clones(const std::vector<ExperimentResult>& results) {
  std::uint64_t clones = 0;
  for (const ExperimentResult& r : results) clones += r.speculative_launches;
  return clones;
}

TEST(GoldenDigests, TableCoversExactlyTheGrid) {
  const std::vector<Case> all = AllCases();
  ASSERT_EQ(all.size(), 155u);
  std::set<std::string> names;
  for (const Case& c : all) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate case " << c.name;
  }
  for (const auto& [name, digest] : GoldenTable()) {
    EXPECT_EQ(names.count(name), 1u) << "stale golden entry " << name;
  }
  EXPECT_EQ(GoldenTable().size(), names.size());
}

TEST(GoldenDigests, CustodyAllKindsSeedsFrom100) {
  ExpectGolden(GridCells(ManagerKind::kCustody, 100));
}

TEST(GoldenDigests, CustodyAllKindsSeedsFrom1100) {
  ExpectGolden(GridCells(ManagerKind::kCustody, 1100));
}

TEST(GoldenDigests, StandaloneAllKindsSeedsFrom200) {
  ExpectGolden(GridCells(ManagerKind::kStandalone, 200));
}

TEST(GoldenDigests, StandaloneAllKindsSeedsFrom1200) {
  ExpectGolden(GridCells(ManagerKind::kStandalone, 1200));
}

TEST(GoldenDigests, PoolAllKindsSeedsFrom300) {
  ExpectGolden(GridCells(ManagerKind::kPool, 300));
}

TEST(GoldenDigests, PoolAllKindsSeedsFrom1300) {
  ExpectGolden(GridCells(ManagerKind::kPool, 1300));
}

TEST(GoldenDigests, OfferAllKindsSeedsFrom400) {
  ExpectGolden(GridCells(ManagerKind::kOffer, 400));
}

TEST(GoldenDigests, OfferAllKindsSeedsFrom1400) {
  ExpectGolden(GridCells(ManagerKind::kOffer, 1400));
}

TEST(GoldenDigests, CachedWorkloadSeedsFrom500) {
  ExpectGolden(CachedCases(500));
}

TEST(GoldenDigests, CachedWorkloadSeedsFrom1600) {
  ExpectGolden(CachedCases(1600));
}

TEST(GoldenDigests, FailuresAndSpeculationCustody) {
  ExpectGolden(FailureAndSpeculationCases({ManagerKind::kCustody}, 600, 604));
}

TEST(GoldenDigests, FailuresAndSpeculationCustodyAndPool) {
  ExpectGolden(FailureAndSpeculationCases(
      {ManagerKind::kCustody, ManagerKind::kPool}, 1500, 1503));
}

TEST(GoldenDigests, OfferCacheAndFailures) {
  ExpectGolden(OfferCacheAndFailureCases());
}

TEST(GoldenDigests, OfferCacheOnlyRegressionSeed) {
  ExpectGolden({OfferCacheOnlyCase()});
}

TEST(GoldenDigests, OfferFailuresOnlyRegressionSeed) {
  ExpectGolden({OfferFailuresOnlyCase()});
}

TEST(GoldenDigests, SteadyStateStream) { ExpectGolden(SteadyStreamCases()); }

TEST(GoldenDigests, StandaloneAndOfferKickWalk) {
  EXPECT_GT(Clones(ExpectGolden(KickWalkCases())), 0u);
}

TEST(GoldenDigests, SteadyStateStragglersCacheAndFailures) {
  EXPECT_GT(Clones(ExpectGolden(SteadyStragglerCases())), 0u);
}

// The Custody skip trigger must fire on a plain workload: between a job's
// last release and the next submission, rounds find every app at budget.
TEST(GoldenDigests, SkipTriggerFiresOnPlainWorkload) {
  const std::vector<ExperimentResult> results =
      ExpectGolden({SkipTriggerCase()});
  const cluster::ManagerStats& stats = results.front().manager_stats;
  EXPECT_GT(stats.rounds_skipped, 0u);
  EXPECT_GT(stats.allocation_rounds, stats.rounds_skipped);
}

}  // namespace
}  // namespace custody::workload
