#include "cluster/custody_manager.h"

#include <cassert>
#include <chrono>
#include <stdexcept>

#include "common/log.h"
#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::cluster {

CustodyManager::CustodyManager(sim::Simulator& sim, Cluster& cluster,
                               core::BlockLocationsFn locations,
                               CustodyConfig config)
    : ClusterManager(sim, cluster),
      locations_(std::move(locations)),
      config_(config) {
  if (config_.expected_apps <= 0) {
    throw std::invalid_argument("CustodyManager: expected_apps must be > 0");
  }
  if (!locations_) {
    throw std::invalid_argument("CustodyManager: locations callback required");
  }
  share_ = static_cast<int>(cluster_.num_executors()) / config_.expected_apps;
  if (share_ == 0) share_ = 1;
}

void CustodyManager::register_app(AppHandle& app) {
  app.set_share(share_);
  if (!apps_by_id_.emplace(app.id(), &app).second) {
    throw std::invalid_argument("CustodyManager: duplicate app id");
  }
  apps_.push_back(&app);
  // No executors yet: Custody waits for job submissions so the allocation
  // can see the input data (the core idea of the paper).
}

void CustodyManager::on_demand_changed(AppHandle& /*app*/) {
  schedule_reallocation();
}

void CustodyManager::SaveTo(snap::SnapshotWriter& w) const {
  if (round_pending_) {
    throw snap::SnapshotError(
        "CustodyManager: allocation round pending at snapshot; rounds are "
        "zero-delay posts and must drain before a between-events boundary");
  }
  ClusterManager::SaveTo(w);
}

void CustodyManager::RestoreFrom(snap::SnapshotReader& r) {
  ClusterManager::RestoreFrom(r);
  round_pending_ = false;
}

void CustodyManager::release_executor(ExecutorId exec) {
  ClusterManager::release_executor(exec);
  schedule_reallocation();
}

void CustodyManager::schedule_reallocation() {
  if (round_pending_) return;
  round_pending_ = true;
  sim_.post(0.0, [this] {
    round_pending_ = false;
    reallocate_now();
  });
}

bool CustodyManager::any_app_below_budget() const {
  for (const AppHandle* app : apps_) {
    if (effective_budget(*app, share_) > cluster_.owned_by(app->id())) {
      return true;
    }
  }
  return false;
}

void CustodyManager::reallocate_now() {
  const std::size_t idle_count = cluster_.idle_count();
  if (idle_count == 0) return;
  ++stats_.allocation_rounds;

  if (!any_app_below_budget()) {
    // Incremental round trigger: every app already holds its demand-capped
    // budget, so the allocator would grant nothing (phase 2 backfills any
    // below-budget app from a non-empty pool, so zero grants implies this
    // condition — and conversely: asserted below, and what
    // round_yield_fraction() rests on).  Count the round, skip building the
    // demands.  The round event itself was still posted and consumed, so
    // the event sequence is the same as if the allocator had run.
    ++stats_.rounds_skipped;
    time_round(idle_count, /*grants=*/0, /*wall=*/0.0);
    return;
  }

  std::vector<core::AppDemand> demands;
  demands.reserve(apps_.size());
  for (AppHandle* app : apps_) {
    core::AppDemand demand;
    demand.app = app->id();
    demand.held = cluster_.owned_by(app->id());
    demand.budget = effective_budget(*app, share_);
    demand.jobs = app->pending_demand();
    demand.locality = app->locality();
    demands.push_back(std::move(demand));
  }

  const auto round_start = std::chrono::steady_clock::now();
  const auto result = core::CustodyAllocator::AllocateOnIndex(
      demands, cluster_.idle_index(), locations_, config_.options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    round_start)
          .count();
  assert(!result.assignments.empty() &&
         "a round that runs the allocator grants (see the skip above)");

  stats_.allocation_wall_seconds += wall;
  stats_.executors_scanned += result.stats.executors_scanned;
  stats_.apps_considered += result.stats.apps_considered;
  stats_.demand_apps += result.stats.demand_apps;
  stats_.demanded_tasks += result.stats.demanded_tasks;
  stats_.demands_saturated += result.stats.demands_saturated;
  time_round(idle_count, result.assignments.size(), wall);

  for (const core::Assignment& assignment : result.assignments) {
    AppHandle* app = apps_by_id_.at(assignment.app);
    LOG_DEBUG << "custody: grant executor " << assignment.exec << " to app "
              << assignment.app;
    grant(*app, assignment.exec);
  }
}

void CustodyManager::time_round(std::size_t idle_count, std::size_t grants,
                                double wall) {
  round_wall_.add(wall);
  if (tracer_ != nullptr) {
    tracer_->instant({.value = wall,
                      .id = static_cast<std::int32_t>(idle_count),
                      .aux = static_cast<std::int32_t>(grants),
                      .kind = obs::EventKind::kAllocRound});
  }
}

Summary CustodyManager::round_wall() const {
  Summary summary = round_wall_.summarize();
  summary.count = stats_.allocation_rounds;
  return summary;
}

double CustodyManager::round_yield_fraction() const {
  const std::uint64_t rounds = stats_.allocation_rounds;
  return rounds == 0 ? 0.0
                     : static_cast<double>(rounds - stats_.rounds_skipped) /
                           static_cast<double>(rounds);
}

}  // namespace custody::cluster
