#include "cluster/manager_factory.h"

#include <stdexcept>
#include <utility>

#include "cluster/custody_manager.h"
#include "cluster/offer_manager.h"
#include "cluster/pool_manager.h"
#include "cluster/standalone_manager.h"

namespace custody::cluster {

const char* ManagerName(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kStandalone:
      return "standalone";
    case ManagerKind::kCustody:
      return "custody";
    case ManagerKind::kOffer:
      return "offer";
    case ManagerKind::kPool:
      return "pool";
  }
  return "unknown";
}

std::unique_ptr<ClusterManager> MakeManager(const ManagerSpec& spec,
                                            sim::Simulator& sim,
                                            Cluster& cluster,
                                            core::BlockLocationsFn locations) {
  switch (spec.kind) {
    case ManagerKind::kStandalone: {
      StandaloneConfig mc;
      mc.expected_apps = spec.expected_apps;
      mc.seed = spec.standalone_seed;
      return std::make_unique<StandaloneManager>(sim, cluster, mc);
    }
    case ManagerKind::kCustody: {
      CustodyConfig mc;
      mc.expected_apps = spec.expected_apps;
      mc.options = spec.allocator;
      return std::make_unique<CustodyManager>(sim, cluster,
                                              std::move(locations), mc);
    }
    case ManagerKind::kOffer: {
      OfferConfig mc;
      mc.expected_apps = spec.expected_apps;
      return std::make_unique<OfferManager>(sim, cluster, mc);
    }
    case ManagerKind::kPool: {
      PoolConfig mc;
      mc.expected_apps = spec.expected_apps;
      mc.seed = spec.pool_seed;
      return std::make_unique<PoolManager>(sim, cluster, mc);
    }
  }
  throw std::invalid_argument("MakeManager: unknown ManagerKind");
}

}  // namespace custody::cluster
