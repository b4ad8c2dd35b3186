// Tests for the heterogeneous node-speed knob: the cluster's per-node
// speeds, and the stragglers slow nodes make in a full experiment.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "workload/experiment.h"

namespace custody::workload {
namespace {

TEST(NodeSpeed, DefaultsToNominalAndValidates) {
  cluster::Cluster cluster(4, cluster::WorkerConfig{});
  EXPECT_DOUBLE_EQ(cluster.node_speed(NodeId(0)), 1.0);
  cluster.set_node_speed(NodeId(1), 0.25);
  EXPECT_DOUBLE_EQ(cluster.node_speed(NodeId(1)), 0.25);
  EXPECT_THROW(cluster.set_node_speed(NodeId(9), 1.0), std::out_of_range);
  EXPECT_THROW(cluster.set_node_speed(NodeId(1), 0.0), std::invalid_argument);
}

TEST(NodeSpeed, SlowNodesStretchCompletionTimes) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.manager = ManagerKind::kCustody;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  const auto uniform = RunExperiment(config);
  config.slow_node_fraction = 0.25;
  config.slow_node_factor = 5.0;
  const auto hetero = RunExperiment(config);
  EXPECT_EQ(hetero.jobs_completed, uniform.jobs_completed);
  EXPECT_GT(hetero.jct.max, uniform.jct.max);
}

TEST(NodeSpeed, SpeculationRecoversSomeOfTheStretch) {
  ExperimentConfig config;
  config.num_nodes = 20;
  config.manager = ManagerKind::kCustody;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 6;
  config.trace.files_per_kind = 4;
  config.slow_node_fraction = 0.2;
  config.slow_node_factor = 5.0;
  const auto plain = RunExperiment(config);
  config.speculation = true;
  const auto spec = RunExperiment(config);
  EXPECT_GT(spec.speculative_wins, 0);
  EXPECT_LT(spec.jct.max, plain.jct.max);
}

}  // namespace
}  // namespace custody::workload
