#include "cluster/cluster_controller.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/virtual_clock.h"

namespace idea::cluster {

Cluster::Cluster(ClusterConfig config) : config_(config), cost_model_(config.costs) {
  for (size_t i = 0; i < config_.nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeController>(i, config_.memgov));
    membership_.AddNode();
  }
  health_ = std::make_unique<HealthMonitor>(&membership_, config_.health);
  cc_scheduler_ = std::make_unique<runtime::TaskScheduler>("cc");
  host_pool_ = std::make_unique<runtime::TaskScheduler>(
      "host", std::max<size_t>(1, config_.host_workers));
}

Cluster::~Cluster() {
  // Stop order: coordination loops first (they fan work out to the nodes),
  // then the per-node pools (NodeController destructors), then the capped
  // host pool.
  cc_scheduler_->Stop();
  nodes_.clear();
  host_pool_->Stop();
}

size_t Cluster::AddNode() {
  std::unique_lock<std::shared_mutex> lock(nodes_mu_);
  const size_t index = nodes_.size();
  nodes_.push_back(std::make_unique<NodeController>(index, config_.memgov));
  membership_.AddNode();
  return index;
}

Status Cluster::DrainNode(size_t node) {
  return membership_.SetState(node, NodeState::kDraining);
}

Status Cluster::FailNode(size_t node) {
  return membership_.SetState(node, NodeState::kDead);
}

Status Cluster::CheckAlive(size_t node) {
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    if (node >= nodes_.size()) {
      return Status::Unavailable("node " + std::to_string(node) + " does not exist");
    }
  }
  if (membership_.IsDead(node)) {
    return Status::Unavailable("node-" + std::to_string(node) + " is dead");
  }
  Status kill = IDEA_FAULT_HIT_KEYED("node.kill", this->node(node).id());
  if (!kill.ok()) {
    (void)FailNode(node);  // every later probe from any thread agrees
    return Status::Unavailable("node-" + std::to_string(node) + " killed: " +
                               kill.ToString());
  }
  return Status::OK();
}

std::vector<size_t> Cluster::PumpHealth(uint64_t advance_us) {
  const size_t n = node_count();
  for (size_t i = 0; i < n; ++i) {
    if (membership_.IsDead(i)) continue;
    health_->Heartbeat(i, node(i).id());
  }
  return health_->Tick(advance_us);
}

std::string Cluster::MemgovJson() const {
  std::shared_lock<std::shared_mutex> lock(nodes_mu_);
  std::string out = "{\"nodes\":[";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const runtime::MemoryGovernorStats s = nodes_[i]->memgov().Stats();
    if (i > 0) out += ",";
    out += "{\"id\":\"" + nodes_[i]->id() + "\"";
    out += ",\"state\":\"" + std::string(NodeStateName(membership_.state(i))) + "\"";
    out += ",\"budget_bytes\":" + std::to_string(s.budget_bytes);
    out += ",\"used_bytes\":" + std::to_string(s.used_bytes);
    out += ",\"used_high_watermark\":" + std::to_string(s.used_high_watermark);
    out += ",\"admitted\":" + std::to_string(s.admitted);
    out += ",\"delayed\":" + std::to_string(s.delayed);
    out += ",\"spills\":" + std::to_string(s.spills);
    out += "}";
  }
  out += "],\"epoch\":" + std::to_string(membership_.epoch()) + "}";
  return out;
}

runtime::SchedulerStats Cluster::SchedulerStatsSummary() const {
  runtime::SchedulerStats total;
  auto fold = [&](const runtime::SchedulerStats& s) {
    total.tasks_run += s.tasks_run;
    total.tasks_failed += s.tasks_failed;
    total.workers += s.workers;
    total.queue_depth += s.queue_depth;
    total.queue_depth_high_watermark =
        std::max(total.queue_depth_high_watermark, s.queue_depth_high_watermark);
    total.queue_wait_p95_us = std::max(total.queue_wait_p95_us, s.queue_wait_p95_us);
    total.task_run_p95_us = std::max(total.task_run_p95_us, s.task_run_p95_us);
  };
  {
    std::shared_lock<std::shared_mutex> lock(nodes_mu_);
    for (const auto& node : nodes_) fold(node->scheduler().Stats());
  }
  fold(cc_scheduler_->Stats());
  return total;
}

std::vector<double> Cluster::MeasureNodeTasks(
    const std::vector<std::function<void()>>& per_node_work) const {
  std::vector<double> cpu_micros(per_node_work.size(), 0);
  runtime::TaskGroup group;
  for (size_t i = 0; i < per_node_work.size(); ++i) {
    Status st = group.Launch(host_pool_.get(), [&, i]() -> Status {
      ThreadCpuTimer timer;
      timer.Start();
      per_node_work[i]();
      cpu_micros[i] = cost_model_.ScaleCpu(timer.ElapsedMicros());
      return Status::OK();
    });
    if (!st.ok()) break;  // stopping: remaining entries stay 0
  }
  (void)group.Wait();
  return cpu_micros;
}

double Cluster::ParallelStepMicros(
    const std::vector<std::function<void()>>& per_node_work) const {
  std::vector<double> cpu = MeasureNodeTasks(per_node_work);
  double makespan = 0;
  for (double c : cpu) makespan = std::max(makespan, c);
  return makespan;
}

}  // namespace idea::cluster
