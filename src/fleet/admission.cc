#include "fleet/admission.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::fleet {
namespace on = obs::names;

const char* to_string(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmitted:
      return "admitted";
    case AdmissionDecision::kQueued:
      return "queued";
    case AdmissionDecision::kRejected:
      return "rejected";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  AIC_CHECK_MSG(std::isfinite(config.capacity_bps) && config.capacity_bps > 0.0,
                "admission capacity must be positive, got "
                    << config.capacity_bps);
  AIC_CHECK_MSG(
      config.target_utilization > 0.0 && config.target_utilization <= 1.0,
      "target utilization must be in (0, 1], got "
          << config.target_utilization);
  AIC_CHECK_MSG(config.lambda_total > 0.0,
                "admission lambda must be positive, got "
                    << config.lambda_total);
  AIC_CHECK_MSG(config.min_interval_s > 0.0 &&
                    config.max_interval_s >= config.min_interval_s,
                "bad interval clamp [" << config.min_interval_s << ", "
                                       << config.max_interval_s << "]");
}

double AdmissionController::demand_bps(
    const workload::FleetJobSpec& job) const {
  return demand_bps(job, 1.0);
}

double AdmissionController::demand_bps(const workload::FleetJobSpec& job,
                                       double factor) const {
  const double delta_bytes = std::max(
      1.0, double(job.footprint_bytes) * job.dirty_fraction * factor);
  const double drain_s = delta_bytes / config_.capacity_bps;
  return delta_bytes / young_daly_interval(drain_s, config_.lambda_total,
                                           factor, config_.min_interval_s,
                                           config_.max_interval_s);
}

double AdmissionController::width_factor(std::uint64_t job_id) const {
  auto it = factors_.find(job_id);
  return it == factors_.end() ? 1.0 : it->second;
}

void AdmissionController::resize(const workload::FleetJobSpec& job,
                                 double factor) {
  AIC_CHECK_MSG(std::isfinite(factor) && factor > 0.0,
                "resize factor must be positive, got " << factor);
  const double previous = width_factor(job.job_id);
  admitted_demand_bps_ =
      std::max(0.0, admitted_demand_bps_ + demand_bps(job, factor) -
                        demand_bps(job, previous));
  if (factor == 1.0) {
    factors_.erase(job.job_id);
  } else {
    factors_[job.job_id] = factor;
  }
  update_gauges();
}

void AdmissionController::set_obs(obs::Hub* hub) {
  if (hub == nullptr) {
    g_demand_ = g_budget_ = g_queue_ = nullptr;
    return;
  }
  g_demand_ = hub->metrics.gauge(on::kFleetAdmissionDemandBps);
  g_budget_ = hub->metrics.gauge(on::kFleetAdmissionBudgetBps);
  g_queue_ = hub->metrics.gauge(on::kFleetAdmissionQueueDepth);
  update_gauges();
}

void AdmissionController::update_gauges() {
  if (g_demand_ == nullptr) return;
  g_demand_->set(admitted_demand_bps_);
  g_budget_->set(budget_bps());
  g_queue_->set(double(queue_.size()));
}

bool AdmissionController::fits(double demand) const {
  return admitted_demand_bps_ + demand <= budget_bps();
}

AdmissionDecision AdmissionController::offer(
    const workload::FleetJobSpec& job) {
  const double demand = demand_bps(job);
  // A job whose demand exceeds the whole budget can never be admitted;
  // queueing it would wedge the FIFO forever. Reject it outright.
  if (demand > budget_bps()) {
    ++rejected_total_;
    return AdmissionDecision::kRejected;
  }
  // Admission is strictly FIFO across the queue: a new offer may not jump
  // ahead of jobs already waiting.
  if (queue_.empty() && fits(demand)) {
    admitted_demand_bps_ += demand;
    ++admitted_total_;
    update_gauges();
    return AdmissionDecision::kAdmitted;
  }
  if (queue_.size() < config_.queue_capacity) {
    queue_.push_back(job);
    ++queued_total_;
    update_gauges();
    return AdmissionDecision::kQueued;
  }
  ++rejected_total_;
  return AdmissionDecision::kRejected;
}

void AdmissionController::release(const workload::FleetJobSpec& job) {
  const double factor = width_factor(job.job_id);
  factors_.erase(job.job_id);
  admitted_demand_bps_ =
      std::max(0.0, admitted_demand_bps_ - demand_bps(job, factor));
  update_gauges();
}

std::vector<workload::FleetJobSpec> AdmissionController::drain_queue() {
  std::vector<workload::FleetJobSpec> promoted;
  while (!queue_.empty()) {
    const double demand = demand_bps(queue_.front());
    if (!fits(demand)) break;
    admitted_demand_bps_ += demand;
    ++admitted_total_;
    promoted.push_back(queue_.front());
    queue_.pop_front();
  }
  if (!promoted.empty()) update_gauges();
  return promoted;
}

}  // namespace aic::fleet
