#include "discovery/adaptive.hpp"

#include <cmath>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace ndsm::discovery {

namespace {

constexpr double kEmaAlpha = 0.3;    // weight of the newest window
constexpr double kHysteresis = 1.25;  // switch only when the other mode is this much cheaper

}  // namespace

AdaptiveDiscovery::AdaptiveDiscovery(transport::ReliableTransport& transport,
                                     std::vector<NodeId> directories, AdaptiveConfig config,
                                     DensityEstimator density)
    : transport_(transport),
      config_(config),
      density_(std::move(density)),
      centralized_(transport, std::move(directories), MirrorPolicy::kRoundRobin),
      distributed_(transport, DistributedConfig{}),
      evaluator_(transport.router().stack(), config.evaluation_period,
                 [this] { evaluate_policy(); }) {
  if (!density_) {
    // Fallback density estimate: everything this node has heard of.
    density_ = [this] {
      return static_cast<double>(distributed_.cache_size() + registrations_.size() + 2);
    };
  }
  register_stats_metrics("adaptive", static_cast<std::int64_t>(transport.self().value()));
  metrics_.counter("discovery.adaptive.mode_switches", &switches_);
  metrics_.gauge("discovery.adaptive.mode", [this] {
    return mode_ == DiscoveryMode::kCentralized ? 0.0 : 1.0;
  });
  evaluator_.start();
}

AdaptiveDiscovery::~AdaptiveDiscovery() = default;

ServiceDiscovery& AdaptiveDiscovery::active() {
  return mode_ == DiscoveryMode::kCentralized ? static_cast<ServiceDiscovery&>(centralized_)
                                              : static_cast<ServiceDiscovery&>(distributed_);
}

ServiceId AdaptiveDiscovery::register_service(qos::SupplierQos qos, Time lease) {
  const ServiceId facade_id = make_service_id(transport_.self(), 0x80000000u | next_id_++);
  Registration reg;
  reg.qos = qos;
  reg.lease = lease;
  reg.sub_id = active().register_service(std::move(qos), lease);
  registrations_.emplace(facade_id, std::move(reg));
  stats_.registrations++;
  window_churn_++;
  return facade_id;
}

void AdaptiveDiscovery::unregister_service(ServiceId id) {
  const auto it = registrations_.find(id);
  if (it == registrations_.end()) return;
  active().unregister_service(it->second.sub_id);
  registrations_.erase(it);
  stats_.unregistrations++;
  window_churn_++;
}

void AdaptiveDiscovery::query(const qos::ConsumerQos& consumer, QueryCallback callback,
                              std::uint32_t max_results, Time timeout) {
  stats_.queries_issued++;
  window_queries_++;
  active().query(
      consumer,
      [this, callback = std::move(callback)](std::vector<ServiceRecord> records) {
        count_finished_query(records);
        callback(std::move(records));
      },
      max_results, timeout);
}

void AdaptiveDiscovery::evaluate_policy() {
  const double window_s = to_seconds(config_.evaluation_period);
  const double q_inst = static_cast<double>(window_queries_) / window_s;
  const double c_inst = static_cast<double>(window_churn_) / window_s;
  window_queries_ = 0;
  window_churn_ = 0;
  query_rate_ = kEmaAlpha * q_inst + (1 - kEmaAlpha) * query_rate_;
  churn_rate_ = kEmaAlpha * c_inst + (1 - kEmaAlpha) * churn_rate_;

  const double n = std::max(2.0, density_());
  const double est_path = std::sqrt(n);
  const double cost_centralized = (2.0 * query_rate_ + churn_rate_) * est_path;
  const double cost_distributed = query_rate_ * n;

  if (mode_ == DiscoveryMode::kDistributed &&
      cost_centralized * kHysteresis < cost_distributed) {
    switch_mode(DiscoveryMode::kCentralized);
  } else if (mode_ == DiscoveryMode::kCentralized &&
             cost_distributed * kHysteresis < cost_centralized) {
    switch_mode(DiscoveryMode::kDistributed);
  }
}

void AdaptiveDiscovery::switch_mode(DiscoveryMode to) {
  if (to == mode_) return;
  NDSM_INFO("discovery", "adaptive mode switch -> "
                             << (to == DiscoveryMode::kCentralized ? "centralized"
                                                                   : "distributed"));
  // Move every active registration to the new mechanism.
  for (auto& [facade_id, reg] : registrations_) {
    active().unregister_service(reg.sub_id);
  }
  mode_ = to;
  switches_++;
  obs::Tracer::instance().event(
      "discovery.adaptive", "mode_switch", static_cast<std::int64_t>(transport_.self().value()),
      {{"to", to == DiscoveryMode::kCentralized ? "centralized" : "distributed"},
       {"query_rate", std::to_string(query_rate_)},
       {"churn_rate", std::to_string(churn_rate_)}});
  for (auto& [facade_id, reg] : registrations_) {
    reg.sub_id = active().register_service(reg.qos, reg.lease);
  }
}

}  // namespace ndsm::discovery
