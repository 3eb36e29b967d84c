#pragma once
// Adaptive discovery (§3.3): "Yet another approach is to allow the service
// discovery approach to adapt to the current environment, selecting a
// centralized or distributed approach based on some aspects of the network
// itself such as density or traffic."
//
// The facade tracks local query and registration-churn rates (exponential
// moving averages) and an estimated network density, then compares the
// modelled message cost of each mode:
//
//   cost_centralized ≈ (2*query_rate + churn_rate) * est_path_len
//   cost_distributed ≈ query_rate * density          (flooded queries)
//
// and switches (with hysteresis) to the cheaper mode, re-registering all
// active services through the newly selected mechanism.

#include <functional>
#include <memory>
#include <map>

#include "discovery/centralized.hpp"
#include "discovery/distributed.hpp"

namespace ndsm::discovery {

struct AdaptiveConfig {
  Time evaluation_period = duration::seconds(5);
};

enum class DiscoveryMode { kCentralized, kDistributed };

class AdaptiveDiscovery : public ServiceDiscovery {
 public:
  using DensityEstimator = std::function<double()>;

  AdaptiveDiscovery(transport::ReliableTransport& transport, std::vector<NodeId> directories,
                    AdaptiveConfig config = {}, DensityEstimator density = nullptr);
  ~AdaptiveDiscovery() override;

  ServiceId register_service(qos::SupplierQos qos, Time lease) override;
  void unregister_service(ServiceId id) override;
  void query(const qos::ConsumerQos& consumer, QueryCallback callback,
             std::uint32_t max_results, Time timeout) override;

  [[nodiscard]] DiscoveryMode mode() const { return mode_; }
  [[nodiscard]] std::uint64_t mode_switches() const { return switches_; }
  [[nodiscard]] double query_rate_per_s() const { return query_rate_; }

  // Force an immediate policy evaluation (normally timer-driven).
  void evaluate_policy();

 private:
  struct Registration {
    qos::SupplierQos qos;
    Time lease;
    ServiceId sub_id;  // id inside the currently active sub-client
  };

  [[nodiscard]] ServiceDiscovery& active();
  void switch_mode(DiscoveryMode to);

  transport::ReliableTransport& transport_;
  AdaptiveConfig config_;
  DensityEstimator density_;
  CentralizedDiscovery centralized_;
  DistributedDiscovery distributed_;
  DiscoveryMode mode_ = DiscoveryMode::kDistributed;
  std::uint64_t switches_ = 0;
  std::uint32_t next_id_ = 1;
  // Ordered: switch_mode() re-registers every entry with the new
  // mechanism, and the registration order decides the sub-ids it hands
  // out and the order registration messages hit the network.
  std::map<ServiceId, Registration> registrations_;

  // Traffic observation.
  std::uint64_t window_queries_ = 0;
  std::uint64_t window_churn_ = 0;
  double query_rate_ = 0.0;
  double churn_rate_ = 0.0;
  net::PeriodicTimer evaluator_;
};

}  // namespace ndsm::discovery
