#pragma once
// Common interface implemented by every service-discovery mode (§3.3):
// centralized directory, fully distributed query flooding, and the
// adaptive hybrid that switches between them based on network density and
// traffic.

#include <functional>
#include <vector>

#include "discovery/record.hpp"
#include "obs/metrics.hpp"
#include "qos/spec.hpp"

namespace ndsm::discovery {

struct DiscoveryStats {
  std::uint64_t registrations = 0;
  std::uint64_t unregistrations = 0;
  std::uint64_t queries_issued = 0;
  std::uint64_t queries_answered = 0;  // returned >= 1 record
  std::uint64_t queries_empty = 0;     // timed out with no records
  std::uint64_t records_received = 0;
};

class ServiceDiscovery {
 public:
  // Called exactly once per query with the matched records, best first
  // (empty if nothing matched before the timeout).
  using QueryCallback = std::function<void(std::vector<ServiceRecord>)>;

  virtual ~ServiceDiscovery() = default;

  // Advertise a service. The returned ServiceId is immediately usable for
  // unregistration; propagation to registries is asynchronous. The lease
  // is renewed automatically until unregistered.
  virtual ServiceId register_service(qos::SupplierQos qos,
                                     Time lease = duration::seconds(60)) = 0;
  virtual void unregister_service(ServiceId id) = 0;

  virtual void query(const qos::ConsumerQos& consumer, QueryCallback callback,
                     std::uint32_t max_results = 8,
                     Time timeout = duration::seconds(2)) = 0;

  [[nodiscard]] const DiscoveryStats& stats() const { return stats_; }

 protected:
  // Each concrete mode calls this from its constructor to publish the
  // shared stats under `discovery.<mode>.*` with its own node label.
  void register_stats_metrics(const std::string& mode, std::int64_t node) {
    const std::string prefix = "discovery." + mode;
    metrics_.set_labels(prefix, node);
    metrics_.counter(prefix + ".registrations", &stats_.registrations);
    metrics_.counter(prefix + ".unregistrations", &stats_.unregistrations);
    metrics_.counter(prefix + ".queries_issued", &stats_.queries_issued);
    metrics_.counter(prefix + ".queries_answered", &stats_.queries_answered);
    metrics_.counter(prefix + ".queries_empty", &stats_.queries_empty);
    metrics_.counter(prefix + ".records_received", &stats_.records_received);
  }

  // Counts a finished query as answered or empty, and the records it got.
  void count_finished_query(const std::vector<ServiceRecord>& records) {
    if (records.empty()) {
      stats_.queries_empty++;
    } else {
      stats_.queries_answered++;
    }
    stats_.records_received += records.size();
  }

  DiscoveryStats stats_;
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::discovery
