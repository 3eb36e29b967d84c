#pragma once
// Service records: what a registry stores per advertised service (§3.3).
// Records carry a lease (`expires`) so departed suppliers age out — the
// plug-and-play requirement that the system "adapt as the environment
// changes".

#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "qos/spec.hpp"
#include "serialize/codec.hpp"

namespace ndsm::discovery {

struct ServiceRecord {
  ServiceId id;
  NodeId provider;
  qos::SupplierQos qos;
  Time registered = 0;
  Time expires = kTimeNever;

  [[nodiscard]] bool expired(Time now) const { return expires != kTimeNever && now > expires; }

  void encode(serialize::Writer& w) const;
  static std::optional<ServiceRecord> decode(serialize::Reader& r);
};

void encode_records(serialize::Writer& w, const std::vector<ServiceRecord>& records);
std::optional<std::vector<ServiceRecord>> decode_records(serialize::Reader& r);

// The records among `candidates` that `consumer` can use (qos::Matcher),
// best first: score descending, then id ascending, at most `max_results`.
// The order is total, so the result does not depend on candidate order.
// Callers choose the candidates (lease, cache-age and refresh rules).
[[nodiscard]] std::vector<ServiceRecord> best_matches(
    const qos::ConsumerQos& consumer, const std::vector<const ServiceRecord*>& candidates,
    std::uint32_t max_results);

}  // namespace ndsm::discovery
