#pragma once
// Service records: what a registry stores per advertised service (§3.3).
// Records carry a lease (`expires`) so departed suppliers age out — the
// plug-and-play requirement that the system "adapt as the environment
// changes".

#include <map>
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
// RecordTable::match chooses the candidates.
[[nodiscard]] std::vector<ServiceRecord> best_matches(
    const qos::ConsumerQos& consumer, const std::vector<const ServiceRecord*>& candidates,
    std::uint32_t max_results);

// Globally-unique service ids minted client-side: provider node id in the
// high 32 bits, local counter in the low 32.
[[nodiscard]] inline ServiceId make_service_id(NodeId provider, std::uint32_t counter) {
  return ServiceId{(provider.value() << 32) | counter};
}

// The service records one node holds, under one set of rules for every
// discovery mode and the directory (DESIGN §3, "Discovery records"):
// - Own records are the services `self` registered, each with its lease.
//   One is live for as long as it is registered, because leases renew
//   automatically. Renewing sets `expires` to now + lease; re-dating also
//   sets `registered` to now.
// - Copies are other nodes' records. An arrival that has already expired
//   is dropped; otherwise it replaces the held copy unless that one is
//   dated later. An equal date is a renewal and replaces it.
// - A copy is evicted when its lease lapses or when it was dated more
//   than `max_age` ago.
// Both sets iterate in id order, which is wire order wherever they are
// serialized, and every match is in best_matches order.
class RecordTable {
 public:
  // kTimeNever: copies have no age limit, only their leases.
  explicit RecordTable(NodeId self, Time max_age = kTimeNever)
      : self_(self), max_age_(max_age) {}

  // Registers an own record under `self`'s next id.
  ServiceId add_own(qos::SupplierQos qos, Time lease, Time now);
  bool remove_own(ServiceId id);
  // Renews one own record; nullptr if it is not registered.
  const ServiceRecord* renew(ServiceId id, Time now);
  // Renews and re-dates every own record.
  void redate_own(Time now);

  // Applies the keep rule; true if the table now holds `record`.
  bool keep(ServiceRecord record, Time now);
  // The copy removed, if one was held.
  std::optional<ServiceRecord> remove_copy(ServiceId id);
  // Evicts lapsed and aged copies and returns how many went.
  std::size_t evict(Time now);

  // Own records (renewed, not re-dated) and, unless `own_only`, the live
  // copies that `consumer` can use, best first.
  [[nodiscard]] std::vector<ServiceRecord> match(const qos::ConsumerQos& consumer,
                                                 std::uint32_t max_results, Time now,
                                                 bool own_only = false);
  // Own records, then copies unless `own_only`, each in id order.
  [[nodiscard]] std::vector<ServiceRecord> records(bool own_only = false) const;

  [[nodiscard]] std::size_t own_count() const { return own_.size(); }
  [[nodiscard]] std::size_t copy_count() const { return copies_.size(); }

 private:
  struct Own {
    ServiceRecord record;
    Time lease = kTimeNever;
  };

  [[nodiscard]] bool live(const ServiceRecord& copy, Time now) const;

  NodeId self_;
  Time max_age_;
  std::uint32_t next_own_ = 1;
  std::map<ServiceId, Own> own_;
  std::map<ServiceId, ServiceRecord> copies_;
};

}  // namespace ndsm::discovery
