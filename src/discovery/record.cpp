#include "discovery/record.hpp"

#include <algorithm>
#include <utility>

#include "qos/matcher.hpp"

namespace ndsm::discovery {

void ServiceRecord::encode(serialize::Writer& w) const {
  w.id(id);
  w.id(provider);
  qos.encode(w);
  w.svarint(registered);
  w.svarint(expires);
}

std::optional<ServiceRecord> ServiceRecord::decode(serialize::Reader& r) {
  ServiceRecord rec;
  const auto id = r.id<ServiceId>();
  const auto provider = r.id<NodeId>();
  if (!id || !provider) return std::nullopt;
  auto qos = qos::SupplierQos::decode(r);
  if (!qos) return std::nullopt;
  const auto registered = r.svarint();
  const auto expires = r.svarint();
  if (!registered || !expires) return std::nullopt;
  rec.id = *id;
  rec.provider = *provider;
  rec.qos = std::move(*qos);
  rec.registered = *registered;
  rec.expires = *expires;
  return rec;
}

void encode_records(serialize::Writer& w, const std::vector<ServiceRecord>& records) {
  w.varint(records.size());
  for (const auto& rec : records) rec.encode(w);
}

std::optional<std::vector<ServiceRecord>> decode_records(serialize::Reader& r) {
  // A record encodes to well over one byte, so remaining() bounds any
  // honest count. Without this clamp a hostile count prefix (2^60) would
  // hit reserve() and allocate unbounded memory before the first record
  // decode could fail.
  const auto n = r.varint();
  if (!n || *n > r.remaining()) return std::nullopt;
  std::vector<ServiceRecord> out;
  out.reserve(static_cast<std::size_t>(*n));
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto rec = ServiceRecord::decode(r);
    if (!rec) return std::nullopt;
    out.push_back(std::move(*rec));
  }
  return out;
}

std::vector<ServiceRecord> best_matches(const qos::ConsumerQos& consumer,
                                        const std::vector<const ServiceRecord*>& candidates,
                                        std::uint32_t max_results) {
  std::vector<std::pair<double, const ServiceRecord*>> scored;
  for (const ServiceRecord* rec : candidates) {
    const auto eval = qos::Matcher::evaluate(consumer, rec->qos);
    if (eval.feasible) scored.emplace_back(eval.score, rec);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second->id < b.second->id;
  });
  std::vector<ServiceRecord> out;
  for (const auto& [score, rec] : scored) {
    if (out.size() >= max_results) break;
    out.push_back(*rec);
  }
  return out;
}

namespace {

Time lease_expiry(Time lease, Time now) { return lease == kTimeNever ? kTimeNever : now + lease; }

}  // namespace

ServiceId RecordTable::add_own(qos::SupplierQos qos, Time lease, Time now) {
  const ServiceId id = make_service_id(self_, next_own_++);
  Own own;
  own.record.id = id;
  own.record.provider = self_;
  own.record.qos = std::move(qos);
  own.record.registered = now;
  own.record.expires = lease_expiry(lease, now);
  own.lease = lease;
  own_.emplace(id, std::move(own));
  return id;
}

bool RecordTable::remove_own(ServiceId id) { return own_.erase(id) > 0; }

const ServiceRecord* RecordTable::renew(ServiceId id, Time now) {
  const auto it = own_.find(id);
  if (it == own_.end()) return nullptr;
  it->second.record.expires = lease_expiry(it->second.lease, now);
  return &it->second.record;
}

void RecordTable::redate_own(Time now) {
  for (auto& [id, own] : own_) {
    own.record.registered = now;
    own.record.expires = lease_expiry(own.lease, now);
  }
}

bool RecordTable::keep(ServiceRecord record, Time now) {
  if (record.expired(now)) return false;
  const auto [it, inserted] = copies_.try_emplace(record.id);
  if (!inserted && it->second.registered > record.registered) return false;  // dated later
  it->second = std::move(record);
  return true;
}

std::optional<ServiceRecord> RecordTable::remove_copy(ServiceId id) {
  auto node = copies_.extract(id);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

std::size_t RecordTable::evict(Time now) {
  return std::erase_if(copies_, [&](const auto& entry) { return !live(entry.second, now); });
}

bool RecordTable::live(const ServiceRecord& copy, Time now) const {
  return !copy.expired(now) && (max_age_ == kTimeNever || copy.registered >= now - max_age_);
}

std::vector<ServiceRecord> RecordTable::match(const qos::ConsumerQos& consumer,
                                              std::uint32_t max_results, Time now,
                                              bool own_only) {
  std::vector<const ServiceRecord*> candidates;
  for (auto& [id, own] : own_) {
    own.record.expires = lease_expiry(own.lease, now);
    candidates.push_back(&own.record);
  }
  if (!own_only) {
    for (const auto& [id, copy] : copies_) {
      if (live(copy, now)) candidates.push_back(&copy);
    }
  }
  return best_matches(consumer, candidates, max_results);
}

std::vector<ServiceRecord> RecordTable::records(bool own_only) const {
  std::vector<ServiceRecord> out;
  out.reserve(own_.size() + (own_only ? 0 : copies_.size()));
  for (const auto& [id, own] : own_) out.push_back(own.record);
  if (!own_only) {
    for (const auto& [id, copy] : copies_) out.push_back(copy);
  }
  return out;
}

}  // namespace ndsm::discovery
