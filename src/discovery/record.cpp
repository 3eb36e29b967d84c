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

}  // namespace ndsm::discovery
