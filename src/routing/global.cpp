#include "routing/global.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace ndsm::routing {

GlobalRoutingTable::GlobalRoutingTable(net::World& world, Metric metric,
                                       std::size_t reference_payload_bytes,
                                       Time refresh_interval)
    : world_(world),
      metric_(metric),
      reference_payload_(reference_payload_bytes),
      refresh_interval_(refresh_interval) {
  metrics_.set_labels("routing.global");
  metrics_.counter("routing.global.recomputations", &recomputations_);
  metrics_.counter("routing.global.invalidations", &invalidations_);
}

double GlobalRoutingTable::link_cost(NodeId a, NodeId b) const {
  switch (metric_) {
    case Metric::kHopCount:
      return 1.0;
    case Metric::kEnergyAware: {
      const double tx = world_.link_tx_cost(a, b, reference_payload_);
      const double residual = std::max(world_.battery(a).fraction(), 0.02);
      // Wired (zero-energy) links still need a small positive cost so
      // Dijkstra terminates with hop-bounded paths.
      return (tx + 1e-12) / residual;
    }
  }
  return 1.0;
}

GlobalRoutingTable::SourceRoutes& GlobalRoutingTable::routes_for(NodeId from) {
  auto& entry = cache_[from];
  const Time now = world_.sim().now();
  if (entry.computed_at >= 0 && now - entry.computed_at < refresh_interval_) return entry;

  entry.computed_at = now;
  entry.next_hop.clear();
  entry.cost.clear();
  recomputations_++;

  if (!world_.alive(from)) return entry;

  // Dijkstra from `from` over alive nodes.
  using QueueEntry = std::pair<double, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  std::unordered_map<NodeId, double> dist;
  std::unordered_map<NodeId, NodeId> first_hop;

  dist[from] = 0.0;
  queue.emplace(0.0, from);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    const auto du = dist.find(u);
    if (du == dist.end() || d > du->second) continue;
    for (const NodeId v : world_.neighbors(u)) {
      const double cost = link_cost(u, v);
      const double nd = d + cost;
      const auto dv = dist.find(v);
      if (dv == dist.end() || nd < dv->second) {
        dist[v] = nd;
        first_hop[v] = (u == from) ? v : first_hop[u];
        queue.emplace(nd, v);
      }
    }
  }
  entry.cost = std::move(dist);
  entry.next_hop = std::move(first_hop);
  return entry;
}

NodeId GlobalRoutingTable::next_hop(NodeId from, NodeId to) {
  const auto& routes = routes_for(from);
  const auto it = routes.next_hop.find(to);
  return it == routes.next_hop.end() ? NodeId::invalid() : it->second;
}

double GlobalRoutingTable::path_cost(NodeId from, NodeId to) {
  const auto& routes = routes_for(from);
  const auto it = routes.cost.find(to);
  return it == routes.cost.end() ? std::numeric_limits<double>::infinity() : it->second;
}

bool GlobalRoutingTable::reachable(NodeId from, NodeId to) {
  return from == to || next_hop(from, to).valid();
}

void GlobalRoutingTable::invalidate() {
  invalidations_++;
  cache_.clear();
}

GlobalRouter::GlobalRouter(net::Stack& stack, std::shared_ptr<GlobalRoutingTable> table)
    : Router(stack), table_(std::move(table)) {
  stack_.set_frame_handler(Proto::kRouting,
                           [this](const net::LinkFrame& f) { on_frame(f); });
}

GlobalRouter::~GlobalRouter() { stack_.clear_frame_handler(Proto::kRouting); }

NodeId GlobalRouter::retry_hop(NodeId dst) {
  table_->invalidate();
  return table_->next_hop(self_, dst);
}

}  // namespace ndsm::routing
