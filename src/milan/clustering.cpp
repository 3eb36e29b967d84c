#include "milan/clustering.hpp"

#include <algorithm>
#include <limits>

#include "serialize/codec.hpp"

namespace ndsm::milan {

namespace {

constexpr std::size_t kAggregateBytes = 64;  // head -> sink payload

}  // namespace

ClusterManager::ClusterManager(net::World& world, NodeId sink, std::vector<NodeId> members,
                               RouterOf router_of, ClusterConfig config)
    : world_(world),
      sink_(sink),
      members_(std::move(members)),
      router_of_(std::move(router_of)),
      config_(config),
      round_timer_(world.sim(), config.round_length, [this] { elect(); }),
      frame_timer_(world.sim(), kClusterFrameLength, [this] { flush_heads(); }) {}

ClusterManager::~ClusterManager() { stop(); }

void ClusterManager::start() {
  if (running_) return;
  running_ = true;
  // React to member/head deaths immediately (chained so other listeners
  // keep working).
  chained_death_ = world_.death_handler();
  world_.set_death_handler([this](NodeId node) {
    if (chained_death_) chained_death_(node);
    // Defer the re-election: deaths can occur *inside* flush_heads() (a
    // head's battery dies on its own transmit), and elect() mutates the
    // structures flush is iterating.
    if (running_ && is_head(node)) {
      world_.sim().schedule_after(0, [this] {
        if (running_) elect();
      });
    }
  });
  elect();
  round_timer_.start();
  frame_timer_.start();
}

void ClusterManager::stop() {
  if (!running_) return;
  running_ = false;
  round_timer_.stop();
  frame_timer_.stop();
}

void ClusterManager::elect() {
  // Flush any buffered samples under the outgoing head set first.
  flush_heads();

  // Candidates: alive members, ranked by residual battery fraction
  // (deterministic LEACH variant — the stochastic threshold of the
  // original is unnecessary under a global view).
  std::vector<NodeId> alive;
  for (const NodeId m : members_) {
    if (world_.alive(m)) alive.push_back(m);
  }
  std::stable_sort(alive.begin(), alive.end(), [&](NodeId a, NodeId b) {
    return world_.battery(a).fraction() > world_.battery(b).fraction();
  });
  heads_.assign(alive.begin(),
                alive.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(config_.cluster_count, alive.size())));
  std::sort(heads_.begin(), heads_.end());
  stats_.head_terms += heads_.size();
  stats_.rounds++;

  // Nearest-head assignment.
  assignment_.clear();
  buffers_.clear();
  for (const NodeId head : heads_) buffers_[head] = 0;
  for (const NodeId m : alive) {
    NodeId best = NodeId::invalid();
    double best_d = std::numeric_limits<double>::infinity();
    for (const NodeId head : heads_) {
      const double d = distance(world_.position(m), world_.position(head));
      if (d < best_d) {
        best_d = d;
        best = head;
      }
    }
    if (best.valid()) assignment_[m] = best;
  }
}

NodeId ClusterManager::head_of(NodeId member) const {
  const auto it = assignment_.find(member);
  return it == assignment_.end() ? NodeId::invalid() : it->second;
}

bool ClusterManager::is_head(NodeId node) const {
  return std::find(heads_.begin(), heads_.end(), node) != heads_.end();
}

void ClusterManager::submit_sample(NodeId member) {
  if (!running_ || !world_.alive(member)) return;
  NodeId head = head_of(member);
  if (!head.valid() || !world_.alive(head)) {
    // Head died mid-round: re-elect and retry once.
    elect();
    head = head_of(member);
    if (!head.valid()) return;
  }
  if (head == member) {
    buffers_[head]++;
    stats_.samples_in++;
    return;
  }
  // One radio hop member -> head (charged by the link layer).
  const Status sent =
      world_.link_send(member, head, net::Proto::kApp, Bytes(config_.sample_bytes, 0xc1));
  if (sent.is_ok()) {
    buffers_[head]++;
    stats_.samples_in++;
  }
}

void ClusterManager::flush_heads() {
  // Snapshot first: sending can kill a head, whose death handler re-elects
  // and rebuilds buffers_ beneath a live iterator.
  std::vector<NodeId> to_flush;
  for (auto& [head, samples] : buffers_) {
    if (samples > 0) {
      samples = 0;
      to_flush.push_back(head);
    }
  }
  for (const NodeId head : to_flush) {
    if (!world_.alive(head)) continue;
    routing::Router* router = router_of_(head);
    if (router == nullptr) continue;
    stats_.aggregates_out++;
    // Fixed-size aggregate regardless of the sample count: the data-fusion
    // assumption of LEACH-style clustering.
    if (router->send(sink_, routing::Proto::kApp, Bytes(kAggregateBytes, 0xa9))
            .is_ok()) {
      stats_.aggregates_forwarded++;
    }
  }
}

}  // namespace ndsm::milan
