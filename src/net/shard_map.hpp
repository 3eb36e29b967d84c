#pragma once
// net::ShardMap — the spatial partition underneath sharded simulation.
//
// The world is cut into vertical stripes along x. Stripe width is forced
// to be at least the longest communication range of any medium, so a
// transmission can only ever reach nodes in the sender's own stripe or
// the two adjacent ones — the property that bounds cross-shard traffic
// to neighbor mailboxes and makes the conservative lookahead argument
// local (sim/simulator.hpp). A node's shard is a pure function of its
// position.

#include <algorithm>
#include <cstddef>

#include "common/audit.hpp"
#include "common/vec2.hpp"

namespace ndsm::net {

class ShardMap {
 public:
  // Partition [min_x, max_x] into at most `requested` stripes of width
  // >= max_range_m (the shard count is reduced when the extent cannot
  // fit that many range-wide stripes; never below 1).
  ShardMap(double min_x, double max_x, double max_range_m, std::size_t requested) {
    NDSM_INVARIANT(requested >= 1, "ShardMap needs at least one shard");
    NDSM_INVARIANT(max_range_m > 0, "ShardMap needs a positive communication range");
    min_x_ = min_x;
    const double extent = std::max(max_x - min_x, 1e-9);
    const auto fit = static_cast<std::size_t>(extent / max_range_m);
    shards_ = std::clamp<std::size_t>(fit, 1, requested);
    stripe_w_ = extent / static_cast<double>(shards_);
  }

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] double stripe_width() const { return stripe_w_; }

  [[nodiscard]] std::size_t shard_of(Vec2 p) const {
    if (p.x <= min_x_) return 0;
    const auto s = static_cast<std::size_t>((p.x - min_x_) / stripe_w_);
    return std::min(s, shards_ - 1);
  }

  // Would a transmission from `p` with radius `r` cross into `other`'s
  // stripe? Only the two adjacent stripes can ever qualify (width >= any
  // range), so callers iterate {s-1, s+1} and prune with this.
  [[nodiscard]] bool reaches(Vec2 p, double r, std::size_t other) const {
    const double lo = min_x_ + stripe_w_ * static_cast<double>(other);
    const double hi = lo + stripe_w_;
    return p.x + r >= lo && p.x - r <= hi;
  }

 private:
  double min_x_ = 0;
  double stripe_w_ = 0;
  std::size_t shards_ = 1;
};

}  // namespace ndsm::net
