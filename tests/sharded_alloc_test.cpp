// Heap allocations of a sharded net::World's broadcast fan-out. This
// binary replaces the global operator new with a counting one, which is
// why the test lives apart from sharded_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
// ndsm-lint: allow(raw-new-delete): the header name, for std::bad_alloc
#include <new>
#include <utility>
#include <vector>

#include "net/link_spec.hpp"
#include "net/world.hpp"

namespace {
std::uint64_t g_allocations = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ndsm {
namespace {

template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

// One broadcast of a 64-byte payload, from the timer event that builds
// the payload to the last inline delivery, costs the same three blocks
// whether it reaches 4 receivers or 20: the payload's bytes, the shared
// buffer that every receiver's frame points at, and the transmission
// event. The receivers are gathered into a buffer the shard reuses. On
// four shards each cluster lies inside one stripe, so nothing crosses.
void expect_three_blocks_per_broadcast(std::size_t shards) {
  net::World w({.shards = shards, .workers = 1, .seed = 3});
  const MediumId m = w.add_medium(net::wifi80211(25.0, 0.0));
  std::uint64_t received = 0;
  const auto add = [&](Vec2 p) {
    const NodeId id = w.add_node(p);
    w.attach(id, m);
    w.set_handler(id, net::Proto::kApp, [&received](const net::LinkFrame&) { ++received; });
    return id;
  };
  // `sparse` has its 4 lattice neighbours in range; `dense`, 1 km away,
  // has the 20 of a 10 m lattice within 25 m.
  const NodeId sparse = add({0, 0});
  for (const Vec2 d : {Vec2{10, 0}, Vec2{-10, 0}, Vec2{0, 10}, Vec2{0, -10}}) add(d);
  const NodeId dense = add({1000, 0});
  for (int dx = -2; dx <= 2; ++dx) {
    for (int dy = -2; dy <= 2; ++dy) {
      if ((dx != 0 || dy != 0) && std::hypot(dx * 10.0, dy * 10.0) <= 25.0) {
        add({1000 + dx * 10.0, dy * 10.0});
      }
    }
  }

  Time now = 0;
  // Allocations of one broadcast from `src`, and the receptions it made.
  const auto broadcast = [&](NodeId src) {
    now += duration::millis(1);
    w.schedule(src, now,
               [&w, src] { (void)w.link_broadcast(src, net::Proto::kApp, Bytes(64, 0xab)); });
    const std::uint64_t before = received;
    const std::uint64_t allocs =
        allocations_in([&] { w.run_until(now + duration::micros(500)); });
    return std::pair{allocs, received - before};
  };
  for (int warm = 0; warm < 3; ++warm) {
    (void)broadcast(sparse);
    (void)broadcast(dense);
  }

  const auto [sparse_allocs, sparse_received] = broadcast(sparse);
  const auto [dense_allocs, dense_received] = broadcast(dense);
  EXPECT_EQ(w.shard_count(), shards);
  EXPECT_EQ(w.stats().cross_shard_transmissions, 0u);
  EXPECT_EQ(sparse_received, 4u);
  EXPECT_EQ(dense_received, 20u);
  EXPECT_EQ(sparse_allocs, 3u);
  EXPECT_EQ(dense_allocs, 3u);
}

TEST(ShardedWorld, BroadcastAllocatesTheSameAtAnyFanOut) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    expect_three_blocks_per_broadcast(shards);
  }
}

}  // namespace
}  // namespace ndsm
