// Heap allocations of a steady Mazewar tick. This binary replaces the
// global operator new with a counting one, which is why the test lives
// apart from mazewar_test.

#include <gtest/gtest.h>

#include <cstdlib>
// ndsm-lint: allow(raw-new-delete): the header name, for std::bad_alloc
#include <new>
#include <memory>
#include <vector>

#include "apps/mazewar/mazewar.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "sim/simulator.hpp"

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

namespace ndsm::apps::mazewar {
namespace {

// Blocks per tick, over 10 simulated seconds after 5 of warm-up, of
// `players` autopilot-off players on one Ethernet segment. A tick
// broadcasts one state to every other player, and each receiver finds the
// sender in its peer table and updates the view in place.
double blocks_per_tick(std::size_t players) {
  sim::Simulator sim(11);
  net::World world(sim);
  const MediumId medium = world.add_medium(net::ethernet100());
  MazeConfig cfg;
  cfg.autopilot = false;  // no moves and no missiles: every tick is alike
  std::vector<std::unique_ptr<net::WorldStack>> stacks;
  std::vector<std::unique_ptr<Player>> rats;
  for (std::size_t i = 0; i < players; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i), 0.0});
    world.attach(id, medium);
    stacks.push_back(std::make_unique<net::WorldStack>(world, id));
    rats.push_back(std::make_unique<Player>(*stacks.back(), cfg));
  }
  sim.run_until(duration::seconds(5));
  const auto ticks = [&rats] {
    std::uint64_t n = 0;
    for (const auto& p : rats) n += p->stats().states_sent;
    return n;
  };
  for (const auto& p : rats) EXPECT_EQ(p->peers().size(), players - 1);

  const std::uint64_t ticks_before = ticks();
  g_allocations = 0;
  g_counting = true;
  sim.run_until(duration::seconds(15));
  g_counting = false;
  const std::uint64_t counted = ticks() - ticks_before;
  EXPECT_EQ(counted, players * 100);  // 10 Hz for 10 s
  return static_cast<double>(g_allocations) / static_cast<double>(counted);
}

// Three blocks per tick at any player count: the state frame's buffer
// (reserved once at its widest encoding), link_broadcast's shared payload
// and the engine's fan-out closure. Receiving a state allocates nothing.
TEST(MazewarAlloc, SteadyTickAllocatesThreeBlocks) {
  for (const std::size_t players : {4u, 32u}) {
    SCOPED_TRACE(::testing::Message() << "players=" << players);
    EXPECT_EQ(blocks_per_tick(players), 3.0);
  }
}

}  // namespace
}  // namespace ndsm::apps::mazewar
