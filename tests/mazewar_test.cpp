// apps::mazewar tests. Three layers:
//   Mazewar       unit behavior against hand-crafted frames on a sim World
//                 (exactly-once scoring, stale-state rejection, leave,
//                 peer expiry, malformed drops, maze geometry);
//   MazewarChaos  the flagship soak — 100 players on one segment under
//                 composed faults (burst loss, duplication, jitter,
//                 partitions, pauses), holding the score invariants at
//                 quiesce, twin-run digest-identical (CI's chaos-soak job
//                 picks the suite up via `ctest -R Chaos`);
//   MazewarUdp    the same Player unmodified over real loopback sockets.

#include "apps/mazewar/mazewar.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/link_spec.hpp"
#include "net/udp_stack.hpp"
#include "net/world.hpp"
#include "net/world_stack.hpp"
#include "serialize/codec.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace ndsm::apps::mazewar {
namespace {

// Wire kinds on Proto::kMazewar (mirrors the encoder's private enum; the
// tests below forge frames to probe the receive paths).
constexpr std::uint8_t kKindJoin = 1;
constexpr std::uint8_t kKindState = 2;
constexpr std::uint8_t kKindLeave = 3;
constexpr std::uint8_t kKindHit = 4;
constexpr std::uint8_t kKindHitAck = 5;

Bytes state_frame(std::uint8_t kind, std::int32_t x, std::int32_t y, std::uint64_t seq,
                  std::int64_t score = 0) {
  serialize::Writer w;
  w.u8(kind);
  w.svarint(x);
  w.svarint(y);
  w.u8(0);  // dir
  w.svarint(score);
  w.varint(seq);
  w.boolean(false);  // missile_live
  w.svarint(0);
  w.svarint(0);
  w.u8(0);  // missile_dir
  return std::move(w).take();
}

Bytes claim_frame(std::uint8_t kind, std::uint64_t hit_id) {
  serialize::Writer w;
  w.u8(kind);
  w.varint(hit_id);
  return std::move(w).take();
}

// Payloads of kind `kind` among `payloads`.
int count_kind(const std::vector<Bytes>& payloads, std::uint8_t kind) {
  int n = 0;
  for (const Bytes& payload : payloads) {
    serialize::Reader r{payload};
    if (r.u8().value_or(0) == kind) n++;
  }
  return n;
}

// One player plus a bare "attacker" stack that forges raw kMazewar frames,
// and optionally more forging stacks.
struct Harness {
  sim::Simulator sim{42};
  net::World world{sim};
  MediumId medium = world.add_medium(net::ethernet100());
  NodeId player_id, attacker_id;
  std::unique_ptr<net::WorldStack> player_stack, attacker_stack;
  std::unique_ptr<Player> player;
  std::vector<Bytes> attacker_got;  // payloads the player sent back to us
  // Stacks added after the attacker, so their ids ascend from the
  // attacker's in index order; forger_got[k] is what forgers[k] received.
  std::vector<std::unique_ptr<net::WorldStack>> forgers;
  std::vector<std::vector<Bytes>> forger_got;

  explicit Harness(MazeConfig cfg = {}, std::size_t extra_forgers = 0) {
    player_id = world.add_node(Vec2{0.0, 0.0});
    world.attach(player_id, medium);
    attacker_id = world.add_node(Vec2{5.0, 0.0});
    world.attach(attacker_id, medium);
    player_stack = std::make_unique<net::WorldStack>(world, player_id);
    attacker_stack = std::make_unique<net::WorldStack>(world, attacker_id);
    attacker_stack->set_frame_handler(net::Proto::kMazewar, [this](const net::LinkFrame& f) {
      attacker_got.push_back(Bytes{f.payload().begin(), f.payload().end()});
    });
    forger_got.resize(extra_forgers);
    for (std::size_t k = 0; k < extra_forgers; ++k) {
      const NodeId id = world.add_node(Vec2{5.0 * static_cast<double>(k + 2), 0.0});
      world.attach(id, medium);
      forgers.push_back(std::make_unique<net::WorldStack>(world, id));
      forgers.back()->set_frame_handler(net::Proto::kMazewar, [this, k](const net::LinkFrame& f) {
        forger_got[k].push_back(Bytes{f.payload().begin(), f.payload().end()});
      });
    }
    player = std::make_unique<Player>(*player_stack, cfg);
  }

  void send_from(net::WorldStack& from, Bytes frame) {
    ASSERT_TRUE(from.send_frame(player_id, net::Proto::kMazewar, std::move(frame)).is_ok());
  }
  void send(Bytes frame) { send_from(*attacker_stack, std::move(frame)); }
  void run(Time d) { sim.run_until(sim.now() + d); }
};

// Turns the harness's player toward an open neighbouring cell (every open
// cell has at least one) and returns that cell: the next cell its missile
// enters.
std::pair<std::int32_t, std::int32_t> aim_at_open_neighbour(Harness& h) {
  const RatState& self = h.player->self_state();
  for (const Dir d : {Dir::kEast, Dir::kWest, Dir::kSouth, Dir::kNorth}) {
    const std::int32_t nx = self.x + (d == Dir::kEast ? 1 : d == Dir::kWest ? -1 : 0);
    const std::int32_t ny = self.y + (d == Dir::kSouth ? 1 : d == Dir::kNorth ? -1 : 0);
    if (!is_wall(h.player->config(), nx, ny)) {
      h.player->turn(d);
      return {nx, ny};
    }
  }
  return {self.x, self.y};
}

TEST(Mazewar, PillarMazeGeometry) {
  const MazeConfig cfg;
  // Solid border.
  EXPECT_TRUE(is_wall(cfg, 0, 5));
  EXPECT_TRUE(is_wall(cfg, 5, 0));
  EXPECT_TRUE(is_wall(cfg, cfg.width - 1, 5));
  EXPECT_TRUE(is_wall(cfg, 5, cfg.height - 1));
  // Pillars at odd-odd, corridors everywhere else.
  EXPECT_TRUE(is_wall(cfg, 3, 5));
  EXPECT_FALSE(is_wall(cfg, 2, 5));
  EXPECT_FALSE(is_wall(cfg, 3, 4));
  // Spawn always lands on an open cell.
  Harness h;
  EXPECT_FALSE(is_wall(cfg, h.player->self_state().x, h.player->self_state().y));
}

TEST(Mazewar, ManualControlsRespectWalls) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg};
  Player& p = *h.player;
  // Walk west until the border refuses; position must stay in-maze.
  p.turn(Dir::kWest);
  int steps = 0;
  while (p.step_forward()) steps++;
  EXPECT_LT(steps, cfg.width);
  EXPECT_FALSE(is_wall(cfg, p.self_state().x, p.self_state().y));
  EXPECT_FALSE(p.step_forward());  // still blocked
  // One missile in flight at a time.
  EXPECT_TRUE(p.fire());
  EXPECT_FALSE(p.fire());
  EXPECT_EQ(p.stats().shots_fired, 1u);
  // The missile flies west from the border wall: dead within a few ticks,
  // after which firing is possible again.
  h.run(duration::seconds(1));
  EXPECT_TRUE(p.fire());
}

TEST(Mazewar, DuplicateHitClaimsApplyExactlyOnce) {
  MazeConfig cfg;
  cfg.autopilot = false;  // hold still; no return fire
  Harness h{cfg};
  h.run(duration::millis(300));

  // The same claim id delivered three times: one score penalty, three acks
  // (re-acks cover a lost ack without re-applying the hit).
  for (int i = 0; i < 3; ++i) h.send(claim_frame(kKindHit, 77));
  h.run(duration::millis(300));
  EXPECT_EQ(h.player->stats().hits_suffered, 1u);
  EXPECT_EQ(h.player->stats().duplicate_claims, 2u);
  EXPECT_EQ(h.player->self_state().score, -kHitPenalty);
  EXPECT_EQ(count_kind(h.attacker_got, kKindHitAck), 3);

  // A distinct claim id applies again.
  h.send(claim_frame(kKindHit, 78));
  h.run(duration::millis(300));
  EXPECT_EQ(h.player->stats().hits_suffered, 2u);
  EXPECT_EQ(h.player->self_state().score, -2 * kHitPenalty);
}

TEST(Mazewar, StaleStateNeverRollsAPeerBackwards) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg};
  h.send(state_frame(kKindJoin, 2, 2, /*seq=*/100));
  h.run(duration::millis(50));
  ASSERT_EQ(h.player->peers().size(), 1u);
  EXPECT_EQ(h.player->stats().joins_seen, 1u);
  ASSERT_NE(h.player->peer(h.attacker_id), nullptr);
  EXPECT_EQ(h.player->peer(h.attacker_id)->state.seq, 100u);

  // A delayed older packet must refresh liveness but not the view.
  h.send(state_frame(kKindState, 9, 9, /*seq=*/5));
  h.run(duration::millis(50));
  EXPECT_EQ(h.player->stats().stale_states_dropped, 1u);
  EXPECT_EQ(h.player->peer(h.attacker_id)->state.x, 2);
  EXPECT_EQ(h.player->peer(h.attacker_id)->state.seq, 100u);

  // Newer state advances it.
  h.send(state_frame(kKindState, 4, 2, /*seq=*/101));
  h.run(duration::millis(50));
  EXPECT_EQ(h.player->peer(h.attacker_id)->state.x, 4);
  EXPECT_EQ(h.player->peer(h.player_id), nullptr);  // never its own peer
}

TEST(Mazewar, LeaveDropsPeerAndAbandonsClaimsAgainstIt) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg};
  // Park the "attacker rat" in the player's line of fire.
  h.run(duration::millis(150));
  const auto [tx, ty] = aim_at_open_neighbour(h);
  ASSERT_NE(std::make_pair(tx, ty),
            std::make_pair(h.player->self_state().x, h.player->self_state().y));
  h.send(state_frame(kKindJoin, tx, ty, 1));
  h.run(duration::millis(150));
  ASSERT_EQ(h.player->peers().size(), 1u);

  // Fire: the missile enters the peer's cell next tick and a claim goes
  // out; the target never acks (no Player behind it), so it stays pending.
  ASSERT_TRUE(h.player->fire());
  h.run(duration::millis(500));
  ASSERT_EQ(h.player->pending_claims(), 1u);
  const std::uint64_t claims_before = h.player->stats().hit_claims_sent;
  h.run(duration::millis(500));
  EXPECT_GT(h.player->stats().hit_claims_sent, claims_before);  // retransmitting

  // Leave: peer gone, claim abandoned, no score ever granted.
  serialize::Writer w;
  w.u8(kKindLeave);
  h.send(std::move(w).take());
  h.run(duration::millis(300));
  EXPECT_EQ(h.player->peers().size(), 0u);
  EXPECT_EQ(h.player->stats().leaves_seen, 1u);
  EXPECT_EQ(h.player->pending_claims(), 0u);
  EXPECT_EQ(h.player->stats().hits_confirmed, 0u);
  EXPECT_EQ(h.player->self_state().score, 0);
}

TEST(Mazewar, SilentPeerExpiresAfterTimeout) {
  MazeConfig cfg;
  cfg.autopilot = false;
  cfg.peer_timeout = duration::millis(800);
  Harness h{cfg};
  h.send(state_frame(kKindJoin, 2, 2, 1));
  h.run(duration::millis(100));
  ASSERT_EQ(h.player->peers().size(), 1u);
  h.run(duration::seconds(2));  // silence
  EXPECT_EQ(h.player->peers().size(), 0u);
  EXPECT_EQ(h.player->stats().peers_expired, 1u);
  EXPECT_GT(h.player->staleness().count(), 0u);
}

// The dedup history outlives the shooter's peer record: a claim whose ack
// was lost and that is re-sent after the shooter expired (say, across a
// partition) is re-acked, not applied a second time.
TEST(Mazewar, ClaimResentAfterExpiryIsNotReapplied) {
  MazeConfig cfg;
  cfg.autopilot = false;
  cfg.peer_timeout = duration::millis(800);
  Harness h{cfg};
  h.send(state_frame(kKindJoin, 2, 2, 1));
  h.send(claim_frame(kKindHit, 77));
  h.run(duration::millis(300));
  ASSERT_NE(h.player->peer(h.attacker_id), nullptr);
  ASSERT_EQ(h.player->stats().hits_suffered, 1u);

  h.run(duration::seconds(2));  // silence: the attacker expires
  ASSERT_EQ(h.player->peer(h.attacker_id), nullptr);
  ASSERT_EQ(h.player->stats().peers_expired, 1u);

  h.send(claim_frame(kKindHit, 77));
  h.run(duration::millis(300));
  EXPECT_EQ(h.player->stats().hits_suffered, 1u);
  EXPECT_EQ(h.player->stats().duplicate_claims, 1u);
  EXPECT_EQ(h.player->self_state().score, -kHitPenalty);
  EXPECT_EQ(count_kind(h.attacker_got, kKindHitAck), 2);
}

// Joins arriving out of id order still leave peers() in ascending id
// order, each record holding its own sender's view.
TEST(Mazewar, PeerTableKeepsIdOrderWhateverTheJoinOrder) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg, 3};
  std::map<NodeId, std::int32_t> sent_x;
  std::int32_t x = 2;
  for (net::WorldStack* from : {h.forgers[2].get(), h.attacker_stack.get(),
                                h.forgers[0].get(), h.forgers[1].get()}) {
    h.send_from(*from, state_frame(kKindJoin, x, 2, 1));
    sent_x[from->self()] = x;
    x += 2;
    h.run(duration::millis(10));
  }
  const auto& peers = h.player->peers();
  ASSERT_EQ(peers.size(), 4u);
  EXPECT_EQ(h.player->stats().joins_seen, 4u);
  auto expected = sent_x.begin();  // std::map: ascending id
  for (const auto& [id, view] : peers) {
    EXPECT_EQ(id, expected->first);
    EXPECT_EQ(view.state.x, expected->second);
    EXPECT_EQ(h.player->peer(id), &view);
    ++expected;
  }
}

// A leave and an expiry of middle peers close the gap without disturbing
// the order or the views of the peers around them.
TEST(Mazewar, LeaveAndExpiryOfAMiddlePeerKeepTheRestInOrder) {
  MazeConfig cfg;
  cfg.autopilot = false;
  cfg.peer_timeout = duration::millis(800);
  Harness h{cfg, 3};
  const std::vector<net::WorldStack*> senders{h.attacker_stack.get(), h.forgers[0].get(),
                                              h.forgers[1].get(), h.forgers[2].get()};
  for (std::size_t k = 0; k < senders.size(); ++k) {
    h.send_from(*senders[k], state_frame(kKindJoin, static_cast<std::int32_t>(2 * k + 2), 4, 1));
  }
  h.run(duration::millis(50));
  ASSERT_EQ(h.player->peers().size(), 4u);
  const auto expect_peers = [&h, &senders](const std::vector<std::size_t>& live,
                                           std::uint64_t seq) {
    ASSERT_EQ(h.player->peers().size(), live.size());
    auto k = live.begin();
    for (const auto& [id, view] : h.player->peers()) {
      EXPECT_EQ(id, senders[*k]->self());
      EXPECT_EQ(view.state.x, static_cast<std::int32_t>(2 * *k + 2));
      EXPECT_EQ(view.state.y, 4);
      EXPECT_EQ(view.state.seq, seq);
      ++k;
    }
  };

  serialize::Writer leave;
  leave.u8(kKindLeave);
  h.send_from(*senders[1], std::move(leave).take());
  h.run(duration::millis(50));
  EXPECT_EQ(h.player->stats().leaves_seen, 1u);
  expect_peers({0, 2, 3}, 1);

  // Senders 0 and 3 keep talking; sender 2 falls silent and expires.
  std::uint64_t seq = 1;
  for (int round = 0; round < 10; ++round) {
    ++seq;
    for (const std::size_t k : {0u, 3u}) {
      h.send_from(*senders[k],
                  state_frame(kKindState, static_cast<std::int32_t>(2 * k + 2), 4, seq));
    }
    h.run(duration::millis(200));
  }
  EXPECT_EQ(h.player->stats().peers_expired, 1u);
  expect_peers({0, 3}, seq);
}

// A missile entering a cell that two peers share claims the lower id,
// even when the higher id joined first.
TEST(Mazewar, MissileIntoASharedCellClaimsTheLowerId) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg, 1};
  h.run(duration::millis(150));
  const auto [tx, ty] = aim_at_open_neighbour(h);
  ASSERT_LT(h.attacker_id, h.forgers[0]->self());
  h.send_from(*h.forgers[0], state_frame(kKindJoin, tx, ty, 1));
  h.run(duration::millis(10));
  h.send(state_frame(kKindJoin, tx, ty, 1));
  h.run(duration::millis(150));
  ASSERT_EQ(h.player->peers().size(), 2u);

  ASSERT_TRUE(h.player->fire());
  h.run(duration::millis(500));
  EXPECT_EQ(h.player->pending_claims(), 1u);
  EXPECT_GT(count_kind(h.attacker_got, kKindHit), 0);
  EXPECT_EQ(count_kind(h.forger_got[0], kKindHit), 0);
}

TEST(Mazewar, MalformedFramesCountedAndIgnored) {
  MazeConfig cfg;
  cfg.autopilot = false;
  Harness h{cfg};
  h.send(Bytes{});                               // empty
  h.send(Bytes{kKindState});                     // truncated state
  h.send(Bytes{kKindHit});                       // claim with no id
  h.send(Bytes{99});                             // unknown kind
  h.send(state_frame(kKindState, 2, 2, 1, 0));   // valid, as control
  {
    Bytes bad_dir = state_frame(kKindJoin, 2, 2, 1);
    // dir byte sits after the two svarint coords (one byte each here).
    bad_dir[3] = 7;  // dir > 3
    h.send(bad_dir);
  }
  h.run(duration::millis(200));
  EXPECT_EQ(h.player->stats().malformed_dropped, 5u);
  EXPECT_EQ(h.player->peers().size(), 1u);  // the valid one got in
}

TEST(Mazewar, ScoreEquationHoldsDuringLiveGame) {
  // A real 4-player autopilot game; the per-node invariant must hold at
  // every sampled instant, not only at quiesce.
  sim::Simulator sim(7);
  net::World world(sim);
  const MediumId medium = world.add_medium(net::ethernet100());
  std::vector<std::unique_ptr<net::WorldStack>> stacks;
  std::vector<std::unique_ptr<Player>> players;
  for (int i = 0; i < 4; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i), 0.0});
    world.attach(id, medium);
    stacks.push_back(std::make_unique<net::WorldStack>(world, id));
    players.push_back(std::make_unique<Player>(*stacks.back()));
  }
  for (int slice = 0; slice < 20; ++slice) {
    sim.run_until(sim.now() + duration::millis(500));
    for (const auto& p : players) {
      EXPECT_EQ(p->self_state().score,
                kHitReward * static_cast<std::int64_t>(p->stats().hits_confirmed) -
                    kHitPenalty * static_cast<std::int64_t>(p->stats().hits_suffered));
    }
  }
  // 4 rats in a 15x15 maze for 10s: somebody got shot.
  std::uint64_t total = 0;
  for (const auto& p : players) total += p->stats().hits_confirmed;
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Chaos soak: the flagship acceptance run.

struct SoakReport {
  std::uint64_t confirmed = 0;
  std::uint64_t suffered = 0;
  std::uint64_t states = 0;
  std::uint64_t stale = 0;  // stale states rejected
  net::WorldStats net;
};

constexpr std::size_t kSoakPlayers = 100;
constexpr Time kSoakQuiesce = duration::seconds(15);

// Arms a soak's fault plan over its simulator, the players' medium and ids.
using MazeFaults = std::function<void(sim::Simulator&, net::FaultPlan&, MediumId,
                                      const std::vector<NodeId>&)>;

// One full soak under the plan `script` arms; returns the digest dump that
// must be byte-identical across twin runs with the same seed. Checks the
// invariants every plan must keep once its partitions and pauses heal.
std::string mazewar_soak(std::uint64_t seed, const MazeFaults& script, SoakReport& report) {
  sim::Simulator sim(seed);
  net::World world(sim);
  const MediumId medium = world.add_medium(net::ethernet100());

  MazeConfig cfg;
  cfg.width = 31;  // room for 100 rats
  cfg.height = 31;
  cfg.state_period = duration::millis(250);

  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<net::WorldStack>> stacks;
  std::vector<std::unique_ptr<Player>> players;
  for (std::size_t i = 0; i < kSoakPlayers; ++i) {
    const NodeId id = world.add_node(Vec2{static_cast<double>(i % 10) * 3.0,
                                          static_cast<double>(i / 10) * 3.0});
    world.attach(id, medium);
    ids.push_back(id);
    stacks.push_back(std::make_unique<net::WorldStack>(world, id));
    players.push_back(std::make_unique<Player>(*stacks.back(), cfg));
  }

  net::FaultPlan faults{world, seed ^ 0xfa157};
  script(sim, faults, medium, ids);

  sim.run_until(kSoakQuiesce);
  // Quiesce: all faults healed; cease fire (autopilots keep gossiping but
  // stop shooting — a live match never runs out of in-flight claims), then
  // drain outstanding hit claims (bounded).
  for (const auto& p : players) p->set_autopilot(false);
  const auto claims_pending = [&] {
    for (const auto& p : players) {
      if (p->pending_claims() > 0) return true;
    }
    return false;
  };
  while (claims_pending() && sim.now() < duration::seconds(45)) {
    sim.run_until(sim.now() + duration::seconds(1));
  }

  std::uint64_t malformed = 0;
  std::ostringstream dump;
  dump << sim.digest() << ":" << sim.now();
  for (const auto& p : players) {
    dump << "|" << p->digest();
    report.confirmed += p->stats().hits_confirmed;
    report.suffered += p->stats().hits_suffered;
    report.states += p->stats().states_received;
    report.stale += p->stats().stale_states_dropped;
    malformed += p->stats().malformed_dropped;
  }
  report.net = world.stats();
  dump << "|f:" << report.net.fault_drops - report.net.partition_drops << ","
       << report.net.partition_drops << "," << report.net.fault_duplicates << ","
       << report.net.fault_delays;

  // Invariants checked inside the run so both twin runs are full soaks.
  EXPECT_FALSE(claims_pending()) << "hit claims failed to drain after heal";
  for (const auto& p : players) {
    EXPECT_EQ(p->self_state().score,
              kHitReward * static_cast<std::int64_t>(p->stats().hits_confirmed) -
                  kHitPenalty * static_cast<std::int64_t>(p->stats().hits_suffered));
    EXPECT_EQ(p->peers().size(), kSoakPlayers - 1);  // everyone is back after heal
  }
  EXPECT_EQ(report.confirmed, report.suffered) << "a hit was double-counted or lost";
  EXPECT_EQ(malformed, 0u) << "faults must never corrupt frames, only drop/dup/delay";
  return dump.str();
}

// The soak's hand-written plan: every channel fault, two partitions, two
// pauses.
void composed_maze_faults(sim::Simulator& /*sim*/, net::FaultPlan& faults, MediumId medium,
                          const std::vector<NodeId>& ids) {
  faults.burst_loss(medium, net::BurstLossSpec{0.01, 0.2, 0.0, 0.5});
  faults.duplication(0.05, duration::millis(50));
  faults.jitter(0.10, duration::millis(50));
  faults.partition(duration::seconds(3), {ids.begin(), ids.begin() + 15},
                   duration::seconds(2));
  faults.partition(duration::seconds(8), {ids.begin() + 50, ids.begin() + 70},
                   duration::seconds(2));
  faults.pause(duration::seconds(5), ids[7], duration::seconds(2));
  faults.pause(duration::seconds(10), ids[42], duration::millis(1500));
}

// One full soak under the composed plan, which must engage every fault.
std::string mazewar_chaos_run(std::uint64_t seed, SoakReport* report = nullptr) {
  SoakReport r;
  const std::string dump = mazewar_soak(seed, composed_maze_faults, r);
  EXPECT_GT(r.confirmed, 0u) << "soak produced no hits at all";
  EXPECT_GT(r.stale, 0u) << "duplication injected but no stale state was ever rejected";
  EXPECT_GT(r.net.fault_drops - r.net.partition_drops, 0u);  // burst losses
  EXPECT_GT(r.net.fault_duplicates, 0u);
  if (report != nullptr) *report = r;
  return dump;
}

TEST(MazewarChaos, SoakHoldsScoreInvariantsUnderComposedFaults) {
  SoakReport report;
  mazewar_chaos_run(0xcafe, &report);
  EXPECT_GT(report.states, 10000u);  // the gossip mesh actually ran
}

TEST(MazewarChaos, TwinRunsAreByteIdentical) {
  const std::string a = mazewar_chaos_run(0xbeef);
  const std::string b = mazewar_chaos_run(0xbeef);
  EXPECT_EQ(a, b) << "same seed, same faults: the soak must be deterministic";
  const std::string c = mazewar_chaos_run(0xbeef + 1);
  EXPECT_NE(a, c) << "different seed should explore a different trajectory";
}

// Seeded random plans (test_helpers.hpp): partitions, burst loss,
// duplication, jitter and pauses, all healed well before the soak
// quiesces.
// Players keep no state across a crash, so these plans do not crash them.
// Score conservation must hold under every one.
TEST(MazewarChaos, RandomFaultPlansConserveScores) {
  for (std::uint64_t plan = 1; plan <= 8; ++plan) {
    std::string armed;
    SoakReport report;
    const std::string dump = mazewar_soak(
        0x3a2e + plan,
        [&armed, plan](sim::Simulator& sim, net::FaultPlan& faults, MediumId medium,
                       const std::vector<NodeId>& ids) {
          armed = testing::arm_random_faults(sim, faults, plan, medium, ids, {}, kSoakQuiesce,
                                             duration::millis(100));
        },
        report);
    EXPECT_GT(report.states, 10000u) << "plan " << plan << ": " << armed;
    if (HasFailure()) {
      ADD_FAILURE() << "plan " << plan << ": " << armed;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Real sockets: the identical Player over loopback UDP.

TEST(MazewarUdp, PlayersGossipAndScoreOverLoopback) {
  const auto base = static_cast<std::uint16_t>(23000 + (getpid() % 1500) * 8);
  const std::vector<NodeId> ids{NodeId{1}, NodeId{2}};
  net::UdpStackConfig ncfg;
  ncfg.port_base = base;
  ncfg.peers = ids;
  net::UdpStack s1{ids[0], ncfg};
  net::UdpStack s2{ids[1], ncfg};

  MazeConfig cfg;
  cfg.state_period = duration::millis(20);  // fast ticks: real time is scarce
  cfg.hit_retry = duration::millis(50);
  Player p1{s1, cfg};
  Player p2{s2, cfg};

  // Interleave the two event loops until both views are live.
  const auto pump_until = [&](const std::function<bool()>& pred, Time budget) {
    const Time until = s1.now() + budget;
    while (!pred() && s1.now() < until) {
      s1.poll_once(duration::millis(2));
      s2.poll_once(duration::millis(2));
    }
    return pred();
  };
  ASSERT_TRUE(pump_until(
      [&] {
        return p1.peers().size() == 1 && p2.peers().size() == 1 &&
               p1.stats().states_received >= 20 && p2.stats().states_received >= 20;
      },
      duration::seconds(10)));

  // Score invariant holds on the real backend too, and any claims drain.
  ASSERT_TRUE(pump_until(
      [&] { return p1.pending_claims() == 0 && p2.pending_claims() == 0; },
      duration::seconds(5)));
  for (const Player* p : {&p1, &p2}) {
    EXPECT_EQ(p->self_state().score,
              kHitReward * static_cast<std::int64_t>(p->stats().hits_confirmed) -
                  kHitPenalty * static_cast<std::int64_t>(p->stats().hits_suffered));
    EXPECT_EQ(p->stats().malformed_dropped, 0u);
  }

  // The survivor drops the departed player — via the leave broadcast, or
  // (should that one datagram be lost) via peer-timeout expiry.
  p1.leave();
  ASSERT_TRUE(pump_until([&] { return p2.peers().empty(); }, duration::seconds(6)));
  EXPECT_EQ(p2.stats().leaves_seen + p2.stats().peers_expired, 1u);
}

}  // namespace
}  // namespace ndsm::apps::mazewar
