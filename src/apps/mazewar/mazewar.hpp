#pragma once
// apps::mazewar — flagship application #1 (ROADMAP item 3, DESIGN §16): a
// Mazewar-style real-time multiplayer game written *only* against the
// net::Stack seam, so the same Player runs unmodified on the deterministic
// sim (WorldStack — chaos-soakable, twin-run digest-identical) and on real
// sockets (UdpStack — a fleet of OS processes on loopback).
//
// The game stresses the low-latency *unreliable* path the middleware's
// reliable transport deliberately sits above: position/heading state is
// gossiped lossy-and-often on raw Proto::kMazewar link frames (a lost
// state packet is obsolete by the time a retransmit could land — the next
// tick supersedes it), while the one thing that must not be lost or
// double-counted — a hit claim — rides an app-level retransmit-until-acked
// exchange with per-claim ids, giving exactly-once score application on
// top of an at-least-once delivery loop.
//
// Consistency story, pinned by tests/mazewar_test.cpp:
//   * per-node:  score == kHitReward * hits_confirmed
//                        - kHitPenalty * hits_suffered   (always)
//   * fleet-wide at quiesce (faults healed, claims drained): every
//     shooter-confirmed hit was applied exactly once by its victim, so
//     sum(hits_confirmed) == sum(hits_suffered).
//   * staleness: each tick every live peer's (now - last_heard) is
//     observed into a histogram — the bounded-staleness metric E17 plots.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"

namespace ndsm::apps::mazewar {

// Heading; also the missile travel direction.
enum class Dir : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };

struct MazeConfig {
  // Pillar maze: cell (x, y) is a wall iff x and y are both odd, plus a
  // solid border. Every open cell is reachable from every other, for any
  // odd-ish size, with no generation seed to agree on — ideal for a
  // distributed game where all peers must share the map by construction.
  std::int32_t width = 15;
  std::int32_t height = 15;
  Time state_period = duration::millis(100);  // gossip + game tick
  Time peer_timeout = duration::seconds(3);   // silence before a peer is dropped
  Time hit_retry = duration::millis(250);     // claim retransmit interval
  // Autopilot (deterministic, from stack.fork_rng): wander the maze and
  // fire at will. Off for example binaries that take keyboard input.
  bool autopilot = true;
};

[[nodiscard]] constexpr bool is_wall(const MazeConfig& cfg, std::int32_t x, std::int32_t y) {
  if (x <= 0 || y <= 0 || x >= cfg.width - 1 || y >= cfg.height - 1) return true;
  return (x % 2 == 1) && (y % 2 == 1);
}

// Per-player state as gossiped. seq is a per-sender sequence number:
// receivers drop reordered (stale) states so a delayed duplicate can never
// roll a peer's view backwards.
struct RatState {
  std::int32_t x = 0;
  std::int32_t y = 0;
  Dir dir = Dir::kNorth;
  std::int64_t score = 0;
  std::uint64_t seq = 0;
  // Projectile state rides the same packet: at most one missile in flight
  // per player (classic Mazewar rule).
  bool missile_live = false;
  std::int32_t missile_x = 0;
  std::int32_t missile_y = 0;
  Dir missile_dir = Dir::kNorth;
};

struct PeerView {
  RatState state;
  Time last_heard = 0;
};

struct MazewarStats {
  std::uint64_t states_sent = 0;
  std::uint64_t states_received = 0;
  std::uint64_t stale_states_dropped = 0;  // reordered gossip rejected by seq
  std::uint64_t malformed_dropped = 0;     // undecodable kMazewar frames
  std::uint64_t joins_seen = 0;
  std::uint64_t leaves_seen = 0;
  std::uint64_t peers_expired = 0;  // dropped after peer_timeout of silence
  std::uint64_t shots_fired = 0;
  std::uint64_t hits_confirmed = 0;  // our claims acked by the victim
  std::uint64_t hits_suffered = 0;   // claims we applied against ourselves
  std::uint64_t hit_claims_sent = 0;  // includes retransmits
  std::uint64_t duplicate_claims = 0;  // re-acked without re-applying
};

inline constexpr std::int64_t kHitReward = 10;
inline constexpr std::int64_t kHitPenalty = 5;

class Player {
 public:
  // Binds the Proto::kMazewar frame handler, broadcasts a join, and starts
  // the tick timer. The stack must outlive the player.
  explicit Player(net::Stack& stack, MazeConfig config = {});
  ~Player();

  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;

  // Broadcast a leave and stop gossiping (the handler stays bound so a
  // stopped player still re-acks duplicate claims during teardown).
  void leave();

  // Manual controls for autopilot-off players (example binary).
  void turn(Dir dir);
  bool step_forward();  // false if a wall blocks
  bool fire();          // false if a missile is already in flight

  // Toggle the autopilot at runtime. Disabling it is a cease-fire: the
  // player keeps ticking (gossip, claim retransmits, peer liveness) but
  // stops moving and shooting, so an ongoing match can quiesce — in-flight
  // missiles resolve and outstanding claims drain to zero.
  void set_autopilot(bool enabled) { config_.autopilot = enabled; }

  [[nodiscard]] const RatState& self_state() const { return self_state_; }
  // Live peers as (id, view) records in ascending id order.
  [[nodiscard]] const std::vector<std::pair<NodeId, PeerView>>& peers() const { return peers_; }
  // The view of peer `id`, or nullptr when it is not live. The pointer
  // holds until a peer joins, leaves or expires.
  [[nodiscard]] const PeerView* peer(NodeId id) const;
  [[nodiscard]] const MazewarStats& stats() const { return stats_; }
  [[nodiscard]] const MazeConfig& config() const { return config_; }
  // Unresolved hit claims still being retransmitted (0 at quiesce).
  [[nodiscard]] std::size_t pending_claims() const { return pending_hits_.size(); }
  // Peer-view staleness in milliseconds, sampled per live peer per tick.
  [[nodiscard]] const obs::Histogram& staleness() const { return *staleness_; }

  // FNV-1a fold of everything game-visible (own state, sorted peer views,
  // score counters) — the twin-run determinism witness for chaos soaks.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct PendingHit {
    NodeId victim;
    Time next_retry = 0;
  };

  void on_frame(const net::LinkFrame& frame);
  void on_state(NodeId src, const RatState& state, bool is_join);
  void on_hit(NodeId shooter, std::uint64_t hit_id);
  void on_hit_ack(NodeId victim, std::uint64_t hit_id);
  void tick();
  void autopilot_move();
  void advance_missile();
  void broadcast_state(bool is_join);
  void send_claim(NodeId victim, std::uint64_t hit_id);
  void sample_staleness_and_expire();
  void respawn();

  net::Stack& stack_;
  MazeConfig config_;
  Rng rng_;
  bool in_game_ = false;
  RatState self_state_;
  // Sorted by id: a received state is one binary search, and every walk
  // (missile tiebreak, digest, expiry) visits peers in id order.
  std::vector<std::pair<NodeId, PeerView>> peers_;
  // Shooter side: claim id -> retransmit state, resolved by the ack.
  std::uint64_t next_hit_id_ = 1;
  std::map<std::uint64_t, PendingHit> pending_hits_;
  // Victim side: claim ids already applied, sorted, per shooter — the
  // dedup table that makes at-least-once claim delivery exactly-once on
  // the score. It outlives peer expiry, so a claim re-sent after a
  // partition is not applied twice, and it is no DedupWindow: claim ids
  // count across all victims, so one victim's ids have gaps that a
  // window's floor would pass over unapplied (DESIGN §16).
  std::map<NodeId, std::vector<std::uint64_t>> hits_applied_;
  MazewarStats stats_;
  obs::MetricGroup metrics_;
  obs::Histogram* staleness_ = nullptr;  // owned by the registry via metrics_
  net::PeriodicTimer ticker_;
};

}  // namespace ndsm::apps::mazewar
