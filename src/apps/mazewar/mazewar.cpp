#include "apps/mazewar/mazewar.hpp"

#include <algorithm>
#include <utility>

#include "common/bytes.hpp"
#include "serialize/codec.hpp"

namespace ndsm::apps::mazewar {

namespace {

constexpr double kFireProbability = 0.2;  // per tick, when no missile is in flight
constexpr std::uint64_t kRngSalt = 0x6d617a65;  // "maze"

// The widest state frame: kind, then encode_state's fields at their
// longest varints (x, y, missile x and y 5 bytes each as int32s; score and
// seq 10 each; dir, missile flag and missile dir 1 each).
constexpr std::size_t kMaxStateFrame = 1 + 5 + 5 + 1 + 10 + 10 + 1 + 5 + 5 + 1;

// Wire kinds on Proto::kMazewar. State and join carry the same body; join
// additionally tells receivers to treat the sender as newly arrived.
enum class Kind : std::uint8_t {
  kJoin = 1,
  kState = 2,
  kLeave = 3,
  kHit = 4,
  kHitAck = 5,
};

void encode_state(serialize::Writer& w, const RatState& s) {
  w.svarint(s.x);
  w.svarint(s.y);
  w.u8(static_cast<std::uint8_t>(s.dir));
  w.svarint(s.score);
  w.varint(s.seq);
  w.boolean(s.missile_live);
  w.svarint(s.missile_x);
  w.svarint(s.missile_y);
  w.u8(static_cast<std::uint8_t>(s.missile_dir));
}

[[nodiscard]] std::optional<RatState> decode_state(serialize::Reader& r) {
  RatState s;
  const auto x = r.svarint();
  const auto y = r.svarint();
  const auto dir = r.u8();
  const auto score = r.svarint();
  const auto seq = r.varint();
  const auto missile_live = r.boolean();
  const auto mx = r.svarint();
  const auto my = r.svarint();
  const auto mdir = r.u8();
  if (!x || !y || !dir || !score || !seq || !missile_live || !mx || !my || !mdir) {
    return std::nullopt;
  }
  if (*dir > 3 || *mdir > 3) return std::nullopt;
  s.x = static_cast<std::int32_t>(*x);
  s.y = static_cast<std::int32_t>(*y);
  s.dir = static_cast<Dir>(*dir);
  s.score = *score;
  s.seq = *seq;
  s.missile_live = *missile_live;
  s.missile_x = static_cast<std::int32_t>(*mx);
  s.missile_y = static_cast<std::int32_t>(*my);
  s.missile_dir = static_cast<Dir>(*mdir);
  return s;
}

// The record for `id` in an id-sorted peer table, or where it would go.
template <class Table>
[[nodiscard]] auto find_slot(Table& peers, NodeId id) {
  return std::lower_bound(peers.begin(), peers.end(), id,
                          [](const auto& record, NodeId key) { return record.first < key; });
}

[[nodiscard]] std::int32_t dir_dx(Dir d) {
  return d == Dir::kEast ? 1 : d == Dir::kWest ? -1 : 0;
}

[[nodiscard]] std::int32_t dir_dy(Dir d) {
  return d == Dir::kSouth ? 1 : d == Dir::kNorth ? -1 : 0;
}

}  // namespace

Player::Player(net::Stack& stack, MazeConfig config)
    : stack_(stack),
      config_(config),
      rng_(stack.fork_rng(kRngSalt ^ stack.self().value())),
      ticker_(stack, config.state_period, [this] { tick(); }) {
  metrics_.set_labels("apps.mazewar", static_cast<std::int64_t>(stack_.self().value()));
  metrics_.counter("apps.mazewar.states_sent", &stats_.states_sent);
  metrics_.counter("apps.mazewar.states_received", &stats_.states_received);
  metrics_.counter("apps.mazewar.stale_states_dropped", &stats_.stale_states_dropped);
  metrics_.counter("apps.mazewar.malformed_dropped", &stats_.malformed_dropped);
  metrics_.counter("apps.mazewar.hits_confirmed", &stats_.hits_confirmed);
  metrics_.counter("apps.mazewar.hits_suffered", &stats_.hits_suffered);
  staleness_ = &metrics_.histogram("apps.mazewar.staleness_ms", obs::latency_ms_bounds());

  respawn();
  in_game_ = true;
  stack_.set_frame_handler(net::Proto::kMazewar,
                           [this](const net::LinkFrame& f) { on_frame(f); });
  broadcast_state(/*is_join=*/true);
  ticker_.start();
}

Player::~Player() {
  if (in_game_) leave();
  stack_.clear_frame_handler(net::Proto::kMazewar);
}

void Player::leave() {
  if (!in_game_) return;
  in_game_ = false;
  ticker_.stop();
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kLeave));
  stack_.broadcast_frame(net::Proto::kMazewar, std::move(w).take());
}

void Player::respawn() {
  // Deterministic open cell: draw interior coordinates, then nudge off a
  // pillar (both-odd) by stepping x to the adjacent even column.
  std::int32_t x = static_cast<std::int32_t>(rng_.uniform_int(1, config_.width - 2));
  const std::int32_t y = static_cast<std::int32_t>(rng_.uniform_int(1, config_.height - 2));
  if (is_wall(config_, x, y)) x = (x == 1) ? 2 : x - 1;
  self_state_.x = x;
  self_state_.y = y;
  self_state_.dir = static_cast<Dir>(rng_.uniform_int(0, 3));
}

void Player::turn(Dir dir) { self_state_.dir = dir; }

bool Player::step_forward() {
  const std::int32_t nx = self_state_.x + dir_dx(self_state_.dir);
  const std::int32_t ny = self_state_.y + dir_dy(self_state_.dir);
  if (is_wall(config_, nx, ny)) return false;
  self_state_.x = nx;
  self_state_.y = ny;
  return true;
}

bool Player::fire() {
  if (self_state_.missile_live) return false;
  self_state_.missile_live = true;
  self_state_.missile_x = self_state_.x;
  self_state_.missile_y = self_state_.y;
  self_state_.missile_dir = self_state_.dir;
  stats_.shots_fired++;
  return true;
}

void Player::autopilot_move() {
  if (rng_.uniform() < 0.3) {
    self_state_.dir = static_cast<Dir>(rng_.uniform_int(0, 3));
  }
  // Blocked? Rotate clockwise until an open cell appears (always does: no
  // open cell in a pillar maze is fully enclosed).
  for (int attempts = 0; attempts < 4 && !step_forward(); ++attempts) {
    self_state_.dir = static_cast<Dir>((static_cast<std::uint8_t>(self_state_.dir) + 1) % 4);
  }
  if (!self_state_.missile_live && rng_.uniform() < kFireProbability) fire();
}

void Player::advance_missile() {
  if (!self_state_.missile_live) return;
  const std::int32_t nx = self_state_.missile_x + dir_dx(self_state_.missile_dir);
  const std::int32_t ny = self_state_.missile_y + dir_dy(self_state_.missile_dir);
  if (is_wall(config_, nx, ny)) {
    self_state_.missile_live = false;
    return;
  }
  self_state_.missile_x = nx;
  self_state_.missile_y = ny;
  // Hit check against last-known peer positions (shooter-side judgement,
  // as in the original Mazewar: the claim is then settled with the victim
  // over the acked exchange). The table's id order makes the
  // multi-occupant tiebreak deterministic: the lowest id is hit. The walk
  // ends at the claim, so nothing send_claim() might re-enter can insert
  // into the table under it.
  for (const auto& [peer, view] : peers_) {
    if (view.state.x == nx && view.state.y == ny) {
      self_state_.missile_live = false;
      const std::uint64_t hit_id = next_hit_id_++;
      pending_hits_.emplace(hit_id, PendingHit{peer, stack_.now() + config_.hit_retry});
      send_claim(peer, hit_id);
      break;
    }
  }
}

void Player::broadcast_state(bool is_join) {
  self_state_.seq++;
  serialize::Writer w;
  w.reserve(kMaxStateFrame);
  w.u8(static_cast<std::uint8_t>(is_join ? Kind::kJoin : Kind::kState));
  encode_state(w, self_state_);
  stack_.broadcast_frame(net::Proto::kMazewar, std::move(w).take());
  stats_.states_sent++;
}

void Player::send_claim(NodeId victim, std::uint64_t hit_id) {
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kHit));
  w.varint(hit_id);
  stack_.send_frame(victim, net::Proto::kMazewar, std::move(w).take());
  stats_.hit_claims_sent++;
}

void Player::sample_staleness_and_expire() {
  const Time now = stack_.now();
  const auto live_end = std::remove_if(peers_.begin(), peers_.end(), [&](const auto& record) {
    const Time age = now - record.second.last_heard;
    staleness_->observe(static_cast<double>(age) / 1000.0);
    return age > config_.peer_timeout;
  });
  stats_.peers_expired += static_cast<std::uint64_t>(peers_.end() - live_end);
  peers_.erase(live_end, peers_.end());
}

void Player::tick() {
  if (!in_game_) return;
  if (config_.autopilot) autopilot_move();
  advance_missile();
  broadcast_state(/*is_join=*/false);
  const Time now = stack_.now();
  for (auto& [hit_id, pending] : pending_hits_) {
    if (now >= pending.next_retry) {
      send_claim(pending.victim, hit_id);
      pending.next_retry = now + config_.hit_retry;
    }
  }
  sample_staleness_and_expire();
}

void Player::on_frame(const net::LinkFrame& frame) {
  serialize::Reader r(frame.payload());
  const auto kind = r.u8();
  if (!kind) {
    stats_.malformed_dropped++;
    return;
  }
  switch (static_cast<Kind>(*kind)) {
    case Kind::kJoin:
    case Kind::kState: {
      const auto state = decode_state(r);
      if (!state) {
        stats_.malformed_dropped++;
        return;
      }
      on_state(frame.src, *state, static_cast<Kind>(*kind) == Kind::kJoin);
      return;
    }
    case Kind::kLeave: {
      const auto departed = find_slot(peers_, frame.src);
      if (departed != peers_.end() && departed->first == frame.src) {
        peers_.erase(departed);
        stats_.leaves_seen++;
      }
      // Abandon claims against the departed: nobody is left to ack them.
      for (auto it = pending_hits_.begin(); it != pending_hits_.end();) {
        it = (it->second.victim == frame.src) ? pending_hits_.erase(it) : std::next(it);
      }
      return;
    }
    case Kind::kHit: {
      const auto hit_id = r.varint();
      if (!hit_id) {
        stats_.malformed_dropped++;
        return;
      }
      on_hit(frame.src, *hit_id);
      return;
    }
    case Kind::kHitAck: {
      const auto hit_id = r.varint();
      if (!hit_id) {
        stats_.malformed_dropped++;
        return;
      }
      on_hit_ack(frame.src, *hit_id);
      return;
    }
  }
  stats_.malformed_dropped++;
}

void Player::on_state(NodeId src, const RatState& state, bool is_join) {
  stats_.states_received++;
  const auto it = find_slot(peers_, src);
  if (it == peers_.end() || it->first != src) {
    stats_.joins_seen += is_join ? 1 : 0;
    peers_.emplace(it, src, PeerView{state, stack_.now()});
    return;
  }
  // Any valid packet proves liveness; only newer state replaces the view
  // (a reordered duplicate must never roll a peer backwards).
  it->second.last_heard = stack_.now();
  if (state.seq <= it->second.state.seq) {
    stats_.stale_states_dropped++;
    return;
  }
  it->second.state = state;
}

void Player::on_hit(NodeId shooter, std::uint64_t hit_id) {
  if (!in_game_) return;  // a departed player is not a target
  // A shooter numbers its claims in increasing order, so the insert is
  // almost always an append.
  auto& applied = hits_applied_[shooter];
  const auto at = std::lower_bound(applied.begin(), applied.end(), hit_id);
  if (at == applied.end() || *at != hit_id) {
    applied.insert(at, hit_id);
    self_state_.score -= kHitPenalty;
    stats_.hits_suffered++;
    respawn();
  } else {
    stats_.duplicate_claims++;
  }
  // Always re-ack: the previous ack may have been lost, and the dedup
  // table above keeps the re-application from double-counting.
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kHitAck));
  w.varint(hit_id);
  stack_.send_frame(shooter, net::Proto::kMazewar, std::move(w).take());
}

void Player::on_hit_ack(NodeId /*victim*/, std::uint64_t hit_id) {
  const auto it = pending_hits_.find(hit_id);
  if (it == pending_hits_.end()) return;  // duplicate ack
  pending_hits_.erase(it);
  self_state_.score += kHitReward;
  stats_.hits_confirmed++;
}

const PeerView* Player::peer(NodeId id) const {
  const auto it = find_slot(peers_, id);
  return it != peers_.end() && it->first == id ? &it->second : nullptr;
}

std::uint64_t Player::digest() const {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, stack_.self().value());
  h = fnv_mix(h, static_cast<std::uint64_t>(self_state_.x));
  h = fnv_mix(h, static_cast<std::uint64_t>(self_state_.y));
  h = fnv_mix(h, static_cast<std::uint64_t>(self_state_.dir));
  h = fnv_mix(h, static_cast<std::uint64_t>(self_state_.score));
  h = fnv_mix(h, self_state_.seq);
  for (const auto& [peer, view] : peers_) {
    h = fnv_mix(h, peer.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(view.state.x));
    h = fnv_mix(h, static_cast<std::uint64_t>(view.state.y));
    h = fnv_mix(h, static_cast<std::uint64_t>(view.state.score));
    h = fnv_mix(h, view.state.seq);
  }
  h = fnv_mix(h, stats_.hits_confirmed);
  h = fnv_mix(h, stats_.hits_suffered);
  h = fnv_mix(h, stats_.states_sent);
  return h;
}

}  // namespace ndsm::apps::mazewar
