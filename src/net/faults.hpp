#pragma once
// Deterministic fault injection — the adversary the recovery (§3.8), QoS
// (§3.4) and transaction (§3.6) machinery is supposed to survive. The
// media's own loss (LinkSpec) is independent per frame; a fault plan
// scripts everything else against it.
//
// The channel faults are one script, net::ChannelFaults, that the World
// holds (World::faults()) and evaluates the same way for every (frame,
// receiver) at any shard count. A net::FaultPlan writes it on a one-shard
// World; a sharded World's caller writes it before seal().
//
//   * partitions — an "island" node set is split off, and every frame
//     crossing its edge that is sent in [start, end) is dropped,
//   * Gilbert–Elliott burst loss per medium — each sender keeps its own
//     two-state (good/bad) chain per medium, stepped once per
//     transmission, so its losses arrive in bursts instead of
//     independently; the bad chains live in the shard that owns the
//     sender,
//   * frame duplication — a copy of the frame arrives again at least 1 µs
//     and less than `max_extra_delay` after the original,
//   * bounded delay jitter — frames are held back by a random extra
//     delay, reordering traffic across messages. A frame and its own
//     duplicate can never invert (the copy trails by at least 1 µs), and
//     a fragment and its retransmission are byte-identical, so transport
//     correctness only needs the jitter bound to stay below the
//     retransmission timeout — keep `max_extra_delay` under
//     `TransportConfig::initial_rto`.
//
// A FaultPlan also scripts node lifecycles on a one-shard World:
//
//   * pause()/resume — the node goes link-dead (World::kill) with its
//     stack intact, then rejoins (World::revive) unless something else
//     took it down in between,
//   * crash()/restart() — full fail-stop through hooks the deployment
//     wires to node::Runtime::crash()/restart() (the net layer cannot
//     depend on node::); the crash that took a node down is the one that
//     restarts it.
//
// Determinism: every draw is counter-hashed (hash_uniform) over (seed,
// draw tag, sender, the sender's transmission counter, receiver), with
// the seeds derived from the world's seed (draw_seeds). A decision is a
// pure function of the frame's identity, so one extra frame anywhere
// redraws nothing else, and twin runs with the same seed and script are
// byte-identical, event digest included. No wall clock, no global
// randomness (lint-enforced).

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"

namespace ndsm::net {

class World;

// Sub-draw tags of the counter-hashed decisions.
enum DrawTag : std::uint64_t {
  kDrawLoss = 1,  // the medium's own loss
  kDrawDuplicate = 2,
  kDrawJitterGate = 3,
  kDrawJitterAmount = 4,
  kDrawRxKey = 5,  // World: same-instant order of late receptions
  kDrawDuplicateLag = 6,
  kDrawBurstChain = 7,
  kDrawBurstLoss = 8,
};
// One seed per DrawTag, indexed by it.
using DrawSeeds = std::array<std::uint64_t, kDrawBurstLoss + 1>;
[[nodiscard]] DrawSeeds draw_seeds(std::uint64_t world_seed);

// One transmission: a sender's numbered frame on one medium. Every draw
// about it is keyed by (src, seq).
struct Transmission {
  NodeId src;
  std::uint64_t seq = 0;  // the sender's transmission counter
  MediumId medium;
  Time sent_at = 0;
  double burst_loss = 0.0;  // the loss its sender's burst chain adds
};

// The medium's own loss `p` for one receiver; no draw when p is 0.
[[nodiscard]] inline bool channel_lost(const DrawSeeds& seeds, const Transmission& tx,
                                       NodeId dst, double p) {
  return p > 0 && hash_uniform(seeds[kDrawLoss], tx.src.value(), tx.seq, dst.value()) < p;
}

// Per-(frame, receiver) verdict. The duplicate trails the original by
// `duplicate_extra_delay` >= 1, so it can never overtake the frame it
// copies.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  Time extra_delay = 0;            // added to the medium's transmission delay
  Time duplicate_extra_delay = 0;  // duplicate's delay beyond the original's
};

// The (sender, medium) burst chains in the bad state.
using BurstStates = std::set<std::pair<NodeId, MediumId>>;

// Two-state Gilbert–Elliott channel: per-transmission state transitions
// with distinct loss probabilities per state. Defaults model a clean
// channel.
struct BurstLossSpec {
  double p_good_to_bad = 0.0;  // per-transmission P(enter burst)
  double p_bad_to_good = 0.0;  // per-transmission P(leave burst)
  double loss_good = 0.0;      // extra loss while good
  double loss_bad = 0.0;       // extra loss while bad
};

// The channel script a World holds (World::faults()), and the const
// decisions the World takes from it on every shard.
struct ChannelFaults {
  struct Partition {
    std::vector<NodeId> island;  // sorted
    Time start = 0;              // drops frames sent in [start, end)
    Time end = 0;
  };
  std::vector<Partition> partitions;
  std::map<MediumId, BurstLossSpec> bursts;
  // A copy trails its original, and a jittered frame is late, by at least
  // 1 µs and less than the bound (1 µs when the bound is at most 1).
  double duplicate_p = 0.0;
  Time duplicate_max = 0;
  double jitter_p = 0.0;
  Time jitter_max = 0;
  std::uint64_t salt = 0;  // mixed into the fault draws' seeds

  [[nodiscard]] bool separated(NodeId a, NodeId b, Time at) const;
  // True only if decide() returns the default for every receiver of `tx`.
  [[nodiscard]] bool spares(const Transmission& tx) const {
    return partitions.empty() && tx.burst_loss == 0 && jitter_p == 0 && duplicate_p == 0;
  }
  // Step the chain of tx.src on tx.medium for `tx`; `bad` lives with the
  // senders, so no two shards step one chain. Returns the loss the chain
  // adds to the transmission.
  double step_burst(const DrawSeeds& seeds, const Transmission& tx, BurstStates& bad) const;
  [[nodiscard]] FaultDecision decide(const DrawSeeds& seeds, const Transmission& tx,
                                     NodeId dst) const;
};

// Inline: the World takes it for every receiver of every fan-out.
inline FaultDecision ChannelFaults::decide(const DrawSeeds& seeds, const Transmission& tx,
                                           NodeId dst) const {
  const auto draw = [&](DrawTag tag) {
    return hash_uniform(seeds[tag] ^ salt, tx.src.value(), tx.seq, dst.value());
  };
  // An event of probability p needs a draw only when 0 < p < 1.
  const auto happens = [&](DrawTag tag, double p) { return p > 0 && (p >= 1 || draw(tag) < p); };
  // 1 µs plus a uniform share of the rest of `max`.
  const auto lag = [&](DrawTag tag, Time max) {
    return 1 + static_cast<Time>(draw(tag) * static_cast<double>(std::max<Time>(max, 1) - 1));
  };
  FaultDecision d;
  d.drop = (!partitions.empty() && separated(tx.src, dst, tx.sent_at)) ||
           happens(kDrawBurstLoss, tx.burst_loss);
  if (d.drop) return d;
  if (jitter_max > 0 && happens(kDrawJitterGate, jitter_p)) {
    d.extra_delay = lag(kDrawJitterAmount, jitter_max);
  }
  d.duplicate = happens(kDrawDuplicate, duplicate_p);
  if (d.duplicate) d.duplicate_extra_delay = lag(kDrawDuplicateLag, duplicate_max);
  return d;
}

// What a FaultPlan's script did beyond the channel; the World counts the
// per-frame outcomes (WorldStats).
struct FaultStats {
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

class FaultPlan {
 public:
  using LifecycleHook = std::function<void(NodeId)>;

  // Takes over the script of `world`, a one-shard World with no other
  // plan, and leaves it empty on destruction. `fault_seed` salts the fault
  // draws, so two plans with the same script but different seeds draw
  // different (but each reproducible) fault sequences.
  explicit FaultPlan(World& world, std::uint64_t fault_seed = 0xfa017);
  ~FaultPlan();

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // --- scripted faults (times are delays from now, like schedule_after) ----
  // Split `island` from the rest of the world at `at`; heal `heal_after`
  // later. Concurrent partitions compose (a frame is dropped if any active
  // partition separates its endpoints).
  void partition(Time at, std::vector<NodeId> island, Time heal_after);
  // Link-dead at `at` (stack intact), rejoin `resume_after` later. The
  // resume revives the node only if this pause took it down and no crash
  // has taken it down since.
  void pause(Time at, NodeId node, Time resume_after);
  // Fail-stop at `at`, restart `restart_after` later. Requires lifecycle
  // hooks; typically rt.crash()/rt.restart() of the node's Runtime. A
  // crash that finds its node held down by an earlier crash of this plan
  // does nothing, and neither does its restart.
  void crash(Time at, NodeId node, Time restart_after);
  void set_lifecycle_hooks(LifecycleHook crash_hook, LifecycleHook restart_hook);

  // --- stochastic channels (written into the World's script at once) -------
  void burst_loss(MediumId medium, BurstLossSpec spec);
  // Duplicate each frame with `probability`; the copy arrives at least
  // 1 µs and less than `max_extra_delay` after the original.
  void duplication(double probability, Time max_extra_delay);
  // Delay each frame with `probability` by at least 1 µs and less than
  // `max_extra_delay`. Keep the bound below the transport's initial RTO
  // (see header comment).
  void jitter(double probability, Time max_extra_delay);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_partitions() const;

 private:
  void schedule(Time after, std::function<void()> fn);
  void register_metrics();

  World& world_;
  FaultStats stats_;
  // Each node a pause holds down, and when that pause ends (crash()
  // releases it).
  std::map<NodeId, Time> paused_;
  // Each node a crash holds down until its restart.
  std::set<NodeId> crashed_;
  LifecycleHook crash_hook_;
  LifecycleHook restart_hook_;
  // Every scripted event, cancelled on destruction (stale ids are a no-op,
  // so fired events need no bookkeeping).
  std::vector<EventId> scheduled_;
  // Declared last: views point at stats_ above.
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::net
