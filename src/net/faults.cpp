#include "net/faults.hpp"

#include <algorithm>
#include <cassert>

#include "common/audit.hpp"
#include "common/log.hpp"
#include "net/world.hpp"
#include "obs/trace.hpp"

namespace ndsm::net {

DrawSeeds draw_seeds(std::uint64_t world_seed) {
  const std::uint64_t fault_seed = splitmix64(world_seed ^ 0xfa117ab1e5ULL);
  DrawSeeds seeds{};
  for (std::uint64_t tag = kDrawLoss; tag < seeds.size(); ++tag) {
    seeds[tag] = splitmix64(fault_seed ^ tag);
  }
  return seeds;
}

// --- channel faults ------------------------------------------------------------

bool ChannelFaults::separated(NodeId a, NodeId b, Time at) const {
  for (const Partition& p : partitions) {
    if (at < p.start || at >= p.end) continue;
    const bool a_in = std::binary_search(p.island.begin(), p.island.end(), a);
    const bool b_in = std::binary_search(p.island.begin(), p.island.end(), b);
    if (a_in != b_in) return true;
  }
  return false;
}

double ChannelFaults::step_burst(const DrawSeeds& seeds, const Transmission& tx,
                                 BurstStates& bad) const {
  const auto spec = bursts.find(tx.medium);
  if (spec == bursts.end()) return 0.0;
  const std::pair<NodeId, MediumId> chain{tx.src, tx.medium};
  const bool was_bad = bad.count(chain) > 0;
  const double u = hash_uniform(seeds[kDrawBurstChain] ^ salt, tx.src.value(), tx.seq);
  const bool is_bad = was_bad ? u >= spec->second.p_bad_to_good : u < spec->second.p_good_to_bad;
  if (is_bad && !was_bad) bad.insert(chain);
  if (!is_bad && was_bad) bad.erase(chain);
  return is_bad ? spec->second.loss_bad : spec->second.loss_good;
}

// --- the plan on a World -------------------------------------------------------

FaultPlan::FaultPlan(World& world, std::uint64_t fault_seed)
    : world_(world), seeds_(draw_seeds(world.sim().seed())) {
  NDSM_INVARIANT(world_.fault_injector() == nullptr,
                 "a World supports at most one attached FaultPlan");
  channel_.salt = fault_seed;
  world_.set_fault_injector(this);
  register_metrics();
}

FaultPlan::~FaultPlan() {
  if (world_.fault_injector() == this) world_.set_fault_injector(nullptr);
  for (const EventId id : scheduled_) {
    if (id.valid()) world_.sim().cancel(id);
  }
}

void FaultPlan::register_metrics() {
  metrics_.set_labels("net.faults");
  metrics_.counter("net.faults.partition_drops", &stats_.partition_drops);
  metrics_.counter("net.faults.burst_drops", &stats_.burst_drops);
  metrics_.counter("net.faults.duplicates_injected", &stats_.duplicates_injected);
  metrics_.counter("net.faults.frames_jittered", &stats_.frames_jittered);
  metrics_.counter("net.faults.bursts_entered", &stats_.bursts_entered);
  metrics_.counter("net.faults.partitions_started", &stats_.partitions_started);
  metrics_.counter("net.faults.partitions_healed", &stats_.partitions_healed);
  metrics_.counter("net.faults.pauses", &stats_.pauses);
  metrics_.counter("net.faults.resumes", &stats_.resumes);
  metrics_.counter("net.faults.crashes", &stats_.crashes);
  metrics_.counter("net.faults.restarts", &stats_.restarts);
  metrics_.gauge("net.faults.active_partitions",
                 [this] { return static_cast<double>(active_partitions()); });
}

void FaultPlan::schedule(Time after, std::function<void()> fn) {
  scheduled_.push_back(world_.sim().schedule_after(after, std::move(fn)));
}

void FaultPlan::partition(Time at, std::vector<NodeId> island, Time heal_after) {
  std::sort(island.begin(), island.end());
  island.erase(std::unique(island.begin(), island.end()), island.end());
  const Time start = world_.sim().now() + at;
  channel_.partitions.push_back({std::move(island), start, start + heal_after});
  const std::size_t index = channel_.partitions.size() - 1;
  // The window alone decides every drop; these events count and trace
  // its edges.
  schedule(at, [this, index, heal_after] {
    stats_.partitions_started++;
    NDSM_INFO("faults", "partition " << index << " started ("
                                     << channel_.partitions[index].island.size()
                                     << "-node island)");
    obs::Tracer::instance().event("net.faults", "partition_start",
                                  static_cast<std::int64_t>(index), {});
    schedule(heal_after, [this, index] {
      stats_.partitions_healed++;
      NDSM_INFO("faults", "partition " << index << " healed");
      obs::Tracer::instance().event("net.faults", "partition_heal",
                                    static_cast<std::int64_t>(index), {});
    });
  });
}

void FaultPlan::pause(Time at, NodeId node, Time resume_after) {
  schedule(at, [this, node, resume_after] {
    if (!world_.alive(node)) return;  // down already: nothing to pause or resume
    world_.kill(node);
    paused_[node] = world_.sim().now() + resume_after;
    stats_.pauses++;
    schedule(resume_after, [this, node, until = paused_[node]] {
      const auto held = paused_.find(node);
      if (held == paused_.end() || held->second != until) return;
      paused_.erase(held);
      world_.revive(node);
      if (world_.alive(node)) stats_.resumes++;
    });
  });
}

void FaultPlan::crash(Time at, NodeId node, Time restart_after) {
  schedule(at, [this, node, restart_after] {
    NDSM_INVARIANT(crash_hook_ && restart_hook_,
                   "FaultPlan::crash needs set_lifecycle_hooks() wired to node runtimes");
    // A node an earlier crash of this plan holds down stays with that
    // crash: this one and its restart are no-ops.
    if (!crashed_.insert(node).second) return;
    paused_.erase(node);  // a pause's resume must not revive a crashed node
    crash_hook_(node);
    stats_.crashes++;
    schedule(restart_after, [this, node] {
      crashed_.erase(node);
      restart_hook_(node);
      stats_.restarts++;
    });
  });
}

void FaultPlan::set_lifecycle_hooks(LifecycleHook crash_hook, LifecycleHook restart_hook) {
  crash_hook_ = std::move(crash_hook);
  restart_hook_ = std::move(restart_hook);
}

void FaultPlan::burst_loss(MediumId medium, BurstLossSpec spec) {
  assert(spec.p_good_to_bad >= 0 && spec.p_good_to_bad <= 1);
  assert(spec.p_bad_to_good >= 0 && spec.p_bad_to_good <= 1);
  channel_.bursts[medium] = spec;
}

void FaultPlan::duplication(double probability, Time max_extra_delay) {
  assert(probability >= 0 && probability <= 1);
  assert(max_extra_delay >= 0);
  channel_.duplicate_p = probability;
  channel_.duplicate_max = max_extra_delay;
}

void FaultPlan::jitter(double probability, Time max_extra_delay) {
  assert(probability >= 0 && probability <= 1);
  assert(max_extra_delay >= 0);
  channel_.jitter_p = probability;
  channel_.jitter_max = max_extra_delay;
}

std::size_t FaultPlan::active_partitions() const {
  const Time now = world_.sim().now();
  std::size_t n = 0;
  for (const ChannelFaults::Partition& p : channel_.partitions) n += p.start <= now && now < p.end;
  return n;
}

void FaultPlan::on_transmit(Transmission& tx) {
  if (channel_.bursts.empty()) return;
  const std::size_t bad_before = bursting_.size();
  tx.burst_loss = channel_.step_burst(seeds_, tx, bursting_);
  stats_.bursts_entered += bursting_.size() > bad_before ? 1 : 0;
}

FaultDecision FaultPlan::on_frame(const Transmission& tx, NodeId dst) {
  const FaultDecision d = channel_.decide(seeds_, tx, dst);
  if (d.drop) {
    (channel_.separated(tx.src, dst, tx.sent_at) ? stats_.partition_drops : stats_.burst_drops)++;
  }
  stats_.frames_jittered += d.extra_delay > 0 ? 1 : 0;
  stats_.duplicates_injected += d.duplicate ? 1 : 0;
  return d;
}

}  // namespace ndsm::net
