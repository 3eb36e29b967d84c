#pragma once
// net::Stack — the network-independence seam (§3.2). Everything a node's
// middleware stack (router, reliable transport, discovery, transactions)
// needs from "the network below" is behind this one per-node interface:
// frame send/broadcast with a Proto-demultiplexed receive callback, node
// identity and link liveness, a clock + one-shot timer source, and the
// determinism plumbing (forked Rng streams, incarnation epochs) that the
// simulator provides exactly and real backends approximate.
//
// Two implementations:
//   * net::WorldStack — a per-node view over the simulated World; the
//     deterministic sim stays the test substrate and is byte-identical to
//     the pre-seam code (same event, RNG-fork and handler order).
//   * net::UdpStack   — real sockets (UDP unicast + broadcast fan-out) and
//     the OS monotonic clock, so a node::Runtime runs as an OS process.
//
// A Stack is a *view from one node*: there is no topology mutation and no
// omniscient state here. The two oracle queries (position_of, peer_online)
// exist because the paper's position-aware routing assumes GPS-grade
// location input; the sim answers from ground truth, a real backend from
// whatever location source it is configured with.

#include <cstdint>
#include <functional>
#include <optional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/periodic_timer.hpp"
#include "common/request_table.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/vec2.hpp"
#include "net/frame.hpp"

namespace ndsm::net {

class World;

class Stack {
 public:
  using FrameHandler = std::function<void(const LinkFrame&)>;

  virtual ~Stack() = default;

  // --- identity & liveness --------------------------------------------------
  [[nodiscard]] virtual NodeId self() const = 0;
  // Whether this node is link-alive (a crashed sim node is offline; a real
  // process with open sockets is online).
  [[nodiscard]] virtual bool online() const = 0;
  // Lifecycle hooks for Runtime::restart()/crash(). set_link_up returns
  // false if the node cannot rejoin (sim: battery exhausted).
  virtual bool set_link_up() = 0;
  virtual void set_link_down() = 0;

  // --- location oracle (GPS assumption, §2) ---------------------------------
  [[nodiscard]] virtual Vec2 self_position() const = 0;
  // Last known position of `node`; nullopt when the backend has none.
  [[nodiscard]] virtual std::optional<Vec2> position_of(NodeId node) const = 0;
  // Liveness oracle for peers. The sim answers from ground truth; real
  // backends answer optimistically (failure detection lives above).
  [[nodiscard]] virtual bool peer_online(NodeId node) const = 0;

  // --- link layer -----------------------------------------------------------
  // Single-hop unicast / broadcast. Loss is silent (transport recovers);
  // errors report locally detectable conditions (unreachable, sender down).
  virtual Status send_frame(NodeId dst, Proto proto, Bytes payload) = 0;
  virtual Status broadcast_frame(Proto proto, Bytes payload) = 0;
  // One handler per protocol, invoked for every inbound frame.
  virtual void set_frame_handler(Proto proto, FrameHandler handler) = 0;
  virtual void clear_frame_handler(Proto proto) = 0;

  // --- clock & timers -------------------------------------------------------
  [[nodiscard]] virtual Time now() const = 0;
  virtual EventId schedule_after(Time delay, std::function<void()> fn) = 0;
  virtual void cancel(EventId id) = 0;

  // --- determinism plumbing -------------------------------------------------
  // Forked random stream, salted. The sim forks the global sim Rng (call
  // order is part of the digest contract); real backends seed from entropy.
  [[nodiscard]] virtual Rng fork_rng(std::uint64_t salt) = 0;
  // Strictly increases across a crash/restart of this node and is echoed
  // in transport frames so stale-incarnation traffic is rejected.
  [[nodiscard]] virtual std::uint64_t incarnation_epoch() const = 0;

  // Escape hatch: the simulated World when this stack is a sim view, else
  // nullptr. Components that genuinely need the omniscient network view
  // (GlobalRoutingTable, MiLAN) are sim-only and reach it through here.
  [[nodiscard]] virtual World* world_ptr() { return nullptr; }
};

// Periodic timer over any Stack: the same implementation as
// sim::PeriodicTimer (start/stop/set_interval semantics and the
// re-arm-after-fn ordering), so components moved onto the seam keep their
// event schedule bit-for-bit.
using PeriodicTimer = BasicPeriodicTimer<Stack>;

// Outstanding requests, and deferred deliveries, over any Stack: each
// dies with the table that holds it (common/request_table.hpp).
template <class Entry>
using RequestTable = BasicRequestTable<Entry, Stack>;

}  // namespace ndsm::net
