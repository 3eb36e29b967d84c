#pragma once
// net::UdpStack — the real-socket implementation of the net::Stack seam.
// A node::Runtime constructed on one of these runs as an actual OS
// process: unicast frames travel as UDP datagrams to 127.0.0.1:(port_base
// + node id), broadcast frames ride a loopback multicast group (with a
// unicast fan-out fallback for environments where multicast join fails,
// e.g. minimal containers), and the clock is the host's monotonic clock,
// read by a single-threaded poll loop.
//
// What carries over from the sim and what does not (DESIGN §14):
//   * carries over — the entire middleware above the seam: routing,
//     reliable exactly-once transport, discovery, transactions run the
//     same code on both backends; frame shape and Proto demux identical.
//   * does not — determinism. now() is real time, fork_rng() seeds from
//     process entropy, delivery order is whatever the kernel gives us.
//     The sim remains the substrate for every reproducibility claim.
//
// Timers: one event queue under every timeline. Timers live on a
// one-shard sim::Simulator, the engine every simulated timeline runs on,
// so they fire in the same (deadline, creation) order on both backends.
// What differs is only how the engine's clock moves: poll_once() advances
// it to the host's monotonic time until nothing more is due, so a
// zero-delay timer armed by a firing one runs in the same pass. A
// cancelled timer stays in the engine's heap until its deadline reaches
// the top; pending_timers() counts live timers only (DESIGN §14).
//
// Receive order: each poll_once() drains the multicast socket before the
// unicast one. A sender's datagrams reach the two sockets in send order on
// loopback, so a receiver reads a bulk multicast before the unicast
// control frames sent after it (DESIGN §14).
//
// Threading model: none. The owner drives the stack by calling
// poll_once()/run_for()/run_until() from one thread; receive handlers and
// timer callbacks fire inside those calls. This mirrors the sim's
// single-threaded event loop, so middleware code written for the sim
// needs no locking to run here.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ndsm::net {

struct UdpStackConfig {
  // Unicast datagrams for node N go to 127.0.0.1:(port_base + N). Node
  // ids must therefore be small: the constructor throws when port_base +
  // self exceeds 65535, and send_frame() refuses (kUnreachable, no
  // datagram) a destination whose port would.
  std::uint16_t port_base = 47000;
  // Loopback multicast group carrying broadcast frames. Every stack in a
  // fleet must share group + port. The port defaults to port_base - 1.
  std::string multicast_group = "239.192.77.1";
  std::uint16_t multicast_port = 0;
  // Fleet membership, used for (a) the unicast fan-out fallback when the
  // multicast join fails and (b) answering peer_online() for known peers.
  std::vector<NodeId> peers;
  // Static location input (the paper's GPS assumption): this node's
  // position and, optionally, known peer positions for position_of().
  Vec2 position{};
  std::map<NodeId, Vec2> peer_positions;
};

struct UdpStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  // Datagrams that failed wire-header validation: too short for the
  // header, wrong magic, or unknown version. This is the hostile/stray
  // traffic counter (DESIGN §15) — the socket is bound on loopback but
  // anything on the host can write to it, so these are counted and
  // dropped, never parsed further.
  std::uint64_t bad_datagrams = 0;
  // Well-formed frames we discarded anyway: addressed to another node,
  // or no handler bound for the proto. Distinct from bad_datagrams so
  // stray-traffic noise never masks a demux/wiring problem.
  std::uint64_t frames_dropped = 0;
  // One increment per poll_once() pass. The idle loop must block in
  // ppoll for the real remaining wait, so polls stays proportional to
  // timers fired + datagrams — not to CPU speed. A busy-spin regression
  // (e.g. truncating a sub-millisecond wait to a 0 ms poll timeout)
  // shows up here as polls exploding past the timer count; pinned by
  // UdpStackTest.SubMillisecondTimerWaitsDoNotBusySpin.
  std::uint64_t polls = 0;
  // Syscalls (ppoll/sendto/recvfrom/nanosleep) retried after EINTR.
  // Signals must never surface as send errors or dropped datagrams.
  std::uint64_t eintr_retries = 0;
};

class UdpStack final : public Stack {
 public:
  // Opens the sockets (throws std::invalid_argument if port_base + self
  // exceeds 65535, std::runtime_error if the unicast bind fails) and binds
  // the process-global clock hook so log/trace records are stamped with
  // the host's monotonic time.
  explicit UdpStack(NodeId self, UdpStackConfig config = {});
  ~UdpStack() override;

  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  // --- Stack interface -------------------------------------------------------
  [[nodiscard]] NodeId self() const override { return self_; }
  [[nodiscard]] bool online() const override { return online_; }
  bool set_link_up() override;
  void set_link_down() override;

  [[nodiscard]] Vec2 self_position() const override { return config_.position; }
  [[nodiscard]] std::optional<Vec2> position_of(NodeId node) const override;
  // Optimistic: every configured peer is presumed reachable. Failure
  // detection belongs to the layers above (leases, retry exhaustion).
  [[nodiscard]] bool peer_online(NodeId node) const override;

  Status send_frame(NodeId dst, Proto proto, Bytes payload) override;
  Status broadcast_frame(Proto proto, Bytes payload) override;
  void set_frame_handler(Proto proto, FrameHandler handler) override;
  void clear_frame_handler(Proto proto) override;

  // CLOCK_MONOTONIC in microseconds: one timeline shared by every stack
  // and every process on the host, so a fleet's records line up by time.
  [[nodiscard]] Time now() const override;
  EventId schedule_after(Time delay, std::function<void()> fn) override;
  void cancel(EventId id) override;

  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override;
  // Wall-clock microseconds at construction (monotone-guarded): a
  // restarted process always carries a strictly larger epoch, which is
  // what the transport's stale-incarnation rejection needs.
  [[nodiscard]] std::uint64_t incarnation_epoch() const override { return epoch_; }

  // --- event loop ------------------------------------------------------------
  // One scheduler step: wait up to `max_wait` for a datagram or the next
  // timer deadline (whichever is sooner), drain ready datagrams, run due
  // timers. Returns false if there was nothing to do and the full wait
  // elapsed.
  bool poll_once(Time max_wait = duration::millis(50));
  // Drive the loop for (at least) `duration` of stack time.
  void run_for(Time duration);
  // Drive the loop until `pred()` holds or `timeout` elapses; returns
  // whether the predicate held.
  bool run_until(const std::function<bool()>& pred, Time timeout);

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const UdpStats& stats() const { return stats_; }
  // False when the stack fell back to unicast fan-out for broadcasts.
  [[nodiscard]] bool using_multicast() const { return mcast_recv_fd_ >= 0; }
  [[nodiscard]] std::uint16_t unicast_port() const;
  [[nodiscard]] std::size_t pending_timers() const { return timers_.pending(); }

 private:
  void open_sockets();
  void close_sockets();
  Status send_datagram(const Bytes& wire, std::uint16_t port, bool multicast);
  void drain_fd(int fd);
  void on_datagram(const std::uint8_t* data, std::size_t len);
  bool run_due_timers();

  NodeId self_;
  UdpStackConfig config_;
  std::uint64_t epoch_;
  bool online_ = false;
  int ucast_fd_ = -1;
  int mcast_recv_fd_ = -1;  // -1 = multicast unavailable, fan-out in use
  // The timer queue, on host monotonic time; its rng() seeds fork_rng().
  sim::Simulator timers_;
  std::map<Proto, FrameHandler> handlers_;
  UdpStats stats_;
  obs::MetricGroup metrics_;  // declared after stats_: views outlive their source
};

}  // namespace ndsm::net
