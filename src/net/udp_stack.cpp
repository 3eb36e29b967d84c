// Real-socket backend for the net::Stack seam. This file (src/net/udp*)
// is on the ndsm_lint wall-clock/raw-concurrency allowlist: it is the one
// place below the middleware where real time and real sockets are the
// point. Nothing here may leak into the sim path — the only shared
// vocabulary is net/frame.hpp.

#include "net/udp_stack.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <utility>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "net/udp_wire.hpp"

namespace ndsm::net {

namespace {

constexpr std::size_t kMaxDatagram = 65000;

[[nodiscard]] Time monotonic_micros() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<Time>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

[[nodiscard]] std::uint64_t realtime_micros() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000;
}

// Strictly increasing across successive constructions within a process
// (two stacks created in the same microsecond must not share an epoch).
[[nodiscard]] std::uint64_t next_epoch() {
  static std::uint64_t last = 0;
  std::uint64_t e = realtime_micros();
  if (e <= last) e = last + 1;
  last = e;
  return e;
}

[[nodiscard]] sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_nonblocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

// The unicast port of `node`: port_base + node id, or nullopt when that
// does not fit in 16 bits (a cast would wrap it onto someone else's port).
[[nodiscard]] std::optional<std::uint16_t> node_port(std::uint16_t port_base, NodeId node) {
  const std::uint64_t port = std::uint64_t{port_base} + node.value();
  if (port > 0xffff) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

[[nodiscard]] Status no_port(NodeId node) {
  return {ErrorCode::kUnreachable,
          "port_base + node id " + std::to_string(node.value()) + " exceeds port 65535"};
}

}  // namespace

UdpStack::UdpStack(NodeId self, UdpStackConfig config)
    : self_(self),
      config_(std::move(config)),
      epoch_(next_epoch()),
      // Seeded from process entropy (pid + real time): not reproducible.
      timers_(sim::SimulatorConfig{
          .seed = splitmix64(epoch_ ^ (static_cast<std::uint64_t>(getpid()) << 32) ^
                             self.value())}) {
  if (!node_port(config_.port_base, self_)) {
    throw std::invalid_argument("UdpStack: port_base " + std::to_string(config_.port_base) +
                                " + node id " + std::to_string(self_.value()) +
                                " exceeds port 65535");
  }
  if (config_.multicast_port == 0) {
    config_.multicast_port = static_cast<std::uint16_t>(config_.port_base - 1);
  }
  open_sockets();
  if (ucast_fd_ < 0) {
    throw std::runtime_error("UdpStack: cannot bind 127.0.0.1:" +
                             std::to_string(unicast_port()) + ": " + std::strerror(errno));
  }
  online_ = true;
  metrics_.set_labels("net.udp", static_cast<std::int64_t>(self_.value()));
  metrics_.counter("net.udp.datagrams_sent", &stats_.datagrams_sent);
  metrics_.counter("net.udp.datagrams_received", &stats_.datagrams_received);
  metrics_.counter("net.udp.bad_datagrams", &stats_.bad_datagrams);
  metrics_.counter("net.udp.frames_dropped", &stats_.frames_dropped);
  metrics_.counter("net.udp.polls", &stats_.polls);
  metrics_.counter("net.udp.eintr_retries", &stats_.eintr_retries);
  // Stamp log/trace records with the host's monotonic time.
  bind_sim_clock(this, [](const void*) { return monotonic_micros(); });
}

UdpStack::~UdpStack() {
  unbind_sim_clock(this);
  close_sockets();
}

std::uint16_t UdpStack::unicast_port() const { return *node_port(config_.port_base, self_); }

void UdpStack::open_sockets() {
  ucast_fd_ = socket(AF_INET, SOCK_DGRAM, 0);
  if (ucast_fd_ < 0) return;
  set_nonblocking(ucast_fd_);
  sockaddr_in addr = loopback_addr(unicast_port());
  if (bind(ucast_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(ucast_fd_);
    ucast_fd_ = -1;
    return;
  }
  // Route outgoing multicast over loopback and deliver it back to local
  // group members (including our own receive socket; own frames are
  // filtered on receive to match the sim's no-self-delivery broadcast).
  in_addr loop{};
  loop.s_addr = htonl(INADDR_LOOPBACK);
  setsockopt(ucast_fd_, IPPROTO_IP, IP_MULTICAST_IF, &loop, sizeof(loop));
  const std::uint8_t on = 1;
  setsockopt(ucast_fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &on, sizeof(on));
  const std::uint8_t ttl = 1;
  setsockopt(ucast_fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl));

  // Broadcast receive path: join the group on a dedicated socket bound to
  // the shared multicast port. Any failure here is non-fatal — we fall
  // back to unicast fan-out over config_.peers.
  mcast_recv_fd_ = socket(AF_INET, SOCK_DGRAM, 0);
  if (mcast_recv_fd_ >= 0) {
    set_nonblocking(mcast_recv_fd_);
    const int one = 1;
    setsockopt(mcast_recv_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
    setsockopt(mcast_recv_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
#endif
    sockaddr_in maddr{};
    maddr.sin_family = AF_INET;
    maddr.sin_port = htons(config_.multicast_port);
    maddr.sin_addr.s_addr = htonl(INADDR_ANY);
    ip_mreq mreq{};
    const bool ok =
        inet_pton(AF_INET, config_.multicast_group.c_str(), &mreq.imr_multiaddr) == 1 &&
        (mreq.imr_interface.s_addr = htonl(INADDR_LOOPBACK),
         bind(mcast_recv_fd_, reinterpret_cast<const sockaddr*>(&maddr), sizeof(maddr)) == 0) &&
        setsockopt(mcast_recv_fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof(mreq)) == 0;
    if (!ok) {
      close(mcast_recv_fd_);
      mcast_recv_fd_ = -1;
      NDSM_WARN("udp", "multicast join failed (" << std::strerror(errno)
                                                 << "); broadcasts fall back to unicast "
                                                    "fan-out over "
                                                 << config_.peers.size() << " peers");
    }
  }
}

void UdpStack::close_sockets() {
  if (ucast_fd_ >= 0) close(ucast_fd_);
  if (mcast_recv_fd_ >= 0) close(mcast_recv_fd_);
  ucast_fd_ = -1;
  mcast_recv_fd_ = -1;
}

bool UdpStack::set_link_up() {
  if (online_) return true;
  open_sockets();
  online_ = ucast_fd_ >= 0;
  return online_;
}

void UdpStack::set_link_down() {
  close_sockets();
  online_ = false;
}

std::optional<Vec2> UdpStack::position_of(NodeId node) const {
  if (node == self_) return config_.position;
  const auto it = config_.peer_positions.find(node);
  if (it == config_.peer_positions.end()) return std::nullopt;
  return it->second;
}

bool UdpStack::peer_online(NodeId node) const {
  if (node == self_) return online_;
  for (const NodeId peer : config_.peers) {
    if (peer == node) return true;
  }
  return !config_.peer_positions.empty() && config_.peer_positions.count(node) > 0;
}

Status UdpStack::send_datagram(const Bytes& wire, std::uint16_t port, bool multicast) {
  sockaddr_in addr{};
  if (multicast) {
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, config_.multicast_group.c_str(), &addr.sin_addr) != 1) {
      return {ErrorCode::kInvalidArgument, "bad multicast group"};
    }
  } else {
    addr = loopback_addr(port);
  }
  ssize_t n = -1;
  do {
    n = sendto(ucast_fd_, wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (n < 0 && errno == EINTR) stats_.eintr_retries++;
  } while (n < 0 && errno == EINTR);
  if (n < 0) return {ErrorCode::kUnavailable, std::strerror(errno)};
  stats_.datagrams_sent++;
  stats_.bytes_sent += wire.size();
  return Status::ok();
}

Status UdpStack::send_frame(NodeId dst, Proto proto, Bytes payload) {
  if (!online_) return {ErrorCode::kResourceExhausted, "stack is link-down"};
  if (payload.size() + kUdpHeaderSize > kMaxDatagram) {
    return {ErrorCode::kInvalidArgument, "frame exceeds datagram limit"};
  }
  const Bytes wire = encode_wire_datagram({proto, self_, dst}, payload);
  if (dst != kBroadcast) {
    const auto port = node_port(config_.port_base, dst);
    return port ? send_datagram(wire, *port, false) : no_port(dst);
  }
  if (using_multicast()) return send_datagram(wire, config_.multicast_port, true);
  Status status = Status::ok();
  for (const NodeId peer : config_.peers) {
    if (peer == self_) continue;
    const auto port = node_port(config_.port_base, peer);
    const Status s = port ? send_datagram(wire, *port, false) : no_port(peer);
    if (!s.is_ok()) status = s;
  }
  return status;
}

Status UdpStack::broadcast_frame(Proto proto, Bytes payload) {
  return send_frame(kBroadcast, proto, std::move(payload));
}

void UdpStack::set_frame_handler(Proto proto, FrameHandler handler) {
  handlers_[proto] = std::move(handler);
}

void UdpStack::clear_frame_handler(Proto proto) { handlers_.erase(proto); }

void UdpStack::on_datagram(const std::uint8_t* data, std::size_t len) {
  const auto header = parse_wire_header(data, len);
  if (!header) {
    // Hostile or stray traffic (the fuzz target udp_wire exercises this
    // path): count it separately and never look past the header check.
    stats_.bad_datagrams++;
    return;
  }
  const auto [proto, src, dst] = *header;
  // Own multicast echo (IP_MULTICAST_LOOP): the sim never delivers a
  // broadcast back to its sender, so neither do we.
  if (src == self_) return;
  if (dst != self_ && dst != kBroadcast) {
    stats_.frames_dropped++;
    return;
  }
  LinkFrame frame;
  frame.src = src;
  frame.dst = dst;
  frame.medium = MediumId::invalid();
  frame.proto = proto;
  frame.payload_buf =
      std::make_shared<const Bytes>(data + kUdpHeaderSize, data + len);
  const auto it = handlers_.find(proto);
  if (it == handlers_.end()) {
    stats_.frames_dropped++;
    return;
  }
  // Copy: the handler may rebind/clear itself while running.
  const FrameHandler handler = it->second;
  handler(frame);
}

void UdpStack::drain_fd(int fd) {
  std::uint8_t buf[kMaxDatagram + 512];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) {
        // A signal landed mid-recv: the datagram is still queued, keep
        // draining rather than abandoning it until the next poll wakeup.
        stats_.eintr_retries++;
        continue;
      }
      return;  // EAGAIN/EWOULDBLOCK: drained
    }
    stats_.datagrams_received++;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    on_datagram(buf, static_cast<std::size_t>(n));
  }
}

Time UdpStack::now() const { return monotonic_micros(); }

EventId UdpStack::schedule_after(Time delay, std::function<void()> fn) {
  return timers_.schedule_at(now() + std::max<Time>(delay, 0), std::move(fn));
}

void UdpStack::cancel(EventId id) { timers_.cancel(id); }

Rng UdpStack::fork_rng(std::uint64_t salt) { return timers_.rng().fork(salt); }

// Advances the engine to the host clock until nothing more is due: a
// zero-delay timer armed by a firing one lands after the time read for
// that advance, so one advance alone would leave it for the next pass.
// Returns whether any timer fired.
bool UdpStack::run_due_timers() {
  bool fired = false;
  for (Time t = now(); timers_.next_event_time() <= t; t = now()) {
    timers_.run_until(t);
    fired = true;
  }
  return fired;
}

bool UdpStack::poll_once(Time max_wait) {
  const Time next = timers_.next_event_time();
  Time wait = next == kTimeNever ? max_wait : std::min(max_wait, next - now());
  if (wait < 0) wait = 0;

  // Broadcasts drain before unicasts. On loopback one sender's datagrams
  // reach both sockets in send order, so this keeps the order of a bulk
  // multicast followed by control unicasts (ReplFS stages a write's blocks
  // by multicast, then sends each replica its prepare).
  pollfd fds[2];
  nfds_t nfds = 0;
  if (mcast_recv_fd_ >= 0) fds[nfds++] = {mcast_recv_fd_, POLLIN, 0};
  if (ucast_fd_ >= 0) fds[nfds++] = {ucast_fd_, POLLIN, 0};

  stats_.polls++;
  int ready = 0;
  if (nfds > 0) {
    // ppoll with the exact microsecond timespec. The old int-millisecond
    // ::poll truncated sub-millisecond waits to a 0 ms timeout, so a
    // timer deadline <1 ms away made run_for/run_until hot-loop at 100%
    // CPU until the deadline passed. Retry on EINTR for the remaining
    // wait — a signal is not "ready" and must not shorten the sleep.
    const Time wait_until = now() + wait;
    while (true) {
      Time left = wait_until - now();
      if (left < 0) left = 0;
      timespec ts{left / 1000000, (left % 1000000) * 1000};
      ready = ::ppoll(fds, nfds, &ts, nullptr);
      if (ready >= 0 || errno != EINTR) break;
      stats_.eintr_retries++;
      if (now() >= wait_until) {
        ready = 0;
        break;
      }
    }
    if (ready < 0) ready = 0;  // non-EINTR failure: treat as idle pass
  } else if (wait > 0) {
    timespec ts{wait / 1000000, (wait % 1000000) * 1000};
    timespec rem{};
    while (nanosleep(&ts, &rem) != 0 && errno == EINTR) {
      stats_.eintr_retries++;
      ts = rem;
    }
  }
  for (nfds_t i = 0; i < nfds; ++i) {
    if ((fds[i].revents & POLLIN) != 0) drain_fd(fds[i].fd);
  }
  const bool timers_fired = run_due_timers();
  return ready > 0 || timers_fired;
}

void UdpStack::run_for(Time duration) {
  const Time until = now() + duration;
  while (now() < until) poll_once(until - now());
}

bool UdpStack::run_until(const std::function<bool()>& pred, Time timeout) {
  const Time until = now() + timeout;
  while (!pred()) {
    if (now() >= until) return false;
    poll_once(duration::millis(20));
  }
  return true;
}

}  // namespace ndsm::net
