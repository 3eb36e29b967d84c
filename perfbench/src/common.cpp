#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <sstream>

namespace perfbench {

using ndsm::Bytes;
using ndsm::net::Proto;

std::int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double wall_s() { return static_cast<double>(wall_ns()) / 1e9; }

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  for (const double v : samples) {
    if (std::isnan(v)) return v;  // a failed measurement fails the result
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

namespace {

cpu_set_t g_affinity;
bool g_pinned = false;

// Reference probe costs: medians on the reference machine (NOTES.md).
constexpr double kRefLapNs = 10.5;          // per step of a lap over the flushed ring
constexpr double kRefRoundTripNs = 2'500.0;  // per loopback UDP round trip
constexpr std::size_t kRingEntries = 64 * 1024;  // 256 KiB, 4,096 cache lines
constexpr std::size_t kLineEntries = 64 / sizeof(std::uint32_t);
constexpr int kRoundTrips = 100;
constexpr int kRecvSpins = 1'000'000;

// The probes' state, built on first use and kept for the process.
class Probes {
 public:
  Probes() : ring_(kRingEntries) {
    // Sattolo's shuffle: one cycle through every entry, in random order.
    for (std::size_t i = 0; i < ring_.size(); ++i) ring_[i] = static_cast<std::uint32_t>(i);
    std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      const std::size_t j = std::uniform_int_distribution<std::size_t>(0, i - 1)(rng);
      std::swap(ring_[i], ring_[j]);
    }
    tx_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    rx_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    udp_ok_ = tx_ >= 0 && rx_ >= 0 &&
              bind(rx_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
              getsockname(rx_, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    to_ = addr;
    if (!udp_ok_) std::fprintf(stderr, "perfbench: no loopback UDP probe; memory probe only\n");
  }
  ~Probes() {
    if (tx_ >= 0) close(tx_);
    if (rx_ >= 0) close(rx_);
  }
  Probes(const Probes&) = delete;
  Probes& operator=(const Probes&) = delete;

  // Nanoseconds per step of one lap over the ring after flushing it from
  // every cache level: 4,096 misses to memory among 61,440 cache hits,
  // whatever the workload left in the caches.
  double flushed_lap_ns() {
#if defined(__x86_64__) || defined(__i386__)
    for (std::size_t i = 0; i < ring_.size(); i += kLineEntries) _mm_clflush(&ring_[i]);
    _mm_mfence();
#endif
    const std::int64_t t0 = thread_cpu_ns();
    std::uint32_t at = pos_;
    for (std::size_t i = 0; i < kRingEntries; ++i) at = ring_[at];
    pos_ = at;
    return static_cast<double>(thread_cpu_ns() - t0) / kRingEntries;
  }

  // Nanoseconds per loopback round trip (sendto, then recv of the same
  // datagram), or 0 when the sockets are unusable.
  double round_trip_ns() {
    if (!udp_ok_) return 0.0;
    for (int i = 0; i < 4; ++i) round_trip();
    const std::int64_t t0 = thread_cpu_ns();
    for (int i = 0; i < kRoundTrips; ++i) {
      if (!round_trip()) return 0.0;
    }
    return static_cast<double>(thread_cpu_ns() - t0) / kRoundTrips;
  }

 private:
  bool round_trip() {
    std::array<char, 64> buf{};
    if (sendto(tx_, buf.data(), buf.size(), 0, reinterpret_cast<const sockaddr*>(&to_),
               sizeof to_) != static_cast<ssize_t>(buf.size())) {
      return false;
    }
    for (int spin = 0; spin < kRecvSpins; ++spin) {
      if (recv(rx_, buf.data(), buf.size(), 0) >= 0) return true;
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return false;
    }
    return false;
  }

  std::vector<std::uint32_t> ring_;
  std::uint32_t pos_ = 0;
  int tx_ = -1;
  int rx_ = -1;
  sockaddr_in to_{};
  bool udp_ok_ = false;
};

}  // namespace

void pin_to_current_cpu() {
  if (sched_getaffinity(0, sizeof g_affinity, &g_affinity) != 0) return;
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  g_pinned = sched_setaffinity(0, sizeof one, &one) == 0;
}

void unpin() {
  if (g_pinned) sched_setaffinity(0, sizeof g_affinity, &g_affinity);
  g_pinned = false;
}

double host_slowness() {
  static Probes probes;
  const double lap = probes.flushed_lap_ns() / kRefLapNs;
  const double round_trip = probes.round_trip_ns() / kRefRoundTripNs;
  return round_trip > 0.0 ? std::sqrt(lap * round_trip) : lap;
}

double timed_setup(const std::function<void()>& build) {
  const double before = host_slowness();
  const double t0 = wall_s();
  build();
  const double took = wall_s() - t0;
  return took / std::sqrt(before * host_slowness());
}

double timed_setup_in_child(const std::function<void()>& build) {
  std::array<int, 2> fds{};
  if (pipe(fds.data()) != 0) return timed_setup(build);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return timed_setup(build);
  }
  if (pid == 0) {
    close(fds[0]);
    const double took = timed_setup(build);
    const bool sent = write(fds[1], &took, sizeof took) == static_cast<ssize_t>(sizeof took);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double took = std::nan("");
  ssize_t got = 0;
  do {
    got = read(fds[0], &took, sizeof took);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool ok = got == static_cast<ssize_t>(sizeof took) && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  if (!ok) std::fprintf(stderr, "perfbench: set-up in child process %d failed\n", pid);
  return ok ? took : std::nan("");
}

void Blocks::mark(std::uint64_t ops_so_far, std::size_t samples_so_far) {
  marks_.push_back(
      {perfbench::wall_s() - probe_wall_, cpu_s() - probe_cpu_, ops_so_far, samples_so_far, 1.0});
  const double w0 = perfbench::wall_s();
  const double c0 = cpu_s();
  marks_.back().slowness = host_slowness();
  probe_wall_ += perfbench::wall_s() - w0;
  probe_cpu_ += cpu_s() - c0;
}

double Blocks::slowness_of(std::size_t block) const {
  return std::sqrt(marks_[block - 1].slowness * marks_[block].slowness);
}

double Blocks::median_ops_per_s(bool scaled) const {
  std::vector<double> rates;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double rate = ratio(static_cast<double>(marks_[i].ops - marks_[i - 1].ops),
                              marks_[i].wall - marks_[i - 1].wall);
    rates.push_back(scaled ? rate * slowness_of(i) : rate);
  }
  return median(rates);
}

double Blocks::median_cpu_us_per_op(bool scaled) const {
  std::vector<double> costs;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double cost = ratio((marks_[i].cpu - marks_[i - 1].cpu) * 1e6,
                              static_cast<double>(marks_[i].ops - marks_[i - 1].ops));
    costs.push_back(scaled ? cost / slowness_of(i) : cost);
  }
  return median(costs);
}

double Blocks::median_slowness() const {
  std::vector<double> s;
  for (const Mark& m : marks_) s.push_back(m.slowness);
  return median(s);
}

double Blocks::median_block_quantile(const std::vector<double>& samples, double q) const {
  std::vector<double> per_block;
  std::vector<double> block;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double slowness = slowness_of(i);
    const std::size_t end = std::min(marks_[i].samples, samples.size());
    block.clear();
    for (std::size_t k = marks_[i - 1].samples; k < end; ++k) block.push_back(samples[k] / slowness);
    if (!block.empty()) per_block.push_back(quantile(block, q));
  }
  return median(per_block);
}

double Blocks::scaled_wall_s() const {
  double total = 0;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    total += (marks_[i].wall - marks_[i - 1].wall) / slowness_of(i);
  }
  return total;
}

std::string Blocks::unscaled_note() const {
  char line[160];
  std::snprintf(line, sizeof line,
                "host slowness %.4f (1 = reference machine); unscaled ops_per_s %.6g, "
                "cpu_us_per_op %.6g",
                median_slowness(), median_ops_per_s(false), median_cpu_us_per_op(false));
  return line;
}

UsHistogram::UsHistogram(ndsm::Time max_us, ndsm::Time bin_us)
    : bin_us_(bin_us), counts_(static_cast<std::size_t>(max_us / bin_us) + 1, 0) {}

void UsHistogram::add(ndsm::Time us) {
  const auto bin = static_cast<std::size_t>(std::max<ndsm::Time>(us, 0) / bin_us_);
  counts_[std::min(bin, counts_.size() - 1)]++;
}

void UsHistogram::clear() { std::fill(counts_.begin(), counts_.end(), 0); }

double UsHistogram::quantile_ms(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts_) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double below = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (c > 0 && below + c >= target) {
      const double at = (static_cast<double>(b) + (target - below) / c) *
                        static_cast<double>(bin_us_);
      return at / 1000.0;
    }
    below += c;
  }
  return static_cast<double>(counts_.size() * static_cast<std::size_t>(bin_us_)) / 1000.0;
}

int work_share(const Options& opt, double per_run) {
  const auto units = static_cast<int>(per_run + 0.5);
  return std::max(1, opt.trace ? units / 2 : units);
}

InputRng input_rng(std::uint64_t seed, std::uint64_t salt) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(salt), static_cast<std::uint32_t>(salt >> 32)};
  return InputRng(seq);
}

std::uint64_t uniform(InputRng& rng, std::uint64_t lo, std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
}

// --- span accounting ----------------------------------------------------------

namespace {

std::string slot_name(int s) {
  static const char* kProto[] = {"?",         "routing", "location", "transport",
                                 "discovery", "app",     "mazewar",  "replfs-data"};
  if (s == slot::kDrive) return "drive(run_until/poll_once)";
  if (s == slot::kTimer) return "timer-callback";
  if (s == slot::kDown) return "net-down(send/broadcast)";
  if (s == slot::kRouteSend) return "router-send/flood";
  if (s == slot::kWrite) return "replfs-client-write";
  if (s >= slot::kUpBase && s < slot::kUpBase + 8) {
    return std::string("up:") + kProto[s - slot::kUpBase];
  }
  if (s >= slot::kDeliverBase && s < slot::kDeliverBase + 8) {
    return std::string("router-deliver:") + kProto[s - slot::kDeliverBase];
  }
  return "slot" + std::to_string(s);
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::begin(int s) {
  if (depth_ == open_.size()) {
    std::fprintf(stderr, "perfbench: span nesting deeper than %zu\n", open_.size());
    std::abort();
  }
  Open& o = open_[depth_++];
  o.slot = s;
  o.child = 0;
  o.start = wall_ns();
}

void Profiler::end() {
  const std::int64_t t = wall_ns();
  const Open& o = open_[--depth_];
  const std::int64_t dur = t - o.start;
  SpanTotals& tot = totals_[static_cast<std::size_t>(o.slot)];
  tot.count++;
  tot.total_ns += dur;
  tot.self_ns += dur - o.child;
  if (depth_ > 0) open_[depth_ - 1].child += dur;
}

void Profiler::reset() {
  depth_ = 0;
  totals_ = {};
}

std::string Profiler::shares() const {
  std::int64_t all = 0;
  std::vector<std::pair<std::int64_t, int>> rows;
  for (int s = 0; s < slot::kCount; ++s) {
    const SpanTotals& t = at(s);
    if (t.count == 0) continue;
    all += t.self_ns;
    rows.emplace_back(t.self_ns, s);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  for (const auto& [self, s] : rows) {
    const SpanTotals& t = at(s);
    out << "  " << slot_name(s) << ": self " << 100.0 * ratio(static_cast<double>(self),
                                                              static_cast<double>(all))
        << "%  spans " << t.count << "  self "
        << ratio(static_cast<double>(self), static_cast<double>(t.count)) << " ns/span\n";
  }
  return out.str();
}

// --- decorators ---------------------------------------------------------------

namespace {
constexpr std::size_t kCaptureEvery = 7;
constexpr std::size_t kCaptureLimit = 4096;
std::vector<Bytes>* g_capture = nullptr;
std::size_t g_capture_seen = 0;
}  // namespace

void TimedStack::capture_routing(std::vector<Bytes>* sink) {
  g_capture = sink;
  g_capture_seen = 0;
}

void TimedStack::set_frame_handler(Proto proto, FrameHandler handler) {
  const int s = up_slot(proto);
  inner_.set_frame_handler(proto, [s, proto, handler = std::move(handler)](
                                      const ndsm::net::LinkFrame& frame) {
    if (proto == Proto::kRouting && g_capture != nullptr && g_capture->size() < kCaptureLimit &&
        g_capture_seen++ % kCaptureEvery == 0) {
      g_capture->push_back(frame.payload());
    }
    const Scope span(s);
    handler(frame);
  });
}

TimedRouter::TimedRouter(ndsm::net::Stack& stack, std::unique_ptr<ndsm::routing::Router> inner)
    : Router(stack), inner_(std::move(inner)) {
  for (int p = static_cast<int>(Proto::kRouting); p <= static_cast<int>(Proto::kReplfsData);
       ++p) {
    const auto upper = static_cast<Proto>(p);
    inner_->set_delivery_handler(upper, [this, upper](ndsm::NodeId origin, const Bytes& payload) {
      const Scope span(deliver_slot(upper));
      deliver_local(origin, upper, payload);
    });
  }
}

const ndsm::routing::RouterStats& router_stats(ndsm::routing::Router& router) {
  if (auto* timed = dynamic_cast<TimedRouter*>(&router)) return timed->inner().stats();
  return router.stats();
}

CodecCost time_routing_codec(const std::vector<Bytes>& frames) {
  CodecCost cost;
  if (frames.empty()) return cost;
  std::vector<ndsm::routing::RoutingHeader> headers(frames.size());
  std::vector<Bytes> payloads(frames.size());
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (ndsm::routing::decode_routing(frames[i], headers[i], payloads[i])) decoded++;
  }
  // Enough passes over the corpus for ~20 ms of codec work per direction.
  const std::size_t passes = std::max<std::size_t>(1, 200'000 / frames.size());
  std::size_t sink = 0;
  std::int64_t t0 = wall_ns();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      ndsm::routing::RoutingHeader h;
      Bytes payload;
      sink += ndsm::routing::decode_routing(frames[i], h, payload) ? payload.size() : 1;
    }
  }
  cost.decode_ns = static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(passes * frames.size());
  t0 = wall_ns();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      sink += ndsm::routing::encode_routing(headers[i], payloads[i]).size();
    }
  }
  cost.encode_ns = static_cast<double>(wall_ns() - t0) /
                   static_cast<double>(passes * frames.size());
  if (sink == 0 || decoded == 0) cost.decode_ns = cost.encode_ns = 0.0;
  return cost;
}

// --- per-layer metric table ----------------------------------------------------

LayerMetrics::LayerMetrics() {
  static const std::pair<const char*, const char*> kTable[] = {
      {"sim_latency_p50_ms", "ms"},
      {"sim_latency_p99_ms", "ms"},
      {"sim.events_per_op", "count"},
      {"sim.self_ns_per_event", "ns"},
      {"sim.sharded.self_ns_per_event", "ns"},
      {"sim.sharded.speedup_nproc", "ratio"},
      {"net.world.deliveries_per_op", "count"},
      {"net.world.down_ns_per_frame", "ns"},
      {"net.world.grid_candidates_per_delivery", "count"},
      {"net.sharded.broadcast_ns", "ns"},
      {"net.sharded.cross_shard_share", "ratio"},
      {"net.udp.datagrams_per_op", "count"},
      {"net.udp.send_ns_per_datagram", "ns"},
      {"net.udp.poll_self_ns_per_op", "ns"},
      {"net.udp.polls_per_op", "count"},
      {"routing.forwards_per_op", "count"},
      {"routing.up_self_ns_per_frame", "ns"},
      {"routing.control_bytes_per_op", "bytes"},
      {"routing.delivered_share", "ratio"},
      {"transport.frames_per_op", "count"},
      {"transport.retransmissions_per_op", "count"},
      {"transport.up_self_ns_per_frame", "ns"},
      {"transport.payload_share", "ratio"},
      {"serialize.routing_decode_ns", "ns"},
      {"serialize.routing_encode_ns", "ns"},
      {"recovery.wal_records_per_op", "count"},
      {"recovery.wal_bytes_per_op", "bytes"},
      {"apps.replfs.prepares_per_op", "count"},
      {"apps.replfs.repaired_share", "ratio"},
      {"apps.replfs.bulk_up_ns_per_block", "ns"},
      {"apps.mazewar.up_ns_per_state", "ns"},
      {"apps.mazewar.tick_ns", "ns"},
      {"obs.tracer_records_per_op", "count"},
      {"obs.registered_metrics", "count"},
      {"node.teardown_s", "s"},
      {"trace_overhead_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kTable) metrics_.push_back({name, 0.0, unit});
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

void LayerMetrics::emit(Report& report) const {
  for (const Metric& m : metrics_) report.metrics.push_back(m);
}

}  // namespace perfbench
