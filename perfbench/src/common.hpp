#pragma once
// Shared plumbing for the perfbench workloads: options, the result line,
// process clocks, quantiles, and the traced run's span accounting plus the
// two decorators that take spans at the net::Stack and routing::Router
// seams. Everything here is single-threaded except the clocks.

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/stack.hpp"
#include "routing/router.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Fingerprint entries beyond the common ones (key, JSON value text).
  std::vector<std::pair<std::string, std::string>> fingerprint;
  // Human-readable findings printed before the result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed correctness check; the run then exits nonzero.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
};

// --- clocks and process figures ----------------------------------------------
[[nodiscard]] std::int64_t wall_ns();  // CLOCK_MONOTONIC
[[nodiscard]] double wall_s();
[[nodiscard]] double cpu_s();  // process user+sys CPU time
[[nodiscard]] std::int64_t thread_cpu_ns();  // calling thread's CPU time
[[nodiscard]] double peak_rss_mb();

// Keeps the calling thread (and threads it creates later) on the CPU it
// runs on now, so the host-speed probes below time the same vCPU as the
// workload; unpin() restores the affinity seen by pin_to_current_cpu().
void pin_to_current_cpu();
void unpin();

// How slow the host is right now, relative to the reference machine: the
// geometric mean of two fixed probes' thread CPU times over their
// reference times (above 1 = slower). The probes are one lap of a pointer
// chase over a 256 KiB ring flushed from the caches, and 100 loopback UDP
// round trips. On a shared cloud host both swing by 1.2-1.6x with the
// other tenants' load, in step with every workload here, while a pure ALU
// loop does not move; dividing a timed figure by the slowness measured
// next to it removes most of that swing. Takes about 1 ms.
[[nodiscard]] double host_slowness();

// Linear-interpolated quantile (q in [0,1]) of unsorted samples; sorts.
[[nodiscard]] double quantile(std::vector<double>& samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double ratio(double num, double den);

// Wall and CPU clocks read at the block boundaries of a timed phase (equal
// shares of its work), with a host_slowness() probe at every boundary
// whose own time is left out of the blocks. Throughput and CPU cost are
// medians over the blocks of each block's figure scaled by the slowness
// at its two ends, so they read as on the reference machine; one slow
// stretch of a shared host moves neither.
class Blocks {
 public:
  static constexpr int kCount = 50;
  // `samples_so_far` is the size of the phase's per-op sample vector, so
  // scale_samples() knows which block each sample fell in. The first call
  // starts the phase.
  void mark(std::uint64_t ops_so_far, std::size_t samples_so_far = 0);
  [[nodiscard]] double median_ops_per_s(bool scaled = true) const;
  [[nodiscard]] double median_cpu_us_per_op(bool scaled = true) const;
  [[nodiscard]] double median_slowness() const;
  // Quantile `q` of the samples taken inside each block, scaled by that
  // block's slowness; the median over the blocks. A host stall that lands
  // in a few blocks then does not set the tail, while a tail the program
  // makes in most blocks still shows.
  [[nodiscard]] double median_block_quantile(const std::vector<double>& samples, double q) const;
  // Wall time of the whole phase, probes excluded, block by block scaled.
  [[nodiscard]] double scaled_wall_s() const;
  // One line with the unscaled figures and the host's slowness.
  [[nodiscard]] std::string unscaled_note() const;

 private:
  struct Mark {
    double wall = 0;
    double cpu = 0;
    std::uint64_t ops = 0;
    std::size_t samples = 0;
    double slowness = 1.0;
  };
  [[nodiscard]] double slowness_of(std::size_t block) const;  // block >= 1
  std::vector<Mark> marks_;
  double probe_wall_ = 0;  // probe time taken so far, left out of the marks
  double probe_cpu_ = 0;
};

// Fixed-bin histogram of non-negative microsecond values (the last bin
// catches overflow); quantiles interpolate linearly inside a bin.
class UsHistogram {
 public:
  UsHistogram(ndsm::Time max_us, ndsm::Time bin_us);
  void add(ndsm::Time us);
  void clear();
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  ndsm::Time bin_us_;
  std::vector<std::uint64_t> counts_;
};

// Units of work for one timed pass: `per_run` rounded, halved for the
// traced run, whose untraced and traced passes together then take about
// as long as one untraced run.
[[nodiscard]] int work_share(const Options& opt, double per_run);

// Deterministic benchmark-side input stream (never the program's Rng).
using InputRng = std::mt19937_64;
[[nodiscard]] InputRng input_rng(std::uint64_t seed, std::uint64_t salt);
[[nodiscard]] std::uint64_t uniform(InputRng& rng, std::uint64_t lo, std::uint64_t hi);

// --- span accounting (traced run) --------------------------------------------
// Spans nest on one explicit stack; when a span ends its duration is
// charged to its slot's total and to its parent's child time, so each
// slot's self time is its spans minus the spans directly beneath them.
namespace slot {
constexpr int kDrive = 0;      // the benchmark's run_until / poll_once calls
constexpr int kTimer = 1;      // timer callbacks armed through net::Stack
constexpr int kDown = 2;       // net::Stack send_frame / broadcast_frame
constexpr int kRouteSend = 3;  // routing::Router send / flood
constexpr int kWrite = 4;      // the benchmark's replfs Client::write calls
constexpr int kUpBase = 8;     // frame handler up-calls, + net::Proto value
constexpr int kDeliverBase = 16;  // router -> upper-layer delivery, + Proto
constexpr int kCount = 24;
}  // namespace slot

[[nodiscard]] inline int up_slot(ndsm::net::Proto p) {
  return slot::kUpBase + static_cast<int>(p);
}
[[nodiscard]] inline int deliver_slot(ndsm::net::Proto p) {
  return slot::kDeliverBase + static_cast<int>(p);
}

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Profiler {
 public:
  static Profiler& instance();

  void begin(int s);
  void end();
  void reset();
  [[nodiscard]] const SpanTotals& at(int s) const { return totals_[static_cast<std::size_t>(s)]; }
  // Self-time share of every slot with spans, largest first, as text.
  [[nodiscard]] std::string shares() const;

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child = 0;
    int slot = 0;
  };
  std::array<Open, 256> open_{};
  std::size_t depth_ = 0;
  std::array<SpanTotals, slot::kCount> totals_{};
};

class Scope {
 public:
  explicit Scope(int s) { Profiler::instance().begin(s); }
  ~Scope() { Profiler::instance().end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

// Runs `f` inside a span of slot `s` when `traced`, else plainly.
template <class F>
void maybe_span(bool traced, int s, F&& f) {
  if (!traced) {
    f();
    return;
  }
  const Scope span(s);
  f();
}

// Forwarding net::Stack decorator: every call goes to `inner` unchanged,
// with spans around down-calls, frame handler up-calls and timer
// callbacks. Optionally copies kRouting payloads for the codec timing.
class TimedStack final : public ndsm::net::Stack {
 public:
  explicit TimedStack(ndsm::net::Stack& inner) : inner_(inner) {}

  [[nodiscard]] ndsm::NodeId self() const override { return inner_.self(); }
  [[nodiscard]] bool online() const override { return inner_.online(); }
  bool set_link_up() override { return inner_.set_link_up(); }
  void set_link_down() override { inner_.set_link_down(); }
  [[nodiscard]] ndsm::Vec2 self_position() const override { return inner_.self_position(); }
  [[nodiscard]] std::optional<ndsm::Vec2> position_of(ndsm::NodeId node) const override {
    return inner_.position_of(node);
  }
  [[nodiscard]] bool peer_online(ndsm::NodeId node) const override {
    return inner_.peer_online(node);
  }
  ndsm::Status send_frame(ndsm::NodeId dst, ndsm::net::Proto proto,
                          ndsm::Bytes payload) override {
    const Scope span(slot::kDown);
    return inner_.send_frame(dst, proto, std::move(payload));
  }
  ndsm::Status broadcast_frame(ndsm::net::Proto proto, ndsm::Bytes payload) override {
    const Scope span(slot::kDown);
    return inner_.broadcast_frame(proto, std::move(payload));
  }
  void set_frame_handler(ndsm::net::Proto proto, FrameHandler handler) override;
  void clear_frame_handler(ndsm::net::Proto proto) override {
    inner_.clear_frame_handler(proto);
  }
  [[nodiscard]] ndsm::Time now() const override { return inner_.now(); }
  ndsm::EventId schedule_after(ndsm::Time delay, std::function<void()> fn) override {
    return inner_.schedule_after(delay, [fn = std::move(fn)] {
      const Scope span(slot::kTimer);
      fn();
    });
  }
  void cancel(ndsm::EventId id) override { inner_.cancel(id); }
  [[nodiscard]] ndsm::Rng fork_rng(std::uint64_t salt) override { return inner_.fork_rng(salt); }
  [[nodiscard]] std::uint64_t incarnation_epoch() const override {
    return inner_.incarnation_epoch();
  }
  [[nodiscard]] ndsm::net::World* world_ptr() override { return inner_.world_ptr(); }

  // While `sink` is set, every 7th kRouting payload (up to 4,096) is
  // copied into it; nullptr stops the capture.
  static void capture_routing(std::vector<ndsm::Bytes>* sink);

 private:
  ndsm::net::Stack& inner_;
};

// routing::Router decorator installed through StackConfig::router_factory:
// times send/flood and the delivery up-call from the real router into the
// layer above (the transport), which it registers on the inner router for
// every net::Proto.
class TimedRouter final : public ndsm::routing::Router {
 public:
  TimedRouter(ndsm::net::Stack& stack, std::unique_ptr<ndsm::routing::Router> inner);

  ndsm::Status send(ndsm::NodeId dst, ndsm::net::Proto upper, ndsm::Bytes payload) override {
    const Scope span(slot::kRouteSend);
    return inner_->send(dst, upper, std::move(payload));
  }
  ndsm::Status flood(ndsm::net::Proto upper, ndsm::Bytes payload,
                     int ttl = kDefaultTtl) override {
    const Scope span(slot::kRouteSend);
    return inner_->flood(upper, std::move(payload), ttl);
  }

  [[nodiscard]] ndsm::routing::Router& inner() { return *inner_; }

 private:
  std::unique_ptr<ndsm::routing::Router> inner_;
};

// The real router's counters, looking through a TimedRouter.
[[nodiscard]] const ndsm::routing::RouterStats& router_stats(ndsm::routing::Router& router);

// Runs `build` and returns its wall time scaled by the host's slowness
// probed just before and after.
double timed_setup(const std::function<void()>& build);
// The same in a forked child process, which then exits; falls back to
// this process when fork fails. The child's memory never counts towards
// this process's peak RSS.
double timed_setup_in_child(const std::function<void()>& build);

// Builds a workload instance `reps` times, timing each construction
// (set-up, including its warm-up). All but the last are built in child
// processes, each starting from the same state, so that repeated set-ups
// neither warm each other up nor fragment the heap the timed instance and
// peak_rss_mb then see. Returns the last instance.
template <class W>
std::unique_ptr<W> build_repeated(int reps, std::vector<double>& setup_s,
                                  const std::function<std::unique_ptr<W>()>& make) {
  for (int i = 1; i < reps; ++i) {
    setup_s.push_back(timed_setup_in_child([&make] { (void)make(); }));
  }
  std::unique_ptr<W> w;
  setup_s.push_back(timed_setup([&make, &w] { w = make(); }));
  return w;
}

// Destroys `w` and returns how long that took, in seconds.
template <class W>
double destroy_timed(std::unique_ptr<W>& w) {
  const double t0 = wall_s();
  w.reset();
  return wall_s() - t0;
}

// Codec cost over captured kRouting frames: mean ns per decode_routing
// and per encode_routing call (0 when nothing was captured).
struct CodecCost {
  double decode_ns = 0.0;
  double encode_ns = 0.0;
};
[[nodiscard]] CodecCost time_routing_codec(const std::vector<ndsm::Bytes>& frames);

// Every per-layer metric, in BENCHMARK.json order; workloads fill the
// ones their layers exercise and the rest stay 0 (layer idle).
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<Metric> metrics_;
};

// Run one workload and return its report.
Report run_replfs_udp(const Options& opt);
Report run_mazewar_sim(const Options& opt);
Report run_field_sim(const Options& opt);
Report run_scale_sim(const Options& opt);

}  // namespace perfbench
