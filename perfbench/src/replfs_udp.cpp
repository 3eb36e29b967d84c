// replfs-udp: one ReplFS Client and three Servers on four net::UdpStacks
// over real loopback sockets, in one process, routed by the flooding
// router as in examples/replfs.cpp. One thread pumps the stacks
// round-robin with zero-wait polls. The client runs a closed loop: the
// next write is issued from the previous write's callback, over a bounded
// key set with values drawn from {64 B, 512 B, 4 KiB}. Syscalls, the
// reliable 2PC control path and WAL appends do the work; no simulator
// runs. Small values expose per-message cost, 4 KiB values (8 multicast
// blocks) the bulk path.
//
// Op: one write acknowledged by all replicas.
//
// Isolation: the port base and multicast group derive from the process
// id, and a bind failure moves to the next port block, so two runs on one
// host never share sockets. Exactly one Client exists per fleet: a client
// rebuilt on the same node id would reuse commit ids, and replicas ack a
// prepare for an already committed id without applying it. The checks
// therefore read the replicas' stores, not the callbacks.

#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/replfs/replfs.hpp"
#include "common.hpp"
#include "net/udp_stack.hpp"
#include "node/runtime.hpp"
#include "obs/trace.hpp"
#include "routing/flooding.hpp"

namespace perfbench {
namespace {

using namespace ndsm;

constexpr std::uint32_t kServers = 3;
constexpr std::uint32_t kNodes = kServers + 1;  // ids 1..3 servers, 4 client
constexpr std::uint64_t kKeys = 64;
constexpr std::size_t kValueSizes[] = {64, 512, 4096};
constexpr std::uint64_t kWarmCommits = 400;
// Work per run: commits per --seconds, sized so the timed phase lasts
// about --seconds on a 4-vCPU x86-64 VM.
constexpr double kCommitsPerSecond = 1000;
constexpr int kSetups = 5;
constexpr std::uint16_t kPortBlock = 16;
constexpr double kStallSeconds = 20.0;

struct Sockets {
  std::uint16_t port_base = 0;
  std::string group;
};

Sockets process_sockets() {
  const auto pid = static_cast<std::uint32_t>(getpid());
  Sockets s;
  s.port_base = static_cast<std::uint16_t>(20000 + (pid % 1800) * kPortBlock);
  s.group = "239.193." + std::to_string((pid >> 8) & 0xff) + "." + std::to_string(pid & 0xff);
  return s;
}

struct Totals {
  net::UdpStats udp;
  routing::RouterStats routing;
  transport::TransportStats transport;
  apps::replfs::ClientStats client;
  std::uint64_t blocks_staged = 0;
  std::uint64_t server_malformed = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t tracer_records = 0;
  std::vector<std::uint64_t> latency_counts;
};

class Fleet {
 public:
  Fleet(std::uint64_t seed, bool traced, Sockets& sockets)
      : traced_(traced), rng_(input_rng(seed, 0x7e91f5)) {
    open_stacks(sockets);
    node::StackConfig cfg;
    cfg.router = node::RouterPolicy::kFlooding;
    if (traced) {
      cfg.router_factory = [](net::Stack& s) -> std::unique_ptr<routing::Router> {
        return std::make_unique<TimedRouter>(s, std::make_unique<routing::FloodingRouter>(s));
      };
    }
    std::vector<NodeId> servers;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      runtimes_.push_back(std::make_unique<node::Runtime>(stack(i), cfg));
      if (i < kServers) servers.push_back(NodeId{i + 1});
    }
    for (std::uint32_t i = 0; i < kServers; ++i) {
      runtimes_[i]->add_service<apps::replfs::Server>("replfs", [](node::Runtime& rt) {
        return std::make_unique<apps::replfs::Server>(rt.transport(), rt.net_stack(),
                                                      rt.storage("replfs-wal"));
      });
    }
    client_ = std::make_unique<apps::replfs::Client>(runtimes_[kServers]->transport(),
                                                     stack(kServers), servers);
    run_commits(kWarmCommits, nullptr);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Issue `count` writes in a closed loop and pump until all completed;
  // false if the loop stalled. Wall-clock commit latencies go to `lat`.
  bool run_commits(std::uint64_t count, std::vector<double>* lat) {
    target_ = issued_ + count;
    lat_ = lat;
    issue();
    std::uint64_t seen = done_;
    double last_progress = wall_s();
    for (std::uint64_t spin = 0; done_ < target_; ++spin) {
      for (auto& s : udp_) {
        maybe_span(traced_, slot::kDrive, [&s] { s->poll_once(0); });
      }
      if ((spin & 1023) == 0) {
        if (done_ != seen) {
          seen = done_;
          last_progress = wall_s();
        } else if (wall_s() - last_progress > kStallSeconds) {
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] Totals totals() {
    Totals t;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const net::UdpStats& u = udp_[i]->stats();
      t.udp.datagrams_sent += u.datagrams_sent;
      t.udp.datagrams_received += u.datagrams_received;
      t.udp.bytes_sent += u.bytes_sent;
      t.udp.polls += u.polls;
      t.udp.bad_datagrams += u.bad_datagrams;
      const routing::RouterStats& r = router_stats(runtimes_[i]->router());
      t.routing.data_forwarded += r.data_forwarded;
      t.routing.data_delivered += r.data_delivered;
      const transport::TransportStats& tr = runtimes_[i]->transport().stats();
      t.transport.fragments_sent += tr.fragments_sent;
      t.transport.acks_sent += tr.acks_sent;
      t.transport.retransmissions += tr.retransmissions;
      t.transport.payload_bytes_delivered += tr.payload_bytes_delivered;
      t.transport.malformed_dropped += tr.malformed_dropped;
      if (i < kServers) {
        const auto* srv = server(i);
        t.blocks_staged += srv->stats().blocks_staged;
        t.server_malformed += srv->stats().malformed_dropped;
        const recovery::StorageStats& wal = runtimes_[i]->storage("replfs-wal").stats();
        t.wal_records += wal.writes;
        t.wal_bytes += wal.bytes_written;
      }
    }
    t.client = client_->stats();
    t.latency_counts = client_->commit_latency().counts();
    t.tracer_records = obs::Tracer::instance().recorded();
    return t;
  }

  // Every replica holds exactly the last acked value of every key.
  void check_stores(Report& report) {
    for (std::uint32_t i = 0; i < kServers; ++i) {
      const auto& store = server(i)->store();
      bool same = store.size() == expected_.size();
      for (const auto& [key, value] : expected_) {
        const auto it = store.find(key);
        same = same && it != store.end() && it->second == value;
      }
      report.check(same, "replfs replica " + std::to_string(i + 1) +
                             " store holds every key's last acked value");
    }
  }

  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool multicast() const { return udp_.front()->using_multicast(); }
  [[nodiscard]] const apps::replfs::Client& client() const { return *client_; }

 private:
  void open_stacks(Sockets& sockets) {
    for (int attempt = 0;; ++attempt) {
      net::UdpStackConfig cfg;
      cfg.port_base = sockets.port_base;
      cfg.multicast_group = sockets.group;
      for (std::uint32_t n = 1; n <= kNodes; ++n) cfg.peers.emplace_back(n);
      try {
        for (std::uint32_t n = 1; n <= kNodes; ++n) {
          udp_.push_back(std::make_unique<net::UdpStack>(NodeId{n}, cfg));
        }
        break;
      } catch (const std::runtime_error&) {
        udp_.clear();
        if (attempt == 50) throw;
        sockets.port_base = static_cast<std::uint16_t>(
            sockets.port_base + kPortBlock > 60000 ? 20000 : sockets.port_base + kPortBlock);
      }
    }
    if (traced_) {
      for (auto& s : udp_) timed_.push_back(std::make_unique<TimedStack>(*s));
    }
  }

  net::Stack& stack(std::uint32_t i) {
    return timed_.empty() ? static_cast<net::Stack&>(*udp_[i]) : *timed_[i];
  }
  const apps::replfs::Server* server(std::uint32_t i) {
    return runtimes_[i]->service<apps::replfs::Server>("replfs");
  }

  void issue() {
    if (issued_ == target_) return;
    const std::uint64_t seq = issued_++;
    pending_key_ = "key-" + std::to_string(uniform(rng_, 0, kKeys - 1));
    pending_value_.assign(kValueSizes[uniform(rng_, 0, 2)], static_cast<std::uint8_t>(seq));
    for (std::size_t b = 0; b < 8; ++b) {
      pending_value_[b] = static_cast<std::uint8_t>(seq >> (8 * b));
    }
    start_ns_ = wall_ns();
    auto done = [this](Status s) { on_done(s); };
    maybe_span(traced_, slot::kWrite,
               [this, &done] { client_->write(pending_key_, pending_value_, done); });
  }

  void on_done(Status s) {
    if (lat_ != nullptr) lat_->push_back(static_cast<double>(wall_ns() - start_ns_) / 1e6);
    if (s.is_ok()) {
      expected_[pending_key_] = pending_value_;
      acked_++;
    } else {
      failed_++;
    }
    done_++;
    issue();
  }

  bool traced_;
  InputRng rng_;
  std::vector<std::unique_ptr<net::UdpStack>> udp_;
  std::vector<std::unique_ptr<TimedStack>> timed_;
  std::vector<std::unique_ptr<node::Runtime>> runtimes_;
  std::unique_ptr<apps::replfs::Client> client_;
  std::uint64_t issued_ = 0;
  std::uint64_t target_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t failed_ = 0;
  std::string pending_key_;
  Bytes pending_value_;
  std::int64_t start_ns_ = 0;
  std::vector<double>* lat_ = nullptr;
  std::map<std::string, Bytes> expected_;
};

struct Phase {
  Blocks blocks;
  bool completed = false;
  std::vector<double> lat_ms;
  Totals before;
  Totals after;
};

Phase run_timed(Fleet& fleet, std::uint64_t commits) {
  Phase ph;
  ph.lat_ms.reserve(commits);
  ph.before = fleet.totals();
  const std::uint64_t per_block = std::max<std::uint64_t>(1, commits / Blocks::kCount);
  const std::uint64_t acked0 = fleet.acked();
  ph.completed = true;
  ph.blocks.mark(0);
  for (std::uint64_t done = 0; done < commits && ph.completed;) {
    const std::uint64_t n = std::min(per_block, commits - done);
    ph.completed = fleet.run_commits(n, &ph.lat_ms);
    done += n;
    ph.blocks.mark(fleet.acked() - acked0, ph.lat_ms.size());
  }
  ph.after = fleet.totals();
  return ph;
}

void check_fleet(Fleet& fleet, const Phase& ph, Report& report) {
  report.check(ph.completed, "replfs closed loop completed without stalling");
  report.check(fleet.failed() == 0, "replfs no write failed");
  fleet.check_stores(report);
  report.check(ph.after.transport.malformed_dropped == 0 && ph.after.server_malformed == 0 &&
                   ph.after.client.malformed_dropped == 0,
               "replfs malformed_dropped == 0 on every node");
}

double hist_quantile(const apps::replfs::Client& client, const Phase& ph, double q) {
  std::vector<std::uint64_t> delta(ph.after.latency_counts.size());
  for (std::size_t b = 0; b < delta.size(); ++b) {
    delta[b] = ph.after.latency_counts[b] - ph.before.latency_counts[b];
  }
  return obs::quantile_from(client.commit_latency().bounds(), delta, q);
}

}  // namespace

Report run_replfs_udp(const Options& opt) {
  Report report;
  const auto commits =
      static_cast<std::uint64_t>(work_share(opt, opt.seconds * kCommitsPerSecond));
  report.attempted = commits;
  Sockets sockets = process_sockets();

  if (!opt.trace) {
    std::vector<double> setup;
    auto fleet = build_repeated<Fleet>(kSetups, setup, [&] {
      return std::make_unique<Fleet>(opt.seed, false, sockets);
    });
    report.fingerprint.emplace_back("udp_broadcast",
                                    fleet->multicast() ? "\"multicast\"" : "\"unicast-fanout\"");
    const std::uint64_t acked_before = fleet->acked();
    const Phase ph = run_timed(*fleet, commits);
    check_fleet(*fleet, ph, report);
    report.notes.push_back(ph.blocks.unscaled_note());
    const auto ops = static_cast<double>(fleet->acked() - acked_before);
    report.failed = commits - std::min<std::uint64_t>(commits, fleet->acked() - acked_before);
    report.add("ops_per_s", ph.blocks.median_ops_per_s(), "1/s");
    report.add("cpu_us_per_op", ph.blocks.median_cpu_us_per_op(), "us");
    report.add("latency_p50_ms", ph.blocks.median_block_quantile(ph.lat_ms, 0.50), "ms");
    report.add("latency_p99_ms", ph.blocks.median_block_quantile(ph.lat_ms, 0.99), "ms");
    report.add("wire_bytes_per_op",
               ratio(static_cast<double>(ph.after.udp.bytes_sent - ph.before.udp.bytes_sent), ops),
               "bytes");
    report.add("setup_s", median(setup), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  auto plain = std::make_unique<Fleet>(opt.seed, false, sockets);
  const Phase base = run_timed(*plain, commits);
  check_fleet(*plain, base, report);
  const double registered = static_cast<double>(obs::MetricsRegistry::instance().size());
  const double sim_p50 = hist_quantile(plain->client(), base, 0.50);
  const double sim_p99 = hist_quantile(plain->client(), base, 0.99);
  report.fingerprint.emplace_back("udp_broadcast",
                                  plain->multicast() ? "\"multicast\"" : "\"unicast-fanout\"");
  const double teardown = destroy_timed(plain);

  auto fleet = std::make_unique<Fleet>(opt.seed, true, sockets);
  std::vector<Bytes> frames;
  TimedStack::capture_routing(&frames);
  const std::uint64_t acked_before = fleet->acked();
  Profiler::instance().reset();
  const Phase ph = run_timed(*fleet, commits);
  TimedStack::capture_routing(nullptr);
  const Profiler& prof = Profiler::instance();
  report.notes.push_back("replfs-udp traced self-time shares:\n" + prof.shares());
  check_fleet(*fleet, ph, report);
  report.failed = commits - std::min<std::uint64_t>(commits, fleet->acked() - acked_before);

  const auto ops = static_cast<double>(fleet->acked() - acked_before);
  const Totals& a = ph.after;
  const Totals& b = ph.before;
  const auto datagrams = static_cast<double>(a.udp.datagrams_sent - b.udp.datagrams_sent);
  const SpanTotals& drive = prof.at(slot::kDrive);
  const SpanTotals& down = prof.at(slot::kDown);
  const SpanTotals& up_routing = prof.at(up_slot(net::Proto::kRouting));
  const SpanTotals& to_transport = prof.at(deliver_slot(net::Proto::kTransport));
  const CodecCost codec = time_routing_codec(frames);
  LayerMetrics lm;
  lm.set("sim_latency_p50_ms", sim_p50);
  lm.set("sim_latency_p99_ms", sim_p99);
  lm.set("net.udp.datagrams_per_op", ratio(datagrams, ops));
  lm.set("net.udp.send_ns_per_datagram", ratio(static_cast<double>(down.self_ns), datagrams));
  lm.set("net.udp.poll_self_ns_per_op", ratio(static_cast<double>(drive.self_ns), ops));
  lm.set("net.udp.polls_per_op", ratio(static_cast<double>(a.udp.polls - b.udp.polls), ops));
  lm.set("routing.forwards_per_op",
         ratio(static_cast<double>(a.routing.data_forwarded - b.routing.data_forwarded), ops));
  lm.set("routing.up_self_ns_per_frame", ratio(static_cast<double>(up_routing.self_ns),
                                               static_cast<double>(up_routing.count)));
  lm.set("routing.delivered_share",
         ratio(static_cast<double>(a.routing.data_delivered - b.routing.data_delivered),
               static_cast<double>(up_routing.count)));
  lm.set("transport.frames_per_op",
         ratio(static_cast<double>((a.transport.fragments_sent + a.transport.acks_sent) -
                                   (b.transport.fragments_sent + b.transport.acks_sent)),
               ops));
  lm.set("transport.retransmissions_per_op",
         ratio(static_cast<double>(a.transport.retransmissions - b.transport.retransmissions),
               ops));
  lm.set("transport.up_self_ns_per_frame", ratio(static_cast<double>(to_transport.self_ns),
                                                 static_cast<double>(to_transport.count)));
  lm.set("transport.payload_share",
         ratio(static_cast<double>(a.transport.payload_bytes_delivered -
                                   b.transport.payload_bytes_delivered),
               static_cast<double>(a.udp.bytes_sent - b.udp.bytes_sent)));
  lm.set("serialize.routing_decode_ns", codec.decode_ns);
  lm.set("serialize.routing_encode_ns", codec.encode_ns);
  lm.set("recovery.wal_records_per_op", ratio(static_cast<double>(a.wal_records - b.wal_records), ops));
  lm.set("recovery.wal_bytes_per_op", ratio(static_cast<double>(a.wal_bytes - b.wal_bytes), ops));
  lm.set("apps.replfs.prepares_per_op",
         ratio(static_cast<double>(a.client.prepares_sent - b.client.prepares_sent), ops));
  lm.set("apps.replfs.repaired_share",
         ratio(static_cast<double>(a.client.blocks_repaired - b.client.blocks_repaired),
               static_cast<double>(a.client.blocks_multicast - b.client.blocks_multicast)));
  lm.set("apps.replfs.bulk_up_ns_per_block",
         ratio(static_cast<double>(prof.at(up_slot(net::Proto::kReplfsData)).total_ns),
               static_cast<double>(a.blocks_staged - b.blocks_staged)));
  lm.set("obs.tracer_records_per_op",
         ratio(static_cast<double>(a.tracer_records - b.tracer_records), ops));
  lm.set("obs.registered_metrics", registered);
  lm.set("node.teardown_s", teardown);
  lm.set("trace_overhead_ratio", ratio(ph.blocks.scaled_wall_s(), base.blocks.scaled_wall_s()));
  lm.emit(report);
  return report;
}

}  // namespace perfbench
