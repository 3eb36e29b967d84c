// Chaos soak: the full middleware stack — centralized discovery with a
// WAL-backed directory, global routing, reliable transport, transactions
// and MiLAN tracking — run for a simulated minute under a composed
// net::FaultPlan schedule (burst loss, duplication, delay jitter,
// partitions, pauses, 21 crash/restarts including the directory node
// crashing with a torn final WAL append), and again under eight seeded
// random plans. The soak asserts the end-to-end invariants the fault
// layer exists to flush out:
//
//   * at-most-once delivery per receiver incarnation (the dedup floor +
//     sender-epoch machinery; a receiver that crashes loses its dedup
//     state by design, so re-delivery across *its own* restart is the
//     documented amnesia window, not a violation),
//   * exactly-once transaction EndCallbacks, with no transaction leaked,
//   * directory WAL rehydration stays consistent after a crash mid-write
//     (stop-at-tear replay, service keeps answering queries),
//   * twin runs with the same seed are byte-identical, event digest
//     included — faults and all.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "discovery/centralized.hpp"
#include "discovery/directory_server.hpp"
#include "milan/engine.hpp"
#include "net/faults.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "transactions/manager.hpp"

namespace ndsm {
namespace {

using node::Runtime;
using testing::Lan;

constexpr std::size_t kNodes = 100;
constexpr Time kRunFor = duration::seconds(60);

// Node roles: 0 directory (crashes once, mid-write); 1..4 transaction
// consumers (never crash); 5..6 suppliers (node 5 flaps via pause);
// 10..29 crash/restart victims; 30..34 paused twice; 40..59 and 60..79
// partitioned islands; 90..93 MiLAN sensors; 99 MiLAN sink.

struct ChaosReport {
  std::uint64_t app_deliveries = 0;
  std::uint64_t duplicate_app_deliveries = 0;  // at-most-once violations
  std::vector<int> tx_end_counts;
  std::vector<bool> tx_end_ok;
  std::vector<int> tx_samples;
  std::size_t live_transactions = 0;
  std::uint64_t directory_rehydrated = 0;
  std::uint64_t milan_samples = 0;
  std::uint64_t malformed_dropped = 0;  // hostile/corrupt frames seen (§15)
  // The engine's digest and the channel and lifecycle counts, as plain
  // numbers whichever stats struct holds them.
  std::uint64_t sim_digest = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t partition_drops = 0;
  std::uint64_t burst_drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t bursts_entered = 0;
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
};

// Arms the soak's fault plan. Its lifecycle hooks are wired already:
// crash() and restart() of the node's Runtime, and a crash of node 0
// tears the directory's last WAL append.
using ChaosFaults = std::function<void(Lan&, net::FaultPlan&)>;

qos::SupplierQos temperature_qos() {
  qos::SupplierQos q;
  q.service_type = "temperature";
  q.reliability = 0.9;
  return q;
}

// One full soak under the plan `script` arms; returns the dump that must
// be byte-identical across twin runs with the same seed. Checks the
// invariants every plan must keep.
std::string chaos_soak(std::uint64_t seed, const ChaosFaults& script, ChaosReport& report) {
  net::LinkSpec spec = net::ethernet100();
  spec.loss_probability = 0.01;  // baseline loss under the fault channels
  Lan lan{kNodes, seed, spec};
  const NodeId dir_node = lan.nodes[0];

  // --- directory with WAL-backed persistence (rebuilt by restart()) --------
  lan.runtime(0).add_service<discovery::DirectoryServer>("directory", [](Runtime& r) {
    return std::make_unique<discovery::DirectoryServer>(
        r.transport(), duration::seconds(1), &r.storage("directory"));
  });

  // --- suppliers: discovery client + manager live in the service container
  // so a crashed supplier node would rebuild and re-serve on restart.
  for (const std::size_t i : {std::size_t{5}, std::size_t{6}}) {
    lan.runtime(i).add_service<discovery::CentralizedDiscovery>(
        "disco", [dir_node](Runtime& r) {
          return std::make_unique<discovery::CentralizedDiscovery>(
              r.transport(), std::vector<NodeId>{dir_node});
        });
    lan.runtime(i).add_service<transactions::TransactionManager>("txn", [](Runtime& r) {
      auto* disco = r.service<discovery::CentralizedDiscovery>("disco");
      auto mgr = std::make_unique<transactions::TransactionManager>(r.transport(), *disco);
      mgr->serve("temperature", [] { return Bytes(24, 0x21); });
      disco->register_service(temperature_qos(), duration::seconds(20));
      return mgr;
    });
  }
  // Lease renewal keeps the directory journalling all run long, so the
  // scripted directory crash lands amid WAL writes.
  sim::PeriodicTimer renew{lan.sim, duration::seconds(2), [&lan] {
    for (const std::size_t i : {std::size_t{5}, std::size_t{6}}) {
      auto* disco = lan.runtime(i).service<discovery::CentralizedDiscovery>("disco");
      if (disco != nullptr) disco->register_service(temperature_qos(), duration::seconds(20));
    }
  }};
  renew.start();

  // --- consumers on nodes 1..4 (their nodes never crash) -------------------
  std::vector<std::unique_ptr<discovery::CentralizedDiscovery>> consumer_discos;
  std::vector<std::unique_ptr<transactions::TransactionManager>> consumer_mgrs;
  for (std::size_t i = 1; i <= 4; ++i) {
    consumer_discos.push_back(std::make_unique<discovery::CentralizedDiscovery>(
        lan.transport(i), std::vector<NodeId>{dir_node}));
    consumer_mgrs.push_back(std::make_unique<transactions::TransactionManager>(
        lan.transport(i), *consumer_discos.back()));
    // Generous rebind budget: the directory outage plus the flapping
    // supplier must not exhaust supervision before the lifetime fires.
    consumer_mgrs.back()->set_supervision({3, 20, duration::millis(500)});
  }
  std::vector<int> end_counts(consumer_mgrs.size(), 0);
  std::vector<bool> end_ok(consumer_mgrs.size(), false);
  std::vector<int> samples(consumer_mgrs.size(), 0);
  for (std::size_t c = 0; c < consumer_mgrs.size(); ++c) {
    lan.sim.schedule_at(duration::seconds(2) + duration::millis(250) * c, [&, c] {
      transactions::TransactionSpec spec;
      spec.consumer.service_type = "temperature";
      spec.kind = transactions::TransactionKind::kContinuous;
      spec.period = duration::millis(500);
      spec.lifetime = duration::seconds(40);
      consumer_mgrs[c]->begin(
          spec, [&samples, c](const Bytes&, NodeId, Time) { samples[c]++; },
          [&end_counts, &end_ok, c](Status s) {
            end_counts[c]++;
            end_ok[c] = s.is_ok();
          });
    });
  }

  // --- app traffic with (src, seq) tagging for the at-most-once check ------
  // Keys carry the *receiver's* restart count: duplicates within one
  // receiver incarnation are violations; re-delivery across a receiver's
  // own restart is the documented dedup-amnesia window.
  std::vector<std::uint64_t> next_seq(kNodes, 0);
  std::map<std::string, int> delivered;
  auto bind_app = [&lan, &delivered](std::size_t i) {
    lan.transport(i).set_receiver(
        transport::ports::kApp, [&lan, &delivered, i](NodeId, const Bytes& b) {
          delivered[to_string(b) + '@' + std::to_string(i) + '.' +
                    std::to_string(lan.runtime(i).stats().restarts)]++;
        });
  };
  for (std::size_t i = 0; i < kNodes; ++i) bind_app(i);
  sim::PeriodicTimer traffic{lan.sim, duration::millis(500), [&] {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (!lan.runtime(i).up()) continue;
      const std::string payload =
          std::to_string(i) + ':' + std::to_string(next_seq[i]++);
      lan.transport(i).send(lan.nodes[(i + 37) % kNodes], transport::ports::kApp,
                            to_bytes(payload));
    }
  }};
  traffic.start();

  // --- MiLAN tracking: sink on node 99, hr sensors on 90..93 ---------------
  milan::ApplicationSpec app;
  app.name = "chaos-health";
  app.variables = {"hr"};
  app.states["run"] = milan::Requirements{{"hr", 0.7}};
  app.initial_state = "run";
  std::vector<milan::Component> components;
  for (std::uint64_t s = 0; s < 4; ++s) {
    milan::Component c;
    c.id = ComponentId{s + 1};
    c.node = lan.nodes[90 + s];
    c.name = "hr-" + std::to_string(s);
    c.qos["hr"] = 0.9;
    c.sample_power_w = 0.0005;
    c.sample_period = duration::millis(500);
    components.push_back(c);
  }
  milan::MilanEngine engine{
      lan.world,
      lan.nodes[99],
      lan.table,
      [&lan](NodeId n) { return node::router_of(lan.runtimes, n); },
      app,
      components};
  engine.start();

  // --- the fault schedule --------------------------------------------------
  std::map<NodeId, std::size_t> index_of;
  for (std::size_t i = 0; i < kNodes; ++i) index_of[lan.nodes[i]] = i;
  net::FaultPlan faults{lan.world};
  faults.set_lifecycle_hooks(
      [&](NodeId n) {
        const std::size_t i = index_of[n];
        lan.runtime(i).crash();
        if (i == 0) {
          // The crash tears the directory's in-flight WAL append: replay
          // must stop at the tear and still rehydrate everything before it.
          auto& wal = lan.runtime(0).storage("directory");
          if (wal.size() > 0) wal.corrupt(wal.size() - 1);
        }
      },
      [&](NodeId n) {
        const std::size_t i = index_of[n];
        lan.runtime(i).restart();
        bind_app(i);  // crash dropped the whole stack, handlers included
      });
  script(lan, faults);

  lan.sim.run_until(kRunFor);

  // --- invariant accounting + determinism dump -----------------------------
  for (const auto& [key, count] : delivered) {
    report.app_deliveries += static_cast<std::uint64_t>(count);
    if (count > 1) report.duplicate_app_deliveries += static_cast<std::uint64_t>(count - 1);
  }
  auto* directory = lan.runtime(0).service<discovery::DirectoryServer>("directory");
  report.tx_end_counts = end_counts;
  report.tx_end_ok = end_ok;
  report.tx_samples = samples;
  for (const auto& mgr : consumer_mgrs) report.live_transactions += mgr->active_count();
  report.directory_rehydrated = directory->stats().records_rehydrated;
  report.milan_samples = engine.stats().samples_delivered;
  for (std::size_t i = 0; i < kNodes; ++i) {
    report.malformed_dropped += lan.transport(i).stats().malformed_dropped;
  }
  const net::WorldStats ws = lan.world.stats();
  const net::FaultStats& fs = faults.stats();
  report.sim_digest = lan.sim.digest();
  report.frames_sent = ws.frames_sent;
  report.frames_delivered = ws.frames_delivered;
  report.frames_lost = ws.frames_lost;
  report.fault_drops = ws.fault_drops;
  report.partition_drops = ws.partition_drops;
  report.burst_drops = ws.fault_drops - ws.partition_drops;
  report.duplicates = ws.fault_duplicates;
  report.delays = ws.fault_delays;
  report.bursts_entered = ws.bursts_entered;
  report.partitions_started = fs.partitions_started;
  report.partitions_healed = fs.partitions_healed;
  report.crashes = fs.crashes;
  report.restarts = fs.restarts;
  report.pauses = fs.pauses;
  report.resumes = fs.resumes;

  // At-most-once: no payload reached any receiver incarnation twice.
  EXPECT_EQ(report.duplicate_app_deliveries, 0u);
  // Exactly-once transaction endings, nothing leaked.
  for (std::size_t c = 0; c < end_counts.size(); ++c) {
    EXPECT_EQ(end_counts[c], 1) << "consumer " << c;
  }
  EXPECT_EQ(report.live_transactions, 0u);
  // Fault injection corrupts delivery, never frame contents: across the
  // whole soak no transport may ever have classified a frame as malformed
  // (a nonzero count here means the stack itself emits bad bytes).
  EXPECT_EQ(report.malformed_dropped, 0u);

  std::ostringstream dump;
  dump << report.sim_digest << ':' << lan.sim.now() << ':' << report.frames_sent << ':'
       << report.frames_delivered << ':' << report.frames_lost << ':' << report.fault_drops
       << ':' << report.duplicates << ':' << report.delays;
  dump << '|' << report.partition_drops << ',' << report.burst_drops << ','
       << report.bursts_entered << ',' << report.crashes << ',' << report.restarts << ','
       << report.pauses << ',' << report.resumes;
  dump << '|' << report.app_deliveries << ',' << report.duplicate_app_deliveries << ','
       << report.milan_samples << ',' << report.directory_rehydrated;
  for (const auto& mgr : consumer_mgrs) {
    const auto& ts = mgr->stats();
    dump << '|' << ts.begun << ',' << ts.bound << ',' << ts.rebinds << ',' << ts.ended << ','
         << ts.data_received;
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& ts = lan.transport(i).stats();
    dump << '|' << ts.messages_sent << ',' << ts.messages_delivered << ','
         << ts.messages_failed << ',' << ts.retransmissions << ',' << ts.duplicates_dropped
         << ',' << ts.stale_epoch_dropped << ',' << ts.malformed_dropped;
  }
  return dump.str();
}

// The composed schedule: 21 crash/restarts (the directory's tears a WAL
// append), 12 pauses, two healing partitions over disjoint bystander
// blocks, and burst loss, duplication and jitter for the whole run.
void composed_chaos_faults(Lan& lan, net::FaultPlan& faults) {
  // 20 staggered victim crash/restarts plus the directory crash = 21.
  for (std::size_t k = 0; k < 20; ++k) {
    faults.crash(duration::seconds(5) + duration::millis(1700) * k, lan.nodes[10 + k],
                 duration::seconds(3));
  }
  faults.crash(duration::seconds(20) + duration::millis(100), lan.nodes[0],
               duration::seconds(3));
  // Pause cycles: five bystanders twice each, plus the flapping supplier.
  for (std::size_t k = 0; k < 5; ++k) {
    faults.pause(duration::seconds(8) + duration::seconds(2) * k, lan.nodes[30 + k],
                 duration::seconds(4));
    faults.pause(duration::seconds(30) + duration::seconds(2) * k, lan.nodes[30 + k],
                 duration::seconds(4));
  }
  faults.pause(duration::seconds(10), lan.nodes[5], duration::seconds(5));
  faults.pause(duration::seconds(26), lan.nodes[5], duration::seconds(5));
  std::vector<NodeId> island_a(lan.nodes.begin() + 40, lan.nodes.begin() + 60);
  std::vector<NodeId> island_b(lan.nodes.begin() + 60, lan.nodes.begin() + 80);
  faults.partition(duration::seconds(12), island_a, duration::seconds(8));
  faults.partition(duration::seconds(35), island_b, duration::seconds(6));
  // Stochastic channels. Jitter stays below the 200ms initial RTO.
  net::BurstLossSpec ge;
  ge.p_good_to_bad = 0.002;
  ge.p_bad_to_good = 0.1;
  ge.loss_bad = 0.6;
  faults.burst_loss(lan.medium, ge);
  faults.duplication(0.02, duration::millis(30));
  faults.jitter(0.05, duration::millis(50));
}

std::string chaos_run(std::uint64_t seed, ChaosReport* report = nullptr) {
  ChaosReport r;
  const std::string dump = chaos_soak(seed, composed_chaos_faults, r);
  if (report != nullptr) *report = r;
  return dump;
}

TEST(Chaos, SoakHoldsInvariantsUnderComposedFaults) {
  ChaosReport report;
  const std::string dump = chaos_run(2024, &report);
  ASSERT_FALSE(dump.empty());

  // Every fault type actually engaged.
  EXPECT_EQ(report.crashes, 21u);
  EXPECT_EQ(report.restarts, 21u);
  EXPECT_EQ(report.pauses, 12u);
  EXPECT_EQ(report.resumes, 12u);
  EXPECT_EQ(report.partitions_started, 2u);
  EXPECT_EQ(report.partitions_healed, 2u);
  EXPECT_GT(report.partition_drops, 0u);
  EXPECT_GT(report.burst_drops, 0u);
  EXPECT_GT(report.duplicates, 0u);
  EXPECT_GT(report.delays, 0u);

  // The serial run under the composed plan, pinned: the engine's digest
  // and every channel count.
  EXPECT_EQ(report.sim_digest, 0xc710abab23a7349dULL);
  EXPECT_EQ(report.frames_sent, 30396u);
  EXPECT_EQ(report.frames_delivered, 25562u);
  EXPECT_EQ(report.frames_lost, 5234u);
  EXPECT_EQ(report.fault_drops, 4943u);
  EXPECT_EQ(report.partition_drops, 4625u);
  EXPECT_EQ(report.burst_drops, 318u);
  EXPECT_EQ(report.duplicates, 517u);
  EXPECT_EQ(report.delays, 1229u);
  EXPECT_EQ(report.bursts_entered, 61u);

  EXPECT_GT(report.app_deliveries, 5000u);  // traffic genuinely flowed
  // Every transaction ended well and was fed.
  ASSERT_EQ(report.tx_end_counts.size(), 4u);
  for (std::size_t c = 0; c < report.tx_end_counts.size(); ++c) {
    EXPECT_TRUE(report.tx_end_ok[c]) << "consumer " << c;
    EXPECT_GT(report.tx_samples[c], 0) << "consumer " << c;
  }
  // The directory came back from its torn WAL with real records.
  EXPECT_GE(report.directory_rehydrated, 1u);
  // MiLAN kept tracking through the whole schedule.
  EXPECT_GT(report.milan_samples, 0u);

  // Flight recorder: a failed soak leaves the last trace window on disk,
  // so the post-mortem starts from evidence instead of a rerun.
  if (HasFailure()) {
    obs::flight_record("chaos-soak", "Chaos.SoakHoldsInvariantsUnderComposedFaults failed");
  }
}

// Seeded random plans (testing::arm_random_faults): partitions, burst
// loss, duplication, jitter, pauses and crashes, all healed by 42 s, before
// the transactions' lifetimes end. Only nodes whose services rebuild on
// restart crash: the directory, the suppliers and the victims (consumers
// 1..4 hold raw transports). chaos_soak checks the invariants every plan
// must keep.
TEST(Chaos, RandomFaultPlansKeepDeliveryAtMostOnce) {
  for (std::uint64_t plan = 1; plan <= 8; ++plan) {
    std::string armed;
    ChaosReport report;
    (void)chaos_soak(0xc4a05 + plan, [&armed, plan](Lan& lan, net::FaultPlan& faults) {
      std::vector<NodeId> crashable{lan.nodes[0], lan.nodes[5], lan.nodes[6]};
      crashable.insert(crashable.end(), lan.nodes.begin() + 10, lan.nodes.begin() + 30);
      armed = testing::arm_random_faults(lan.sim, faults, plan, lan.medium, lan.nodes,
                                         crashable, kRunFor, duration::millis(50));
    }, report);
    EXPECT_GT(report.app_deliveries, 5000u) << "plan " << plan << ": " << armed;
    if (HasFailure()) {
      ADD_FAILURE() << "plan " << plan << ": " << armed;
      return;
    }
  }
}

TEST(Chaos, TwinRunsAreByteIdentical) {
  const std::string first = chaos_run(777);
  const std::string second = chaos_run(777);
  EXPECT_EQ(first, second);
  const std::string different = chaos_run(778);
  EXPECT_NE(first, different);
}

// The tracing hard bar: recording spans must be pure observation. The
// full 100-node soak with tracing on and with tracing off must agree on
// the event digest (and every counter in the dump) byte for byte —
// trace-context bytes ride every frame unconditionally and id allocators
// advance unconditionally, so the only difference is ring writes.
TEST(Chaos, TracingOnAndOffRunsAreDigestIdentical) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  const std::string traced = chaos_run(4242);
  EXPECT_GT(tracer.recorded(), 0u);  // tracing was genuinely observing
  tracer.clear();
  tracer.set_enabled(false);
  const std::string untraced = chaos_run(4242);
  EXPECT_EQ(tracer.recorded(), 0u);  // and genuinely off
  tracer.set_enabled(true);
  EXPECT_EQ(traced, untraced);
}

}  // namespace
}  // namespace ndsm
