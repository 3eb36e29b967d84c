// Property-based suites: randomized inputs (deterministic per seed via
// TEST_P) checked against invariants and reference models.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "net/world_stack.hpp"
#include "milan/planner.hpp"
#include "recovery/store.hpp"
#include "routing/distance_vector.hpp"
#include "routing/flooding.hpp"
#include "test_helpers.hpp"
#include "transactions/tuple_space.hpp"
#include "transport/reliable.hpp"

namespace ndsm {
namespace {

using serialize::Value;

// ---------------------------------------------------------------------------
// Transport: exactly-once delivery under random loss, sizes and timing.
class TransportLossProperty : public ::testing::TestWithParam<int> {};

TEST_P(TransportLossProperty, ExactlyOnceDeliveryUnderLoss) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng{seed};
  const double loss = rng.uniform(0.0, 0.35);
  testing::WirelessGrid grid{4, 20.0, seed, 1e9, loss};
  grid.with_routers<routing::FloodingRouter>();

  std::map<std::string, int> received;
  grid.transport(3).set_receiver(transport::ports::kApp,
                                 [&](NodeId, const Bytes& b) { received[to_string(b)]++; });

  const int messages = 30;
  int completions = 0;
  for (int i = 0; i < messages; ++i) {
    const Time at = duration::millis(rng.uniform_int(0, 5000));
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 400));
    grid.sim.schedule_at(at, [&, i, size] {
      Bytes payload = to_bytes("msg-" + std::to_string(i) + "-");
      payload.resize(size + payload.size(), static_cast<std::uint8_t>(i));
      grid.transport(0).send(grid.nodes[3], transport::ports::kApp, payload,
                             [&](Status s) {
                               if (s.is_ok()) completions++;
                             });
    });
  }
  grid.sim.run_until(duration::seconds(60));
  // At-most-once: nothing is ever delivered twice.
  int delivered_once = 0;
  for (const auto& [key, count] : received) {
    EXPECT_EQ(count, 1) << key << " duplicated (loss=" << loss << ")";
    delivered_once++;
  }
  // Completion implies delivery (acks can be lost after delivery, so the
  // reverse does not hold: delivered >= completed).
  EXPECT_GE(delivered_once, completions);
  // With loss < 0.35 and 5 retries, virtually everything should land.
  EXPECT_GE(delivered_once, messages - 2);
  EXPECT_GE(completions, messages - 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportLossProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Distance-vector routing: after convergence on a random connected
// topology, every pair with a physical path has a route, and data actually
// arrives over it.
class DvRandomTopologyProperty : public ::testing::TestWithParam<int> {};

TEST_P(DvRandomTopologyProperty, ConvergesToReachabilityTruth) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng{seed * 1000 + 17};
  sim::Simulator sim{seed};
  net::World world{sim};
  const MediumId m = world.add_medium(net::wifi80211(30, 0));
  // Random nodes in a 100x100 box; keep only the largest connected story
  // simple: drop runs whose graph is disconnected from node 0.
  const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(world.add_node({rng.uniform(0, 100), rng.uniform(0, 100)}));
    world.attach(nodes.back(), m);
  }
  // Reference reachability from the ground-truth neighbour graph (BFS).
  auto reachable_from = [&](NodeId start) {
    std::set<NodeId> seen{start};
    std::vector<NodeId> queue{start};
    while (!queue.empty()) {
      const NodeId u = queue.back();
      queue.pop_back();
      for (const NodeId v : world.neighbors(u)) {
        if (seen.insert(v).second) queue.push_back(v);
      }
    }
    return seen;
  };

  std::vector<std::unique_ptr<net::WorldStack>> stacks;
  std::vector<std::unique_ptr<routing::DistanceVectorRouter>> routers;
  for (const NodeId id : nodes) {
    stacks.push_back(std::make_unique<net::WorldStack>(world, id));
    routers.push_back(
        std::make_unique<routing::DistanceVectorRouter>(*stacks.back(), duration::seconds(1)));
  }
  sim.run_until(duration::seconds(30));  // ample convergence time

  const auto truth = reachable_from(nodes[0]);
  for (std::size_t i = 0; i < n; ++i) {
    const bool physically = truth.count(nodes[i]) > 0;
    const bool routed = routers[0]->route_metric(nodes[i]) <
                        routing::DistanceVectorRouter::kInfinity;
    EXPECT_EQ(physically, routed) << "node " << i << " seed " << seed;
  }

  // Data check: send to every reachable node; all must arrive.
  int expected = 0;
  int arrived = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (truth.count(nodes[i]) == 0) continue;
    expected++;
    routers[i]->set_delivery_handler(routing::Proto::kApp,
                                     [&](NodeId, const Bytes&) { arrived++; });
    routers[0]->send(nodes[i], routing::Proto::kApp, to_bytes("ping"));
  }
  sim.run_until(duration::seconds(35));
  EXPECT_EQ(arrived, expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvRandomTopologyProperty, ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// MiLAN planner: on random instances, (1) any returned feasible plan truly
// satisfies the requirements, (2) optimal lifetime >= greedy >= 0,
// (3) optimal matches brute force on small instances.
class PlannerProperty : public ::testing::TestWithParam<int> {};

milan::PlanInput random_instance(Rng& rng, std::size_t max_components) {
  milan::PlanInput input;
  const auto n_components = static_cast<std::size_t>(rng.uniform_int(
      2, static_cast<std::int64_t>(max_components)));
  const int n_vars = static_cast<int>(rng.uniform_int(1, 3));
  std::map<NodeId, double> batteries;
  for (std::size_t i = 0; i < n_components; ++i) {
    milan::Component c;
    c.id = ComponentId{i + 1};
    c.node = NodeId{i};
    const int var = static_cast<int>(rng.uniform_int(0, n_vars - 1));
    c.qos["v" + std::to_string(var)] = rng.uniform(0.3, 0.95);
    if (rng.bernoulli(0.3)) {
      c.qos["v" + std::to_string(static_cast<int>(rng.uniform_int(0, n_vars - 1)))] =
          rng.uniform(0.2, 0.6);
    }
    c.sample_power_w = rng.uniform(0.0001, 0.01);
    batteries[c.node] = rng.uniform(1.0, 100.0);
    input.components.push_back(std::move(c));
  }
  for (int v = 0; v < n_vars; ++v) {
    input.required["v" + std::to_string(v)] = rng.uniform(0.2, 0.9);
  }
  input.node_drain_w = [](const milan::Component& c) {
    return std::unordered_map<NodeId, double>{{c.node, c.sample_power_w}};
  };
  input.battery_j = [batteries](NodeId node) { return batteries.at(node); };
  return input;
}

TEST_P(PlannerProperty, FeasiblePlansSatisfyAndOptimalDominates) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 97 + 3};
  for (int trial = 0; trial < 10; ++trial) {
    const auto input = random_instance(rng, 10);
    Rng r1{static_cast<std::uint64_t>(trial)};
    const auto optimal = milan::plan_components(input, milan::Strategy::kOptimal);
    const auto greedy = milan::plan_components(input, milan::Strategy::kGreedy);
    const auto all_on = milan::plan_components(input, milan::Strategy::kAllOn);
    const auto random = milan::plan_components(input, milan::Strategy::kRandomFeasible, &r1);

    // Feasibility agreement: all strategies agree on whether the instance
    // is solvable (all-on is the maximal set).
    EXPECT_EQ(optimal.feasible, all_on.feasible);
    EXPECT_EQ(greedy.feasible, all_on.feasible);
    EXPECT_EQ(random.feasible, all_on.feasible);
    if (!optimal.feasible) continue;

    // Returned sets truly satisfy the requirements.
    for (const auto* plan : {&optimal, &greedy, &all_on, &random}) {
      std::vector<const milan::Component*> set;
      for (const auto& c : input.components) {
        if (std::find(plan->active.begin(), plan->active.end(), c.id) != plan->active.end()) {
          set.push_back(&c);
        }
      }
      EXPECT_TRUE(milan::satisfies(set, input.required));
      // achieved[] matches the formula.
      for (const auto& [variable, value] : plan->achieved) {
        EXPECT_NEAR(value, milan::combined_reliability(set, variable), 1e-9);
      }
    }

    // Dominance chain.
    EXPECT_GE(optimal.estimated_lifetime_s, greedy.estimated_lifetime_s - 1e-9);
    EXPECT_GE(optimal.estimated_lifetime_s, all_on.estimated_lifetime_s - 1e-9);
    EXPECT_GE(optimal.estimated_lifetime_s, random.estimated_lifetime_s - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Recovery: random op/restart sequences recover exactly the committed
// reference state.
class RecoveryProperty : public ::testing::TestWithParam<int> {};

// Up to three transactions open at once, their writes interleaved with
// each other and with singleton writes on four shared keys, committed and
// aborted in random order; each round ends with the store rebuilt on the
// same volumes, as a restarted process builds it, while transactions are
// still open. The reference applies a transaction's writes at its commit.
TEST_P(RecoveryProperty, RecoversExactlyCommittedState) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919};
  recovery::StableStorage log;
  recovery::StableStorage checkpoints;
  auto store = std::make_unique<recovery::RecoverableStore>(log, checkpoints);
  std::map<std::string, std::int64_t> reference;  // committed truth
  // Open transactions' buffered writes, in order; nullopt is an erase.
  using Write = std::pair<std::string, std::optional<std::int64_t>>;
  std::map<std::uint64_t, std::vector<Write>> open;
  const auto apply = [&](const Write& w) {
    if (w.second) {
      reference[w.first] = *w.second;
    } else {
      reference.erase(w.first);
    }
  };
  const auto pick_open = [&] {
    auto it = open.begin();
    std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
    return it;
  };

  for (int round = 0; round < 5; ++round) {
    const int ops = static_cast<int>(rng.uniform_int(20, 80));
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(rng.uniform_int(0, 3));
      const Write write{key, rng.bernoulli(0.8) ? std::optional<std::int64_t>{
                                                      rng.uniform_int(0, 1000)}
                                                : std::nullopt};
      const int action = static_cast<int>(rng.uniform_int(0, 39));
      if (action < 12) {
        // A singleton write, outside any transaction.
        if (write.second) {
          store->put(key, Value{*write.second});
        } else {
          store->erase(key);
        }
        apply(write);
      } else if (action < 19 && open.size() < 3) {
        open[store->begin_tx()];
      } else if (action < 31 && !open.empty()) {
        const auto it = pick_open();
        if (write.second) {
          store->put(key, Value{*write.second}, it->first);
        } else {
          store->erase(key, it->first);
        }
        it->second.push_back(write);
      } else if (action < 39 && !open.empty()) {
        const auto it = pick_open();
        if (rng.bernoulli(0.6)) {
          store->commit(it->first);
          for (const Write& w : it->second) apply(w);
        } else {
          store->abort(it->first);
        }
        open.erase(it);
      } else if (action == 39) {
        store->checkpoint();
      }
    }
    // Restart: a new store on the same volumes; open transactions are lost
    // with the old one, and committed state must equal the reference.
    store = std::make_unique<recovery::RecoverableStore>(log, checkpoints);
    store->recover();
    open.clear();
    ASSERT_EQ(store->size(), reference.size()) << "round " << round;
    for (const auto& [key, value] : reference) {
      const auto got = store->get(key);
      ASSERT_TRUE(got.has_value()) << key << " round " << round;
      EXPECT_EQ(*got, Value{value}) << key << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryProperty, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Tuple space semantics: IN consumes exactly once even under contention.
class TupleContentionProperty : public ::testing::TestWithParam<int> {};

TEST_P(TupleContentionProperty, EachTupleTakenExactlyOnce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  testing::Lan lan{6};
  transactions::TupleSpaceServer server{lan.transport(0)};
  std::vector<std::unique_ptr<transactions::TupleSpaceClient>> clients;
  for (std::size_t i = 1; i < 6; ++i) {
    clients.push_back(
        std::make_unique<transactions::TupleSpaceClient>(lan.transport(i), lan.nodes[0]));
  }
  Rng rng{seed};
  constexpr int kTuples = 20;
  int taken = 0;
  // 5 competing consumers issue blocking INs at random times.
  for (int i = 0; i < kTuples; ++i) {
    const auto who = static_cast<std::size_t>(rng.uniform_int(0, 4));
    lan.sim.schedule_at(duration::millis(rng.uniform_int(0, 2000)), [&, who] {
      clients[who]->in(transactions::Tuple{Value{"job"}, Value::wildcard()},
                       [&](bool found, transactions::Tuple) {
                         if (found) taken++;
                       },
                       /*blocking=*/true, duration::seconds(30));
    });
  }
  // Producers OUT exactly kTuples jobs at random times.
  for (int i = 0; i < kTuples; ++i) {
    const auto who = static_cast<std::size_t>(rng.uniform_int(0, 4));
    lan.sim.schedule_at(duration::millis(rng.uniform_int(0, 2000)), [&, who, i] {
      clients[who]->out(transactions::Tuple{Value{"job"}, Value{i}});
    });
  }
  lan.sim.run_until(duration::seconds(40));
  EXPECT_EQ(taken, kTuples) << "seed " << seed;
  EXPECT_EQ(server.tuple_count(), 0u);
  EXPECT_EQ(server.parked_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleContentionProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace ndsm
