#include <gtest/gtest.h>

#include <algorithm>

#include "discovery/directory_server.hpp"
#include "discovery/centralized.hpp"
#include "net/faults.hpp"
#include "test_helpers.hpp"
#include "transactions/bridge.hpp"
#include "transactions/events.hpp"
#include "transactions/manager.hpp"
#include "transactions/pubsub.hpp"
#include "transactions/rpc.hpp"
#include "transactions/tuple_space.hpp"

namespace ndsm::transactions {
namespace {

using serialize::Value;
using testing::Lan;

TEST(Rpc, CallAndResponse) {
  Lan lan{2};
  RpcEndpoint server{lan.transport(0)};
  RpcEndpoint client{lan.transport(1)};
  server.register_method("echo", [](NodeId, const Bytes& req) -> Result<Bytes> {
    Bytes out = req;
    out.push_back('!');
    return out;
  });
  std::string response;
  client.call(lan.nodes[0], "echo", to_bytes("hi"),
              [&](Result<Bytes> r) { response = r.is_ok() ? to_string(r.value()) : "ERR"; });
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(response, "hi!");
  EXPECT_EQ(server.stats().calls_served, 1u);
}

TEST(Rpc, UnknownMethodReturnsNotFound) {
  Lan lan{2};
  RpcEndpoint server{lan.transport(0)};
  RpcEndpoint client{lan.transport(1)};
  ErrorCode code = ErrorCode::kOk;
  client.call(lan.nodes[0], "nope", {}, [&](Result<Bytes> r) { code = r.code(); });
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(code, ErrorCode::kNotFound);
  EXPECT_EQ(server.stats().unknown_method, 1u);
}

TEST(Rpc, HandlerErrorPropagates) {
  Lan lan{2};
  RpcEndpoint server{lan.transport(0)};
  RpcEndpoint client{lan.transport(1)};
  server.register_method("fail", [](NodeId, const Bytes&) -> Result<Bytes> {
    return Status{ErrorCode::kInvalidArgument, "bad input"};
  });
  Status status;
  client.call(lan.nodes[0], "fail", {}, [&](Result<Bytes> r) { status = r.status(); });
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
}

TEST(Rpc, TimeoutWhenServerDead) {
  Lan lan{2};
  RpcEndpoint client{lan.transport(1)};
  lan.world.kill(lan.nodes[0]);
  ErrorCode code = ErrorCode::kOk;
  client.call(lan.nodes[0], "echo", {}, [&](Result<Bytes> r) { code = r.code(); },
              duration::millis(500));
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(code, ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

// A response counts only from the node the call went to: a third node's
// kResponse carrying the call's id leaves the call to time out.
TEST(Rpc, ReplyFromANodeNotCalledIsIgnored) {
  Lan lan{3};
  RpcEndpoint client{lan.transport(0)};
  lan.runtime(1).crash();
  Result<Bytes> result = Status{ErrorCode::kInternal, "no callback"};
  int callbacks = 0;
  client.call(lan.nodes[1], "echo", {}, [&](Result<Bytes> r) {
    callbacks++;
    result = std::move(r);
  }, duration::millis(500));
  serialize::Writer forged;
  forged.u8(2);      // kResponse
  forged.varint(1);  // the call's request id
  forged.boolean(true);
  forged.bytes(to_bytes("forged"));
  lan.transport(2).send(lan.nodes[0], transport::ports::kRpc, std::move(forged).take());
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(result.code(), ErrorCode::kTimeout);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST(Rpc, ConcurrentCallsRouteToRightCallbacks) {
  Lan lan{3};
  RpcEndpoint s0{lan.transport(0)};
  RpcEndpoint s1{lan.transport(1)};
  RpcEndpoint client{lan.transport(2)};
  s0.register_method("who", [](NodeId, const Bytes&) -> Result<Bytes> {
    return to_bytes("zero");
  });
  s1.register_method("who", [](NodeId, const Bytes&) -> Result<Bytes> {
    return to_bytes("one");
  });
  std::string a;
  std::string b;
  client.call(lan.nodes[0], "who", {}, [&](Result<Bytes> r) { a = to_string(r.value()); });
  client.call(lan.nodes[1], "who", {}, [&](Result<Bytes> r) { b = to_string(r.value()); });
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(a, "zero");
  EXPECT_EQ(b, "one");
}

TEST(Rpc, CallerIdentityVisibleToHandler) {
  Lan lan{2};
  RpcEndpoint server{lan.transport(0)};
  RpcEndpoint client{lan.transport(1)};
  NodeId seen = NodeId::invalid();
  server.register_method("id", [&](NodeId caller, const Bytes&) -> Result<Bytes> {
    seen = caller;
    return Bytes{};
  });
  client.call(lan.nodes[0], "id", {}, [](Result<Bytes>) {});
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(seen, lan.nodes[1]);
}

TEST(TopicMatch, ExactAndWildcard) {
  EXPECT_TRUE(topic_matches("a/b", "a/b"));
  EXPECT_FALSE(topic_matches("a/b", "a/c"));
  EXPECT_TRUE(topic_matches("a/*", "a/b"));
  EXPECT_TRUE(topic_matches("a/*", "a/b/c"));
  EXPECT_FALSE(topic_matches("a/*", "b/x"));
  EXPECT_FALSE(topic_matches("a/*", "ab/x"));
  EXPECT_TRUE(topic_matches("*", "*"));  // '*' alone is a literal topic
}

struct PubSubSetup : Lan {
  PubSubSetup() : Lan(4), broker(transport(0)) {
    for (std::size_t i = 1; i < 4; ++i) {
      clients.push_back(std::make_unique<PubSubClient>(transport(i), nodes[0]));
    }
  }
  PubSubBroker broker;
  std::vector<std::unique_ptr<PubSubClient>> clients;
};

TEST(PubSub, PublishReachesSubscriber) {
  PubSubSetup setup;
  std::string got_topic;
  Bytes got_data;
  NodeId got_publisher;
  setup.clients[0]->subscribe("sensors/temp",
                              [&](const std::string& t, const Bytes& d, NodeId p) {
                                got_topic = t;
                                got_data = d;
                                got_publisher = p;
                              });
  setup.sim.run_until(duration::millis(100));
  setup.clients[1]->publish("sensors/temp", to_bytes("21.5"));
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got_topic, "sensors/temp");
  EXPECT_EQ(to_string(got_data), "21.5");
  EXPECT_EQ(got_publisher, setup.nodes[2]);
}

TEST(PubSub, WildcardSubscription) {
  PubSubSetup setup;
  int got = 0;
  setup.clients[0]->subscribe("sensors/*", [&](const std::string&, const Bytes&, NodeId) {
    got++;
  });
  setup.sim.run_until(duration::millis(100));
  setup.clients[1]->publish("sensors/temp", {});
  setup.clients[1]->publish("sensors/humidity", {});
  setup.clients[1]->publish("actuators/valve", {});
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got, 2);
}

TEST(PubSub, MultipleSubscribersAllReceive) {
  PubSubSetup setup;
  int a = 0;
  int b = 0;
  setup.clients[0]->subscribe("t", [&](const std::string&, const Bytes&, NodeId) { a++; });
  setup.clients[1]->subscribe("t", [&](const std::string&, const Bytes&, NodeId) { b++; });
  setup.sim.run_until(duration::millis(100));
  setup.clients[2]->publish("t", {});
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(setup.broker.stats().deliveries, 2u);
}

TEST(PubSub, UnsubscribeStopsDelivery) {
  PubSubSetup setup;
  int got = 0;
  const SubscriptionId sub =
      setup.clients[0]->subscribe("t", [&](const std::string&, const Bytes&, NodeId) { got++; });
  setup.sim.run_until(duration::millis(100));
  setup.clients[1]->publish("t", {});
  setup.sim.run_until(duration::seconds(1));
  setup.clients[0]->unsubscribe(sub);
  setup.sim.run_until(duration::seconds(2));
  setup.clients[1]->publish("t", {});
  setup.sim.run_until(duration::seconds(3));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(setup.broker.subscription_count(), 0u);
}

TEST(PubSub, NoSubscriberCountsDrop) {
  PubSubSetup setup;
  setup.clients[0]->publish("nobody/listens", {});
  setup.sim.run_until(duration::seconds(1));
  EXPECT_EQ(setup.broker.stats().dropped_no_subscriber, 1u);
}

struct TupleSetup : Lan {
  TupleSetup() : Lan(4), server(transport(0)) {
    for (std::size_t i = 1; i < 4; ++i) {
      clients.push_back(std::make_unique<TupleSpaceClient>(transport(i), nodes[0]));
    }
  }
  TupleSpaceServer server;
  std::vector<std::unique_ptr<TupleSpaceClient>> clients;
};

TEST(TupleSpace, OutThenRdLeavesTuple) {
  TupleSetup setup;
  setup.clients[0]->out(Tuple{Value{"temp"}, Value{21}});
  setup.sim.run_until(duration::millis(500));
  EXPECT_EQ(setup.server.tuple_count(), 1u);

  bool found = false;
  Tuple got;
  setup.clients[1]->rd(Tuple{Value{"temp"}, Value::wildcard()},
                       [&](bool f, Tuple t) {
                         found = f;
                         got = std::move(t);
                       });
  setup.sim.run_until(duration::seconds(1));
  ASSERT_TRUE(found);
  EXPECT_EQ(got[1], Value{21});
  EXPECT_EQ(setup.server.tuple_count(), 1u);  // rd copies
}

TEST(TupleSpace, InRemovesTuple) {
  TupleSetup setup;
  setup.clients[0]->out(Tuple{Value{"job"}, Value{1}});
  setup.sim.run_until(duration::millis(500));
  bool found = false;
  setup.clients[1]->in(Tuple{Value{"job"}, Value::wildcard()},
                       [&](bool f, Tuple) { found = f; });
  setup.sim.run_until(duration::seconds(1));
  EXPECT_TRUE(found);
  EXPECT_EQ(setup.server.tuple_count(), 0u);
}

TEST(TupleSpace, NonBlockingMissReturnsNotFound) {
  TupleSetup setup;
  bool called = false;
  bool found = true;
  setup.clients[0]->rd(Tuple{Value{"absent"}},
                       [&](bool f, Tuple) {
                         called = true;
                         found = f;
                       },
                       /*blocking=*/false);
  setup.sim.run_until(duration::seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
  EXPECT_EQ(setup.server.stats().misses, 1u);
}

TEST(TupleSpace, BlockingInWokenByLaterOut) {
  TupleSetup setup;
  bool found = false;
  Time woken_at = -1;
  setup.clients[0]->in(Tuple{Value{"evt"}, Value::wildcard()},
                       [&](bool f, Tuple) {
                         found = f;
                         woken_at = setup.sim.now();
                       },
                       /*blocking=*/true, duration::seconds(30));
  setup.sim.run_until(duration::seconds(2));
  EXPECT_FALSE(found);
  EXPECT_EQ(setup.server.parked_count(), 1u);
  setup.clients[1]->out(Tuple{Value{"evt"}, Value{42}});
  setup.sim.run_until(duration::seconds(4));
  EXPECT_TRUE(found);
  EXPECT_GE(woken_at, duration::seconds(2));
  EXPECT_EQ(setup.server.parked_count(), 0u);
  EXPECT_EQ(setup.server.tuple_count(), 0u);  // consumed by the parked in
}

TEST(TupleSpace, BlockingTimeoutCancelsParkedRequest) {
  TupleSetup setup;
  bool called = false;
  bool found = true;
  setup.clients[0]->in(Tuple{Value{"never"}},
                       [&](bool f, Tuple) {
                         called = true;
                         found = f;
                       },
                       /*blocking=*/true, duration::seconds(1));
  setup.sim.run_until(duration::seconds(3));
  EXPECT_TRUE(called);
  EXPECT_FALSE(found);
  EXPECT_EQ(setup.server.parked_count(), 0u);  // cancel reached the server
}

TEST(TupleSpace, OneOutWakesOnlyOneTaker) {
  TupleSetup setup;
  int taken = 0;
  for (int i = 0; i < 2; ++i) {
    setup.clients[static_cast<std::size_t>(i)]->in(
        Tuple{Value{"once"}},
        [&](bool f, Tuple) {
          if (f) taken++;
        },
        /*blocking=*/true, duration::seconds(10));
  }
  setup.sim.run_until(duration::seconds(1));
  setup.clients[2]->out(Tuple{Value{"once"}});
  setup.sim.run_until(duration::seconds(12));
  EXPECT_EQ(taken, 1);
}

TEST(TupleSpace, RdParkedAllWake) {
  TupleSetup setup;
  int read = 0;
  for (int i = 0; i < 2; ++i) {
    setup.clients[static_cast<std::size_t>(i)]->rd(
        Tuple{Value{"bcast"}},
        [&](bool f, Tuple) {
          if (f) read++;
        },
        /*blocking=*/true, duration::seconds(10));
  }
  setup.sim.run_until(duration::seconds(1));
  setup.clients[2]->out(Tuple{Value{"bcast"}});
  setup.sim.run_until(duration::seconds(12));
  EXPECT_EQ(read, 2);
  EXPECT_EQ(setup.server.tuple_count(), 1u);  // rd does not consume
}

TEST(TupleSpace, OutAckConfirms) {
  TupleSetup setup;
  Status status{ErrorCode::kInternal, ""};
  setup.clients[0]->out(Tuple{Value{1}}, [&](Status s) { status = s; });
  setup.sim.run_until(duration::seconds(1));
  EXPECT_TRUE(status.is_ok());
}

TEST(Events, LocalSubscribersSeeEmissions) {
  Lan lan{2};
  EventChannel channel{lan.transport(0)};
  std::vector<std::string> seen;
  channel.subscribe_local("battery.low", [&](const Event& e) { seen.push_back(e.type); });
  channel.subscribe_local("", [&](const Event& e) { seen.push_back("any:" + e.type); });
  channel.emit("battery.low", Value{0.1});
  channel.emit("other", Value{});
  EXPECT_EQ(seen, (std::vector<std::string>{"battery.low", "any:battery.low", "any:other"}));
}

TEST(Events, RemoteAttachReceivesPush) {
  Lan lan{2};
  EventChannel producer{lan.transport(0)};
  EventChannel consumer{lan.transport(1)};
  std::vector<double> readings;
  consumer.attach(lan.nodes[0], "sample", [&](const Event& e) {
    EXPECT_EQ(e.source, lan.nodes[0]);
    readings.push_back(e.payload.as_float());
  });
  lan.sim.run_until(duration::millis(200));
  producer.emit("sample", Value{36.6});
  producer.emit("sample", Value{36.7});
  producer.emit("unrelated", Value{1.0});
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(readings, (std::vector<double>{36.6, 36.7}));
}

TEST(Events, DetachStopsPush) {
  Lan lan{2};
  EventChannel producer{lan.transport(0)};
  EventChannel consumer{lan.transport(1)};
  int got = 0;
  const SubscriptionId sub =
      consumer.attach(lan.nodes[0], "", [&](const Event&) { got++; });
  lan.sim.run_until(duration::millis(200));
  producer.emit("x", Value{});
  lan.sim.run_until(duration::millis(400));
  consumer.detach(sub);
  lan.sim.run_until(duration::millis(600));
  producer.emit("x", Value{});
  lan.sim.run_until(duration::seconds(1));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(producer.remote_listener_count(), 0u);
}

struct ManagerSetup : Lan {
  // Node 0: directory. Node 1: supplier. Node 2: consumer. Node 3: spare supplier.
  ManagerSetup() : Lan(4), directory(transport(0)) {
    for (std::size_t i = 1; i < 4; ++i) {
      discos.push_back(std::make_unique<discovery::CentralizedDiscovery>(
          transport(i), std::vector<NodeId>{nodes[0]}));
      managers.push_back(std::make_unique<TransactionManager>(transport(i), *discos.back()));
    }
  }
  discovery::ServiceDiscovery& disco(std::size_t i) { return *discos[i - 1]; }
  TransactionManager& manager(std::size_t i) { return *managers[i - 1]; }

  discovery::DirectoryServer directory;
  std::vector<std::unique_ptr<discovery::CentralizedDiscovery>> discos;
  std::vector<std::unique_ptr<TransactionManager>> managers;
};

qos::SupplierQos temp_service() {
  qos::SupplierQos s;
  s.service_type = "temperature";
  s.reliability = 0.95;
  return s;
}

TransactionSpec continuous_spec(Time period = duration::millis(500)) {
  TransactionSpec spec;
  spec.consumer.service_type = "temperature";
  spec.kind = TransactionKind::kContinuous;
  spec.period = period;
  return spec;
}

TEST(Manager, ContinuousFlowDeliversPeriodically) {
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("21.0"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  int samples = 0;
  setup.manager(2).begin(continuous_spec(), [&](const Bytes& data, NodeId supplier, Time) {
    EXPECT_EQ(to_string(data), "21.0");
    EXPECT_EQ(supplier, setup.nodes[1]);
    samples++;
  });
  setup.sim.run_until(duration::seconds(6));
  EXPECT_GE(samples, 8);  // ~10 samples in 5s at 500ms
  EXPECT_EQ(setup.manager(2).stats().bound, 1u);
}

// A continuous transaction is one trace: following parent links from a
// data event on the consumer reaches the transaction's begin span, through
// the supplier's push and kStart's delivery.
TEST(Manager, DataEventTracesBackToItsBeginSpan) {
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("21.0"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));
  int samples = 0;
  setup.manager(2).begin(continuous_spec(), [&](const Bytes&, NodeId, Time) { samples++; });
  setup.sim.run_until(duration::seconds(2));
  ASSERT_GE(samples, 1);

  const auto events = tracer.snapshot();
  const auto data = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.name == "data";
  });
  ASSERT_NE(data, events.end());
  EXPECT_EQ(testing::trace_ancestry(events, *data, "begin"),
            (std::vector<std::string>{"deliver", "message", "push", "deliver", "message",
                                      "begin"}));
  tracer.clear();
}

TEST(Manager, OnDemandPullsAtConsumerPace) {
  ManagerSetup setup;
  int served = 0;
  setup.manager(1).serve("temperature", [&] {
    served++;
    return to_bytes("t");
  });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec(duration::seconds(1));
  spec.kind = TransactionKind::kOnDemand;
  int samples = 0;
  setup.manager(2).begin(spec, [&](const Bytes&, NodeId, Time) { samples++; });
  setup.sim.run_until(duration::seconds(6));
  EXPECT_GE(samples, 4);
  EXPECT_LE(samples, 6);
  EXPECT_EQ(served, samples);
}

TEST(Manager, IntermittentBursts) {
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("x"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec(duration::seconds(2));
  spec.kind = TransactionKind::kIntermittent;
  spec.samples_per_burst = 3;
  int samples = 0;
  setup.manager(2).begin(spec, [&](const Bytes&, NodeId, Time) { samples++; });
  setup.sim.run_until(duration::seconds(6));
  // Bursts at ~1s, 3s, 5s: 3 bursts x 3 samples.
  EXPECT_GE(samples, 6);
  EXPECT_EQ(samples % 3, 0);
}

TEST(Manager, LifetimeEndsTransaction) {
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("x"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec();
  spec.lifetime = duration::seconds(3);
  Status end_status{ErrorCode::kInternal, ""};
  setup.manager(2).begin(spec, [](const Bytes&, NodeId, Time) {},
                         [&](Status s) { end_status = s; });
  setup.sim.run_until(duration::seconds(10));
  EXPECT_TRUE(end_status.is_ok());
  EXPECT_EQ(setup.manager(2).active_count(), 0u);
  // Supplier-side flow stops too: no more pushes after the stop arrives.
  const auto pushes = setup.manager(1).stats().pushes_sent;
  setup.sim.run_until(duration::seconds(15));
  EXPECT_EQ(setup.manager(1).stats().pushes_sent, pushes);
}

TEST(Manager, RebindsWhenSupplierDies) {
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("primary"); });
  setup.manager(3).serve("temperature", [] { return to_bytes("backup"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(5));
  setup.disco(3).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  std::set<std::string> sources;
  const TransactionId tx = setup.manager(2).begin(
      continuous_spec(), [&](const Bytes& data, NodeId, Time) {
        sources.insert(to_string(data));
      });
  setup.sim.run_until(duration::seconds(3));
  // Kill whichever supplier is currently bound.
  const NodeId bound = setup.manager(2).supplier_of(tx);
  ASSERT_TRUE(bound.valid());
  setup.world.kill(bound);
  setup.sim.run_until(duration::seconds(30));
  EXPECT_EQ(sources.size(), 2u);  // both suppliers delivered at some point
  EXPECT_GE(setup.manager(2).stats().rebinds, 1u);
  const NodeId rebound = setup.manager(2).supplier_of(tx);
  EXPECT_TRUE(rebound.valid());
  EXPECT_NE(rebound, bound);
}

TEST(Manager, FlappingSupplierEndsExactlyOnce) {
  // Regression for the double-finish audit: a supplier that goes dark
  // long enough to trip supervision and then comes back mid-rebind used
  // to re-arm the watchdog with its late data while a discovery query was
  // in flight — double-decrementing rebinds_left and racing two query
  // callbacks (double kStart, and in the worst case two finish() paths).
  // With the binding guard, however hard the supplier flaps, the
  // EndCallback fires exactly once and every timer dies with the tx.
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("primary"); });
  setup.manager(3).serve("temperature", [] { return to_bytes("backup"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.disco(3).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  net::FaultPlan faults{setup.world};
  // Each cycle pauses the primary just long enough to trip supervision
  // (3 missed 500ms periods), then resumes it so its late pushes land
  // while the consumer's rebind query is in flight.
  for (int cycle = 0; cycle < 3; ++cycle) {
    faults.pause(duration::seconds(1) + duration::seconds(4) * cycle, setup.nodes[1],
                 duration::millis(1800));
  }

  TransactionSpec spec = continuous_spec();
  spec.lifetime = duration::seconds(12);  // expires while flaps are still scheduled
  int ended = 0;
  Status end_status{ErrorCode::kInternal, "never set"};
  int samples = 0;
  setup.manager(2).begin(
      spec, [&](const Bytes&, NodeId, Time) { samples++; },
      [&](Status s) {
        ended++;
        end_status = s;
      });
  setup.sim.run_until(duration::seconds(40));

  EXPECT_EQ(ended, 1);
  EXPECT_TRUE(end_status.is_ok());
  EXPECT_EQ(setup.manager(2).active_count(), 0u);
  EXPECT_GE(setup.manager(2).stats().rebinds, 1u);
  EXPECT_GT(samples, 0);
  EXPECT_EQ(setup.manager(2).stats().ended, 1u);
  EXPECT_GE(faults.stats().pauses, 3u);
}

TEST(Manager, FailsWhenNoSupplierExists) {
  ManagerSetup setup;
  TransactionSpec spec = continuous_spec();
  spec.consumer.service_type = "nonexistent";
  Status end_status;
  setup.manager(2).set_supervision({3, 1, duration::millis(200)});
  setup.manager(2).begin(spec, [](const Bytes&, NodeId, Time) {},
                         [&](Status s) { end_status = s; });
  setup.sim.run_until(duration::seconds(30));
  EXPECT_EQ(end_status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(setup.manager(2).active_count(), 0u);
}

TEST(Manager, UtilityAccountedThroughBenefitFunction) {
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("x"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec();
  // Samples arrive with LAN delay << 1s: full benefit.
  spec.consumer.timeliness = qos::BenefitFunction::step(duration::seconds(1));
  setup.manager(2).begin(spec, [](const Bytes&, NodeId, Time) {});
  setup.sim.run_until(duration::seconds(5));
  const auto& stats = setup.manager(2).stats();
  EXPECT_GT(stats.data_received, 0u);
  EXPECT_DOUBLE_EQ(stats.delivered_utility, static_cast<double>(stats.data_received));
}

TEST(Manager, PredictionPreventsSpuriousRebinds) {
  // §3.6 "intermittent with some prediction": the supplier duty-cycles to
  // a 3 s push period while the consumer asked for 500 ms. Without the
  // supplier-announced prediction, supervision (3 missed periods ~ 1.7 s)
  // would declare the supplier lost; with it, the flow survives untouched.
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("slow"); });
  setup.manager(1).set_push_period("temperature", duration::seconds(3));
  setup.disco(1).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec(duration::millis(500));
  int samples = 0;
  setup.manager(2).begin(spec, [&](const Bytes&, NodeId, Time) { samples++; });
  setup.sim.run_until(duration::seconds(20));
  EXPECT_EQ(setup.manager(2).stats().rebinds, 0u);
  EXPECT_GE(samples, 5);  // ~one sample per 3 s
  EXPECT_LE(samples, 8);
}

TEST(Manager, PredictionStillDetectsRealDeath) {
  // Prediction must not mask genuine failure: a duty-cycled supplier that
  // dies is still detected and replaced.
  ManagerSetup setup;
  setup.manager(1).serve("temperature", [] { return to_bytes("slow"); });
  setup.manager(1).set_push_period("temperature", duration::seconds(3));
  setup.manager(3).serve("temperature", [] { return to_bytes("backup"); });
  setup.disco(1).register_service(temp_service(), duration::seconds(8));
  setup.disco(3).register_service(temp_service(), duration::seconds(300));
  setup.sim.run_until(duration::seconds(1));

  TransactionSpec spec = continuous_spec(duration::millis(500));
  std::set<std::string> sources;
  const TransactionId tx = setup.manager(2).begin(
      spec, [&](const Bytes& data, NodeId, Time) { sources.insert(to_string(data)); });
  setup.sim.run_until(duration::seconds(5));
  const NodeId bound = setup.manager(2).supplier_of(tx);
  ASSERT_TRUE(bound.valid());
  setup.world.kill(bound);
  setup.sim.run_until(duration::seconds(60));
  EXPECT_GE(setup.manager(2).stats().rebinds, 1u);
  EXPECT_EQ(sources.size(), 2u);
}

TEST(Bridge, PubSubToTupleSpace) {
  Lan lan{5};
  PubSubBroker broker{lan.transport(0)};
  TupleSpaceServer space{lan.transport(1)};
  PubSubTupleBridge bridge{lan.transport(2), lan.nodes[0], lan.nodes[1], "sensors/*"};
  PubSubClient publisher{lan.transport(3), lan.nodes[0]};
  TupleSpaceClient reader{lan.transport(4), lan.nodes[1]};

  lan.sim.run_until(duration::millis(200));
  publisher.publish("sensors/temp", to_bytes("22.5"));
  lan.sim.run_until(duration::seconds(2));
  EXPECT_EQ(bridge.forwarded_to_space(), 1u);

  bool found = false;
  Tuple got;
  reader.rd(Tuple{Value{"msg"}, Value{"sensors/temp"}, Value::wildcard()},
            [&](bool f, Tuple t) {
              found = f;
              got = std::move(t);
            });
  lan.sim.run_until(duration::seconds(3));
  ASSERT_TRUE(found);
  EXPECT_EQ(to_string(got[2].as_bytes()), "22.5");
}

TEST(Bridge, TupleSpaceToPubSub) {
  Lan lan{5};
  PubSubBroker broker{lan.transport(0)};
  TupleSpaceServer space{lan.transport(1)};
  PubSubTupleBridge bridge{lan.transport(2), lan.nodes[0], lan.nodes[1], "unused/*"};
  TupleSpaceClient writer{lan.transport(3), lan.nodes[1]};
  PubSubClient subscriber{lan.transport(4), lan.nodes[0]};

  std::string got;
  subscriber.subscribe("alerts/fire", [&](const std::string&, const Bytes& d, NodeId) {
    got = to_string(d);
  });
  lan.sim.run_until(duration::millis(200));
  writer.out(Tuple{Value{"publish"}, Value{"alerts/fire"}, Value{to_bytes("evacuate")}});
  lan.sim.run_until(duration::seconds(3));
  EXPECT_EQ(bridge.forwarded_to_pubsub(), 1u);
  EXPECT_EQ(got, "evacuate");
}

}  // namespace
}  // namespace ndsm::transactions
