// Tests for the routers' shared relay path (Router::on_data and
// Router::on_flood): what every router puts on the wire when it passes a
// frame on, byte for byte, and how many heap allocations that costs; and
// for the duplicate window behind flood suppression and the transport's
// completed ids (DedupWindow). This binary replaces the global operator
// new with a counting one, which is why these tests live apart from
// routing_test and common_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
// ndsm-lint: allow(raw-new-delete): the header name, for std::bad_alloc
#include <new>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/dedup_window.hpp"
#include "fuzz_stack.hpp"
#include "net/link_spec.hpp"
#include "net/world.hpp"
#include "obs/trace.hpp"
#include "routing/distance_vector.hpp"
#include "routing/flooding.hpp"
#include "routing/geographic.hpp"
#include "routing/global.hpp"
#include "serialize/codec.hpp"
#include "sim/simulator.hpp"

namespace {
std::uint64_t g_allocations = 0;
bool g_counting = false;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ndsm::routing {
namespace {

template <class Fn>
std::uint64_t allocations_in(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

constexpr NodeId kSelf{1};
constexpr NodeId kTarget{2};
constexpr NodeId kOrigin{7};

// One router on a FuzzStack, primed so that a frame of `kind` from
// kOrigin toward `dst` is relayed to the link destination `hop`. The World
// only backs GlobalRouter's routing table; frames never enter it.
struct Rig {
  sim::Simulator sim{1};
  net::World world{sim};
  fuzz::FuzzStack stack{kSelf};
  std::unique_ptr<Router> router;
  RoutingKind kind = RoutingKind::kData;
  NodeId dst;
  NodeId hop;
  std::uint32_t next_seq = 1;

  void inject(const Bytes& frame) {
    stack.inject(net::Proto::kRouting, kOrigin, kSelf, frame);
  }
};

void hello(Rig& rig, NodeId from, Vec2 position) {
  RoutingHeader h;
  h.kind = RoutingKind::kDvUpdate;
  h.origin = from;
  h.dst = net::kBroadcast;
  h.ttl = 1;
  serialize::Writer w;
  w.vec2(position);
  rig.stack.inject(net::Proto::kRouting, from, net::kBroadcast,
                   encode_routing(h, std::move(w).take()));
}

struct RigSpec {
  const char* name;
  RoutingKind kind;
};

void PrintTo(const RigSpec& spec, std::ostream* os) {
  *os << spec.name << (spec.kind == RoutingKind::kFlood ? " flood" : " data");
}

std::unique_ptr<Rig> make_rig(const std::string& name, RoutingKind kind) {
  auto rig = std::make_unique<Rig>();
  rig->kind = kind;
  rig->dst = kind == RoutingKind::kFlood ? net::kBroadcast : kTarget;
  rig->hop = kind == RoutingKind::kFlood ? net::kBroadcast : kTarget;
  if (name == "geo") {
    rig->router = std::make_unique<GeoRouter>(rig->stack);
    hello(*rig, kTarget, Vec2{10, 0});  // a live direct neighbour
  } else if (name == "dv") {
    rig->router = std::make_unique<DistanceVectorRouter>(rig->stack);
    // Neighbour 3 advertises kTarget at one hop.
    RoutingHeader h;
    h.kind = RoutingKind::kDvUpdate;
    h.origin = NodeId{3};
    h.dst = net::kBroadcast;
    h.ttl = 1;
    serialize::Writer w;
    w.varint(1);
    w.id(kTarget);
    w.u8(1);
    w.u32(2);
    rig->stack.inject(net::Proto::kRouting, NodeId{3}, net::kBroadcast,
                      encode_routing(h, std::move(w).take()));
    if (kind == RoutingKind::kData) rig->hop = NodeId{3};
  } else if (name == "global") {
    // Nodes 0, 1 (= kSelf) and 2 (= kTarget) on one wired segment.
    const MediumId medium = rig->world.add_medium(net::ethernet100());
    for (int i = 0; i < 3; ++i) {
      rig->world.attach(rig->world.add_node(Vec2{10.0 * i, 0}), medium);
    }
    rig->router = std::make_unique<GlobalRouter>(
        rig->stack, std::make_shared<GlobalRoutingTable>(rig->world, Metric::kHopCount));
  } else {
    // FloodingRouter relays only floods; one for another node is relayed
    // without a local delivery.
    rig->router = std::make_unique<FloodingRouter>(rig->stack);
    rig->dst = kTarget;
  }
  return rig;
}

struct Frame {
  RoutingHeader header;
  Bytes body;
};

// A random frame for `rig`: any TTL that can be relayed, any upper
// protocol, a body of 0-300 random bytes, and no trace context, one with
// its hop count at the 255 cap, or one with a random hop count.
Frame random_frame(Rig& rig, Rng& rng) {
  Frame f;
  f.header.kind = rig.kind;
  f.header.origin = kOrigin;
  f.header.dst = rig.dst;
  f.header.seq = rig.next_seq++;
  f.header.ttl = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  f.header.upper = static_cast<Proto>(rng.uniform_int(1, 7));
  const auto shape = rng.uniform_int(0, 2);
  if (shape > 0) {
    f.header.trace.trace_id = rng.next_u64() | 1;
    f.header.trace.span_id = rng.next_u64();
    f.header.trace.hops =
        shape == 1 ? 255 : static_cast<std::uint8_t>(rng.uniform_int(0, 254));
  }
  f.body.resize(static_cast<std::size_t>(rng.uniform_int(0, 300)));
  for (auto& b : f.body) b = static_cast<std::uint8_t>(rng.next_u32());
  return f;
}

// What a relay of (header, body) must send: the same frame with TTL - 1
// and, when a trace context rides along, hops + 1 capped at 255.
Bytes expected_relay(RoutingHeader header, const Bytes& body) {
  header.ttl--;
  if (header.trace.hops < 255) header.trace.hops++;
  return encode_routing(header, body);
}

class RelayIdentity : public ::testing::TestWithParam<RigSpec> {};

TEST_P(RelayIdentity, RelayedBytesAreTheReencodedFrame) {
  const auto rig = make_rig(GetParam().name, GetParam().kind);
  Rng rng{0x5eed, 11};
  for (int i = 0; i < 300; ++i) {
    const Frame f = random_frame(*rig, rng);
    const Bytes frame = encode_routing(f.header, f.body);
    const std::uint64_t sent = rig->stack.frames_out();
    rig->inject(frame);
    ASSERT_EQ(rig->stack.frames_out(), sent + 1) << "frame " << i << " was not relayed";
    EXPECT_EQ(rig->stack.last_dst(), rig->hop);
    EXPECT_EQ(rig->stack.last_frame(), expected_relay(f.header, f.body)) << "frame " << i;
  }
  EXPECT_EQ(rig->router->stats().data_forwarded, 300u);
  EXPECT_EQ(rig->router->stats().drops, 0u);
}

// Frames that decode but are not byte-for-byte what encode_routing writes
// are relayed as exactly what encode_routing writes for what they decode to.
TEST_P(RelayIdentity, NonCanonicalFramesAreReencoded) {
  const auto rig = make_rig(GetParam().name, GetParam().kind);
  Rng rng{0x5eed, 12};
  const auto trace_block = [](std::uint8_t flags, std::uint64_t trace_id,
                              std::uint64_t span_id, std::uint8_t hops) {
    serialize::Writer w;
    w.u8(flags);
    w.u64(trace_id);
    w.u64(span_id);
    w.u8(hops);
    return std::move(w).take();
  };
  using Variant = std::function<Bytes(const Bytes& prefix, const Bytes& canonical)>;
  const std::vector<std::pair<const char*, Variant>> variants = {
      {"legacy frame without a trace block", [](const Bytes& prefix, const Bytes&) {
         return prefix;
       }},
      {"flags=1 with a zero trace id",
       [&](const Bytes& prefix, const Bytes&) {
         Bytes out = prefix;
         const Bytes block = trace_block(1, 0, 0x1234, 3);
         out.insert(out.end(), block.begin(), block.end());
         return out;
       }},
      {"a later trace-block version with extra fields",
       [&](const Bytes& prefix, const Bytes&) {
         Bytes out = prefix;
         const Bytes block = trace_block(2, 0xabcd, 0x1234, 3);
         out.insert(out.end(), block.begin(), block.end());
         out.push_back(0xaa);
         out.push_back(0xbb);
         return out;
       }},
      {"trailing bytes after the trace block",
       [](const Bytes&, const Bytes& canonical) {
         Bytes out = canonical;
         out.push_back(0);
         out.push_back(1);
         return out;
       }},
      {"a truncated trace block",
       [](const Bytes& prefix, const Bytes&) {
         Bytes out = prefix;
         out.insert(out.end(), {1, 0x11, 0x22, 0x33});
         return out;
       }},
  };
  for (const auto& [what, make] : variants) {
    for (int i = 0; i < 20; ++i) {
      const Frame f = random_frame(*rig, rng);
      const Bytes canonical = encode_routing(f.header, f.body);
      const std::size_t block = f.header.trace.valid() ? obs::kTraceWireMax : 1;
      const Bytes prefix(canonical.begin(), canonical.end() - static_cast<std::ptrdiff_t>(block));
      const Bytes frame = make(prefix, canonical);
      ASSERT_NE(frame, canonical) << what;
      RoutingHeader header;
      Bytes body;
      ASSERT_TRUE(decode_routing(frame, header, body)) << what;
      rig->inject(frame);
      EXPECT_EQ(rig->stack.last_frame(), expected_relay(header, body)) << what;
    }
  }
  // An overlong (non-minimal) body length prefix: the same length in one
  // more LEB128 byte.
  for (int i = 0; i < 20; ++i) {
    const Frame f = random_frame(*rig, rng);
    const Bytes canonical = encode_routing(f.header, f.body);
    constexpr std::ptrdiff_t kLengthAt = 23;
    const auto prefix_len = static_cast<std::ptrdiff_t>(serialize::varint_size(f.body.size()));
    Bytes frame(canonical.begin(), canonical.begin() + kLengthAt);
    std::uint64_t length = f.body.size();
    for (; length >= 0x80; length >>= 7) frame.push_back(static_cast<std::uint8_t>(length) | 0x80);
    frame.push_back(static_cast<std::uint8_t>(length) | 0x80);  // continued into...
    frame.push_back(0);                                          // ...a redundant zero group
    frame.insert(frame.end(), canonical.begin() + kLengthAt + prefix_len, canonical.end());
    RoutingHeader header;
    Bytes body;
    ASSERT_TRUE(decode_routing(frame, header, body));
    ASSERT_EQ(body, f.body);
    rig->inject(frame);
    EXPECT_EQ(rig->stack.last_frame(), expected_relay(f.header, f.body));
  }
}

TEST_P(RelayIdentity, SpentTtlIsDroppedNotRelayed) {
  const auto rig = make_rig(GetParam().name, GetParam().kind);
  Rng rng{0x5eed, 13};
  Frame f = random_frame(*rig, rng);
  f.header.ttl = 0;
  const std::uint64_t sent = rig->stack.frames_out();
  rig->inject(encode_routing(f.header, f.body));
  EXPECT_EQ(rig->stack.frames_out(), sent);
  EXPECT_EQ(rig->router->stats().drops, 1u);
  EXPECT_EQ(rig->router->stats().data_forwarded, 0u);
}

// The tracer on, with a small ring that the warm-up fills and cycles, so
// every slot a relay reuses has held a forward record before.
class TracerOn {
 public:
  explicit TracerOn(std::size_t capacity) : was_enabled_(tracer().enabled()) {
    tracer().set_capacity(capacity);
    tracer().set_enabled(true);
  }
  ~TracerOn() {
    tracer().set_capacity(obs::Tracer::kDefaultCapacity);
    tracer().set_enabled(was_enabled_);
  }
  static obs::Tracer& tracer() { return obs::Tracer::instance(); }

 private:
  bool was_enabled_;
};

// After warm-up, relaying one traced frame allocates the outbound frame
// and nothing else (no body copy, no second encode buffer, no trace record
// storage). A flood in sequence order only raises its origin's
// duplicate-window floor, which allocates nothing either.
TEST_P(RelayIdentity, SteadyStateRelayAllocatesOnlyTheOutboundFrame) {
  const TracerOn tracing{8};
  const auto rig = make_rig(GetParam().name, GetParam().kind);
  Rng rng{0x5eed, 14};
  constexpr int kWarmUp = 64;
  constexpr int kMeasured = 8;
  std::vector<net::LinkFrame> frames;
  for (int i = 0; i < kWarmUp + kMeasured; ++i) {
    Frame f = random_frame(*rig, rng);
    f.header.trace.trace_id = rng.next_u64() | 1;
    f.header.trace.span_id = rng.next_u64();
    f.header.trace.hops = 1;
    frames.push_back(fuzz::FuzzStack::link_frame(net::Proto::kRouting, kOrigin, kSelf,
                                                 encode_routing(f.header, f.body)));
  }
  for (int i = 0; i < kWarmUp; ++i) rig->stack.deliver(frames[i]);
  for (int i = kWarmUp; i < kWarmUp + kMeasured; ++i) {
    const std::uint64_t recorded = TracerOn::tracer().recorded();
    EXPECT_EQ(allocations_in([&] { rig->stack.deliver(frames[i]); }), 1u) << "relay " << i;
    EXPECT_EQ(TracerOn::tracer().recorded(), recorded + 1) << "no forward record";
  }
  EXPECT_EQ(rig->router->stats().data_forwarded,
            static_cast<std::uint64_t>(kWarmUp + kMeasured));
}

INSTANTIATE_TEST_SUITE_P(
    Routers, RelayIdentity,
    ::testing::Values(RigSpec{"geo", RoutingKind::kData}, RigSpec{"geo", RoutingKind::kFlood},
                      RigSpec{"dv", RoutingKind::kData}, RigSpec{"dv", RoutingKind::kFlood},
                      RigSpec{"global", RoutingKind::kData},
                      RigSpec{"global", RoutingKind::kFlood},
                      RigSpec{"flooding", RoutingKind::kFlood}),
    [](const ::testing::TestParamInfo<RigSpec>& info) {
      return std::string(info.param.name) +
             (info.param.kind == RoutingKind::kFlood ? "Flood" : "Data");
    });

// Every router runs the same kFlood receive step: a flood is delivered
// here when addressed here or to everyone, and passed on unless it was
// addressed here.
TEST(RelayFlood, DeliveredWhenAddressedHereAndStoppedThere) {
  for (const char* name : {"geo", "dv", "global", "flooding"}) {
    SCOPED_TRACE(name);
    const auto rig = make_rig(name, RoutingKind::kFlood);
    for (const NodeId dst : {net::kBroadcast, kTarget, kSelf}) {
      RoutingHeader h;
      h.kind = RoutingKind::kFlood;
      h.origin = kOrigin;
      h.dst = dst;
      h.seq = rig->next_seq++;
      h.ttl = 8;
      rig->inject(encode_routing(h, to_bytes("flood")));
    }
    EXPECT_EQ(rig->router->stats().data_delivered, 2u);  // the broadcast and kSelf's
    EXPECT_EQ(rig->router->stats().data_forwarded, 2u);  // the broadcast and kTarget's
  }
}

// One origin floods kFloodWindow + 100 frames newest first, then replays
// all of them. The window holds at most kFloodWindow of that origin's
// sequence numbers: the first kFloodWindow + 1 floods are relayed, the
// last of them moves the floor past every older one, and the 99 oldest
// count as seen. No replay is relayed.
TEST(RelayWindow, ReplayedFloodsAreDroppedAndTheWindowStaysBounded) {
  for (const char* name : {"geo", "dv", "global", "flooding"}) {
    SCOPED_TRACE(name);
    const auto rig = make_rig(name, RoutingKind::kFlood);
    Rng rng{0x5eed, 15};
    std::vector<Bytes> frames;
    for (std::size_t i = 0; i < Router::kFloodWindow + 100; ++i) {
      const Frame f = random_frame(*rig, rng);
      frames.push_back(encode_routing(f.header, f.body));
    }
    std::size_t most_held = 0;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      rig->inject(*it);
      most_held = std::max(most_held, rig->router->flood_ids_held(kOrigin));
    }
    EXPECT_EQ(most_held, Router::kFloodWindow);
    EXPECT_EQ(rig->router->stats().data_forwarded, Router::kFloodWindow + 1);
    EXPECT_EQ(rig->router->flood_ids_held(kOrigin), 0u);

    const std::uint64_t sent = rig->stack.frames_out();
    for (const Bytes& frame : frames) rig->inject(frame);
    EXPECT_EQ(rig->router->stats().data_forwarded, Router::kFloodWindow + 1);
    EXPECT_EQ(rig->stack.frames_out(), sent);
    EXPECT_EQ(rig->router->flood_ids_held(kOrigin), 0u);
  }
}

// GlobalRouter's stale-route retry runs inside the shared relay: when the
// link refuses the cached next hop (it just died), the table is recomputed
// and the frame goes out once more on the new path.
TEST(Relay, GlobalRetriesAStaleRouteOnTheRecomputedHop) {
  Rig rig;
  // A 20 m square, range 25 m: kSelf (1) reaches node 3 through 0 or 2.
  const MediumId medium = rig.world.add_medium(net::wifi80211(25.0, 0.0));
  const Vec2 corners[] = {{0, 20}, {0, 0}, {20, 0}, {20, 20}};
  for (const Vec2 pos : corners) rig.world.attach(rig.world.add_node(pos), medium);
  auto table = std::make_shared<GlobalRoutingTable>(rig.world, Metric::kHopCount);
  GlobalRouter router{rig.stack, table};
  const NodeId dst{3};
  const NodeId cached = table->next_hop(kSelf, dst);
  ASSERT_TRUE(cached == NodeId{0} || cached == NodeId{2});
  const NodeId other = cached == NodeId{0} ? NodeId{2} : NodeId{0};
  rig.world.kill(cached);
  rig.stack.refuse_frames_to(cached);

  RoutingHeader h;
  h.origin = kOrigin;
  h.dst = dst;
  h.seq = 1;
  h.ttl = 8;
  const Bytes body = to_bytes("stale");
  rig.inject(encode_routing(h, body));
  EXPECT_EQ(rig.stack.last_dst(), other);
  EXPECT_EQ(rig.stack.last_frame(), expected_relay(h, body));
  EXPECT_EQ(router.stats().drops, 0u);
  EXPECT_EQ(router.stats().data_forwarded, 1u);
}

// The flat neighbour table keeps GeoRouter's tie-break: among neighbours
// equally close to the destination the smallest id wins, whatever order
// their hellos arrived in.
TEST(Relay, GeoBreaksEqualDistanceTiesTowardTheSmallestId) {
  Rig rig;
  GeoRouter router{rig.stack};
  router.set_position_resolver([](NodeId) { return std::optional<Vec2>{Vec2{100, 0}}; });
  hello(rig, NodeId{9}, Vec2{10, 0});
  hello(rig, NodeId{6}, Vec2{5, 0});
  hello(rig, NodeId{4}, Vec2{10, 0});
  hello(rig, NodeId{9}, Vec2{10, 0});  // a repeated hello refreshes, never duplicates
  EXPECT_EQ(router.known_neighbors(), 3u);
  ASSERT_TRUE(router.send(NodeId{50}, Proto::kApp, to_bytes("tie")).is_ok());
  EXPECT_EQ(rig.stack.last_dst(), NodeId{4});
}

// --- the duplicate window --------------------------------------------------

TEST(DedupWindow, IdsOneAboveTheFloorAllocateNothing) {
  DedupWindow window{4};
  std::uint64_t refused = 0;
  EXPECT_EQ(allocations_in([&] {
              for (std::uint64_t id = 1; id <= 1000; ++id) refused += window.insert(id) ? 0 : 1;
            }),
            0u);
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(window.floor(), 1000u);
  EXPECT_EQ(window.held(), 0u);
  // Also once ids have been held: the floor absorbs them in place.
  EXPECT_TRUE(window.insert(1002));
  EXPECT_TRUE(window.insert(1004));
  EXPECT_EQ(allocations_in([&] {
              refused += window.insert(1001) ? 0 : 1;
              refused += window.insert(1003) ? 0 : 1;
              refused += window.insert(1005) ? 0 : 1;
            }),
            0u);
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(window.floor(), 1005u);
  EXPECT_EQ(window.held(), 0u);
}

TEST(DedupWindow, HoldsUpToCapacityThenTheSmallestMovesIntoTheFloor) {
  DedupWindow window{3};
  for (const std::uint64_t id : {3, 5, 7}) EXPECT_TRUE(window.insert(id));
  EXPECT_EQ(window.floor(), 0u);
  EXPECT_EQ(window.held(), 3u);
  EXPECT_FALSE(window.contains(1));

  EXPECT_TRUE(window.insert(9));  // one over capacity: 3 moves into the floor
  EXPECT_EQ(window.floor(), 3u);
  EXPECT_EQ(window.held(), 3u);     // 5, 7, 9
  EXPECT_TRUE(window.contains(1));  // never inserted, given up on
  EXPECT_FALSE(window.insert(2));
  EXPECT_FALSE(window.insert(7));

  EXPECT_TRUE(window.insert(4));  // floor + 1 reaches 5
  EXPECT_EQ(window.floor(), 5u);
  EXPECT_EQ(window.held(), 2u);  // 7, 9
  EXPECT_TRUE(window.insert(2000));
  EXPECT_TRUE(window.insert(1000));  // over capacity again: 7 moves into the floor
  EXPECT_EQ(window.floor(), 7u);
  EXPECT_EQ(window.held(), 3u);  // 9, 1000, 2000
  EXPECT_TRUE(window.contains(6));
  EXPECT_FALSE(window.contains(8));
}

// Against a model that remembers every id: whatever the order, every
// inserted id stays contained, a repeat is refused, and no more than the
// capacity is ever held.
TEST(DedupWindow, EveryInsertedIdStaysContained) {
  for (const std::size_t capacity : {1u, 8u, 64u}) {
    SCOPED_TRACE(capacity);
    DedupWindow window{capacity};
    Rng rng{0xd00d, capacity};
    std::set<std::uint64_t> inserted;
    for (int i = 0; i < 3000; ++i) {
      // Mostly near the front of the stream, some stragglers behind it.
      const std::uint64_t id = static_cast<std::uint64_t>(i / 4) + 1 +
                               static_cast<std::uint64_t>(rng.uniform_int(0, 40));
      const bool fresh = window.insert(id);
      if (inserted.count(id) > 0) {
        EXPECT_FALSE(fresh) << id;
      } else if (fresh) {
        inserted.insert(id);
      }
      ASSERT_LE(window.held(), capacity);
    }
    for (const std::uint64_t id : inserted) EXPECT_TRUE(window.contains(id)) << id;
  }
}

// A zero-capacity window keeps no ids: every out-of-order id raises the
// floor to itself, so an id counts as seen iff it is at most the largest
// id inserted (the transport's dedup_window = 0).
TEST(DedupWindow, ZeroCapacityFloorsEveryId) {
  DedupWindow window{0};
  Rng rng{0xd00d, 0};
  std::uint64_t largest = 0;
  for (int i = 0; i < 500; ++i) {
    const auto id = static_cast<std::uint64_t>(rng.uniform_int(1, 300));
    EXPECT_EQ(window.insert(id), id > largest) << id;
    largest = std::max(largest, id);
    EXPECT_EQ(window.floor(), largest);
    EXPECT_EQ(window.held(), 0u);
    EXPECT_TRUE(window.contains(largest));
    EXPECT_FALSE(window.contains(largest + 1));
  }
}

}  // namespace
}  // namespace ndsm::routing
