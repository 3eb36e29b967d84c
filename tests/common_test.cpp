#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "common/vec2.hpp"

namespace ndsm {
namespace {

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(Ids, ComparisonAndHash) {
  const NodeId a{1};
  const NodeId b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, NodeId{1});
  std::unordered_set<NodeId> set{a, b, a};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, GeneratorIsMonotonic) {
  IdGenerator<ServiceId> gen;
  const ServiceId first = gen.next();
  const ServiceId second = gen.next();
  EXPECT_LT(first, second);
  EXPECT_TRUE(first.valid());
}

TEST(Ids, StrongTypingDistinctTags) {
  // NodeId and ServiceId with equal values are different types; this is a
  // compile-time property, but verify value access anyway.
  EXPECT_EQ(NodeId{7}.value(), ServiceId{7}.value());
}

TEST(Time, DurationHelpers) {
  EXPECT_EQ(duration::millis(1), 1000);
  EXPECT_EQ(duration::seconds(1), 1000000);
  EXPECT_EQ(duration::minutes(2), 120 * 1000000LL);
  EXPECT_EQ(duration::hours(1), 3600 * 1000000LL);
  EXPECT_DOUBLE_EQ(to_seconds(duration::seconds(5)), 5.0);
  EXPECT_EQ(from_seconds(1.5), 1500000);
}

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(Status, ErrorCarriesMessage) {
  const Status s{ErrorCode::kTimeout, "too slow"};
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "TIMEOUT: too slow");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  const Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  const Result<int> r{ErrorCode::kNotFound, "missing"};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r{std::string{"hello"}};
  const std::string s = std::move(r).take();
  EXPECT_EQ(s, "hello");
}

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 10.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 10.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng{7};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces observed
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanApprox) {
  Rng rng{11};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMomentsApprox) {
  Rng rng{13};
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ForkIndependent) {
  Rng root{5};
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2};
  const Vec2 b{4, 6};
  EXPECT_EQ((a + b), (Vec2{5, 8}));
  EXPECT_EQ((b - a), (Vec2{3, 4}));
  EXPECT_DOUBLE_EQ((b - a).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
}

TEST(Bytes, StringRoundTrip) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, FnvIsStableAndDiscriminates) {
  EXPECT_EQ(fnv1a("password"), fnv1a("password"));
  EXPECT_NE(fnv1a("password"), fnv1a("Password"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
  // Absolute values: WAL, checkpoint and ReplFS block checksums and
  // password digests are fnv1a() values on disk and on the wire, and the
  // app digests fold words with fnv_mix, so none of these may move.
  EXPECT_EQ(fnv1a(""), 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv1a("ndsm"), 0x6328d114c3881bf9ULL);
  EXPECT_EQ(fnv_mix(kFnvBasis, 0x0102030405060708ULL), 0x0c6d4496e17859d5ULL);
  EXPECT_EQ(fnv_fold(kFnvBasis, 7), (kFnvBasis ^ 7) * kFnvPrime);
}

}  // namespace
}  // namespace ndsm
