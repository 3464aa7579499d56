#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/random.h"
#include "util/serialize.h"
#include "util/single_flight_lru.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hillview {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  HV_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

TEST(Random, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(Random, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Random, BoundedIsInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
  }
}

TEST(Random, BoundedIsRoughlyUniform) {
  Random rng(11);
  std::vector<int> counts(8, 0);
  const int kTrials = 80000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.NextUint64(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 8, kTrials / 8 * 0.1);
  }
}

TEST(Random, DoubleInUnitInterval) {
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, GeometricSkipMeanMatchesRate) {
  // Bernoulli(p) sampling via geometric skips: the expected gap between
  // samples is 1/p, so skip mean should be 1/p - 1.
  Random rng(17);
  const double p = 0.01;
  const int kTrials = 20000;
  double total = 0;
  for (int i = 0; i < kTrials; ++i) {
    total += static_cast<double>(rng.NextGeometricSkip(p));
  }
  double mean = total / kTrials;
  EXPECT_NEAR(mean, 1.0 / p - 1.0, 5.0);
}

TEST(Random, GeometricSkipEdgeRates) {
  Random rng(19);
  EXPECT_EQ(rng.NextGeometricSkip(1.0), 0u);
  EXPECT_EQ(rng.NextGeometricSkip(1.5), 0u);
  EXPECT_EQ(rng.NextGeometricSkip(0.0), ~0ULL);
}

TEST(Random, MixSeedSpreads) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(MixSeed(42, i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Random, HashBytesStable) {
  std::string s = "hello world";
  EXPECT_EQ(HashBytes(s.data(), s.size()), HashBytes(s.data(), s.size()));
  EXPECT_NE(HashBytes(s.data(), s.size()), HashBytes(s.data(), s.size(), 1));
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.WriteU8(200);
  w.WriteU32(123456);
  w.WriteU64(1ULL << 40);
  w.WriteI32(-7);
  w.WriteI64(-(1LL << 40));
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("spreadsheet");

  ByteReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  bool b;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 200);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -(1LL << 40));
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "spreadsheet");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, RoundTripPodVector) {
  ByteWriter w;
  std::vector<int64_t> v = {1, -2, 3000000000LL};
  w.WritePodVector(v);
  ByteReader r(w.bytes());
  std::vector<int64_t> out;
  ASSERT_TRUE(r.ReadPodVector(&out).ok());
  EXPECT_EQ(out, v);
}

TEST(Serialize, TruncationDetected) {
  ByteWriter w;
  w.WriteU64(99);
  ByteReader r(w.bytes().data(), 3);  // cut short
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kOutOfRange);
}

TEST(Serialize, TruncatedStringDetected) {
  ByteWriter w;
  w.WriteString("abcdef");
  ByteReader r(w.bytes().data(), 6);
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelismIsReal) {
  // Two tasks that each wait for the other can only finish with >= 2
  // threads actually running concurrently.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  pool.Submit(rendezvous);
  pool.Submit(rendezvous);
  pool.Wait();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, HighPriorityJumpsQueue) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex m;
  // Block the single worker so subsequent submissions queue up.
  std::atomic<bool> release{false};
  pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.Submit([&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(1);
  });
  pool.SubmitHighPriority([&] {
    std::lock_guard<std::mutex> lock(m);
    order.push_back(2);
  });
  release.store(true);
  pool.Wait();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // high priority ran first
  EXPECT_EQ(order[1], 1);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();
}

using StringLru = SingleFlightLru<std::string>;

/// Parks until `cache` has `n` waiters on flights.
void AwaitWaiters(const StringLru& cache, int64_t n) {
  while (cache.Snapshot().waiters < n) std::this_thread::yield();
}

TEST(SingleFlightLru, CostBudgetEvictsLeastRecentlyUsed) {
  StringLru cache(10, [](const std::string& v) { return v.size(); });
  cache.Insert("a", "aaaa");
  cache.Insert("b", "bbbb");
  EXPECT_TRUE(cache.Get("a").has_value());  // "b" becomes the LRU victim
  cache.Insert("c", "cccc");
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(*cache.Get("a"), "aaaa");
  EXPECT_EQ(cache.Snapshot().cost, 8u);
  EXPECT_EQ(cache.Snapshot().evictions, 1);
  // A value costing more than the whole budget is never inserted.
  cache.Insert("d", std::string(11, 'd'));
  EXPECT_FALSE(cache.Get("d").has_value());
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  // Replacing an entry re-costs it.
  cache.Insert("a", "a");
  EXPECT_EQ(cache.Snapshot().cost, 5u);
}

TEST(SingleFlightLru, ClearFencesInsertsBegunBeforeIt) {
  StringLru cache(4);
  const uint64_t generation = cache.generation();
  auto lookup = cache.GetOrBegin("k");
  ASSERT_TRUE(lookup.flight.owner());
  cache.Clear();
  cache.Insert("j", "stale", generation);
  lookup.flight.Publish("stale");
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  cache.Insert("j", "fresh", cache.generation());
  EXPECT_EQ(*cache.Get("j"), "fresh");
}

TEST(SingleFlightLru, WaitersTakeAnOversizeValueFromTheFlight) {
  StringLru cache(2, [](const std::string& v) { return v.size(); });
  auto lookup = cache.GetOrBegin("k");
  ASSERT_TRUE(lookup.flight.owner());
  StringLru::Lookup waited;
  std::thread waiter([&] { waited = cache.GetOrBegin("k"); });
  AwaitWaiters(cache, 1);
  lookup.flight.Publish("too large to cache");
  waiter.join();
  ASSERT_TRUE(waited.value.has_value());
  EXPECT_EQ(*waited.value, "too large to cache");
  EXPECT_TRUE(waited.coalesced);
  EXPECT_FALSE(waited.flight.owner());
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Snapshot().coalesced, 1);
  EXPECT_EQ(cache.Snapshot().waiters, 0);
}

TEST(SingleFlightLru, EmptySettleReelectsAWaiter) {
  StringLru cache(4);
  auto lookup = cache.GetOrBegin("k");
  ASSERT_TRUE(lookup.flight.owner());
  StringLru::Lookup waited;
  std::thread waiter([&] { waited = cache.GetOrBegin("k"); });
  AwaitWaiters(cache, 1);
  lookup.flight = StringLru::Flight();  // dropped unpublished: settles empty
  waiter.join();
  EXPECT_FALSE(waited.value.has_value());
  ASSERT_TRUE(waited.flight.owner());  // the waiter is the next owner
  waited.flight.Publish("v");
  EXPECT_EQ(*cache.Get("k"), "v");
  const auto stats = cache.Snapshot();
  EXPECT_EQ(stats.elections, 2);
  EXPECT_EQ(stats.flight_misses, 2);
  EXPECT_EQ(stats.coalesced, 0);
}

TEST(SingleFlightLru, MayNotWaitNeverParksOrElects) {
  StringLru cache(4);
  auto none = cache.GetOrBegin("k", /*may_wait=*/false);
  EXPECT_FALSE(none.value.has_value());
  EXPECT_FALSE(none.flight.owner());
  auto lookup = cache.GetOrBegin("k");
  ASSERT_TRUE(lookup.flight.owner());
  auto busy = cache.GetOrBegin("k", /*may_wait=*/false);  // returns at once
  EXPECT_FALSE(busy.value.has_value());
  EXPECT_FALSE(busy.flight.owner());
  lookup.flight.Publish("v");
  EXPECT_EQ(*cache.GetOrBegin("k", /*may_wait=*/false).value, "v");
  EXPECT_EQ(cache.Snapshot().elections, 1);
  EXPECT_EQ(cache.Snapshot().flight_misses, 3);
}

TEST(SingleFlightLru, FlightHandleSettlesOnUnwind) {
  StringLru cache(4);
  try {
    auto lookup = cache.GetOrBegin("k");
    ASSERT_TRUE(lookup.flight.owner());
    throw std::runtime_error("build failed");
  } catch (const std::runtime_error&) {
  }
  // The flight was released, so the next caller is elected, not parked.
  auto again = cache.GetOrBegin("k");
  EXPECT_TRUE(again.flight.owner());
  EXPECT_EQ(cache.Snapshot().elections, 2);
}

TEST(SingleFlightLru, DeadEntriesAreDroppedAndSwept) {
  using WeakLru = SingleFlightLru<std::weak_ptr<int>>;
  WeakLru cache(8, nullptr,
                [](const std::weak_ptr<int>& v) { return !v.expired(); });
  auto alive = std::make_shared<int>(1);
  auto doomed = std::make_shared<int>(2);
  cache.Insert("alive", alive);
  cache.Insert("doomed", doomed);
  doomed.reset();
  EXPECT_FALSE(cache.Get("doomed").has_value());  // dropped on lookup
  EXPECT_EQ(cache.Snapshot().evictions, 1);
  auto later = std::make_shared<int>(3);
  cache.Insert("later", later);
  later.reset();
  auto fresh = std::make_shared<int>(4);
  cache.Insert("fresh", fresh);  // sweeps "later" out of the budget
  const auto stats = cache.Snapshot();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_TRUE(cache.Get("alive").has_value());
  EXPECT_TRUE(cache.Get("fresh").has_value());
}

}  // namespace
}  // namespace hillview
