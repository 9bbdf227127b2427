#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "util/backoff.hpp"
#include "util/ref_pool.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace netmon::util {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Accumulator, MeanMinMax) {
  Accumulator acc;
  for (double x : {4.0, 1.0, 7.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
}

TEST(Accumulator, VarianceMatchesTextbookFormula) {
  Accumulator acc;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  double mean = 0.0;
  for (double x : xs) {
    acc.add(x);
    mean += x;
  }
  mean /= 8.0;
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(acc.variance(), m2 / 7.0, 1e-12);
}

TEST(Accumulator, MergeEqualsCombinedStream) {
  Accumulator a, b, all;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-5, 5);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeIntoEmpty) {
  Accumulator a, b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(Accumulator, CvZeroWhenMeanZero) {
  Accumulator acc;
  acc.add(-1.0);
  acc.add(1.0);
  EXPECT_DOUBLE_EQ(acc.cv(), 0.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 20.0);
}

TEST(SampleSet, QuantileOutOfRangeThrows) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(1.5), std::out_of_range);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SampleSet, AddAfterQuantileStillSorted) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Histogram, BucketsAccumulate) {
  Histogram h(1.0);
  h.add(0.5);
  h.add(0.7);
  h.add(2.1, 3.0);
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_DOUBLE_EQ(h.buckets()[0], 2.0);
  EXPECT_DOUBLE_EQ(h.buckets()[1], 0.0);
  EXPECT_DOUBLE_EQ(h.buckets()[2], 3.0);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
}

TEST(Histogram, NegativeKeysIgnored) {
  Histogram h(1.0);
  h.add(-0.1);
  EXPECT_TRUE(h.buckets().empty());
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
}

TEST(RingBuffer, FillsThenOverwritesOldest) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.oldest(), 1);
  rb.push(4);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.oldest(), 2);
  EXPECT_EQ(rb.newest(), 4);
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[1], 3);
  EXPECT_EQ(rb[2], 4);
}

TEST(RingBuffer, LongSequenceKeepsLastK) {
  RingBuffer<int> rb(5);
  for (int i = 0; i < 100; ++i) rb.push(i);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(rb[i], 95 + static_cast<int>(i));
}

TEST(RingBuffer, ErrorsOnMisuse) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
  RingBuffer<int> rb(2);
  EXPECT_THROW(rb.newest(), std::out_of_range);
  rb.push(1);
  EXPECT_THROW(rb[1], std::out_of_range);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.oldest(), 9);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(123), b(123);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, BernoulliEdges) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, UniformIntInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

// Shared by sensor supervision retries and federation reconnects: the exact
// delay sequence is pinned so a refactor cannot silently change every retry
// schedule in the simulator (determinism tests downstream depend on it).
TEST(Backoff, PinnedJitteredSequence) {
  const sim::Duration base = sim::Duration::ms(100);
  const sim::Duration cap = sim::Duration::sec(5);
  const std::int64_t expected[] = {
      105175781,   247412109,  411914062,  948242187,
      1833593750, 3282812500, 5554199218, 6033935546};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const auto d = jittered_backoff(base, cap, attempt,
                                    0xFEEDu ^ static_cast<std::uint64_t>(attempt));
    EXPECT_EQ(d.nanos(), expected[attempt - 1]) << "attempt " << attempt;
  }
}

TEST(Backoff, DoublesToCapAndJitterStaysBounded) {
  const sim::Duration base = sim::Duration::ms(100);
  const sim::Duration cap = sim::Duration::sec(5);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    for (std::uint64_t key = 0; key < 50; ++key) {
      const std::int64_t undithered =
          std::min(cap.nanos(), base.nanos() << std::min(attempt - 1, 10));
      const auto d = jittered_backoff(base, cap, attempt, key);
      EXPECT_GE(d.nanos(), undithered);
      // Jitter adds strictly less than 25% of the undithered delay.
      EXPECT_LT(d.nanos(), undithered + undithered / 4);
    }
  }
  // Same (attempt, key) is reproducible; different keys de-synchronize.
  EXPECT_EQ(jittered_backoff(base, cap, 3, 7).nanos(),
            jittered_backoff(base, cap, 3, 7).nanos());
  EXPECT_NE(jittered_backoff(base, cap, 3, 7).nanos(),
            jittered_backoff(base, cap, 3, 8).nanos());
}

// --- RefPool -----------------------------------------------------------------

struct Tracked {
  int value = 0;
  std::shared_ptr<int> held;  // reset when the slot recycles
};

int g_last_ref_hook_calls = 0;
int g_last_ref_value = -1;
void count_last_ref(Tracked& t) {
  ++g_last_ref_hook_calls;
  g_last_ref_value = t.value;  // the value before the slot resets
}

TEST(RefPool, CopiesShareASlotAndTheLastDropRecyclesIt) {
  g_last_ref_hook_calls = 0;
  RefPool<Tracked> pool(&count_last_ref);
  auto token = std::make_shared<int>(1);
  RefPool<Tracked>::Ref a = pool.acquire();
  a->value = 7;
  a->held = token;
  Tracked* const slot = a.get();
  RefPool<Tracked>::Ref b = a;
  EXPECT_EQ(b.get(), slot);
  EXPECT_EQ(pool.live(), 1u);
  a.reset();
  EXPECT_EQ(g_last_ref_hook_calls, 0);
  EXPECT_EQ(token.use_count(), 2);
  b = RefPool<Tracked>::Ref();  // last reference
  EXPECT_EQ(g_last_ref_hook_calls, 1);
  EXPECT_EQ(g_last_ref_value, 7);
  EXPECT_EQ(token.use_count(), 1);  // value reset released the capture
  EXPECT_EQ(pool.live(), 0u);

  RefPool<Tracked>::Ref c = pool.acquire();  // LIFO reuse, fresh value
  EXPECT_EQ(c.get(), slot);
  EXPECT_EQ(c->value, 0);
  EXPECT_EQ(c->held, nullptr);
}

TEST(RefPool, SlotsStayPutAcrossGrowth) {
  RefPool<Tracked> pool;
  std::vector<RefPool<Tracked>::Ref> refs;
  std::vector<Tracked*> addresses;
  for (int i = 0; i < 200; ++i) {  // several chunks
    refs.push_back(pool.acquire());
    refs.back()->value = i;
    addresses.push_back(refs.back().get());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(refs[static_cast<std::size_t>(i)].get(),
              addresses[static_cast<std::size_t>(i)]);
    EXPECT_EQ(refs[static_cast<std::size_t>(i)]->value, i);
  }
  EXPECT_EQ(pool.live(), 200u);
}

TEST(RefPool, HandlesOutliveTheirPool) {
  g_last_ref_hook_calls = 0;
  RefPool<Tracked>::Ref survivor;
  auto token = std::make_shared<int>(1);
  {
    RefPool<Tracked> pool(&count_last_ref);
    survivor = pool.acquire();
    survivor->value = 7;
    survivor->held = token;
    RefPool<Tracked>::Ref dropped = pool.acquire();
    dropped->value = 7;
    EXPECT_TRUE(survivor.pool_alive());
  }
  EXPECT_EQ(g_last_ref_hook_calls, 1);  // `dropped`, while the pool lived
  EXPECT_FALSE(survivor.pool_alive());
  EXPECT_EQ(survivor->value, 7);  // storage stays valid for the handle
  RefPool<Tracked>::Ref copy = survivor;
  survivor.reset();
  copy.reset();  // last handle frees the orphaned storage, no hook
  EXPECT_EQ(g_last_ref_hook_calls, 1);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(copy.pool_alive());
  EXPECT_FALSE(static_cast<bool>(copy));
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt_rate_mbps(2.18e6), "2.18 Mb/s");
  EXPECT_EQ(TextTable::fmt_percent(0.125), "12.5%");
  EXPECT_EQ(TextTable::fmt_bytes(512), "512 B");
}

}  // namespace
}  // namespace netmon::util
