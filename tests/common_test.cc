// Unit tests for src/common: checksum, RNG/zipfian, byte helpers, Expected, the
// epoch-based reclamation machinery (batched retire-list sweeps), and the
// ServicePool background executor (queued-job dedup, drain, worker identity).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/common/service_pool.h"
#include "src/common/status.h"

namespace {

TEST(Bytes, AlignHelpers) {
  EXPECT_EQ(common::AlignDown(4097, 4096), 4096u);
  EXPECT_EQ(common::AlignDown(4096, 4096), 4096u);
  EXPECT_EQ(common::AlignUp(4097, 4096), 8192u);
  EXPECT_EQ(common::AlignUp(4096, 4096), 4096u);
  EXPECT_EQ(common::AlignUp(0, 4096), 0u);
  EXPECT_TRUE(common::IsAligned(8192, 4096));
  EXPECT_FALSE(common::IsAligned(8193, 4096));
  EXPECT_EQ(common::DivCeil(1, 4096), 1u);
  EXPECT_EQ(common::DivCeil(4096, 4096), 1u);
  EXPECT_EQ(common::DivCeil(4097, 4096), 2u);
  EXPECT_EQ(common::DivCeil(0, 4096), 0u);
}

TEST(Crc32c, KnownVector) {
  // Standard CRC32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(common::Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(common::Crc32c("", 0), 0u); }

TEST(Crc32c, SeedChaining) {
  const char* data = "hello world";
  uint32_t whole = common::Crc32c(data, 11);
  uint32_t part = common::Crc32c(data, 5);
  part = common::Crc32c(data + 5, 6, part);
  EXPECT_EQ(whole, part);
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<uint8_t> buf(64, 0xAB);
  uint32_t before = common::Crc32c(buf.data(), buf.size());
  buf[17] ^= 0x01;
  EXPECT_NE(before, common::Crc32c(buf.data(), buf.size()));
}

TEST(Crc32cSkip4, IgnoresSkippedField) {
  std::vector<uint8_t> a(64, 1), b(64, 1);
  b[8] = 0x55;  // Inside the skipped window [8, 12).
  b[9] = 0x66;
  EXPECT_EQ(common::Crc32cSkip4(a.data(), 64, 8), common::Crc32cSkip4(b.data(), 64, 8));
  b[12] = 0x77;  // Outside the window: must change the CRC.
  EXPECT_NE(common::Crc32cSkip4(a.data(), 64, 8), common::Crc32cSkip4(b.data(), 64, 8));
}

TEST(Rng, DeterministicPerSeed) {
  common::Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformInRange) {
  common::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  common::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, StaysInRange) {
  common::ZipfianGenerator z(1000, 0.99, 3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(z.Next(), 1000u);
    EXPECT_LT(z.NextScrambled(), 1000u);
  }
}

TEST(Zipfian, IsSkewed) {
  // Rank 0 should dominate: with theta=0.99 over 1000 items, item 0 gets ~12% of mass.
  common::ZipfianGenerator z(1000, 0.99, 5);
  int zero_hits = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.Next() == 0) {
      ++zero_hits;
    }
  }
  EXPECT_GT(zero_hits, kDraws / 20);  // Far above the uniform 1/1000.
}

TEST(Zipfian, ScrambledSpreadsHotKeys) {
  common::ZipfianGenerator z(1000, 0.99, 5);
  std::set<uint64_t> distinct;
  for (int i = 0; i < 1000; ++i) {
    distinct.insert(z.NextScrambled());
  }
  EXPECT_GT(distinct.size(), 100u);  // Not collapsed onto a handful of ranks.
}

TEST(Expected, ValueAndError) {
  common::Expected<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  EXPECT_EQ(ok.error().code(), 0);

  common::Expected<int> err(common::Errno(ENOENT));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error().code(), ENOENT);
  EXPECT_EQ(err.error().negated(), -ENOENT);
  EXPECT_EQ(err.value_or(7), 7);
}

// --- Epoch GC: batched (generation-counted) retire-list sweeps ------------------------

struct CountedObject {
  explicit CountedObject(int* live) : live_(live) { ++*live_; }
  ~CountedObject() { --*live_; }
  int* live_;
};

TEST(EpochGc, RetireDefersSweepsUntilTheGenerationBoundary) {
  // An invalidation storm with no reader pinned: retirements accumulate without a
  // registry walk until the generation counter trips, and the one deferred sweep
  // then frees the whole batch via a single QuiescedHorizon() query.
  int live = 0;
  common::RetireList<CountedObject> list;
  constexpr uint64_t kGen = common::RetireList<CountedObject>::kSweepGeneration;
  for (uint64_t i = 1; i < kGen; ++i) {
    list.Retire(new CountedObject(&live));
    EXPECT_EQ(list.PendingForTest(), i) << "sweep ran before the generation filled";
  }
  EXPECT_EQ(live, static_cast<int>(kGen - 1));
  list.Retire(new CountedObject(&live));  // Generation boundary.
  EXPECT_EQ(list.PendingForTest(), 0u);
  EXPECT_EQ(live, 0);
}

TEST(EpochGc, PinnedReaderHoldsTheStormUntilQuiescence) {
  // A reader pinned across a storm of retirements: nothing it could still hold may
  // be freed, however many generation sweeps trip meanwhile; unpinning releases
  // the entire backlog on the next sweep.
  int live = 0;
  common::RetireList<CountedObject> list;
  constexpr int kStorm = 100;
  {
    common::EpochGc::ReadGuard pin(&common::EpochGc::Global());
    for (int i = 0; i < kStorm; ++i) {
      list.Retire(new CountedObject(&live));
    }
    // Generation sweeps ran but everything postdates the pin.
    EXPECT_EQ(live, kStorm);
    EXPECT_EQ(list.PendingForTest(), static_cast<size_t>(kStorm));
  }
  list.Sweep();
  EXPECT_EQ(list.PendingForTest(), 0u);
  EXPECT_EQ(live, 0);
}

TEST(EpochGc, DrainSpinsToFullQuiescence) {
  int live = 0;
  auto* list = new common::RetireList<CountedObject>();
  for (int i = 0; i < 3; ++i) {
    list->Retire(new CountedObject(&live));
  }
  list->Drain();
  EXPECT_EQ(live, 0);
  delete list;
}

// --- ServicePool ---------------------------------------------------------------------

TEST(ServicePool, DedupDropsSubmitOnlyWhileATwinIsQueued) {
  common::ServicePool pool("test.dedup", 1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> runs{0};
  pool.Submit(1, [&] {
    started.set_value();
    gate.wait();
    runs.fetch_add(1);
  });
  started.get_future().wait();  // The first job is running, not queued.
  // A running twin never absorbs a submit: the running job may have sampled state
  // from before the caller's update.
  pool.Submit(1, [&] { runs.fetch_add(10); }, /*dedup_queued=*/true);
  EXPECT_EQ(pool.QueueDepth(), 1u);
  // Now a twin is queued: this submit is dropped...
  pool.Submit(1, [&] { runs.fetch_add(100); }, /*dedup_queued=*/true);
  EXPECT_EQ(pool.QueueDepth(), 1u);
  // ...but only for the same key.
  pool.Submit(2, [&] { runs.fetch_add(1000); }, /*dedup_queued=*/true);
  EXPECT_EQ(pool.QueueDepth(), 2u);
  release.set_value();
  pool.DrainAll();
  EXPECT_EQ(runs.load(), 1 + 10 + 1000);
}

TEST(ServicePool, DrainWaitsForJobsSubmittedByRunningJobs) {
  common::ServicePool pool("test.drain", 2);
  std::atomic<bool> last_done{false};
  // A chain of three jobs, each submitted by the previous one while it runs. The
  // key never goes quiet in between, so Drain must wait for the whole chain.
  pool.Submit(7, [&] {
    pool.Submit(7, [&] {
      pool.Submit(7, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        last_done.store(true);
      });
    });
  });
  pool.Drain(7);
  EXPECT_TRUE(last_done.load());
}

TEST(ServicePool, OnWorkerThreadOnlyInsideAJobOfThatPool) {
  common::ServicePool a("test.a", 1);
  common::ServicePool b("test.b", 1);
  EXPECT_FALSE(a.OnWorkerThread());
  EXPECT_FALSE(b.OnWorkerThread());
  std::atomic<int> in_a{-1}, b_from_a{-1}, in_b{-1}, a_from_b{-1};
  a.Submit(1, [&] {
    in_a.store(a.OnWorkerThread());
    b_from_a.store(b.OnWorkerThread());
  });
  b.Submit(1, [&] {
    in_b.store(b.OnWorkerThread());
    a_from_b.store(a.OnWorkerThread());
  });
  a.Drain(1);
  b.Drain(1);
  EXPECT_EQ(in_a.load(), 1);
  EXPECT_EQ(b_from_a.load(), 0);
  EXPECT_EQ(in_b.load(), 1);
  EXPECT_EQ(a_from_b.load(), 0);
  EXPECT_FALSE(a.OnWorkerThread());  // The caller is never a worker.
}

}  // namespace
