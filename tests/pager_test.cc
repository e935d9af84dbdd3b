#include "storage/pager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "storage/block_device.h"
#include "storage/coding.h"
#include "storage/fault_injection.h"

namespace segidx::storage {
namespace {

PagerOptions SmallPool() {
  PagerOptions options;
  options.base_block_size = 1024;
  options.buffer_pool_bytes = 8 * 1024;  // Tiny: forces eviction.
  return options;
}

std::unique_ptr<Pager> MakeMemoryPager(const PagerOptions& options) {
  auto result = Pager::Create(std::make_unique<MemoryBlockDevice>(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PageIdTest, EncodeDecodeRoundTrip) {
  PageId id;
  id.block = 12345;
  id.size_class = 3;
  const PageId back = PageId::Decode(id.Encode());
  EXPECT_EQ(back, id);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(PageId().valid());
}

TEST(PageIdTest, DecodeRejectsReservedHighBits) {
  PageId id;
  id.block = 77;
  id.size_class = 2;
  // Bits 40-63 are reserved-zero; a flip anywhere in them means the
  // pointer bytes are corrupt and must not alias a plausible PageId.
  for (int bit = 40; bit < 64; ++bit) {
    const PageId back = PageId::Decode(id.Encode() | (uint64_t{1} << bit));
    EXPECT_FALSE(back.valid()) << "accepted garbage in bit " << bit;
  }
}

TEST(PagerTest, AllocateZeroedAndWritable) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 1024u);
  for (size_t i = 0; i < page->size(); ++i) {
    ASSERT_EQ(page->data()[i], 0);
  }
  std::memset(page->data(), 0x5a, page->size());
  page->MarkDirty();
}

TEST(PagerTest, ExtentSizesDoublePerClass) {
  auto pager = MakeMemoryPager(PagerOptions());
  EXPECT_EQ(pager->ExtentBytes(0), 1024u);
  EXPECT_EQ(pager->ExtentBytes(1), 2048u);
  EXPECT_EQ(pager->ExtentBytes(4), 16384u);
  auto page = pager->Allocate(4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->size(), 16384u);
}

TEST(PagerTest, FetchReturnsWrittenBytes) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(1);
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->data()[0] = 0x11;
    page->data()[2047] = 0x22;
    page->MarkDirty();
  }
  auto fetched = pager->Fetch(id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->data()[0], 0x11);
  EXPECT_EQ(fetched->data()[2047], 0x22);
}

TEST(PagerTest, EvictionWritesBackDirtyPages) {
  auto pager = MakeMemoryPager(SmallPool());
  std::vector<PageId> ids;
  // 32 KB of pages through an 8 KB pool.
  for (int i = 0; i < 32; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<uint8_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  EXPECT_GT(pager->stats().evictions, 0u);
  for (int i = 0; i < 32; ++i) {
    auto page = pager->Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], static_cast<uint8_t>(i));
  }
}

TEST(PagerTest, PinnedPagesSurviveCapacityPressure) {
  auto pager = MakeMemoryPager(SmallPool());
  auto pinned = pager->Allocate(0);
  ASSERT_TRUE(pinned.ok());
  pinned->data()[7] = 0x77;
  pinned->MarkDirty();
  for (int i = 0; i < 64; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
  }
  // The pinned frame was never evicted: the pointer is still valid.
  EXPECT_EQ(pinned->data()[7], 0x77);
  EXPECT_GE(pager->pinned_frames(), 1u);
}

TEST(PagerTest, AllPinnedPoolTransientlyExceedsBudgetThenShrinks) {
  PagerOptions options = SmallPool();
  options.lru_partitions = 1;
  auto pager = MakeMemoryPager(options);
  // 16 KB of pinned frames through an 8 KB pool: nothing is evictable, so
  // the pool exceeds its budget rather than failing.
  std::vector<PageHandle> pins;
  for (int i = 0; i < 16; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    pins.push_back(std::move(page).value());
  }
  EXPECT_GT(pager->cached_bytes(), options.buffer_pool_bytes);
  EXPECT_EQ(pager->pinned_frames(), 16u);
  // Releasing the pins lets the pool shrink back within its budget.
  pins.clear();
  EXPECT_LE(pager->cached_bytes(), options.buffer_pool_bytes);
  EXPECT_EQ(pager->pinned_frames(), 0u);
}

TEST(PagerTest, EvictsLeastRecentlyUsedFirst) {
  PagerOptions options = SmallPool();  // Exactly 8 one-block frames.
  options.lru_partitions = 1;          // Global LRU for determinism.
  auto pager = MakeMemoryPager(options);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    ids.push_back(page->id());
  }
  // Touch ids[0] so ids[1] becomes the least recently used frame.
  { auto page = pager->Fetch(ids[0]); ASSERT_TRUE(page.ok()); }
  pager->ResetStats();
  { auto page = pager->Allocate(0); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().evictions, 1u);
  // The recently touched frame survived; the LRU frame did not.
  { auto page = pager->Fetch(ids[0]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().physical_reads, 0u);
  { auto page = pager->Fetch(ids[1]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(pager->stats().physical_reads, 1u);
}

TEST(PagerTest, ConcurrentFetchesSeeConsistentFrames) {
  auto pager = MakeMemoryPager(SmallPool());  // Evictions stay frequent.
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    page->data()[0] = static_cast<uint8_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = static_cast<size_t>(t * 17 + round) % ids.size();
        auto page = pager->Fetch(ids[i]);
        if (!page.ok() || page->data()[0] != static_cast<uint8_t>(i)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pager->stats().logical_reads,
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(pager->pinned_frames(), 0u);
}

TEST(PagerTest, StatsCountHitsAndMisses) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    id = page->id();
  }
  pager->ResetStats();
  { auto page = pager->Fetch(id); }
  { auto page = pager->Fetch(id); }
  EXPECT_EQ(pager->stats().logical_reads, 2u);
  EXPECT_EQ(pager->stats().cache_hits, 2u);  // Still cached from Allocate.
  EXPECT_EQ(pager->stats().physical_reads, 0u);
}

TEST(PagerTest, FreeReusesExtents) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId first;
  {
    auto page = pager->Allocate(2);
    ASSERT_TRUE(page.ok());
    first = page->id();
  }
  ASSERT_TRUE(pager->Free(first).ok());
  auto again = pager->Allocate(2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id().block, first.block);
  // Reallocated extents come back zeroed.
  for (size_t i = 0; i < again->size(); ++i) {
    ASSERT_EQ(again->data()[i], 0);
  }
}

TEST(PagerTest, FreeDifferentClassesUseSeparateLists) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId small;
  PageId big;
  {
    auto a = pager->Allocate(0);
    auto b = pager->Allocate(3);
    small = a->id();
    big = b->id();
  }
  ASSERT_TRUE(pager->Free(small).ok());
  ASSERT_TRUE(pager->Free(big).ok());
  auto realloc_big = pager->Allocate(3);
  ASSERT_TRUE(realloc_big.ok());
  EXPECT_EQ(realloc_big->id().block, big.block);
}

TEST(PagerTest, FreePinnedPageFails) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pager->Free(page->id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PagerTest, UserMetaRoundTrip) {
  auto pager = MakeMemoryPager(PagerOptions());
  const std::string blob = "tree metadata goes here";
  ASSERT_TRUE(pager
                  ->SetUserMeta(reinterpret_cast<const uint8_t*>(blob.data()),
                                blob.size())
                  .ok());
  EXPECT_EQ(std::string(pager->user_meta().begin(), pager->user_meta().end()),
            blob);
  std::vector<uint8_t> too_big(Pager::kUserMetaCapacity + 1, 0);
  EXPECT_FALSE(pager->SetUserMeta(too_big.data(), too_big.size()).ok());
}

TEST(PagerTest, PersistsAcrossReopen) {
  const std::string path = testing::TempDir() + "/pager_persist";
  std::remove(path.c_str());
  PagerOptions options;
  PageId id;
  {
    auto device = FileBlockDevice::Open(path, /*create=*/true).value();
    auto pager = Pager::Create(std::move(device), options).value();
    auto page = pager->Allocate(1);
    ASSERT_TRUE(page.ok());
    id = page->id();
    std::memset(page->data(), 0x3c, page->size());
    page->MarkDirty();
    page->Release();
    const uint8_t meta[] = {'h', 'i'};
    ASSERT_TRUE(pager->SetUserMeta(meta, 2).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto device = FileBlockDevice::Open(path, /*create=*/false).value();
    auto pager = Pager::Open(std::move(device), options).value();
    EXPECT_EQ(pager->user_meta().size(), 2u);
    EXPECT_EQ(pager->user_meta()[0], 'h');
    auto page = pager->Fetch(id);
    ASSERT_TRUE(page.ok());
    for (size_t i = 0; i < page->size(); ++i) {
      ASSERT_EQ(page->data()[i], 0x3c);
    }
  }
}

TEST(PagerTest, FreeListSurvivesReopen) {
  const std::string path = testing::TempDir() + "/pager_freelist";
  std::remove(path.c_str());
  PagerOptions options;
  PageId freed;
  {
    auto pager =
        Pager::Create(FileBlockDevice::Open(path, true).value(), options)
            .value();
    {
      auto a = pager->Allocate(0);
      auto b = pager->Allocate(0);
      freed = a->id();
    }
    ASSERT_TRUE(pager->Free(freed).ok());
    ASSERT_TRUE(pager->Checkpoint().ok());
  }
  {
    auto pager =
        Pager::Open(FileBlockDevice::Open(path, false).value(), options)
            .value();
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->id().block, freed.block);
  }
}

TEST(PagerTest, OpenRejectsGarbage) {
  auto device = std::make_unique<MemoryBlockDevice>();
  std::vector<uint8_t> junk(2048, 0xab);
  ASSERT_TRUE(device->Write(0, junk.data(), junk.size()).ok());
  const auto result = Pager::Open(std::move(device), PagerOptions());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(PagerTest, OpenRejectsBlockSizeMismatch) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  {
    PagerOptions options;
    options.base_block_size = 1024;
    auto pager = Pager::Create(std::move(device), options).value();
    ASSERT_TRUE(pager->Checkpoint().ok());
    // Steal the bytes into a fresh device for reopening.
    std::vector<uint8_t> bytes(raw->size());
    ASSERT_TRUE(raw->Read(0, bytes.size(), bytes.data()).ok());
    auto device2 = std::make_unique<MemoryBlockDevice>();
    ASSERT_TRUE(device2->Write(0, bytes.data(), bytes.size()).ok());
    PagerOptions mismatched;
    mismatched.base_block_size = 2048;
    const auto result = Pager::Open(std::move(device2), mismatched);
    EXPECT_FALSE(result.ok());
  }
}

TEST(PageHandleTest, MoveTransfersPin) {
  auto pager = MakeMemoryPager(PagerOptions());
  auto page = pager->Allocate(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pager->pinned_frames(), 1u);
  PageHandle moved = std::move(page).value();
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(pager->pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pager->pinned_frames(), 0u);
  moved.Release();  // Idempotent.
}

TEST(PagerTest, FreeExtentsEnumeratesEveryFreeList) {
  auto pager = MakeMemoryPager(PagerOptions());
  EXPECT_TRUE(pager->FreeExtents()->empty());

  PageId a, b, c;
  {
    auto pa = pager->Allocate(0);
    auto pb = pager->Allocate(0);
    auto pc = pager->Allocate(2);
    a = pa->id();
    b = pb->id();
    c = pc->id();
  }
  ASSERT_TRUE(pager->Free(a).ok());
  ASSERT_TRUE(pager->Free(c).ok());
  auto free_extents = pager->FreeExtents();
  ASSERT_TRUE(free_extents.ok()) << free_extents.status().ToString();
  ASSERT_EQ(free_extents->size(), 2u);
  bool saw_a = false, saw_c = false;
  for (const PageId& id : *free_extents) {
    saw_a = saw_a || id == a;
    saw_c = saw_c || id == c;
    EXPECT_FALSE(id == b);
  }
  EXPECT_TRUE(saw_a && saw_c);
}

// Scribbles the next-link of a freed extent (its first four bytes on the
// device) and expects FreeExtents to reject the list as corrupt.
void CorruptFreeLink(uint32_t link_target) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* raw = device.get();
  auto created = Pager::Create(std::move(device), PagerOptions());
  ASSERT_TRUE(created.ok());
  auto pager = std::move(created).value();

  PageId a;
  {
    auto pa = pager->Allocate(0);
    ASSERT_TRUE(pa.ok());
    a = pa->id();
  }
  ASSERT_TRUE(pager->Free(a).ok());
  // Freed extents only reach the on-device chain at the next checkpoint;
  // before that they sit in the in-memory pending list.
  ASSERT_TRUE(pager->Checkpoint().ok());
  uint8_t link[4];
  EncodeU32(link, link_target);
  ASSERT_TRUE(
      raw->Write(static_cast<uint64_t>(a.block) * 1024, link, 4).ok());

  const auto free_extents = pager->FreeExtents();
  ASSERT_FALSE(free_extents.ok());
  EXPECT_EQ(free_extents.status().code(), StatusCode::kCorruption);
}

TEST(PagerTest, FreeExtentsRejectsOutOfRangeLink) {
  CorruptFreeLink(500000);  // Past the allocation high-water mark.
}

TEST(PagerTest, FreeExtentsRejectsCyclicList) {
  CorruptFreeLink(2);  // The freed extent is block 2: a self-loop.
}

TEST(PagerTest, QuarantineBlocksFetchUntilCleared) {
  auto pager = MakeMemoryPager(PagerOptions());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok());
    id = page->id();
    std::memset(page->data(), 0x7e, page->size());
    page->MarkDirty();
  }
  ASSERT_TRUE(pager->Checkpoint().ok());

  EXPECT_TRUE(pager->QuarantinePage(id, "checksum mismatch (test)"));
  EXPECT_TRUE(pager->IsQuarantined(id.block));
  EXPECT_EQ(pager->quarantined_count(), 1u);
  // Re-quarantining the same extent is idempotent, not a second slot.
  EXPECT_TRUE(pager->QuarantinePage(id, "again"));
  EXPECT_EQ(pager->quarantined_count(), 1u);

  const auto fetch = pager->Fetch(id);
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kCorruption);
  // Quarantine is page-scoped: the pager itself stays healthy.
  EXPECT_FALSE(pager->degraded());

  const auto listed = pager->QuarantinedPages();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].page, id);

  pager->ClearQuarantine();
  EXPECT_EQ(pager->quarantined_count(), 0u);
  auto page = pager->Fetch(id);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->data()[0], 0x7e);
}

TEST(PagerTest, QuarantineSetIsBounded) {
  auto pager = MakeMemoryPager(PagerOptions());
  for (size_t i = 0; i < Pager::kMaxQuarantinedPages; ++i) {
    PageId id;
    id.block = static_cast<uint32_t>(100 + i);
    id.size_class = 0;
    EXPECT_TRUE(pager->QuarantinePage(id, "fill"));
  }
  EXPECT_EQ(pager->quarantined_count(), Pager::kMaxQuarantinedPages);
  PageId overflow;
  overflow.block = 99999;
  overflow.size_class = 0;
  // A full set refuses new entries so a mass-corruption event cannot turn
  // every search into a silent near-empty partial result.
  EXPECT_FALSE(pager->QuarantinePage(overflow, "one too many"));
  EXPECT_FALSE(pager->IsQuarantined(overflow.block));
}

TEST(PagerTest, GroupCommitRunsFunctionAndCountsStats) {
  auto pager = MakeMemoryPager(PagerOptions());
  int calls = 0;
  EXPECT_TRUE(pager->GroupCommit([&] {
                     ++calls;
                     return Status::OK();
                   })
                  .ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(pager->stats().commit_requests, 1u);
  EXPECT_EQ(pager->stats().commit_batches, 1u);
}

TEST(PagerTest, GroupCommitPropagatesErrorToEveryBatchMember) {
  auto pager = MakeMemoryPager(PagerOptions());
  const Status st =
      pager->GroupCommit([] { return IoError("sync failed"); });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // A later commit starts a fresh batch and is not poisoned by history.
  EXPECT_TRUE(pager->GroupCommit([] { return Status::OK(); }).ok());
}

TEST(PagerTest, ConcurrentGroupCommitsCoalesceIntoBatches) {
  PagerOptions options;
  options.group_commit_window_us = 2000;  // Wide window to force batching.
  auto pager = MakeMemoryPager(options);
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 20;
  std::atomic<int> executions{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        const Status st = pager->GroupCommit([&] {
          executions.fetch_add(1);
          return Status::OK();
        });
        if (!st.ok()) failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  const StorageStats& stats = pager->stats();
  EXPECT_EQ(stats.commit_requests,
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
  // Every batch runs the function exactly once, on behalf of everyone who
  // joined it; followers must not re-run it.
  EXPECT_EQ(stats.commit_batches, static_cast<uint64_t>(executions.load()));
  EXPECT_LE(stats.commit_batches, stats.commit_requests);
  // With 8 threads hammering a 2ms window, amortization must be visible.
  EXPECT_LT(stats.commit_batches, stats.commit_requests);
}

TEST(PagerTest, SoleCommitterNeverLingers) {
  PagerOptions options;
  options.group_commit_window_us = 1000000;  // One second per linger.
  auto pager = MakeMemoryPager(options);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pager->GroupCommit([] { return Status::OK(); }).ok());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Nobody else commits, so no leader waits: 50 calls take far less than
  // one window.
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
  const StorageStats& stats = pager->stats();
  EXPECT_EQ(stats.commit_requests, 50u);
  EXPECT_EQ(stats.commit_batches, 50u);
  EXPECT_EQ(stats.commit_linger_us, 0u);
}

TEST(PagerTest, AlternatingCommittersStillCoalesce) {
  PagerOptions options;
  options.group_commit_window_us = 5000;
  auto pager = MakeMemoryPager(options);
  constexpr int kCommitsPerThread = 20;
  // Each thread keeps committing until both have made kCommitsPerThread
  // requests, so their requests interleave however the two are scheduled.
  std::atomic<int> made[2] = {0, 0};
  std::atomic<bool> failed{false};
  auto committer = [&](int me) {
    while (made[me].load() < kCommitsPerThread ||
           made[1 - me].load() < kCommitsPerThread) {
      if (!pager->GroupCommit([] { return Status::OK(); }).ok()) {
        failed.store(true);
      }
      made[me].fetch_add(1);
    }
  };
  std::thread a(committer, 0);
  std::thread b(committer, 1);
  a.join();
  b.join();
  EXPECT_FALSE(failed.load());
  const StorageStats& stats = pager->stats();
  EXPECT_EQ(stats.commit_requests,
            static_cast<uint64_t>(made[0].load() + made[1].load()));
  // A request that follows the other thread's lingers for it.
  EXPECT_LT(stats.commit_batches, stats.commit_requests);
  EXPECT_GT(stats.commit_linger_us, 0u);
}

TEST(PagerTest, UncheckpointedChangesTrackDirtyPagesAndFrees) {
  auto pager = MakeMemoryPager(PagerOptions());
  EXPECT_FALSE(pager->HasUncheckpointedChanges());
  PageId id;
  {
    auto page = pager->Allocate(0);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    id = page->id();
  }
  EXPECT_TRUE(pager->HasUncheckpointedChanges());
  ASSERT_TRUE(pager->Checkpoint().ok());
  EXPECT_FALSE(pager->HasUncheckpointedChanges());
  ASSERT_TRUE(pager->Free(id).ok());
  EXPECT_TRUE(pager->HasUncheckpointedChanges());
  ASSERT_TRUE(pager->Checkpoint().ok());
  EXPECT_FALSE(pager->HasUncheckpointedChanges());
}

// --- dirty-set bookkeeping -------------------------------------------------
//
// Checkpoint() journals the pages named by the partitions' dirty sets (plus
// spilled pages). Each case below asserts what a checkpoint journaled, then
// reopens a copy of the device and compares every page's bytes.

// Pool of `frames` one-block frames in one partition (exact global LRU).
PagerOptions OnePartitionPool(size_t frames) {
  PagerOptions options;
  options.base_block_size = 1024;
  options.buffer_pool_bytes = frames * 1024;
  options.lru_partitions = 1;
  return options;
}

// Fills a pinned page with `fill` and marks it dirty.
void Scribble(PageHandle& page, uint8_t fill) {
  std::memset(page.data(), fill, page.size());
  page.MarkDirty();
}

void ScribbleFetched(Pager& pager, PageId id, uint8_t fill) {
  auto page = pager.Fetch(id);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  Scribble(*page, fill);
}

// Allocates `n` one-block pages, page i filled with `first_fill + i`.
std::vector<PageId> AllocateFilled(Pager& pager, int n, uint8_t first_fill) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto page = pager.Allocate(0);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) break;
    Scribble(*page, static_cast<uint8_t>(first_fill + i));
    ids.push_back(page->id());
  }
  return ids;
}

// Every byte of page `id` equals `fill`.
void ExpectFilled(Pager& pager, PageId id, uint8_t fill) {
  auto page = pager.Fetch(id);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  for (size_t i = 0; i < page->size(); ++i) {
    ASSERT_EQ(page->data()[i], fill) << "block " << id.block << " byte " << i;
  }
}

// Opens a copy of `device` (the durable bytes as they stand) and expects
// each listed page to hold its fill.
void ExpectReopened(const MemoryBlockDevice& device,
                    const PagerOptions& options,
                    const std::vector<std::pair<PageId, uint8_t>>& expected) {
  auto reopened = Pager::Open(
      std::make_unique<MemoryBlockDevice>(device.Snapshot()), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const auto& [id, fill] : expected) {
    ExpectFilled(**reopened, id, fill);
  }
}

TEST(PagerDirtySetTest, SpilledThenRedirtiedPageIsJournaledOnceWithLatest) {
  const PagerOptions options = OnePartitionPool(4);
  auto device = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice& raw = *device;
  auto pager = Pager::Create(std::move(device), options).value();
  const std::vector<PageId> ids = AllocateFilled(*pager, 8, 1);
  ASSERT_EQ(ids.size(), 8u);
  ASSERT_TRUE(pager->Checkpoint().ok());

  // Dirty page 0, then fetch the other seven past it: it spills.
  ScribbleFetched(*pager, ids[0], 0xa1);
  const StorageStats before_spill = pager->stats();
  for (size_t i = 1; i < ids.size(); ++i) ExpectFilled(*pager, ids[i], i + 1);
  EXPECT_EQ(pager->stats().spills, before_spill.spills + 1);

  // Fetched back (from its spill) and dirtied again: the checkpoint
  // journals it once, with the second image.
  ExpectFilled(*pager, ids[0], 0xa1);
  ScribbleFetched(*pager, ids[0], 0xa2);
  const StorageStats before = pager->stats();
  ASSERT_TRUE(pager->Checkpoint().ok());
  const StorageStats& after = pager->stats();
  EXPECT_EQ(after.journaled_pages - before.journaled_pages, 1u);
  const uint64_t journal_bytes = after.journal_bytes - before.journal_bytes;
  EXPECT_GT(journal_bytes, pager->ExtentBytes(0));
  EXPECT_EQ(journal_bytes % options.base_block_size, 0u);

  std::vector<std::pair<PageId, uint8_t>> expected = {{ids[0], 0xa2}};
  for (size_t i = 1; i < ids.size(); ++i) {
    expected.emplace_back(ids[i], static_cast<uint8_t>(i + 1));
  }
  ExpectReopened(raw, options, expected);
}

TEST(PagerDirtySetTest, FrameFreedWhileDirtyIsNotJournaled) {
  const PagerOptions options = OnePartitionPool(64);
  auto device = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice& raw = *device;
  auto pager = Pager::Create(std::move(device), options).value();
  const std::vector<PageId> ids = AllocateFilled(*pager, 3, 1);
  ASSERT_EQ(ids.size(), 3u);
  ASSERT_TRUE(pager->Checkpoint().ok());

  ScribbleFetched(*pager, ids[0], 0xf0);
  ScribbleFetched(*pager, ids[1], 0xb1);
  ASSERT_TRUE(pager->Free(ids[0]).ok());
  const StorageStats before = pager->stats();
  ASSERT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->stats().journaled_pages - before.journaled_pages, 1u);

  const auto free_extents = pager->FreeExtents();
  ASSERT_TRUE(free_extents.ok());
  EXPECT_NE(std::find(free_extents->begin(), free_extents->end(), ids[0]),
            free_extents->end());
  ExpectReopened(raw, options, {{ids[1], 0xb1}, {ids[2], 3}});
}

TEST(PagerDirtySetTest, DegradedPagerKeepsDirtyFramesCached) {
  const PagerOptions options = OnePartitionPool(4);
  auto memory = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice& raw = *memory;
  auto faulty = std::make_unique<FaultInjectingBlockDevice>(std::move(memory));
  FaultInjectingBlockDevice* dev = faulty.get();
  auto pager = Pager::Create(std::move(faulty), options).value();
  const std::vector<PageId> ids = AllocateFilled(*pager, 8, 1);
  ASSERT_EQ(ids.size(), 8u);
  ASSERT_TRUE(pager->Checkpoint().ok());

  // Dirty the first four pages (they displace the clean ones), then fail
  // the checkpoint's journal write: the pager degrades.
  for (int i = 0; i < 4; ++i) ScribbleFetched(*pager, ids[i], 0xd0 + i);
  dev->FailNthWrite(0, /*sticky=*/true);
  EXPECT_FALSE(pager->Checkpoint().ok());
  ASSERT_TRUE(pager->degraded());

  // Reading the other pages cannot evict the dirty frames: there is no
  // safe place left to write them.
  const StorageStats before = pager->stats();
  for (int i = 4; i < 8; ++i) ExpectFilled(*pager, ids[i], i + 1);
  EXPECT_EQ(pager->cached_frames(), 4u);
  EXPECT_EQ(pager->stats().spills, before.spills);
  const uint64_t reads = pager->stats().physical_reads;
  for (int i = 0; i < 4; ++i) ExpectFilled(*pager, ids[i], 0xd0 + i);
  EXPECT_EQ(pager->stats().physical_reads, reads);
  EXPECT_EQ(pager->Checkpoint().code(), StatusCode::kUnavailable);

  // The failed checkpoint published nothing: the file holds the last
  // durable images.
  std::vector<std::pair<PageId, uint8_t>> expected;
  for (int i = 0; i < 8; ++i) {
    expected.emplace_back(ids[i], static_cast<uint8_t>(i + 1));
  }
  ExpectReopened(raw, options, expected);
}

TEST(PagerDirtySetTest, ManyCleanFramesPlusOneDirtyJournalOnePage) {
  PagerOptions options;
  options.base_block_size = 1024;
  auto device = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice& raw = *device;
  auto pager = Pager::Create(std::move(device), options).value();
  const std::vector<PageId> ids = AllocateFilled(*pager, 512, 0);
  ASSERT_EQ(ids.size(), 512u);
  ASSERT_TRUE(pager->Checkpoint().ok());
  EXPECT_EQ(pager->stats().journaled_pages, 512u);
  ASSERT_EQ(pager->cached_frames(), 512u);

  ScribbleFetched(*pager, ids[300], 0xee);
  const StorageStats before = pager->stats();
  ASSERT_TRUE(pager->Checkpoint().ok());
  const StorageStats& after = pager->stats();
  EXPECT_EQ(after.journaled_pages - before.journaled_pages, 1u);
  // One page entry, the header and no links or scraps: two blocks.
  EXPECT_EQ(after.journal_bytes - before.journal_bytes, 2u * 1024);
  EXPECT_EQ(after.physical_writes - before.physical_writes, 1u);

  std::vector<std::pair<PageId, uint8_t>> expected;
  for (size_t i = 0; i < ids.size(); ++i) {
    expected.emplace_back(ids[i],
                          i == 300 ? 0xee : static_cast<uint8_t>(i));
  }
  ExpectReopened(raw, options, expected);
}

}  // namespace
}  // namespace segidx::storage
