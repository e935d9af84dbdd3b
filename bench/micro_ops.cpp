// Wall-clock micro-benchmarks (google-benchmark): insert and search
// throughput for each index type, plus storage-layer primitives. These
// complement the paper's node-access metric with real time on the
// in-memory backend.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/interval_index.h"
#include "storage/block_device.h"
#include "storage/coding.h"
#include "storage/pager.h"
#include "workload/datasets.h"

namespace {

using namespace segidx;

core::IndexOptions BenchOptions(uint64_t expected) {
  core::IndexOptions options;
  options.skeleton.expected_tuples = expected;
  options.skeleton.prediction_sample = expected / 10;
  options.pager.buffer_pool_bytes = 256u << 20;
  return options;
}

std::vector<Rect> BenchData(workload::DatasetKind kind, uint64_t count) {
  workload::DatasetSpec spec;
  spec.kind = kind;
  spec.count = count;
  spec.seed = 17;
  return workload::GenerateDataset(spec);
}

void BM_Insert(benchmark::State& state) {
  const auto kind = static_cast<core::IndexKind>(state.range(0));
  const uint64_t n = static_cast<uint64_t>(state.range(1));
  const std::vector<Rect> data = BenchData(workload::DatasetKind::kI3, n);
  for (auto _ : state) {
    auto index =
        core::IntervalIndex::CreateInMemory(kind, BenchOptions(n)).value();
    for (size_t i = 0; i < data.size(); ++i) {
      benchmark::DoNotOptimize(index->Insert(data[i], i));
    }
    benchmark::DoNotOptimize(index->Finalize());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(core::IndexKindName(kind));
}
BENCHMARK(BM_Insert)
    ->ArgsProduct({{0, 1, 2, 3}, {20000}})
    ->Unit(benchmark::kMillisecond);

void BM_Search(benchmark::State& state) {
  const auto kind = static_cast<core::IndexKind>(state.range(0));
  const double qar = static_cast<double>(state.range(1)) / 1000.0;
  const uint64_t n = 50000;
  const std::vector<Rect> data = BenchData(workload::DatasetKind::kI3, n);
  auto index =
      core::IntervalIndex::CreateInMemory(kind, BenchOptions(n)).value();
  for (size_t i = 0; i < data.size(); ++i) {
    (void)index->Insert(data[i], i);
  }
  (void)index->Finalize();
  const std::vector<Rect> queries =
      workload::GenerateQueries(qar, 1e6, 256, 23);
  size_t next = 0;
  std::vector<rtree::SearchHit> hits;
  for (auto _ : state) {
    hits.clear();
    benchmark::DoNotOptimize(
        index->Search(queries[next % queries.size()], &hits));
    benchmark::DoNotOptimize(hits.data());
    ++next;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(std::string(core::IndexKindName(kind)) + " QAR=" +
                 std::to_string(qar));
}
BENCHMARK(BM_Search)
    ->ArgsProduct({{0, 1, 2, 3}, {1, 1000, 1000000}})
    ->Unit(benchmark::kMicrosecond);

void BM_PagerFetchHit(benchmark::State& state) {
  auto pager = storage::Pager::Create(
                   std::make_unique<storage::MemoryBlockDevice>(),
                   storage::PagerOptions())
                   .value();
  storage::PageId id;
  {
    auto page = pager->Allocate(0).value();
    id = page.id();
  }
  for (auto _ : state) {
    auto page = pager->Fetch(id);
    benchmark::DoNotOptimize(page->data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PagerFetchHit);

void BM_PagerAllocateFree(benchmark::State& state) {
  auto pager = storage::Pager::Create(
                   std::make_unique<storage::MemoryBlockDevice>(),
                   storage::PagerOptions())
                   .value();
  for (auto _ : state) {
    storage::PageId id;
    {
      auto page = pager->Allocate(1).value();
      id = page.id();
    }
    benchmark::DoNotOptimize(pager->Free(id));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PagerAllocateFree);

// One checkpoint over a pool of `frames` cached one-block pages of which
// `dirty` were just rewritten, on the in-memory device. Its cost should
// follow the dirty pages, not the cached frames. Every checkpoint reserves
// its journal run past the file's end, so the device grows by about
// `dirty` KiB per iteration; the iteration count is fixed to bound that.
void BM_PagerCheckpoint(benchmark::State& state) {
  const int frames = static_cast<int>(state.range(0));
  const int dirty = static_cast<int>(state.range(1));
  storage::PagerOptions options;
  options.buffer_pool_bytes = static_cast<size_t>(frames) * 2 * 1024;
  auto pager = storage::Pager::Create(
                   std::make_unique<storage::MemoryBlockDevice>(), options)
                   .value();
  std::vector<storage::PageId> ids;
  for (int i = 0; i < frames; ++i) ids.push_back(pager->Allocate(0)->id());
  if (!pager->Checkpoint().ok()) state.SkipWithError("setup checkpoint");
  const uint64_t journaled = pager->stats().journaled_pages;
  size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < dirty; ++i) {
      auto page = pager->Fetch(ids[next++ % ids.size()]).value();
      ++page.data()[0];
      page.MarkDirty();
    }
    if (!pager->Checkpoint().ok()) state.SkipWithError("checkpoint");
  }
  state.counters["journaled_pages"] = benchmark::Counter(
      static_cast<double>(pager->stats().journaled_pages - journaled),
      benchmark::Counter::kAvgIterations);
  state.SetLabel("frames=" + std::to_string(frames) +
                 " dirty=" + std::to_string(dirty));
}
BENCHMARK(BM_PagerCheckpoint)
    ->ArgsProduct({{256, 4096}, {1, 64}})
    ->Iterations(500)
    ->Unit(benchmark::kMicrosecond);

// One GroupCommit from a lone thread with an empty commit function and
// default options: the sequencer's own cost per durable ack when no other
// thread commits.
void BM_PagerGroupCommit(benchmark::State& state) {
  auto pager = storage::Pager::Create(
                   std::make_unique<storage::MemoryBlockDevice>(),
                   storage::PagerOptions())
                   .value();
  for (auto _ : state) {
    if (!pager->GroupCommit([] { return Status::OK(); }).ok()) {
      state.SkipWithError("group commit");
    }
  }
  state.counters["linger_us"] = benchmark::Counter(
      static_cast<double>(pager->stats().commit_linger_us),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PagerGroupCommit)->Unit(benchmark::kMicrosecond);

// CRC32C bytes/s over a buffer whose first `live` percent is random and
// the rest zero — the shape of a node extent, entries first, zeroed tail.
void BM_Crc32c(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  const size_t live = bytes * static_cast<size_t>(state.range(1)) / 100;
  std::vector<uint8_t> buf(bytes, 0);
  uint32_t x = 17;
  for (size_t i = 0; i < live; ++i) {
    x = x * 1103515245u + 12345u;
    buf[i] = static_cast<uint8_t>(x >> 16);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
  state.SetLabel(std::to_string(state.range(1)) + "% live");
}
BENCHMARK(BM_Crc32c)->ArgsProduct({{1 << 10, 8 << 10, 64 << 10},
                                   {100, 50, 10}});

}  // namespace

BENCHMARK_MAIN();
