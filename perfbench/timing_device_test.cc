// The timing decorator must be invisible to the index: building the same
// index through it and without it gives byte-identical device images.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/interval_index.h"
#include "timing_device.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using segidx::core::IndexKind;
using segidx::core::IndexOptions;
using segidx::core::IntervalIndex;
using segidx::storage::MemoryBlockDevice;

// Builds `kind` from a fixed M1 dataset on `device`, committing on a
// cadence, closes it, and copies out `memory`, the device at the bottom
// of `device`.
void Build(IndexKind kind,
           std::unique_ptr<segidx::storage::BlockDevice> device,
           const MemoryBlockDevice* memory, std::vector<uint8_t>* image) {
  IndexOptions options;
  options.pager.buffer_pool_bytes = 256u << 10;  // Forces evictions.
  options.skeleton.expected_tuples = 3000;
  options.skeleton.prediction_sample = 500;
  auto index =
      IntervalIndex::CreateWithDevice(kind, std::move(device), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const std::vector<segidx::Rect> rects = segidx::workload::GenerateDataset(
      {segidx::workload::DatasetKind::kM1, 3000, 7});
  for (size_t i = 0; i < rects.size(); ++i) {
    ASSERT_TRUE((*index)->Insert(rects[i], i).ok());
    if (i % 256 == 255) {
      ASSERT_TRUE((*index)->Commit().ok());
    }
  }
  std::vector<segidx::TupleId> hits;
  ASSERT_TRUE(
      (*index)->SearchTuples(segidx::Rect(0, 50000, 0, 50000), &hits).ok());
  ASSERT_TRUE((*index)->Close().ok());
  *image = memory->Snapshot();
}

class TimingDeviceTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(TimingDeviceTest, SnapshotIsByteIdentical) {
  std::vector<uint8_t> plain_image, timed_image;
  auto plain = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice* plain_raw = plain.get();
  Build(GetParam(), std::move(plain), plain_raw, &plain_image);

  auto inner = std::make_unique<MemoryBlockDevice>();
  const MemoryBlockDevice* inner_raw = inner.get();
  Build(GetParam(), std::make_unique<TimingBlockDevice>(std::move(inner)),
        inner_raw, &timed_image);

  ASSERT_FALSE(plain_image.empty());
  ASSERT_EQ(plain_image.size(), timed_image.size());
  EXPECT_TRUE(plain_image == timed_image);
}

TEST(TimingDeviceCountersTest, CountsEveryCall) {
  TimingBlockDevice device(std::make_unique<MemoryBlockDevice>());
  const std::vector<uint8_t> data(4096, 0xab);
  ASSERT_TRUE(device.Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(device.Write(4096, data.data(), 100).ok());
  std::vector<uint8_t> out(512);
  ASSERT_TRUE(device.Read(100, out.size(), out.data()).ok());
  ASSERT_TRUE(device.Sync().ok());
  EXPECT_EQ(out[0], 0xab);
  const DeviceCounters c = device.counters();
  EXPECT_EQ(c.writes, 2u);
  EXPECT_EQ(c.write_bytes, 4196u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.read_bytes, 512u);
  EXPECT_EQ(c.syncs, 1u);
  EXPECT_EQ(device.size(), 4196u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TimingDeviceTest,
                         ::testing::Values(IndexKind::kRTree,
                                           IndexKind::kSRTree,
                                           IndexKind::kSkeletonRTree,
                                           IndexKind::kSkeletonSRTree));

}  // namespace
}  // namespace perfbench
