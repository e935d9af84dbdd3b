// A storage::BlockDevice decorator that counts and times every call into
// the device below it, and records a trace span per Read/Write/Sync while
// tracing is on. It changes no bytes: an index built through it is
// byte-identical to one built without it (timing_device_test.cc).
//
// Counters are relaxed atomics, so the pager may call it from any thread;
// a snapshot taken while the index is quiet is consistent.

#ifndef PERFBENCH_TIMING_DEVICE_H_
#define PERFBENCH_TIMING_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/block_device.h"

namespace perfbench {

struct DeviceCounters {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;

  DeviceCounters operator-(const DeviceCounters& o) const;
};

class TimingBlockDevice : public segidx::storage::BlockDevice {
 public:
  explicit TimingBlockDevice(
      std::unique_ptr<segidx::storage::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  segidx::Status Read(uint64_t offset, size_t n, uint8_t* out) const override;
  segidx::Status Write(uint64_t offset, const uint8_t* data,
                       size_t n) override;
  segidx::Status Sync() override;
  uint64_t size() const override { return inner_->size(); }
  segidx::Status Truncate(uint64_t new_size) override {
    return inner_->Truncate(new_size);
  }

  DeviceCounters counters() const;

 private:
  std::unique_ptr<segidx::storage::BlockDevice> inner_;
  mutable std::atomic<uint64_t> reads_{0}, read_bytes_{0}, read_ns_{0};
  std::atomic<uint64_t> writes_{0}, write_bytes_{0}, write_ns_{0};
  std::atomic<uint64_t> syncs_{0}, sync_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_DEVICE_H_
