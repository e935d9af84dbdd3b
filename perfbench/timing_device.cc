#include "timing_device.h"

#include "trace.h"

namespace perfbench {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

DeviceCounters DeviceCounters::operator-(const DeviceCounters& o) const {
  DeviceCounters d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.writes = writes - o.writes;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  d.syncs = syncs - o.syncs;
  d.sync_ns = sync_ns - o.sync_ns;
  return d;
}

segidx::Status TimingBlockDevice::Read(uint64_t offset, size_t n,
                                       uint8_t* out) const {
  Span span("device.Read");
  const int64_t t0 = NowNs();
  segidx::Status st = inner_->Read(offset, n, out);
  read_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0), kRelaxed);
  reads_.fetch_add(1, kRelaxed);
  read_bytes_.fetch_add(n, kRelaxed);
  return st;
}

segidx::Status TimingBlockDevice::Write(uint64_t offset, const uint8_t* data,
                                        size_t n) {
  Span span("device.Write");
  const int64_t t0 = NowNs();
  segidx::Status st = inner_->Write(offset, data, n);
  write_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0), kRelaxed);
  writes_.fetch_add(1, kRelaxed);
  write_bytes_.fetch_add(n, kRelaxed);
  return st;
}

segidx::Status TimingBlockDevice::Sync() {
  Span span("device.Sync");
  const int64_t t0 = NowNs();
  segidx::Status st = inner_->Sync();
  sync_ns_.fetch_add(static_cast<uint64_t>(NowNs() - t0), kRelaxed);
  syncs_.fetch_add(1, kRelaxed);
  return st;
}

DeviceCounters TimingBlockDevice::counters() const {
  DeviceCounters c;
  c.reads = reads_.load(kRelaxed);
  c.read_bytes = read_bytes_.load(kRelaxed);
  c.read_ns = read_ns_.load(kRelaxed);
  c.writes = writes_.load(kRelaxed);
  c.write_bytes = write_bytes_.load(kRelaxed);
  c.write_ns = write_ns_.load(kRelaxed);
  c.syncs = syncs_.load(kRelaxed);
  c.sync_ns = sync_ns_.load(kRelaxed);
  return c;
}

}  // namespace perfbench
