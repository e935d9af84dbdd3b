// In-memory span recorder for the benchmark's traced runs.
//
// A Span is opened around a call into one layer (a workload operation, an
// IntervalIndex call, a device Read/Write/Sync, a server::Client request).
// While tracing is off a Span costs one relaxed load. While it is on, each
// span records its name, start, end, parent (the span open on the same
// thread when it started) and request id, and the records stay in memory
// until WriteTo() dumps them at exit. trace_summary.py turns the file into
// per-layer self time.
//
// Spans opened on a thread with no open span (the server's dispatcher
// threads, say) have parent 0 and request 0.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);

  // Spans past the capacity are counted, not kept.
  uint64_t dropped() const { return dropped_.load(); }

  // One line per span: "id parent request name start_ns end_ns".
  bool WriteTo(const std::string& path);

 private:
  static constexpr size_t kCapacity = 1 << 21;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> dropped_{0};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

int64_t NowNs();

// RAII span. A span opened with `new_request` (a workload operation)
// starts a request whose id is its own span id; any other span inherits
// the request of the span enclosing it on this thread.
class Span {
 public:
  explicit Span(const char* name, bool new_request = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  bool active_ = false;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
