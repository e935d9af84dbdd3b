// Shared pieces of the three workloads: arguments, latency samples, layer
// stat snapshots, the per-layer metric formulas, the traced/untraced epoch
// clock, and the report line the workloads print.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/interval_index.h"
#include "timing_device.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;     // Scratch files (index files) go here.
  std::string trace_path;  // Span file written by a traced run.
};

// A record's user payload for space and write amplification: the 32-byte
// rectangle plus the 8-byte tuple id.
constexpr double kUserBytesPerRecord = 40;

// A latency percentile is computed over chunks. Samples come in strata,
// streams in the order they were taken: the single thread of ingest_disk,
// each connection of serve_mixed, each tree or build of search_hot. Chunk
// c takes the c-th stretch of every stratum, so each chunk mixes the
// strata as the whole run does; a chunk holds at least kMinChunkSamples
// samples (fewer than twice that many form one chunk), so every chunk's
// p99 rests on 1 000 samples. The figure is a quantile, by nearest rank,
// over the chunks' percentiles (see Samples::Across).
constexpr size_t kMinChunkSamples = 1000;
constexpr size_t kMaxChunks = 20;

// Latency samples of one operation type, in microseconds. A float per
// sample keeps the benchmark's own memory small beside the index's in
// rss_mb.
class Samples {
 public:
  // How a percentile is taken over the chunks' percentiles.
  //
  // kLowerQuartile, the default: on the shared host the benchmark was
  // written on, stalls from outside the process come in bursts from
  // seconds to minutes long and only ever add latency. The lower quartile
  // over up to 20 chunks ignores a burst that spoils fewer than three
  // chunks in four; the median over 5 chunks let through one that spoiled
  // three. The cost: a stall of the program's own that shows in fewer than
  // three chunks in four does not show here either.
  //
  // kMedian, for samples that ramp through each stratum, as commits do
  // through a build while the tree grows: there the early chunks are cheap
  // by construction, and a lower quartile would report only them.
  enum class Across { kLowerQuartile, kMedian };

  explicit Samples(Across across = Across::kLowerQuartile)
      : across_(across) {}

  // One operation that ran from start_ns to end_ns, in the current
  // stratum.
  void Add(int64_t start_ns, int64_t end_ns) {
    if (strata_.empty()) strata_.emplace_back();
    strata_.back().push_back(static_cast<float>(end_ns - start_ns) / 1e3f);
  }
  // Later samples go to a new stratum.
  void NewStratum() { strata_.emplace_back(); }
  // Adds o's strata as strata of this.
  void Append(const Samples& o);
  size_t count() const;
  size_t chunks() const;
  // The nearest-rank percentile of each chunk, p in [0, 1], taken across
  // the chunks as `across` says; in microseconds.
  double Percentile(double p) const;

 private:
  Across across_;
  std::vector<std::vector<float>> strata_;
};

// Counters of every layer below the benchmark, taken while the index is
// quiet. Differences of two snapshots give a window's work.
struct LayerSnapshot {
  segidx::rtree::TreeStats tree;
  segidx::storage::StorageStats storage;
  segidx::rtree::LatchStats latch;
  DeviceCounters device;
};
LayerSnapshot TakeSnapshot(segidx::core::IntervalIndex* index,
                           const TimingBlockDevice* device);

// A file without its flush: Sync() returns at once, and every other call
// reaches the file. The file-backed workloads put the index on one, under
// the timing device, which still counts each sync. The host's fsync
// swings by several times from minute to minute; with it in the path the
// commit and insert tails moved by a third or more between runs of one
// build, beyond any bound a benchmark can hold. Nothing is durable until
// the page cache writes back, which the benchmark never needs: it reopens
// its files in the same process.
class UnflushedFile : public segidx::storage::BlockDevice {
 public:
  explicit UnflushedFile(std::unique_ptr<segidx::storage::BlockDevice> file)
      : file_(std::move(file)) {}
  segidx::Status Read(uint64_t offset, size_t n,
                      uint8_t* out) const override {
    return file_->Read(offset, n, out);
  }
  segidx::Status Write(uint64_t offset, const uint8_t* data,
                       size_t n) override {
    return file_->Write(offset, data, n);
  }
  segidx::Status Sync() override { return segidx::Status::OK(); }
  uint64_t size() const override { return file_->size(); }
  segidx::Status Truncate(uint64_t new_size) override {
    return file_->Truncate(new_size);
  }

 private:
  std::unique_ptr<segidx::storage::BlockDevice> file_;
};

class Report;

// The per-layer metrics computed from counter deltas. The search-side
// metrics cover the window between the `reads` snapshots, in which the
// benchmark completed `read_ops` operations; the insert-side ones cover the
// `writes` window (the build for search_hot, the timed phase otherwise).
void AddLayerMetrics(Report* report, const LayerSnapshot& reads_before,
                     const LayerSnapshot& reads_after, uint64_t read_ops,
                     const LayerSnapshot& writes_before,
                     const LayerSnapshot& writes_after);

// Reports the server-side per-layer metrics (exec.*, server.*,
// bench.gen_lag_p99_us) as 0, for the embedded workloads that run no
// server.
void AddNoServerMetrics(Report* report);

// Free extent bytes over file bytes. Reads the device's free-list links, so
// take device snapshots before calling it.
double FreeBytesRatio(segidx::core::IntervalIndex* index, uint64_t file_bytes);

// Alternates tracing on and off in short epochs while a timed phase runs,
// and counts completed operations per mode, so one traced run yields both
// the spans and the traced/untraced throughput ratio. Inert when tracing
// was not asked for.
class TraceEpochs {
 public:
  explicit TraceEpochs(bool trace) : trace_(trace) {}
  // Starts (or resumes) timing; `completed_ops` is the running count of
  // operations so far.
  void Start(uint64_t completed_ops = 0);
  // Call after each completed operation (single-threaded phases).
  void Tick(uint64_t completed_ops);
  void Stop(uint64_t completed_ops);
  // Traced throughput over untraced throughput; 0 without both.
  double Overhead() const;

 private:
  void Switch(uint64_t completed_ops, int64_t now);

  bool trace_;
  bool on_ = false;
  int64_t epoch_start_ = 0;
  uint64_t epoch_ops_ = 0;
  double ops_[2] = {0, 0};
  double ns_[2] = {0, 0};
};

// Confines the calling thread, and every thread it starts later, to one
// CPU: the highest-numbered one it may run on. Returns false when the
// kernel refuses. See README.md, "One CPU".
bool PinToOneCpu();

// Resident set of this process now, in MiB; 0 when the kernel does not
// say. A workload reports its growth over a baseline taken once its inputs
// exist, read at the end of a timed phase and before any oracle is built,
// so the figure is the index's memory rather than the benchmark's own.
double ResidentMb();

double Median(std::vector<double> values);

// Order-sensitive hash of generated inputs: a different seed must change it.
uint64_t Fingerprint(const std::vector<segidx::Rect>& rects,
                     uint64_t h = 1469598103934665603ull);

// What a workload run prints: one JSON object on the last line of stdout
// with every metric (value, unit, sample count), the correctness verdict,
// and the input fingerprint. perfbench/run.py picks the published metrics
// out of it.
class Report {
 public:
  // `chunks` is how many chunks a percentile's samples were cut into.
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, uint64_t chunks = 0);
  // Adds every metric of `parts` (which list the same metrics in the same
  // order) with its mean value and summed sample count.
  void AddMeanOf(const std::vector<Report>& parts);
  // Adds name_p50_us and name_p99_us from `samples`.
  void AddLatency(const std::string& name, const Samples& samples);
  // Records a failed correctness check; the run then exits non-zero.
  void Fail(const std::string& what);
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void set_fingerprint(uint64_t f) { fingerprint_ = f; }
  bool correct() const { return errors_.empty(); }
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
    uint64_t chunks;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t fingerprint_ = 0;
};

// Workload entry points. Each fills `report` and returns 0 once it ran to
// the end (the report then holds the correctness verdict), or 1 when it
// could not run.
int RunSearchHot(const Args& args, Report* report);
int RunIngestDisk(const Args& args, Report* report);
int RunServeMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
