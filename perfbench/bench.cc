#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "trace.h"

namespace perfbench {

void Samples::Append(const Samples& o) {
  strata_.insert(strata_.end(), o.strata_.begin(), o.strata_.end());
}

size_t Samples::count() const {
  size_t n = 0;
  for (const std::vector<float>& stratum : strata_) n += stratum.size();
  return n;
}

size_t Samples::chunks() const {
  // Each stratum's share of a chunk is rounded down, by less than one
  // sample, so a chunk is at least kMinChunkSamples long.
  return std::clamp<size_t>(count() / (kMinChunkSamples + strata_.size()), 1,
                            kMaxChunks);
}

namespace {

// The nearest-rank p-quantile of `values`, p in [0, 1].
template <typename T>
T NearestRank(std::vector<T> values, double p) {
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = std::min(static_cast<size_t>(std::max(rank, 1.0)) - 1,
                              values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(idx), values.end());
  return values[idx];
}

}  // namespace

double Samples::Percentile(double p) const {
  if (count() == 0) return 0;
  const size_t k = chunks();
  std::vector<double> per_chunk;
  for (size_t c = 0; c < k; ++c) {
    std::vector<float> us;
    for (const std::vector<float>& stratum : strata_) {
      const size_t n = stratum.size();
      us.insert(us.end(), stratum.begin() + c * n / k,
                stratum.begin() + (c + 1) * n / k);
    }
    per_chunk.push_back(NearestRank(std::move(us), p));
  }
  return across_ == Across::kMedian ? Median(std::move(per_chunk))
                                    : NearestRank(std::move(per_chunk), 0.25);
}

LayerSnapshot TakeSnapshot(segidx::core::IntervalIndex* index,
                           const TimingBlockDevice* device) {
  LayerSnapshot s;
  s.tree = index->tree_stats();
  s.storage = index->storage_stats();
  s.latch = index->tree()->latch_stats();
  s.device = device->counters();
  return s;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(Report* report, const LayerSnapshot& rb,
                     const LayerSnapshot& ra, uint64_t read_ops,
                     const LayerSnapshot& wb, const LayerSnapshot& wa) {
  // Search side: device, buffer pool, tree descent, read gate.
  const DeviceCounters rdev = ra.device - rb.device;
  const double ops = static_cast<double>(read_ops);
  report->Add("storage.device_reads_per_op", Ratio(rdev.reads, ops), "count");
  report->Add("storage.device_read_us_per_op",
              Ratio(rdev.read_ns / 1e3, ops), "us");
  const double fetches =
      static_cast<double>(ra.storage.logical_reads - rb.storage.logical_reads);
  report->Add("storage.hit_ratio",
              Ratio(ra.storage.cache_hits - rb.storage.cache_hits, fetches),
              "ratio");
  report->Add("storage.fetches_per_op", Ratio(fetches, ops), "count");
  report->Add("storage.evictions_per_op",
              Ratio(ra.storage.evictions - rb.storage.evictions, ops),
              "count");
  const double searches =
      static_cast<double>(ra.tree.searches - rb.tree.searches);
  report->Add("rtree.nodes_per_search",
              Ratio(ra.tree.search_node_accesses -
                        rb.tree.search_node_accesses,
                    searches),
              "count", static_cast<uint64_t>(searches));
  report->Add("rtree.gate_read_wait_us_per_search",
              Ratio(ra.latch.gate_wait_us[0] - rb.latch.gate_wait_us[0],
                    searches),
              "us");
  uint64_t enters = 0, blocked = 0;
  for (int m = 0; m < 3; ++m) {
    enters += ra.latch.gate_enters[m] - rb.latch.gate_enters[m];
    blocked += ra.latch.gate_blocked[m] - rb.latch.gate_blocked[m];
  }
  report->Add("rtree.gate_blocked_ratio", Ratio(blocked, enters), "ratio");
  report->Add("rtree.node_latch_blocked_ratio",
              Ratio(ra.latch.latch_blocked - rb.latch.latch_blocked,
                    ra.latch.latch_acquires - rb.latch.latch_acquires),
              "ratio");

  // Insert side: tree shape work, SR-Tree placement, commits and syncs.
  const DeviceCounters wdev = wa.device - wb.device;
  const double inserts = static_cast<double>(wa.tree.inserts - wb.tree.inserts);
  const double commits = static_cast<double>(wa.storage.commit_requests -
                                             wb.storage.commit_requests);
  report->Add("storage.write_amp",
              Ratio(wdev.write_bytes, inserts * kUserBytesPerRecord), "ratio");
  report->Add("storage.syncs_per_commit", Ratio(wdev.syncs, commits), "count");
  report->Add("storage.checkpoints_per_insert",
              Ratio(wa.storage.checkpoints - wb.storage.checkpoints, inserts),
              "ratio");
  report->Add("storage.commit_amortization",
              Ratio(commits,
                    wa.storage.commit_batches - wb.storage.commit_batches),
              "ratio");
  report->Add("rtree.nodes_per_insert",
              Ratio(wa.tree.insert_node_accesses -
                        wb.tree.insert_node_accesses,
                    inserts),
              "count", static_cast<uint64_t>(inserts));
  const uint64_t splits =
      (wa.tree.leaf_splits - wb.tree.leaf_splits) +
      (wa.tree.nonleaf_splits - wb.tree.nonleaf_splits) +
      (wa.tree.root_splits - wb.tree.root_splits);
  report->Add("rtree.splits_per_1k_inserts", Ratio(1000.0 * splits, inserts),
              "count");
  report->Add("rtree.gate_write_wait_us_per_insert",
              Ratio(wa.latch.gate_wait_us[1] - wb.latch.gate_wait_us[1],
                    inserts),
              "us");
  report->Add("srtree.cuts_per_insert",
              Ratio(wa.tree.cuts - wb.tree.cuts, inserts), "ratio");
  report->Add("srtree.spanning_placed_per_insert",
              Ratio(wa.tree.spanning_placed - wb.tree.spanning_placed,
                    inserts),
              "ratio");
  report->Add("srtree.demotions",
              static_cast<double>(wa.tree.demotions - wb.tree.demotions),
              "count");
  report->Add("srtree.promotions",
              static_cast<double>(wa.tree.promotions - wb.tree.promotions),
              "count");
  report->Add("skeleton.coalesced_nodes",
              static_cast<double>(wa.tree.coalesced_nodes -
                                  wb.tree.coalesced_nodes),
              "count");
}

void AddNoServerMetrics(Report* report) {
  report->Add("exec.batch_size", 0, "count");
  report->Add("server.shed", 0, "count");
  report->Add("server.deadline_expired", 0, "count");
  report->Add("server.retries", 0, "count");
  report->Add("bench.gen_lag_p99_us", 0, "us");
}

double FreeBytesRatio(segidx::core::IntervalIndex* index,
                      uint64_t file_bytes) {
  const bool traced = Tracer::Get().enabled();
  Tracer::Get().SetEnabled(false);
  auto free = index->pager()->FreeExtents();
  Tracer::Get().SetEnabled(traced);
  if (!free.ok() || file_bytes == 0) return 0;
  uint64_t bytes = 0;
  for (const auto& id : *free) {
    bytes += index->pager()->ExtentBytes(id.size_class);
  }
  return static_cast<double>(bytes) / static_cast<double>(file_bytes);
}

namespace {
constexpr int64_t kEpochNs = 250'000'000;
}  // namespace

void TraceEpochs::Start(uint64_t completed_ops) {
  if (!trace_) return;
  on_ = true;
  Tracer::Get().SetEnabled(true);
  epoch_start_ = NowNs();
  epoch_ops_ = completed_ops;
}

void TraceEpochs::Tick(uint64_t completed_ops) {
  if (!trace_) return;
  const int64_t now = NowNs();
  if (now - epoch_start_ >= kEpochNs) Switch(completed_ops, now);
}

void TraceEpochs::Stop(uint64_t completed_ops) {
  if (!trace_) return;
  const int64_t now = NowNs();
  const int mode = on_ ? 1 : 0;
  ops_[mode] += static_cast<double>(completed_ops - epoch_ops_);
  ns_[mode] += static_cast<double>(now - epoch_start_);
  Tracer::Get().SetEnabled(false);
}

void TraceEpochs::Switch(uint64_t completed_ops, int64_t now) {
  const int mode = on_ ? 1 : 0;
  ops_[mode] += static_cast<double>(completed_ops - epoch_ops_);
  ns_[mode] += static_cast<double>(now - epoch_start_);
  on_ = !on_;
  Tracer::Get().SetEnabled(on_);
  epoch_start_ = now;
  epoch_ops_ = completed_ops;
}

double TraceEpochs::Overhead() const {
  if (ns_[0] <= 0 || ns_[1] <= 0 || ops_[0] <= 0) return 0;
  return (ops_[1] / ns_[1]) / (ops_[0] / ns_[0]);
}

bool PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t Fingerprint(const std::vector<segidx::Rect>& rects, uint64_t h) {
  for (const segidx::Rect& r : rects) {
    const double coords[4] = {r.x.lo, r.x.hi, r.y.lo, r.y.hi};
    unsigned char bytes[sizeof(coords)];
    std::memcpy(bytes, coords, sizeof(coords));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples, uint64_t chunks) {
  metrics_.push_back(Metric{name, value, unit, samples, chunks});
}

void Report::AddMeanOf(const std::vector<Report>& parts) {
  if (parts.empty()) return;
  for (size_t i = 0; i < parts[0].metrics_.size(); ++i) {
    double sum = 0;
    uint64_t samples = 0;
    for (const Report& part : parts) {
      sum += part.metrics_[i].value;
      samples += part.metrics_[i].samples;
    }
    const Metric& m = parts[0].metrics_[i];
    Add(m.name, sum / static_cast<double>(parts.size()), m.unit, samples);
  }
}

void Report::AddLatency(const std::string& name, const Samples& samples) {
  Add(name + "_p50_us", samples.Percentile(0.50), "us", samples.count(),
      samples.chunks());
  Add(name + "_p99_us", samples.Percentile(0.99), "us", samples.count(),
      samples.chunks());
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
  errors_.push_back(what);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  std::string json =
      "{\"correct\": " + std::string(correct() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"fingerprint\": \"" + std::to_string(fingerprint_) + "\"";
  json += ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    json += (i ? ", " : "") + JsonString(errors_[i]);
  }
  json += "], \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) +
            ", \"chunks\": " + std::to_string(m.chunks) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
