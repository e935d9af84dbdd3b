// search_hot: embedded, read-only, one thread, closed loop.
//
// A Skeleton SR-Tree on a file (flush elided, under the timing device) is
// built by Insert from 100K M1 records, committing every 64 inserts once
// the skeleton exists; the build is the set-up, done kSetups times, each
// from a dataset of its own. After each build the timed phase cycles the
// paper's 13-QAR sweep at area 1e6 over that tree for its share of the
// run's seconds; then every distinct query is checked against the oracle.
// The index fits the default 8 MiB pool, so the timed phase touches no
// device: it isolates per-node CPU cost and the paper's node-access count.
// The insert and commit latencies come from the builds.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "oracle/naive_oracle.h"
#include "trace.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using segidx::Rect;
using segidx::Status;
using segidx::TupleId;
using segidx::core::IndexKind;
using segidx::core::IndexOptions;
using segidx::core::IntervalIndex;

constexpr uint64_t kRecords = 100000;
constexpr int kSetups = 3;
constexpr uint64_t kCommitEvery = 64;
constexpr double kQueryArea = 1e6;
constexpr int kQueriesPerQar = 100;

struct Built {
  std::unique_ptr<IntervalIndex> index;
  TimingBlockDevice* device = nullptr;
  double seconds = 0;
  double finalize_s = 0;
  LayerSnapshot before;  // Right after creation.
  LayerSnapshot after;   // After the last commit.
};

// One set-up: create, buffer the skeleton sample, finalize, insert the
// rest with periodic commits. Latencies go into `inserts` and `commits`.
Status Build(const std::string& path, const std::vector<Rect>& records,
             Samples* inserts, Samples* commits, Built* out) {
  IndexOptions options;
  options.skeleton.expected_tuples = records.size();
  // One thread commits, so no peer can join a group commit. The default
  // linger is a 200 us timed wait whose wake-up overshoots by about as
  // much again, and by milliseconds on a busy host: the build's commit
  // tail measured the host's timer wake-ups. ingest_disk does the same;
  // serve_mixed keeps the linger.
  options.pager.group_commit_window_us = 0;
  const uint64_t sample = options.skeleton.prediction_sample;
  std::filesystem::remove(path);
  const int64_t t0 = NowNs();
  auto file = segidx::storage::FileBlockDevice::Open(path, true);
  if (!file.ok()) return file.status();
  auto device = std::make_unique<TimingBlockDevice>(
      std::make_unique<UnflushedFile>(std::move(file).value()));
  out->device = device.get();
  auto created = IntervalIndex::CreateWithDevice(
      IndexKind::kSkeletonSRTree, std::move(device), options);
  if (!created.ok()) return created.status();
  out->index = std::move(created).value();
  IntervalIndex* index = out->index.get();
  out->before = TakeSnapshot(index, out->device);
  for (uint64_t i = 0; i < records.size(); ++i) {
    if (i + 1 == sample) {
      // Build the skeleton from the sample explicitly, so its cost is
      // timed on its own rather than inside the insert that fills it.
      Span span("core.Finalize");
      const int64_t f0 = NowNs();
      if (Status st = index->Finalize(); !st.ok()) return st;
      out->finalize_s = static_cast<double>(NowNs() - f0) / 1e9;
    }
    {
      Span op("op.insert", true);
      const int64_t i0 = NowNs();
      Status st;
      {
        Span span("core.Insert");
        st = index->Insert(records[i], static_cast<TupleId>(i));
      }
      if (!st.ok()) return st;
      inserts->Add(i0, NowNs());
    }
    if (!index->skeleton_building() && (i + 1) % kCommitEvery == 0) {
      Span op("op.commit", true);
      const int64_t c0 = NowNs();
      Status st;
      {
        Span span("core.Commit");
        st = index->Commit();
      }
      if (!st.ok()) return st;
      commits->Add(c0, NowNs());
    }
  }
  out->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  out->after = TakeSnapshot(index, out->device);
  return Status::OK();
}

}  // namespace

int RunSearchHot(const Args& args, Report* report) {
  const std::string path = args.workdir + "/search_hot.idx";
  // The sweep, in an order drawn from the seed so that every stretch of
  // the timed loop mixes all 13 aspect ratios.
  std::vector<Rect> queries;
  for (double qar : segidx::workload::PaperQarSweep()) {
    const std::vector<Rect> q = segidx::workload::GenerateQueries(
        qar, kQueryArea, kQueriesPerQar, args.seed * 131 + queries.size());
    queries.insert(queries.end(), q.begin(), q.end());
  }
  segidx::Rng order(args.seed);
  for (size_t k = queries.size(); k > 1; --k) {
    std::swap(queries[k - 1], queries[order.NextU64() % k]);
  }
  uint64_t fingerprint = Fingerprint(queries);

  // Each set-up builds a tree from its own dataset; the tree shape, and
  // with it the cost of a search, varies a good deal from one dataset to
  // the next, so the timed phase is split evenly over the kSetups trees.
  // A traced run traces the last build whole.
  // The builds' latencies ramp as each tree grows; see Samples::Across.
  Samples search_us, insert_us(Samples::Across::kMedian),
      commit_us(Samples::Across::kMedian);
  std::vector<double> setup_s;
  std::vector<Report> parts;
  TraceEpochs epochs(args.trace);
  uint64_t done = 0, failed = 0;
  double elapsed = 0, rss_baseline = 0, rss_mb = 0;
  std::vector<TupleId> hits;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::vector<Rect> records = segidx::workload::GenerateDataset(
        {segidx::workload::DatasetKind::kM1, kRecords,
         args.seed * kSetups + static_cast<uint64_t>(rep)});
    fingerprint = Fingerprint(records, fingerprint);
    // rss_mb is what the first tree holds beside the inputs: it is read
    // after that tree's timed phase and before its oracle exists.
    if (rep == 0) rss_baseline = ResidentMb();
    Built built;
    search_us.NewStratum();
    insert_us.NewStratum();
    commit_us.NewStratum();
    Tracer::Get().SetEnabled(args.trace && rep + 1 == kSetups);
    if (Status st = Build(path, records, &insert_us, &commit_us, &built);
        !st.ok()) {
      std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    Tracer::Get().SetEnabled(false);
    setup_s.push_back(built.seconds);
    IntervalIndex* index = built.index.get();

    // This tree's share of the timed phase: cycle the sweep.
    const double seconds = args.seconds / kSetups;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    epochs.Start(done);
    for (int64_t now = start; now < end; ++done) {
      const Rect& q = queries[done % queries.size()];
      hits.clear();
      Status st;
      {
        Span op("op.search", true);
        Span span("core.Search");
        st = index->SearchTuples(q, &hits);
      }
      search_us.Add(now, NowNs());
      if (!st.ok()) ++failed;
      epochs.Tick(done + 1);
      now = NowNs();
    }
    elapsed += static_cast<double>(NowNs() - start) / 1e9;
    epochs.Stop(done);
    if (rep == 0) rss_mb = ResidentMb() - rss_baseline;

    // Correctness: every distinct query against the oracle. This pass runs
    // each distinct query once, so it is also the window of the
    // search-side layer metrics: their counts repeat exactly for a seed.
    segidx::oracle::NaiveOracle oracle;
    for (uint64_t i = 0; i < records.size(); ++i) {
      oracle.Insert(records[i], static_cast<TupleId>(i));
    }
    if (index->size() != records.size()) {
      report->Fail("index holds " + std::to_string(index->size()) +
                   " records, expected " + std::to_string(records.size()));
    }
    const LayerSnapshot reads_before = TakeSnapshot(index, built.device);
    uint64_t mismatches = 0;
    for (const Rect& q : queries) {
      std::vector<TupleId> got;
      if (!index->SearchTuples(q, &got).ok()) {
        ++mismatches;
        continue;
      }
      std::sort(got.begin(), got.end());
      if (got != oracle.Search(q)) ++mismatches;
    }
    const LayerSnapshot reads_after = TakeSnapshot(index, built.device);
    if (mismatches != 0) {
      report->Fail(std::to_string(mismatches) + " of " +
                   std::to_string(queries.size()) +
                   " queries differ from the oracle");
    }

    Report& part = parts.emplace_back();
    AddLayerMetrics(&part, reads_before, reads_after, queries.size(),
                    built.before, built.after);
    const uint64_t file_bytes = built.device->size();
    part.Add("space_amp",
             static_cast<double>(file_bytes) /
                 (static_cast<double>(records.size()) * kUserBytesPerRecord),
             "ratio");
    part.Add("storage.free_bytes_ratio", FreeBytesRatio(index, file_bytes),
             "ratio");
    part.Add("skeleton.finalize_s", built.finalize_s, "s");
  }
  report->set_fingerprint(fingerprint);
  report->CountOps(done, failed);
  if (failed != 0) report->Fail(std::to_string(failed) + " searches failed");

  // End-to-end. The trees are samples of one workload, not stretches of
  // time, so each is a stratum of every latency.
  report->AddLatency("search", search_us);
  report->AddLatency("insert", insert_us);
  report->AddLatency("commit", commit_us);
  report->Add("ops_s", static_cast<double>(done) / elapsed, "1/s", done);
  report->Add("ok_ratio", static_cast<double>(done - failed) / done, "ratio",
              done);
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("rss_mb", rss_mb, "MiB");
  // Per layer, and space_amp: the mean over the trees. Reads are each
  // tree's oracle pass, writes its build.
  report->AddMeanOf(parts);
  report->Add("bench.trace_overhead", epochs.Overhead(), "ratio");
  AddNoServerMetrics(report);
  std::filesystem::remove(path);
  return 0;
}

}  // namespace perfbench
