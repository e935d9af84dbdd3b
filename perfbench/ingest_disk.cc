// ingest_disk: embedded, one thread, on a file larger than the cache.
//
// An SR-Tree file is bulk-loaded (STR) with 200K M1 records and opened
// with a 2 MiB pool, about a tenth of the index, and no group-commit
// linger (see Options); the bulk load is the set-up, repeated kSetups
// times.
// The timed phase plays a sequence fixed by the seed: inserts of fresh M1
// records, a QAR-1 search of area 1e6 after every 16th insert and a
// Commit() after every 64th. It runs for the run's seconds and at least
// kMinInserts inserts; the layer counters and space_amp are taken at
// kExactInserts, so they repeat exactly for a seed. Pager misses,
// evictions, spills and journaled checkpoints all sit on this path,
// beside SR-Tree cuts and demotions.
// The file is read and written for real, but its flush is elided (see
// UnflushedFile), so commit latency is the engine's own work.

#include <algorithm>
#include <cmath>
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

constexpr uint64_t kPreload = 200000;
constexpr size_t kPoolBytes = 2u << 20;
constexpr int kSetups = 3;
// A commit of 16 inserts took about 250 us, and the median of such commits
// spread by 49% of itself over 10 seeds; commits of 64 inserts take about
// 1 ms and spread by 14%.
constexpr uint64_t kCommitEvery = 64;
constexpr uint64_t kSearchEvery = 16;
constexpr uint64_t kExactInserts = 16384;
// At least 1 000 commits, so commit_p99_us rests on 1 000 samples.
constexpr uint64_t kMinInserts = 1024 * kCommitEvery;
// Upper bound on timed inserts; the run stops early if it gets there.
constexpr uint64_t kMaxInserts = 400000;
// Records are generated in chunks: the preload chunk by chunk into its
// batch, the inserts as the timed phase reaches them.
constexpr uint64_t kChunk = 8192;
constexpr int kCheckQueries = 200;
constexpr double kQueryArea = 1e6;

IndexOptions Options() {
  IndexOptions options;
  options.pager.buffer_pool_bytes = kPoolBytes;
  // One thread commits, so no peer can join a group commit, and the
  // default linger is a 200 us sleep per commit. Its wake-ups were late by
  // milliseconds while the host was busy: with it commit_p99_us spread by
  // 58-210% of its median from one seed to the next, and the search and
  // insert p99s by up to 46%, since the thread woke on whichever CPU was
  // free. serve_mixed keeps the linger.
  options.pager.group_commit_window_us = 0;
  return options;
}

using Batch = std::vector<std::pair<Rect, TupleId>>;

enum Stream : uint64_t { kPreloadStream = 0, kInsertStream = 1 };

std::vector<Rect> M1Chunk(uint64_t seed, Stream stream, uint64_t chunk) {
  return segidx::workload::GenerateDataset(
      {segidx::workload::DatasetKind::kM1, kChunk,
       (seed * 1000003 + stream) * 1000003 + chunk});
}

Batch PreloadBatch(uint64_t seed) {
  Batch batch;
  batch.reserve(kPreload);
  for (uint64_t chunk = 0; batch.size() < kPreload; ++chunk) {
    for (const Rect& r : M1Chunk(seed, kPreloadStream, chunk)) {
      if (batch.size() == kPreload) break;
      batch.emplace_back(r, static_cast<TupleId>(batch.size()));
    }
  }
  return batch;
}

struct Loaded {
  std::unique_ptr<IntervalIndex> index;
  TimingBlockDevice* device = nullptr;
};

Status Load(const std::string& path, Batch batch, Loaded* out) {
  std::filesystem::remove(path);
  SEGIDX_ASSIGN_OR_RETURN(auto file,
                          segidx::storage::FileBlockDevice::Open(path, true));
  auto device = std::make_unique<TimingBlockDevice>(
      std::make_unique<UnflushedFile>(std::move(file)));
  out->device = device.get();
  SEGIDX_ASSIGN_OR_RETURN(
      out->index, IntervalIndex::CreateWithDevice(
                      IndexKind::kSRTree, std::move(device), Options()));
  {
    Span span("core.BulkLoad");
    SEGIDX_RETURN_IF_ERROR(out->index->BulkLoad(std::move(batch)));
  }
  Span span("core.Commit");
  return out->index->Commit();
}

Rect SquareQuery(segidx::Rng* rng) {
  const double side = std::sqrt(kQueryArea);
  const double x = rng->Uniform(segidx::workload::kDomainLo,
                                segidx::workload::kDomainHi - side);
  const double y = rng->Uniform(segidx::workload::kDomainLo,
                                segidx::workload::kDomainHi - side);
  return Rect(x, x + side, y, y + side);
}

}  // namespace

int RunIngestDisk(const Args& args, Report* report) {
  const std::string path = args.workdir + "/ingest_disk.idx";
  segidx::Rng query_rng(args.seed * 104729 + 3);
  std::vector<Rect> inserts = M1Chunk(args.seed, kInsertStream, 0);
  report->set_fingerprint(Fingerprint(
      inserts, Fingerprint(M1Chunk(args.seed, kPreloadStream, 0))));
  const double rss_baseline = ResidentMb();

  std::vector<double> setup_s;
  Loaded loaded;
  for (int rep = 0; rep < kSetups; ++rep) {
    loaded = Loaded();
    // Generated before the clock starts; BulkLoad consumes it.
    Batch batch = PreloadBatch(args.seed);
    Tracer::Get().SetEnabled(args.trace && rep + 1 == kSetups);
    const int64_t t0 = NowNs();
    if (Status st = Load(path, std::move(batch), &loaded); !st.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Tracer::Get().SetEnabled(false);
  IntervalIndex* index = loaded.index.get();

  Samples insert_us, search_us, commit_us;
  uint64_t ops = 0, failed = 0, n = 0;
  std::vector<Rect> searched;
  const LayerSnapshot before = TakeSnapshot(index, loaded.device);
  LayerSnapshot exact;
  uint64_t exact_ops = 0, exact_file_bytes = 0;
  double exact_free_ratio = 0;
  TraceEpochs epochs(args.trace);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  epochs.Start();
  // Times one operation; `body` makes the IntervalIndex call.
  auto timed = [&](const char* op_name, const char* core_name, Samples* out,
                   auto body) {
    Status st;
    const int64_t t0 = NowNs();
    {
      Span op(op_name, true);
      Span span(core_name);
      st = body();
    }
    out->Add(t0, NowNs());
    ++ops;
    if (!st.ok()) {
      ++failed;
      std::fprintf(stderr, "%s failed: %s\n", op_name, st.ToString().c_str());
    }
    epochs.Tick(ops);
  };
  std::vector<TupleId> hits;
  for (; n < kMaxInserts && (n < kMinInserts || NowNs() < end); ++n) {
    if (n > 0 && n % kChunk == 0) {
      inserts = M1Chunk(args.seed, kInsertStream, n / kChunk);
    }
    timed("op.insert", "core.Insert", &insert_us, [&] {
      return index->Insert(inserts[n % kChunk],
                           static_cast<TupleId>(kPreload + n));
    });
    if ((n + 1) % kSearchEvery == 0) {
      searched.push_back(SquareQuery(&query_rng));
      hits.clear();
      timed("op.search", "core.Search", &search_us,
            [&] { return index->SearchTuples(searched.back(), &hits); });
    }
    if ((n + 1) % kCommitEvery == 0) {
      timed("op.commit", "core.Commit", &commit_us,
            [&] { return index->Commit(); });
    }
    if (n + 1 == kExactInserts) {
      exact = TakeSnapshot(index, loaded.device);
      exact_ops = ops;
      exact_file_bytes = loaded.device->size();
      exact_free_ratio = FreeBytesRatio(index, exact_file_bytes);
    }
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  epochs.Stop(ops);
  report->CountOps(ops, failed);
  if (failed != 0) report->Fail(std::to_string(failed) + " operations failed");

  report->AddLatency("search", search_us);
  report->AddLatency("insert", insert_us);
  report->AddLatency("commit", commit_us);
  report->Add("ops_s", static_cast<double>(ops) / elapsed, "1/s", ops);
  report->Add("ok_ratio", static_cast<double>(ops - failed) / ops, "ratio",
              ops);
  report->Add("space_amp",
              static_cast<double>(exact_file_bytes) /
                  (static_cast<double>(kPreload + kExactInserts) *
                   kUserBytesPerRecord),
              "ratio");
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("rss_mb", ResidentMb() - rss_baseline, "MiB");
  AddLayerMetrics(report, before, exact, exact_ops, before, exact);
  report->Add("storage.free_bytes_ratio", exact_free_ratio, "ratio");
  report->Add("skeleton.finalize_s", 0, "s");
  report->Add("bench.trace_overhead", epochs.Overhead(), "ratio");
  AddNoServerMetrics(report);

  // Correctness: the file reopens clean with every record, and sampled
  // queries (the timed searches, plus fresh ones) match the oracle.
  if (Status st = index->Close(); !st.ok()) {
    report->Fail("close: " + st.ToString());
  }
  loaded = Loaded();
  auto reopened = IntervalIndex::OpenFromDisk(path, Options());
  if (!reopened.ok()) {
    report->Fail("reopen: " + reopened.status().ToString());
  } else {
    IntervalIndex* back = reopened->get();
    if (Status st = back->CheckInvariants(); !st.ok()) {
      report->Fail("invariants: " + st.ToString());
    }
    if (back->size() != kPreload + n) {
      report->Fail("reopened index holds " + std::to_string(back->size()) +
                   " records, expected " + std::to_string(kPreload + n));
    }
    segidx::oracle::NaiveOracle oracle;
    for (const auto& [rect, tid] : PreloadBatch(args.seed)) {
      oracle.Insert(rect, tid);
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (i % kChunk == 0) {
        inserts = M1Chunk(args.seed, kInsertStream, i / kChunk);
      }
      oracle.Insert(inserts[i % kChunk],
                    static_cast<TupleId>(kPreload + i));
    }
    std::vector<Rect> checks;
    const size_t stride = std::max<size_t>(1, searched.size() / kCheckQueries);
    for (size_t i = 0; i < searched.size(); i += stride) {
      checks.push_back(searched[i]);
    }
    for (int i = 0; i < kCheckQueries; ++i) {
      checks.push_back(SquareQuery(&query_rng));
    }
    uint64_t mismatches = 0;
    for (const Rect& q : checks) {
      std::vector<TupleId> got;
      if (!back->SearchTuples(q, &got).ok()) {
        ++mismatches;
        continue;
      }
      std::sort(got.begin(), got.end());
      if (got != oracle.Search(q)) ++mismatches;
    }
    if (mismatches != 0) {
      report->Fail(std::to_string(mismatches) + " of " +
                   std::to_string(checks.size()) +
                   " queries differ from the oracle");
    }
  }
  std::filesystem::remove(path);
  return 0;
}

}  // namespace perfbench
