// serve_mixed: segidxd end to end over loopback, closed loop.
//
// An R-Tree file is bulk-loaded with 50K M1 records (it fits the default
// pool) and served in-process by server::Server with default options; the
// bulk load plus server start is the set-up, repeated kSetups times. The
// load is a closed loop on kConnections connections, each with one
// request in flight: 80% searches (QAR 1, area 1e6), 10% inserts and 10%
// explicit commits, in an order drawn from the seed. Every insert is
// acknowledged only after its checkpoint, on a real file whose flush is
// elided (see UnflushedFile). With several connections in flight the server
// coalesces searches into batches and runs inserts beside them, so the
// read/write gate and node latches see contention.
//
// The whole workload, server and load threads alike, runs on one CPU. On a
// shared VM a thread woken on an idle vCPU waits until the host runs that
// vCPU again, late by milliseconds while the host is busy; every request
// crosses several threads, and without the pin the tails measured those
// wake-ups. On one CPU a hand-off is a context switch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "oracle/naive_oracle.h"
#include "server/client.h"
#include "server/server.h"
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
using segidx::server::ServerStatsSnapshot;

constexpr uint64_t kPreload = 50000;
constexpr int kSetups = 3;
constexpr int kConnections = 4;
// Each connection cycles through kSlots pre-generated requests. In each
// block of kBlock, kBlockInserts are inserts, kBlockCommits commits and
// the rest searches.
constexpr uint64_t kSlots = 4096;
constexpr int kBlock = 10;
constexpr int kBlockInserts = 1;
constexpr int kBlockCommits = 1;
constexpr double kQueryArea = 1e6;
// space_amp is read when this many inserts have been acknowledged, so it
// does not grow with the throughput a run happens to reach. A run with
// fewer inserts reads it at the end.
constexpr uint64_t kSpaceInserts = 1024;
constexpr int kCheckQueries = 200;

enum OpKind : uint8_t { kSearch = 0, kInsert = 1, kCommit = 2 };

using Batch = std::vector<std::pair<Rect, TupleId>>;

Batch PreloadBatch(uint64_t seed) {
  const std::vector<Rect> records = segidx::workload::GenerateDataset(
      {segidx::workload::DatasetKind::kM1, kPreload, seed});
  Batch batch;
  batch.reserve(records.size());
  for (uint64_t i = 0; i < records.size(); ++i) {
    batch.emplace_back(records[i], static_cast<TupleId>(i));
  }
  return batch;
}

struct Served {
  std::unique_ptr<IntervalIndex> index;
  TimingBlockDevice* device = nullptr;
  std::unique_ptr<segidx::server::Server> server;

  void Shutdown() {
    if (server != nullptr) server->Stop();
    server.reset();
    index.reset();
  }
};

Status Serve(const std::string& path, Batch batch, Served* out) {
  std::filesystem::remove(path);
  SEGIDX_ASSIGN_OR_RETURN(auto file,
                          segidx::storage::FileBlockDevice::Open(path, true));
  auto device = std::make_unique<TimingBlockDevice>(
      std::make_unique<UnflushedFile>(std::move(file)));
  out->device = device.get();
  SEGIDX_ASSIGN_OR_RETURN(
      out->index, IntervalIndex::CreateWithDevice(
                      IndexKind::kRTree, std::move(device), IndexOptions()));
  {
    Span span("core.BulkLoad");
    SEGIDX_RETURN_IF_ERROR(out->index->BulkLoad(std::move(batch)));
  }
  {
    Span span("core.Commit");
    SEGIDX_RETURN_IF_ERROR(out->index->Commit());
  }
  out->server = std::make_unique<segidx::server::Server>(
      out->index.get(), segidx::server::ServerOptions());
  return out->server->Start();
}

Rect SquareQuery(segidx::Rng* rng) {
  const double side = std::sqrt(kQueryArea);
  const double x = rng->Uniform(segidx::workload::kDomainLo,
                                segidx::workload::kDomainHi - side);
  const double y = rng->Uniform(segidx::workload::kDomainLo,
                                segidx::workload::kDomainHi - side);
  return Rect(x, x + side, y, y + side);
}

// One connection's requests, cycled: a search's or an insert's rectangle.
struct Script {
  std::vector<uint8_t> kinds;
  std::vector<Rect> rects;
};

Script MakeScript(uint64_t seed, int connection) {
  Script s;
  s.kinds.assign(kSlots, kSearch);
  s.rects.resize(kSlots);
  segidx::Rng rng(seed * 15485863 + 11 + static_cast<uint64_t>(connection));
  const std::vector<Rect> inserts = segidx::workload::GenerateDataset(
      {segidx::workload::DatasetKind::kM1, kSlots,
       seed * 7919 + 5 + static_cast<uint64_t>(connection)});
  for (uint64_t b = 0; b < kSlots; b += kBlock) {
    const uint64_t len = std::min<uint64_t>(kBlock, kSlots - b);
    for (uint64_t k = 0; k < len; ++k) {
      s.kinds[b + k] = k < kBlockInserts                   ? kInsert
                       : k < kBlockInserts + kBlockCommits ? kCommit
                                                           : kSearch;
    }
    for (uint64_t k = len; k > 1; --k) {
      std::swap(s.kinds[b + k - 1], s.kinds[b + rng.NextU64() % k]);
    }
  }
  for (uint64_t i = 0; i < kSlots; ++i) {
    s.rects[i] = s.kinds[i] == kInsert ? inserts[i] : SquareQuery(&rng);
  }
  return s;
}

struct Worker {
  Samples search_us, insert_us, commit_us, lag_us;
  Batch acked;  // Inserts acknowledged OK.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;  // Connection failure; the run cannot continue.
};

}  // namespace

int RunServeMixed(const Args& args, Report* report) {
  const std::string path = args.workdir + "/serve_mixed.idx";
  std::vector<Script> scripts;
  uint64_t fingerprint = 1469598103934665603ull;
  for (int c = 0; c < kConnections; ++c) {
    scripts.push_back(MakeScript(args.seed, c));
    fingerprint = Fingerprint(scripts.back().rects, fingerprint);
  }
  report->set_fingerprint(fingerprint);
  if (!PinToOneCpu()) {
    std::fprintf(stderr, "cannot pin to one CPU; running unpinned\n");
  }
  const double rss_baseline = ResidentMb();

  std::vector<double> setup_s;
  Served served;
  for (int rep = 0; rep < kSetups; ++rep) {
    served.Shutdown();
    // Generated before the clock starts; BulkLoad consumes it.
    Batch batch = PreloadBatch(args.seed);
    Tracer::Get().SetEnabled(args.trace && rep + 1 == kSetups);
    const int64_t t0 = NowNs();
    if (Status st = Serve(path, std::move(batch), &served); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      served.Shutdown();
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Tracer::Get().SetEnabled(false);
  IntervalIndex* index = served.index.get();
  const uint16_t port = served.server->port();

  // Connect before the clock starts, so no request waits on a handshake.
  std::vector<std::unique_ptr<segidx::server::Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = segidx::server::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      served.Shutdown();
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  const LayerSnapshot before = TakeSnapshot(index, served.device);
  const ServerStatsSnapshot server_before = served.server->stats_snapshot();
  std::vector<Worker> workers(kConnections);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> acked_inserts{0};
  std::atomic<uint64_t> space_file_bytes{0};
  TraceEpochs epochs(args.trace);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  epochs.Start();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Worker& w = workers[c];
      const Script& script = scripts[c];
      segidx::server::Client* client = clients[c].get();
      int64_t last_done = NowNs();
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const uint64_t slot = i % kSlots;
        const int64_t sent = NowNs();
        if (sent >= end) break;
        // The generator's own turnaround between a reply and the next send.
        w.lag_us.Add(last_done, sent);
        Status st;
        Samples* out = nullptr;
        switch (script.kinds[slot]) {
          case kSearch: {
            Span op("op.search", true);
            Span span("client.Search");
            segidx::server::SearchReply reply;
            st = client->Search(script.rects[slot], &reply);
            out = &w.search_us;
            break;
          }
          case kInsert: {
            // Unique across connections and laps of the script.
            const TupleId tid =
                static_cast<TupleId>(kPreload + i * kConnections + c);
            Span op("op.insert", true);
            Span span("client.Insert");
            st = client->Insert(script.rects[slot], tid);
            if (st.ok()) {
              w.acked.emplace_back(script.rects[slot], tid);
              if (acked_inserts.fetch_add(1) + 1 == kSpaceInserts) {
                space_file_bytes.store(served.device->size());
              }
            }
            out = &w.insert_us;
            break;
          }
          default: {
            Span op("op.commit", true);
            Span span("client.Commit");
            st = client->Commit();
            out = &w.commit_us;
            break;
          }
        }
        last_done = NowNs();
        ++w.attempted;
        if (st.ok()) {
          out->Add(sent, last_done);
          completed.fetch_add(1, std::memory_order_relaxed);
        } else if (st.code() == segidx::StatusCode::kIoError) {
          w.error = st.ToString();
          stop.store(true);  // Stop every worker.
          return;
        } else {
          ++w.failed;
        }
      }
    });
  }
  // The main thread only flips trace epochs while the workers run.
  while (NowNs() < end && !stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    epochs.Tick(completed.load(std::memory_order_relaxed));
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  epochs.Stop(completed.load());
  clients.clear();

  Samples search_us, insert_us, commit_us, lag_us;
  Batch acked;
  uint64_t attempted = 0, failed = 0;
  for (const Worker& w : workers) {
    if (!w.error.empty()) {
      std::fprintf(stderr, "connection failed: %s\n", w.error.c_str());
      served.Shutdown();
      return 1;
    }
    search_us.Append(w.search_us);
    insert_us.Append(w.insert_us);
    commit_us.Append(w.commit_us);
    lag_us.Append(w.lag_us);
    acked.insert(acked.end(), w.acked.begin(), w.acked.end());
    attempted += w.attempted;
    failed += w.failed;
  }
  const uint64_t ok = attempted - failed;
  const LayerSnapshot after = TakeSnapshot(index, served.device);
  const ServerStatsSnapshot server_after = served.server->stats_snapshot();
  report->CountOps(attempted, failed);

  report->AddLatency("search", search_us);
  report->AddLatency("insert", insert_us);
  report->AddLatency("commit", commit_us);
  report->Add("ops_s", static_cast<double>(ok) / elapsed, "1/s", ok);
  report->Add("ok_ratio", static_cast<double>(ok) / attempted, "ratio",
              attempted);
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("rss_mb", ResidentMb() - rss_baseline, "MiB");
  AddLayerMetrics(report, before, after, attempted, before, after);
  report->Add("storage.free_bytes_ratio",
              FreeBytesRatio(index, served.device->size()), "ratio");
  report->Add("skeleton.finalize_s", 0, "s");
  const double batches = static_cast<double>(server_after.batches -
                                             server_before.batches);
  report->Add("exec.batch_size",
              batches > 0 ? (server_after.batch_queries -
                             server_before.batch_queries) / batches
                          : 0,
              "count");
  report->Add("server.shed",
              static_cast<double>((server_after.shed_queue_full +
                                   server_after.shed_quota) -
                                  (server_before.shed_queue_full +
                                   server_before.shed_quota)),
              "count");
  report->Add("server.deadline_expired",
              static_cast<double>(server_after.deadline_expired -
                                  server_before.deadline_expired),
              "count");
  report->Add("server.retries",
              static_cast<double>(server_after.retries -
                                  server_before.retries),
              "count");
  report->Add("bench.gen_lag_p99_us", lag_us.Percentile(0.99), "us",
              lag_us.count(), lag_us.chunks());
  report->Add("bench.trace_overhead", epochs.Overhead(), "ratio");

  // Stop the server (it runs a final commit), then check the file: it
  // reopens with the preload plus every acked insert, each acked insert is
  // found, and sampled queries match the oracle.
  served.server->Stop();
  if (Status st = index->Close(); !st.ok()) {
    report->Fail("close: " + st.ToString());
  }
  served.Shutdown();
  const bool space_read = space_file_bytes.load() != 0;
  const double file_bytes = static_cast<double>(
      space_read ? space_file_bytes.load() : std::filesystem::file_size(path));
  const uint64_t live = kPreload + (space_read ? kSpaceInserts : acked.size());
  report->Add("space_amp",
              file_bytes / (static_cast<double>(live) * kUserBytesPerRecord),
              "ratio");
  auto reopened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  if (!reopened.ok()) {
    report->Fail("reopen: " + reopened.status().ToString());
  } else {
    IntervalIndex* back = reopened->get();
    if (back->size() != kPreload + acked.size()) {
      report->Fail("reopened index holds " + std::to_string(back->size()) +
                   " records, expected " +
                   std::to_string(kPreload + acked.size()));
    }
    segidx::oracle::NaiveOracle oracle;
    for (const auto& [rect, tid] : PreloadBatch(args.seed)) {
      oracle.Insert(rect, tid);
    }
    uint64_t lost = 0;
    for (const auto& [rect, tid] : acked) {
      oracle.Insert(rect, tid);
      std::vector<TupleId> got;
      if (!back->SearchTuples(rect, &got).ok() ||
          std::find(got.begin(), got.end(), tid) == got.end()) {
        ++lost;
      }
    }
    if (lost != 0) {
      report->Fail(std::to_string(lost) + " acked inserts are missing");
    }
    segidx::Rng rng(args.seed * 104729 + 7);
    uint64_t mismatches = 0;
    for (int i = 0; i < kCheckQueries; ++i) {
      const Rect q = SquareQuery(&rng);
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
                   std::to_string(kCheckQueries) +
                   " queries differ from the oracle");
    }
  }
  std::filesystem::remove(path);
  return 0;
}

}  // namespace perfbench
