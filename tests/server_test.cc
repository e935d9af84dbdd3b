// Integration tests for the segidxd serving layer: a real server::Server
// on a loopback socket, driven by real server::Client connections.
// Covers the acceptance contract of the serving PR: concurrent search and
// write clients agree with a serial oracle, an expired deadline fails the
// request without killing its connection, quotas shed pipelined overload,
// malformed frames drop only the offending connection, and committed
// writes survive a reopen.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/interval_index.h"
#include "gtest/gtest.h"
#include "oracle/naive_oracle.h"
#include "server/client.h"
#include "server/faulty_transport.h"
#include "server/retrying_client.h"
#include "server/server.h"

namespace segidx {
namespace {

using core::IndexKind;
using core::IndexOptions;
using core::IntervalIndex;
using server::Client;
using server::Server;
using server::ServerOptions;

Rect RandomInterval(Rng* rng) {
  const double s = rng->Uniform(0.0, 1000.0);
  return Rect(Interval(s, s + rng->Uniform(0.5, 30.0)),
              Interval::Point(rng->Uniform(0.0, 1000.0)));
}

std::vector<TupleId> SortedTids(const std::vector<rtree::SearchHit>& hits) {
  std::vector<TupleId> tids;
  tids.reserve(hits.size());
  for (const rtree::SearchHit& hit : hits) tids.push_back(hit.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  return tids;
}

std::unique_ptr<IntervalIndex> MakeIndex() {
  auto created =
      IntervalIndex::CreateInMemory(IndexKind::kRTree, IndexOptions());
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

TEST(ServerTest, StartStopHealthAndStats) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_NE(health->find("\"status\": \"ok\""), std::string::npos) << *health;
  EXPECT_NE(health->find("\"quarantined_pages\""), std::string::npos);
  EXPECT_NE(health->find("\"scrub\""), std::string::npos);
  EXPECT_NE(health->find("\"search_queue_depth\""), std::string::npos);

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* field :
       {"\"searches\"", "\"batches\"", "\"shed_queue_full\"",
        "\"deadline_expired\"", "\"commit_requests\"",
        "\"gate_read_enters\"", "\"pages_quarantined\""}) {
    EXPECT_NE(stats->find(field), std::string::npos)
        << "missing " << field << " in " << *stats;
  }
  server.Stop();
}

// The stats JSON reports what commits journaled, so an operator can read
// it directly rather than from the write counters.
TEST(ServerTest, StatsReportJournaledPages) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Insert(Rect(10, 20, 5, 5), 1).ok());
  ASSERT_TRUE((*client)->Commit().ok());

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const auto counter = [&](const std::string& key) -> unsigned long long {
    const size_t at = stats->find("\"" + key + "\": ");
    if (at == std::string::npos) {
      ADD_FAILURE() << "missing " << key << " in " << *stats;
      return 0;
    }
    return std::strtoull(stats->c_str() + at + key.size() + 4, nullptr, 10);
  };
  EXPECT_GE(counter("journaled_pages"), 1u);
  EXPECT_EQ(counter("journaled_pages"),
            index->storage_stats().journaled_pages);
  EXPECT_GE(counter("journal_bytes"), index->pager()->ExtentBytes(0));
  server.Stop();
}

// The write dispatcher is the server's only committer, so its group-commit
// leaders have no peer to wait for: inserts and commits from a connection
// are acknowledged without lingering the default window.
TEST(ServerTest, SoleDispatcherAcksWithoutLinger) {
  auto index = MakeIndex();
  ASSERT_GT(storage::PagerOptions().group_commit_window_us, 0u);
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  for (TupleId tid = 1; tid <= 40; ++tid) {
    const double x = static_cast<double>(tid) * 10.0;
    ASSERT_TRUE((*client)->Insert(Rect(x, x + 5, 1, 2), tid).ok());
    if (tid % 8 == 0) {
      ASSERT_TRUE((*client)->Commit().ok());
    }
  }

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string key = "\"commit_linger_us\": ";
  const size_t at = stats->find(key);
  ASSERT_NE(at, std::string::npos) << *stats;
  EXPECT_EQ(std::strtoull(stats->c_str() + at + key.size(), nullptr, 10),
            0u);
  EXPECT_GE(index->storage_stats().commit_requests, 45u);
  EXPECT_EQ(index->storage_stats().commit_linger_us, 0u);
  server.Stop();
}

// The headline guarantee: N insert clients and M search clients hammering
// the server concurrently, then every query answered over the settled
// index matches a serial oracle exactly.
TEST(ServerTest, ConcurrentClientsMatchOracle) {
  auto index = MakeIndex();
  ServerOptions options;
  options.commit_every = 64;
  options.max_batch = 16;
  Server server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  constexpr int kWriters = 4;
  constexpr int kSearchers = 2;
  constexpr uint64_t kPerWriter = 300;

  // Deterministic per-writer workloads, mirrored into the oracle.
  std::vector<std::vector<std::pair<Rect, TupleId>>> workloads(kWriters);
  oracle::NaiveOracle oracle;
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(1000 + static_cast<uint64_t>(w));
    for (uint64_t i = 0; i < kPerWriter; ++i) {
      const Rect rect = RandomInterval(&rng);
      const TupleId tid = static_cast<TupleId>(w) * kPerWriter + i + 1;
      workloads[static_cast<size_t>(w)].emplace_back(rect, tid);
      oracle.Insert(rect, tid);
    }
  }

  std::atomic<bool> stop_searching{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (const auto& [rect, tid] : workloads[static_cast<size_t>(w)]) {
        if (!(*client)->Insert(rect, tid).ok()) {
          ++failures;
          return;
        }
      }
      if (!(*client)->Commit().ok()) ++failures;
    });
  }
  // Searchers run concurrently with the writers; their results are
  // transient (the snapshot moves) so only protocol health is asserted.
  for (int s = 0; s < kSearchers; ++s) {
    threads.emplace_back([&, s] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      Rng rng(77 + static_cast<uint64_t>(s));
      while (!stop_searching.load()) {
        const double x = rng.Uniform(0.0, 900.0);
        const double y = rng.Uniform(0.0, 900.0);
        server::SearchReply reply;
        if (!(*client)->Search(Rect(x, x + 80, y, y + 80), &reply).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop_searching.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);

  // Settled: every query matches the oracle.
  auto client = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  Rng rng(424242);
  for (int q = 0; q < 50; ++q) {
    const double x = rng.Uniform(0.0, 900.0);
    const double y = rng.Uniform(0.0, 900.0);
    const Rect query(x, x + 100, y, y + 100);
    server::SearchReply reply;
    ASSERT_TRUE((*client)->Search(query, &reply).ok());
    EXPECT_FALSE(reply.partial);
    EXPECT_EQ(SortedTids(reply.hits), oracle.Search(query)) << "query " << q;
  }
  server.Stop();
  EXPECT_EQ(index->size(), kWriters * kPerWriter);
}

TEST(ServerTest, DeleteIsServed) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  const Rect rect(10, 20, 5, 5);
  ASSERT_TRUE((*client)->Insert(rect, 7).ok());
  ASSERT_TRUE((*client)->Insert(Rect(50, 60, 5, 5), 8).ok());
  server::SearchReply reply;
  ASSERT_TRUE((*client)->Search(Rect(0, 100, 0, 10), &reply).ok());
  EXPECT_EQ(reply.hits.size(), 2u);

  ASSERT_TRUE((*client)->Delete(rect, 7).ok());
  ASSERT_TRUE((*client)->Search(Rect(0, 100, 0, 10), &reply).ok());
  ASSERT_EQ(reply.hits.size(), 1u);
  EXPECT_EQ(reply.hits[0].tid, 8u);
  server.Stop();
}

// A request whose budget expires while queued is answered
// kDeadlineExceeded — and the connection stays healthy for the next
// request.
TEST(ServerTest, ExpiredDeadlineFailsRequestNotConnection) {
  auto index = MakeIndex();
  ServerOptions options;
  // Test hook: every batch waits 20ms between dequeue and the admission
  // deadline check, so a 1us budget reliably expires in the queue.
  options.admission_delay_us = 20000;
  Server server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE((*client)->Insert(Rect(10, 20, 5, 5), 1).ok());

  server::SearchReply reply;
  const Status expired =
      (*client)->Search(Rect(0, 100, 0, 10), &reply, /*budget_us=*/1);
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded)
      << expired.ToString();

  // Same connection, no budget: must succeed.
  ASSERT_TRUE((*client)->Search(Rect(0, 100, 0, 10), &reply).ok());
  EXPECT_EQ(reply.hits.size(), 1u);

  const auto stats = server.stats_snapshot();
  EXPECT_GE(stats.deadline_expired, 1u);
  server.Stop();
}

// Pipelining more requests than the per-connection quota gets the excess
// shed with kResourceExhausted while the admitted ones still complete.
TEST(ServerTest, PerConnectionQuotaShedsPipelinedOverload) {
  auto index = MakeIndex();
  ServerOptions options;
  options.max_inflight_per_conn = 2;
  // Slow the dispatcher so the pipelined burst is all in flight at once.
  options.admission_delay_us = 30000;
  Server server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE((*client)->SendSearch(Rect(0, 10, 0, 10)).ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    server::Response resp;
    ASSERT_TRUE((*client)->ReadResponse(&resp).ok());
    if (resp.code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.code, StatusCode::kResourceExhausted)
          << resp.ToStatus().ToString();
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GE(server.stats_snapshot().shed_quota, static_cast<uint64_t>(shed));

  // The connection is still usable after being shed.
  server::SearchReply reply;
  EXPECT_TRUE((*client)->Search(Rect(0, 10, 0, 10), &reply).ok());
  server.Stop();
}

// A malformed frame kills only the offending connection; the server and
// other connections keep serving.
TEST(ServerTest, MalformedFrameDropsConnectionOnly) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Length 3, unknown type 0xee: a protocol violation.
  const uint8_t garbage[] = {3, 0, 0, 0, 0xee, 0x01, 0x02};
  ASSERT_EQ(write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  uint8_t byte = 0;
  EXPECT_EQ(read(fd, &byte, 1), 0);  // Server closed the connection.
  close(fd);

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_GE(server.stats_snapshot().protocol_errors, 1u);
  server.Stop();
}

// Writes acknowledged after an explicit commit survive stopping the
// server, closing the index, and reopening the file.
TEST(ServerTest, CommittedWritesSurviveReopen) {
  const std::string path =
      testing::TempDir() + "/segidx_server_commit_test.idx";
  std::remove(path.c_str());
  auto created =
      IntervalIndex::CreateOnDisk(IndexKind::kRTree, path, IndexOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();

  {
    Server server(index.get(), ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    for (TupleId tid = 1; tid <= 20; ++tid) {
      ASSERT_TRUE((*client)
                      ->Insert(Rect(Interval(10.0 * static_cast<double>(tid),
                                             10.0 * static_cast<double>(tid) +
                                                 5.0),
                                    Interval::Point(1.0)),
                               tid)
                      .ok());
    }
    ASSERT_TRUE((*client)->Commit().ok());
    server.Stop();
  }
  ASSERT_TRUE(index->Close().ok());
  index.reset();

  auto reopened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->size(), 20u);
  std::vector<TupleId> tids;
  ASSERT_TRUE((*reopened)->SearchTuples(Rect(0, 1000, 0, 10), &tids).ok());
  EXPECT_EQ(tids.size(), 20u);
  std::remove(path.c_str());
}

// Resending the same (session, seq) — what a RetryingClient does after a
// lost ack — is answered from the dedup window, not re-applied.
TEST(ServerTest, SessionDedupReplaysDuplicateWrites) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  constexpr uint64_t kSession = 42;
  const Rect rect(10, 20, 5, 5);
  ASSERT_TRUE((*client)->Insert(rect, 7, kSession, /*seq=*/1).ok());
  EXPECT_EQ(index->size(), 1u);

  // The retry: same session and seq, acked OK, applied zero more times.
  ASSERT_TRUE((*client)->Insert(rect, 7, kSession, /*seq=*/1).ok());
  EXPECT_EQ(index->size(), 1u);
  EXPECT_GE(server.stats_snapshot().dedup_hits, 1u);

  // A Hello reports the session's resolved high-water mark.
  server::HelloReply hello{};
  ASSERT_TRUE((*client)->Hello(kSession, &hello).ok());
  EXPECT_EQ(hello.last_seq, 1u);

  // Fresh seq: applied normally.
  ASSERT_TRUE((*client)->Insert(Rect(50, 60, 5, 5), 8, kSession, 2).ok());
  EXPECT_EQ(index->size(), 2u);
  server.Stop();
}

// The dedup window rides inside every checkpoint: after a graceful stop
// and a reopen, a new server still recognizes the old session's seqs.
TEST(ServerTest, DedupWindowSurvivesRestart) {
  const std::string path =
      testing::TempDir() + "/segidx_server_dedup_restart.idx";
  std::remove(path.c_str());
  auto created =
      IntervalIndex::CreateOnDisk(IndexKind::kRTree, path, IndexOptions());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto index = std::move(created).value();

  constexpr uint64_t kSession = 9000;
  {
    Server server(index.get(), ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Insert(Rect(10, 20, 5, 5), 1, kSession, 1).ok());
    ASSERT_TRUE((*client)->Insert(Rect(30, 40, 5, 5), 2, kSession, 2).ok());
    ASSERT_TRUE((*client)->Commit(kSession, 3).ok());
    server.Stop();
  }
  ASSERT_TRUE(index->Close().ok());
  index.reset();

  auto reopened = IntervalIndex::OpenFromDisk(path, IndexOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  index = std::move(reopened).value();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Hello resumes the session where the old server left it...
  server::HelloReply hello{};
  ASSERT_TRUE((*client)->Hello(kSession, &hello).ok());
  EXPECT_EQ(hello.last_seq, 3u);

  // ...and a replay of a pre-restart seq is acked without re-applying.
  ASSERT_TRUE((*client)->Insert(Rect(10, 20, 5, 5), 1, kSession, 1).ok());
  EXPECT_EQ(index->size(), 2u);
  EXPECT_GE(server.stats_snapshot().dedup_hits, 1u);
  server.Stop();
  std::remove(path.c_str());
}

// Connections idle past idle_timeout_ms are reaped by the I/O thread;
// active ones are not.
TEST(ServerTest, IdleConnectionsAreReaped) {
  auto index = MakeIndex();
  ServerOptions options;
  options.idle_timeout_ms = 50;
  Server server(index.get(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  server::SearchReply reply;
  ASSERT_TRUE((*client)->Search(Rect(0, 10, 0, 10), &reply).ok());

  // Go idle; the I/O loop (500ms epoll tick) must reap us.
  uint64_t reaped = 0;
  for (int i = 0; i < 100 && reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    reaped = server.stats_snapshot().idle_reaped;
  }
  EXPECT_GE(reaped, 1u);

  // The reaped connection is dead; a fresh one works.
  EXPECT_FALSE((*client)->Search(Rect(0, 10, 0, 10), &reply).ok());
  auto fresh = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh)->Search(Rect(0, 10, 0, 10), &reply).ok());
  server.Stop();
}

// A minimal hand-rolled "server" for client failure-path tests: accepts
// one connection and hands the fd to the test.
class OneShotListener {
 public:
  OneShotListener() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
              0);
    EXPECT_EQ(listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
  }
  ~OneShotListener() {
    if (conn_fd_ >= 0) close(conn_fd_);
    if (listen_fd_ >= 0) close(listen_fd_);
  }
  uint16_t port() const { return port_; }
  int Accept() {
    conn_fd_ = accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(conn_fd_, 0);
    return conn_fd_;
  }
  void CloseConn() {
    if (conn_fd_ >= 0) close(conn_fd_);
    conn_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  uint16_t port_ = 0;
};

// The peer dying mid-round-trip (request sent, no response will come)
// surfaces promptly as kIoError — not a hang, not a success.
TEST(ClientFailureTest, ServerDeathMidRoundTripIsPromptIoError) {
  OneShotListener listener;
  auto connected = Client::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::move(connected).value();
  const int conn = listener.Accept();

  // Read the request off the wire, then die without answering.
  const auto t0 = std::chrono::steady_clock::now();
  std::thread killer([&] {
    uint8_t buf[256];
    (void)read(conn, buf, sizeof(buf));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.CloseConn();
  });
  server::SearchReply reply;
  const Status st = client->Search(Rect(0, 10, 0, 10), &reply);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  killer.join();

  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// A response whose request_id does not match the request means the stream
// is desynchronized; the client reports kCorruption instead of returning
// someone else's answer.
TEST(ClientFailureTest, MismatchedRequestIdIsRejected) {
  OneShotListener listener;
  auto connected = Client::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  auto client = std::move(connected).value();
  const int conn = listener.Accept();

  std::thread responder([&] {
    // Read the request frame: u32 length prefix, then payload whose first
    // 9 bytes are type + request_id (LE).
    uint8_t len_buf[4];
    size_t got = 0;
    while (got < 4) {
      const ssize_t n = read(conn, len_buf + got, 4 - got);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    const uint32_t len = static_cast<uint32_t>(len_buf[0]) |
                         (static_cast<uint32_t>(len_buf[1]) << 8) |
                         (static_cast<uint32_t>(len_buf[2]) << 16) |
                         (static_cast<uint32_t>(len_buf[3]) << 24);
    std::vector<uint8_t> payload(len);
    got = 0;
    while (got < len) {
      const ssize_t n = read(conn, payload.data() + got, len - got);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    ASSERT_GE(len, 9u);
    // Echo a response that would be perfectly valid — type kSearch, OK
    // code, empty message, empty-but-well-formed search body — except its
    // request_id is off by one.
    uint64_t req_id = 0;
    for (int i = 0; i < 8; ++i) {
      req_id |= static_cast<uint64_t>(payload[1 + i]) << (8 * i);
    }
    const uint64_t wrong = req_id + 1;
    // Payload: u8 type, u64 request_id, u8 code, u32 msg_len, then the
    // search body (u8 partial, u64 nodes_accessed, u32 hit count).
    uint8_t resp[4 + 1 + 8 + 1 + 4 + 13] = {};
    resp[0] = 27;                 // Frame length (LE u32).
    resp[4] = 1;                  // MsgType::kSearch.
    for (int i = 0; i < 8; ++i) {
      resp[5 + i] = static_cast<uint8_t>(wrong >> (8 * i));
    }
    // code = kOk, msg_len = 0, search body all zeros: already in place.
    ASSERT_EQ(write(conn, resp, sizeof(resp)),
              static_cast<ssize_t>(sizeof(resp)));
  });
  server::SearchReply reply;
  const Status st = client->Search(Rect(0, 10, 0, 10), &reply);
  responder.join();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// RetryingClient against a real server through a hostile transport: every
// insert must eventually ack OK, and exactly-once must hold — N acked
// inserts leave exactly N records.
TEST(RetryingClientTest, ExactlyOnceUnderTransportFaults) {
  auto index = MakeIndex();
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  server::transport::FaultPlan plan;
  plan.reset_prob = 0.05;
  plan.short_write_prob = 0.03;
  plan.delay_prob = 0.02;
  plan.max_delay_us = 200;
  plan.seed = 99;
  server::transport::InstallFaultPlan(plan);

  constexpr uint64_t kInserts = 60;
  {
    server::RetryPolicy policy;
    policy.max_attempts = 0;  // Deadline-only: ride out every fault.
    policy.total_deadline_ms = 30000;
    policy.seed = 3;
    server::RetryingClient rc("127.0.0.1", server.port(), /*session_id=*/7,
                              policy);
    Rng rng(55);
    for (uint64_t i = 1; i <= kInserts; ++i) {
      const Status st = rc.Insert(RandomInterval(&rng), i);
      ASSERT_TRUE(st.ok()) << "insert " << i << ": " << st.ToString();
    }
    ASSERT_TRUE(rc.Commit().ok());
  }
  server::transport::ClearFaultPlan();

  server.Stop();
  EXPECT_EQ(index->size(), kInserts);
  std::vector<TupleId> tids;
  ASSERT_TRUE(index->SearchTuples(Rect(-1e6, 1e6, -1e6, 1e6), &tids).ok());
  std::sort(tids.begin(), tids.end());
  ASSERT_EQ(tids.size(), kInserts);  // No duplicates: dedup held.
  for (uint64_t i = 1; i <= kInserts; ++i) EXPECT_EQ(tids[i - 1], i);
}

}  // namespace
}  // namespace segidx
