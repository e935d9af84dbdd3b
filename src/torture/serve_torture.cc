#include "torture/serve_torture.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "server/faulty_transport.h"
#include "server/retrying_client.h"
#include "server/server.h"
#include "storage/block_device.h"
#include "storage/fault_injection.h"

namespace segidx::torture {

namespace {

constexpr const char* kHost = "127.0.0.1";

using Clock = std::chrono::steady_clock;
// A time that never comes: the ack of an op never acked, the delete of a
// tid never deleted.
constexpr Clock::time_point kNever = Clock::time_point::max();

// Deterministic geometry: insert and delete must present the identical
// rect for a tid, and verification must not depend on thread interleaving.
Rect RectFor(TupleId tid) {
  const double x = static_cast<double>(tid % 997);
  const double y = static_cast<double>((tid * 7) % 991);
  return Rect(x, x + 4.0, y, y + 4.0);
}

Rect Everywhere() { return Rect(-1e9, 1e9, -1e9, 1e9); }

// The verdicts RetryingClient keeps retrying on; when it gives up the
// operation's outcome is unknown, not failed.
bool RetryableCode(StatusCode code) {
  switch (code) {
    case StatusCode::kIoError:
    case StatusCode::kCorruption:
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

// One exactly-once mutation as the client saw it. `issued` is read before
// the first attempt is sent and `acked` after the OK verdict returns, so
// the true issue and ack instants lie inside [issued, acked].
struct WriteEvent {
  TupleId tid = 0;
  bool is_delete = false;
  Clock::time_point issued;
  Clock::time_point acked = kNever;
};

// One complete (non-partial) search as its client saw it: issued before
// the request was sent, answered after the reply arrived.
struct SearchEvent {
  Rect window;
  Clock::time_point issued;
  Clock::time_point answered;
  std::vector<TupleId> tids;  // Sorted, distinct.
};

// One thread's searches. Threads never share logs, so no locking.
using SearchLog = std::vector<SearchEvent>;

// One writer thread's oracle. Threads never share logs, so no locking.
struct WriterLog {
  std::set<TupleId> acked_live;     // Insert acked, no delete issued since.
  std::set<TupleId> acked_deleted;  // Delete acked: must be absent.
  std::set<TupleId> unresolved;     // Gave up mid-retry: present 0 or 1 time.
  std::vector<WriteEvent> history;  // Every op, in issue order.
  SearchLog probes;                 // Read-your-writes searches.
  uint64_t reconnects = 0;
  uint64_t retries = 0;
  std::vector<std::string> errors;  // Hard (non-retryable) verdicts.
};

// Searches `window` and, when the answer is complete, logs it for the
// bracket check.
void SearchAndLog(server::RetryingClient* client, const Rect& window,
                  SearchLog* log) {
  server::SearchReply reply;
  const Clock::time_point issued = Clock::now();
  const Status st = client->Search(window, &reply, /*budget_us=*/5000,
                                   /*allow_partial=*/true);
  const Clock::time_point answered = Clock::now();
  if (!st.ok() || reply.partial) return;
  SearchEvent event{window, issued, answered, {}};
  event.tids.reserve(reply.hits.size());
  for (const rtree::SearchHit& hit : reply.hits) event.tids.push_back(hit.tid);
  std::sort(event.tids.begin(), event.tids.end());
  event.tids.erase(std::unique(event.tids.begin(), event.tids.end()),
                   event.tids.end());
  log->push_back(std::move(event));
}

struct ServingStack {
  storage::MemoryBlockDevice* memory = nullptr;          // Borrowed.
  storage::FaultInjectingBlockDevice* device = nullptr;  // Borrowed.
  std::unique_ptr<core::IntervalIndex> index;            // Owns the chain.
  std::unique_ptr<server::Server> server;
};

server::ServerOptions MakeServerOptions(const ServeTortureOptions& options,
                                        uint16_t port) {
  server::ServerOptions sopts;
  sopts.host = kHost;
  sopts.port = port;
  sopts.commit_every = options.server_commit_every;
  return sopts;
}

// Builds index + server on a fresh (or recovered) device image. Binding
// an explicit port retries briefly: a restart can race the old socket's
// teardown.
Result<ServingStack> StartStack(const ServeTortureOptions& options,
                                std::vector<uint8_t>* image, uint16_t port) {
  ServingStack stack;
  auto memory = image == nullptr
                    ? std::make_unique<storage::MemoryBlockDevice>()
                    : std::make_unique<storage::MemoryBlockDevice>(
                          std::move(*image));
  stack.memory = memory.get();
  auto faulty =
      std::make_unique<storage::FaultInjectingBlockDevice>(std::move(memory));
  stack.device = faulty.get();
  auto index = image == nullptr
                   ? core::IntervalIndex::CreateWithDevice(
                         options.kind, std::move(faulty), options.index)
                   : core::IntervalIndex::OpenFromDevice(std::move(faulty),
                                                         options.index);
  if (!index.ok()) return index.status();
  stack.index = std::move(*index);

  Status last = UnavailableError("server never started");
  for (int attempt = 0; attempt < 100; ++attempt) {
    stack.server = std::make_unique<server::Server>(
        stack.index.get(), MakeServerOptions(options, port));
    last = stack.server->Start();
    if (last.ok()) return stack;
    stack.server.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

void WriterThread(const ServeTortureOptions& options, uint16_t port,
                  int round, int writer, WriterLog* log) {
  server::RetryPolicy policy;
  policy.max_attempts = 0;  // Deadline-bound: ride out crash + restart.
  policy.total_deadline_ms = options.client_deadline_ms;
  policy.seed = options.seed + static_cast<uint64_t>(round) * 7919 + writer;
  const uint64_t session_id =
      static_cast<uint64_t>(round + 1) * 1000 + writer + 1;
  server::RetryingClient client(kHost, port, session_id, policy);
  Rng rng(policy.seed * 2654435761u + 1);

  const bool allow_deletes =
      options.kind == core::IndexKind::kRTree && options.delete_fraction > 0;
  TupleId next_tid =
      static_cast<TupleId>(writer) * options.ops_per_writer + 1;

  for (uint64_t op = 0; op < options.ops_per_writer; ++op) {
    const bool do_delete = allow_deletes && !log->acked_live.empty() &&
                           rng.NextDouble() < options.delete_fraction;
    if (do_delete) {
      // Deterministic-ish victim: hop a random distance into our own
      // acked set.
      auto it = log->acked_live.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(log->acked_live.size()) -
                                  1)));
      const TupleId victim = *it;
      const Clock::time_point issued = Clock::now();
      const Status st = client.Delete(RectFor(victim), victim);
      log->history.push_back({victim, /*is_delete=*/true, issued,
                              st.ok() ? Clock::now() : kNever});
      log->acked_live.erase(victim);
      if (st.ok()) {
        log->acked_deleted.insert(victim);
      } else if (RetryableCode(st.code())) {
        log->unresolved.insert(victim);
      } else {
        log->errors.push_back("delete tid " + std::to_string(victim) +
                              ": " + st.ToString());
      }
    } else {
      const TupleId tid = next_tid++;
      const Clock::time_point issued = Clock::now();
      const Status st = client.Insert(RectFor(tid), tid);
      log->history.push_back({tid, /*is_delete=*/false, issued,
                              st.ok() ? Clock::now() : kNever});
      if (st.ok()) {
        log->acked_live.insert(tid);
        // Read-your-writes probe: issued right after the ack, so an ack
        // sent before the insert is visible shows up here.
        SearchAndLog(&client, RectFor(tid), &log->probes);
      } else if (RetryableCode(st.code())) {
        log->unresolved.insert(tid);
      } else {
        log->errors.push_back("insert tid " + std::to_string(tid) + ": " +
                              st.ToString());
      }
    }
    if (options.client_commit_every > 0 &&
        (op + 1) % options.client_commit_every == 0) {
      // The server already checkpoints its batches; an explicit commit
      // exercises the coalesced-commit + dedup path. Its verdict does not
      // change the oracle (acked mutations are durable either way).
      (void)client.Commit();
    }
  }
  log->reconnects = client.reconnects();
  log->retries = client.retries();
}

void ReaderThread(const ServeTortureOptions& options, uint16_t port,
                  int round, int reader, const std::atomic<bool>* stop,
                  SearchLog* log) {
  server::RetryPolicy policy;
  policy.max_attempts = 3;  // Searches are disposable; fail fast and loop.
  policy.total_deadline_ms = 2000;
  policy.seed = options.seed + static_cast<uint64_t>(round) * 104729 + reader;
  const uint64_t session_id =
      static_cast<uint64_t>(round + 1) * 1000 + 500 + reader;
  server::RetryingClient client(kHost, port, session_id, policy);
  Rng rng(policy.seed + 17);
  for (uint64_t n = 0; !stop->load(std::memory_order_relaxed); ++n) {
    // Every other search spans the whole domain, so the bracket check sees
    // every write; the others probe small windows.
    const double x = rng.NextDouble() * 900.0;
    const double y = rng.NextDouble() * 900.0;
    SearchAndLog(&client,
                 n % 2 == 0 ? Everywhere() : Rect(x, x + 50, y, y + 50), log);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

std::string Describe(int round, const std::string& what) {
  return "round " + std::to_string(round) + ": " + what;
}

// What the writers did to one tid, merged from their histories.
struct TidHistory {
  Clock::time_point insert_issued = kNever;
  Clock::time_point insert_acked = kNever;
  Clock::time_point delete_issued = kNever;
  Clock::time_point delete_acked = kNever;
};

// The history bracket check: every complete search must (1) contain every
// insert inside its window that was acked before the search was issued,
// unless a delete of it was issued before the search was answered; (2)
// contain no tid whose delete was acked before the search was issued; and
// (3) contain only tids whose insert was issued before it was answered.
// Every bound compares client-side readings that bracket the true instants
// (see WriteEvent, SearchEvent), so a violation is never a timing artifact.
// Returns one message per violation.
std::vector<std::string> CheckBrackets(const std::vector<WriterLog>& writers,
                                       const std::vector<SearchLog>& readers,
                                       Clock::time_point round_start,
                                       uint64_t* searches_checked) {
  std::unordered_map<TupleId, TidHistory> tids;
  for (const WriterLog& log : writers) {
    for (const WriteEvent& e : log.history) {
      TidHistory& h = tids[e.tid];
      if (e.is_delete) {
        h.delete_issued = e.issued;
        h.delete_acked = e.acked;
      } else {
        h.insert_issued = e.issued;
        h.insert_acked = e.acked;
      }
    }
  }
  const auto at = [&](Clock::time_point t) {
    return "+" +
           std::to_string(std::chrono::duration_cast<std::chrono::microseconds>(
                              t - round_start)
                              .count()) +
           "us";
  };
  std::vector<const SearchLog*> logs;
  for (const WriterLog& log : writers) logs.push_back(&log.probes);
  for (const SearchLog& log : readers) logs.push_back(&log);
  std::vector<std::string> out;
  for (const SearchLog* log : logs) {
    for (const SearchEvent& s : *log) {
      ++*searches_checked;
      const std::string search = "search issued " + at(s.issued) +
                                 ", answered " + at(s.answered);
      for (const auto& [tid, h] : tids) {
        if (h.insert_acked < s.issued && h.delete_issued >= s.answered &&
            RectFor(tid).Intersects(s.window) &&
            !std::binary_search(s.tids.begin(), s.tids.end(), tid)) {
          out.push_back("STALE: " + search + " misses tid " +
                        std::to_string(tid) + " acked " +
                        at(h.insert_acked));
        }
      }
      for (TupleId tid : s.tids) {
        auto it = tids.find(tid);
        if (it == tids.end() || it->second.insert_issued >= s.answered) {
          out.push_back("FUTURE: " + search + " returns tid " +
                        std::to_string(tid) + " issued " +
                        (it == tids.end() ? std::string("never")
                                          : at(it->second.insert_issued)));
        } else if (it->second.delete_acked < s.issued) {
          out.push_back("RESURRECTED: " + search + " returns tid " +
                        std::to_string(tid) + " whose delete was acked " +
                        at(it->second.delete_acked));
        }
      }
    }
  }
  return out;
}

}  // namespace

Result<ServeTortureReport> RunServeTorture(
    const ServeTortureOptions& options) {
  if (core::IsSkeleton(options.kind)) {
    return InvalidArgumentError(
        "serve torture requires a non-skeleton index kind (the skeleton "
        "build buffer hides acked records from the oracle)");
  }
  if (options.writers <= 0 || options.ops_per_writer == 0) {
    return InvalidArgumentError("serve torture needs at least one writer op");
  }

  ServeTortureReport report;
  Rng crash_rng(options.seed ^ 0x5eedf00du);
  const int total_rounds = options.chaos_rounds + options.crash_rounds;

  for (int round = 0; round < total_rounds; ++round) {
    const bool crashing = round >= options.chaos_rounds;
    if (options.log_progress) {
      std::fprintf(stderr, "serve-torture: round %d/%d (%s)\n", round + 1,
                   total_rounds, crashing ? "crash" : "chaos");
    }

    auto stack = StartStack(options, nullptr, /*port=*/0);
    if (!stack.ok()) return stack.status();
    const uint16_t port = stack->server->port();

    server::transport::FaultPlan plan;
    plan.reset_prob = options.reset_prob;
    plan.delay_prob = options.delay_prob;
    plan.short_write_prob = options.short_write_prob;
    plan.max_delay_us = options.max_delay_us;
    plan.seed = options.seed + static_cast<uint64_t>(round) * 31;
    server::transport::InstallFaultPlan(plan);

    std::vector<WriterLog> logs(options.writers);
    std::vector<SearchLog> reader_logs(options.readers);
    const Clock::time_point round_start = Clock::now();
    std::atomic<bool> readers_stop{false};
    std::vector<std::thread> threads;
    threads.reserve(options.writers + options.readers);
    for (int w = 0; w < options.writers; ++w) {
      threads.emplace_back(WriterThread, std::cref(options), port, round, w,
                           &logs[w]);
    }
    std::vector<std::thread> readers;
    readers.reserve(options.readers);
    for (int r = 0; r < options.readers; ++r) {
      readers.emplace_back(ReaderThread, std::cref(options), port, round, r,
                           &readers_stop, &reader_logs[r]);
    }

    // Crash controller: freeze the device mid-traffic, crash the server,
    // recover the surviving image, restart on the same port — repeatedly —
    // while the writer/reader threads above keep hammering.
    if (crashing) {
      for (int c = 0; c < options.crashes_per_round; ++c) {
        // Let some durability traffic land first.
        const uint64_t start_ops = stack->device->counters().ops();
        const auto progress_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (stack->device->counters().ops() < start_ops + 20 &&
               std::chrono::steady_clock::now() < progress_deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        stack->device->CrashAtOp(stack->device->counters().ops() +
                                 static_cast<uint64_t>(
                                     crash_rng.UniformInt(0, 30)));
        const auto crash_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!stack->device->crashed() &&
               std::chrono::steady_clock::now() < crash_deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }

        stack->server->Abort();
        stack->server.reset();
        std::vector<uint8_t> image = stack->memory->Snapshot();
        stack->index.reset();

        auto recovered = StartStack(options, &image, port);
        if (!recovered.ok()) {
          report.failures.push_back(Describe(
              round, "recovery/restart failed after crash " +
                         std::to_string(c) + ": " +
                         recovered.status().ToString()));
          break;  // Writers drain against a dead port and give up.
        }
        *stack = std::move(*recovered);
        report.server_crashes++;
        if (options.log_progress) {
          std::fprintf(stderr, "serve-torture:   crash %d recovered, %llu "
                               "records back\n",
                       c + 1,
                       static_cast<unsigned long long>(stack->index->size()));
        }
      }
    }

    for (std::thread& t : threads) t.join();
    readers_stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : readers) t.join();

    report.transport_faults += server::transport::FaultsInjected();
    server::transport::ClearFaultPlan();

    if (stack->server != nullptr) {
      report.dedup_hits += stack->server->stats_snapshot().dedup_hits;
      stack->server->Stop();
      stack->server.reset();
    }

    // --- Verification against the merged oracle --------------------------
    std::set<TupleId> live;
    std::set<TupleId> deleted;
    std::set<TupleId> unresolved;
    for (WriterLog& log : logs) {
      report.client_reconnects += log.reconnects;
      report.client_retries += log.retries;
      report.acked_inserts += log.acked_live.size() + log.acked_deleted.size();
      report.acked_deletes += log.acked_deleted.size();
      report.unresolved_ops += log.unresolved.size();
      live.insert(log.acked_live.begin(), log.acked_live.end());
      deleted.insert(log.acked_deleted.begin(), log.acked_deleted.end());
      unresolved.insert(log.unresolved.begin(), log.unresolved.end());
      for (const std::string& err : log.errors) {
        report.failures.push_back(Describe(round, "hard client error: " + err));
      }
    }

    const std::vector<std::string> bracket = CheckBrackets(
        logs, reader_logs, round_start, &report.searches_checked);
    for (size_t i = 0; i < bracket.size() && i < 8; ++i) {
      report.failures.push_back(Describe(round, bracket[i]));
    }
    if (bracket.size() > 8) {
      report.failures.push_back(Describe(
          round, "... " + std::to_string(bracket.size() - 8) +
                     " more bracket violations"));
    }

    if (stack->index == nullptr) {
      report.rounds_run++;
      continue;  // Recovery failed above; already reported.
    }

    auto check = stack->index->CheckStructure();
    if (!check.ok()) {
      report.failures.push_back(
          Describe(round, "structure check did not run: " +
                              check.status().ToString()));
    } else if (!check->ok()) {
      report.failures.push_back(
          Describe(round, "structure violations: " + check->ToString()));
    }

    std::vector<TupleId> found;
    if (Status st = stack->index->SearchTuples(Everywhere(), &found);
        !st.ok()) {
      report.failures.push_back(
          Describe(round, "final search failed: " + st.ToString()));
      report.rounds_run++;
      continue;
    }
    std::map<TupleId, int> count;
    for (TupleId tid : found) count[tid]++;

    // Segment kinds may legitimately split one record into several pieces
    // sharing a tid; only plain kinds support the exact-count check.
    const bool exact = !core::IsSegment(options.kind);
    size_t reported = 0;
    auto flag = [&](const std::string& msg) {
      if (reported++ < 8) report.failures.push_back(Describe(round, msg));
    };
    for (TupleId tid : live) {
      const int n = count.count(tid) != 0 ? count[tid] : 0;
      if (n == 0) {
        flag("LOST: acked insert tid " + std::to_string(tid) + " missing");
      } else if (exact && n != 1) {
        flag("DUPLICATED: acked insert tid " + std::to_string(tid) +
             " present " + std::to_string(n) + " times");
      }
    }
    for (TupleId tid : deleted) {
      if (count.count(tid) != 0) {
        flag("RESURRECTED: acked delete tid " + std::to_string(tid) +
             " still present");
      }
    }
    for (const auto& [tid, n] : count) {
      if (exact && n > 1 && live.count(tid) == 0) {
        flag("DUPLICATED: tid " + std::to_string(tid) + " present " +
             std::to_string(n) + " times");
      }
      if (live.count(tid) == 0 && unresolved.count(tid) == 0 &&
          deleted.count(tid) == 0) {  // Deleted-but-present flagged above.
        flag("PHANTOM: tid " + std::to_string(tid) +
             " present but never acked or in doubt");
      }
    }
    if (reported > 8) {
      report.failures.push_back(Describe(
          round, "... " + std::to_string(reported - 8) + " more violations"));
    }
    report.rounds_run++;
  }
  return report;
}

}  // namespace segidx::torture
