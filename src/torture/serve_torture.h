// End-to-end serving fault-tolerance torture (robustness work, ISSUE 10).
//
// Spins up a real segidxd Server over a fault-injecting block device,
// points N RetryingClient writer threads and M reader threads at it over
// a fault-injecting transport, and tortures the whole stack:
//
//   * chaos rounds keep the network hostile for the entire run —
//     connection resets, torn response frames, randomized delays — while
//     writers insert (and, on plain R-Tree kinds, delete) with
//     exactly-once sessions and readers search;
//   * crash rounds additionally kill the server mid-traffic: the block
//     device freezes at a scheduled op (as if the process died), the
//     server Abort()s without answering or checkpointing, the surviving
//     image is snapshotted and recovered, and a new server comes back on
//     the same port while the clients' retry loops ride out the outage.
//
// Every writer keeps its own oracle: the tuple ids whose inserts/deletes
// were ACKED (the retry loop returned OK) and the ones left UNRESOLVED
// (retry budget exhausted mid-fault — the op may or may not have landed).
// After the final graceful stop the harness asserts, against the index
// itself:
//
//   * the structure checker is clean;
//   * every acked insert not later acked-deleted is present exactly once
//     — an acked op that a crash forgot (lost write) or a retry that
//     re-applied (broken dedup) both fail this;
//   * every acked delete is absent;
//   * an unresolved op appears at most once (never duplicated).
//
// While the round runs, writers stamp each op's issue and ack times and
// search each acked insert's rectangle right away (read-your-writes);
// they and the readers keep every complete search's window, tids and
// issue/response times. After the round a history bracket check holds
// each search to the writes around it: it contains every insert in its
// window acked before it was issued (unless a delete of it was issued
// before the response), no tid whose delete was acked before it was
// issued, and only tids whose insert was issued before the response
// arrived. This catches stale or early visibility that the final-state
// oracle cannot see.
//
// The workload is seed-deterministic per thread; the interleaving is not,
// so the oracle is per-op bookkeeping rather than a replayable trace.
// Skeleton kinds are rejected: their build-phase buffer keeps acked
// records outside the tree, which this oracle cannot see.

#ifndef SEGIDX_TORTURE_SERVE_TORTURE_H_
#define SEGIDX_TORTURE_SERVE_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/interval_index.h"

namespace segidx::torture {

struct ServeTortureOptions {
  // Plain R-Tree by default: its one-record-per-tid search result makes
  // the duplicate check exact. kSRTree is allowed (deletes are skipped and
  // presence is checked as a distinct set); skeleton kinds are rejected.
  core::IndexKind kind = core::IndexKind::kRTree;

  int writers = 4;
  int readers = 2;
  // Exactly-once mutations each writer issues per round (inserts plus
  // deletes, before retries).
  uint64_t ops_per_writer = 150;
  // A writer issues an explicit Commit after this many of its own ops.
  uint64_t client_commit_every = 25;
  // Fraction of a writer's ops that delete one of its own acked inserts
  // (plain R-Tree kinds only; see `kind`).
  double delete_fraction = 0.2;

  // Rounds without a server crash (network chaos only) and rounds with
  // crash+restart cycles.
  int chaos_rounds = 1;
  int crash_rounds = 1;
  // Server kills per crash round.
  int crashes_per_round = 2;

  // Network fault plan applied to every round.
  double reset_prob = 0.02;
  double short_write_prob = 0.01;
  double delay_prob = 0.05;
  uint32_t max_delay_us = 500;

  // Server-side WritePool chunk size (ServerOptions::commit_every).
  uint64_t server_commit_every = 32;
  // Per-operation client retry budget; must ride out crash + recovery +
  // restart.
  uint64_t client_deadline_ms = 20000;

  uint32_t seed = 1234;
  core::IndexOptions index;
  bool log_progress = false;
};

struct ServeTortureReport {
  uint64_t rounds_run = 0;
  uint64_t server_crashes = 0;   // Abort()+recover+restart cycles.
  uint64_t client_reconnects = 0;
  uint64_t client_retries = 0;
  uint64_t transport_faults = 0;  // Faults the transport layer injected.
  uint64_t acked_inserts = 0;
  uint64_t acked_deletes = 0;
  uint64_t unresolved_ops = 0;    // Retry budget exhausted; outcome unknown.
  uint64_t dedup_hits = 0;        // Server-side replays (from final stats).
  uint64_t searches_checked = 0;  // Complete searches the bracket check ran.
  // One message per violated invariant (empty means the torture passed).
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
};

// Runs every round. A non-OK status means the harness itself could not
// run (bad options, server failed to start on a clean stack); invariant
// violations land in `failures`.
Result<ServeTortureReport> RunServeTorture(const ServeTortureOptions& options);

}  // namespace segidx::torture

#endif  // SEGIDX_TORTURE_SERVE_TORTURE_H_
