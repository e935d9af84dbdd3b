// Paged storage manager: extent allocation plus a pinning buffer pool,
// with crash-atomic checkpoints (format v2).
//
// The paper's indexes use *variable node sizes*: leaf nodes are one base
// block (1 KB in the experiments) and the node size doubles at each level
// above the leaves (Section 2.1.2 / Section 5). The pager therefore manages
// extents — contiguous runs of 2^size_class base blocks — rather than fixed
// pages. Freed extents go on a per-size-class free list threaded through the
// first bytes of each free extent and anchored in the superblock, so index
// files can be closed and reopened.
//
// Crash safety (format v2) rests on one invariant: between two
// checkpoints, no block that the newest durable superblock slot can reach
// (pages, free-list links, the slot itself, its journal) is ever written.
// Everything the pager writes mid-epoch — evicted dirty pages, the next
// checkpoint's journal — goes to freshly allocated blocks past the durable
// high-water mark. Concretely:
//
//   * Two superblock slots live in blocks 0 and 1, each carrying a
//     monotonically increasing checkpoint epoch and a CRC32C. Checkpoint()
//     always writes the slot the newest durable state does NOT occupy, so a
//     torn slot write leaves the previous slot (and everything it
//     references) untouched.
//   * Checkpoint() first serializes every change of the epoch — dirty page
//     images, spilled pages being re-homed, free-list link updates — into a
//     contiguous *journal* run of fresh blocks, syncs it, then writes and
//     syncs the inactive slot (which records the run). Only after the slot
//     is durable are the changes applied to their home locations; Open()
//     replays the winning slot's journal, so those home writes need no
//     final sync and may tear freely. Each buffer-pool partition keeps the
//     set of its dirty blocks, so a checkpoint finds the dirty pages
//     without scanning clean frames and copies each page image once,
//     straight into the journal run; the home writes come from that run.
//   * Evicting a dirty frame *spills* it to a fresh extent and records a
//     home→spill redirect instead of overwriting the home block; Fetch()
//     follows redirects. Free() only defers the extent to an in-memory
//     pending list; links are threaded at the next checkpoint.
//
// Format v1 files (magic "SEGIDX01") are refused at open with
// kFailedPrecondition.
//
// A hard I/O *write* failure (after the block device's own retries) flips
// the pager into degraded read-only mode: Fetch() keeps serving, while
// Allocate/Free/SetUserMeta/Checkpoint return kUnavailable and eviction
// skips dirty frames. Transient EINTR/EAGAIN never reaches this layer —
// FileBlockDevice retries those with capped backoff.
//
// Thread-safety contract (multi-writer; see docs/CONCURRENCY.md):
//
//   * Fetch(), PageHandle pin/unpin/MarkDirty, and the stats counters are
//     safe to call from any number of threads concurrently. The buffer pool
//     is sharded into `PagerOptions::lru_partitions` latch-protected
//     partitions keyed by base block, so concurrent readers on different
//     pages rarely contend; stats counters are updated with relaxed
//     atomics.
//   * Allocate(), Free(), and SetUserMeta() serialize on the allocator
//     latch (alloc_mu_) and are safe from concurrent threads. Freeing or
//     reallocating a page another thread is concurrently fetching remains
//     a logical race the caller must prevent — the tree layer guarantees
//     this with node latches plus its phase gate (a page is freed only
//     while its parent's latch pins the only path to it).
//   * Checkpoint() requires *mutation quiescence*: no concurrent
//     Allocate/Free/WriteNode-style page mutation while it snapshots dirty
//     frames (concurrent Fetch of stable pages is fine). Callers get this
//     by entering the tree layer's exclusive gate; use GroupCommit() to
//     let N threads amortize one such checkpoint + fsync.
//   * GroupCommit(fn) is safe from any number of threads: callers batch
//     behind one leader, the leader runs `fn` (typically meta save +
//     Checkpoint) once, and every batched caller observes its result.
//   * Lock order: a partition latch may be held while taking alloc_mu_
//     (the spill and redirect-lookup paths do), never the reverse. The
//     group-commit latch (commit_mu_) is never held while running `fn`.
//   * ResetStats() and FreeExtents() require external quiescence.
//
// LRU is maintained per partition; with `lru_partitions = 1` the pager
// degenerates to the exact global-LRU behavior of the original
// single-threaded design (tests that assert eviction order use this).

#ifndef SEGIDX_STORAGE_PAGER_H_
#define SEGIDX_STORAGE_PAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/block_device.h"

namespace segidx::storage {

inline constexpr uint32_t kInvalidBlock = 0xffffffffu;

// Address of an extent: its first base block and its size class
// (the extent spans 1 << size_class base blocks).
struct PageId {
  uint32_t block = kInvalidBlock;
  uint8_t size_class = 0;

  bool valid() const { return block != kInvalidBlock; }

  // Packs into 8 bytes for on-page child pointers. Bits 40-63 are
  // reserved and always zero.
  uint64_t Encode() const {
    return static_cast<uint64_t>(block) |
           static_cast<uint64_t>(size_class) << 32;
  }
  // Non-zero reserved bits mean the pointer bytes are corrupt; Decode maps
  // such values to an invalid PageId so the damage surfaces as a clean
  // error (Fetch rejects invalid ids) instead of silently aliasing an
  // arbitrary (block, size_class).
  static PageId Decode(uint64_t v) {
    PageId id;
    if ((v >> 40) != 0) return id;
    id.block = static_cast<uint32_t>(v);
    id.size_class = static_cast<uint8_t>(v >> 32);
    return id;
  }

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.block == b.block && a.size_class == b.size_class;
  }
};

// Counters are plain integers mutated exclusively through relaxed
// std::atomic_ref, so concurrent readers (Fetch from many threads) never
// race. Reading a consistent snapshot requires quiescence, which every
// caller (tests, benchmarks after joining workers) already has.
struct StorageStats {
  uint64_t logical_reads = 0;    // Fetch() calls (= node accesses).
  uint64_t cache_hits = 0;
  uint64_t physical_reads = 0;   // device reads caused by cache misses.
  uint64_t physical_writes = 0;  // device writes (spills + checkpoints).
  uint64_t evictions = 0;
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;
  uint64_t spills = 0;           // dirty evictions redirected to spill blocks.
  uint64_t checkpoints = 0;      // completed (durable) checkpoints.
  uint64_t journaled_pages = 0;  // page images those checkpoints journaled.
  uint64_t journal_bytes = 0;    // bytes of journal run they wrote.
  uint64_t degraded = 0;         // 1 once a hard write error forced
                                 // read-only mode (survives ResetStats).
  uint64_t pages_quarantined = 0;  // Extents ever quarantined after a
                                   // checksum/decode failure (survives
                                   // ResetStats, like degraded).
  uint64_t quarantine_hits = 0;    // Fetches rejected on quarantined pages.
  uint64_t commit_requests = 0;    // GroupCommit() calls.
  uint64_t commit_batches = 0;     // Leader executions (fsync rounds); the
                                   // ratio requests/batches is the group
                                   // commit's amortization factor.
  uint64_t commit_linger_us = 0;   // Time leaders spent lingering for
                                   // joiners before running commit_fn.
};

struct PagerOptions {
  uint32_t base_block_size = 1024;
  // Largest supported extent: 1 << max_size_class base blocks.
  uint8_t max_size_class = 7;
  // Buffer pool capacity. The pool may transiently exceed this when every
  // frame is pinned.
  size_t buffer_pool_bytes = 8u << 20;
  // Buffer-pool partitions (frame map + LRU list + byte budget each),
  // keyed by base block. More partitions means less latch contention for
  // concurrent readers; 1 restores exact global LRU. Clamped to [1, 256].
  uint32_t lru_partitions = 8;
  // GroupCommit(): the longest a commit leader lingers (microseconds) for
  // more requesters to join its batch before running the commit function.
  // A leader lingers only when a peer is committing too (see GroupCommit);
  // a sole committer never waits. 0 commits immediately — concurrent
  // requesters that arrived while a previous batch was in flight still
  // coalesce; the window only adds latency to *absorb* near-simultaneous
  // requesters into fewer fsyncs.
  uint32_t group_commit_window_us = 200;
};

// What Open() found: which superblock slot won, whether the other one was
// unusable (a torn checkpoint we fell back across), and how much of the
// winning checkpoint's journal was replayed.
struct RecoveryReport {
  uint32_t format_version = 0;
  int active_slot = -1;       // Winning slot index.
  uint64_t epoch = 0;         // Epoch of the recovered state.
  // True when exactly one slot was usable — i.e. the file carries evidence
  // of an interrupted checkpoint (or external damage) that Open() recovered
  // across.
  bool fell_back = false;
  bool journal_replayed = false;
  uint64_t journal_entries = 0;  // Total journal entries re-applied.
  uint64_t pages_salvaged = 0;   // Full page images among those entries.
  // Per-slot parse failure, empty when the slot was valid.
  std::array<std::string, 2> slot_error;
};

// One quarantined extent: a page whose bytes failed their checksum or
// decode. The pager keeps serving every other page; readers treat the
// subtree rooted here as missing (partial results) until the page is
// freed, rebuilt, or the quarantine is cleared.
struct QuarantinedPage {
  PageId page;
  std::string reason;
};

// Controls for the online media scrub (Pager::Scrub and the tree-walking
// core::IntervalIndex::Scrub built on top of it).
struct ScrubOptions {
  // Rate limit: extents verified per second (0 = full speed). The scrub
  // sleeps between extents to hold this pace, so it can run against a
  // serving index without starving foreground reads.
  uint64_t max_extents_per_second = 0;
  // Cooperative cancellation: checked between extents; a fired token stops
  // the scan early with ScrubReport::completed = false.
  const std::atomic<bool>* cancel_token = nullptr;
  // Register every damaged node page in the pager's quarantine set so
  // subsequent searches skip it (core-layer scrub only).
  bool quarantine_damaged = true;
};

// One damaged extent (or superblock slot) found by a scrub.
struct ScrubDefect {
  PageId page;        // invalid() for superblock-slot defects.
  std::string error;
};

struct ScrubReport {
  uint64_t extents_scanned = 0;    // Total extents examined.
  uint64_t reachable_extents = 0;  // Tree node pages CRC-verified.
  uint64_t free_extents = 0;       // Free/unreachable extents read-verified.
  uint64_t bytes_scanned = 0;
  uint64_t structure_errors = 0;   // Light structure pass findings.
  bool completed = true;           // false when cancelled mid-scan.
  std::vector<ScrubDefect> defects;

  bool clean() const { return defects.empty(); }
  // Human-readable multi-line summary (one line per defect).
  std::string ToString() const;
};

class Pager;

// RAII pin on a cached extent. While alive, data() is stable and the frame
// cannot be evicted. Call MarkDirty() after mutating the bytes.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;

  bool valid() const { return pager_ != nullptr; }
  PageId id() const { return id_; }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  void MarkDirty();

  // Drops the pin early (idempotent).
  void Release();

 private:
  friend class Pager;
  PageHandle(Pager* pager, PageId id, uint8_t* data, size_t size)
      : pager_(pager), id_(id), data_(data), size_(size) {}

  Pager* pager_ = nullptr;
  PageId id_;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// See file comment.
class Pager {
 public:
  // Maximum bytes of tree-private metadata stored in the superblock.
  static constexpr size_t kUserMetaCapacity = 512;

  // Formats a fresh device (writes both superblock slots).
  static Result<std::unique_ptr<Pager>> Create(
      std::unique_ptr<BlockDevice> device, const PagerOptions& options);

  // Opens an existing formatted device; validates both superblock slots
  // against `options.base_block_size`, adopts the newest usable checkpoint,
  // and replays its journal. recovery_report() describes what happened.
  static Result<std::unique_ptr<Pager>> Open(
      std::unique_ptr<BlockDevice> device, const PagerOptions& options);

  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Allocates a zeroed extent of the given size class; returns it pinned
  // and marked dirty. Single-writer path.
  Result<PageHandle> Allocate(uint8_t size_class);

  // Fetches an extent, reading it from the device on a cache miss. Safe for
  // concurrent callers.
  Result<PageHandle> Fetch(PageId id);

  // Returns an extent to the free list. The extent must be unpinned. The
  // free becomes durable at the next Checkpoint(). Single-writer path.
  Status Free(PageId id);

  // Makes the current state durable: journals every change of this epoch,
  // syncs, publishes the inactive superblock slot, syncs again, then
  // applies the changes home. A crash at any point leaves the file
  // openable at either this or the previous checkpoint. The pager remains
  // usable. Requires mutation quiescence (see the thread-safety contract).
  Status Checkpoint();

  // Group commit: durability requests from N threads coalesce into one
  // execution of `commit_fn` (which typically saves metadata and calls
  // Checkpoint(), under whatever quiescence the caller's layer provides).
  // The calling thread returns once a batch *covering its request* has
  // completed — i.e. a leader ran commit_fn after this call arrived — with
  // that batch's status. Requests that arrive while a batch is in flight
  // wait for the next batch; the leader of a batch holds no pager locks
  // while commit_fn runs. A leader lingers for joiners, at most
  // `PagerOptions::group_commit_window_us`, only on evidence that another
  // thread is committing: the request before its own came from another
  // thread, a request is queued behind its own, or the previous batch
  // covered more than one request. Otherwise it runs commit_fn at once,
  // so a sole committer pays no linger.
  Status GroupCommit(const std::function<Status()>& commit_fn);

  // True when anything since the last durable checkpoint would be lost
  // without another: dirty pooled pages, spilled pages or frees of this
  // epoch. Requires mutation quiescence, like Checkpoint().
  bool HasUncheckpointedChanges() const;

  // Tree-private metadata persisted in the superblock at Checkpoint().
  const std::vector<uint8_t>& user_meta() const { return user_meta_; }
  Status SetUserMeta(const uint8_t* data, size_t n);

  uint32_t base_block_size() const { return options_.base_block_size; }
  uint8_t max_size_class() const { return options_.max_size_class; }
  size_t ExtentBytes(uint8_t size_class) const {
    return static_cast<size_t>(options_.base_block_size) << size_class;
  }
  // Total base blocks ever allocated (file high-water mark), for size
  // accounting in experiments.
  uint64_t allocated_blocks() const { return next_block_; }

  // First block available to data extents (after the two superblock slots).
  static constexpr uint32_t first_data_block() { return 2; }
  // Epoch of the newest durable checkpoint.
  uint64_t epoch() const { return epoch_; }
  // True once a hard write error flipped the pager read-only.
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  // What Open()/Create() found; stable for the pager's lifetime.
  const RecoveryReport& recovery_report() const { return report_; }

  const StorageStats& stats() const { return stats_; }
  void ResetStats();

  // Number of currently pinned / cached frames across every partition
  // (for tests / leak detection).
  size_t pinned_frames() const;
  size_t cached_frames() const;
  // Bytes currently held by the buffer pool across every partition.
  size_t cached_bytes() const;

  // --- per-page quarantine -----------------------------------------------
  //
  // Whole-pager degraded mode is reserved for hard device *write* errors;
  // a single page whose bytes fail their checksum or decode is instead
  // quarantined individually, keeping every other page readable and the
  // pager writable. Quarantined pages fail Fetch() fast with kCorruption
  // (no device traffic), so a search can skip the dead subtree and report
  // a partial result instead of re-reading known-bad media.

  // Bound on the quarantine set: damage wider than this is no longer
  // "a few bad pages" and should fail hard (run salvage instead).
  static constexpr size_t kMaxQuarantinedPages = 256;

  // Quarantines one extent. Returns false when the set is full and the
  // page was not added (the caller should propagate the original error).
  // Quarantining an already-quarantined block is a no-op returning true.
  // Thread-safe.
  bool QuarantinePage(PageId id, const std::string& reason);
  bool IsQuarantined(uint32_t block) const;
  size_t quarantined_count() const {
    return quarantine_count_.load(std::memory_order_relaxed);
  }
  // Snapshot of the live quarantine set (for scrub and status surfaces).
  std::vector<QuarantinedPage> QuarantinedPages() const;
  // Forgets every quarantined page (after the damage was repaired or the
  // subtree rebuilt). Freeing a quarantined extent also removes its entry.
  void ClearQuarantine();

  // Storage-level online scrub: verifies both superblock slots parse and
  // reads every free/unreachable extent (FreeExtents) back from the
  // device, surfacing media errors before a query trips over them. Node
  // pages are NOT checksum-verified here — the pager does not know the
  // page format; core::IntervalIndex::Scrub layers the reachable-page CRC
  // walk on top and merges both into one report. Rate-limited and
  // cancellable per ScrubOptions; safe to run concurrently with readers.
  Result<ScrubReport> Scrub(const ScrubOptions& options = {}) const;

  // Every extent not holding a reachable home page: the durable
  // per-size-class lists (walked on the device), frees pending the next
  // checkpoint, retired journal/spill scrap awaiting re-threading, and live
  // spill extents. Used by the structure checker's page-accounting pass:
  // reachable extents + these must exactly tile the allocated block range.
  // Fails with kCorruption on a cyclic or out-of-range device list.
  Result<std::vector<PageId>> FreeExtents() const;

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    uint8_t size_class = 0;
    int pin_count = 0;
    // Set exactly while the block is in its partition's dirty set.
    bool dirty = false;
    // Position in the partition's lru when pin_count == 0.
    std::list<uint32_t>::iterator lru_pos;
    bool in_lru = false;
  };

  // One buffer-pool shard: its own latch, frame map, LRU list (front =
  // most recent), dirty set, and byte budget. Frames live in the node-based
  // map, so pointers handed out while pinned stay valid across rehashes.
  // The dirty set names every cached frame whose bytes the next checkpoint
  // must journal, so Checkpoint() never scans clean frames.
  struct Partition {
    mutable common::Mutex mu;
    std::unordered_map<uint32_t, Frame> frames GUARDED_BY(mu);
    std::list<uint32_t> lru GUARDED_BY(mu);
    std::unordered_set<uint32_t> dirty GUARDED_BY(mu);
    size_t cached_bytes GUARDED_BY(mu) = 0;
  };

  // Where an evicted dirty page's bytes currently live.
  struct SpillSlot {
    uint32_t block = kInvalidBlock;
    uint8_t size_class = 0;
  };

  // One page image a checkpoint journals: a dirty pooled frame, or a
  // spilled page whose spill extent holds its only current copy.
  struct JournalPage {
    uint32_t home = kInvalidBlock;
    uint8_t size_class = 0;
    uint32_t spill = kInvalidBlock;  // Set only for a spilled page.
  };

  // Decoded superblock slot.
  struct SlotState {
    uint64_t epoch = 0;
    uint32_t next_block = 0;
    uint32_t log_start = 0;
    uint32_t log_blocks = 0;
    // The previous checkpoint's journal run (the other slot's journal).
    // Keeping it recorded — and unrecycled for one extra epoch — means the
    // fallback slot's journal is never overwritten while that slot is still
    // on disk, so even external destruction of the newest slot leaves a
    // fully replayable older checkpoint.
    uint32_t prev_log_start = 0;
    uint32_t prev_log_blocks = 0;
    uint8_t max_size_class = 0;
    std::vector<uint32_t> free_heads;
    std::vector<uint8_t> user_meta;
  };

  friend class PageHandle;

  Pager(std::unique_ptr<BlockDevice> device, const PagerOptions& options);

  // kUnavailable when degraded.
  Status CheckMutable() const;
  void EnterDegraded();

  Status ReadSuperblock();
  Status ParseSlot(const uint8_t* buf, SlotState* out) const;
  // Serializes a slot image for `state` into a base-block-sized buffer.
  std::vector<uint8_t> SerializeSlot(const SlotState& state) const;
  // Validates the journal recorded by `slot` fully in memory, then applies
  // it to the device. Validation failures leave the device untouched (the
  // caller can fall back to the other slot); only apply-time write errors
  // mutate anything. Touches no member state besides the device.
  Status ReplayJournal(const SlotState& slot, std::vector<PageId>* scraps,
                       uint64_t* entries, uint64_t* salvaged);
  // Adopts `slot` as the live state (free lists, epoch, scrap).
  void AdoptSlot(int index, const SlotState& slot,
                 std::vector<PageId> scraps);

  // Greedily splits the block run [start, start + blocks) into extents no
  // larger than the maximum size class.
  std::vector<PageId> ChopRun(uint32_t start, uint32_t blocks) const;

  uint64_t BlockOffset(uint32_t block) const {
    return static_cast<uint64_t>(block) * options_.base_block_size;
  }

  Partition& PartitionFor(uint32_t block) {
    return partitions_[block % num_partitions_];
  }

  // Installs a frame for `block` (must not be cached), evicting unpinned
  // LRU frames of its partition past the per-partition budget. Returns the
  // pinned handle.
  PageHandle InstallFrame(uint32_t block, uint8_t size_class,
                          std::vector<uint8_t> bytes, bool dirty);

  // Evicts unpinned LRU frames until the partition is within its budget.
  // Dirty victims spill; frames that cannot be persisted (degraded
  // mode) are skipped. Caller holds part.mu.
  void EnforceCapacityLocked(Partition& part) REQUIRES(part.mu);
  // Writes `frame`'s bytes to its spill extent (allocating one on first
  // spill). Caller holds part.mu (inexpressible to the compile-time
  // analysis — `part` is not a parameter); takes alloc_mu_ internally,
  // which is the one legal partition-then-alloc nesting.
  Status SpillFrame(uint32_t home, const Frame& frame);
  // Copies `page`'s current bytes into `out` (ExtentBytes(size_class)
  // long): from its frame while cached, else from its spill extent.
  Status CopyJournalPage(const JournalPage& page, uint8_t* out);
  void Unpin(uint32_t block);
  void MarkFrameDirty(uint32_t block);

  std::unique_ptr<BlockDevice> device_;
  PagerOptions options_;
  StorageStats stats_;

  uint32_t num_partitions_ = 1;
  size_t partition_budget_ = 0;  // buffer_pool_bytes / num_partitions_.
  std::unique_ptr<Partition[]> partitions_;

  // Quarantined extents keyed by first block. quarantine_count_ mirrors
  // the map size so the Fetch fast path can skip the lock when empty.
  mutable common::Mutex quarantine_mu_;
  std::atomic<size_t> quarantine_count_{0};
  std::unordered_map<uint32_t, QuarantinedPage> quarantine_
      GUARDED_BY(quarantine_mu_);

  std::atomic<bool> degraded_{false};
  RecoveryReport report_;

  // Allocation state, guarded by alloc_mu_. free_heads_ mirrors the newest
  // durable slot's on-device lists; pending_free_ holds extents freed this
  // epoch (preferred by Allocate, LIFO); run_scrap_ holds retired journal
  // runs and absorbed spill extents (reused only after the device lists);
  // redirects_ maps home blocks of spilled dirty pages to their current
  // spill extents.
  // epoch_, next_block_ and user_meta_ are read by lock-free const
  // accessors whose callers have external quiescence (documented above),
  // so they stay unannotated; the remaining allocator state is
  // GUARDED_BY(alloc_mu_).
  mutable common::Mutex alloc_mu_;
  uint64_t epoch_ = 0;
  int active_slot_ GUARDED_BY(alloc_mu_) = 0;
  uint32_t next_block_ = 2;  // Blocks 0 and 1 are the superblock slots.
  // Journal runs of the newest durable checkpoint and of the one before it.
  // Both are off limits to the allocator: the active run is what Open()
  // replays after a crash, and the fallback run keeps the *other* slot
  // replayable should the newest slot be destroyed. A retired run rejoins
  // the free lists two checkpoints after it was written.
  uint32_t active_log_start_ GUARDED_BY(alloc_mu_) = 0;
  uint32_t active_log_blocks_ GUARDED_BY(alloc_mu_) = 0;
  uint32_t fallback_log_start_ GUARDED_BY(alloc_mu_) = 0;
  uint32_t fallback_log_blocks_ GUARDED_BY(alloc_mu_) = 0;
  std::vector<uint32_t> free_heads_ GUARDED_BY(alloc_mu_);
  std::vector<std::vector<uint32_t>> pending_free_ GUARDED_BY(alloc_mu_);
  std::vector<std::vector<uint32_t>> run_scrap_ GUARDED_BY(alloc_mu_);
  std::unordered_map<uint32_t, SpillSlot> redirects_ GUARDED_BY(alloc_mu_);
  std::vector<uint8_t> user_meta_;

  // Group-commit sequencer (GroupCommit). commit_requests_ numbers every
  // request; durable_requests_ is the highest request number covered by a
  // completed batch. A requester is done once durable_requests_ passes its
  // own number; the first waiter to find no batch in flight becomes the
  // leader. commit_mu_ is never held while the leader runs commit_fn.
  common::Mutex commit_mu_;
  common::CondVar commit_cv_;
  // Requests issued.
  uint64_t commit_seq_ GUARDED_BY(commit_mu_) = 0;
  // Requests covered by finished batches.
  uint64_t durable_seq_ GUARDED_BY(commit_mu_) = 0;
  // A leader is running commit_fn.
  bool committing_ GUARDED_BY(commit_mu_) = false;
  // Thread that issued the newest request, and how many requests the
  // newest finished batch covered: the leader's evidence of peers.
  std::thread::id last_requester_ GUARDED_BY(commit_mu_);
  uint64_t last_batch_size_ GUARDED_BY(commit_mu_) = 0;
  // Result of the newest finished batch.
  Status last_commit_status_ GUARDED_BY(commit_mu_);
};

}  // namespace segidx::storage

#endif  // SEGIDX_STORAGE_PAGER_H_
