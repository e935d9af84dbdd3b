#include "core/interval_index.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "check/lock_order.h"
#include "common/logging.h"
#include "storage/block_device.h"

namespace segidx::core {

namespace {

using check::LockClass;
using check::TrackedMutexLock;

// Facade metadata appended after the tree's metadata in the pager's user
// area: magic "CO", index kind, skeleton-built flag.
constexpr size_t kCoreMetaBytes = 4;

// Optional commit-metadata blob framed between the tree metadata and the
// facade tail: [blob][u16 blob_len LE]['X']['M']. The frame sits directly
// before the facade tail so OpenWithPager can parse backward from the
// validated "CO" magic; files written before the extension simply lack the
// "XM" marker.
constexpr size_t kExtraMetaFrameBytes = 4;

Status AppendCoreMeta(storage::Pager* pager, IndexKind kind, bool built) {
  std::vector<uint8_t> meta = pager->user_meta();
  meta.push_back('C');
  meta.push_back('O');
  meta.push_back(static_cast<uint8_t>(kind));
  meta.push_back(built ? 1 : 0);
  return pager->SetUserMeta(meta.data(), meta.size());
}

Status AppendExtraMeta(storage::Pager* pager,
                       const std::vector<uint8_t>& blob) {
  if (blob.size() > IntervalIndex::CommitMetaCapacity()) {
    return InvalidArgumentError(
        "commit-metadata blob exceeds the user-meta budget (" +
        std::to_string(blob.size()) + " > " +
        std::to_string(IntervalIndex::CommitMetaCapacity()) + " bytes)");
  }
  std::vector<uint8_t> meta = pager->user_meta();
  meta.insert(meta.end(), blob.begin(), blob.end());
  const uint16_t len = static_cast<uint16_t>(blob.size());
  meta.push_back(static_cast<uint8_t>(len & 0xff));
  meta.push_back(static_cast<uint8_t>(len >> 8));
  meta.push_back('X');
  meta.push_back('M');
  return pager->SetUserMeta(meta.data(), meta.size());
}

// Recovers the blob from the bytes before the facade tail; returns an
// empty vector when no frame is present (pre-extension file).
std::vector<uint8_t> ParseExtraMeta(const std::vector<uint8_t>& meta,
                                    size_t core_tail) {
  if (core_tail < kExtraMetaFrameBytes) return {};
  if (meta[core_tail - 2] != 'X' || meta[core_tail - 1] != 'M') return {};
  const size_t len = static_cast<size_t>(meta[core_tail - 4]) |
                     (static_cast<size_t>(meta[core_tail - 3]) << 8);
  if (len > core_tail - kExtraMetaFrameBytes) return {};
  const size_t begin = core_tail - kExtraMetaFrameBytes - len;
  return std::vector<uint8_t>(meta.begin() + static_cast<long>(begin),
                              meta.begin() + static_cast<long>(begin + len));
}

}  // namespace

size_t IntervalIndex::CommitMetaCapacity() {
  // User-meta budget minus the tree metadata, the blob frame, and the
  // facade tail.
  return storage::Pager::kUserMetaCapacity - rtree::RTree::kTreeMetaBytes -
         kExtraMetaFrameBytes - kCoreMetaBytes;
}

void IntervalIndex::SetCommitMetaHook(CommitMetaHook hook) {
  commit_meta_hook_ = std::move(hook);
}

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kRTree:
      return "R-Tree";
    case IndexKind::kSRTree:
      return "SR-Tree";
    case IndexKind::kSkeletonRTree:
      return "Skeleton R-Tree";
    case IndexKind::kSkeletonSRTree:
      return "Skeleton SR-Tree";
  }
  return "unknown";
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::CreateWithDevice(
    IndexKind kind, std::unique_ptr<storage::BlockDevice> device,
    const IndexOptions& options) {
  if (options.tree.enable_spanning) {
    return InvalidArgumentError(
        "IndexOptions::tree.enable_spanning is derived from the index kind; "
        "leave it false");
  }
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::Pager> pager,
      storage::Pager::Create(std::move(device), options.pager));

  std::unique_ptr<rtree::RTree> tree;
  if (IsSegment(kind)) {
    SEGIDX_ASSIGN_OR_RETURN(std::unique_ptr<srtree::SRTree> sr,
                            srtree::SRTree::Create(pager.get(), options.tree));
    tree = std::move(sr);
  } else {
    SEGIDX_ASSIGN_OR_RETURN(tree,
                            rtree::RTree::Create(pager.get(), options.tree));
  }

  std::unique_ptr<skeleton::SkeletonIndex> skel;
  if (IsSkeleton(kind)) {
    skel = std::make_unique<skeleton::SkeletonIndex>(tree.get(),
                                                     options.skeleton);
  }
  return std::unique_ptr<IntervalIndex>(new IntervalIndex(
      kind, std::move(pager), std::move(tree), std::move(skel)));
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::CreateInMemory(
    IndexKind kind, const IndexOptions& options) {
  return CreateWithDevice(
      kind, std::make_unique<storage::MemoryBlockDevice>(), options);
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::CreateOnDisk(
    IndexKind kind, const std::string& path, const IndexOptions& options) {
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::FileBlockDevice> device,
      storage::FileBlockDevice::Open(path, /*create=*/true));
  SEGIDX_RETURN_IF_ERROR(device->Truncate(0));
  return CreateWithDevice(kind, std::move(device), options);
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::OpenFromDisk(
    const std::string& path, const IndexOptions& options) {
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::FileBlockDevice> device,
      storage::FileBlockDevice::Open(path, /*create=*/false));
  return OpenFromDevice(std::move(device), options);
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::OpenFromDevice(
    std::unique_ptr<storage::BlockDevice> device,
    const IndexOptions& options) {
  SEGIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::Pager> pager,
      storage::Pager::Open(std::move(device), options.pager));
  return OpenWithPager(std::move(pager), options);
}

Result<std::unique_ptr<IntervalIndex>> IntervalIndex::OpenWithPager(
    std::unique_ptr<storage::Pager> pager, const IndexOptions& options) {
  const std::vector<uint8_t>& meta = pager->user_meta();
  if (meta.size() < kCoreMetaBytes) {
    return CorruptionError("missing index facade metadata");
  }
  const size_t tail = meta.size() - kCoreMetaBytes;
  if (meta[tail] != 'C' || meta[tail + 1] != 'O') {
    return CorruptionError("bad index facade metadata magic");
  }
  if (meta[tail + 2] > static_cast<uint8_t>(IndexKind::kSkeletonSRTree)) {
    return CorruptionError("unknown index kind in metadata");
  }
  const IndexKind kind = static_cast<IndexKind>(meta[tail + 2]);
  const bool built = meta[tail + 3] != 0;
  if (IsSkeleton(kind) && !built) {
    return CorruptionError(
        "skeleton index persisted before construction completed");
  }

  std::unique_ptr<rtree::RTree> tree;
  if (IsSegment(kind)) {
    SEGIDX_ASSIGN_OR_RETURN(std::unique_ptr<srtree::SRTree> sr,
                            srtree::SRTree::Open(pager.get()));
    tree = std::move(sr);
  } else {
    SEGIDX_ASSIGN_OR_RETURN(tree, rtree::RTree::Open(pager.get()));
  }

  std::unique_ptr<skeleton::SkeletonIndex> skel;
  if (IsSkeleton(kind)) {
    skel = skeleton::SkeletonIndex::Resume(tree.get(), options.skeleton);
  }
  std::vector<uint8_t> extra = ParseExtraMeta(meta, tail);
  auto index = std::unique_ptr<IntervalIndex>(new IntervalIndex(
      kind, std::move(pager), std::move(tree), std::move(skel)));
  index->recovered_commit_meta_ = std::move(extra);
  return index;
}

Status IntervalIndex::Insert(const Rect& rect, TupleId tid) {
  if (skeleton_ != nullptr) {
    // The skeleton's sample buffer is plain memory; serialize mutations on
    // it here. Once built, inserts still flow through skeleton_->Insert
    // (it forwards to the tree), so keep the lock unconditionally.
    TrackedMutexLock lock(&skeleton_mu_, LockClass::kSkeleton);
    return skeleton_->Insert(rect, tid);
  }
  return tree_->Insert(rect, tid);
}

Status IntervalIndex::InsertInterval(const Interval& x, Coord y,
                                     TupleId tid) {
  return Insert(Rect(x, Interval::Point(y)), tid);
}

Status IntervalIndex::Search(const Rect& query,
                             std::vector<rtree::SearchHit>* out,
                             uint64_t* nodes_accessed) {
  if (skeleton_ != nullptr) {
    // A search against a still-buffering skeleton builds the tree as a side
    // effect, producing pages that need a checkpoint; the lock serializes
    // that build against concurrent skeleton mutation.
    TrackedMutexLock lock(&skeleton_mu_, LockClass::kSkeleton);
    return skeleton_->Search(query, out, nodes_accessed);
  }
  return tree_->Search(query, out, nodes_accessed);
}

Status IntervalIndex::Search(const Rect& query,
                             const rtree::SearchOptions& options,
                             std::vector<rtree::SearchHit>* out,
                             rtree::SearchOutcome* outcome) {
  // Building the tree from a buffered skeleton sample is index setup, not
  // query work — run it before the deadline applies.
  SEGIDX_RETURN_IF_ERROR(Finalize());
  return tree_->Search(query, options, out, outcome);
}

Status IntervalIndex::SearchBatch(const std::vector<Rect>& queries,
                                  std::vector<exec::BatchResult>* results,
                                  int num_threads) {
  return SearchBatch(queries, rtree::SearchOptions(), results, num_threads);
}

Status IntervalIndex::SearchBatch(const std::vector<Rect>& queries,
                                  const rtree::SearchOptions& options,
                                  std::vector<exec::BatchResult>* results,
                                  int num_threads) {
  // Workers search the tree directly, so a buffering skeleton must build
  // its tree first (Search would do the same one query at a time).
  SEGIDX_RETURN_IF_ERROR(Finalize());
  const int threads = std::clamp(num_threads, 1, 64);
  if (engine_ == nullptr || engine_->num_threads() != threads) {
    exec::QueryEngineOptions opts;
    opts.num_threads = threads;
    engine_ = std::make_unique<exec::QueryEngine>(tree_.get(), opts);
  }
  return engine_->SearchBatch(queries, options, results);
}

Status IntervalIndex::SearchTuples(const Rect& query,
                                   std::vector<TupleId>* out,
                                   uint64_t* nodes_accessed) {
  std::vector<rtree::SearchHit> hits;
  SEGIDX_RETURN_IF_ERROR(Search(query, &hits, nodes_accessed));
  std::unordered_set<TupleId> seen;
  seen.reserve(hits.size());
  for (const rtree::SearchHit& hit : hits) {
    if (seen.insert(hit.tid).second) out->push_back(hit.tid);
  }
  return Status::OK();
}

Status IntervalIndex::BulkLoad(
    std::vector<std::pair<Rect, TupleId>> records,
    rtree::PackingMethod method) {
  if (skeleton_ != nullptr) {
    return FailedPreconditionError(
        "bulk loading replaces skeleton pre-construction; use a "
        "non-skeleton index kind");
  }
  {
    // Bulk loading rebuilds the tree wholesale outside the latch
    // protocol; run it alone.
    rtree::PhaseGate::Scope gate(&tree_->phase_gate(),
                                 rtree::PhaseGate::Mode::kExclusive);
    SEGIDX_RETURN_IF_ERROR(
        rtree::BulkLoad(tree_.get(), std::move(records), method));
  }
  return Status::OK();
}

Status IntervalIndex::Delete(const Rect& rect, TupleId tid) {
  if (skeleton_ != nullptr && !skeleton_->built()) {
    return FailedPreconditionError(
        "cannot delete while the skeleton sample is buffering");
  }
  return tree_->Delete(rect, tid);
}

Status IntervalIndex::Finalize() {
  if (skeleton_ == nullptr) return Status::OK();
  TrackedMutexLock lock(&skeleton_mu_, LockClass::kSkeleton);
  return skeleton_->Finalize();
}

Status IntervalIndex::Commit() {
  // Buffered sample records live only in memory; build before persisting.
  SEGIDX_RETURN_IF_ERROR(Finalize());
  // The checkpoint itself runs once per group-commit batch, on whichever
  // caller the pager elects leader. It must not overlap tree mutation
  // (Checkpoint snapshots the dirty-frame set), so the leader takes the
  // tree's exclusive phase: batch members have already left the write
  // phase (their mutations completed before they called Commit), and any
  // unrelated writer drains out of the gate first — complete operations
  // only, never a half-applied insert.
  return pager_->GroupCommit([this]() -> Status {
    rtree::PhaseGate::Scope gate(&tree_->phase_gate(),
                                 rtree::PhaseGate::Mode::kExclusive);
    SEGIDX_RETURN_IF_ERROR(tree_->SaveMeta());
    if (commit_meta_hook_ != nullptr) {
      // The hook's blob rides the same checkpoint as the data it
      // describes: a failed checkpoint persists neither.
      SEGIDX_RETURN_IF_ERROR(
          AppendExtraMeta(pager_.get(), commit_meta_hook_()));
    }
    SEGIDX_RETURN_IF_ERROR(AppendCoreMeta(
        pager_.get(), kind_, skeleton_ == nullptr || skeleton_->built()));
    return pager_->Checkpoint();
  });
}

Status IntervalIndex::Flush() { return Commit(); }

Status IntervalIndex::Close() {
  if (closed_) return Status::OK();
  Status status = Status::OK();
  // Commit() funnels through the pager's group-commit sequencer, so this
  // final checkpoint queues behind any batch still in flight: every write
  // acknowledged before Close() began is covered either by that batch's
  // checkpoint or by this one. Nothing acknowledged is lost on a clean
  // shutdown. The pager, not this facade, says whether anything changed:
  // writers that go straight to tree() (exec::WritePool, the server's
  // write dispatcher) change pages without passing through Insert/Delete
  // here. A buffering skeleton holds its records outside the pager.
  if (skeleton_building() || pager_->HasUncheckpointedChanges()) {
    status = Flush();
  }
  closed_ = true;
  return status;
}

IntervalIndex::~IntervalIndex() {
  // Best effort: a failed final checkpoint leaves the previous durable
  // checkpoint intact, so ignoring the status here never corrupts the file
  // — it only loses the unflushed tail. Call Close() to observe failures.
  const Status status = Close();
  if (!status.ok()) {
    std::fprintf(stderr, "segidx: final checkpoint failed in ~IntervalIndex: %s\n",
                 status.ToString().c_str());
  }
}

Status IntervalIndex::CheckInvariants() {
  // The tree's own quick check first: it exercises the non-public
  // entries-seen accounting the walker below does not repeat.
  SEGIDX_RETURN_IF_ERROR(tree_->CheckInvariants());
  SEGIDX_ASSIGN_OR_RETURN(check::CheckReport report, CheckStructure());
  return report.ToStatus();
}

Result<check::CheckReport> IntervalIndex::CheckStructure(
    const check::CheckOptions& options) {
  // The checker's walk assumes a frozen tree and page accounting; run it
  // alone. (Safe to call while writers are active — they just wait.)
  rtree::PhaseGate::Scope gate(&tree_->phase_gate(),
                               rtree::PhaseGate::Mode::kExclusive);
  check::StructureChecker checker(tree_.get(), options);
  return checker.Check();
}

Result<storage::ScrubReport> IntervalIndex::Scrub(
    const storage::ScrubOptions& options) {
  // Scrub shares the read phase: it coexists with searches but excludes
  // writers, so the reachability walk never chases a mid-split pointer.
  rtree::PhaseGate::Scope gate(&tree_->phase_gate(),
                               rtree::PhaseGate::Mode::kRead);
  using Clock = std::chrono::steady_clock;
  storage::ScrubReport report;
  const auto start = Clock::now();
  uint64_t paced = 0;
  auto pace = [&] {
    if (options.max_extents_per_second == 0) return;
    const auto target =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(paced) /
                        static_cast<double>(options.max_extents_per_second)));
    const auto now = Clock::now();
    if (target > now) std::this_thread::sleep_for(target - now);
    ++paced;
  };
  auto cancelled = [&] {
    return options.cancel_token != nullptr &&
           options.cancel_token->load(std::memory_order_relaxed);
  };
  auto defect = [&](storage::PageId id, std::string error, bool structural) {
    if (structural) ++report.structure_errors;
    report.defects.push_back({id, std::move(error)});
  };

  // Reachable pass: walk the tree from the root, CRC-verifying every node
  // page (ReadNode checks the page checksum during deserialization) plus a
  // light structure pass — level bookkeeping and entry sanity. Deep
  // invariants (containment, spanning quotas) belong to CheckStructure().
  struct Item {
    storage::PageId id;
    int level;
  };
  std::vector<Item> stack;
  stack.push_back({tree_->root(), tree_->height() - 1});
  uint64_t ignored_accesses = 0;
  while (!stack.empty()) {
    if (cancelled()) {
      report.completed = false;
      return report;
    }
    pace();
    const Item item = stack.back();
    stack.pop_back();
    ++report.extents_scanned;
    ++report.reachable_extents;
    Result<rtree::Node> node_or =
        tree_->ReadNode(item.id, &ignored_accesses);
    if (!node_or.ok()) {
      defect(item.id, node_or.status().ToString(), /*structural=*/false);
      if (options.quarantine_damaged &&
          node_or.status().code() == StatusCode::kCorruption) {
        pager_->QuarantinePage(item.id, node_or.status().message());
      }
      continue;
    }
    const rtree::Node& node = *node_or;
    report.bytes_scanned += static_cast<uint64_t>(pager_->base_block_size())
                            << item.id.size_class;
    if (static_cast<int>(node.level) != item.level) {
      defect(item.id,
             "level mismatch: node says " + std::to_string(node.level) +
                 ", walk expects " + std::to_string(item.level),
             /*structural=*/true);
    }
    if (node.is_leaf()) {
      for (const rtree::LeafEntry& e : node.records) {
        if (!e.rect.valid()) {
          defect(item.id, "invalid leaf record rectangle",
                 /*structural=*/true);
          break;
        }
      }
      continue;
    }
    for (const rtree::SpanningEntry& s : node.spanning) {
      if (!s.rect.valid()) {
        defect(item.id, "invalid spanning record rectangle",
               /*structural=*/true);
        break;
      }
    }
    for (const rtree::BranchEntry& b : node.branches) {
      if (!b.child.valid() || !b.rect.valid()) {
        defect(item.id, "invalid branch (child page id or rectangle)",
               /*structural=*/true);
        continue;
      }
      stack.push_back({b.child, static_cast<int>(node.level) - 1});
    }
  }

  // Media pass: superblock slots plus free/unreachable extents. Together
  // with the reachable pass above, this tiles every allocated byte.
  SEGIDX_ASSIGN_OR_RETURN(storage::ScrubReport media, pager_->Scrub(options));
  report.extents_scanned += media.extents_scanned;
  report.free_extents += media.free_extents;
  report.bytes_scanned += media.bytes_scanned;
  report.structure_errors += media.structure_errors;
  report.completed = report.completed && media.completed;
  for (storage::ScrubDefect& d : media.defects) {
    report.defects.push_back(std::move(d));
  }
  return report;
}

uint64_t IntervalIndex::size() const {
  if (skeleton_ != nullptr && !skeleton_->built()) {
    return skeleton_->inserted();
  }
  return tree_->size();
}

uint64_t IntervalIndex::index_bytes() const {
  return pager_->allocated_blocks() *
         static_cast<uint64_t>(pager_->base_block_size());
}

void IntervalIndex::ResetStats() {
  tree_->ResetStats();
  pager_->ResetStats();
}

}  // namespace segidx::core
