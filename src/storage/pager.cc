#include "storage/pager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "storage/coding.h"

namespace segidx::storage {

namespace {

using check::LockClass;
using check::TrackedMutexLock;

constexpr uint64_t kMagicV1 = 0x5345474944583031ULL;  // "SEGIDX01", refused
constexpr uint64_t kMagicV2 = 0x5345474944583032ULL;  // "SEGIDX02"
constexpr uint32_t kFormatVersionV2 = 2;

// Format v2 superblock slot layout (block 0 = slot 0, block 1 = slot 1):
//   0   magic             u64
//   8   version           u32  (= 2)
//   12  base_block_size   u32
//   16  max_size_class    u8
//   17  pad               7 bytes
//   24  epoch             u64  (monotonically increasing checkpoint count)
//   32  next_block        u32  (allocation high-water mark)
//   36  log_start         u32  (first block of this checkpoint's journal)
//   40  log_blocks        u32  (journal length; 0 = empty checkpoint)
//   44  prev_log_start    u32  (previous checkpoint's journal run)
//   48  prev_log_blocks   u32
//   52  free list heads   (max_size_class + 1) * u32
//   ..  user_meta_len     u16
//   ..  user_meta         kUserMetaCapacity bytes
//   bbs-4  crc32c         u32  over bytes [0, bbs-4)
// prev_log_* records the other slot's journal run. That run stays out of
// the allocator for one extra epoch so a checkpoint never overwrites the
// journal its fallback slot still needs for replay.
constexpr size_t kSuperV2Fixed = 52;

// Checkpoint journal layout (log_blocks contiguous blocks at log_start):
//   0   magic             u64
//   8   epoch             u64  (must match the slot that references it)
//   16  entry_count       u32
//   20  scrap_count       u32
//   24  payload_bytes     u64
//   32  crc32c            u32  over the payload
//   36  pad               u32
//   40  payload:
//         entry_count × { home_block u32, length u32, bytes[length] }
//         scrap_count × { block u32, size_class u32 }
// Entries are writes to re-apply at their home offsets (full page images
// and 4-byte free-list links); scraps are spill extents the checkpoint
// absorbed, which the recovered allocator must keep accounting for.
constexpr uint64_t kJournalMagic = 0x5345474944584a4cULL;  // "SEGIDXJL"
constexpr size_t kJournalHeader = 40;

// Relaxed counter bump on a plain stats field; atomic_ref keeps the struct
// copyable for callers while making concurrent Fetch paths race-free.
inline void BumpStat(uint64_t& counter, uint64_t delta = 1) {
  std::atomic_ref<uint64_t>(counter).fetch_add(delta,
                                               std::memory_order_relaxed);
}

size_t SlotBytesNeeded(uint8_t max_size_class) {
  return kSuperV2Fixed + (static_cast<size_t>(max_size_class) + 1) * 4 + 2 +
         Pager::kUserMetaCapacity + 4;
}

}  // namespace

std::string ScrubReport::ToString() const {
  std::string out = "scrub: " + std::to_string(extents_scanned) +
                    " extents (" + std::to_string(reachable_extents) +
                    " reachable, " + std::to_string(free_extents) +
                    " free), " + std::to_string(bytes_scanned) + " bytes";
  if (!completed) out += " [cancelled]";
  out += defects.empty()
             ? "; clean\n"
             : "; " + std::to_string(defects.size()) + " defect(s)\n";
  for (const ScrubDefect& d : defects) {
    out += "  ";
    if (d.page.valid()) {
      out += "page block=" + std::to_string(d.page.block) +
             " size_class=" + std::to_string(d.page.size_class) + ": ";
    }
    out += d.error + "\n";
  }
  return out;
}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pager_(other.pager_),
      id_(other.id_),
      data_(other.data_),
      size_(other.size_) {
  other.pager_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pager_ = other.pager_;
    id_ = other.id_;
    data_ = other.data_;
    size_ = other.size_;
    other.pager_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  SEGIDX_DCHECK(valid());
  pager_->MarkFrameDirty(id_.block);
}

void PageHandle::Release() {
  if (pager_ != nullptr) {
    pager_->Unpin(id_.block);
    pager_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }
}

Pager::Pager(std::unique_ptr<BlockDevice> device, const PagerOptions& options)
    : device_(std::move(device)), options_(options) {
  num_partitions_ = std::clamp<uint32_t>(options_.lru_partitions, 1, 256);
  partition_budget_ =
      std::max<size_t>(1, options_.buffer_pool_bytes / num_partitions_);
  partitions_ = std::make_unique<Partition[]>(num_partitions_);
}

Result<std::unique_ptr<Pager>> Pager::Create(
    std::unique_ptr<BlockDevice> device, const PagerOptions& options) {
  if (options.base_block_size < 256) {
    return InvalidArgumentError("base_block_size must be >= 256");
  }
  if (SlotBytesNeeded(options.max_size_class) > options.base_block_size) {
    return InvalidArgumentError("superblock does not fit in one block");
  }
  std::unique_ptr<Pager> pager(new Pager(std::move(device), options));
  const uint8_t max_sc = options.max_size_class;
  SlotState slot;
  {
    // Single-threaded (the pager is not published yet); locked so the
    // compile-time analysis sees the guarded allocator fields initialized
    // under their capability.
    common::MutexLock lock(&pager->alloc_mu_);
    pager->free_heads_.assign(max_sc + 1, kInvalidBlock);
    pager->pending_free_.assign(max_sc + 1, {});
    pager->run_scrap_.assign(max_sc + 1, {});
    pager->epoch_ = 1;
    pager->active_slot_ = 0;
    pager->next_block_ = 2;
    slot.free_heads = pager->free_heads_;
  }
  slot.epoch = 1;
  slot.next_block = 2;
  slot.max_size_class = max_sc;
  const std::vector<uint8_t> buf = pager->SerializeSlot(slot);
  SEGIDX_RETURN_IF_ERROR(pager->device_->Write(0, buf.data(), buf.size()));
  // Zero the second slot so stale bytes from a recycled device can never
  // parse as a valid checkpoint.
  const std::vector<uint8_t> zero(options.base_block_size, 0);
  SEGIDX_RETURN_IF_ERROR(
      pager->device_->Write(options.base_block_size, zero.data(),
                            zero.size()));

  pager->report_.format_version = kFormatVersionV2;
  pager->report_.active_slot = 0;
  pager->report_.epoch = 1;
  return pager;
}

Result<std::unique_ptr<Pager>> Pager::Open(
    std::unique_ptr<BlockDevice> device, const PagerOptions& options) {
  std::unique_ptr<Pager> pager(new Pager(std::move(device), options));
  SEGIDX_RETURN_IF_ERROR(pager->ReadSuperblock());
  return pager;
}

// Durability is explicit: only Checkpoint() persists state, so dropping a
// pager writes nothing (a best-effort flush here would overwrite blocks the
// durable checkpoint still references).
Pager::~Pager() = default;

Status Pager::CheckMutable() const {
  if (degraded()) {
    return UnavailableError(
        "pager is in read-only degraded mode after a hard I/O error");
  }
  return Status::OK();
}

void Pager::EnterDegraded() {
  degraded_.store(true, std::memory_order_relaxed);
  std::atomic_ref<uint64_t>(stats_.degraded)
      .store(1, std::memory_order_relaxed);
}

void Pager::ResetStats() {
  stats_ = StorageStats();
  stats_.degraded = degraded() ? 1 : 0;
  stats_.pages_quarantined =
      quarantine_count_.load(std::memory_order_relaxed);
}

std::vector<uint8_t> Pager::SerializeSlot(const SlotState& state) const {
  const uint32_t bbs = options_.base_block_size;
  std::vector<uint8_t> buf(bbs, 0);
  EncodeU64(buf.data(), kMagicV2);
  EncodeU32(buf.data() + 8, kFormatVersionV2);
  EncodeU32(buf.data() + 12, bbs);
  buf[16] = state.max_size_class;
  EncodeU64(buf.data() + 24, state.epoch);
  EncodeU32(buf.data() + 32, state.next_block);
  EncodeU32(buf.data() + 36, state.log_start);
  EncodeU32(buf.data() + 40, state.log_blocks);
  EncodeU32(buf.data() + 44, state.prev_log_start);
  EncodeU32(buf.data() + 48, state.prev_log_blocks);
  size_t off = kSuperV2Fixed;
  for (uint32_t head : state.free_heads) {
    EncodeU32(buf.data() + off, head);
    off += 4;
  }
  SEGIDX_CHECK_LE(state.user_meta.size(), kUserMetaCapacity);
  EncodeU16(buf.data() + off, static_cast<uint16_t>(state.user_meta.size()));
  off += 2;
  if (!state.user_meta.empty()) {  // .data() may be null when empty.
    std::memcpy(buf.data() + off, state.user_meta.data(),
                state.user_meta.size());
  }
  EncodeU32(buf.data() + bbs - 4, Crc32c(buf.data(), bbs - 4));
  return buf;
}

Status Pager::ParseSlot(const uint8_t* buf, SlotState* out) const {
  const uint32_t bbs = options_.base_block_size;
  if (DecodeU64(buf) != kMagicV2) {
    return CorruptionError("bad magic; not a segment-index file");
  }
  if (DecodeU32(buf + 8) != kFormatVersionV2) {
    return CorruptionError("unsupported format version");
  }
  if (DecodeU32(buf + 12) != bbs) {
    return InvalidArgumentError(
        "base_block_size mismatch between file and options");
  }
  const uint8_t max_sc = buf[16];
  if (SlotBytesNeeded(max_sc) > bbs) {
    return CorruptionError("superblock slot max_size_class out of range");
  }
  if (DecodeU32(buf + bbs - 4) != Crc32c(buf, bbs - 4)) {
    return CorruptionError("superblock slot checksum mismatch");
  }
  out->epoch = DecodeU64(buf + 24);
  out->next_block = DecodeU32(buf + 32);
  out->log_start = DecodeU32(buf + 36);
  out->log_blocks = DecodeU32(buf + 40);
  out->prev_log_start = DecodeU32(buf + 44);
  out->prev_log_blocks = DecodeU32(buf + 48);
  out->max_size_class = max_sc;
  if (out->next_block < 2) {
    return CorruptionError("superblock high-water mark out of range");
  }
  if (static_cast<uint64_t>(out->next_block) * bbs > device_->size()) {
    return CorruptionError("superblock high-water mark past end of device");
  }
  if (out->log_blocks > 0 &&
      (out->log_start < 2 ||
       static_cast<uint64_t>(out->log_start) + out->log_blocks >
           out->next_block)) {
    return CorruptionError("checkpoint journal range out of bounds");
  }
  if (out->prev_log_blocks > 0 &&
      (out->prev_log_start < 2 ||
       static_cast<uint64_t>(out->prev_log_start) + out->prev_log_blocks >
           out->next_block)) {
    return CorruptionError("previous checkpoint journal range out of bounds");
  }
  size_t off = kSuperV2Fixed;
  out->free_heads.assign(max_sc + 1, kInvalidBlock);
  for (uint32_t& head : out->free_heads) {
    head = DecodeU32(buf + off);
    off += 4;
    if (head != kInvalidBlock && (head < 2 || head >= out->next_block)) {
      return CorruptionError("superblock free-list head out of range");
    }
  }
  const uint16_t meta_len = DecodeU16(buf + off);
  off += 2;
  if (meta_len > kUserMetaCapacity) {
    return CorruptionError("user metadata length out of range");
  }
  out->user_meta.assign(buf + off, buf + off + meta_len);
  return Status::OK();
}

Status Pager::ReplayJournal(const SlotState& slot, std::vector<PageId>* scraps,
                            uint64_t* entries, uint64_t* salvaged) {
  *entries = 0;
  *salvaged = 0;
  if (slot.log_blocks == 0) return Status::OK();
  const uint32_t bbs = options_.base_block_size;
  const size_t run_bytes = static_cast<size_t>(slot.log_blocks) * bbs;
  if (run_bytes < kJournalHeader) {
    return CorruptionError("checkpoint journal run too small");
  }
  std::vector<uint8_t> run(run_bytes);
  SEGIDX_RETURN_IF_ERROR(
      device_->Read(BlockOffset(slot.log_start), run_bytes, run.data()));
  if (DecodeU64(run.data()) != kJournalMagic) {
    return CorruptionError("checkpoint journal has bad magic");
  }
  if (DecodeU64(run.data() + 8) != slot.epoch) {
    return CorruptionError("checkpoint journal epoch mismatch");
  }
  const uint32_t entry_count = DecodeU32(run.data() + 16);
  const uint32_t scrap_count = DecodeU32(run.data() + 20);
  const uint64_t payload = DecodeU64(run.data() + 24);
  if (payload > run_bytes - kJournalHeader) {
    return CorruptionError("checkpoint journal payload overruns its run");
  }
  if (DecodeU32(run.data() + 32) !=
      Crc32c(run.data() + kJournalHeader, payload)) {
    return CorruptionError("checkpoint journal checksum mismatch");
  }

  // Parse and bounds-check everything before writing a single byte, so a
  // damaged journal never half-applies.
  struct Apply {
    uint32_t block;
    const uint8_t* data;
    uint32_t length;
  };
  std::vector<Apply> applies;
  applies.reserve(entry_count);
  const uint8_t* p = run.data() + kJournalHeader;
  const uint8_t* const end = p + payload;
  for (uint32_t i = 0; i < entry_count; ++i) {
    if (end - p < 8) {
      return CorruptionError("checkpoint journal entry truncated");
    }
    const uint32_t block = DecodeU32(p);
    const uint32_t length = DecodeU32(p + 4);
    p += 8;
    if (length == 0 || length > static_cast<uint64_t>(end - p)) {
      return CorruptionError("checkpoint journal entry truncated");
    }
    if (block < 2 || BlockOffset(block) + length >
                         static_cast<uint64_t>(slot.next_block) * bbs) {
      return CorruptionError(
          "checkpoint journal entry targets an out-of-range block");
    }
    applies.push_back({block, p, length});
    p += length;
  }
  for (uint32_t i = 0; i < scrap_count; ++i) {
    if (end - p < 8) {
      return CorruptionError("checkpoint journal scrap list truncated");
    }
    const uint32_t block = DecodeU32(p);
    const uint32_t sc = DecodeU32(p + 4);
    p += 8;
    if (sc > slot.max_size_class || block < 2 ||
        static_cast<uint64_t>(block) + (1u << sc) > slot.next_block) {
      return CorruptionError("checkpoint journal scrap extent out of range");
    }
    PageId id;
    id.block = block;
    id.size_class = static_cast<uint8_t>(sc);
    scraps->push_back(id);
  }

  for (const Apply& a : applies) {
    SEGIDX_RETURN_IF_ERROR(
        device_->Write(BlockOffset(a.block), a.data, a.length));
    if (a.length > 4) ++*salvaged;
  }
  *entries = entry_count;
  return Status::OK();
}

void Pager::AdoptSlot(int index, const SlotState& slot,
                      std::vector<PageId> scraps) {
  // Runs during Open() before the pager is shared; locked for the
  // compile-time analysis, same as in Create().
  common::MutexLock lock(&alloc_mu_);
  options_.max_size_class = slot.max_size_class;
  epoch_ = slot.epoch;
  active_slot_ = index;
  next_block_ = slot.next_block;
  free_heads_ = slot.free_heads;
  user_meta_ = slot.user_meta;
  pending_free_.assign(slot.max_size_class + 1, {});
  run_scrap_.assign(slot.max_size_class + 1, {});
  // The winning checkpoint's journal (and the fallback slot's) stay pinned
  // until later checkpoints retire them; only absorbed spill extents are
  // immediately reusable scrap.
  active_log_start_ = slot.log_start;
  active_log_blocks_ = slot.log_blocks;
  fallback_log_start_ = slot.prev_log_start;
  fallback_log_blocks_ = slot.prev_log_blocks;
  for (const PageId& id : scraps) {
    run_scrap_[id.size_class].push_back(id.block);
  }
  report_.format_version = kFormatVersionV2;
  report_.active_slot = index;
  report_.epoch = slot.epoch;
}

Status Pager::ReadSuperblock() {
  const uint32_t bbs = options_.base_block_size;
  if (device_->size() < bbs) {
    return CorruptionError("device too small for superblock");
  }
  std::vector<uint8_t> block0(bbs);
  SEGIDX_RETURN_IF_ERROR(device_->Read(0, bbs, block0.data()));
  if (DecodeU64(block0.data()) == kMagicV1) {
    return FailedPreconditionError(
        "format v1 is no longer supported; recreate the index from its "
        "source data");
  }

  SlotState slots[2];
  Status errs[2] = {Status::OK(), Status::OK()};
  errs[0] = ParseSlot(block0.data(), &slots[0]);
  if (device_->size() >= 2ull * bbs) {
    std::vector<uint8_t> block1(bbs);
    errs[1] = device_->Read(bbs, bbs, block1.data());
    if (errs[1].ok()) errs[1] = ParseSlot(block1.data(), &slots[1]);
  } else {
    errs[1] = CorruptionError("device too small for second superblock slot");
  }

  // Try candidates newest-epoch first. A slot whose journal fails
  // validation is as unusable as a torn slot: fall back across it.
  int order[2] = {0, 1};
  if (errs[1].ok() && (!errs[0].ok() || slots[1].epoch > slots[0].epoch)) {
    order[0] = 1;
    order[1] = 0;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int idx = order[attempt];
    if (!errs[idx].ok()) continue;
    std::vector<PageId> scraps;
    uint64_t applied = 0;
    uint64_t salvaged = 0;
    const Status replay =
        ReplayJournal(slots[idx], &scraps, &applied, &salvaged);
    if (replay.code() == StatusCode::kCorruption) {
      errs[idx] = replay;
      continue;
    }
    SEGIDX_RETURN_IF_ERROR(replay);  // Hard I/O error: do not mask it.
    AdoptSlot(idx, slots[idx], std::move(scraps));
    report_.journal_replayed = applied > 0;
    report_.journal_entries = applied;
    report_.pages_salvaged = salvaged;
    report_.fell_back = !errs[idx ^ 1].ok();
    report_.slot_error[0] = errs[0].ok() ? "" : errs[0].message();
    report_.slot_error[1] = errs[1].ok() ? "" : errs[1].message();
    return Status::OK();
  }

  // Neither slot is usable. Prefer the configuration error (block-size
  // mismatch) over generic corruption so callers get an actionable message.
  for (const Status& err : errs) {
    if (err.code() == StatusCode::kInvalidArgument) return err;
  }
  return CorruptionError("no usable superblock slot (slot 0: " +
                         errs[0].message() + "; slot 1: " + errs[1].message() +
                         ")");
}

std::vector<PageId> Pager::ChopRun(uint32_t start, uint32_t blocks) const {
  std::vector<PageId> out;
  uint32_t cur = start;
  uint32_t left = blocks;
  while (left > 0) {
    uint8_t sc = 0;
    while (sc < options_.max_size_class && (2u << sc) <= left) ++sc;
    PageId id;
    id.block = cur;
    id.size_class = sc;
    out.push_back(id);
    cur += 1u << sc;
    left -= 1u << sc;
  }
  return out;
}

PageHandle Pager::InstallFrame(uint32_t block, uint8_t size_class,
                               std::vector<uint8_t> bytes, bool dirty) {
  Partition& part = PartitionFor(block);
  TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
  Frame& frame = part.frames[block];
  SEGIDX_CHECK_EQ(frame.pin_count, 0);
  SEGIDX_CHECK(!frame.in_lru);
  frame.bytes = std::move(bytes);
  frame.size_class = size_class;
  frame.dirty = dirty;
  if (dirty) part.dirty.insert(block);
  frame.pin_count = 1;
  frame.in_lru = false;
  part.cached_bytes += frame.bytes.size();
  EnforceCapacityLocked(part);
  PageId id;
  id.block = block;
  id.size_class = size_class;
  return PageHandle(this, id, frame.bytes.data(), frame.bytes.size());
}

Result<PageHandle> Pager::Allocate(uint8_t size_class) {
  if (size_class > options_.max_size_class) {
    return InvalidArgumentError("size class exceeds maximum");
  }
  SEGIDX_RETURN_IF_ERROR(CheckMutable());
  uint32_t block;
  {
    TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
    if (!pending_free_[size_class].empty()) {
      // Extents freed this epoch are reused first, most recent first.
      block = pending_free_[size_class].back();
      pending_free_[size_class].pop_back();
    } else if (free_heads_[size_class] != kInvalidBlock) {
      // Pop the durable free list: the first 4 bytes of a free extent hold
      // the next free extent's first block.
      block = free_heads_[size_class];
      uint8_t link[4];
      SEGIDX_RETURN_IF_ERROR(device_->Read(BlockOffset(block), 4, link));
      free_heads_[size_class] = DecodeU32(link);
    } else if (!run_scrap_[size_class].empty()) {
      block = run_scrap_[size_class].back();
      run_scrap_[size_class].pop_back();
    } else {
      block = next_block_;
      next_block_ += 1u << size_class;
    }
  }
  BumpStat(stats_.pages_allocated);
  return InstallFrame(block, size_class,
                      std::vector<uint8_t>(ExtentBytes(size_class), 0),
                      /*dirty=*/true);
}

Result<PageHandle> Pager::Fetch(PageId id) {
  if (!id.valid() || id.size_class > options_.max_size_class) {
    return InvalidArgumentError("invalid page id");
  }
  BumpStat(stats_.logical_reads);
  // Quarantined pages fail fast without touching the device or the pool.
  // The relaxed count check keeps the common (empty-quarantine) path free
  // of an extra lock.
  if (quarantine_count_.load(std::memory_order_acquire) != 0) {
    TrackedMutexLock qlock(&quarantine_mu_, LockClass::kPagerQuarantine);
    auto qit = quarantine_.find(id.block);
    if (qit != quarantine_.end()) {
      BumpStat(stats_.quarantine_hits);
      return CorruptionError("block " + std::to_string(id.block) +
                             " is quarantined: " + qit->second.reason);
    }
  }
  Partition& part = PartitionFor(id.block);
  {
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    auto it = part.frames.find(id.block);
    if (it != part.frames.end()) {
      BumpStat(stats_.cache_hits);
      Frame& frame = it->second;
      SEGIDX_CHECK_EQ(frame.size_class, id.size_class);
      if (frame.in_lru) {
        part.lru.erase(frame.lru_pos);
        frame.in_lru = false;
      }
      ++frame.pin_count;
      return PageHandle(this, id, frame.bytes.data(), frame.bytes.size());
    }

    // Miss: read the extent from the device while holding the partition
    // latch, so a second reader of the same block waits here and then takes
    // the hit path instead of double-reading. An evicted dirty page's
    // current bytes live on its spill extent, not at home.
    BumpStat(stats_.physical_reads);
    uint32_t src_block = id.block;
    {
      TrackedMutexLock alloc_lock(&alloc_mu_, LockClass::kPagerAlloc);
      auto rit = redirects_.find(id.block);
      if (rit != redirects_.end()) src_block = rit->second.block;
    }
    const size_t n = ExtentBytes(id.size_class);
    std::vector<uint8_t> bytes(n);
    SEGIDX_RETURN_IF_ERROR(
        device_->Read(BlockOffset(src_block), n, bytes.data()));
    Frame& frame = part.frames[id.block];
    frame.bytes = std::move(bytes);
    frame.size_class = id.size_class;
    frame.dirty = false;
    frame.pin_count = 1;
    frame.in_lru = false;
    part.cached_bytes += frame.bytes.size();
    EnforceCapacityLocked(part);
    return PageHandle(this, id, frame.bytes.data(), frame.bytes.size());
  }
}

Status Pager::Free(PageId id) {
  if (!id.valid() || id.size_class > options_.max_size_class) {
    return InvalidArgumentError("invalid page id");
  }
  SEGIDX_RETURN_IF_ERROR(CheckMutable());
  {
    Partition& part = PartitionFor(id.block);
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    auto it = part.frames.find(id.block);
    if (it != part.frames.end()) {
      Frame& frame = it->second;
      if (frame.pin_count != 0) {
        return FailedPreconditionError("cannot free a pinned page");
      }
      if (frame.in_lru) part.lru.erase(frame.lru_pos);
      if (frame.dirty) part.dirty.erase(id.block);
      part.cached_bytes -= frame.bytes.size();
      part.frames.erase(it);
    }
  }
  // Deferred: the extent joins the durable free list at the next
  // checkpoint. Writing its link now would clobber a block the previous
  // checkpoint may still reference.
  TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
  auto rit = redirects_.find(id.block);
  if (rit != redirects_.end()) {
    run_scrap_[rit->second.size_class].push_back(rit->second.block);
    redirects_.erase(rit);
  }
  pending_free_[id.size_class].push_back(id.block);
  BumpStat(stats_.pages_freed);
  // A freed extent no longer holds the damaged page; lift its quarantine
  // so the recycled extent is fetchable again.
  if (quarantine_count_.load(std::memory_order_relaxed) != 0) {
    TrackedMutexLock qlock(&quarantine_mu_, LockClass::kPagerQuarantine);
    if (quarantine_.erase(id.block) != 0) {
      quarantine_count_.store(quarantine_.size(),
                              std::memory_order_release);
    }
  }
  return Status::OK();
}

bool Pager::QuarantinePage(PageId id, const std::string& reason) {
  TrackedMutexLock lock(&quarantine_mu_, LockClass::kPagerQuarantine);
  if (quarantine_.count(id.block) != 0) return true;
  if (quarantine_.size() >= kMaxQuarantinedPages) return false;
  quarantine_.emplace(id.block, QuarantinedPage{id, reason});
  quarantine_count_.store(quarantine_.size(), std::memory_order_release);
  BumpStat(stats_.pages_quarantined);
  return true;
}

bool Pager::IsQuarantined(uint32_t block) const {
  if (quarantine_count_.load(std::memory_order_acquire) == 0) return false;
  TrackedMutexLock lock(&quarantine_mu_, LockClass::kPagerQuarantine);
  return quarantine_.count(block) != 0;
}

std::vector<QuarantinedPage> Pager::QuarantinedPages() const {
  TrackedMutexLock lock(&quarantine_mu_, LockClass::kPagerQuarantine);
  std::vector<QuarantinedPage> out;
  out.reserve(quarantine_.size());
  for (const auto& [block, entry] : quarantine_) out.push_back(entry);
  std::sort(out.begin(), out.end(),
            [](const QuarantinedPage& a, const QuarantinedPage& b) {
              return a.page.block < b.page.block;
            });
  return out;
}

void Pager::ClearQuarantine() {
  TrackedMutexLock lock(&quarantine_mu_, LockClass::kPagerQuarantine);
  quarantine_.clear();
  quarantine_count_.store(0, std::memory_order_release);
}

Result<ScrubReport> Pager::Scrub(const ScrubOptions& options) const {
  using Clock = std::chrono::steady_clock;
  ScrubReport report;
  const auto start = Clock::now();
  uint64_t paced = 0;
  // Hold the scan to max_extents_per_second by sleeping up to the time the
  // current extent "should" start at the configured pace.
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

  // Superblock slots: both must parse.
  std::vector<uint8_t> slot_buf(options_.base_block_size);
  for (int slot = 0; slot < 2; ++slot) {
    Status st = device_->Read(
        static_cast<uint64_t>(slot) * options_.base_block_size,
        slot_buf.size(), slot_buf.data());
    if (st.ok()) {
      SlotState state;
      st = ParseSlot(slot_buf.data(), &state);
    }
    report.bytes_scanned += slot_buf.size();
    if (!st.ok()) {
      ++report.structure_errors;
      report.defects.push_back(
          {PageId{}, "superblock slot " + std::to_string(slot) + ": " +
                         st.ToString()});
    }
  }

  // Free and otherwise-unreachable extents: a readability pass. Node-page
  // CRC verification for reachable extents happens in the tree-walking
  // scrub layered on top (core::IntervalIndex::Scrub).
  SEGIDX_ASSIGN_OR_RETURN(std::vector<PageId> free_extents, FreeExtents());
  std::vector<uint8_t> buf;
  for (const PageId& id : free_extents) {
    if (cancelled()) {
      report.completed = false;
      return report;
    }
    pace();
    ++report.extents_scanned;
    ++report.free_extents;
    const size_t n = ExtentBytes(id.size_class);
    buf.resize(n);
    const Status st = device_->Read(BlockOffset(id.block), n, buf.data());
    if (!st.ok()) {
      report.defects.push_back(
          {id, "unreadable free extent: " + st.ToString()});
    } else {
      report.bytes_scanned += n;
    }
  }
  return report;
}

Status Pager::Checkpoint() {
  SEGIDX_RETURN_IF_ERROR(CheckMutable());
  const uint32_t bbs = options_.base_block_size;

  // Phase 1: list the dirty pooled pages from each partition's dirty set,
  // so the work follows what changed rather than the pool size. No writer
  // runs concurrently (single-writer contract), so the list stays complete
  // for the rest of the checkpoint; readers may still evict these frames,
  // but a spill carries the same bytes (CopyJournalPage reads it there).
  std::vector<JournalPage> pages;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    Partition& part = partitions_[p];
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    for (uint32_t block : part.dirty) {
      auto it = part.frames.find(block);
      SEGIDX_CHECK(it != part.frames.end());
      pages.push_back({block, it->second.size_class});
    }
  }
  const auto by_home = [](const JournalPage& a, const JournalPage& b) {
    return a.home < b.home;
  };
  std::sort(pages.begin(), pages.end(), by_home);
  const size_t dirty_count = pages.size();

  // Phase 2 (alloc latch): add spilled pages, thread this epoch's frees
  // into the new free lists, and reserve the journal run at the top of the
  // allocated range. Any spill racing in after this point lands above
  // `slot.next_block` and is invisible to the durable state.
  std::vector<std::pair<uint32_t, uint32_t>> links;  // block -> next free.
  std::vector<PageId> scraps;
  std::unordered_set<uint32_t> scrapped_blocks;
  SlotState slot;
  int slot_index;
  {
    TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
    for (const auto& [home, spill] : redirects_) {
      if (!std::binary_search(pages.begin(), pages.begin() + dirty_count,
                              JournalPage{home}, by_home)) {
        // The spill extent holds the only current copy; journal it home.
        pages.push_back({home, spill.size_class, spill.block});
      }
      scraps.push_back({spill.block, spill.size_class});
      scrapped_blocks.insert(spill.block);
    }
    slot.free_heads = free_heads_;
    // The fallback slot's journal run retires now: after this checkpoint
    // commits, the on-disk slots are {E, E-1}, so the run that backed E-2
    // is unreferenced and its link writes (phase 5) clobber nothing a
    // recovery could still need.
    std::vector<std::vector<uint32_t>> retired(free_heads_.size());
    for (const PageId& id : ChopRun(fallback_log_start_, fallback_log_blocks_)) {
      retired[id.size_class].push_back(id.block);
    }
    for (size_t sc = 0; sc < free_heads_.size(); ++sc) {
      // Retired journal first, scrap next, user frees last, so the most
      // recently freed extent ends up at the list head (LIFO order
      // survives reopen).
      for (uint32_t b : retired[sc]) {
        links.emplace_back(b, slot.free_heads[sc]);
        slot.free_heads[sc] = b;
      }
      for (uint32_t b : run_scrap_[sc]) {
        links.emplace_back(b, slot.free_heads[sc]);
        slot.free_heads[sc] = b;
      }
      for (uint32_t b : pending_free_[sc]) {
        links.emplace_back(b, slot.free_heads[sc]);
        slot.free_heads[sc] = b;
      }
    }
    uint64_t payload = links.size() * 12 + scraps.size() * 8;
    for (const JournalPage& e : pages) payload += 8 + ExtentBytes(e.size_class);
    if (payload > 0) {
      const uint64_t total = kJournalHeader + payload;
      slot.log_blocks = static_cast<uint32_t>((total + bbs - 1) / bbs);
      slot.log_start = next_block_;
      next_block_ += slot.log_blocks;
    }
    slot.epoch = epoch_ + 1;
    slot.next_block = next_block_;
    slot.max_size_class = options_.max_size_class;
    slot.user_meta = user_meta_;
    // The outgoing active journal becomes this slot's fallback run; it
    // must survive untouched until checkpoint E+1 retires it, because the
    // other slot (epoch E) still replays it on recovery.
    slot.prev_log_start = active_log_start_;
    slot.prev_log_blocks = active_log_blocks_;
    slot_index = active_slot_ ^ 1;
  }
  std::sort(pages.begin(), pages.end(), by_home);

  // Phase 3: build the journal run, copying each page image once straight
  // into its place (ascending home block), then write and sync it. Until
  // the slot below lands, these blocks are unreferenced — a crash here
  // costs nothing.
  const size_t run_bytes = static_cast<size_t>(slot.log_blocks) * bbs;
  std::unique_ptr<uint8_t[]> run;
  if (run_bytes > 0) {
    // Not zero-filled: every byte is written below, the tail included.
    run = std::make_unique_for_overwrite<uint8_t[]>(run_bytes);
    EncodeU64(run.get(), kJournalMagic);
    EncodeU64(run.get() + 8, slot.epoch);
    EncodeU32(run.get() + 16,
              static_cast<uint32_t>(pages.size() + links.size()));
    EncodeU32(run.get() + 20, static_cast<uint32_t>(scraps.size()));
    EncodeU32(run.get() + 36, 0);
    uint8_t* p = run.get() + kJournalHeader;
    for (const JournalPage& e : pages) {
      const uint32_t length = static_cast<uint32_t>(ExtentBytes(e.size_class));
      EncodeU32(p, e.home);
      EncodeU32(p + 4, length);
      if (const Status st = CopyJournalPage(e, p + 8); !st.ok()) {
        // Nothing references the reserved run yet; hand it back as scrap.
        TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
        for (const PageId& id : ChopRun(slot.log_start, slot.log_blocks)) {
          run_scrap_[id.size_class].push_back(id.block);
        }
        return st;
      }
      p += 8 + length;
    }
    for (const auto& [block, next] : links) {
      EncodeU32(p, block);
      EncodeU32(p + 4, 4);
      EncodeU32(p + 8, next);
      p += 12;
    }
    for (const PageId& s : scraps) {
      EncodeU32(p, s.block);
      EncodeU32(p + 4, s.size_class);
      p += 8;
    }
    const uint64_t payload =
        static_cast<uint64_t>(p - (run.get() + kJournalHeader));
    std::memset(p, 0, run.get() + run_bytes - p);
    EncodeU64(run.get() + 24, payload);
    EncodeU32(run.get() + 32, Crc32c(run.get() + kJournalHeader, payload));
    Status st = device_->Write(BlockOffset(slot.log_start), run.get(),
                               run_bytes);
    if (st.ok()) st = device_->Sync();
    if (!st.ok()) {
      EnterDegraded();
      return st;
    }
  }

  // Phase 4: publish the inactive slot. Once this sync returns, the new
  // epoch is the one Open() recovers.
  {
    const std::vector<uint8_t> buf = SerializeSlot(slot);
    Status st = device_->Write(static_cast<uint64_t>(slot_index) * bbs,
                               buf.data(), buf.size());
    if (st.ok()) st = device_->Sync();
    if (!st.ok()) {
      EnterDegraded();
      return st;
    }
  }
  BumpStat(stats_.checkpoints);
  BumpStat(stats_.journaled_pages, pages.size());
  BumpStat(stats_.journal_bytes, static_cast<uint64_t>(slot.log_blocks) * bbs);

  // Commit the new durable state in memory.
  {
    TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
    epoch_ = slot.epoch;
    active_slot_ = slot_index;
    free_heads_ = slot.free_heads;
    for (auto& v : pending_free_) v.clear();
    for (auto& v : run_scrap_) v.clear();
    for (const PageId& id : scraps) {
      run_scrap_[id.size_class].push_back(id.block);
    }
    // Rotate the protected journal runs: the run we just wrote is active,
    // the previous active run backs the fallback slot for one more epoch.
    fallback_log_start_ = active_log_start_;
    fallback_log_blocks_ = active_log_blocks_;
    active_log_start_ = slot.log_start;
    active_log_blocks_ = slot.log_blocks;
  }

  // Phase 5: apply the journaled changes to their home locations, each
  // page image from its slice of the run. A crash anywhere in here is
  // fine — Open() replays the journal — so no final sync. Page images go
  // first so that once redirects drop, a pool miss finds current bytes at
  // home.
  size_t image = kJournalHeader + 8;
  for (const JournalPage& e : pages) {
    const size_t length = ExtentBytes(e.size_class);
    const Status st =
        device_->Write(BlockOffset(e.home), run.get() + image, length);
    if (!st.ok()) {
      EnterDegraded();
      return st;
    }
    BumpStat(stats_.physical_writes);
    image += 8 + length;
  }
  for (const JournalPage& e : pages) {
    if (e.spill != kInvalidBlock) continue;
    Partition& part = PartitionFor(e.home);
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    auto it = part.frames.find(e.home);
    if (it != part.frames.end() && it->second.dirty) {
      it->second.dirty = false;
      part.dirty.erase(e.home);
    }
  }
  {
    // Retire every redirect: home blocks are current again. Spills created
    // while this checkpoint ran (concurrent evictions) hold the same bytes
    // we just applied, so dropping them is safe too; their extents rejoin
    // the allocator as scrap.
    TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
    for (const auto& [home, spill] : redirects_) {
      if (scrapped_blocks.count(spill.block) == 0) {
        run_scrap_[spill.size_class].push_back(spill.block);
      }
    }
    redirects_.clear();
  }
  // Free-list links last: their targets are dead extents no reader touches.
  for (const auto& [block, next] : links) {
    uint8_t link[4];
    EncodeU32(link, next);
    const Status st = device_->Write(BlockOffset(block), link, 4);
    if (!st.ok()) {
      EnterDegraded();
      return st;
    }
  }
  return Status::OK();
}

Status Pager::CopyJournalPage(const JournalPage& page, uint8_t* out) {
  const size_t n = ExtentBytes(page.size_class);
  uint32_t src = page.spill;
  if (src == kInvalidBlock) {
    Partition& part = PartitionFor(page.home);
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    auto it = part.frames.find(page.home);
    if (it != part.frames.end()) {
      std::memcpy(out, it->second.bytes.data(), n);
      return Status::OK();
    }
    // A reader evicted the dirty frame after phase 1; its spill extent
    // holds the same bytes.
    TrackedMutexLock alloc_lock(&alloc_mu_, LockClass::kPagerAlloc);
    auto rit = redirects_.find(page.home);
    SEGIDX_CHECK(rit != redirects_.end());
    src = rit->second.block;
  }
  return device_->Read(BlockOffset(src), n, out);
}

Status Pager::SetUserMeta(const uint8_t* data, size_t n) {
  if (n > kUserMetaCapacity) {
    return InvalidArgumentError("user metadata too large");
  }
  SEGIDX_RETURN_IF_ERROR(CheckMutable());
  TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
  user_meta_.assign(data, data + n);
  return Status::OK();
}

// Manual Lock/Unlock (not a scoped guard): the sequencer drops commit_mu_
// around commit_fn — the one rule the class comment promises — and the
// lockdep hooks bracket each held region so the validator sees the same
// thing.
Status Pager::GroupCommit(const std::function<Status()>& commit_fn) {
  check::LockdepOnLock(LockClass::kPagerCommit, &commit_mu_);
  commit_mu_.Lock();
  BumpStat(stats_.commit_requests);
  const uint64_t my_seq = ++commit_seq_;
  const std::thread::id me = std::this_thread::get_id();
  const bool peer_before =
      last_requester_ != std::thread::id() && last_requester_ != me;
  last_requester_ = me;
  for (;;) {
    if (durable_seq_ >= my_seq) {
      // A batch that started after this request arrived has completed; its
      // commit covered every mutation visible at our call.
      const Status st = last_commit_status_;
      commit_mu_.Unlock();
      check::LockdepOnUnlock(LockClass::kPagerCommit, &commit_mu_);
      return st;
    }
    if (!committing_) break;  // Become the next leader.
    commit_cv_.Wait(&commit_mu_);
  }
  committing_ = true;
  // Linger only on evidence that another thread is committing: it issued
  // the request before ours, it queued behind ours, or the previous batch
  // held more than one request. A sole committer has nobody to wait for.
  const bool peers =
      peer_before || commit_seq_ > my_seq || last_batch_size_ > 1;
  if (options_.group_commit_window_us > 0 && peers) {
    // Linger for the window so near-simultaneous requesters join this
    // batch instead of forcing their own fsync round. Waiting (rather than
    // sleeping unlocked) releases commit_mu_, which joiners need to
    // enqueue; spurious wakeups before the deadline just wait again.
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::microseconds(options_.group_commit_window_us);
    while (commit_cv_.WaitUntil(&commit_mu_, deadline)) {
    }
    BumpStat(stats_.commit_linger_us,
             static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count()));
  }
  const uint64_t batch_end = commit_seq_;  // Requests this batch covers.
  commit_mu_.Unlock();
  check::LockdepOnUnlock(LockClass::kPagerCommit, &commit_mu_);
  const Status st = commit_fn();
  check::LockdepOnLock(LockClass::kPagerCommit, &commit_mu_);
  commit_mu_.Lock();
  BumpStat(stats_.commit_batches);
  last_batch_size_ = batch_end - durable_seq_;
  durable_seq_ = batch_end;
  last_commit_status_ = st;
  committing_ = false;
  commit_mu_.Unlock();
  check::LockdepOnUnlock(LockClass::kPagerCommit, &commit_mu_);
  commit_cv_.NotifyAll();
  return st;
}

bool Pager::HasUncheckpointedChanges() const {
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Partition& part = partitions_[p];
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    if (!part.dirty.empty()) return true;
  }
  TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
  if (!redirects_.empty()) return true;
  for (const std::vector<uint32_t>& freed : pending_free_) {
    if (!freed.empty()) return true;
  }
  return false;
}

Result<std::vector<PageId>> Pager::FreeExtents() const {
  TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
  std::vector<PageId> out;
  for (uint8_t sc = 0; sc < free_heads_.size(); ++sc) {
    uint32_t block = free_heads_[sc];
    // A well-formed list holds at most next_block_ extents; anything longer
    // is a cycle.
    uint64_t steps = 0;
    while (block != kInvalidBlock) {
      if (block < first_data_block() || block >= next_block_) {
        return CorruptionError("free list of size class " +
                               std::to_string(sc) +
                               " references out-of-range block " +
                               std::to_string(block));
      }
      if (++steps > next_block_) {
        return CorruptionError("free list of size class " +
                               std::to_string(sc) + " is cyclic");
      }
      PageId id;
      id.block = block;
      id.size_class = sc;
      out.push_back(id);
      uint8_t link[4];
      SEGIDX_RETURN_IF_ERROR(device_->Read(BlockOffset(block), 4, link));
      block = DecodeU32(link);
    }
  }
  // Extents freed or retired this epoch (not yet threaded on the device)
  // and live spill extents also hold no reachable home page.
  for (uint8_t sc = 0; sc < free_heads_.size(); ++sc) {
    for (uint32_t block : pending_free_[sc]) {
      PageId id;
      id.block = block;
      id.size_class = sc;
      out.push_back(id);
    }
    for (uint32_t block : run_scrap_[sc]) {
      PageId id;
      id.block = block;
      id.size_class = sc;
      out.push_back(id);
    }
  }
  for (const auto& [home, spill] : redirects_) {
    PageId id;
    id.block = spill.block;
    id.size_class = spill.size_class;
    out.push_back(id);
  }
  // The two protected journal runs hold no pages either; they rejoin the
  // device free lists one and two checkpoints from now.
  for (const PageId& id : ChopRun(active_log_start_, active_log_blocks_)) {
    out.push_back(id);
  }
  for (const PageId& id : ChopRun(fallback_log_start_, fallback_log_blocks_)) {
    out.push_back(id);
  }
  return out;
}

size_t Pager::pinned_frames() const {
  size_t n = 0;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Partition& part = partitions_[p];
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    for (const auto& [block, frame] : part.frames) {
      if (frame.pin_count > 0) ++n;
    }
  }
  return n;
}

size_t Pager::cached_frames() const {
  size_t n = 0;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Partition& part = partitions_[p];
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    n += part.frames.size();
  }
  return n;
}

size_t Pager::cached_bytes() const {
  size_t n = 0;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Partition& part = partitions_[p];
    TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
    n += part.cached_bytes;
  }
  return n;
}

Status Pager::SpillFrame(uint32_t home, const Frame& frame) {
  uint32_t spill_block;
  {
    TrackedMutexLock lock(&alloc_mu_, LockClass::kPagerAlloc);
    auto it = redirects_.find(home);
    if (it != redirects_.end()) {
      // Re-evicting a page that already has a spill extent: overwrite it
      // in place. No reader can be reading the spill concurrently, because
      // while the frame is pooled every Fetch() of this page is a hit.
      spill_block = it->second.block;
    } else {
      spill_block = next_block_;
      next_block_ += 1u << frame.size_class;
      redirects_.emplace(home, SpillSlot{spill_block, frame.size_class});
    }
  }
  const Status st = device_->Write(BlockOffset(spill_block),
                                   frame.bytes.data(), frame.bytes.size());
  if (st.ok()) BumpStat(stats_.physical_writes);
  return st;
}

void Pager::EnforceCapacityLocked(Partition& part) {
  auto it = part.lru.end();
  while (it != part.lru.begin() && part.cached_bytes > partition_budget_) {
    --it;
    const uint32_t victim = *it;
    auto fit = part.frames.find(victim);
    SEGIDX_CHECK(fit != part.frames.end());
    Frame& frame = fit->second;
    SEGIDX_CHECK_EQ(frame.pin_count, 0);
    if (frame.dirty) {
      if (degraded()) {
        // Nowhere safe to persist the bytes; keep the frame cached.
        continue;
      } else if (const Status st = SpillFrame(victim, frame); !st.ok()) {
        EnterDegraded();
        continue;
      } else {
        BumpStat(stats_.spills);
      }
    }
    it = part.lru.erase(it);
    if (frame.dirty) part.dirty.erase(victim);
    part.cached_bytes -= frame.bytes.size();
    part.frames.erase(fit);
    BumpStat(stats_.evictions);
  }
}

void Pager::Unpin(uint32_t block) {
  Partition& part = PartitionFor(block);
  TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
  auto it = part.frames.find(block);
  SEGIDX_CHECK(it != part.frames.end());
  Frame& frame = it->second;
  SEGIDX_CHECK_GT(frame.pin_count, 0);
  if (--frame.pin_count == 0) {
    part.lru.push_front(block);
    frame.lru_pos = part.lru.begin();
    frame.in_lru = true;
    // Opportunistically shrink back to capacity now that a frame became
    // evictable.
    EnforceCapacityLocked(part);
  }
}

void Pager::MarkFrameDirty(uint32_t block) {
  Partition& part = PartitionFor(block);
  TrackedMutexLock lock(&part.mu, LockClass::kPagerPartition);
  auto it = part.frames.find(block);
  SEGIDX_CHECK(it != part.frames.end());
  if (!it->second.dirty) {
    it->second.dirty = true;
    part.dirty.insert(block);
  }
}

}  // namespace segidx::storage
