#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "storage/slotted_page.h"
#include "util/coding.h"

namespace ode {

namespace {

PageType TypeOf(const char* page) {
  return static_cast<PageType>(static_cast<uint8_t>(page[0]));
}

}  // namespace

void FreeSpaceIndex::Set(PageId id, uint32_t free) {
  if (id >= leaves_) {
    if (free == 0) return;
    size_t leaves = std::max<size_t>(leaves_, 64);
    while (leaves <= id) leaves *= 2;
    std::vector<uint32_t> grown(2 * leaves, 0);
    std::copy(tree_.begin() + leaves_, tree_.end(), grown.begin() + leaves);
    for (size_t i = leaves - 1; i > 0; --i) {
      grown[i] = std::max(grown[2 * i], grown[2 * i + 1]);
    }
    leaves_ = leaves;
    tree_ = std::move(grown);
  }
  size_t i = leaves_ + id;
  tree_[i] = free;
  for (i /= 2; i > 0; i /= 2) {
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
  }
}

PageId FreeSpaceIndex::FirstFit(uint32_t need) const {
  if (leaves_ == 0 || tree_[1] < need) return kInvalidPageId;
  size_t i = 1;
  while (i < leaves_) {
    i = tree_[2 * i] >= need ? 2 * i : 2 * i + 1;
  }
  return static_cast<PageId>(i - leaves_);
}

Status HeapFile::EnsureCache(PageIO* io) {
  if (cache_valid_) return Status::OK();
  space_cache_.Clear();
  uint32_t page_count = 0;
  {
    auto pc = io->PageCount();
    if (!pc.ok()) return pc.status();
    page_count = *pc;
  }
  for (PageId id = 1; id < page_count; ++id) {
    auto handle = io->Fetch(id);
    if (!handle.ok()) return handle.status();
    if (TypeOf(handle->data()) == PageType::kHeap) {
      SlottedPage view(const_cast<char*>(handle->data()));
      space_cache_.Set(id, view.FreeSpace());
    }
  }
  cache_valid_ = true;
  return Status::OK();
}

StatusOr<PageId> HeapFile::PickPage(PageIO* io, uint32_t need) {
  ODE_RETURN_IF_ERROR(EnsureCache(io));
  const PageId fit = space_cache_.FirstFit(need);
  if (fit != kInvalidPageId) return fit;
  auto id = io->AllocatePage();
  if (!id.ok()) return id.status();
  auto handle = io->Fetch(*id);
  if (!handle.ok()) return handle.status();
  SlottedPage view(handle->mutable_data());
  view.Init();
  space_cache_.Set(*id, view.FreeSpace());
  return *id;
}

StatusOr<RecordId> HeapFile::Insert(PageIO* io, const Slice& payload) {
  std::string cell;
  PageId first_overflow = kInvalidPageId;

  if (payload.size() + 1 <= SlottedPage::kMaxCellSize) {
    cell.push_back(static_cast<char>(kInline));
    cell.append(payload.data(), payload.size());
  } else {
    // Write the payload into an overflow chain, back to front so each page
    // can point at the next.
    size_t remaining = payload.size();
    // Chunk boundaries: all chunks full-size except possibly the last.
    size_t num_chunks = (remaining + kOverflowCapacity - 1) / kOverflowCapacity;
    PageId next = kInvalidPageId;
    for (size_t chunk_idx = num_chunks; chunk_idx-- > 0;) {
      const size_t chunk_off = chunk_idx * kOverflowCapacity;
      const size_t chunk_len =
          std::min<size_t>(kOverflowCapacity, payload.size() - chunk_off);
      auto pid = io->AllocatePage();
      if (!pid.ok()) return pid.status();
      auto handle = io->Fetch(*pid);
      if (!handle.ok()) return handle.status();
      char* data = handle->mutable_data();
      std::memset(data, 0, kPageSize);
      data[0] = static_cast<char>(PageType::kOverflow);
      EncodeFixed32(data + 4, next);
      EncodeFixed32(data + 8, static_cast<uint32_t>(chunk_len));
      // Offset math is chunk-aligned within payload.
      // ode_lint: allow(unchecked-cast) chunk_len <= kOverflowCapacity (min above)
      std::memcpy(data + kOverflowDataOffset, payload.data() + chunk_off,
                  chunk_len);
      next = *pid;
    }
    first_overflow = next;
    cell.push_back(static_cast<char>(kSpanningHead));
    PutFixed32(&cell, static_cast<uint32_t>(payload.size()));
    PutFixed32(&cell, first_overflow);
  }

  auto pid = PickPage(io, static_cast<uint32_t>(cell.size()));
  if (!pid.ok()) return pid.status();
  auto handle = io->Fetch(*pid);
  if (!handle.ok()) return handle.status();
  SlottedPage view(handle->mutable_data());
  auto slot = view.Insert(Slice(cell));
  if (!slot.ok()) return slot.status();
  space_cache_.Set(*pid, view.FreeSpace());
  return RecordId{*pid, *slot};
}

StatusOr<std::string> HeapFile::Read(PageIO* io, RecordId rid) {
  auto handle = io->Fetch(rid.page);
  if (!handle.ok()) return handle.status();
  SlottedPage view(const_cast<char*>(handle->data()));
  if (!view.IsHeapPage()) return Status::NotFound("not a heap page");
  auto cell = view.Get(rid.slot);
  if (!cell.ok()) return cell.status();
  Slice data = *cell;
  if (data.empty()) return Status::Corruption("empty heap cell");
  const uint8_t tag = static_cast<uint8_t>(data[0]);
  data.remove_prefix(1);
  if (tag == kInline) {
    return data.ToString();
  }
  if (tag != kSpanningHead || data.size() != 8) {
    return Status::Corruption("bad heap cell tag");
  }
  const uint32_t total_len = DecodeFixed32(data.data());
  PageId next = DecodeFixed32(data.data() + 4);
  std::string out;
  out.reserve(total_len);
  // A corrupt chain can loop (a zero-length cycle would otherwise spin
  // forever; a fat one would allocate without bound), so walk at most the
  // number of chunks the declared length legitimately needs.
  const uint64_t max_chunks =
      (static_cast<uint64_t>(total_len) + kOverflowCapacity - 1) /
      kOverflowCapacity;
  uint64_t chunks = 0;
  while (next != kInvalidPageId) {
    if (++chunks > max_chunks) {
      return Status::Corruption("overflow chain longer than declared length");
    }
    auto oh = io->Fetch(next);
    if (!oh.ok()) return oh.status();
    const char* page = oh->data();
    if (TypeOf(page) != PageType::kOverflow) {
      return Status::Corruption("broken overflow chain");
    }
    const uint32_t chunk_len = DecodeFixed32(page + 8);
    if (chunk_len > kOverflowCapacity) {
      return Status::Corruption("overflow chunk too large");
    }
    out.append(page + kOverflowDataOffset, chunk_len);
    next = DecodeFixed32(page + 4);
  }
  if (out.size() != total_len) {
    return Status::Corruption("overflow chain length mismatch");
  }
  return out;
}

Status HeapFile::FreeOverflowChain(PageIO* io, PageId head) {
  PageId next = head;
  while (next != kInvalidPageId) {
    auto handle = io->Fetch(next);
    if (!handle.ok()) return handle.status();
    if (TypeOf(handle->data()) != PageType::kOverflow) {
      return Status::Corruption("broken overflow chain on delete");
    }
    PageId after = DecodeFixed32(handle->data() + 4);
    handle->Release();
    ODE_RETURN_IF_ERROR(io->FreePage(next));
    next = after;
  }
  return Status::OK();
}

Status HeapFile::Delete(PageIO* io, RecordId rid) {
  auto handle = io->Fetch(rid.page);
  if (!handle.ok()) return handle.status();
  SlottedPage view(handle->mutable_data());
  if (!view.IsHeapPage()) return Status::NotFound("not a heap page");
  auto cell = view.Get(rid.slot);
  if (!cell.ok()) return cell.status();
  Slice data = *cell;
  if (data.empty()) return Status::Corruption("empty heap cell");
  const uint8_t tag = static_cast<uint8_t>(data[0]);
  PageId overflow_head = kInvalidPageId;
  if (tag == kSpanningHead) {
    if (data.size() != 9) return Status::Corruption("bad spanning head");
    overflow_head = DecodeFixed32(data.data() + 5);
  }
  ODE_RETURN_IF_ERROR(view.Delete(rid.slot));
  const bool page_empty = view.LiveSlots() == 0;
  if (cache_valid_) space_cache_.Set(rid.page, view.FreeSpace());
  handle->Release();
  if (overflow_head != kInvalidPageId) {
    ODE_RETURN_IF_ERROR(FreeOverflowChain(io, overflow_head));
  }
  if (page_empty) {
    ODE_RETURN_IF_ERROR(io->FreePage(rid.page));
    if (cache_valid_) space_cache_.Erase(rid.page);
  }
  return Status::OK();
}

Status HeapFile::ForEach(
    PageIO* io, const std::function<bool(RecordId, const Slice&)>& fn) {
  uint32_t page_count = 0;
  {
    auto pc = io->PageCount();
    if (!pc.ok()) return pc.status();
    page_count = *pc;
  }
  for (PageId id = 1; id < page_count; ++id) {
    auto handle = io->Fetch(id);
    if (!handle.ok()) return handle.status();
    if (TypeOf(handle->data()) != PageType::kHeap) continue;
    SlottedPage view(const_cast<char*>(handle->data()));
    for (uint16_t slot = 0; slot < view.SlotCount(); ++slot) {
      auto cell = view.Get(slot);
      if (!cell.ok()) continue;  // Free slot.
      RecordId rid{id, slot};
      auto payload = Read(io, rid);
      if (!payload.ok()) return payload.status();
      if (!fn(rid, Slice(*payload))) return Status::OK();
    }
  }
  return Status::OK();
}

StatusOr<HeapStats> HeapFile::Stats(PageIO* io) {
  HeapStats stats;
  uint32_t page_count = 0;
  {
    auto pc = io->PageCount();
    if (!pc.ok()) return pc.status();
    page_count = *pc;
  }
  for (PageId id = 1; id < page_count; ++id) {
    auto handle = io->Fetch(id);
    if (!handle.ok()) return handle.status();
    const PageType type = TypeOf(handle->data());
    if (type == PageType::kOverflow) {
      ++stats.overflow_pages;
    } else if (type == PageType::kHeap) {
      ++stats.heap_pages;
      SlottedPage view(const_cast<char*>(handle->data()));
      for (uint16_t slot = 0; slot < view.SlotCount(); ++slot) {
        auto cell = view.Get(slot);
        if (cell.ok()) {
          ++stats.live_records;
          stats.live_bytes += cell->size();
        }
      }
    }
  }
  return stats;
}

}  // namespace ode
