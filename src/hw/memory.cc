#include "src/hw/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

namespace flicker {

PhysicalMemory::PhysicalMemory(size_t size_bytes) : size_(size_bytes) {
  if (size_ == 0) {
    return;
  }
  void* map = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<uint8_t*>(map);
}

PhysicalMemory::~PhysicalMemory() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

Result<Bytes> PhysicalMemory::Read(uint64_t addr, size_t len) const {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical read out of bounds");
  }
  return Bytes(data_ + addr, data_ + addr + len);
}

Status PhysicalMemory::Write(uint64_t addr, const Bytes& bytes) {
  if (!InBounds(addr, bytes.size())) {
    return InvalidArgumentError("physical write out of bounds");
  }
  std::copy(bytes.begin(), bytes.end(), data_ + addr);
  MarkWatches(addr, bytes.size());
  return Status::Ok();
}

Status PhysicalMemory::Erase(uint64_t addr, size_t len) {
  if (!InBounds(addr, len)) {
    return InvalidArgumentError("physical erase out of bounds");
  }
  // The mapping is page-aligned, so offsets align with pages. Whole pages
  // go back to the kernel and fault in as zero pages on the next touch;
  // only the partial pages at either edge are zeroed by hand.
  static const uint64_t kPage = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t end = addr + len;
  const uint64_t first = (addr + kPage - 1) / kPage * kPage;
  const uint64_t last = end / kPage * kPage;
  if (first < last && madvise(data_ + first, last - first, MADV_DONTNEED) == 0) {
    std::fill(data_ + addr, data_ + first, 0);
    std::fill(data_ + last, data_ + end, 0);
  } else {
    std::fill(data_ + addr, data_ + end, 0);
  }
  MarkWatches(addr, len);
  return Status::Ok();
}

int PhysicalMemory::RegisterWatch(uint64_t base, size_t len) {
  watches_.push_back(Watch{base, len, false});
  return static_cast<int>(watches_.size()) - 1;
}

bool PhysicalMemory::IsWatchDirty(int id) const {
  return watches_[static_cast<size_t>(id)].dirty;
}

void PhysicalMemory::ClearWatchDirty(int id) {
  watches_[static_cast<size_t>(id)].dirty = false;
}

void PhysicalMemory::MarkWatches(uint64_t addr, size_t len) {
  for (Watch& w : watches_) {
    if (addr < w.base + w.len && w.base < addr + len) {
      w.dirty = true;
    }
  }
}

void DeviceExclusionVector::Protect(uint64_t base, size_t len) {
  ranges_.push_back(Range{base, len});
}

void DeviceExclusionVector::Unprotect(uint64_t base, size_t len) {
  for (auto it = ranges_.begin(); it != ranges_.end(); ++it) {
    if (it->base == base && it->len == len) {
      ranges_.erase(it);
      return;
    }
  }
}

void DeviceExclusionVector::Clear() {
  ranges_.clear();
}

bool DeviceExclusionVector::Blocks(uint64_t addr, size_t len) const {
  for (const Range& r : ranges_) {
    if (addr < r.base + r.len && r.base < addr + len) {
      return true;
    }
  }
  return false;
}

}  // namespace flicker
