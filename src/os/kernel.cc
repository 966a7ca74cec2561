#include "src/os/kernel.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "src/crypto/drbg.h"
#include "src/crypto/sha1.h"

namespace flicker {

struct KernelImage {
  std::vector<Bytes> regions;  // One entry per measured region, in order.
  Bytes measurement;           // SHA-1 over all of them.
};

namespace {

// The image bytes are one DRBG stream from the content seed, cut region by
// region, so they depend on the seed and the ordered region sizes but not
// on where the regions sit. Every machine of a fleet shares one config, and
// regenerating its image per machine used to dominate fleet setup.
const KernelImage& GetKernelImage(uint64_t content_seed, const std::vector<size_t>& sizes) {
  static std::mutex mutex;
  static std::map<std::pair<uint64_t, std::vector<size_t>>, KernelImage>* cache =
      new std::map<std::pair<uint64_t, std::vector<size_t>>, KernelImage>();
  std::lock_guard<std::mutex> lock(mutex);
  auto key = std::make_pair(content_seed, sizes);
  auto it = cache->find(key);
  if (it == cache->end()) {
    Drbg content(content_seed);
    KernelImage image;
    Sha1 hash;
    for (size_t size : sizes) {
      image.regions.push_back(content.Generate(size));
      hash.Update(image.regions.back());
    }
    image.measurement = hash.Finish();
    it = cache->emplace(std::move(key), std::move(image)).first;
  }
  return it->second;
}

}  // namespace

OsKernel::OsKernel(Machine* machine, const KernelConfig& config)
    : machine_(machine), config_(config) {
  regions_.push_back(KernelRegion{"text", config.text_base, config.text_size});
  regions_.push_back(
      KernelRegion{"syscall_table", config.syscall_table_base, config.syscall_table_size});
  uint64_t module_addr = config.modules_base;
  for (const auto& [name, size] : config.modules) {
    regions_.push_back(KernelRegion{"module:" + name, module_addr, size});
    module_addr += size;
  }

  std::vector<size_t> sizes;
  for (const KernelRegion& region : regions_) {
    sizes.push_back(region.size);
  }
  image_ = &GetKernelImage(config.content_seed, sizes);
  // Config regions are disjoint and within the machine by construction, so
  // the image's own SHA-1 is what CurrentMeasurement() reads back.
  Status st = RestorePristine();
  (void)st;
  machine_->bsp()->cr3 = cr3_;
}

const Bytes& OsKernel::pristine_measurement() const {
  return image_->measurement;
}

std::vector<KernelRegion> OsKernel::MeasuredRegions() const {
  return regions_;
}

Bytes OsKernel::SerializeRegions() const {
  Bytes out;
  PutUint32(&out, static_cast<uint32_t>(regions_.size()));
  for (const KernelRegion& region : regions_) {
    PutUint32(&out, static_cast<uint32_t>(region.name.size()));
    Bytes name = BytesOf(region.name);
    out.insert(out.end(), name.begin(), name.end());
    PutUint64(&out, region.base);
    PutUint64(&out, region.size);
  }
  return out;
}

Result<std::vector<KernelRegion>> OsKernel::DeserializeRegions(const Bytes& data) {
  std::vector<KernelRegion> regions;
  std::vector<std::pair<uint64_t, uint64_t>> spans;  // [base, end) of non-empty regions.
  size_t pos = 0;
  if (data.size() < 4) {
    return InvalidArgumentError("region list truncated");
  }
  uint32_t count = GetUint32(data, pos);
  pos += 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + 4 > data.size()) {
      return InvalidArgumentError("region list truncated");
    }
    uint32_t name_len = GetUint32(data, pos);
    pos += 4;
    if (pos + name_len + 16 > data.size()) {
      return InvalidArgumentError("region list truncated");
    }
    KernelRegion region;
    region.name.assign(data.begin() + static_cast<long>(pos),
                       data.begin() + static_cast<long>(pos + name_len));
    pos += name_len;
    region.base = GetUint64(data, pos);
    pos += 8;
    region.size = GetUint64(data, pos);
    pos += 8;
    if (region.size > UINT64_MAX - region.base) {
      return InvalidArgumentError("region end overflows");
    }
    if (region.size > 0) {
      spans.emplace_back(region.base, region.base + region.size);
    }
    regions.push_back(std::move(region));
  }
  // Genuine lists are disjoint. Requiring that caps one query at the size of
  // RAM; otherwise one 4 KB page could name all of RAM ~200 times.
  std::sort(spans.begin(), spans.end());
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) {
      return InvalidArgumentError("regions overlap");
    }
  }
  return regions;
}

Bytes OsKernel::CurrentMeasurement() const {
  Sha1 hash;
  for (const KernelRegion& region : regions_) {
    Result<Bytes> bytes = machine_->memory()->Read(region.base, region.size);
    if (bytes.ok()) {
      hash.Update(bytes.value());
    }
  }
  return hash.Finish();
}

Status OsKernel::InstallSyscallHook(size_t entry_index) {
  if (entry_index * 8 + 8 > config_.syscall_table_size) {
    return InvalidArgumentError("syscall index out of range");
  }
  // Point the entry at attacker-controlled memory.
  Bytes hook;
  PutUint64(&hook, 0xdeadbeefcafebabeULL);
  FLICKER_RETURN_IF_ERROR(
      machine_->memory()->Write(config_.syscall_table_base + entry_index * 8, hook));
  tampered_ = true;
  return Status::Ok();
}

Status OsKernel::PatchText(uint64_t offset, const Bytes& patch) {
  if (offset + patch.size() > config_.text_size) {
    return InvalidArgumentError("text patch out of range");
  }
  FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(config_.text_base + offset, patch));
  tampered_ = true;
  return Status::Ok();
}

Status OsKernel::RestorePristine() {
  for (size_t i = 0; i < regions_.size(); ++i) {
    FLICKER_RETURN_IF_ERROR(machine_->memory()->Write(regions_[i].base, image_->regions[i]));
  }
  tampered_ = false;
  return Status::Ok();
}

}  // namespace flicker
