// The untrusted operating system's kernel objects.
//
// Flicker treats the OS as adversarial; what the simulator needs from it is
// (a) the memory images a rootkit detector measures (text segment, syscall
// table, loaded modules - paper §6.1), (b) a page-table root to save/restore
// around sessions, and (c) attack hooks that let tests and benches play the
// malicious-OS role.

#ifndef FLICKER_SRC_OS_KERNEL_H_
#define FLICKER_SRC_OS_KERNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/hw/machine.h"

namespace flicker {

struct KernelRegion {
  std::string name;
  uint64_t base = 0;
  size_t size = 0;
};

struct KernelConfig {
  uint64_t text_base = 0x400000;          // 4 MB.
  size_t text_size = 2 * 1024 * 1024;     // ~2 MB of kernel text (2.6.20-era).
  uint64_t syscall_table_base = 0x640000;
  size_t syscall_table_size = 4096;       // 512 entries x 8 bytes.
  uint64_t modules_base = 0x700000;
  std::vector<std::pair<std::string, size_t>> modules = {
      {"ext3", 96 * 1024}, {"e1000", 64 * 1024}, {"tpm_tis", 16 * 1024}};
  uint64_t content_seed = 0x2620;         // Deterministic kernel "build".
};

// One synthetic kernel build: the bytes of every measured region and their
// SHA-1. Defined in kernel.cc; each distinct image is built once per process
// and shared read-only by every OsKernel built from an equal config.
struct KernelImage;

class OsKernel {
 public:
  // Writes the synthetic kernel images into machine memory.
  OsKernel(Machine* machine, const KernelConfig& config = KernelConfig());

  // The regions an integrity measurement covers, in measurement order.
  std::vector<KernelRegion> MeasuredRegions() const;

  // Serialized region list, the input format of the rootkit-detector PAL.
  // Deserializing rejects (kInvalidArgument) a truncated list, a region whose
  // end overflows, and regions that overlap one another.
  Bytes SerializeRegions() const;
  static Result<std::vector<KernelRegion>> DeserializeRegions(const Bytes& data);

  // SHA-1 over all measured regions as currently in memory (what a correct
  // detector computes). Host-side ground truth for tests.
  Bytes CurrentMeasurement() const;

  // The measurement of the pristine kernel (known-good value an
  // administrator compares against).
  const Bytes& pristine_measurement() const;

  // ---- Attack hooks (the adversary controls the OS) ----

  // Hooks a syscall-table entry, the classic rootkit move.
  Status InstallSyscallHook(size_t entry_index);
  // Patches kernel text directly.
  Status PatchText(uint64_t offset, const Bytes& patch);
  // Restores the pristine images.
  Status RestorePristine();
  bool tampered() const { return tampered_; }

  uint64_t cr3() const { return cr3_; }

 private:
  Machine* machine_;
  KernelConfig config_;
  std::vector<KernelRegion> regions_;
  const KernelImage* image_;
  uint64_t cr3_ = 0x2000;  // Opaque page-table root id.
  bool tampered_ = false;
};

}  // namespace flicker

#endif  // FLICKER_SRC_OS_KERNEL_H_
