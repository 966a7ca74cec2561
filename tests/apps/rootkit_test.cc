// The rootkit-detector application (§6.1): clean-kernel acceptance, rootkit
// detection, and resistance to a lying OS.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/rootkit_detector.h"
#include "src/os/kernel.h"

namespace flicker {
namespace {

class RootkitTest : public ::testing::Test {
 protected:
  RootkitTest()
      : binary_(BuildPal(std::make_shared<RootkitDetectorPal>()).take()),
        cert_(ca_.Certify(platform_.tpm()->aik_public(), "employee-laptop")),
        monitor_(&binary_, platform_.kernel()->pristine_measurement(), ca_.public_key(), cert_),
        channel_(platform_.clock()) {}

  FlickerPlatform platform_;
  PalBinary binary_;
  PrivacyCa ca_;
  AikCertificate cert_;
  RootkitMonitor monitor_;
  LossyChannel channel_;
};

TEST_F(RootkitTest, CleanKernelPasses) {
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.kernel_clean);
  EXPECT_EQ(report.reported_measurement, platform_.kernel()->pristine_measurement());
}

TEST_F(RootkitTest, SyscallHookDetected) {
  ASSERT_TRUE(platform_.kernel()->InstallSyscallHook(11).ok());
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  ASSERT_TRUE(report.status.ok());  // Attestation itself is fine...
  EXPECT_FALSE(report.kernel_clean);  // ...but the hash exposes the hook.
}

TEST_F(RootkitTest, TextPatchDetected) {
  ASSERT_TRUE(platform_.kernel()->PatchText(0x2000, BytesOf("\x90\x90\xeb\xfe")).ok());
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  ASSERT_TRUE(report.status.ok());
  EXPECT_FALSE(report.kernel_clean);
}

TEST_F(RootkitTest, CleanAfterRestore) {
  ASSERT_TRUE(platform_.kernel()->InstallSyscallHook(11).ok());
  ASSERT_TRUE(platform_.kernel()->RestorePristine().ok());
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  EXPECT_TRUE(report.kernel_clean);
}

TEST_F(RootkitTest, MaliciousModuleTamperingCaughtByAttestation) {
  // The OS corrupts the detector before launch (to run a doctored scanner
  // that would report "clean" over a rootkitted kernel). The measurement in
  // PCR 17 changes, so verification fails.
  ASSERT_TRUE(platform_.kernel()->InstallSyscallHook(11).ok());
  platform_.flicker_module()->set_corrupt_slb_before_launch(true);
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  EXPECT_FALSE(report.status.ok());
  EXPECT_FALSE(report.kernel_clean);
}

TEST_F(RootkitTest, QueryLatencyMatchesTable1) {
  RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
  ASSERT_TRUE(report.status.ok());
  // Table 1: total query latency 1022.7 ms (SKINIT 15.4 + extend 1.2 +
  // kernel hash 22.0 + quote 972.7 + network). Allow ~3%.
  EXPECT_NEAR(report.total_latency_ms, 1022.7, 30.0);
  EXPECT_NEAR(report.quote_ms, 972.7, 1.0);
  EXPECT_NEAR(report.skinit_ms, 15.4, 1.5);
}

TEST_F(RootkitTest, RepeatedQueriesStayConsistent) {
  for (int i = 0; i < 3; ++i) {
    RootkitMonitor::QueryReport report = monitor_.Query(&platform_, &channel_);
    ASSERT_TRUE(report.status.ok()) << "iteration " << i;
    EXPECT_TRUE(report.kernel_clean);
  }
}

TEST(RootkitPalTest, RejectsGarbageRegionList) {
  FlickerPlatform platform;
  PalBinary binary = BuildPal(std::make_shared<RootkitDetectorPal>()).take();
  Result<FlickerSessionResult> result =
      platform.ExecuteSession(binary, BytesOf("not a region list"));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().ok());
}

// One hostile 4 KB inputs page naming all of RAM 200 times would have the
// detector copy and hash ~13 GB in one query. Overlapping regions are refused
// while the list is parsed: before any memory read (a read would fault
// against the empty segment) and before any SHA-1 is charged to the clock.
TEST(RootkitPalTest, RejectsOverlappingRegionsBeforeReadingMemory) {
  Machine machine;
  Bytes hostile;
  PutUint32(&hostile, 200);
  for (int i = 0; i < 200; ++i) {
    PutUint32(&hostile, 0);  // Empty name.
    PutUint64(&hostile, 0);
    PutUint64(&hostile, machine.memory()->size());
  }
  ASSERT_LE(hostile.size(), 4096u);

  SegmentState no_access;
  no_access.base = UINT64_MAX;
  no_access.limit = 0;
  PalContext context(&machine, 0, hostile, /*os_protection_enabled=*/true, no_access);
  uint64_t before_ns = machine.clock()->NowNanos();
  RootkitDetectorPal pal;
  Status status = pal.Execute(&context);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(context.fault_count(), 0u);
  EXPECT_EQ(machine.clock()->NowNanos(), before_ns);
}

TEST(RootkitPalTest, RegionListBounds) {
  auto list = [](std::vector<std::pair<uint64_t, uint64_t>> spans) {
    Bytes out;
    PutUint32(&out, static_cast<uint32_t>(spans.size()));
    for (const auto& [base, size] : spans) {
      PutUint32(&out, 0);
      PutUint64(&out, base);
      PutUint64(&out, size);
    }
    return OsKernel::DeserializeRegions(out);
  };
  // Disjoint (even adjacent, in any order) and empty regions are fine.
  EXPECT_TRUE(list({{0x2000, 0x1000}, {0x1000, 0x1000}, {0x1800, 0}}).ok());
  // Overlap with an earlier region, containment, and a wrapping end are not.
  EXPECT_EQ(list({{0x1000, 0x1000}, {0x1fff, 0x10}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(list({{0x1000, 0x4000}, {0x2000, 0x10}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(list({{UINT64_MAX - 4, 8}}).status().code(), StatusCode::kInvalidArgument);
  // The genuine list round-trips.
  FlickerPlatform platform;
  Result<std::vector<KernelRegion>> genuine =
      OsKernel::DeserializeRegions(platform.kernel()->SerializeRegions());
  ASSERT_TRUE(genuine.ok());
  EXPECT_EQ(genuine.value().size(), platform.kernel()->MeasuredRegions().size());
}

TEST(RootkitPalTest, TcbIsDetectorPlusLibraries) {
  PalBinary binary = BuildPal(std::make_shared<RootkitDetectorPal>()).take();
  // SLB Core 94 + TPM Driver 216 + detector app 220 (SHA-1 inlined).
  EXPECT_EQ(binary.tcb.total_lines, 94 + 216 + 220);
}

}  // namespace
}  // namespace flicker
