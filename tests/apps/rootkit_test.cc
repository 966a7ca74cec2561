// The rootkit-detector application (§6.1): clean-kernel acceptance, rootkit
// detection, and resistance to a lying OS.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/rootkit_detector.h"

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

TEST(RootkitPalTest, TcbIsDetectorPlusLibraries) {
  PalBinary binary = BuildPal(std::make_shared<RootkitDetectorPal>()).take();
  // SLB Core 94 + TPM Driver 216 + detector app 220 (SHA-1 inlined).
  EXPECT_EQ(binary.tcb.total_lines, 94 + 216 + 220);
}

}  // namespace
}  // namespace flicker
