// Whole-platform lifecycle: all four applications interleaved on one
// machine, cross-application isolation of sealed state, and persistence
// across reboots.

#include <memory>

#include <gtest/gtest.h>

#include "src/apps/ca.h"
#include "src/apps/distributed.h"
#include "src/apps/rootkit_detector.h"
#include "src/apps/ssh.h"
#include "src/core/sealed_state.h"
#include "src/crypto/sha1.h"

namespace flicker {
namespace {

class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() {
    owner_auth_ = Sha1::Digest(BytesOf("owner"));
    EXPECT_TRUE(platform_.tpm()->TakeOwnership(owner_auth_).ok());
  }

  static PalBinary StubBuild(std::shared_ptr<Pal> pal) {
    PalBuildOptions options;
    options.measurement_stub = true;
    return BuildPal(std::move(pal), options).take();
  }

  FlickerPlatform platform_;
  Bytes owner_auth_;
};

TEST_F(LifecycleTest, FourApplicationsShareOnePlatform) {
  // All four paper applications run interleaved on the same machine; each
  // session gets a fresh PCR 17 and none disturbs another's sealed state.
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform_.tpm()->aik_public(), "shared-host");

  // 1. SSH setup.
  PalBinary ssh_pal = StubBuild(std::make_shared<SshPal>());
  SshServer sshd(&platform_, &ssh_pal);
  ASSERT_TRUE(sshd.AddUser("alice", "pw one", "saltsalt").ok());
  SshClient ssh_client(&ssh_pal, ca.public_key(), cert);
  Bytes setup_nonce = ssh_client.MakeNonce();
  Result<SshServer::SetupResult> setup = sshd.Setup(setup_nonce);
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(ssh_client.VerifyServerSetup(setup.value(), setup_nonce).ok());

  // 2. CA initialization + one signature.
  PalBinary ca_pal = StubBuild(std::make_shared<CaPal>());
  CertificateAuthorityHost ca_host(&platform_, &ca_pal, "Lifecycle CA");
  ASSERT_TRUE(ca_host.Initialize(owner_auth_).ok());
  CaPolicy policy;
  policy.allowed_suffixes = {".example.org"};
  CertificateSigningRequest csr;
  csr.subject = "a.example.org";
  csr.subject_public_key = Bytes(16, 1);
  ASSERT_TRUE(ca_host.SignCertificate(csr, policy).status.ok());

  // 3. A rootkit scan in between.
  PalBinary detector = BuildPal(std::make_shared<RootkitDetectorPal>()).take();
  RootkitMonitor monitor(&detector, platform_.kernel()->pristine_measurement(),
                         ca.public_key(), cert);
  LossyChannel channel(platform_.clock());
  RootkitMonitor::QueryReport scan = monitor.Query(&platform_, &channel);
  ASSERT_TRUE(scan.status.ok());
  EXPECT_TRUE(scan.kernel_clean);

  // 4. BOINC work.
  PalBinary boinc = StubBuild(std::make_shared<DistributedPal>());
  BoincClient boinc_client(&platform_, &boinc);
  ASSERT_TRUE(boinc_client.Initialize().ok());
  FactorWorkUnit unit;
  unit.composite = 30030;
  unit.search_limit = 5000;
  ASSERT_TRUE(boinc_client.Process(unit, 50).status.ok());

  // 5. SSH login still works after all of that: its sealed key survived
  //    every other application's sessions.
  Bytes login_nonce = ssh_client.MakeNonce();
  Result<Bytes> ciphertext = ssh_client.EncryptPassword("pw one", login_nonce);
  ASSERT_TRUE(ciphertext.ok());
  Result<SshServer::LoginResult> login =
      sshd.HandleLogin("alice", ciphertext.value(), login_nonce);
  ASSERT_TRUE(login.ok());
  EXPECT_TRUE(login.value().authenticated);

  // 6. And the CA can still sign (its replay counter was untouched by the
  //    other apps).
  csr.subject = "b.example.org";
  CertificateAuthorityHost::SignReport second = ca_host.SignCertificate(csr, policy);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.certificate.serial, 2u);
}

TEST_F(LifecycleTest, SealedStateIsPerPalNotPerPlatform) {
  // The SSH PAL cannot unseal the CA's state and vice versa, even though
  // both live on the same TPM: the PCR 17 binding separates them.
  PalBinary ssh_pal = StubBuild(std::make_shared<SshPal>());
  PalBinary ca_pal = StubBuild(std::make_shared<CaPal>());
  SshServer sshd(&platform_, &ssh_pal);
  ASSERT_TRUE(sshd.AddUser("alice", "pw", "saltsalt").ok());
  Result<SshServer::SetupResult> setup = sshd.Setup(Bytes(20, 1));
  ASSERT_TRUE(setup.ok());

  // Feed the SSH key material into a CA signing session as its sealed
  // state: the TPM refuses (different PAL identity).
  CertificateAuthorityHost ca_host(&platform_, &ca_pal, "X");
  ASSERT_TRUE(ca_host.Initialize(owner_auth_).ok());
  Result<SecureChannelKeyMaterial> ssh_material =
      SecureChannelKeyMaterial::Deserialize(sshd.key_material());
  ASSERT_TRUE(ssh_material.ok());
  ca_host.set_sealed_state(ssh_material.value().sealed_private_key);
  CaPolicy policy;
  policy.allowed_suffixes = {".x"};
  CertificateSigningRequest csr;
  csr.subject = "a.x";
  csr.subject_public_key = Bytes(4, 1);
  CertificateAuthorityHost::SignReport report = ca_host.SignCertificate(csr, policy);
  ASSERT_FALSE(report.status.ok());
}

TEST_F(LifecycleTest, SealedStateSurvivesReboot) {
  // Reboot between SSH setup and login: the sealed private key unseals fine
  // afterwards, because the PAL's PCR 17 chain is reproduced by SKINIT, not
  // by uptime.
  PalBinary ssh_pal = StubBuild(std::make_shared<SshPal>());
  SshServer sshd(&platform_, &ssh_pal);
  ASSERT_TRUE(sshd.AddUser("alice", "pw", "saltsalt").ok());
  PrivacyCa ca;
  AikCertificate cert = ca.Certify(platform_.tpm()->aik_public(), "host");
  SshClient client(&ssh_pal, ca.public_key(), cert);
  Bytes setup_nonce = client.MakeNonce();
  Result<SshServer::SetupResult> setup = sshd.Setup(setup_nonce);
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE(client.VerifyServerSetup(setup.value(), setup_nonce).ok());

  platform_.machine()->Reboot();

  Bytes login_nonce = client.MakeNonce();
  Result<Bytes> ciphertext = client.EncryptPassword("pw", login_nonce);
  ASSERT_TRUE(ciphertext.ok());
  Result<SshServer::LoginResult> login =
      sshd.HandleLogin("alice", ciphertext.value(), login_nonce);
  ASSERT_TRUE(login.ok()) << login.status().ToString();
  EXPECT_TRUE(login.value().authenticated);
}

TEST_F(LifecycleTest, ManySequentialSessionsStayConsistent) {
  // 20 back-to-back sessions: PCR 17 takes the identical final value every
  // time, and the platform never leaks session state across runs.
  PalBinary detector = BuildPal(std::make_shared<RootkitDetectorPal>()).take();
  Bytes inputs = platform_.kernel()->SerializeRegions();
  Bytes reference_pcr;
  for (int i = 0; i < 20; ++i) {
    Result<FlickerSessionResult> result = platform_.ExecuteSession(detector, inputs);
    ASSERT_TRUE(result.ok()) << i;
    ASSERT_TRUE(result.value().ok()) << i;
    if (i == 0) {
      reference_pcr = result.value().record.pcr17_final;
    } else {
      EXPECT_EQ(result.value().record.pcr17_final, reference_pcr) << i;
    }
    EXPECT_EQ(result.value().outputs(), platform_.kernel()->pristine_measurement()) << i;
  }
}

}  // namespace
}  // namespace flicker
