// Classic/concurrent mode parity: every existing PAL workload must be
// byte-identical between the paper's suspend-the-world lifecycle and the
// hypervisor-hosted concurrent mode under the same seed. Two
// deterministic stacks are built per workload, differing ONLY in
// `config.mode`; outputs,
// PCR 17 chains, quotes, sealed key material and protocol verdicts must
// all match. This is the contract that lets an operator flip a fleet to
// --hv without re-whitelisting a single PAL measurement.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/apps/ca.h"
#include "src/apps/hello.h"
#include "src/apps/rootkit_detector.h"
#include "src/apps/ssh.h"
#include "src/crypto/sha1.h"
#include "src/tpm/pcr_bank.h"

namespace flicker {
namespace {

FlickerPlatformConfig ModeConfig(SessionMode mode) {
  FlickerPlatformConfig config;
  config.mode = mode;
  return config;
}

// The inputs-reversing PAL from the core suite, so parity also covers a
// PAL whose outputs depend on its inputs.
class EchoPal : public Pal {
 public:
  std::string name() const override { return "echo"; }
  std::vector<std::string> required_modules() const override { return {}; }
  std::vector<std::string> required_symbols() const override { return {"PAL_OUT"}; }
  size_t app_code_bytes() const override { return 128; }
  int app_lines_of_code() const override { return 10; }

  Status Execute(PalContext* context) override {
    Bytes reversed(context->inputs().rbegin(), context->inputs().rend());
    return context->SetOutputs(reversed);
  }
};

class HvParityTest : public ::testing::Test {
 protected:
  HvParityTest()
      : classic_(ModeConfig(SessionMode::kClassic)),
        concurrent_(ModeConfig(SessionMode::kConcurrent)) {}

  // Runs the same session on both platforms and checks the full record is
  // byte-identical, including the hardware PCR 17 each mode leaves behind.
  void ExpectSessionParity(const PalBinary& binary, const Bytes& inputs,
                           const SlbCoreOptions& options = SlbCoreOptions()) {
    Result<FlickerSessionResult> a = classic_.ExecuteSession(binary, inputs, options);
    Result<FlickerSessionResult> b = concurrent_.ExecuteSession(binary, inputs, options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().record.pal_status.ok(), b.value().record.pal_status.ok());
    EXPECT_EQ(a.value().record.outputs, b.value().record.outputs);
    EXPECT_EQ(a.value().record.pcr17_during_execution, b.value().record.pcr17_during_execution);
    EXPECT_EQ(a.value().record.pcr17_final, b.value().record.pcr17_final);
    EXPECT_EQ(a.value().launch.measurement, b.value().launch.measurement);
    EXPECT_EQ(classic_.tpm()->PcrRead(kSkinitPcr).value(),
              concurrent_.tpm()->PcrRead(kSkinitPcr).value());
  }

  FlickerPlatform classic_;
  FlickerPlatform concurrent_;
};

TEST_F(HvParityTest, HelloWorldSessionsAreByteIdentical) {
  PalBinary binary = BuildPal(std::make_shared<HelloWorldPal>()).take();
  for (int i = 0; i < 3; ++i) {
    ExpectSessionParity(binary, BytesOf("hello-round-" + std::to_string(i)));
  }
}

TEST_F(HvParityTest, EchoPalWithAttestationNonceMatches) {
  PalBinary binary = BuildPal(std::make_shared<EchoPal>()).take();
  SlbCoreOptions options;
  options.nonce = Sha1::Digest(BytesOf("parity-nonce"));
  ExpectSessionParity(binary, BytesOf("payload-to-reverse"), options);
}

// The full §6.3.1 SSH protocol: keygen + seal in session 1, unseal +
// decrypt + md5crypt in session 2, with the client verifying the quote.
// Everything the protocol emits must match across modes.
TEST_F(HvParityTest, SshProtocolIsByteIdenticalAcrossModes) {
  PalBuildOptions build;
  build.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<SshPal>(), build).take();

  struct Stack {
    Stack(FlickerPlatform* platform, const PalBinary* binary)
        : server(platform, binary),
          cert(ca.Certify(platform->tpm()->aik_public(), "parity-host")),
          client(binary, ca.public_key(), cert) {}
    PrivacyCa ca;
    SshServer server;
    AikCertificate cert;
    SshClient client;
  };
  Stack classic(&classic_, &binary);
  Stack concurrent(&concurrent_, &binary);

  for (Stack* stack : {&classic, &concurrent}) {
    ASSERT_TRUE(stack->server.AddUser("alice", "correct horse", "a1b2c3d4").ok());
  }

  const Bytes nonce = classic.client.MakeNonce();
  ASSERT_EQ(nonce, concurrent.client.MakeNonce()) << "client nonce streams diverged";

  Result<SshServer::SetupResult> setup_a = classic.server.Setup(nonce);
  Result<SshServer::SetupResult> setup_b = concurrent.server.Setup(nonce);
  ASSERT_TRUE(setup_a.ok()) << setup_a.status().ToString();
  ASSERT_TRUE(setup_b.ok()) << setup_b.status().ToString();

  // Key material, raw PAL outputs and the quote itself are byte-identical:
  // the mirrored hardware PCR 17 makes the attestation indistinguishable.
  EXPECT_EQ(setup_a.value().public_key, setup_b.value().public_key);
  EXPECT_EQ(setup_a.value().setup_outputs, setup_b.value().setup_outputs);
  EXPECT_EQ(setup_a.value().attestation.quote.pcr_values,
            setup_b.value().attestation.quote.pcr_values);
  EXPECT_EQ(setup_a.value().attestation.quote.signature,
            setup_b.value().attestation.quote.signature);
  EXPECT_EQ(classic.server.key_material(), concurrent.server.key_material());

  ASSERT_TRUE(classic.client.VerifyServerSetup(setup_a.value(), nonce).ok());
  ASSERT_TRUE(concurrent.client.VerifyServerSetup(setup_b.value(), nonce).ok());

  for (Stack* stack : {&classic, &concurrent}) {
    const Bytes login_nonce = Sha1::Digest(BytesOf("login-nonce"));
    Result<Bytes> encrypted = stack->client.EncryptPassword("correct horse", login_nonce);
    ASSERT_TRUE(encrypted.ok());
    Result<SshServer::LoginResult> login =
        stack->server.HandleLogin("alice", encrypted.value(), login_nonce);
    ASSERT_TRUE(login.ok()) << login.status().ToString();
    EXPECT_TRUE(login.value().authenticated);
  }
  EXPECT_EQ(classic_.tpm()->PcrRead(kSkinitPcr).value(),
            concurrent_.tpm()->PcrRead(kSkinitPcr).value());
}

// The §6.3.2 CA: keygen + sealed database, then a signing session whose
// certificate - and resealed, counter-versioned state - must match.
TEST_F(HvParityTest, CertificateAuthorityStateAndSignaturesMatch) {
  PalBuildOptions build;
  build.measurement_stub = true;
  PalBinary binary = BuildPal(std::make_shared<CaPal>(), build).take();
  const Bytes owner_auth = Sha1::Digest(BytesOf("owner"));
  ASSERT_TRUE(classic_.tpm()->TakeOwnership(owner_auth).ok());
  ASSERT_TRUE(concurrent_.tpm()->TakeOwnership(owner_auth).ok());

  CertificateAuthorityHost host_a(&classic_, &binary, "Parity CA");
  CertificateAuthorityHost host_b(&concurrent_, &binary, "Parity CA");
  Result<Bytes> pub_a = host_a.Initialize(owner_auth);
  Result<Bytes> pub_b = host_b.Initialize(owner_auth);
  ASSERT_TRUE(pub_a.ok()) << pub_a.status().ToString();
  ASSERT_TRUE(pub_b.ok()) << pub_b.status().ToString();
  EXPECT_EQ(pub_a.value(), pub_b.value());
  EXPECT_EQ(host_a.sealed_state(), host_b.sealed_state());

  CertificateSigningRequest csr;
  csr.subject = "www.corp.example.com";
  Drbg rng(BytesOf("parity-subject-key"));
  csr.subject_public_key = RsaGenerateKey(512, &rng).pub.Serialize();
  CaPolicy policy;
  policy.allowed_suffixes = {".corp.example.com"};

  CertificateAuthorityHost::SignReport report_a = host_a.SignCertificate(csr, policy);
  CertificateAuthorityHost::SignReport report_b = host_b.SignCertificate(csr, policy);
  ASSERT_TRUE(report_a.status.ok()) << report_a.status.ToString();
  ASSERT_TRUE(report_b.status.ok()) << report_b.status.ToString();
  EXPECT_EQ(report_a.certificate.Serialize(), report_b.certificate.Serialize());
  EXPECT_EQ(host_a.sealed_state(), host_b.sealed_state());
  EXPECT_TRUE(CertificateAuthorityHost::VerifyCertificate(pub_b.value(), report_b.certificate));
}

// The §6.1 rootkit detector, end to end over the network: challenge,
// session, quote, verification. The monitor's verdict and the reported
// kernel measurement must match across modes.
TEST_F(HvParityTest, RootkitDetectorQueriesMatch) {
  PalBinary binary = BuildPal(std::make_shared<RootkitDetectorPal>()).take();

  struct Stack {
    Stack(FlickerPlatform* platform, const PalBinary* binary)
        : cert(ca.Certify(platform->tpm()->aik_public(), "parity-laptop")),
          monitor(binary, platform->kernel()->pristine_measurement(), ca.public_key(), cert),
          channel(platform->clock()) {}
    PrivacyCa ca;
    AikCertificate cert;
    RootkitMonitor monitor;
    LossyChannel channel;
  };
  Stack classic(&classic_, &binary);
  Stack concurrent(&concurrent_, &binary);

  RootkitMonitor::QueryReport report_a = classic.monitor.Query(&classic_, &classic.channel);
  RootkitMonitor::QueryReport report_b = concurrent.monitor.Query(&concurrent_, &concurrent.channel);
  ASSERT_TRUE(report_a.status.ok()) << report_a.status.ToString();
  ASSERT_TRUE(report_b.status.ok()) << report_b.status.ToString();
  EXPECT_TRUE(report_a.kernel_clean);
  EXPECT_TRUE(report_b.kernel_clean);
  EXPECT_EQ(report_a.reported_measurement, report_b.reported_measurement);

  // A hooked kernel is caught identically in both modes.
  ASSERT_TRUE(classic_.kernel()->InstallSyscallHook(11).ok());
  ASSERT_TRUE(concurrent_.kernel()->InstallSyscallHook(11).ok());
  report_a = classic.monitor.Query(&classic_, &classic.channel);
  report_b = concurrent.monitor.Query(&concurrent_, &concurrent.channel);
  ASSERT_TRUE(report_a.status.ok());
  ASSERT_TRUE(report_b.status.ok());
  EXPECT_FALSE(report_a.kernel_clean);
  EXPECT_FALSE(report_b.kernel_clean);
  EXPECT_EQ(report_a.reported_measurement, report_b.reported_measurement);
}

}  // namespace
}  // namespace flicker
