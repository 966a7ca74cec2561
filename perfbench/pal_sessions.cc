// pal-sessions: one closed-loop client on one machine, running a seeded mix
// of the paper's PALs. Each op is one of
//   - hello or rootkit-detector: challenge over the wire, ExecuteSession,
//     tqd quote, response over the wire, VerifyAttestation;
//   - an SSH login through SshServer::HandleLogin;
//   - a CA signature through CertificateAuthorityHost::SignCertificate;
//   - a factoring slice through BoincClient::Process,
// on either a classic-mode or a concurrent-mode (hypervisor) platform. Host
// time per op is dominated by 2048-bit RSA in the TPM and by in-PAL crypto;
// set-up is one machine, so fleet set-up work barely moves it. The only
// workload that reaches the hv and apps layers; its simulated latencies are
// the paper's own numbers (Table 1, Fig. 9).
//
// The mix is uniform by design. The paper measures each PAL on its own and
// gives no traffic mix, so every block of 10 ops holds each (kind, platform)
// pair exactly once, in an order drawn from the seed: equal samples per PAL
// and per mode. About a quarter of the SSH logins carry a wrong password and
// a quarter of the CSRs fall outside the CA policy; each must be refused.
// That share was chosen only to exercise the refusal path.
// Every op's request and reply cross the machine's wire, so every simulated
// latency carries the wire's seeded jitter.

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/workloads.h"
#include "src/apps/ca.h"
#include "src/apps/distributed.h"
#include "src/apps/hello.h"
#include "src/apps/rootkit_detector.h"
#include "src/apps/ssh.h"
#include "src/crypto/sha1.h"
#include "src/net/lossy_channel.h"

namespace perfbench {
namespace {

using flicker::AikCertificate;
using flicker::AttestationResponse;
using flicker::Bytes;
using flicker::BytesOf;
using flicker::FlickerPlatform;
using flicker::FlickerPlatformConfig;
using flicker::FlickerSessionResult;
using flicker::NetEndpoint;
using flicker::PalBinary;
using flicker::PalBuildOptions;
using flicker::PcrSelection;
using flicker::Result;
using flicker::SessionExpectation;
using flicker::SessionMode;
using flicker::SlbCoreOptions;
using flicker::Status;
using flicker::obs::Hist;

// The paper's totals the simulated latencies are compared against.
constexpr double kTable1RootkitQueryMs = 1022.7;
constexpr double kFig9bLoginMs = 937.6;

// Ops per pass for each second of --seconds; see kRoundsPerSecond in
// fleet_attest.cc for the sizing rule.
constexpr int kOpsPerSecond = 90;
constexpr uint64_t kRefusalOneIn = 4;  // SSH logins and CSRs that must be refused.

enum class OpKind { kHello, kRootkit, kSshLogin, kCaSign, kFactorSlice, kCount };
constexpr int kKinds = static_cast<int>(OpKind::kCount);

struct Op {
  OpKind kind = OpKind::kHello;
  bool concurrent = false;
  bool expect_accept = true;
};

struct Pals {
  PalBinary hello;
  PalBinary rootkit;
  PalBinary ssh;
  PalBinary ca;
  PalBinary factor;
};

// One platform with the app hosts the ops talk to.
struct Machine {
  std::unique_ptr<FlickerPlatform> platform;
  AikCertificate cert;
  std::unique_ptr<flicker::LossyChannel> wire;
  std::unique_ptr<flicker::SshServer> ssh;
  std::unique_ptr<flicker::SshClient> ssh_client;
  std::unique_ptr<flicker::CertificateAuthorityHost> ca;
  std::unique_ptr<flicker::BoincClient> boinc;
};

const char kSshUser[] = "alice";
const char kSshPassword[] = "correct horse";

std::vector<Op> DrawOps(int count, flicker::Drbg* rng) {
  std::vector<Op> ops;
  while (static_cast<int>(ops.size()) < count) {
    std::vector<Op> block;
    for (int kind = 0; kind < kKinds; ++kind) {
      for (bool concurrent : {false, true}) {
        Op op;
        op.kind = static_cast<OpKind>(kind);
        op.concurrent = concurrent;
        block.push_back(op);
      }
    }
    for (size_t i = block.size(); i > 1; --i) {  // Fisher-Yates.
      std::swap(block[i - 1], block[rng->UniformUint64(i)]);
    }
    for (Op& op : block) {
      const bool refusable = op.kind == OpKind::kSshLogin || op.kind == OpKind::kCaSign;
      op.expect_accept = !(refusable && rng->UniformUint64(kRefusalOneIn) == 0);
      if (static_cast<int>(ops.size()) < count) {
        ops.push_back(op);
      }
    }
  }
  return ops;
}

Status BuildPals(SpanRecorder* spans, Pals* pals) {
  PalBuildOptions stub;
  stub.measurement_stub = true;
  auto build = [&](std::shared_ptr<flicker::Pal> pal, const PalBuildOptions& options,
                   PalBinary* out) -> Status {
    ScopedSpan span(spans, "slb.build_pal");
    Result<PalBinary> built = flicker::BuildPal(std::move(pal), options);
    if (!built.ok()) {
      return built.status();
    }
    *out = built.take();
    return Status::Ok();
  };
  FLICKER_RETURN_IF_ERROR(build(std::make_shared<flicker::HelloWorldPal>(), {}, &pals->hello));
  FLICKER_RETURN_IF_ERROR(
      build(std::make_shared<flicker::RootkitDetectorPal>(), {}, &pals->rootkit));
  FLICKER_RETURN_IF_ERROR(build(std::make_shared<flicker::SshPal>(), stub, &pals->ssh));
  FLICKER_RETURN_IF_ERROR(build(std::make_shared<flicker::CaPal>(), stub, &pals->ca));
  return build(std::make_shared<flicker::DistributedPal>(), stub, &pals->factor);
}

Status SetUpMachine(bool concurrent, uint64_t seed, const Pals& pals, flicker::PrivacyCa* ca,
                    SpanRecorder* spans, Machine* machine) {
  FlickerPlatformConfig config;
  config.mode = concurrent ? SessionMode::kConcurrent : SessionMode::kClassic;
  {
    ScopedSpan span(spans, "core.platform_new");
    machine->platform = std::make_unique<FlickerPlatform>(config);
  }
  FlickerPlatform* platform = machine->platform.get();
  if (concurrent) {
    ScopedSpan span(spans, "hv.launch");
    FLICKER_RETURN_IF_ERROR(platform->EnsureHypervisorResident());
  }
  {
    ScopedSpan span(spans, "attest.certify");
    machine->cert =
        ca->Certify(platform->tpm()->aik_public(), concurrent ? "concurrent" : "classic");
  }
  machine->wire = std::make_unique<flicker::LossyChannel>(
      platform->clock(), flicker::LatencyProfile(), seed * 2 + (concurrent ? 1 : 0));

  ScopedSpan span(spans, "apps.setup");
  const Bytes owner = flicker::Sha1::Digest(BytesOf("perfbench-owner"));
  FLICKER_RETURN_IF_ERROR(platform->tpm()->TakeOwnership(owner));
  machine->ssh = std::make_unique<flicker::SshServer>(platform, &pals.ssh);
  FLICKER_RETURN_IF_ERROR(machine->ssh->AddUser(kSshUser, kSshPassword, "a1b2c3d4"));
  machine->ssh_client =
      std::make_unique<flicker::SshClient>(&pals.ssh, ca->public_key(), machine->cert, seed);
  const Bytes setup_nonce = machine->ssh_client->MakeNonce();
  Result<flicker::SshServer::SetupResult> setup = machine->ssh->Setup(setup_nonce);
  if (!setup.ok()) {
    return setup.status();
  }
  FLICKER_RETURN_IF_ERROR(machine->ssh_client->VerifyServerSetup(setup.value(), setup_nonce));
  machine->ca = std::make_unique<flicker::CertificateAuthorityHost>(platform, &pals.ca,
                                                                    "perfbench CA");
  Result<Bytes> ca_key = machine->ca->Initialize(owner);
  if (!ca_key.ok()) {
    return ca_key.status();
  }
  machine->boinc = std::make_unique<flicker::BoincClient>(platform, &pals.factor);
  return machine->boinc->Initialize();
}

// What one op observed, beyond its simulated latency.
struct OpOutcome {
  bool ok = false;
  const FlickerSessionResult* session = nullptr;  // Attested ops only.
  bool accepted_login = false;
};

class Client {
 public:
  Client(const Pals& pals, const flicker::PrivacyCa& ca, SpanRecorder* spans, uint64_t seed)
      : pals_(pals), ca_(ca), spans_(spans), rng_(seed ^ 0x5e55ULL) {}

  // Genuine attestations the verifier accepted / refused.
  uint64_t verified() const { return verified_; }
  uint64_t rejected() const { return rejected_; }

  OpOutcome Run(const Op& op, uint64_t serial, Machine* machine) {
    switch (op.kind) {
      case OpKind::kHello:
      case OpKind::kRootkit:
        return Attested(op.kind == OpKind::kRootkit, op.concurrent, machine);
      case OpKind::kSshLogin:
        return SshLogin(op.expect_accept, machine);
      case OpKind::kCaSign:
        return CaSign(op.expect_accept, serial, machine);
      case OpKind::kFactorSlice:
        return FactorSlice(machine);
      case OpKind::kCount:
        break;
    }
    return OpOutcome();
  }

 private:
  // Carries `payload` across the machine's wire from `from` to its peer.
  Bytes Carry(Machine* machine, NetEndpoint from, const Bytes& payload) {
    ScopedSpan span(spans_, "net.wire");
    const NetEndpoint to =
        from == NetEndpoint::kClient ? NetEndpoint::kServer : NetEndpoint::kClient;
    machine->wire->Send(from, payload);
    Bytes received;
    machine->wire->Receive(to, &received);
    return received;
  }

  OpOutcome Attested(bool rootkit, bool concurrent, Machine* machine) {
    OpOutcome outcome;
    FlickerPlatform* platform = machine->platform.get();
    const PalBinary& binary = rootkit ? pals_.rootkit : pals_.hello;
    const Bytes nonce = rng_.Generate(flicker::kPcrSize);
    SlbCoreOptions options;
    options.nonce = Carry(machine, NetEndpoint::kClient, nonce);
    const Bytes inputs = rootkit ? platform->kernel()->SerializeRegions() : Bytes();
    Result<FlickerSessionResult> session = [&] {
      ScopedSpan span(spans_, concurrent ? "hv.session" : "core.session");
      return platform->ExecuteSession(binary, inputs, options);
    }();
    if (!session.ok() || !session.value().ok()) {
      return outcome;
    }
    last_session_ = session.take();
    outcome.session = &last_session_;
    Result<AttestationResponse> response = [&] {
      ScopedSpan span(spans_, "os.tqd_quote");
      return platform->tqd()->HandleChallenge(options.nonce, PcrSelection({flicker::kSkinitPcr}));
    }();
    if (!response.ok()) {
      return outcome;
    }
    Carry(machine, NetEndpoint::kServer, response.value().quote.signature);
    SessionExpectation expectation;
    expectation.binary = &binary;
    expectation.inputs = inputs;
    expectation.outputs = last_session_.outputs();
    expectation.nonce = nonce;
    if (rootkit) {
      expectation.pal_extends = {last_session_.outputs()};
    }
    const Status verdict = [&] {
      ScopedSpan span(spans_, "attest.verify");
      return flicker::VerifyAttestation(expectation, response.value(), machine->cert,
                                        ca_.public_key(), nonce);
    }();
    ++(verdict.ok() ? verified_ : rejected_);
    const Bytes expected_output =
        rootkit ? platform->kernel()->pristine_measurement() : BytesOf("Hello, world");
    outcome.ok = verdict.ok() && last_session_.outputs() == expected_output;
    return outcome;
  }

  OpOutcome SshLogin(bool correct_password, Machine* machine) {
    OpOutcome outcome;
    const Bytes login_nonce = machine->ssh_client->MakeNonce();
    Result<Bytes> ciphertext = [&] {
      ScopedSpan span(spans_, "apps.ssh_client");
      return machine->ssh_client->EncryptPassword(
          correct_password ? kSshPassword : "wrong horse", login_nonce);
    }();
    if (!ciphertext.ok()) {
      return outcome;
    }
    const Bytes request = Carry(machine, NetEndpoint::kClient, ciphertext.value());
    Result<flicker::SshServer::LoginResult> login = [&] {
      ScopedSpan span(spans_, "apps.ssh_login");
      return machine->ssh->HandleLogin(kSshUser, request, login_nonce);
    }();
    if (!login.ok()) {
      return outcome;
    }
    const Bytes verdict =
        Carry(machine, NetEndpoint::kServer, Bytes(1, login.value().authenticated));
    outcome.ok = verdict == Bytes(1, correct_password);
    outcome.accepted_login = outcome.ok && correct_password;
    return outcome;
  }

  OpOutcome CaSign(bool allowed, uint64_t serial, Machine* machine) {
    OpOutcome outcome;
    flicker::CertificateSigningRequest csr;
    csr.subject = "host-" + std::to_string(serial) +
                  (allowed ? ".corp.example.com" : ".evil.example.net");
    csr.subject_public_key = Bytes(16, static_cast<uint8_t>(serial));
    flicker::CaPolicy policy;
    policy.allowed_suffixes = {".corp.example.com"};
    Carry(machine, NetEndpoint::kClient, csr.Serialize());
    const flicker::CertificateAuthorityHost::SignReport report = [&] {
      ScopedSpan span(spans_, "apps.ca_sign");
      return machine->ca->SignCertificate(csr, policy);
    }();
    if (!allowed) {
      Carry(machine, NetEndpoint::kServer, BytesOf(report.status.ToString()));
      outcome.ok = !report.status.ok();
      return outcome;
    }
    Result<flicker::Certificate> issued = flicker::Certificate::Deserialize(
        Carry(machine, NetEndpoint::kServer, report.certificate.Serialize()));
    outcome.ok = report.status.ok() && issued.ok() &&
                 flicker::CertificateAuthorityHost::VerifyCertificate(machine->ca->ca_public_key(),
                                                                     issued.value());
    return outcome;
  }

  OpOutcome FactorSlice(Machine* machine) {
    OpOutcome outcome;
    flicker::FactorWorkUnit unit;
    unit.composite = (1ULL << 40) + rng_.UniformUint64(1ULL << 40);
    unit.search_limit = 4096;
    // Big enough that the whole unit is one slice, i.e. one session.
    const double slice_ms =
        static_cast<double>(unit.search_limit) /
            machine->platform->machine()->timing().cpu.divisor_tests_per_ms +
        1.0;
    Carry(machine, NetEndpoint::kClient, unit.Serialize());
    const flicker::BoincClient::RunStats stats = [&] {
      ScopedSpan span(spans_, "apps.factor_slice");
      return machine->boinc->Process(unit, slice_ms);
    }();
    Carry(machine, NetEndpoint::kServer, stats.final_outputs);
    outcome.ok = stats.status.ok() && stats.sessions == 1 &&
                 stats.divisors == flicker::BoincServer::ReferenceFactors(unit);
    return outcome;
  }

  const Pals& pals_;
  const flicker::PrivacyCa& ca_;
  SpanRecorder* spans_;
  flicker::Drbg rng_;
  FlickerSessionResult last_session_;
  uint64_t verified_ = 0;
  uint64_t rejected_ = 0;
};

const char* KindName(OpKind kind) {
  static const char* const kNames[] = {"hello", "rootkit", "ssh-login", "ca-sign",
                                       "factor-slice"};
  return kNames[static_cast<int>(kind)];
}

// Signed error of a simulated latency against the paper's figure, in %.
double ErrorPct(double simulated, double paper) { return (simulated - paper) / paper * 100.0; }

}  // namespace

PassResult RunPalSessions(const PassSpec& spec) {
  PassResult result;
  SpanRecorder* spans = spec.spans;
  flicker::Drbg mix(spec.seed);
  const std::vector<Op> ops = DrawOps(kOpsPerSecond * spec.seconds, &mix);

  const double rss_before_kb = CurrentRssKb();
  const uint64_t start_ns = ThreadCpuNs();
  spans->set_op(0);
  Pals pals;
  std::unique_ptr<flicker::PrivacyCa> ca;
  Machine machines[2];  // [0] classic, [1] concurrent.
  Status ready = [&] {
    ScopedSpan span(spans, "bench.setup");
    ca = std::make_unique<flicker::PrivacyCa>(spec.seed);
    FLICKER_RETURN_IF_ERROR(BuildPals(spans, &pals));
    for (int mode = 0; mode < 2; ++mode) {
      FLICKER_RETURN_IF_ERROR(
          SetUpMachine(mode == 1, spec.seed, pals, ca.get(), spans, &machines[mode]));
    }
    return Status::Ok();
  }();
  const uint64_t ready_ns = ThreadCpuNs();
  const double rss_ready_kb = CurrentRssKb();
  if (!ready.ok()) {
    result.errors.push_back("pal-sessions set-up failed: " + ready.ToString());
    return result;
  }

  Client client(pals, *ca, spans, spec.seed);
  Digest digest;
  std::vector<double> pause_ms;
  std::vector<double> classic_session_ms;
  std::vector<double> rootkit_query_ms;
  std::vector<double> login_ms;
  const RegistrySnapshot at_steady = RegistrySnapshot::Take();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Machine* machine = &machines[op.concurrent ? 1 : 0];
    spans->set_op(i + 1);
    ScopedSpan span(spans, "bench.op");
    const double sim_start_ms = machine->platform->clock()->NowMillis();
    const OpOutcome outcome = client.Run(op, i, machine);
    const double sim_ms = machine->platform->clock()->NowMillis() - sim_start_ms;
    ++result.attempted;
    digest.Add(static_cast<uint64_t>(op.kind) * 4 + (op.concurrent ? 2 : 0) +
               (outcome.ok ? 1 : 0));
    digest.Add(sim_ms);
    if (!outcome.ok) {
      ++result.failed;
      if (result.errors.size() < 8) {
        result.errors.push_back("op " + std::to_string(i) + " (" + KindName(op.kind) +
                                (op.concurrent ? ", concurrent" : ", classic") +
                                ") did not return its expected verdict");
      }
      continue;
    }
    ++result.completed;
    result.latencies_ms.push_back(sim_ms);
    result.sim_duration_ms += sim_ms;
    if (outcome.session != nullptr) {
      pause_ms.push_back(outcome.session->os_pause_ms);
      if (!op.concurrent) {
        classic_session_ms.push_back(outcome.session->session_total_ms);
        if (op.kind == OpKind::kRootkit) {
          rootkit_query_ms.push_back(sim_ms);
        }
      }
    }
    if (outcome.accepted_login && !op.concurrent) {
      login_ms.push_back(sim_ms);
    }
  }
  const uint64_t end_ns = ThreadCpuNs();
  const RegistryDelta steady{at_steady, RegistrySnapshot::Take()};
  result.setup_s = static_cast<double>(ready_ns - start_ns) / 1e9;
  result.steady_s = static_cast<double>(end_ns - ready_ns) / 1e9;
  result.digest = digest.value();
  if (client.rejected() != 0) {
    result.errors.push_back(std::to_string(client.rejected()) + " genuine attestations rejected");
  }

  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) {
      sum += x;
    }
    return Ratio(sum, static_cast<double>(v.size()));
  };
  const double rootkit_ms = mean(rootkit_query_ms);
  const double login_mean_ms = mean(login_ms);
  char line[256];
  std::snprintf(line, sizeof(line),
                "accuracy: rootkit query %.3f sim ms vs Table 1 %.1f (%+.3f%%, n=%zu); "
                "SSH login %.3f sim ms vs Fig. 9b %.1f (%+.3f%%, n=%zu)",
                rootkit_ms, kTable1RootkitQueryMs, ErrorPct(rootkit_ms, kTable1RootkitQueryMs),
                rootkit_query_ms.size(), login_mean_ms, kFig9bLoginMs,
                ErrorPct(login_mean_ms, kFig9bLoginMs), login_ms.size());
  result.notes.push_back(line);

  if (spans->enabled()) {
    const double n = static_cast<double>(result.attempted);
    std::map<std::string, double>& layers = result.layers;
    AddRegistryLayers(steady, n, &layers);
    layers["core.platform_new_ms"] = spans->MeanMs("core.platform_new");
    layers["core.session_ms"] = spans->MeanMs("core.session");
    layers["core.session_sim_ms"] = mean(classic_session_ms);
    layers["core.os_pause_ms"] = mean(pause_ms);
    layers["hw.skinit_sim_ms"] = steady.HistMeanMs(Hist::kSkinitLatencyMs);
    layers["hv.launch_ms"] = spans->MeanMs("hv.launch");
    layers["hv.session_ms"] = spans->MeanMs("hv.session");
    layers["os.tqd_quote_ms"] = spans->MeanMs("os.tqd_quote");
    // Ops run one at a time, so one TPM is busy at a time.
    layers["tpm.busy_share"] = Ratio(steady.HistSumMs(Hist::kTpmCommandLatencyMs),
                                     result.sim_duration_ms);
    layers["attest.certify_ms"] = spans->MeanMs("attest.certify");
    layers["attest.verify_ms"] = spans->MeanMs("attest.verify");
    layers["attest.verified"] = static_cast<double>(client.verified());
    layers["attest.rejected"] = static_cast<double>(client.rejected());
    layers["slb.build_pal_ms"] = spans->MeanMs("slb.build_pal");
    layers["hw.rss_per_machine_kb"] = (rss_ready_kb - rss_before_kb) / 2;
    layers["apps.setup_ms"] = spans->MeanMs("apps.setup");
    layers["apps.ssh_login_ms"] = spans->MeanMs("apps.ssh_login");
    layers["apps.ca_sign_ms"] = spans->MeanMs("apps.ca_sign");
    layers["apps.factor_slice_ms"] = spans->MeanMs("apps.factor_slice");
    layers["apps.rootkit_query_sim_ms"] = rootkit_ms;
    layers["apps.rootkit_query_err_pct"] = std::fabs(ErrorPct(rootkit_ms, kTable1RootkitQueryMs));
    layers["apps.ssh_login_sim_ms"] = login_mean_ms;
    layers["apps.ssh_login_err_pct"] = std::fabs(ErrorPct(login_mean_ms, kFig9bLoginMs));
    layers["sim.events"] = 0;  // The closed loop runs without the event engine.
    layers["sim.max_heap"] = 0;
    layers["vtpm.client_retries"] = 0;
  }
  return result;
}

}  // namespace perfbench
