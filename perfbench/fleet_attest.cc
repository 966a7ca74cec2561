// fleet-attest: the flagship fleet shape - 1000 machines and an 8-verifier
// farm on clean wires under a seeded open-loop Poisson client (1 ms mean
// inter-arrival in simulated time), half the machines answering through the
// tqd batch window and 2.5% of rounds running a fresh Flicker session. The
// only workload whose set-up time and memory dominate: Fleet::Build() builds
// a full FlickerPlatform per machine.
//
// Fleet::Build and Fleet::Run are black boxes to the benchmark, so a traced
// pass also times the per-machine and per-round layer calls they make
// (platform construction, AIK certification, PAL build, session, quote,
// verify) on probe machines of the same shape.

#include <memory>

#include "perfbench/bench_stats.h"
#include "perfbench/workloads.h"
#include "src/apps/hello.h"
#include "src/attest/privacy_ca.h"
#include "src/attest/verifier.h"
#include "src/sim/fleet.h"

namespace perfbench {
namespace {

using flicker::AikCertificate;
using flicker::AttestationResponse;
using flicker::Bytes;
using flicker::BytesOf;
using flicker::FlickerPlatform;
using flicker::FlickerPlatformConfig;
using flicker::FlickerSessionResult;
using flicker::PalBinary;
using flicker::PcrSelection;
using flicker::PrivacyCa;
using flicker::Result;
using flicker::SessionExpectation;
using flicker::SlbCoreOptions;
using flicker::Status;
using flicker::obs::Hist;

constexpr int kMachines = 1000;
// Steady-state rounds per pass for each second of --seconds: about 0.3 host
// s per pass-second on a 2.1 GHz Xeon, so the five passes of a run measure
// about 1.5x --seconds of steady state (pal-sessions and vtpm-tenants size
// their passes the same way). Fleets much longer than this grow long queues
// at the unbatched machines, each near saturation, and the p99 then varies
// more from seed to seed.
constexpr int kRoundsPerSecond = 1200;
constexpr int kProbeMachines = 8;

flicker::sim::FleetConfig AttestConfig(const PassSpec& spec) {
  flicker::sim::FleetConfig config;
  config.seed = spec.seed;
  config.num_machines = kMachines;
  config.num_verifiers = 8;
  config.rounds = kRoundsPerSecond * spec.seconds;
  config.mean_interarrival_ms = 1.0;
  config.batched_machines_bp = 5000;
  config.full_session_bp = 250;
  config.round_timeout_ms = 30000.0;
  return config;
}

// The machine shape Fleet::Build gives every machine (FleetPlatformConfig in
// src/sim/fleet.cc), so probe timings hold at the workload's own config.
FlickerPlatformConfig ProbePlatformConfig(const flicker::sim::FleetConfig& fleet) {
  FlickerPlatformConfig config;
  config.machine.memory_bytes = 0x180000;
  config.machine.tpm.key_bits = fleet.tpm_key_bits;
  config.kernel.text_base = 0x120000;
  config.kernel.text_size = 64 * 1024;
  config.kernel.syscall_table_base = 0x134000;
  config.kernel.syscall_table_size = 4096;
  config.kernel.modules_base = 0x136000;
  config.kernel.modules = {{"tpm_tis", 16 * 1024}};
  config.tqd.max_batch_size = fleet.max_batch_size;
  config.tqd.max_batch_wait_ms = fleet.max_batch_wait_ms;
  return config;
}

// One probe machine per op: build it, certify its AIK, run a hello session,
// quote it and verify the quote - what Fleet::Build does per machine and a
// full-session round does per round.
void ProbeLayers(const flicker::sim::FleetConfig& fleet, SpanRecorder* spans,
                 PassResult* result) {
  PrivacyCa ca;
  Result<PalBinary> binary = [&] {
    ScopedSpan span(spans, "slb.build_pal");
    return flicker::BuildPal(std::make_shared<flicker::HelloWorldPal>());
  }();
  if (!binary.ok()) {
    result->errors.push_back("probe: BuildPal failed: " + binary.status().ToString());
    return;
  }
  const FlickerPlatformConfig config = ProbePlatformConfig(fleet);
  flicker::Drbg nonces(fleet.seed ^ 0x9b0bULL);
  for (int k = 0; k < kProbeMachines; ++k) {
    spans->set_op(static_cast<uint64_t>(k) + 1);
    ScopedSpan op(spans, "bench.probe");
    std::unique_ptr<FlickerPlatform> platform = [&] {
      ScopedSpan span(spans, "core.platform_new");
      return std::make_unique<FlickerPlatform>(config);
    }();
    const AikCertificate cert = [&] {
      ScopedSpan span(spans, "attest.certify");
      return ca.Certify(platform->tpm()->aik_public(), "probe-" + std::to_string(k));
    }();
    SlbCoreOptions options;
    options.nonce = nonces.Generate(20);
    Result<FlickerSessionResult> session = [&] {
      ScopedSpan span(spans, "core.session");
      return platform->ExecuteSession(binary.value(), Bytes(), options);
    }();
    if (!session.ok() || !session.value().ok()) {
      result->errors.push_back("probe: hello session failed");
      continue;
    }
    Result<AttestationResponse> response = [&] {
      ScopedSpan span(spans, "os.tqd_quote");
      return platform->tqd()->HandleChallenge(options.nonce,
                                              PcrSelection({flicker::kSkinitPcr}));
    }();
    if (!response.ok()) {
      result->errors.push_back("probe: quote failed: " + response.status().ToString());
      continue;
    }
    SessionExpectation expectation;
    expectation.binary = &binary.value();
    expectation.outputs = session.value().outputs();
    expectation.nonce = options.nonce;
    const Status verdict = [&] {
      ScopedSpan span(spans, "attest.verify");
      return flicker::VerifyAttestation(expectation, response.value(), cert, ca.public_key(),
                                        options.nonce);
    }();
    if (!verdict.ok() || session.value().outputs() != BytesOf("Hello, world")) {
      result->errors.push_back("probe: genuine hello attestation rejected");
    }
  }
  std::map<std::string, double>& layers = result->layers;
  layers["slb.build_pal_ms"] = spans->MeanMs("slb.build_pal");
  layers["core.platform_new_ms"] = spans->MeanMs("core.platform_new");
  layers["attest.certify_ms"] = spans->MeanMs("attest.certify");
  layers["core.session_ms"] = spans->MeanMs("core.session");
  layers["os.tqd_quote_ms"] = spans->MeanMs("os.tqd_quote");
  layers["attest.verify_ms"] = spans->MeanMs("attest.verify");
}

}  // namespace

PassResult RunFleetAttest(const PassSpec& spec) {
  PassResult result;
  SpanRecorder* spans = spec.spans;
  const flicker::sim::FleetConfig config = AttestConfig(spec);

  const double rss_before_kb = CurrentRssKb();
  const uint64_t start_ns = ThreadCpuNs();
  auto fleet = std::make_unique<flicker::sim::Fleet>(config);
  const Status built = [&] {
    ScopedSpan span(spans, "sim.build");
    return fleet->Build();
  }();
  const uint64_t built_ns = ThreadCpuNs();
  const double rss_built_kb = CurrentRssKb();
  const RegistrySnapshot at_steady = RegistrySnapshot::Take();
  const Status ran = [&] {
    ScopedSpan span(spans, "sim.run");
    return fleet->Run();
  }();
  const uint64_t end_ns = ThreadCpuNs();
  const RegistryDelta steady{at_steady, RegistrySnapshot::Take()};
  if (!built.ok() || !ran.ok()) {
    result.errors.push_back("fleet failed: " + (built.ok() ? ran : built).ToString());
    return result;
  }

  const flicker::sim::FleetStats& stats = fleet->stats();
  result.setup_s = static_cast<double>(built_ns - start_ns) / 1e9;
  result.steady_s = static_cast<double>(end_ns - built_ns) / 1e9;
  result.attempted = stats.rounds_injected;
  result.completed = stats.rounds_completed;
  result.failed = stats.rounds_timed_out + stats.rounds_failed;
  result.accepted_wrong = stats.accepted_wrong;
  result.latencies_ms = stats.round_latencies_ms;
  result.sim_duration_ms = stats.sim_duration_ms;
  Digest digest;
  digest.Add(stats.order_digest);
  digest.Add(stats.ToJson(config));
  for (double latency : stats.round_latencies_ms) {
    digest.Add(latency);
  }
  result.digest = digest.value();
  const uint64_t rejected = stats.rounds_rejected + stats.tampered_rejected;
  if (rejected != 0) {
    result.errors.push_back(std::to_string(rejected) +
                            " genuine responses rejected on clean wires");
  }

  if (spans->enabled()) {
    const double ops = static_cast<double>(result.attempted);
    std::map<std::string, double>& layers = result.layers;
    layers["sim.build_s"] = result.setup_s;
    layers["sim.run_s"] = result.steady_s;
    layers["sim.events"] = static_cast<double>(stats.events_processed);
    layers["sim.host_us_per_event"] =
        Ratio(result.steady_s * 1e6, static_cast<double>(stats.events_processed));
    layers["sim.max_heap"] = static_cast<double>(stats.max_heap);
    AddRegistryLayers(steady, ops, &layers);
    layers["tpm.busy_share"] = Ratio(steady.HistSumMs(Hist::kTpmCommandLatencyMs),
                                     stats.sim_duration_ms * config.num_machines);
    layers["attest.verified"] = static_cast<double>(stats.responses_verified);
    layers["attest.rejected"] = static_cast<double>(rejected);
    layers["attest.verifier_utilization"] = stats.VerifierUtilization();
    layers["hw.rss_per_machine_kb"] = (rss_built_kb - rss_before_kb) / config.num_machines;
    layers["vtpm.client_retries"] = 0;  // No vTPM clients in a fleet.
  }
  fleet.reset();  // Tear-down is outside every timed region.
  if (spans->enabled()) {
    ProbeLayers(config, spans, &result);
  }
  return result;
}

}  // namespace perfbench
