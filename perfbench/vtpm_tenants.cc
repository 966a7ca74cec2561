// vtpm-tenants: the noisy-neighbour vTPM campaign - 6 tenants sharing one
// hardware TPM, one flooding at ~50x its fair rate, one crash-looping on a
// bad owner auth, two power cuts - run once per seed of a list derived from
// the workload seed. Each tenant client is an open-loop Poisson source
// (6 s mean gap for healthy tenants). The only workload that writes to the
// TPM beside reading it (snapshot seals, NV-counter increments, recovery
// unseals) and the only one whose simulated latency is set by contention
// on a single TPM.
//
// An op is a healthy tenant's round; the flooder and the crash-looper are
// load, not ops. RunVtpmCampaign builds its platform internally, so a
// zero-horizon call (no arrivals, no power cuts) is timed as set-up.

#include <algorithm>

#include "perfbench/bench_stats.h"
#include "perfbench/workloads.h"
#include "src/obs/trace.h"
#include "src/vtpm/vtpm_campaign.h"

namespace perfbench {
namespace {

using flicker::vtpm::VtpmCampaignConfig;
using flicker::vtpm::VtpmCampaignStats;

// Campaign seeds per pass for each second of --seconds; see
// kRoundsPerSecond in fleet_attest.cc for the sizing rule.
constexpr int kSeedsPerSecond = 8;
// Campaigns a traced pass re-runs to count hardware quotes.
constexpr size_t kQuoteCountCampaigns = 8;

VtpmCampaignConfig CampaignConfig(uint64_t seed) {
  VtpmCampaignConfig config;
  config.seed = seed;
  config.num_tenants = 6;
  config.flooding_tenant = 0;
  config.crashloop_tenant = 1;
  config.duration_ms = 120000.0;
  config.power_cut_at_ms = {30000.0, 75000.0};
  return config;
}

// The i-th campaign seed of a workload seed (splitmix64 of their mix).
uint64_t CampaignSeed(uint64_t workload_seed, int i) {
  uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(i) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool Healthy(const VtpmCampaignConfig& config, int tenant) {
  return tenant != config.flooding_tenant && tenant != config.crashloop_tenant;
}

// Re-runs a campaign under the program's own tracer, which records every
// command the hardware TPM's transport dispatches as a span named by its
// ordinal, and counts the TPM_ORD_Quote spans. The tracer never moves
// simulated time, so the re-run must repeat `expected_digest`.
flicker::Result<uint64_t> CountHardwareQuotes(const VtpmCampaignConfig& config,
                                              uint64_t expected_digest) {
  const flicker::SimClock tracer_clock;  // Span timestamps are not used.
  flicker::obs::Tracer tracer(&tracer_clock);
  flicker::obs::InstallGlobalTracer(&tracer);
  const flicker::Result<VtpmCampaignStats> rerun = flicker::vtpm::RunVtpmCampaign(config);
  flicker::obs::InstallGlobalTracer(nullptr);
  if (!rerun.ok() || rerun.value().order_digest != expected_digest) {
    return flicker::InternalError("campaign " + std::to_string(config.seed) +
                                  " did not repeat under the program's tracer");
  }
  uint64_t quotes = 0;
  for (const flicker::obs::SpanRecord& span : tracer.spans()) {
    quotes += span.name == "TPM_ORD_Quote" ? 1 : 0;
  }
  return quotes;
}

}  // namespace

PassResult RunVtpmTenants(const PassSpec& spec) {
  PassResult result;
  SpanRecorder* spans = spec.spans;
  const int campaigns = kSeedsPerSecond * spec.seconds;

  std::vector<double> setup_s;
  std::vector<double> jain;
  std::vector<uint64_t> completed_rounds;  // Per campaign, every tenant.
  std::vector<uint64_t> order_digests;     // Per campaign.
  double campaign_s = 0;
  uint64_t events = 0;
  size_t max_heap = 0;
  uint64_t client_retries = 0;
  uint64_t verified = 0;
  uint64_t rejected = 0;
  Digest digest;
  std::vector<VtpmCampaignConfig> configs;
  for (int i = 0; i < campaigns; ++i) {
    configs.push_back(CampaignConfig(CampaignSeed(spec.seed, i)));
  }

  // Set-up: every campaign's zero-horizon call.
  spans->set_op(0);
  {
    ScopedSpan span(spans, "bench.setup");
    for (const VtpmCampaignConfig& config : configs) {
      VtpmCampaignConfig setup_only = config;
      setup_only.duration_ms = 0;
      setup_only.power_cut_at_ms.clear();
      const uint64_t start_ns = ThreadCpuNs();
      flicker::Result<VtpmCampaignStats> built = [&] {
        ScopedSpan build_span(spans, "sim.build");
        return flicker::vtpm::RunVtpmCampaign(setup_only);
      }();
      setup_s.push_back(static_cast<double>(ThreadCpuNs() - start_ns) / 1e9);
      if (!built.ok() || built.value().events_processed != 0) {
        result.errors.push_back("zero-horizon campaign " + std::to_string(config.seed) +
                                " failed or processed events");
      }
    }
  }
  result.setup_s = Median(setup_s);

  const RegistrySnapshot at_steady = RegistrySnapshot::Take();
  for (size_t i = 0; i < configs.size(); ++i) {
    const VtpmCampaignConfig& config = configs[i];
    spans->set_op(i + 1);
    ScopedSpan op(spans, "bench.campaign");
    const uint64_t start_ns = ThreadCpuNs();
    flicker::Result<VtpmCampaignStats> run = [&] {
      ScopedSpan span(spans, "vtpm.campaign");
      return flicker::vtpm::RunVtpmCampaign(config);
    }();
    const double full = static_cast<double>(ThreadCpuNs() - start_ns) / 1e9;
    completed_rounds.push_back(0);
    order_digests.push_back(0);
    if (!run.ok()) {
      result.errors.push_back("campaign " + std::to_string(config.seed) +
                              " failed: " + run.status().ToString());
      continue;
    }
    campaign_s += full;
    // Each campaign call repeats its set-up; the steady state is the rest.
    result.steady_s += full - setup_s[i];

    const VtpmCampaignStats& stats = run.value();
    uint64_t healthy_failed = 0;
    for (int t = 0; t < config.num_tenants; ++t) {
      const flicker::vtpm::VtpmTenantCampaignStats& tenant = stats.tenants[static_cast<size_t>(t)];
      completed_rounds.back() += tenant.completed;
      if (Healthy(config, t)) {
        result.attempted += tenant.injected;
        result.completed += tenant.completed;
        healthy_failed += tenant.failed;
      }
    }
    result.failed += healthy_failed;
    if (healthy_failed != 0) {
      // Healthy tenants should complete every round; name the campaign so
      // micro_vtpm --seed can replay it.
      result.notes.push_back("campaign seed " + std::to_string(config.seed) + ": " +
                             std::to_string(healthy_failed) + " healthy rounds failed");
    }
    result.accepted_wrong += stats.accepted_wrong;
    result.latencies_ms.insert(result.latencies_ms.end(), stats.healthy_latencies_ms.begin(),
                               stats.healthy_latencies_ms.end());
    result.sim_duration_ms += stats.sim_duration_ms;
    events += stats.events_processed;
    max_heap = std::max(max_heap, stats.max_heap);
    client_retries += stats.client_retries;
    verified += stats.responses_verified;
    rejected += stats.rejected;
    jain.push_back(stats.HealthyJainIndex(config));
    order_digests.back() = stats.order_digest;
    digest.Add(stats.order_digest);
    digest.Add(stats.ToJson(config));
  }
  const RegistryDelta delta{at_steady, RegistrySnapshot::Take()};
  result.digest = digest.value();
  if (rejected != 0) {
    result.errors.push_back(std::to_string(rejected) + " genuine vTPM quotes rejected");
  }

  if (spans->enabled()) {
    double jain_sum = 0;
    for (double j : jain) {
      jain_sum += j;
    }
    std::map<std::string, double>& layers = result.layers;
    // Counts cover whole campaign calls, whose own set-up cannot be split
    // off from outside.
    AddRegistryLayers(delta, static_cast<double>(result.attempted), &layers);
    layers["sim.build_s"] = spans->MeanMs("sim.build") / 1e3;
    layers["sim.run_s"] = result.steady_s / campaigns;
    layers["sim.events"] = static_cast<double>(events);
    layers["sim.host_us_per_event"] = Ratio(result.steady_s * 1e6, static_cast<double>(events));
    layers["sim.max_heap"] = static_cast<double>(max_heap);
    // One hardware TPM serves every tenant.
    layers["tpm.busy_share"] =
        Ratio(delta.HistSumMs(flicker::obs::Hist::kTpmCommandLatencyMs), result.sim_duration_ms);
    layers["attest.verified"] = static_cast<double>(verified);
    layers["attest.rejected"] = static_cast<double>(rejected);
    layers["vtpm.campaign_s"] = campaign_s / campaigns;
    // Quotes the hardware TPM signed per round completed by any tenant, over
    // the first campaigns; re-run after the registry delta so it stays out
    // of every other layer count.
    uint64_t hw_quotes = 0;
    uint64_t quoted_rounds = 0;
    for (size_t i = 0; i < std::min(kQuoteCountCampaigns, configs.size()); ++i) {
      const flicker::Result<uint64_t> quotes = CountHardwareQuotes(configs[i], order_digests[i]);
      if (!quotes.ok()) {
        result.errors.push_back(quotes.status().ToString());
        continue;
      }
      hw_quotes += quotes.value();
      quoted_rounds += completed_rounds[i];
    }
    layers["vtpm.hw_quotes"] =
        Ratio(static_cast<double>(hw_quotes), static_cast<double>(quoted_rounds));
    layers["vtpm.client_retries"] = static_cast<double>(client_retries);
    layers["vtpm.jain_index"] = Ratio(jain_sum, static_cast<double>(jain.size()));
  }
  return result;
}

}  // namespace perfbench
