#include <unistd.h>

#include <cstdio>

#include "perfbench/workloads.h"

namespace perfbench {

using flicker::obs::Ctr;
using flicker::obs::Hist;
using flicker::obs::MetricsRegistry;

RegistrySnapshot RegistrySnapshot::Take() {
  const MetricsRegistry* registry = MetricsRegistry::Global();
  RegistrySnapshot snap;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i] = registry->Get(static_cast<Ctr>(i));
  }
  for (size_t i = 0; i < snap.hist_count.size(); ++i) {
    snap.hist_count[i] = registry->HistogramCount(static_cast<Hist>(i));
    snap.hist_sum_ms[i] = registry->HistogramSumMs(static_cast<Hist>(i));
  }
  return snap;
}

double RegistryDelta::Ctr(flicker::obs::Ctr c) const {
  const size_t i = static_cast<size_t>(c);
  return static_cast<double>(after.counters[i] - before.counters[i]);
}

double RegistryDelta::HistCount(Hist h) const {
  const size_t i = static_cast<size_t>(h);
  return static_cast<double>(after.hist_count[i] - before.hist_count[i]);
}

double RegistryDelta::HistSumMs(Hist h) const {
  const size_t i = static_cast<size_t>(h);
  return after.hist_sum_ms[i] - before.hist_sum_ms[i];
}

double RegistryDelta::HistMeanMs(Hist h) const { return Ratio(HistSumMs(h), HistCount(h)); }

void AddRegistryLayers(const RegistryDelta& steady, double ops,
                       std::map<std::string, double>* layers) {
  std::map<std::string, double>& out = *layers;
  out["tpm.commands"] = Ratio(steady.Ctr(Ctr::kTpmCommands), ops);
  out["tpm.busy_sim_ms"] = Ratio(steady.HistSumMs(Hist::kTpmCommandLatencyMs), ops);
  out["tpm.faults"] = steady.Ctr(Ctr::kTpmTransportFaults);
  out["os.batch_quotes"] = Ratio(steady.Ctr(Ctr::kTqdBatchQuotes), ops);
  out["os.batched_challenges"] = Ratio(steady.Ctr(Ctr::kTqdBatchedChallenges), ops);
  const double hashes = steady.Ctr(Ctr::kMeasureHashes);
  const double clean_hits = steady.Ctr(Ctr::kMeasureCleanHits);
  const double verified_hits = steady.Ctr(Ctr::kMeasureVerifiedHits);
  out["slb.measure_hashes"] = hashes;
  out["slb.measure_clean_hits"] = clean_hits;
  out["slb.measure_verified_hits"] = verified_hits;
  out["hw.skinit_launches"] = steady.Ctr(Ctr::kSkinitLaunches);
  out["net.sent"] = steady.Ctr(Ctr::kNetMessagesSent);
  out["net.delivered"] = steady.Ctr(Ctr::kNetMessagesDelivered);
  out["vtpm.extends"] = steady.Ctr(Ctr::kVtpmExtends);
  out["vtpm.snapshots"] = steady.Ctr(Ctr::kVtpmSnapshots);
  out["vtpm.recoveries"] = steady.Ctr(Ctr::kVtpmRecoveries);
  out["vtpm.shed"] = steady.Ctr(Ctr::kVtpmShed);
  out["vtpm.quarantines"] = steady.Ctr(Ctr::kVtpmQuarantines);
  out["vtpm.rollbacks_detected"] = steady.Ctr(Ctr::kVtpmRollbacksDetected);

  const double measured = hashes + clean_hits + verified_hits;
  if (measured > 0) {
    out["slb.measure_hit_ratio"] = (clean_hits + verified_hits) / measured;
  }
  const double sent = steady.Ctr(Ctr::kNetMessagesSent);
  if (sent > 0) {
    out["net.delivery_ratio"] = steady.Ctr(Ctr::kNetMessagesDelivered) / sent;
  }
  if (steady.Ctr(Ctr::kHvSessions) > 0) {
    out["hv.exits"] = steady.Ctr(Ctr::kHvExits) / steady.Ctr(Ctr::kHvSessions);
  }
  const std::pair<Hist, const char*> means[] = {
      {Hist::kTqdCoalesceWaitMs, "os.coalesce_wait_ms"},
      {Hist::kVtpmQueueAgeMs, "vtpm.queue_age_ms"},
  };
  for (const auto& [hist, name] : means) {
    if (steady.HistCount(hist) > 0) {
      out[name] = steady.HistMeanMs(hist);
    }
  }
}

double CurrentRssKb() {
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    return 0;
  }
  long size_pages = 0;
  long resident_pages = 0;
  const int read = std::fscanf(statm, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (read != 2) {
    return 0;
  }
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it reports the launching process's RSS whenever that was larger.
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  double peak_kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &peak_kb) == 1) {
      break;
    }
  }
  std::fclose(status);
  return peak_kb / 1024.0;
}

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

const std::vector<MetricName>& EndToEndMetrics() {
  static const std::vector<MetricName> metrics = {
      {"setup_s", "s"},
      {"ops_per_host_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"sim_latency_p50_ms", "ms"},
      {"sim_latency_p99_ms", "ms"},
      {"sim_ops_per_s", "1/s"},
      {"completed_share", "ratio"},
  };
  return metrics;
}

const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> metrics = {
      {"sim.build_s", "s"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.host_us_per_event", "us"},
      {"sim.max_heap", "count"},
      {"core.platform_new_ms", "ms"},
      {"core.session_ms", "ms"},
      {"core.session_sim_ms", "ms"},
      {"core.os_pause_ms", "ms"},
      {"hv.launch_ms", "ms"},
      {"hv.session_ms", "ms"},
      {"hv.exits", "count/session"},
      {"os.tqd_quote_ms", "ms"},
      {"os.batch_quotes", "count/op"},
      {"os.batched_challenges", "count/op"},
      {"os.coalesce_wait_ms", "ms"},
      {"tpm.commands", "count/op"},
      {"tpm.busy_sim_ms", "ms/op"},
      {"tpm.busy_share", "ratio"},
      {"tpm.faults", "count"},
      {"attest.certify_ms", "ms"},
      {"attest.verify_ms", "ms"},
      {"attest.verified", "count"},
      {"attest.rejected", "count"},
      {"attest.verifier_utilization", "ratio"},
      {"slb.build_pal_ms", "ms"},
      {"slb.measure_hashes", "count"},
      {"slb.measure_clean_hits", "count"},
      {"slb.measure_verified_hits", "count"},
      {"slb.measure_hit_ratio", "ratio"},
      {"hw.skinit_launches", "count"},
      {"hw.skinit_sim_ms", "ms"},
      {"hw.rss_per_machine_kb", "KiB"},
      {"net.sent", "count"},
      {"net.delivered", "count"},
      {"net.delivery_ratio", "ratio"},
      {"apps.setup_ms", "ms"},
      {"apps.ssh_login_ms", "ms"},
      {"apps.ca_sign_ms", "ms"},
      {"apps.factor_slice_ms", "ms"},
      {"apps.rootkit_query_sim_ms", "ms"},
      {"apps.rootkit_query_err_pct", "%"},
      {"apps.ssh_login_sim_ms", "ms"},
      {"apps.ssh_login_err_pct", "%"},
      {"vtpm.campaign_s", "s"},
      {"vtpm.hw_quotes", "count/round"},
      {"vtpm.extends", "count"},
      {"vtpm.snapshots", "count"},
      {"vtpm.recoveries", "count"},
      {"vtpm.queue_age_ms", "ms"},
      {"vtpm.shed", "count"},
      {"vtpm.quarantines", "count"},
      {"vtpm.client_retries", "count"},
      {"vtpm.rollbacks_detected", "count"},
      {"vtpm.jain_index", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return metrics;
}

}  // namespace perfbench
