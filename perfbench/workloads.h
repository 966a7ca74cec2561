// The three benchmark workloads and what one pass of each reports.
//
// A run repeats a workload's pass several times with the same seed: host
// times are reported as medians over the passes, and everything the seed
// determines (simulated latencies, counts, order digests) must repeat
// exactly from pass to pass.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/span_trace.h"
#include "src/obs/metrics.h"

namespace perfbench {

struct PassSpec {
  uint64_t seed = 1;
  int seconds = 10;
  SpanRecorder* spans = nullptr;  // Never null; disabled on untraced passes.
};

struct PassResult {
  double setup_s = 0;   // Host s from pass start to the first steady-state op.
  double steady_s = 0;  // Host s of the steady state.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // Failed, timed out or wrongly rejected.
  uint64_t accepted_wrong = 0;
  std::vector<double> latencies_ms;  // Simulated, one per completed op.
  double sim_duration_ms = 0;        // Simulated time the completed ops span.
  // Fingerprint of everything the seed determines; must repeat exactly.
  uint64_t digest = 0;
  // Per-layer metrics; filled on traced passes only.
  std::map<std::string, double> layers;
  std::vector<std::string> errors;  // Correctness misses.
  std::vector<std::string> notes;   // Extra human-readable report lines.
};

PassResult RunFleetAttest(const PassSpec& spec);
PassResult RunPalSessions(const PassSpec& spec);
PassResult RunVtpmTenants(const PassSpec& spec);

// ---- Shared by the workloads (layers.cc) ----

// The process-global metrics registry, read from outside. Layer counts are
// always deltas between two snapshots, so no pass's counts leak into
// another's.
struct RegistrySnapshot {
  std::array<uint64_t, static_cast<size_t>(flicker::obs::Ctr::kCount)> counters{};
  std::array<uint64_t, static_cast<size_t>(flicker::obs::Hist::kCount)> hist_count{};
  std::array<double, static_cast<size_t>(flicker::obs::Hist::kCount)> hist_sum_ms{};

  static RegistrySnapshot Take();
};

struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  double Ctr(flicker::obs::Ctr c) const;
  double HistCount(flicker::obs::Hist h) const;
  double HistSumMs(flicker::obs::Hist h) const;
  double HistMeanMs(flicker::obs::Hist h) const;  // 0 when no observations.
};

// The layer metrics every workload reads the same way from a registry delta
// over its steady state: counts (per op where the unit says so) and means of
// histograms that saw at least one observation. Ratios over nothing and
// means of nothing are left out, for another workload to supply.
// Simulated session, SKINIT and OS-pause lengths are pal-sessions metrics
// (its PAL mix sets them); the fleet's hello sessions all take the same time.
void AddRegistryLayers(const RegistryDelta& steady, double ops,
                       std::map<std::string, double>* layers);

// Resident set size now, from /proc/self/statm, in KiB.
double CurrentRssKb();
// Peak resident set size of this program so far (VmHWM), in MiB; 0 when
// /proc/self/status cannot be read.
double PeakRssMb();

double Ratio(double numerator, double denominator);  // 0 when denominator is 0.

// The per-layer metrics every traced run prints, in report order, with
// their units.
struct MetricName {
  const char* name;
  const char* unit;
};
const std::vector<MetricName>& PerLayerMetrics();
const std::vector<MetricName>& EndToEndMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
