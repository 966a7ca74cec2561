// Shared report helpers for the simulated campaigns (fleet, hv, vtpm, chaos
// fuzz): the fixed-precision number and digest formats their same-seed
// reports are compared byte-for-byte in, the nearest-rank percentile rule,
// the JSON blocks more than one report writes identically, Jain's fairness
// index and the exponential inter-arrival draw.
//
// Two rules deliberately live elsewhere: the fleet's own arrival draw
// (divisor 2^30 + 1, rounded to the ns) and VerifierHealthTracker's p95
// (1-based rank round(0.95 n)). Both feed digest-pinned simulation results,
// so folding them in here would need a helper that branched on its caller.

#ifndef FLICKER_SRC_SIM_REPORT_H_
#define FLICKER_SRC_SIM_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace flicker {

class Drbg;

namespace sim {

// "%.3f": a fixed-precision float for byte-identical same-seed reports.
std::string F3(double value);

// An executor order digest as reports print it: "0x%016llx".
std::string HexDigest(uint64_t digest);

// Nearest-rank percentile, p in [0,1]: the sample at index round(p * (n-1))
// of the sorted samples, so p = 1 is the max. 0 when there are none.
double NearestRankPercentile(std::vector<double> samples, double p);

// Writes `  "latency_ms": {"p50": .., "p90": .., "p99": .., "max": ..},`
// plus a newline, sorting the samples once.
void WriteLatencyBlock(std::ostream& os, std::vector<double> samples);

// Writes the last block of the hv and vTPM reports:
// `  "engine": {"events": .., "max_heap": .., "sim_duration_ms": ..,
// "order_digest": ".."}` plus a newline.
void WriteEngineBlock(std::ostream& os, uint64_t events, size_t max_heap,
                      double sim_duration_ms, uint64_t order_digest);

// Jain's fairness index over per-actor allocations (throughput, quotes, ...):
// (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair, 1/n = one actor gets
// everything; 1.0 by convention for empty/all-zero inputs. The vTPM
// noisy-neighbor campaign reports it over healthy tenants' completed quotes.
double JainFairnessIndex(const std::vector<double>& allocations);

// One exponential inter-arrival gap with mean `mean_ms`: -mean * ln(u) for
// u = (UniformUint64(2^30) + 1) / 2^30 in (0, 1]. The hv rounds and attacks
// and the vTPM tenants draw their Poisson arrivals with it.
double ExponentialGapMs(Drbg* rng, double mean_ms);

}  // namespace sim
}  // namespace flicker

#endif  // FLICKER_SRC_SIM_REPORT_H_
