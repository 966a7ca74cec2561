// The repository benchmark: runs one workload and reports its metrics.
//
//   perfbench --workload NAME --seed N --seconds N --trace 0|1 [--spans_out PATH]
//
// --trace 0 runs kPasses passes of the workload with tracing off and prints
// every end-to-end metric. --trace 1 runs two traced and two untraced passes
// and prints every per-layer metric; a layer call the workload never makes
// is measured by a traced pass of a workload that makes it, and the report
// names which. Both modes check the outputs: genuine attestations verify, refusals
// are refusals, nothing tampered is accepted, and everything the seed
// determines repeats exactly from pass to pass. A miss prints the report
// with "correct": false and exits 1.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/bench_stats.h"
#include "perfbench/span_trace.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Passes per untraced run: set-up and steady state are timed once per pass
// and reported as medians.
constexpr int kPasses = 5;

struct Workload {
  const char* name;
  PassResult (*run)(const PassSpec&);
};

const Workload kWorkloads[] = {
    {"fleet-attest", RunFleetAttest},
    {"pal-sessions", RunPalSessions},
    {"vtpm-tenants", RunVtpmTenants},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--spans_out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         (args->trace == 0 || args->trace == 1);
}

double OpsPerHostSecond(const PassResult& pass) {
  return Ratio(static_cast<double>(pass.completed), pass.steady_s);
}

// Everything the seed determines must repeat exactly across passes.
void CheckRepeats(const std::vector<PassResult>& passes, std::vector<std::string>* errors) {
  for (size_t i = 1; i < passes.size(); ++i) {
    const PassResult& a = passes[0];
    const PassResult& b = passes[i];
    if (a.digest != b.digest || a.latencies_ms != b.latencies_ms ||
        a.sim_duration_ms != b.sim_duration_ms || a.attempted != b.attempted ||
        a.completed != b.completed || a.failed != b.failed) {
      errors->push_back("pass " + std::to_string(i) +
                        " did not repeat pass 0 (order digest or simulated results differ)");
    }
  }
}

// Appends a pass's correctness misses to `errors`.
void CheckPass(const PassResult& pass, std::vector<std::string>* errors) {
  errors->insert(errors->end(), pass.errors.begin(), pass.errors.end());
  if (pass.accepted_wrong != 0) {
    errors->push_back("accepted_wrong = " + std::to_string(pass.accepted_wrong));
  }
  if (pass.attempted == 0) {
    errors->push_back("no ops attempted");
  }
}

std::string FormatJsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<MetricName, double>> metrics;

  void Print() const {
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + std::string(metrics[i].first.name) +
              "\": {\"value\": " + FormatJsonNumber(metrics[i].second) + ", \"unit\": \"" +
              metrics[i].first.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

void PrintErrors(const std::vector<std::string>& errors) {
  for (const std::string& error : errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
}

int RunUntraced(const Workload& workload, const Args& args) {
  std::vector<PassResult> passes;
  std::vector<std::string> errors;
  SpanRecorder off(false);
  for (int p = 0; p < kPasses; ++p) {
    passes.push_back(workload.run({args.seed, args.seconds, &off}));
    CheckPass(passes.back(), &errors);
  }
  CheckRepeats(passes, &errors);

  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  Report report;
  for (const PassResult& pass : passes) {
    setup_s.push_back(pass.setup_s);
    ops_per_s.push_back(OpsPerHostSecond(pass));
    report.attempted += pass.attempted;
    report.failed += pass.failed;
  }
  const PassResult& first = passes[0];
  const double values[] = {
      Median(setup_s),
      Median(ops_per_s),
      PeakRssMb(),
      NearestRank(first.latencies_ms, 0.50),
      NearestRank(first.latencies_ms, 0.99),
      Ratio(static_cast<double>(first.completed) * 1e3, first.sim_duration_ms),
      Ratio(static_cast<double>(first.completed), static_cast<double>(first.attempted)),
  };
  if (values[2] <= 0) {
    errors.push_back("cannot read the peak RSS from /proc/self/status");
  }
  for (size_t i = 0; i < EndToEndMetrics().size(); ++i) {
    report.metrics.push_back({EndToEndMetrics()[i], values[i]});
  }

  std::printf("workload %s, seed %" PRIu64 ", %d passes of --seconds %d\n", workload.name,
              args.seed, kPasses, args.seconds);
  std::printf("  ops per pass: %" PRIu64 " attempted, %" PRIu64 " completed, %" PRIu64
              " failed; accepted_wrong %" PRIu64 "; order digest 0x%016" PRIx64 "\n",
              first.attempted, first.completed, first.failed, first.accepted_wrong, first.digest);
  std::printf("  %-20s %14.6f s      median of %zu set-ups\n", "setup_s", values[0],
              setup_s.size());
  std::printf("  %-20s %14.3f 1/s    median of %zu passes, %.3f host s each\n",
              "ops_per_host_s", values[1], ops_per_s.size(), first.steady_s);
  std::printf("  per pass: set-up s");
  for (double v : setup_s) {
    std::printf(" %.4f", v);
  }
  std::printf("; ops per host s");
  for (double v : ops_per_s) {
    std::printf(" %.2f", v);
  }
  std::printf("\n");
  std::printf("  %-20s %14.1f MB\n", "peak_rss_mb", values[2]);
  std::printf("  %-20s %14.3f ms     n=%zu simulated op latencies\n", "sim_latency_p50_ms",
              values[3], first.latencies_ms.size());
  std::printf("  %-20s %14.3f ms     n=%zu (%zu beyond the p99)\n", "sim_latency_p99_ms",
              values[4], first.latencies_ms.size(), first.latencies_ms.size() / 100);
  std::printf("  %-20s %14.3f 1/s    over %.3f simulated s\n", "sim_ops_per_s", values[5],
              first.sim_duration_ms / 1e3);
  std::printf("  %-20s %14.6f        %" PRIu64 " of %" PRIu64 " ops (failed_share %.6f)\n",
              "completed_share", values[6], first.completed, first.attempted, 1 - values[6]);
  for (const std::string& note : first.notes) {
    std::printf("  %s\n", note.c_str());
  }
  PrintErrors(errors);
  report.correct = errors.empty();
  report.Print();
  return report.correct ? 0 : 1;
}

void PrintLayerProfile(const SpanRecorder& spans, uint64_t ops) {
  std::printf("  layer self time per op (host ms, n=%" PRIu64 " ops):", ops);
  for (const auto& [layer, ns] : spans.LayerSelfNs()) {
    std::printf(" %s %.4f", layer.c_str(),
                static_cast<double>(ns) / 1e6 / static_cast<double>(ops));
  }
  std::printf("\n");
}

int RunTraced(const Workload& workload, const Args& args) {
  std::vector<std::string> errors;
  // Traced, untraced, untraced, traced: the order cancels a linear drift in
  // host speed out of the overhead. The layer metrics come from the first
  // pass, run in a fresh process, so its RSS deltas see memory the process
  // has not yet freed and reused.
  SpanRecorder on(true);
  SpanRecorder off(false);
  SpanRecorder on_again(true);
  std::vector<PassResult> passes;
  for (SpanRecorder* spans : {&on, &off, &off, &on_again}) {
    passes.push_back(workload.run({args.seed, args.seconds, spans}));
    CheckPass(passes.back(), &errors);
  }
  CheckRepeats(passes, &errors);
  // Self times add up to their root span by construction: SelfTimeNs takes
  // off the union of the children, clipped to the parent. What they rely on
  // is nesting, and that can break: every close must close the innermost
  // open span, and no span may be left open.
  for (const SpanRecorder* spans : {&on, &on_again}) {
    if (spans->misnested() != 0 || spans->any_open()) {
      errors.push_back("spans closed out of nesting order or left open");
    }
  }
  const PassResult& traced = passes[0];

  std::map<std::string, double> layers = traced.layers;
  std::map<std::string, std::string> source;
  for (const auto& [name, value] : layers) {
    source[name] = workload.name;
  }
  const double traced_ops = OpsPerHostSecond(passes[0]) + OpsPerHostSecond(passes[3]);
  const double plain_ops = OpsPerHostSecond(passes[1]) + OpsPerHostSecond(passes[2]);
  layers["obs.trace_overhead_pct"] = Ratio(plain_ops - traced_ops, plain_ops) * 100;
  source["obs.trace_overhead_pct"] = workload.name;

  std::printf("workload %s, seed %" PRIu64
              ", traced, untraced, untraced, traced passes of --seconds %d\n",
              workload.name, args.seed, args.seconds);
  PrintLayerProfile(on, traced.attempted);
  std::string spans_json = on.ToJsonLines();
  for (const Workload& other : kWorkloads) {
    if (&other == &workload) {
      continue;
    }
    SpanRecorder other_spans(true);
    const PassResult filler = other.run({args.seed, args.seconds, &other_spans});
    CheckPass(filler, &errors);
    for (const auto& [name, value] : filler.layers) {
      if (layers.emplace(name, value).second) {
        source[name] = other.name;
      }
    }
  }

  Report report;
  for (const PassResult& pass : passes) {
    report.attempted += pass.attempted;
    report.failed += pass.failed;
  }
  for (const MetricName& metric : PerLayerMetrics()) {
    auto it = layers.find(metric.name);
    if (it == layers.end()) {
      errors.push_back(std::string("no workload measured ") + metric.name);
      continue;
    }
    report.metrics.push_back({metric, it->second});
    std::printf("  %-30s %16.6f %-13s (%s)\n", metric.name, it->second, metric.unit,
                source[metric.name].c_str());
  }
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out, std::ios::binary);
    out << spans_json;
    if (!out) {
      errors.push_back("cannot write " + args.spans_out);
    } else {
      std::printf("  %zu spans written to %s\n", on.spans().size(), args.spans_out.c_str());
    }
  }
  PrintErrors(errors);
  report.correct = errors.empty();
  report.Print();
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds N --trace 0|1 "
                 "[--spans_out PATH]\n");
    return 2;
  }
  for (const perfbench::Workload& workload : perfbench::kWorkloads) {
    if (args.workload == workload.name) {
      return args.trace == 1 ? perfbench::RunTraced(workload, args)
                             : perfbench::RunUntraced(workload, args);
    }
  }
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
