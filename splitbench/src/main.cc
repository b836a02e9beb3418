// splitbench: one benchmark binary for the SplitFS simulation.
//
//   splitbench --workload <kv_ycsb|mixed_modes|crash_sweep> --seed <n> --seconds <s>
//              --trace <0|1> [--trace-out <file>]
//
// Runs one cold set-up, then whole rounds of the workload's fixed work until
// --seconds of host time have passed (at least one round), and prints as its last
// stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 spans are recorded
// at every boundary the benchmark wraps and the metrics are the per-layer ones.
// Progress and failed checks go to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "metric_names.h"
#include "workload.h"

namespace splitbench {
namespace {

// Peak resident set of this process, from /proc/self/status (VmHWM, in kB).
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: splitbench --workload <kv_ycsb|mixed_modes|crash_sweep> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv, int64_t process_start) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(val);
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || seconds < 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::unique_ptr<Workload> wl;
  if (workload == "kv_ycsb") {
    wl = MakeKvYcsb(seed);
  } else if (workload == "mixed_modes") {
    wl = MakeMixedModes(seed);
  } else if (workload == "crash_sweep") {
    wl = MakeCrashSweep(seed);
  } else {
    return Usage();
  }
  SpanLog& spans = SpanLog::Get();
  spans.Enable(trace == 1);

  std::vector<RoundResult> rounds;
  double setup_s = 0;
  int64_t measure_start = 0;
  size_t span_count = 0;
  for (int round = 0;; ++round) {
    spans.Clear();
    spans.AttachThread(0);
    int64_t h0 = HostNs();
    wl->Setup();
    int64_t h1 = HostNs();
    if (round == 0) {
      setup_s = static_cast<double>(h1 - process_start) / 1e9;
      measure_start = h1;
    }
    RoundResult r;
    wl->Run(&r);
    int64_t h2 = HostNs();
    r.metrics["run_s"] = static_cast<double>(h2 - h1) / 1e9;
    span_count = spans.Collect().size();
    std::fprintf(stderr, "splitbench %s seed %llu round %d: setup %.3f s, run %.3f s%s\n",
                 workload.c_str(), static_cast<unsigned long long>(seed), round,
                 static_cast<double>(h1 - h0) / 1e9, static_cast<double>(h2 - h1) / 1e9,
                 r.problems.empty() ? "" : ", CHECKS FAILED");
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "  check failed: %s\n", p.c_str());
    }
    const bool last = HostNs() - measure_start >= seconds * 1e9;
    if (trace == 1 && !trace_out.empty() && last) {
      // The trace file holds the last round's spans.
      if (!WriteTrace(trace_out, spans.Collect())) {
        std::fprintf(stderr, "splitbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }
    wl->Teardown();
    rounds.push_back(std::move(r));
    if (last) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RoundResult& r : rounds) {
    correct = correct && r.problems.empty() && r.failed == 0;
    attempted += r.attempted;
    failed += r.failed;
  }
  auto median_of = [&rounds](const std::string& name) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      auto it = r.metrics.find(name);
      v.push_back(it == r.metrics.end() ? 0 : it->second);
    }
    return Median(v);
  };
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const auto& names = trace == 1 ? LayerMetricNames() : EndToEndMetricNames();
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string name = names[i].name;
    double v;
    if (name == "setup_s") {
      v = setup_s;
    } else if (name == "peak_rss_mib") {
      v = PeakRssMib();
    } else if (name == "trace.run_s") {
      v = median_of("run_s");
    } else if (name == "trace.spans") {
      v = static_cast<double>(span_count);
    } else {
      v = median_of(name);
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].name, v, names[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace splitbench

int main(int argc, char** argv) {
  const int64_t process_start = splitbench::HostNs();
  return splitbench::Main(argc, argv, process_start);
}
