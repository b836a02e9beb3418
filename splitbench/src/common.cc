#include <algorithm>
#include <cmath>

#include "metric_names.h"
#include "workload.h"

namespace splitbench {

std::unique_ptr<pmem::Device> CreateDevice(sim::Context* ctx, uint64_t bytes,
                                           double* create_s) {
  ScopedSpan span("pmem.device_create", nullptr);
  int64_t h0 = HostNs();
  auto dev = std::make_unique<pmem::Device>(ctx, bytes);
  *create_s = static_cast<double>(HostNs() - h0) / 1e9;
  return dev;
}

StatsSnap StatsSnap::Of(const sim::Stats& s) {
  StatsSnap o;
  o.fences = s.fences();
  o.page_faults = s.page_faults();
  o.syscalls = s.syscalls();
  o.commits = s.journal_commits();
  o.media_ns = s.data_media_ns();
  o.w_data = s.data_bytes();
  o.w_meta = s.metadata_bytes();
  o.w_journal = s.journal_bytes();
  o.w_log = s.log_bytes();
  o.r_data = s.read_data_bytes();
  o.r_meta = s.read_metadata_bytes();
  o.r_journal = s.read_journal_bytes();
  o.r_log = s.read_log_bytes();
  o.r_staging = s.read_staging_bytes();
  return o;
}

StatsSnap StatsSnap::Minus(const StatsSnap& b) const {
  StatsSnap o;
  o.fences = fences - b.fences;
  o.page_faults = page_faults - b.page_faults;
  o.syscalls = syscalls - b.syscalls;
  o.commits = commits - b.commits;
  o.media_ns = media_ns - b.media_ns;
  o.w_data = w_data - b.w_data;
  o.w_meta = w_meta - b.w_meta;
  o.w_journal = w_journal - b.w_journal;
  o.w_log = w_log - b.w_log;
  o.r_data = r_data - b.r_data;
  o.r_meta = r_meta - b.r_meta;
  o.r_journal = r_journal - b.r_journal;
  o.r_log = r_log - b.r_log;
  o.r_staging = r_staging - b.r_staging;
  return o;
}

namespace {
bool StartsWith(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }
bool EndsWith(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
}
}  // namespace

Waits Waits::Of(const obs::ContentionLedger& ledger) {
  Waits w;
  for (const auto& [name, e] : ledger.Snapshot()) {
    if (StartsWith(name, "splitfs.")) {
      w.core_range_ns += e.waited_ns;
    } else if (StartsWith(name, "staging.") || EndsWith(name, ".staging_throttle")) {
      w.core_staging_ns += e.waited_ns;
    } else if (StartsWith(name, "journal.") || EndsWith(name, ".journal_credits")) {
      w.ext4_journal_ns += e.waited_ns;
    } else if (StartsWith(name, "ext4.") || StartsWith(name, "vfs.")) {
      w.ext4_lock_ns += e.waited_ns;
    }
  }
  return w;
}

Waits Waits::Minus(const Waits& b) const {
  return {core_range_ns - b.core_range_ns, core_staging_ns - b.core_staging_ns,
          ext4_journal_ns - b.ext4_journal_ns, ext4_lock_ns - b.ext4_lock_ns};
}

double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  double rank = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = rank - static_cast<double>(lo);
  return static_cast<double>((*v)[lo]) * (1 - frac) + static_cast<double>((*v)[hi]) * frac;
}

void AddLayerDefaults(Metrics* m) {
  for (const MetricName& n : LayerMetricNames()) {
    (*m)[n.name] = 0;
  }
}

void AddPhaseMetrics(const PhaseTotals& p, Metrics* m) {
  std::vector<uint64_t> samples;
  Recorder sum;
  for (const Recorder* r : p.lanes) {
    samples.insert(samples.end(), r->op_sim_ns.begin(), r->op_sim_ns.end());
    for (size_t i = 0; i < kFsOpCount; ++i) {
      sum.fs[i].calls += r->fs[i].calls;
      sum.fs[i].sim_ns += r->fs[i].sim_ns;
      sum.fs[i].host_ns += r->fs[i].host_ns;
    }
  }
  const double ops = static_cast<double>(samples.size());
  uint64_t phase_ns = 0;
  uint64_t lanes_ns = 0;
  for (uint64_t t : p.lane_sim_ns) {
    phase_ns = std::max(phase_ns, t);
    lanes_ns += t;
  }
  // The phase ends when its slowest lane ends.
  (*m)["sim_kops"] = phase_ns == 0 ? 0 : ops * 1e6 / static_cast<double>(phase_ns);
  (*m)["sim_p50_ns"] = Percentile(&samples, 0.5);
  (*m)["sim_p999_ns"] = Percentile(&samples, 0.999);
  // §5.7: time not spent moving user payload on PM media, per op, summed over lanes.
  double overhead = static_cast<double>(lanes_ns) - static_cast<double>(p.stats.media_ns);
  (*m)["sim_sw_overhead_ns"] = ops == 0 ? 0 : std::max(0.0, overhead) / ops;

  const StatsSnap& s = p.stats;
  (*m)["pmem.fences"] = static_cast<double>(s.fences);
  (*m)["pmem.write_bytes.data"] = static_cast<double>(s.w_data);
  (*m)["pmem.write_bytes.metadata"] = static_cast<double>(s.w_meta);
  (*m)["pmem.write_bytes.journal"] = static_cast<double>(s.w_journal);
  (*m)["pmem.write_bytes.log"] = static_cast<double>(s.w_log);
  (*m)["pmem.read_bytes.data"] = static_cast<double>(s.r_data);
  (*m)["pmem.read_bytes.metadata"] = static_cast<double>(s.r_meta);
  (*m)["pmem.read_bytes.journal"] = static_cast<double>(s.r_journal);
  (*m)["pmem.read_bytes.log"] = static_cast<double>(s.r_log);
  (*m)["pmem.read_bytes.staging"] = static_cast<double>(s.r_staging);
  (*m)["pmem.media_ns"] = static_cast<double>(s.media_ns);
  (*m)["pmem.page_faults"] = static_cast<double>(s.page_faults);
  (*m)["ext4.traps"] = static_cast<double>(s.syscalls);
  (*m)["ext4.journal_commits"] = static_cast<double>(s.commits);
  (*m)["core.wait_range_ns"] = static_cast<double>(p.waits.core_range_ns);
  (*m)["core.wait_staging_ns"] = static_cast<double>(p.waits.core_staging_ns);
  (*m)["ext4.wait_journal_ns"] = static_cast<double>(p.waits.ext4_journal_ns);
  (*m)["ext4.wait_lock_ns"] = static_cast<double>(p.waits.ext4_lock_ns);
  for (FsOp op : kReportedFsOps) {
    const CallTotals& t = sum.fs[static_cast<size_t>(op)];
    std::string base = std::string("core.") + FsOpName(op);
    (*m)[base + ".calls"] = static_cast<double>(t.calls);
    (*m)[base + ".sim_ns"] = static_cast<double>(t.sim_ns);
    (*m)[base + ".host_ns"] = static_cast<double>(t.host_ns);
  }
}

}  // namespace splitbench
