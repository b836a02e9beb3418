// Every metric the benchmark reports, with its unit. BENCHMARK.json at the
// repository root lists the same names; run.py checks that the two agree.
#ifndef SPLITBENCH_METRIC_NAMES_H_
#define SPLITBENCH_METRIC_NAMES_H_

#include <vector>

namespace splitbench {

struct MetricName {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. All are medians over the run's rounds, except setup_s
// (the run's one cold set-up) and peak_rss_mib (the process peak).
inline const std::vector<MetricName>& EndToEndMetricNames() {
  static const std::vector<MetricName> kNames = {
      {"setup_s", "s"},          {"run_s", "s"},
      {"peak_rss_mib", "MiB"},   {"sim_kops", "kops/s"},
      {"sim_p50_ns", "ns"},      {"sim_p999_ns", "ns"},
      {"sim_sw_overhead_ns", "ns"}, {"sim_recovery_ms", "ms"},
  };
  return kNames;
}

// Printed with --trace 1 (medians over the traced run's rounds).
inline const std::vector<MetricName>& LayerMetricNames() {
  static const std::vector<MetricName> kNames = {
      {"pmem.device_create_s", "s"},
      {"pmem.fences", "count"},
      {"pmem.write_bytes.data", "B"},
      {"pmem.write_bytes.metadata", "B"},
      {"pmem.write_bytes.journal", "B"},
      {"pmem.write_bytes.log", "B"},
      {"pmem.read_bytes.data", "B"},
      {"pmem.read_bytes.metadata", "B"},
      {"pmem.read_bytes.journal", "B"},
      {"pmem.read_bytes.log", "B"},
      {"pmem.read_bytes.staging", "B"},
      {"pmem.media_ns", "ns"},
      {"pmem.page_faults", "count"},
      {"core.open.calls", "count"},
      {"core.open.sim_ns", "ns"},
      {"core.open.host_ns", "ns"},
      {"core.close.calls", "count"},
      {"core.close.sim_ns", "ns"},
      {"core.close.host_ns", "ns"},
      {"core.read.calls", "count"},
      {"core.read.sim_ns", "ns"},
      {"core.read.host_ns", "ns"},
      {"core.write.calls", "count"},
      {"core.write.sim_ns", "ns"},
      {"core.write.host_ns", "ns"},
      {"core.fsync.calls", "count"},
      {"core.fsync.sim_ns", "ns"},
      {"core.fsync.host_ns", "ns"},
      {"core.rename.calls", "count"},
      {"core.rename.sim_ns", "ns"},
      {"core.rename.host_ns", "ns"},
      {"core.unlink.calls", "count"},
      {"core.unlink.sim_ns", "ns"},
      {"core.unlink.host_ns", "ns"},
      {"core.relinks", "count"},
      {"core.checkpoints", "count"},
      {"core.oplog_entries", "count"},
      {"core.wait_range_ns", "ns"},
      {"core.wait_staging_ns", "ns"},
      {"core.recover_sim_ms", "ms"},
      {"core.recover_log_read_bytes", "B"},
      {"ext4.traps", "count"},
      {"ext4.journal_commits", "count"},
      {"ext4.wait_journal_ns", "ns"},
      {"ext4.wait_lock_ns", "ns"},
      {"ext4.recover_sim_ms", "ms"},
      {"apps.kv.ops", "count"},
      {"apps.kv.self_sim_ns", "ns"},
      {"apps.kv.flushes", "count"},
      {"apps.kv.compactions", "count"},
      {"apps.kv.reopen_sim_ms", "ms"},
      {"tenant.posix.sim_kops", "kops/s"},
      {"tenant.sync.sim_kops", "kops/s"},
      {"tenant.strict.sim_kops", "kops/s"},
      {"crash.states", "count"},
      {"crash.fence_points", "count"},
      {"crash.store_points", "count"},
      {"crash.states_per_s", "1/s"},
      {"crash.world_create_s", "s"},
      {"trace.run_s", "s"},
      {"trace.spans", "count"},
  };
  return kNames;
}

}  // namespace splitbench

#endif  // SPLITBENCH_METRIC_NAMES_H_
