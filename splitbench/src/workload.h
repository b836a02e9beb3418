// The benchmark's workloads and the bookkeeping they share.
//
// One run = one cold set-up, then whole rounds until --seconds have passed. A round
// builds a fresh simulated machine (warm set-up, not reported), runs the workload's
// fixed work, power-cuts the device, recovers, checks every output against the
// benchmark's own model and reports one value per metric. The run reports the median
// round.
#ifndef SPLITBENCH_WORKLOAD_H_
#define SPLITBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"
#include "src/obs/contention.h"
#include "src/pmem/device.h"
#include "src/sim/context.h"
#include "src/sim/stats.h"

namespace splitbench {

using Metrics = std::map<std::string, double>;

struct RoundResult {
  Metrics metrics;
  uint64_t attempted = 0;  // Foreground ops issued plus crash states swept.
  uint64_t failed = 0;     // Of those, ops the program answered with an error.
  std::vector<std::string> problems;  // Failed output checks.

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Device, K-Split mount, U-Split or tenant mounts, untimed preload.
  virtual void Setup() = 0;
  // The fixed work: timed phase, power cut, recovery, checks (and crash sweep).
  virtual void Run(RoundResult* out) = 0;
  // Destroys the simulated machine.
  virtual void Teardown() = 0;
};

std::unique_ptr<Workload> MakeKvYcsb(uint64_t seed);
std::unique_ptr<Workload> MakeMixedModes(uint64_t seed);
std::unique_ptr<Workload> MakeCrashSweep(uint64_t seed);

// --- Shared helpers ----------------------------------------------------------------------

// Builds a device, timing its construction (pmem.device_create_s) with a span.
std::unique_ptr<pmem::Device> CreateDevice(sim::Context* ctx, uint64_t bytes,
                                           double* create_s);

// Copy of every sim::Stats counter, for phase deltas.
struct StatsSnap {
  uint64_t fences = 0, page_faults = 0, syscalls = 0, commits = 0, media_ns = 0;
  uint64_t w_data = 0, w_meta = 0, w_journal = 0, w_log = 0;
  uint64_t r_data = 0, r_meta = 0, r_journal = 0, r_log = 0, r_staging = 0;

  static StatsSnap Of(const sim::Stats& s);
  StatsSnap Minus(const StatsSnap& base) const;
};

// Contention-ledger wait totals grouped by layer.
struct Waits {
  uint64_t core_range_ns = 0;    // U-Split range locks and the strict range-log gate.
  uint64_t core_staging_ns = 0;  // Staging slow path and staging QoS throttles.
  uint64_t ext4_journal_ns = 0;  // Journal pipeline, commit and checkpoint waits.
  uint64_t ext4_lock_ns = 0;     // K-Split inode, range and dentry locks.

  static Waits Of(const obs::ContentionLedger& ledger);
  Waits Minus(const Waits& base) const;
};

// Interpolated percentile (q in [0, 1]) of `v`; sorts `v`.
double Percentile(std::vector<uint64_t>* v, double q);

// Everything one timed phase measured, turned into metrics: the end-to-end sim
// metrics and every layer metric the phase can see.
struct PhaseTotals {
  std::vector<const Recorder*> lanes;
  std::vector<uint64_t> lane_sim_ns;  // Elapsed simulated time per lane.
  StatsSnap stats;                    // Delta over the phase.
  Waits waits;                        // Delta over the phase.
};
void AddPhaseMetrics(const PhaseTotals& p, Metrics* m);

// Zero-valued defaults for every per-layer metric, so each workload reports the full
// set; the workload overwrites what it measures.
void AddLayerDefaults(Metrics* m);

// Runs `fn` and returns the simulated ms it charged on `clock`, inside a span.
template <typename F>
double SimMs(const char* span, sim::Clock* clock, F&& fn) {
  ScopedSpan s(span, clock);
  uint64_t t0 = clock->Now();
  fn();
  return static_cast<double>(clock->Now() - t0) / 1e6;
}

}  // namespace splitbench

#endif  // SPLITBENCH_WORKLOAD_H_
