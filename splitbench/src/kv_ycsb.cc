// kv_ycsb: the paper's headline application (§5.8). One thread runs the LevelDB-shaped
// apps::KvLsm on SplitFS-strict (default Options) and serves YCSB workload A over a
// preloaded keyspace: 50% reads, 50% updates, scrambled-zipfian keys (theta 0.99),
// ~1 KB values, across many memtable flushes and compactions.
//
// Checks: every Get matches a std::map model of the last acknowledged Put; after the
// power cut, K-Split + U-Split recovery and a KvLsm reopen, every key reads back its
// model value (strict mode: every acknowledged op is durable and atomic); fsck is
// clean; the phase's simulated time equals the decorator-timed FS time plus the
// store's per-op CPU charge; PM user-data writes cover the acknowledged payload.
#include <optional>

#include "inputs.h"
#include "src/apps/kv_lsm.h"
#include "src/common/bytes.h"
#include "src/core/split_fs.h"
#include "src/ext4/fsck.h"
#include "workload.h"

namespace splitbench {
namespace {

constexpr uint64_t kDeviceBytes = 4 * common::kGiB;
constexpr uint64_t kRecords = 16384;
constexpr uint64_t kOps = 32768;
constexpr double kZipfTheta = 0.99;
constexpr double kReadShare = 0.5;
// ~1 KB values: uniform in [896, 1152] bytes, so op costs vary with the input.
constexpr uint64_t kValueMin = 896;
constexpr uint64_t kValueMax = 1152;
// A 1 MiB memtable flushes every ~1000 updates, so one round sees tens of flushes
// and several compactions of the whole keyspace.
constexpr uint64_t kMemtableBytes = 1 * common::kMiB;
const char* const kDbDir = "/ycsb";

class KvYcsb : public Workload {
 public:
  explicit KvYcsb(uint64_t seed) : seed_(seed), zipf_(kRecords, kZipfTheta) {}

  void Setup() override {
    ctx_ = std::make_unique<sim::Context>();
    dev_ = CreateDevice(ctx_.get(), kDeviceBytes, &device_create_s_);
    kfs_ = std::make_unique<ext4sim::Ext4Dax>(dev_.get());
    splitfs::Options o;
    o.mode = splitfs::Mode::kStrict;
    split_ = std::make_unique<splitfs::SplitFs>(kfs_.get(), o);
    fs_ = std::make_unique<TimedFs>(split_.get(), &ctx_->clock);
    db_ = std::make_unique<apps::KvLsm>(fs_.get(), kDbDir, KvOptions());
    model_.clear();
    versions_.assign(kRecords, 0);
    for (uint64_t r = 0; r < kRecords; ++r) {
      std::string key = YcsbKey(r);
      std::string value = Value(r, 0);
      SPLITFS_CHECK(db_->Put(key, value) == 0);
      model_[key] = std::move(value);
    }
  }

  void Run(RoundResult* out) override {
    Metrics& m = out->metrics;
    AddLayerDefaults(&m);
    m["pmem.device_create_s"] = device_create_s_;
    sim::Clock* clock = &ctx_->clock;

    // --- Timed phase (crash tracking armed throughout).
    Recorder rec;
    Rng rng(Mix(seed_, 0xA));
    const StatsSnap s0 = StatsSnap::Of(ctx_->stats);
    const Waits w0 = Waits::Of(ctx_->obs.ledger);
    const uint64_t relinks0 = split_->Relinks();
    const uint64_t ckpt0 = split_->Checkpoints();
    const uint64_t log0 = split_->OpLogEntries();
    const uint64_t flushes0 = db_->Flushes();
    const uint64_t compactions0 = db_->Compactions();
    uint64_t get_mismatches = 0;
    dev_->EnableCrashTracking(true);
    const uint64_t t0 = clock->Now();
    {
      BindRecorder bind(&rec);
      for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t r = zipf_.Next(&rng);
        const std::string key = YcsbKey(r);
        if (rng.Unit() < kReadShare) {
          std::optional<std::string> got;
          {
            ForegroundOp op("apps.kv.get", clock);
            got = db_->Get(key);
          }
          get_mismatches += !got.has_value() || *got != model_[key];
        } else {
          std::string value = Value(r, ++versions_[r]);
          int rc;
          {
            ForegroundOp op("apps.kv.put", clock);
            rc = db_->Put(key, value);
          }
          if (rc == 0) {
            model_[key] = std::move(value);
          } else {
            rec.failed += 1;
          }
        }
      }
    }
    const uint64_t phase_ns = clock->Now() - t0;
    out->attempted += kOps;
    out->failed += rec.failed;
    out->Check(get_mismatches == 0,
               "kv_ycsb: " + std::to_string(get_mismatches) + " Gets differ from the model");

    PhaseTotals p;
    p.lanes = {&rec};
    p.lane_sim_ns = {phase_ns};
    p.stats = StatsSnap::Of(ctx_->stats).Minus(s0);
    p.waits = Waits::Of(ctx_->obs.ledger).Minus(w0);
    AddPhaseMetrics(p, &m);
    m["core.relinks"] = static_cast<double>(split_->Relinks() - relinks0);
    m["core.checkpoints"] = static_cast<double>(split_->Checkpoints() - ckpt0);
    m["core.oplog_entries"] = static_cast<double>(split_->OpLogEntries() - log0);
    m["apps.kv.ops"] = static_cast<double>(kOps);
    m["apps.kv.flushes"] = static_cast<double>(db_->Flushes() - flushes0);
    m["apps.kv.compactions"] = static_cast<double>(db_->Compactions() - compactions0);

    // Independent totals. The store charges app_cpu_ns once per call and nothing else
    // outside its FS calls, so the phase's simulated time splits exactly.
    const uint64_t app_cpu_ns = KvOptions().app_cpu_ns;
    const uint64_t expect_ns = rec.FsSimNs() + app_cpu_ns * kOps;
    out->Check(phase_ns == expect_ns,
               "kv_ycsb: phase sim time " + std::to_string(phase_ns) +
                   " ns != FS calls + app CPU " + std::to_string(expect_ns) + " ns");
    out->Check(p.stats.w_data >= rec.written_bytes,
               "kv_ycsb: PM user-data writes " + std::to_string(p.stats.w_data) +
                   " B < acknowledged payload " + std::to_string(rec.written_bytes) + " B");
    uint64_t op_ns_total = 0;
    for (uint64_t t : rec.op_sim_ns) {
      op_ns_total += t;
    }
    const uint64_t self_ns = op_ns_total - rec.FsSimNs();
    m["apps.kv.self_sim_ns"] = static_cast<double>(self_ns);
    if (SpanLog::Get().enabled()) {
      // Traced run: the same number from span self times must agree exactly.
      uint64_t span_self = 0;
      for (const auto& [name, t] : SelfTimes(SpanLog::Get().Collect())) {
        if (name == "apps.kv.get" || name == "apps.kv.put") {
          span_self += t.sim_ns;
        }
      }
      out->Check(span_self == self_ns, "kv_ycsb: span self time " +
                                           std::to_string(span_self) + " ns != " +
                                           std::to_string(self_ns) + " ns");
    }

    // --- Power cut: every line not yet persisted is dropped. A crashed process runs
    // no destructors, so the store object is abandoned, not closed.
    dev_->Crash();
    dev_->EnableCrashTracking(false);
    (void)db_.release();

    // --- Recovery: K-Split journal, U-Split op-log replay, store reopen.
    int krc = 0;
    int urc = 0;
    const double ext4_ms = SimMs("ext4.recover", clock, [&] { krc = kfs_->Recover(); });
    const uint64_t log_read0 = ctx_->stats.read_log_bytes();
    const double core_ms = SimMs("core.recover", clock, [&] { urc = split_->Recover(); });
    m["core.recover_log_read_bytes"] =
        static_cast<double>(ctx_->stats.read_log_bytes() - log_read0);
    out->Check(krc == 0 && urc == 0, "kv_ycsb: recovery returned an error");
    ext4sim::FsckReport fsck = ext4sim::RunFsck(kfs_.get());
    out->Check(fsck.clean, "kv_ycsb: fsck after recovery: " +
                               (fsck.clean ? std::string() : fsck.problems.front()));
    const double reopen_ms = SimMs("apps.kv.reopen", clock, [&] {
      db_ = std::make_unique<apps::KvLsm>(fs_.get(), kDbDir, KvOptions());
    });
    m["ext4.recover_sim_ms"] = ext4_ms;
    m["core.recover_sim_ms"] = core_ms;
    m["apps.kv.reopen_sim_ms"] = reopen_ms;
    m["sim_recovery_ms"] = ext4_ms + core_ms + reopen_ms;

    uint64_t lost = 0;
    for (const auto& [key, value] : model_) {
      std::optional<std::string> got = db_->Get(key);
      lost += !got.has_value() || *got != value;
    }
    out->Check(lost == 0, "kv_ycsb: " + std::to_string(lost) +
                              " keys lost their last acknowledged value across the crash");
  }

  void Teardown() override {
    db_.reset();
    fs_.reset();
    split_.reset();
    kfs_.reset();
    dev_.reset();
    ctx_.reset();
  }

 private:
  apps::KvLsmOptions KvOptions() const {
    apps::KvLsmOptions o;
    o.memtable_bytes = kMemtableBytes;
    o.clock = &ctx_->clock;
    return o;
  }

  std::string Value(uint64_t record, uint64_t version) const {
    const uint64_t tag = Mix(Mix(seed_, record), version);
    return Payload(tag, kValueMin + tag % (kValueMax - kValueMin + 1));
  }

  const uint64_t seed_;
  const ScrambledZipfian zipf_;
  double device_create_s_ = 0;
  std::unique_ptr<sim::Context> ctx_;
  std::unique_ptr<pmem::Device> dev_;
  std::unique_ptr<ext4sim::Ext4Dax> kfs_;
  std::unique_ptr<splitfs::SplitFs> split_;
  std::unique_ptr<TimedFs> fs_;
  std::unique_ptr<apps::KvLsm> db_;
  std::map<std::string, std::string> model_;  // Last acknowledged Put per key.
  std::vector<uint64_t> versions_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvYcsb(uint64_t seed) { return std::make_unique<KvYcsb>(seed); }

}  // namespace splitbench
