// mixed_modes: the §3.2 claim that consistency modes coexist. Three tenants, one load
// thread each, mounted through tenant::TenantRouter over one Ext4Dax with its shared
// publisher, replenisher and journal-commit pools; async relink on, QoS off.
//   * posix:  ~4 KB appends (uniform 3-5 KB) to a rotating log, fsync every 16,
//             rotation (close, unlink the previous log, open the next) every 256;
//   * sync:   50/50 random overwrites and reads (uniform 2-4 KB, block-aligned) of a
//             preallocated 8 MiB file;
//   * strict: ~512 B appends (uniform 256-768 B), fsync every 8.
// Sizes vary so that op latencies do too (the simulator's costs are otherwise a few
// discrete values, and a pooled percentile would jump between them).
//
// Checks (Table 3, byte-exact against the benchmark's own images): every sync read
// returns the last acknowledged overwrite; after the power cut and recovery, posix
// keeps every byte up to its last acknowledged fsync, sync keeps every acknowledged
// overwrite, strict keeps every acknowledged append; fsck is clean; each lane's
// simulated time equals its decorator-timed FS time; PM user-data writes cover the
// acknowledged payload.
#include <thread>

#include "inputs.h"
#include "src/common/bytes.h"
#include "src/common/threading.h"
#include "src/ext4/fsck.h"
#include "src/tenant/tenant_router.h"
#include "workload.h"

namespace splitbench {
namespace {

constexpr uint64_t kDeviceBytes = 1 * common::kGiB;
constexpr uint64_t kOpsPerTenant = 32768;
constexpr uint64_t kBlock = common::kBlockSize;
constexpr uint64_t kPosixRecordMin = 3 * common::kKiB;
constexpr uint64_t kPosixRecordMax = 5 * common::kKiB;
constexpr uint64_t kPosixFsyncEvery = 16;
constexpr uint64_t kPosixRotateEvery = 256;
constexpr uint64_t kSyncBlocks = 2048;  // 8 MiB file.
constexpr uint64_t kSyncIoMin = 2 * common::kKiB;
constexpr uint64_t kSyncIoMax = 4 * common::kKiB;
constexpr uint64_t kStrictRecordMin = 256;
constexpr uint64_t kStrictRecordMax = 768;
constexpr uint64_t kStrictFsyncEvery = 8;

enum Tenant { kPosix, kSync, kStrict, kTenants };
const char* const kTenantIds[kTenants] = {"posix", "sync", "strict"};

tenant::TenantOptions TenantOpts(splitfs::Mode mode) {
  tenant::TenantOptions t;
  t.fs.mode = mode;
  t.fs.num_staging_files = 3;
  t.fs.staging_file_bytes = 8 * common::kMiB;
  t.fs.oplog_bytes = 4 * common::kMiB;
  t.fs.replenish_thread = true;  // Shared replenisher pool.
  t.fs.async_relink = true;
  t.fs.publisher_thread = true;  // Shared publisher pool.
  return t;
}

std::string PosixLog(uint64_t n) { return "/posix/log-" + std::to_string(n); }
const char* const kSyncFile = "/sync/data";
const char* const kStrictFile = "/strict/journal";

class MixedModes : public Workload {
 public:
  explicit MixedModes(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    ctx_ = std::make_unique<sim::Context>();
    dev_ = CreateDevice(ctx_.get(), kDeviceBytes, &device_create_s_);
    kfs_ = std::make_unique<ext4sim::Ext4Dax>(dev_.get());
    router_ = std::make_unique<tenant::TenantRouter>(kfs_.get());
    SPLITFS_CHECK(router_->Mount("posix", TenantOpts(splitfs::Mode::kPosix)) == 0);
    SPLITFS_CHECK(router_->Mount("sync", TenantOpts(splitfs::Mode::kSync)) == 0);
    SPLITFS_CHECK(router_->Mount("strict", TenantOpts(splitfs::Mode::kStrict)) == 0);
    fs_ = std::make_unique<TimedFs>(router_.get(), &ctx_->clock);
    // Preload: the sync tenant's file, written and published once.
    sync_image_ = Payload(Mix(seed_, 0x5F1C), kSyncBlocks * kBlock);
    int fd = router_->Open(kSyncFile, vfs::kRdWr | vfs::kCreate);
    SPLITFS_CHECK(fd >= 0);
    for (uint64_t b = 0; b < kSyncBlocks; ++b) {
      SPLITFS_CHECK(router_->Pwrite(fd, sync_image_.data() + b * kBlock, kBlock,
                                    b * kBlock) == static_cast<ssize_t>(kBlock));
    }
    SPLITFS_CHECK(router_->Fsync(fd) == 0);
    SPLITFS_CHECK(router_->Close(fd) == 0);
  }

  void Run(RoundResult* out) override {
    Metrics& m = out->metrics;
    AddLayerDefaults(&m);
    m["pmem.device_create_s"] = device_create_s_;

    // --- Timed phase: three lanes (crash tracking armed throughout).
    std::array<Recorder, kTenants> recs;
    std::array<uint64_t, kTenants> lane_ns{};
    std::array<uint64_t, kTenants> mismatches{};
    const StatsSnap s0 = StatsSnap::Of(ctx_->stats);
    const Waits w0 = Waits::Of(ctx_->obs.ledger);
    const Counters c0 = Count();
    dev_->EnableCrashTracking(true);
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < kTenants; ++t) {
        threads.emplace_back([this, t, &recs, &lane_ns, &mismatches] {
          common::ScopedThreadLane pin(static_cast<size_t>(t));
          sim::Clock::Lane lane(&ctx_->clock);
          SpanLog::Get().AttachThread(static_cast<uint32_t>(t + 1));
          BindRecorder bind(&recs[t]);
          const uint64_t t0 = lane.Now();
          if (t == kPosix) {
            RunPosix(&recs[t]);
          } else if (t == kSync) {
            mismatches[t] = RunSync(&recs[t]);
          } else {
            RunStrict(&recs[t]);
          }
          lane_ns[t] = lane.Now() - t0;
        });
      }
      for (std::thread& th : threads) {
        th.join();
      }
    }
    out->Check(mismatches[kSync] == 0, "mixed_modes: " + std::to_string(mismatches[kSync]) +
                                           " sync reads differ from the image");
    PhaseTotals p;
    for (int t = 0; t < kTenants; ++t) {
      p.lanes.push_back(&recs[t]);
      p.lane_sim_ns.push_back(lane_ns[t]);
      out->attempted += recs[t].op_sim_ns.size();
      out->failed += recs[t].failed;
      const double kops = static_cast<double>(recs[t].op_sim_ns.size()) * 1e6 /
                          static_cast<double>(std::max<uint64_t>(lane_ns[t], 1));
      m[std::string("tenant.") + kTenantIds[t] + ".sim_kops"] = kops;
      // Each lane only ever runs FS calls, so its time splits exactly into them.
      out->Check(lane_ns[t] == recs[t].FsSimNs(),
                 std::string("mixed_modes: ") + kTenantIds[t] + " lane time " +
                     std::to_string(lane_ns[t]) + " ns != its FS calls " +
                     std::to_string(recs[t].FsSimNs()) + " ns");
    }
    p.stats = StatsSnap::Of(ctx_->stats).Minus(s0);
    p.waits = Waits::Of(ctx_->obs.ledger).Minus(w0);
    AddPhaseMetrics(p, &m);
    const Counters c1 = Count();
    m["core.relinks"] = static_cast<double>(c1.relinks - c0.relinks);
    m["core.checkpoints"] = static_cast<double>(c1.checkpoints - c0.checkpoints);
    m["core.oplog_entries"] = static_cast<double>(c1.log_entries - c0.log_entries);
    uint64_t written = 0;
    for (const Recorder& r : recs) {
      written += r.written_bytes;
    }
    out->Check(p.stats.w_data >= written,
               "mixed_modes: PM user-data writes " + std::to_string(p.stats.w_data) +
                   " B < acknowledged payload " + std::to_string(written) + " B");

    // --- Quiesce the shared service pools, then cut power. Publishes queued by the
    // acknowledged fsyncs finish; the replenisher is done once every pool is full.
    for (const char* id : kTenantIds) {
      router_->tenant_fs(id)->WaitForPublishes();
    }
    out->Check(WaitForFullStagingPools(), "mixed_modes: staging replenisher never settled");
    dev_->Crash();
    dev_->EnableCrashTracking(false);

    // --- Recovery: K-Split journal, then every tenant's op-log replay.
    sim::Clock* clock = &ctx_->clock;
    int krc = 0;
    int urc = 0;
    const double ext4_ms = SimMs("ext4.recover", clock, [&] { krc = kfs_->Recover(); });
    const uint64_t log_read0 = ctx_->stats.read_log_bytes();
    const double core_ms = SimMs("core.recover", clock, [&] { urc = router_->Recover(); });
    m["core.recover_log_read_bytes"] =
        static_cast<double>(ctx_->stats.read_log_bytes() - log_read0);
    m["ext4.recover_sim_ms"] = ext4_ms;
    m["core.recover_sim_ms"] = core_ms;
    m["sim_recovery_ms"] = ext4_ms + core_ms;
    out->Check(krc == 0 && urc == 0, "mixed_modes: recovery returned an error");
    ext4sim::FsckReport fsck = ext4sim::RunFsck(kfs_.get());
    out->Check(fsck.clean, "mixed_modes: fsck after recovery: " +
                               (fsck.clean ? std::string() : fsck.problems.front()));
    CheckDurable(out);
  }

  void Teardown() override {
    fs_.reset();
    router_.reset();
    kfs_.reset();
    dev_.reset();
    ctx_.reset();
  }

 private:
  struct Counters {
    uint64_t relinks = 0, checkpoints = 0, log_entries = 0;
  };
  Counters Count() const {
    Counters c;
    for (const char* id : kTenantIds) {
      splitfs::SplitFs* s = router_->tenant_fs(id);
      c.relinks += s->Relinks();
      c.checkpoints += s->Checkpoints();
      c.log_entries += s->OpLogEntries();
    }
    return c;
  }

  void RunPosix(Recorder* rec) {
    sim::Clock* clock = &ctx_->clock;
    Rng rng(Mix(seed_, 0x9051));
    posix_log_ = 0;
    posix_image_[0].clear();
    posix_image_[1].clear();
    posix_synced_ = 0;
    int fd = -1;
    {
      ForegroundOp op("tenant.posix.open", clock);
      fd = fs_->Open(PosixLog(0), vfs::kRdWr | vfs::kCreate | vfs::kAppend);
    }
    rec->failed += fd < 0;
    uint64_t in_log = 0;
    for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
      const std::string record =
          Payload(rng.Next(), rng.Range(kPosixRecordMin, kPosixRecordMax));
      ForegroundOp op("tenant.posix.append", clock);
      bool ok = fs_->Write(fd, record.data(), record.size()) ==
                static_cast<ssize_t>(record.size());
      std::string& image = posix_image_[posix_log_ % 2];
      if (ok) {
        image += record;
      }
      ++in_log;
      if (ok && in_log % kPosixFsyncEvery == 0) {
        ok = fs_->Fsync(fd) == 0;
        posix_synced_ = ok ? image.size() : posix_synced_;
      }
      if (ok && in_log == kPosixRotateEvery) {
        ok = fs_->Close(fd) == 0;
        if (posix_log_ > 0) {
          ok = ok && fs_->Unlink(PosixLog(posix_log_ - 1)) == 0;
        }
        ++posix_log_;
        posix_image_[posix_log_ % 2].clear();
        fd = fs_->Open(PosixLog(posix_log_), vfs::kRdWr | vfs::kCreate | vfs::kAppend);
        ok = ok && fd >= 0;
        in_log = 0;
        posix_synced_ = 0;
      }
      rec->failed += !ok;
    }
    // Left open: the power cut finds the current log mid-stream.
  }

  uint64_t RunSync(Recorder* rec) {
    sim::Clock* clock = &ctx_->clock;
    Rng rng(Mix(seed_, 0x5));
    int fd = fs_->Open(kSyncFile, vfs::kRdWr);
    rec->failed += fd < 0;
    uint64_t mismatches = 0;
    std::string buf;
    for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
      const uint64_t off = (rng.Next() % kSyncBlocks) * kBlock;
      const uint64_t n = rng.Range(kSyncIoMin, kSyncIoMax);
      if (rng.Next() % 2 == 0) {
        const std::string data = Payload(rng.Next(), n);
        ssize_t rc;
        {
          ForegroundOp op("tenant.sync.overwrite", clock);
          rc = fs_->Pwrite(fd, data.data(), n, off);
        }
        if (rc == static_cast<ssize_t>(n)) {
          sync_image_.replace(off, n, data);
        } else {
          rec->failed += 1;
        }
      } else {
        buf.assign(n, '\0');
        ssize_t rc;
        {
          ForegroundOp op("tenant.sync.read", clock);
          rc = fs_->Pread(fd, buf.data(), n, off);
        }
        rec->failed += rc != static_cast<ssize_t>(n);
        mismatches += sync_image_.compare(off, n, buf) != 0;
      }
    }
    return mismatches;
  }

  void RunStrict(Recorder* rec) {
    sim::Clock* clock = &ctx_->clock;
    Rng rng(Mix(seed_, 0x57C7));
    strict_image_.clear();
    int fd = fs_->Open(kStrictFile, vfs::kRdWr | vfs::kCreate | vfs::kAppend);
    rec->failed += fd < 0;
    for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
      const std::string record =
          Payload(rng.Next(), rng.Range(kStrictRecordMin, kStrictRecordMax));
      ForegroundOp op("tenant.strict.append", clock);
      bool ok = fs_->Write(fd, record.data(), record.size()) ==
                static_cast<ssize_t>(record.size());
      if (ok) {
        strict_image_ += record;
      }
      if (ok && (i + 1) % kStrictFsyncEvery == 0) {
        ok = fs_->Fsync(fd) == 0;
      }
      rec->failed += !ok;
    }
  }

  bool WaitForFullStagingPools() {
    const int64_t deadline = HostNs() + 30'000'000'000;
    for (const char* id : kTenantIds) {
      const splitfs::SplitFs* s = router_->tenant_fs(id);
      while (s->staging_pool().SpareFiles() < TenantOpts(s->mode()).fs.num_staging_files) {
        if (HostNs() > deadline) {
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return true;
  }

  // Reads `path` whole through the router; empty on failure.
  std::string ReadAll(const std::string& path) {
    int fd = router_->Open(path, vfs::kRdOnly);
    if (fd < 0) {
      return {};
    }
    vfs::StatBuf st;
    std::string data;
    if (router_->Fstat(fd, &st) == 0) {
      data.resize(st.size);
      if (router_->Pread(fd, data.data(), st.size, 0) != static_cast<ssize_t>(st.size)) {
        data.clear();
      }
    }
    router_->Close(fd);
    return data;
  }

  void CheckDurable(RoundResult* out) {
    // posix: bytes up to the last acknowledged fsync of the current log, and the whole
    // previous log (fsynced before its rotation).
    const std::string& cur_image = posix_image_[posix_log_ % 2];
    std::string cur = ReadAll(PosixLog(posix_log_));
    bool posix_ok = cur.size() >= posix_synced_ &&
                    cur.compare(0, posix_synced_, cur_image, 0, posix_synced_) == 0;
    if (posix_log_ > 0) {
      const std::string& prev_image = posix_image_[(posix_log_ - 1) % 2];
      std::string prev = ReadAll(PosixLog(posix_log_ - 1));
      posix_ok = posix_ok && prev.size() >= prev_image.size() &&
                 prev.compare(0, prev_image.size(), prev_image) == 0;
    }
    out->Check(posix_ok, "mixed_modes: posix lost bytes acknowledged by fsync");
    // sync: every acknowledged overwrite.
    out->Check(ReadAll(kSyncFile) == sync_image_,
               "mixed_modes: sync lost an acknowledged overwrite");
    // strict: every acknowledged append, and nothing beyond.
    out->Check(ReadAll(kStrictFile) == strict_image_,
               "mixed_modes: strict lost an acknowledged append");
  }

  const uint64_t seed_;
  double device_create_s_ = 0;
  std::unique_ptr<sim::Context> ctx_;
  std::unique_ptr<pmem::Device> dev_;
  std::unique_ptr<ext4sim::Ext4Dax> kfs_;
  std::unique_ptr<tenant::TenantRouter> router_;
  std::unique_ptr<TimedFs> fs_;
  // Images of what each tenant has acknowledged.
  std::string posix_image_[2];  // Current and previous log, by log number parity.
  uint64_t posix_log_ = 0;      // Current log number.
  uint64_t posix_synced_ = 0;   // Bytes of it covered by an acknowledged fsync.
  std::string sync_image_;
  std::string strict_image_;
};

}  // namespace

std::unique_ptr<Workload> MakeMixedModes(uint64_t seed) {
  return std::make_unique<MixedModes>(seed);
}

}  // namespace splitbench
