// crash_sweep: metadata churn and the crash harness.
//
// Timed phase: a varmail-like loop on SplitFS-POSIX (default Options). One foreground
// op is one message: the §5.4 / Table 6 sequence create, 4 x (append + fsync), close,
// reopen, read the whole file back, close, unlink. Append sizes are uniform in
// [3, 5] KB (16 KB files on average); a seeded 624-656 files (about one in 16),
// spread evenly, are kept for the final check.
// The power cut lands inside one more message, after a seeded number of its calls.
// K-Split traps and journal commits dominate.
//
// Then a crash::CrashRunner sweep over the seeded append / overwrite / rename scripts
// in all three modes with their Guarantees; its host cost dominates the round.
//
// Checks: every read-back matches what was written; after the power cut and recovery
// the kept files are byte-exact and fsck is clean; the phase's simulated time equals
// its decorator-timed FS time; PM user-data writes cover the acknowledged
// payload; the sweep has zero oracle failures and exactly (fence points + store
// points) x fates states, with every configured point found.
#include <optional>

#include "inputs.h"
#include "src/common/bytes.h"
#include "src/core/split_fs.h"
#include "src/crash/crash_runner.h"
#include "src/ext4/fsck.h"
#include "workload.h"

namespace splitbench {
namespace {

constexpr uint64_t kDeviceBytes = 2 * common::kGiB;
constexpr uint64_t kMessages = 10240;
constexpr uint64_t kCallsPerMessage = 14;
constexpr uint64_t kAppendsPerFile = 4;
constexpr uint64_t kAppendMin = 3 * common::kKiB;
constexpr uint64_t kAppendMax = 5 * common::kKiB;
// Crash points per (mode, script): stride-sampled vulnerable fences and store ordinals.
constexpr int kFencePoints = 3;
constexpr int kStorePoints = 2;

class CrashSweep : public Workload {
 public:
  explicit CrashSweep(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    ctx_ = std::make_unique<sim::Context>();
    dev_ = CreateDevice(ctx_.get(), kDeviceBytes, &device_create_s_);
    kfs_ = std::make_unique<ext4sim::Ext4Dax>(dev_.get());
    splitfs::Options o;
    o.mode = splitfs::Mode::kPosix;
    split_ = std::make_unique<splitfs::SplitFs>(kfs_.get(), o);
    fs_ = std::make_unique<TimedFs>(split_.get(), &ctx_->clock);
    SPLITFS_CHECK(split_->Mkdir("/mail") == 0);
  }

  void Run(RoundResult* out) override {
    Metrics& m = out->metrics;
    AddLayerDefaults(&m);
    m["pmem.device_create_s"] = device_create_s_;
    sim::Clock* clock = &ctx_->clock;

    // --- Timed phase (crash tracking armed throughout).
    Recorder rec;
    Rng rng(Mix(seed_, 0xC));
    std::map<uint64_t, std::vector<uint64_t>> kept;  // Kept file -> append sizes.
    uint64_t mismatches = 0;
    const StatsSnap s0 = StatsSnap::Of(ctx_->stats);
    const Waits w0 = Waits::Of(ctx_->obs.ledger);
    const uint64_t relinks0 = split_->Relinks();
    dev_->EnableCrashTracking(true);
    const uint64_t t0 = clock->Now();
    // The interrupted message stops after this many of its calls.
    const uint64_t cut_after = rng.Range(1, kCallsPerMessage - 1);
    // Files kept: about one in 16. Recovery cost follows the count.
    const uint64_t keep_count = rng.Range(kMessages / 16 - 16, kMessages / 16 + 16);
    uint64_t phase_ns = 0;
    {
      BindRecorder bind(&rec);
      std::string buf;
      for (uint64_t f = 0; f <= kMessages; ++f) {
        const bool cut = f == kMessages;
        if (cut) {
          phase_ns = clock->Now() - t0;
        }
        uint64_t budget = cut ? cut_after : kCallsPerMessage;
        // Issues one FS call of the message unless the power cut came first.
        auto call = [&budget](auto&& fn) -> bool {
          if (budget == 0) {
            return false;
          }
          --budget;
          fn();
          return true;
        };
        const std::string path = MailPath(f);
        std::vector<uint64_t> sizes;
        for (uint64_t k = 0; k < kAppendsPerFile; ++k) {
          sizes.push_back(rng.Range(kAppendMin, kAppendMax));
        }
        const std::string content = Content(f, sizes);
        // Kept files are spread evenly over the messages.
        const bool keep = (f + 1) * keep_count / kMessages > f * keep_count / kMessages;
        // The interrupted message is not a foreground op and its calls stay outside
        // the phase's tallies.
        std::optional<BindRecorder> unbound;
        std::optional<ForegroundOp> op;
        if (cut) {
          unbound.emplace(nullptr);
        } else {
          op.emplace("varmail.message", clock);
        }
        uint64_t failed = 0;
        int fd = -1;
        call([&] { fd = fs_->Open(path, vfs::kRdWr | vfs::kCreate | vfs::kAppend); });
        failed += fd < 0;
        uint64_t off = 0;
        for (uint64_t k = 0; k < kAppendsPerFile; ++k) {
          call([&] { failed += fs_->Write(fd, content.data() + off, sizes[k]) !=
                               static_cast<ssize_t>(sizes[k]); });
          off += sizes[k];
          call([&] { failed += fs_->Fsync(fd) != 0; });
        }
        call([&] { failed += fs_->Close(fd) != 0; });
        call([&] { fd = fs_->Open(path, vfs::kRdOnly); });
        buf.assign(content.size(), '\0');
        if (call([&] { failed += fs_->Pread(fd, buf.data(), buf.size(), 0) !=
                                 static_cast<ssize_t>(buf.size()); })) {
          mismatches += buf != content;
        }
        call([&] { failed += fs_->Close(fd) != 0; });
        if (!keep) {
          call([&] { failed += fs_->Unlink(path) != 0; });
        } else if (!cut) {
          kept[f] = sizes;
        }
        if (cut) {
          out->Check(failed == 0, "crash_sweep: a call of the interrupted message failed");
        } else {
          rec.failed += failed != 0;
        }
      }
    }
    out->attempted += rec.op_sim_ns.size();
    out->failed += rec.failed;
    out->Check(mismatches == 0, "crash_sweep: " + std::to_string(mismatches) +
                                    " read-backs differ from what was written");
    PhaseTotals p;
    p.lanes = {&rec};
    p.lane_sim_ns = {phase_ns};
    p.stats = StatsSnap::Of(ctx_->stats).Minus(s0);
    p.waits = Waits::Of(ctx_->obs.ledger).Minus(w0);
    AddPhaseMetrics(p, &m);
    m["core.relinks"] = static_cast<double>(split_->Relinks() - relinks0);
    // The phase only ever runs FS calls, so its time splits exactly into them.
    out->Check(phase_ns == rec.FsSimNs(),
               "crash_sweep: phase sim time " + std::to_string(phase_ns) +
                   " ns != its FS calls " + std::to_string(rec.FsSimNs()) + " ns");
    out->Check(p.stats.w_data >= rec.written_bytes,
               "crash_sweep: PM user-data writes " + std::to_string(p.stats.w_data) +
                   " B < acknowledged payload " + std::to_string(rec.written_bytes) + " B");

    // --- Power cut, recovery, kept files.
    dev_->Crash();
    dev_->EnableCrashTracking(false);
    int krc = 0;
    int urc = 0;
    const double ext4_ms = SimMs("ext4.recover", clock, [&] { krc = kfs_->Recover(); });
    const uint64_t log_read0 = ctx_->stats.read_log_bytes();
    const double core_ms = SimMs("core.recover", clock, [&] { urc = split_->Recover(); });
    m["core.recover_log_read_bytes"] =
        static_cast<double>(ctx_->stats.read_log_bytes() - log_read0);
    m["ext4.recover_sim_ms"] = ext4_ms;
    m["core.recover_sim_ms"] = core_ms;
    m["sim_recovery_ms"] = ext4_ms + core_ms;
    out->Check(krc == 0 && urc == 0, "crash_sweep: recovery returned an error");
    ext4sim::FsckReport fsck = ext4sim::RunFsck(kfs_.get());
    out->Check(fsck.clean, "crash_sweep: fsck after recovery: " +
                               (fsck.clean ? std::string() : fsck.problems.front()));
    uint64_t lost = 0;
    for (const auto& [f, sizes] : kept) {
      const std::string content = Content(f, sizes);
      std::string back(content.size() + 1, '\0');
      int fd = split_->Open(MailPath(f), vfs::kRdOnly);
      ssize_t rc = fd < 0 ? -1 : split_->Pread(fd, back.data(), back.size(), 0);
      lost += rc != static_cast<ssize_t>(content.size()) ||
              back.compare(0, content.size(), content) != 0;
      if (fd >= 0) {
        split_->Close(fd);
      }
    }
    out->Check(lost == 0, "crash_sweep: " + std::to_string(lost) + " of " +
                              std::to_string(kept.size()) + " kept files damaged by the crash");

    Sweep(out);
  }

  void Teardown() override {
    fs_.reset();
    split_.reset();
    kfs_.reset();
    dev_.reset();
    ctx_.reset();
  }

 private:
  static std::string MailPath(uint64_t f) { return "/mail/m" + std::to_string(f); }

  std::string Content(uint64_t f, const std::vector<uint64_t>& sizes) const {
    std::string out;
    for (size_t k = 0; k < sizes.size(); ++k) {
      out += Payload(Mix(Mix(seed_, 0xF11E), f * kAppendsPerFile + k), sizes[k]);
    }
    return out;
  }

  void Sweep(RoundResult* out) {
    Metrics& m = out->metrics;
    struct ModeCase {
      splitfs::Mode mode;
      crash::Guarantees g;
    };
    const ModeCase cases[] = {
        {splitfs::Mode::kPosix, crash::Guarantees::SplitFsPosix()},
        {splitfs::Mode::kSync, crash::Guarantees::SplitFsSync()},
        {splitfs::Mode::kStrict, crash::Guarantees::SplitFsStrict()},
    };
    int64_t world_ns = 0;
    uint64_t states = 0;
    uint64_t fence_points = 0;
    uint64_t store_points = 0;
    const int64_t h0 = HostNs();
    for (const ModeCase& c : cases) {
      crash::WorldFactory inner = crash::SplitFsWorldFactory(c.mode);
      crash::WorldFactory timed = [&inner, &world_ns] {
        ScopedSpan span("crash.world_create", nullptr);
        const int64_t t = HostNs();
        std::unique_ptr<crash::World> w = inner();
        world_ns += HostNs() - t;
        return w;
      };
      for (const crash::WorkloadScript& script : crash::AllScripts(seed_)) {
        crash::RunnerConfig cfg;
        cfg.seed = seed_;
        cfg.max_fence_points = kFencePoints;
        cfg.max_store_points = kStorePoints;
        crash::MatrixStats st;
        {
          ScopedSpan span("crash.run", nullptr);
          st = crash::CrashRunner(timed, script, c.g, cfg).Run();
        }
        const std::string cell =
            std::string("crash_sweep: ") + splitfs::ModeName(c.mode) + "/" + script.name;
        out->Check(st.oracle_failures == 0,
                   cell + ": " + std::to_string(st.oracle_failures) + " oracle failures" +
                       (st.failures.empty() ? "" : " (" + st.failures.front() + ")"));
        out->Check(st.fence_points == kFencePoints && st.store_points == kStorePoints,
                   cell + ": found " + std::to_string(st.fence_points) + " fence and " +
                       std::to_string(st.store_points) + " store points");
        out->Check(st.crash_states == (st.fence_points + st.store_points) * cfg.fates.size(),
                   cell + ": " + std::to_string(st.crash_states) + " states swept");
        states += st.crash_states;
        fence_points += st.fence_points;
        store_points += st.store_points;
      }
    }
    const double sweep_s = static_cast<double>(HostNs() - h0) / 1e9;
    out->attempted += states;
    m["crash.states"] = static_cast<double>(states);
    m["crash.fence_points"] = static_cast<double>(fence_points);
    m["crash.store_points"] = static_cast<double>(store_points);
    m["crash.states_per_s"] = static_cast<double>(states) / sweep_s;
    m["crash.world_create_s"] = static_cast<double>(world_ns) / 1e9;
  }

  const uint64_t seed_;
  double device_create_s_ = 0;
  std::unique_ptr<sim::Context> ctx_;
  std::unique_ptr<pmem::Device> dev_;
  std::unique_ptr<ext4sim::Ext4Dax> kfs_;
  std::unique_ptr<splitfs::SplitFs> split_;
  std::unique_ptr<TimedFs> fs_;
};

}  // namespace

std::unique_ptr<Workload> MakeCrashSweep(uint64_t seed) {
  return std::make_unique<CrashSweep>(seed);
}

}  // namespace splitbench
