// Measurement probes the benchmark wraps around the program's public entry points.
//
// Nothing here reaches into the program: every number is taken at a call boundary
// the benchmark owns.
//   * TimedFs decorates any vfs::FileSystem (a SplitFs instance or a TenantRouter)
//     and times every call in simulated time (the calling thread's sim::Clock lane)
//     and in host time (steady_clock).
//   * A Recorder, bound per load thread, collects the per-call totals and one
//     simulated latency sample per foreground operation.
//   * SpanLog records spans (name, sim and host begin/end, parent span, foreground
//     op id) when tracing is on. Spans stay in memory and are written out at exit.
#ifndef SPLITBENCH_PROBE_H_
#define SPLITBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/vfs/file_system.h"

namespace splitbench {

inline int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// File-system call classes reported per layer. kOther covers lseek, stat, fstat,
// mkdir, readdir, fallocate and ftruncate: timed (so the clock identity check sees
// every call) but not reported on their own.
enum class FsOp : uint8_t { kOpen, kClose, kRead, kWrite, kFsync, kRename, kUnlink, kOther };
inline constexpr size_t kFsOpCount = 8;
inline constexpr FsOp kReportedFsOps[] = {FsOp::kOpen,  FsOp::kClose,  FsOp::kRead,
                                          FsOp::kWrite, FsOp::kFsync,  FsOp::kRename,
                                          FsOp::kUnlink};
const char* FsOpName(FsOp op);

struct CallTotals {
  uint64_t calls = 0;
  uint64_t sim_ns = 0;
  int64_t host_ns = 0;
};

// What one load thread measured during one timed phase.
struct Recorder {
  std::array<CallTotals, kFsOpCount> fs{};
  std::vector<uint64_t> op_sim_ns;  // One simulated latency per foreground op.
  uint64_t failed = 0;              // Foreground ops the program answered with an error.
  uint64_t written_bytes = 0;       // Payload bytes acknowledged by write calls.

  uint64_t FsSimNs() const {
    uint64_t t = 0;
    for (const CallTotals& c : fs) {
      t += c.sim_ns;
    }
    return t;
  }
};

// Binds `rec` (may be null: calls go untallied) to the calling thread for a scope.
class BindRecorder {
 public:
  explicit BindRecorder(Recorder* rec);
  ~BindRecorder();
  BindRecorder(const BindRecorder&) = delete;
  BindRecorder& operator=(const BindRecorder&) = delete;

 private:
  Recorder* prev_;
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: top level.
  uint64_t op = 0;      // Foreground op the span belongs to; 0: none.
  const char* name = "";
  uint64_t sim_begin = 0;
  uint64_t sim_end = 0;
  int64_t host_begin = 0;
  int64_t host_end = 0;
  uint32_t thread = 0;
};

// Process-wide span store. Each load thread attaches once per phase and appends to
// its own buffer; buffers are owned here so they outlive the threads.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Drops every recorded span (the trace file keeps the last round only).
  void Clear();
  // Gives the calling thread a fresh buffer tagged `thread`.
  void AttachThread(uint32_t thread);
  std::vector<Span> Collect() const;
  uint64_t NextId();

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

// One span around a scope. With tracing off it costs a branch. `clock` may be null
// for host-only boundaries (device construction, crash worlds).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, sim::Clock* clock);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  friend class ForegroundOp;
  bool on_;
  sim::Clock* clock_;
  Span span_;
};

// One foreground operation: a span that starts a new op id, and one simulated
// latency sample in the bound recorder when it ends.
class ForegroundOp {
 public:
  ForegroundOp(const char* name, sim::Clock* clock);
  ~ForegroundOp();
  ForegroundOp(const ForegroundOp&) = delete;
  ForegroundOp& operator=(const ForegroundOp&) = delete;

 private:
  sim::Clock* clock_;
  uint64_t sim_begin_;
  uint64_t prev_op_;
  ScopedSpan span_;
};

// Self time of every span (duration minus the part its direct children cover),
// summed per span name.
struct SelfTime {
  uint64_t sim_ns = 0;
  int64_t host_ns = 0;
};
std::vector<std::pair<std::string, SelfTime>> SelfTimes(const std::vector<Span>& spans);
// Writes `spans` as a Chrome trace-event JSON file (host time on the time axis; sim
// times, parent and op ids in args). Returns false on I/O failure.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

// vfs::FileSystem decorator: forwards every call to `inner` and tallies it in the
// calling thread's recorder.
class TimedFs : public vfs::FileSystem {
 public:
  TimedFs(vfs::FileSystem* inner, sim::Clock* clock) : inner_(inner), clock_(clock) {}

  std::string Name() const override { return inner_->Name(); }
  int Open(const std::string& path, int flags) override;
  int Close(int fd) override;
  int Unlink(const std::string& path) override;
  int Rename(const std::string& from, const std::string& to) override;
  ssize_t Pread(int fd, void* buf, uint64_t n, uint64_t off) override;
  ssize_t Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) override;
  ssize_t Read(int fd, void* buf, uint64_t n) override;
  ssize_t Write(int fd, const void* buf, uint64_t n) override;
  int64_t Lseek(int fd, int64_t off, vfs::Whence whence) override;
  int Fsync(int fd) override;
  int Ftruncate(int fd, uint64_t size) override;
  int Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) override;
  int Stat(const std::string& path, vfs::StatBuf* out) override;
  int Fstat(int fd, vfs::StatBuf* out) override;
  int Mkdir(const std::string& path) override;
  int Rmdir(const std::string& path) override;
  int ReadDir(const std::string& path, std::vector<std::string>* names) override;
  int Recover() override { return inner_->Recover(); }

 private:
  template <typename F>
  auto Call(FsOp op, const char* span_name, F&& fn);

  vfs::FileSystem* inner_;
  sim::Clock* clock_;
};

}  // namespace splitbench

#endif  // SPLITBENCH_PROBE_H_
