#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace splitbench {

namespace {

struct ThreadSpans {
  std::vector<Span>* buf = nullptr;  // Owned by SpanLog; null: not attached.
  uint32_t thread = 0;
  uint64_t parent = 0;  // Innermost open span.
  uint64_t op = 0;      // Innermost open foreground op.
};

thread_local Recorder* tls_recorder = nullptr;
thread_local ThreadSpans tls_spans;

}  // namespace

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kOpen:
      return "open";
    case FsOp::kClose:
      return "close";
    case FsOp::kRead:
      return "read";
    case FsOp::kWrite:
      return "write";
    case FsOp::kFsync:
      return "fsync";
    case FsOp::kRename:
      return "rename";
    case FsOp::kUnlink:
      return "unlink";
    case FsOp::kOther:
      return "other";
  }
  return "?";
}

BindRecorder::BindRecorder(Recorder* rec) : prev_(tls_recorder) { tls_recorder = rec; }
BindRecorder::~BindRecorder() { tls_recorder = prev_; }

// --- Spans -----------------------------------------------------------------------------

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  tls_spans = {};
}

void SpanLog::AttachThread(uint32_t thread) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<std::vector<Span>>());
  tls_spans = {buffers_.back().get(), thread, 0, 0};
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->begin(), b->end());
  }
  return all;
}

uint64_t SpanLog::NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, sim::Clock* clock)
    : on_(tls_spans.buf != nullptr && SpanLog::Get().enabled()), clock_(clock) {
  if (!on_) {
    return;
  }
  span_.id = SpanLog::Get().NextId();
  span_.parent = tls_spans.parent;
  span_.op = tls_spans.op;
  span_.name = name;
  span_.thread = tls_spans.thread;
  span_.sim_begin = clock_ != nullptr ? clock_->Now() : 0;
  span_.host_begin = HostNs();
  tls_spans.parent = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (!on_) {
    return;
  }
  span_.host_end = HostNs();
  span_.sim_end = clock_ != nullptr ? clock_->Now() : 0;
  tls_spans.parent = span_.parent;
  // The buffer can only have been replaced by SpanLog::Clear, which runs between
  // phases, never inside a span.
  if (tls_spans.buf != nullptr) {
    tls_spans.buf->push_back(span_);
  }
}

ForegroundOp::ForegroundOp(const char* name, sim::Clock* clock)
    : clock_(clock), sim_begin_(clock->Now()), prev_op_(tls_spans.op), span_(name, clock) {
  if (span_.on_) {
    span_.span_.op = span_.span_.id;
    tls_spans.op = span_.span_.id;
  }
}

ForegroundOp::~ForegroundOp() {
  if (Recorder* rec = tls_recorder) {
    rec->op_sim_ns.push_back(clock_->Now() - sim_begin_);
  }
  tls_spans.op = prev_op_;
}

std::vector<std::pair<std::string, SelfTime>> SelfTimes(const std::vector<Span>& spans) {
  // Children run on their parent's thread and inside its interval, one after another,
  // so the part of a parent they cover is the sum of their durations.
  std::unordered_map<uint64_t, std::pair<uint64_t, int64_t>> child_cover;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      auto& c = child_cover[s.parent];
      c.first += s.sim_end - s.sim_begin;
      c.second += s.host_end - s.host_begin;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans) {
    SelfTime& t = by_name[s.name];
    uint64_t sim = s.sim_end - s.sim_begin;
    int64_t host = s.host_end - s.host_begin;
    auto it = child_cover.find(s.id);
    if (it != child_cover.end()) {
      sim -= std::min(sim, it->second.first);
      host -= std::min(host, it->second.second);
    }
    t.sim_ns += sim;
    t.host_ns += host;
  }
  return {by_name.begin(), by_name.end()};
}

bool WriteTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().host_begin;
  for (const Span& s : spans) {
    origin = std::min(origin, s.host_begin);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"sim_begin_ns\":%llu,\"sim_end_ns\":%llu}}%s\n",
                 s.name, s.thread, static_cast<double>(s.host_begin - origin) / 1e3,
                 static_cast<double>(s.host_end - s.host_begin) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.sim_begin),
                 static_cast<unsigned long long>(s.sim_end),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// --- TimedFs -----------------------------------------------------------------------------

template <typename F>
auto TimedFs::Call(FsOp op, const char* span_name, F&& fn) {
  ScopedSpan span(span_name, clock_);
  const uint64_t s0 = clock_->Now();
  const int64_t h0 = HostNs();
  auto rc = fn();
  const int64_t h1 = HostNs();
  const uint64_t s1 = clock_->Now();
  if (Recorder* rec = tls_recorder) {
    CallTotals& t = rec->fs[static_cast<size_t>(op)];
    t.calls += 1;
    t.sim_ns += s1 - s0;
    t.host_ns += h1 - h0;
  }
  return rc;
}

namespace {
void CountWritten(ssize_t rc) {
  if (rc > 0 && tls_recorder != nullptr) {
    tls_recorder->written_bytes += static_cast<uint64_t>(rc);
  }
}
}  // namespace

int TimedFs::Open(const std::string& path, int flags) {
  return Call(FsOp::kOpen, "core.open", [&] { return inner_->Open(path, flags); });
}
int TimedFs::Close(int fd) {
  return Call(FsOp::kClose, "core.close", [&] { return inner_->Close(fd); });
}
int TimedFs::Unlink(const std::string& path) {
  return Call(FsOp::kUnlink, "core.unlink", [&] { return inner_->Unlink(path); });
}
int TimedFs::Rename(const std::string& from, const std::string& to) {
  return Call(FsOp::kRename, "core.rename", [&] { return inner_->Rename(from, to); });
}
ssize_t TimedFs::Pread(int fd, void* buf, uint64_t n, uint64_t off) {
  return Call(FsOp::kRead, "core.read", [&] { return inner_->Pread(fd, buf, n, off); });
}
ssize_t TimedFs::Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) {
  ssize_t rc =
      Call(FsOp::kWrite, "core.write", [&] { return inner_->Pwrite(fd, buf, n, off); });
  CountWritten(rc);
  return rc;
}
ssize_t TimedFs::Read(int fd, void* buf, uint64_t n) {
  return Call(FsOp::kRead, "core.read", [&] { return inner_->Read(fd, buf, n); });
}
ssize_t TimedFs::Write(int fd, const void* buf, uint64_t n) {
  ssize_t rc = Call(FsOp::kWrite, "core.write", [&] { return inner_->Write(fd, buf, n); });
  CountWritten(rc);
  return rc;
}
int64_t TimedFs::Lseek(int fd, int64_t off, vfs::Whence whence) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Lseek(fd, off, whence); });
}
int TimedFs::Fsync(int fd) {
  return Call(FsOp::kFsync, "core.fsync", [&] { return inner_->Fsync(fd); });
}
int TimedFs::Ftruncate(int fd, uint64_t size) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Ftruncate(fd, size); });
}
int TimedFs::Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) {
  return Call(FsOp::kOther, "core.other",
              [&] { return inner_->Fallocate(fd, off, len, keep_size); });
}
int TimedFs::Stat(const std::string& path, vfs::StatBuf* out) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Stat(path, out); });
}
int TimedFs::Fstat(int fd, vfs::StatBuf* out) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Fstat(fd, out); });
}
int TimedFs::Mkdir(const std::string& path) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Mkdir(path); });
}
int TimedFs::Rmdir(const std::string& path) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->Rmdir(path); });
}
int TimedFs::ReadDir(const std::string& path, std::vector<std::string>* names) {
  return Call(FsOp::kOther, "core.other", [&] { return inner_->ReadDir(path, names); });
}

}  // namespace splitbench
