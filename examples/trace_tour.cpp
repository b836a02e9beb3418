// Observability tour: run a small fsync-heavy workload with tracing on, export the
// virtual-time trace, and verify the books balance — every nanosecond the simulated
// clock advanced is attributable to a named top-level span, and the exported JSON is
// structurally a Chrome trace (loadable by Perfetto / chrome://tracing).
//
// This doubles as the CI smoke for the obs layer's end-to-end contract:
//   1. the exported file is well-formed Chrome trace-event JSON;
//   2. reconciliation identity: sum of top-level span durations == clock.Now()
//      within 1% (single-threaded run, so there is one timeline to reconcile);
//   3. attribution: >= 95% of non-media virtual time falls inside named spans.
// Exits nonzero when any check fails.
//
//   build/example_trace_tour [output.json]   (default: trace_tour.json in $PWD)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/split_fs.h"

namespace {

bool Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return false;
}

// Minimal structural validation of the exported Chrome trace: balanced braces and
// brackets outside strings, the required top-level keys, and complete ("X") events
// carrying the fields Perfetto needs. Not a general JSON parser — just enough to
// catch a malformed exporter before a human pastes the file into a viewer.
bool ValidateChromeTrace(const std::string& json, uint64_t expect_spans) {
  long depth_brace = 0;
  long depth_bracket = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_brace; break;
      case '}': --depth_brace; break;
      case '[': ++depth_bracket; break;
      case ']': --depth_bracket; break;
      default: break;
    }
    if (depth_brace < 0 || depth_bracket < 0) {
      return Fail("unbalanced closer in trace JSON");
    }
  }
  if (in_string || depth_brace != 0 || depth_bracket != 0) {
    return Fail("unbalanced trace JSON");
  }
  if (json.find("\"traceEvents\"") == std::string::npos) {
    return Fail("missing traceEvents key");
  }
  if (json.find("\"displayTimeUnit\"") == std::string::npos) {
    return Fail("missing displayTimeUnit key");
  }
  // Count complete events and spot-check the per-event fields.
  uint64_t events = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 1;
  }
  if (events != expect_spans) {
    std::fprintf(stderr, "FAIL: %llu X events in JSON, tracer recorded %llu spans\n",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(expect_spans));
    return false;
  }
  for (const char* field : {"\"name\"", "\"cat\"", "\"ts\"", "\"dur\"", "\"tid\"",
                            "\"pid\""}) {
    if (json.find(field) == std::string::npos) {
      std::fprintf(stderr, "FAIL: trace events missing field %s\n", field);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace_tour.json";

  sim::Context ctx;
  pmem::Device pm(&ctx, 2 * common::kGiB);
  ext4sim::Ext4Dax kernel_fs(&pm);

  splitfs::Options opts;
  opts.mode = splitfs::Mode::kSync;
  splitfs::SplitFs fs(&kernel_fs, opts);

  // Startup (staging pre-allocation, journal init) is not part of the tour: zero the
  // clock and the obs state, then start recording.
  ctx.Reset();
  ctx.obs.tracer.Enable();

  // The fsync storm: every 4 KB append is immediately fsync'd, so each op crosses
  // the staging pool, the op intents, and the journal pipeline — the worst case the
  // paper's Table 6 dissects, and the richest trace this stack produces.
  int fd = fs.Open("/storm.dat", vfs::kRdWr | vfs::kCreate);
  if (fd < 0) {
    std::fprintf(stderr, "open failed: %d\n", fd);
    return 1;
  }
  std::vector<uint8_t> block(4096, 0x5A);
  constexpr int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    if (fs.Write(fd, block.data(), block.size()) !=
        static_cast<ssize_t>(block.size())) {
      std::fprintf(stderr, "write %d failed\n", i);
      return 1;
    }
    if (fs.Fsync(fd) != 0) {
      std::fprintf(stderr, "fsync %d failed\n", i);
      return 1;
    }
  }
  std::vector<uint8_t> back(block.size());
  if (fs.Pread(fd, back.data(), back.size(), 0) != static_cast<ssize_t>(back.size())) {
    std::fprintf(stderr, "readback failed\n");
    return 1;
  }
  fs.Close(fd);

  const uint64_t total_ns = ctx.clock.Now();
  const uint64_t media_ns = ctx.stats.data_media_ns();
  const uint64_t span_ns = ctx.obs.tracer.TopLevelSpanNs();
  const uint64_t span_media_ns = ctx.obs.tracer.MediaNs();
  const uint64_t spans = ctx.obs.tracer.SpanCount();
  const uint64_t drops = ctx.obs.tracer.Drops();

  std::printf("fsync storm: %d x 4 KB append+fsync in %.3f virtual ms\n", kOps,
              total_ns / 1e6);
  std::printf("spans recorded:        %llu (%llu dropped)\n",
              static_cast<unsigned long long>(spans),
              static_cast<unsigned long long>(drops));
  std::printf("top-level span time:   %.3f ms  (clock: %.3f ms)\n", span_ns / 1e6,
              total_ns / 1e6);
  std::printf("media time in spans:   %.3f ms  (stats: %.3f ms)\n", span_media_ns / 1e6,
              media_ns / 1e6);

  bool ok = true;
  if (spans == 0 || drops != 0) {
    ok = Fail("expected a nonempty trace with no drops");
  }

  // Reconciliation identity (single timeline): every virtual nanosecond between
  // Reset() and now was spent inside some top-level op span, so the two totals agree
  // within 1%.
  double identity_err =
      total_ns == 0
          ? 1.0
          : (span_ns > total_ns ? span_ns - total_ns : total_ns - span_ns) /
                static_cast<double>(total_ns);
  std::printf("identity |spans-clock|: %.4f%% of clock\n", 100.0 * identity_err);
  if (identity_err > 0.01) {
    ok = Fail("reconciliation identity off by more than 1%");
  }

  // Attribution: of the time that was NOT payload media movement (the §5.7 software
  // side), at least 95% must be inside named spans.
  uint64_t sw_total = total_ns > media_ns ? total_ns - media_ns : 0;
  uint64_t sw_spans = span_ns > span_media_ns ? span_ns - span_media_ns : 0;
  double attribution =
      sw_total == 0 ? 0.0 : static_cast<double>(sw_spans) / static_cast<double>(sw_total);
  std::printf("software-time attribution: %.2f%% inside named spans\n",
              100.0 * attribution);
  if (attribution < 0.95) {
    ok = Fail("less than 95% of software time attributed to spans");
  }

  if (!ctx.obs.tracer.ExportChromeTrace(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  FILE* f = std::fopen(out_path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot reopen %s\n", out_path.c_str());
    return 1;
  }
  std::string json;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    json.append(buf, n);
  }
  std::fclose(f);
  if (!ValidateChromeTrace(json, spans)) {
    ok = false;
  }

  if (!ok) {
    return 1;
  }
  std::printf("\nwrote %s — open it in Perfetto (ui.perfetto.dev) or chrome://tracing;\n"
              "each virtual-time op appears as a complete event on the app's track.\n",
              out_path.c_str());
  return 0;
}
