// SplitFS per-instance configuration: consistency mode (§3.2) and the tunable
// parameters of §3.6, plus feature toggles used by the Figure 3 ablation bench.
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace common {
class ServicePool;
}
namespace sim {
class TokenBucket;
}

namespace splitfs {

// Consistency modes (Table 3). Concurrent SplitFs instances over the same K-Split may
// use different modes without interfering.
enum class Mode {
  kPosix,   // Metadata consistency; atomic appends; in-place synchronous overwrites.
  kSync,    // + synchronous data operations (no atomicity for overwrites).
  kStrict,  // + atomic, synchronous everything (op logging + staged COW overwrites).
};

const char* ModeName(Mode mode);

struct Options {
  Mode mode = Mode::kPosix;

  // mmap() granularity for the collection of memory-maps. 2 MB default (huge pages,
  // pre-populated); configurable 2 MB .. 512 MB (§3.6).
  uint64_t mmap_size = 2 * common::kMiB;

  // Staging file pool (§3.5): files pre-created at startup; background work
  // replaces each one as it is consumed (see replenish_thread).
  uint32_t num_staging_files = 10;
  uint64_t staging_file_bytes = 160 * common::kMiB;

  // Number of per-thread staging lanes: each application thread bump-allocates from
  // its own active staging file, so disjoint-file appends never contend on the pool.
  // Threads hash onto lanes; a single-threaded process uses exactly one lane and
  // allocates the same byte sequence as the pre-concurrency pool.
  uint32_t staging_lanes = 16;

  // Who runs the §3.5 replenish pass, which tops the spare staging files back up.
  // On: a common::ServicePool worker (Services::replenisher_pool, or a 1-worker
  // pool the instance owns when none is lent), kicked at every refill and consume,
  // off the critical path. Off (the default): the thread that consumes a staging
  // file runs the same pass with its cost rewound — equivalent accounting with the
  // fully deterministic store sequence the crash harness and the single-threaded
  // tests require. Multithreaded benches and the concurrency tests turn it on.
  bool replenish_thread = false;

  // Operation log (strict mode): zeroed pre-allocated file; one 64 B entry per op;
  // checkpoint-and-reset when full (§3.3).
  uint64_t oplog_bytes = 128 * common::kMiB;

  // Asynchronous relink publication (ROADMAP follow-on to the concurrency PRs).
  // When on, fsync()/close() of a file with staged data logs one relink-intent
  // record per staged run to the op log (created in every mode when this is set),
  // fences it, and defers the actual relink + journal commit; recovery replays
  // intent records exactly like staged-append records, so fsync durability holds
  // from the moment the intent is fenced. Off by default: the synchronous publish
  // path stays byte-identical for the crash matrix and every deterministic test.
  bool async_relink = false;
  // Who runs the publish pass, which drains the async-relink publish queue. On: a
  // common::ServicePool worker (Services::publisher_pool, or a 1-worker pool the
  // instance owns when none is lent), so the relink ioctls and their journal
  // commit leave the application threads' critical path (pool workers carry no
  // clock lane; their charges land on the shared timeline). Off (the default): the
  // fsync or close that queued the file runs the same pass right after dropping
  // the file lock, with its cost rewound (sim::ScopedOffClock) — equivalent
  // accounting with a fully deterministic store sequence, which the async
  // crash-matrix column depends on.
  bool publisher_thread = false;
  // How many queued files one publish batch drains under ONE kernel journal commit
  // (a pass runs batches until the queue is empty). 1 = one commit per file (the
  // pre-batching behavior). Larger values amortize the commit writeout across an
  // fsync storm's worth of files; the log-full checkpoint waits on the publisher's
  // completion fence, so a batch in flight always finishes under its single commit
  // before the op log resets. 0 = auto: each batch takes the whole queue as it
  // stands — the batch sizes itself from queue depth, so a deeper backlog
  // amortizes into fewer commits without tuning. Either executor honours it; a
  // caller-run pass usually finds only the caller's own file queued.
  uint32_t publish_batch = 1;

  // Directory (on K-Split) for staging files and the op log.
  std::string runtime_dir = "/.splitfs";

  // --- Ablation toggles (Figure 3). Production configuration leaves both true. -------
  // When false, appends bypass staging and go straight to the kernel FS ("split" bar).
  bool enable_staging = true;
  // When false, fsync copies staged bytes into the target file instead of relinking
  // ("+staging" bar vs "+relink" bar).
  bool enable_relink = true;
};

// Shared-service wiring for multi-tenant deployments (src/tenant/). All pointers
// are borrowed (the tenant router outlives every instance it mounts) and all
// default to null, which means "own your services". Each background service has
// one pass, run by a pool worker or by the caller (deterministic, cost rewound).
// A lent pool carries the passes of every tenant that enables the service
// (publisher_thread, replenish_thread); with none, such an instance owns a
// 1-worker pool for it. With a token bucket set, foreground admission to that
// service is paced on the caller's virtual timeline.
struct Services {
  common::ServicePool* publisher_pool = nullptr;
  common::ServicePool* replenisher_pool = nullptr;
  // QoS: paces staging-file consumption (one token per staging file a lane takes).
  sim::TokenBucket* staging_tokens = nullptr;
  // QoS: paces foreground journal commits (fsync/metadata-sync forced commits).
  sim::TokenBucket* journal_credits = nullptr;
};

}  // namespace splitfs

#endif  // SRC_CORE_OPTIONS_H_
