// The one split executor (DESIGN.md §8): a split query runs the serial
// PathEnum pipeline — acquire the index, plan IDX-DFS vs IDX-JOIN — and
// fans the planned method out as independent units that several workers
// drain. A scheduler only brings participants to each phase: QueryEngine
// its pool's active workers, AsyncEngine the ticket's leader plus idle
// workers joining between queue pops.
#ifndef PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
#define PATHENUM_ENGINE_SPLIT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/options.h"
#include "core/query.h"
#include "core/sink.h"
#include "engine/index_cache.h"
#include "engine/query_context.h"
#include "obs/span.h"

namespace pathenum {

/// One fan-out phase: `units` independent units claimed off `cursor` until
/// they run out or `stop` trips. `drain(ctx, slot)` runs one participant's
/// share on its own context; it never throws.
struct SplitPhase {
  uint32_t units = 0;
  std::atomic<uint32_t> cursor{0};
  std::atomic<bool> stop{false};
  std::function<void(QueryContext& ctx, uint32_t slot)> drain;

  /// True while units remain unclaimed; helpers join a phase only then.
  bool HasWork() const {
    return !stop.load(std::memory_order_relaxed) &&
           cursor.load(std::memory_order_relaxed) < units;
  }
};

/// `run(phase)` calls `phase.drain` on every participant — each with its
/// own context and a slot unique within the phase and below `slots` — and
/// returns once all of them have left.
struct SplitScheduler {
  uint32_t slots = 1;
  std::function<void(SplitPhase&)> run;
};

/// Runs `q` split across `scheduler`'s participants. `leader` acquires the
/// index on its bound snapshot (through `cache` when non-null, under the
/// serial path's fingerprint) and holds the split-join merge scratch;
/// `span` gets the acquire/enumerate/merge marks. Paths reach `sink`
/// serialized, so a plain sink is safe. Throws std::logic_error for an
/// invalid query, and std::runtime_error once every participant has left
/// when one failed (a throwing sink, say).
QueryStats RunSplitQuery(QueryContext& leader, const Query& q, PathSink& sink,
                         const EnumOptions& opts, IndexCache* cache,
                         const SplitScheduler& scheduler,
                         obs::QuerySpan& span);

}  // namespace pathenum

#endif  // PATHENUM_ENGINE_SPLIT_EXECUTOR_H_
