// Branch-parallel fan-out accounting. The search tree under s fans out
// into the independent subtrees rooted at each first-level extension
// I_t(s, k-1), and the split IDX-JOIN into independent materialization and
// probe units; the per-query index is immutable after construction, so
// the units parallelize without any synchronization beyond result
// accounting. The helpers below are that accounting, shared by the split
// executor (engine/split_executor.h) and the shard router's stitched
// queries; deliveries flow through the BranchGate/BranchSink adapter of
// core/sink.h (DESIGN.md §8).
#ifndef PATHENUM_CORE_PARALLEL_DFS_H_
#define PATHENUM_CORE_PARALLEL_DFS_H_

#include <atomic>
#include <span>

#include "core/index.h"
#include "core/options.h"
#include "core/sink.h"
#include "util/timer.h"

namespace pathenum {

class DfsEnumerator;

namespace internal {

// Accounting helpers shared by every fan-out driver (the split executor
// under both engines, and the shard router). Branch-level limit
// bookkeeping is subtle enough that it must live in exactly one place.

/// Options for one branch of a fanned-out enumeration: result limit and
/// response target are delegated to the shared sink; the time budget is
/// re-derived from the query's one absolute deadline
/// (Deadline::RemainingMs), so every unit — whenever and on whichever
/// worker it starts — observes the same end instant.
EnumOptions BranchOptions(const EnumOptions& opts, const Deadline& deadline);

/// Folds one finished branch's counters into a worker's running total.
/// Returns false when the worker should stop claiming branches (sink stop
/// or timeout).
bool AccumulateBranch(EnumCounters& total, const EnumCounters& branch);

/// Merges per-worker totals into `out` and applies the shared accounting:
/// `root_partials`/`root_edges` charge the fan-out driver's own work once
/// (the DFS drivers pass the root partial (s) and the per-branch edge scan;
/// the split join passes zeros — its units carry all of its work), and
/// `delivered` results against `opts.result_limit` decide hit_result_limit
/// vs stopped_by_sink. `delivered` must come from the fan-out's BranchGate,
/// which structurally caps it at the limit — never limit + 1, even when a
/// branch hits the limit exactly at a merge barrier.
void FinishFanout(EnumCounters& out, std::span<const EnumCounters> workers,
                  uint64_t root_partials, uint64_t root_edges,
                  uint64_t delivered, double response_ms,
                  const EnumOptions& opts);

/// The one unit-claiming loop every split phase runs (per participating
/// worker): claims units off the shared `cursor` and runs `run(u)` on each
/// until all `units` are claimed or `stop_claims` trips, accumulating their
/// counters. When this participant's counters say stop, it trips
/// `stop_claims` so the other participants stop claiming too — the
/// query-wide limit makes their remaining work moot.
template <typename RunUnit>
EnumCounters DrainUnits(uint32_t units, std::atomic<uint32_t>& cursor,
                        std::atomic<bool>& stop_claims, RunUnit&& run) {
  EnumCounters total;
  while (!stop_claims.load(std::memory_order_relaxed)) {
    const uint32_t u = cursor.fetch_add(1, std::memory_order_relaxed);
    if (u >= units) break;
    if (!AccumulateBranch(total, run(u))) {
      stop_claims.store(true, std::memory_order_relaxed);
      break;
    }
  }
  return total;
}

/// DrainUnits over first-level DFS branch units: runs each claimed branch
/// through `dfs` into `sink` (the query's BranchSink).
EnumCounters DrainBranches(DfsEnumerator& dfs, const LightweightIndex& index,
                           std::span<const uint32_t> branches,
                           std::atomic<uint32_t>& cursor, PathSink& sink,
                           const EnumOptions& opts, const Deadline& deadline,
                           std::atomic<bool>& stop_claims);

}  // namespace internal

}  // namespace pathenum

#endif  // PATHENUM_CORE_PARALLEL_DFS_H_
