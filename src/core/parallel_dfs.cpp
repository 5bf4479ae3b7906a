#include "core/parallel_dfs.h"

#include <algorithm>
#include <limits>

#include "core/dfs_enumerator.h"

namespace pathenum {

namespace internal {

EnumOptions BranchOptions(const EnumOptions& opts, const Deadline& deadline) {
  EnumOptions branch_opts = opts;
  branch_opts.result_limit =
      std::numeric_limits<uint64_t>::max();  // delegated to the sink
  branch_opts.response_target = 0;           // delegated to the sink
  branch_opts.time_limit_ms = deadline.RemainingMs();
  return branch_opts;
}

bool AccumulateBranch(EnumCounters& total, const EnumCounters& branch) {
  total.num_results += branch.num_results;
  total.edges_accessed += branch.edges_accessed;
  total.partials += branch.partials;
  total.invalid_partials += branch.invalid_partials;
  total.timed_out |= branch.timed_out;
  total.stopped_by_sink |= branch.stopped_by_sink;
  total.out_of_memory |= branch.out_of_memory;
  total.cancelled |= branch.cancelled;
  total.work_exceeded |= branch.work_exceeded;
  return !branch.stopped_by_sink && !branch.timed_out &&
         !branch.out_of_memory && !branch.cancelled && !branch.work_exceeded;
}

void FinishFanout(EnumCounters& out, std::span<const EnumCounters> workers,
                  uint64_t root_partials, uint64_t root_edges,
                  uint64_t delivered, double response_ms,
                  const EnumOptions& opts) {
  for (const EnumCounters& c : workers) {
    out.edges_accessed += c.edges_accessed;
    out.partials += c.partials;
    out.invalid_partials += c.invalid_partials;
    out.timed_out |= c.timed_out;
    out.stopped_by_sink |= c.stopped_by_sink;
    out.out_of_memory |= c.out_of_memory;
    out.cancelled |= c.cancelled;
    out.work_exceeded |= c.work_exceeded;
  }
  // The driver's own work (e.g. the root partial (s) and the per-branch
  // edge scan of the DFS fan-out) is accounted exactly once.
  out.partials += root_partials;
  out.edges_accessed += root_edges;
  // `delivered` is the gate's count of paths actually handed to inner
  // sinks; the gate caps it at the limit structurally, the min() below is
  // only a belt against future drivers feeding raw reservation counts.
  out.num_results = std::min(delivered, opts.result_limit);
  if (out.num_results >= opts.result_limit) {
    out.hit_result_limit = true;
    out.stopped_by_sink = false;
  }
  out.response_ms = response_ms;
}

EnumCounters DrainBranches(DfsEnumerator& dfs, const LightweightIndex& index,
                           std::span<const uint32_t> branches,
                           std::atomic<uint32_t>& cursor, PathSink& sink,
                           const EnumOptions& opts, const Deadline& deadline,
                           std::atomic<bool>& stop_claims) {
  return DrainUnits(
      static_cast<uint32_t>(branches.size()), cursor, stop_claims,
      [&](uint32_t b) {
        // The immediate target-arrival and the duplicate check for s are
        // the root frame's job in the sequential code; handled by
        // RunBranch. The shared gate handles the cross-thread result
        // limit; the deadline is absolute, so re-deriving each branch's
        // budget from its remaining wall time keeps it globally correct.
        EnumCounters c = dfs.RunBranch(index, branches[b], sink,
                                       BranchOptions(opts, deadline));
        // RunBranch charges both partials of its chain — (s) and (s,
        // branch) — so a standalone call is self-consistent. Within a
        // fan-out the root (s) is shared by every branch and charged
        // exactly once via FinishFanout's root_partials; deduct the
        // per-branch copy here so the merged totals equal the sequential
        // enumeration's.
        c.partials -= 1;
        return c;
      });
}

}  // namespace internal

}  // namespace pathenum
