#include "engine/split_executor.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallel_dfs.h"
#include "util/timer.h"

namespace pathenum {

namespace {

/// One split query's fan-out state: the shared gate and serialized sink,
/// the one absolute deadline every unit derives its budget from, and the
/// first participant failure.
struct Fanout {
  Fanout(const LightweightIndex& idx, PathSink& sink,
         const EnumOptions& query_opts, const Timer& enum_timer,
         const SplitScheduler& sched)
      : index(idx),
        opts(query_opts),
        scheduler(sched),
        deadline(Deadline::AfterMs(query_opts.time_limit_ms)),
        gate(query_opts.result_limit, query_opts.response_target, enum_timer),
        shared(gate, sink) {}

  const LightweightIndex& index;
  const EnumOptions& opts;
  const SplitScheduler& scheduler;
  const Deadline deadline;
  BranchGate gate;
  BranchSink shared;
  std::mutex error_mutex;
  std::string error;  // first participant failure
};

/// Brings the participants through one phase of `units` units; each runs
/// `drain(ctx, slot, phase)` and its counters fold into `per_slot[slot]`.
/// A failing participant (a throwing sink, typically) fails the whole
/// query: it stops the phase's claiming and trips the gate's stop latch so
/// no other participant delivers into the broken sink.
template <typename Drain>
void RunPhase(Fanout& f, size_t units, std::span<EnumCounters> per_slot,
              Drain&& drain) {
  SplitPhase phase;
  phase.units = static_cast<uint32_t>(units);
  phase.drain = [&](QueryContext& ctx, uint32_t slot) {
    try {
      internal::AccumulateBranch(per_slot[slot], drain(ctx, slot, phase));
    } catch (const std::exception& e) {
      phase.stop.store(true, std::memory_order_relaxed);
      f.gate.Stop();
      const std::lock_guard<std::mutex> lock(f.error_mutex);
      if (f.error.empty()) f.error = e.what();
    }
  };
  f.scheduler.run(phase);
}

/// IDX-DFS: one phase of first-level branch units.
void FanOutDfs(Fanout& f, EnumCounters& out, obs::QuerySpan& span) {
  const auto branches =
      f.index.OutSlotsWithin(f.index.source_slot(), f.index.hops() - 1);
  std::vector<EnumCounters> per_slot(f.scheduler.slots);
  RunPhase(f, branches.size(), per_slot,
           [&](QueryContext& ctx, uint32_t, SplitPhase& phase) {
             return internal::DrainBranches(ctx.split_dfs(), f.index, branches,
                                            phase.cursor, f.shared, f.opts,
                                            f.deadline, phase.stop);
           });
  span.Mark(obs::SpanStage::kEnumerate);
  internal::FinishFanout(out, per_slot, /*root_partials=*/1,
                         /*root_edges=*/branches.size(), f.gate.delivered(),
                         f.gate.response_ms(), f.opts);
  span.Mark(obs::SpanStage::kMerge);
}

/// The split IDX-JOIN: the materialization phase, the merge barrier, then
/// the probe phase over left-tuple chunks.
void FanOutJoin(Fanout& f, uint32_t cut, SplitJoinScratch& s,
                EnumCounters& out, obs::QuerySpan& span) {
  const uint32_t left_width = cut + 1;
  const uint32_t right_width = f.index.hops() - cut + 1;
  const uint32_t slots = f.scheduler.slots;

  // The dependence-disjoint unit decomposition: the left half (one unit)
  // and each right-half start (one unit per vertex of the cut level set
  // C_cut) are mutually independent — level membership needs nothing from
  // the left half, and C_cut is a superset of the join keys, so the extra
  // starts only cost work that the key filter below discards. All units
  // meet at the merge barrier before the probe.
  s.starts.clear();
  f.index.ForEachSlotInLevel(cut, [&](uint32_t v) { s.starts.push_back(v); });
  s.left.clear();
  if (s.right.size() < slots) s.right.resize(slots);
  for (uint32_t w = 0; w < slots; ++w) s.right[w].clear();
  s.ranges.assign(s.starts.size(), {0, 0});
  s.range_slot.assign(s.starts.size(), 0);
  // The serial join caps each half at half the memory budget; the split
  // right half meters one shared budget across its per-slot buffers.
  // Because C_cut is a superset of the keys, a tight budget can trip here
  // on speculative tuples the serial path never materializes — the
  // documented cost of the dependence-disjoint decomposition (DESIGN.md
  // §8). The key filter below bounds it: once the left half has finished,
  // its published key set lets later right units skip non-key starts.
  std::atomic<size_t> right_used{0};
  const size_t half_cap =
      f.opts.partial_memory_limit_bytes / (2 * sizeof(uint32_t));
  s.is_key.assign(f.index.num_vertices(), 0);
  std::atomic<bool> keys_ready{false};

  // Unit 0 is the left half, unit 1 + i the right half from starts[i].
  const auto materialize = [&](JoinEnumerator& join, uint32_t slot,
                               uint32_t u) {
    const EnumOptions o = internal::BranchOptions(f.opts, f.deadline);
    if (u == 0) {
      const EnumCounters c = join.MaterializeUnit(
          f.index, f.index.source_slot(), /*base=*/0, left_width, s.left, o);
      if (!c.timed_out && !c.out_of_memory && !c.cancelled &&
          !c.work_exceeded) {
        for (size_t off = cut; off < s.left.size(); off += left_width) {
          s.is_key[s.left[off]] = 1;
        }
        keys_ready.store(true, std::memory_order_release);
      }
      return c;
    }
    const uint32_t start = s.starts[u - 1];
    if (keys_ready.load(std::memory_order_acquire) && !s.is_key[start]) {
      return EnumCounters{};  // provably not a join key: skip the unit
    }
    std::vector<uint32_t>& buf = s.right[slot];
    const size_t begin = buf.size();
    const EnumCounters c =
        join.MaterializeUnit(f.index, start, /*base=*/cut, right_width, buf,
                             o, &right_used, half_cap);
    s.ranges[u - 1] = {begin, buf.size()};
    s.range_slot[u - 1] = slot;
    return c;
  };
  // Slots [0, slots) count the materialization phase, [slots, 2 * slots)
  // the probe phase.
  std::vector<EnumCounters> counters(2 * static_cast<size_t>(slots));
  const std::span<EnumCounters> halves(counters.data(), slots);
  RunPhase(f, s.starts.size() + 1, halves,
           [&](QueryContext& ctx, uint32_t slot, SplitPhase& phase) {
             return internal::DrainUnits(
                 phase.units, phase.cursor, phase.stop, [&](uint32_t u) {
                   return materialize(ctx.split_join(), slot, u);
                 });
           });
  // The unit barrier ends the enumerate stage; key-filtering, grouping and
  // the probe fan-out below are the join's merge work.
  span.Mark(obs::SpanStage::kEnumerate);

  // --- Merge barrier: key-filter the per-start ranges into groups. -------
  size_t right_total = 0;
  for (uint32_t w = 0; w < slots; ++w) right_total += s.right[w].size();
  bool halves_truncated = !f.error.empty();
  for (const EnumCounters& c : halves) {
    halves_truncated |=
        c.timed_out || c.out_of_memory || c.cancelled || c.work_exceeded;
  }
  if (!halves_truncated) {
    // The left unit completed (or halves_truncated would be set), so the
    // key set is published.
    s.groups.assign(f.index.num_vertices(), JoinGroup{});
    for (size_t i = 0; i < s.starts.size(); ++i) {
      if (!s.is_key[s.starts[i]]) continue;
      const auto [begin, end] = s.ranges[i];
      s.groups[s.starts[i]] = {s.right[s.range_slot[i]].data() + begin,
                               (end - begin) / right_width};
    }

    // --- Probe: left-tuple chunks fan out into the serialized sink. ------
    const size_t num_left = s.left.size() / left_width;
    constexpr size_t kProbeChunk = 64;
    RunPhase(f, (num_left + kProbeChunk - 1) / kProbeChunk,
             std::span<EnumCounters>(counters.data() + slots, slots),
             [&](QueryContext& ctx, uint32_t, SplitPhase& phase) {
               return internal::DrainUnits(
                   phase.units, phase.cursor, phase.stop, [&](uint32_t chunk) {
                     const size_t begin = size_t{chunk} * kProbeChunk;
                     return ctx.split_join().ProbeUnit(
                         f.index, cut, s.left, begin,
                         std::min(begin + kProbeChunk, num_left), s.groups,
                         f.shared, internal::BranchOptions(f.opts, f.deadline));
                   });
             });
  }

  internal::FinishFanout(out, counters, /*root_partials=*/0,
                         /*root_edges=*/0, f.gate.delivered(),
                         f.gate.response_ms(), f.opts);
  span.Mark(obs::SpanStage::kMerge);
  // This query's footprint is the materialized sizes plus the key/group
  // tables, not the pooled buffers' retained capacity.
  out.peak_partial_bytes =
      (s.left.size() + right_total) * sizeof(uint32_t) +
      f.index.num_vertices() * (sizeof(uint8_t) + sizeof(JoinGroup));
}

}  // namespace

QueryStats RunSplitQuery(QueryContext& leader, const Query& q, PathSink& sink,
                         const EnumOptions& opts, IndexCache* cache,
                         const SplitScheduler& scheduler,
                         obs::QuerySpan& span) {
  ValidateQuery(leader.enumerator().view(), q);
  QueryStats stats;
  Timer total;
  // The serial path's BuildOptionsFor fingerprint and PlanExecution: a
  // split query shares index-cache entries with — and picks the same
  // method as — its serial equivalent. It does not use the result cache
  // (its sink interleaving is nondeterministic, so replay order would be,
  // too). The index is immutable once acquired, so every unit, on
  // whichever worker, observes exactly the leader's snapshot.
  const std::shared_ptr<const LightweightIndex> index = leader.AcquireIndex(
      q, PathEnumerator::BuildOptionsFor(q, opts), cache, stats);
  span.SetIndexOutcome(stats.index_cache_hit, false,
                       index->build_stats().batched);
  span.Mark(obs::SpanStage::kIndexAcquire);

  if (index->build_stats().interrupted) {
    // Deadline/cancel tripped the build: no fan-out, zero paths.
    PathEnumerator::FinalizeInterruptedBuild(stats, *index, total);
    return stats;
  }

  const PathEnumerator::ExecutionPlan plan =
      PathEnumerator::PlanExecution(*index, opts, stats);
  stats.method = plan.method;
  stats.cut_position = plan.cut;

  Timer enum_timer;
  EnumCounters counters;
  if (index->source_slot() != kInvalidSlot) {
    Fanout f(*index, sink, opts, enum_timer, scheduler);
    if (plan.method == Method::kJoin) {
      FanOutJoin(f, plan.cut, leader.split_join_scratch(), counters, span);
    } else {
      FanOutDfs(f, counters, span);
    }
    // Every participant has left: the sink is safe to abandon.
    if (!f.error.empty()) throw std::runtime_error(f.error);
  }

  PathEnumerator::Finalize(stats, counters, enum_timer.ElapsedMs(),
                           total.ElapsedMs());
  return stats;
}

}  // namespace pathenum
