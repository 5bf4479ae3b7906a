// Per-layer probes for the traced run. Each probe times calls into one
// layer's public entry points on a workload's own query keys and adds the
// layer's metrics; nothing is traced inside the library.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/query.h"
#include "core/control.h"
#include "engine/index_cache.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "graph/view.h"
#include "obs/span.h"
#include "reference.h"
#include "shard/router.h"

namespace perfbench {

/// Distinct query keys with each one's reference count on the probed graph
/// version, counted up to limit + 1 so a truncation is visible.
struct ProbeSet {
  std::vector<pathenum::Query> queries;
  std::vector<uint64_t> expected;
  uint64_t limit = 0;
};

/// graph.* and core.*: the two k-bounded DistanceField sweeps, BuildIndex,
/// PlanExecution, RunWithIndex (as planned, forced IDX-DFS and forced
/// IDX-JOIN) and serial PathEnumerator::Run.
void ProbeGraphAndCore(const pathenum::GraphView& view, const ProbeSet& set,
                       Metrics& m, Outcome& out);

/// engine.split_gain and engine.batch_active_workers on one QueryEngine.
/// With `batched_metrics` (`cache_metrics`), also engine.batched_*
/// (cache.*) from a cache-on engine running the set as a batch twice.
void ProbeEngine(const pathenum::GraphView& view, const ProbeSet& set,
                 uint32_t workers, bool batched_metrics, bool cache_metrics,
                 Metrics& m, Outcome& out);

void AddBatchedBuildMetrics(uint64_t builds, uint64_t scanned, uint64_t solo,
                            Metrics& m);
void AddCacheMetrics(const pathenum::IndexCacheStats& c, Metrics& m);

/// One finished AsyncEngine ticket, read through QueryTicket::span().
struct TicketSpan {
  double queue_wait_ms = 0;
  double index_acquire_ms = 0;
  double enumerate_ms = 0;
};
void AddLiveSpanMetrics(const std::vector<TicketSpan>& spans, Metrics& m);
TicketSpan SpanOf(const pathenum::obs::QuerySpanData& span);

/// live.queue_wait/index_acquire/enumerate from an AsyncEngine over a copy
/// of `g` fed the whole set at once.
void ProbeLive(const pathenum::Graph& g, const ProbeSet& set, uint32_t workers,
               Metrics& m, Outcome& out);

/// One query routed through ShardRouter, with the same query's time on an
/// unsharded QueryEngine over the same graph version.
struct RoutedQuery {
  double routed_ms = 0;
  double unsharded_ms = 0;
  double plan_ms = 0;  // routed time with a pre-cancelled token
  bool delegated = false;
  bool stitched = false;
  uint64_t feasible_cut_edges = 0;
};

/// The RoutedQuery of `q`, which the router answered with `r` in
/// `routed_ms`: also times the same query on `unsharded` over `view` (its
/// bound graph when null), checked against `expected`, and routed under a
/// pre-cancelled token, which stops right after the router's planning.
RoutedQuery ProbeRouted(pathenum::ShardRouter& router,
                        pathenum::QueryEngine& unsharded,
                        const pathenum::GraphView* view,
                        const pathenum::Query& q,
                        const pathenum::RouterResult& r, double routed_ms,
                        uint64_t expected, uint64_t limit, Outcome& out);

/// Single-edge (k = 1) keys routed per kind by RouteEdgeKeys.
inline constexpr uint32_t kEdgeKeys = 8;

/// Routes `n` single-edge (k = 1) keys of each kind at `version`: edges
/// inside one shard, which the router always delegates, and cut edges,
/// which it always stitches. Their times join the workload's in
/// shard.delegated_ms_p50 and shard.stitched_ms_p50, so both are measured
/// on every workload.
std::vector<RoutedQuery> RouteEdgeKeys(pathenum::ShardRouter& router,
                                       const RefGraph& g, uint64_t version,
                                       uint32_t n, Outcome& out);

/// shard.* from the workload's routed keys plus the edge keys.
void AddShardMetrics(const std::vector<RoutedQuery>& routed,
                     const std::vector<RoutedQuery>& edge_keys,
                     uint64_t frames_sent, Metrics& m);

/// shard.* from a two-shard ShardRouter over `g` (whose reference copy is
/// `ref`) routing the set.
void ProbeShard(const pathenum::Graph& g, const RefGraph& ref,
                const ProbeSet& set, uint32_t workers, Metrics& m,
                Outcome& out);

/// "(s,t,k=..)" for error messages.
std::string Describe(const pathenum::Query& q);

/// Checks a finished query's count and terminal state against the count
/// it must deliver; records a correctness error on mismatch.
void CheckDelivered(const char* where, const pathenum::Query& q,
                    uint64_t delivered, pathenum::QueryState state,
                    uint64_t expected, uint64_t limit, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
