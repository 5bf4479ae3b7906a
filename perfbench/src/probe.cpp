#include "probe.h"

#include <algorithm>
#include <memory>
#include <string>

#include "core/path_enum.h"
#include "engine/query_engine.h"
#include "graph/bfs.h"
#include "live/async_engine.h"
#include "shard/router.h"

namespace perfbench {

using pathenum::BatchOptions;
using pathenum::BatchResult;
using pathenum::CountingSink;
using pathenum::EnumOptions;
using pathenum::Method;
using pathenum::Query;
using pathenum::QueryState;

std::string Describe(const Query& q) {
  return "(" + std::to_string(q.source) + "," + std::to_string(q.target) +
         ",k=" + std::to_string(q.hops) + ")";
}

namespace {

EnumOptions LimitOptions(uint64_t limit) {
  EnumOptions o;
  o.result_limit = limit;
  return o;
}

}  // namespace

void CheckDelivered(const char* where, const Query& q, uint64_t delivered,
                    QueryState state, uint64_t expected, uint64_t limit,
                    Outcome& out) {
  const uint64_t want = std::min(limit, expected);
  bool ok = delivered == want;
  if (state == QueryState::kUnsatisfiable) {
    ok = ok && expected == 0;
  } else if (expected > limit) {
    ok = ok && state == QueryState::kTruncated;
  } else if (expected < limit) {
    ok = ok && state == QueryState::kOk;
  } else {
    ok = ok && (state == QueryState::kOk || state == QueryState::kTruncated);
  }
  if (!ok) {
    out.Wrong(std::string(where) + ": query " + Describe(q) + " delivered " +
              std::to_string(delivered) + " in state " +
              std::to_string(static_cast<int>(state)) + ", reference " +
              std::to_string(expected) + " at limit " +
              std::to_string(limit));
  }
}

void ProbeGraphAndCore(const pathenum::GraphView& view, const ProbeSet& set,
                       Metrics& m, Outcome& out) {
  pathenum::PathEnumerator pe(view);
  pathenum::DistanceField fwd, bwd;
  const EnumOptions opts = LimitOptions(set.limit);
  std::vector<double> bfs, build, assembly, edges, plan, enumerate, serial;
  double enum_edges = 0, enum_invalid = 0, enum_results = 0, regret = 0;
  uint64_t joins = 0, wrong = 0;
  for (size_t i = 0; i < set.queries.size(); ++i) {
    const Query& q = set.queries[i];
    // The index's two sweeps: backward from t, then forward from s
    // admitting only vertices that can still reach t within k hops.
    pathenum::BfsOptions back;
    back.max_depth = q.hops;
    const pathenum::VertexAdmission admit = [&](pathenum::VertexId v,
                                                uint32_t d) {
      const uint32_t to_t = bwd.Distance(v);
      return to_t != pathenum::kInfDistance && d + to_t <= q.hops;
    };
    pathenum::BfsOptions forward = back;
    forward.admit = &admit;
    Clock::time_point t0 = Clock::now();
    if (view.has_overlay()) {
      bwd.Compute(view, pathenum::Direction::kBackward, q.target, back);
      fwd.Compute(view, pathenum::Direction::kForward, q.source, forward);
    } else {
      bwd.Compute(view.base(), pathenum::Direction::kBackward, q.target, back);
      fwd.Compute(view.base(), pathenum::Direction::kForward, q.source,
                  forward);
    }
    const double bfs_ms = MsSince(t0);

    t0 = Clock::now();
    const pathenum::LightweightIndex index =
        pe.BuildIndex(q, pathenum::PathEnumerator::BuildOptionsFor(q, opts));
    const double build_ms = MsSince(t0);

    pathenum::QueryStats plan_stats;
    t0 = Clock::now();
    const pathenum::PathEnumerator::ExecutionPlan chosen =
        pathenum::PathEnumerator::PlanExecution(index, opts, plan_stats);
    const double plan_ms = MsSince(t0);

    const auto run = [&](Method method, pathenum::QueryStats* stats) {
      EnumOptions o = opts;
      o.method = method;
      CountingSink sink;
      const Clock::time_point start = Clock::now();
      const pathenum::QueryStats st = pe.RunWithIndex(index, sink, o);
      const double ms = MsSince(start);
      CheckDelivered("core.RunWithIndex", q, sink.count(),
                     st.counters.TerminalState(), set.expected[i], set.limit,
                     out);
      ++out.attempted;
      if (stats != nullptr) *stats = st;
      return ms;
    };
    pathenum::QueryStats planned;
    const double planned_ms = run(Method::kAuto, &planned);
    const double dfs_ms = run(Method::kDfs, nullptr);
    const double join_ms = run(Method::kJoin, nullptr);

    CountingSink sink;
    t0 = Clock::now();
    const pathenum::QueryStats st = pe.Run(q, sink, opts);
    serial.push_back(MsSince(t0));
    CheckDelivered("core.Run", q, sink.count(), st.counters.TerminalState(),
                   set.expected[i], set.limit, out);
    ++out.attempted;

    bfs.push_back(bfs_ms);
    build.push_back(build_ms);
    assembly.push_back(std::max(0.0, build_ms - index.build_stats().bfs_ms));
    edges.push_back(static_cast<double>(index.num_edges()));
    plan.push_back(plan_ms);
    enumerate.push_back(std::max(0.0, planned_ms - plan_ms));
    enum_edges += static_cast<double>(planned.counters.edges_accessed);
    enum_invalid += static_cast<double>(planned.counters.invalid_partials);
    enum_results += static_cast<double>(planned.counters.num_results);
    if (chosen.method == Method::kJoin) ++joins;
    const double picked = chosen.method == Method::kJoin ? join_ms : dfs_ms;
    const double best = std::min(dfs_ms, join_ms);
    // A pick within 10% of the faster method counts as right: the two
    // timings of one method differ by about that much run to run.
    if (picked > 1.1 * best) ++wrong;
    regret += picked - best;
  }
  const double n = static_cast<double>(std::max<size_t>(1, set.queries.size()));
  m.Add("graph.bfs_ms_p50", Median(bfs), "ms");
  m.Add("core.index_build_ms_p50", Median(build), "ms");
  m.Add("core.index_assembly_ms_p50", Median(assembly), "ms");
  m.Add("core.index_edges_p50", Median(edges), "count");
  m.Add("core.plan_ms_p50", Median(plan), "ms");
  m.Add("core.plan_join_queries", static_cast<double>(joins), "count");
  m.Add("core.plan_wrong_picks", static_cast<double>(wrong), "count");
  m.Add("core.plan_regret_ms", regret / n, "ms");
  m.Add("core.enum_ms_p50", Median(enumerate), "ms");
  m.Add("core.enum_edges_per_result", Ratio(enum_edges, enum_results),
        "edges/path");
  m.Add("core.enum_invalid_partials_per_result",
        Ratio(enum_invalid, enum_results), "partials/path");
  m.Add("core.serial_query_ms_p50", Median(serial), "ms");
}

void AddCacheMetrics(const pathenum::IndexCacheStats& c, Metrics& m) {
  m.Add("cache.index_hit_rate",
        Ratio(static_cast<double>(c.index_hits),
              static_cast<double>(c.index_hits + c.index_misses)),
        "ratio");
  m.Add("cache.result_hit_rate",
        Ratio(static_cast<double>(c.result_hits),
              static_cast<double>(c.result_hits + c.result_misses)),
        "ratio");
  m.Add("cache.invalidation_evictions",
        static_cast<double>(c.invalidation_evictions), "count");
}

void AddBatchedBuildMetrics(uint64_t builds, uint64_t scanned, uint64_t solo,
                            Metrics& m) {
  m.Add("engine.batched_builds", static_cast<double>(builds), "count");
  m.Add("engine.batched_edge_scan_ratio",
        Ratio(static_cast<double>(solo), static_cast<double>(scanned)),
        "ratio");
}

void ProbeEngine(const pathenum::GraphView& view, const ProbeSet& set,
                 uint32_t workers, bool batched_metrics, bool cache_metrics,
                 Metrics& m, Outcome& out) {
  pathenum::QueryEngine engine(view, {.num_workers = workers});
  BatchOptions split;
  split.query = LimitOptions(set.limit);
  split.split_branches = true;
  split.use_cache = false;
  BatchOptions serial = split;
  serial.split_branches = false;
  std::vector<double> gain;
  for (size_t i = 0; i < set.queries.size(); ++i) {
    const std::span<const Query> one(&set.queries[i], 1);
    Clock::time_point t0 = Clock::now();
    const BatchResult a = engine.CountBatch(one, serial);
    const double serial_ms = MsSince(t0);
    t0 = Clock::now();
    const BatchResult b = engine.CountBatch(one, split);
    const double split_ms = MsSince(t0);
    for (const BatchResult* r : {&a, &b}) {
      CheckDelivered("engine.CountBatch", set.queries[i], r->TotalResults(),
                     r->states[0], set.expected[i], set.limit, out);
      ++out.attempted;
    }
    gain.push_back(Ratio(serial_ms, split_ms));
  }
  const BatchResult batch = engine.CountBatch(set.queries, serial);
  for (size_t i = 0; i < set.queries.size(); ++i) {
    CheckDelivered("engine.CountBatch(batch)", set.queries[i],
                   batch.stats[i].counters.num_results, batch.states[i],
                   set.expected[i], set.limit, out);
    ++out.attempted;
  }
  m.Add("engine.split_gain", Median(gain), "ratio");
  m.Add("engine.batch_active_workers", batch.workers, "count");
  if (!batched_metrics && !cache_metrics) return;

  // A cache-on engine runs the keys as one batch twice: the first pass
  // misses (and fuses its builds), the second hits.
  pathenum::QueryEngine cached(view,
                               {.num_workers = workers, .enable_cache = true});
  BatchOptions b = serial;
  b.use_cache = true;
  uint64_t builds = 0, scanned = 0, solo = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const BatchResult r = cached.CountBatch(set.queries, b);
    builds += r.batched_builds;
    scanned += r.batched_edges_scanned;
    solo += r.batched_solo_edges;
    for (size_t i = 0; i < set.queries.size(); ++i) {
      CheckDelivered("engine.CountBatch(cached)", set.queries[i],
                     r.stats[i].counters.num_results, r.states[i],
                     set.expected[i], set.limit, out);
      ++out.attempted;
    }
  }
  if (batched_metrics) AddBatchedBuildMetrics(builds, scanned, solo, m);
  if (cache_metrics) AddCacheMetrics(cached.cache()->Stats(), m);
}

TicketSpan SpanOf(const pathenum::obs::QuerySpanData& span) {
  using pathenum::obs::SpanStage;
  return {span.StageMs(SpanStage::kQueueWait),
          span.StageMs(SpanStage::kIndexAcquire),
          span.StageMs(SpanStage::kEnumerate)};
}

void AddLiveSpanMetrics(const std::vector<TicketSpan>& spans, Metrics& m) {
  std::vector<double> wait, acquire, enumerate;
  for (const TicketSpan& s : spans) {
    wait.push_back(s.queue_wait_ms);
    acquire.push_back(s.index_acquire_ms);
    enumerate.push_back(s.enumerate_ms);
  }
  m.Add("live.queue_wait_ms_p50", Median(wait), "ms");
  m.Add("live.queue_wait_ms_p99", Quantile(wait, 0.99), "ms");
  m.Add("live.index_acquire_ms_p50", Median(acquire), "ms");
  m.Add("live.enumerate_ms_p50", Median(enumerate), "ms");
}

void ProbeLive(const pathenum::Graph& g, const ProbeSet& set, uint32_t workers,
               Metrics& m, Outcome& out) {
  pathenum::AsyncEngineOptions ao;
  ao.num_workers = workers;
  pathenum::AsyncEngine engine(pathenum::Graph(g), ao);
  std::vector<std::unique_ptr<CountingSink>> sinks;
  std::vector<pathenum::QueryTicket> tickets;
  for (const Query& q : set.queries) {
    sinks.push_back(std::make_unique<CountingSink>());
    tickets.push_back(engine.Submit(q, *sinks.back(), LimitOptions(set.limit)));
  }
  std::vector<TicketSpan> spans;
  for (size_t i = 0; i < tickets.size(); ++i) {
    tickets[i].Wait();
    ++out.attempted;
    if (!tickets[i].ok()) {
      ++out.failed;
      continue;
    }
    CheckDelivered("live.Submit", set.queries[i], sinks[i]->count(),
                   tickets[i].state(), set.expected[i], set.limit, out);
    spans.push_back(SpanOf(tickets[i].span()));
  }
  AddLiveSpanMetrics(spans, m);
}

std::vector<RoutedQuery> RouteEdgeKeys(pathenum::ShardRouter& router,
                                       const RefGraph& g, uint64_t version,
                                       uint32_t n, Outcome& out) {
  std::vector<Query> local, cut;
  const uint32_t nv = g.num_vertices();
  for (uint64_t i = 0; i < nv && (local.size() < n || cut.size() < n); ++i) {
    const uint32_t u = static_cast<uint32_t>((i * 7919) % nv);
    g.ForOut(u, version, [&](uint32_t w) {
      const bool same = router.ShardOf(u) == router.ShardOf(w);
      std::vector<Query>& kind = same ? local : cut;
      if (kind.size() < n && u != w) kind.push_back(Query{u, w, 1});
    });
    if (local.size() > n) local.resize(n);
    if (cut.size() > n) cut.resize(n);
  }
  std::vector<RoutedQuery> routed;
  for (const std::vector<Query>* keys : {&local, &cut}) {
    for (const Query& q : *keys) {
      CountingSink sink;
      const Clock::time_point t0 = Clock::now();
      const pathenum::RouterResult r = router.Run(q, sink, {});
      RoutedQuery rq;
      rq.routed_ms = MsSince(t0);
      ++out.attempted;
      if (!r.error.empty()) {
        ++out.failed;
        continue;
      }
      CheckDelivered("shard.Run(edge)", q, sink.count(), r.state, 1, 1, out);
      rq.delegated = r.delegated;
      rq.stitched = !r.delegated;
      routed.push_back(rq);
    }
  }
  return routed;
}

RoutedQuery ProbeRouted(pathenum::ShardRouter& router,
                        pathenum::QueryEngine& unsharded,
                        const pathenum::GraphView* view, const Query& q,
                        const pathenum::RouterResult& r, double routed_ms,
                        uint64_t expected, uint64_t limit, Outcome& out) {
  RoutedQuery rq;
  rq.routed_ms = routed_ms;
  rq.delegated = r.delegated;
  rq.stitched = !r.delegated && r.state != QueryState::kUnsatisfiable;
  rq.feasible_cut_edges = r.feasible_cut_edges;

  CountingSink sink;
  pathenum::PathSink* sinks[] = {&sink};
  const std::span<const Query> one(&q, 1);
  BatchOptions b;
  b.query = LimitOptions(limit);
  Clock::time_point t0 = Clock::now();
  const BatchResult base = view != nullptr
                               ? unsharded.RunBatch(*view, one, sinks, b)
                               : unsharded.RunBatch(one, sinks, b);
  rq.unsharded_ms = MsSince(t0);
  CheckDelivered("engine.RunBatch(unsharded)", q, sink.count(), base.states[0],
                 expected, limit, out);
  ++out.attempted;

  EnumOptions cancelled = b.query;
  cancelled.cancel = pathenum::CancelToken::Cancellable();
  cancelled.cancel.Cancel();
  CountingSink discard;
  t0 = Clock::now();
  router.Run(q, discard, cancelled);
  rq.plan_ms = MsSince(t0);
  return rq;
}

void AddShardMetrics(const std::vector<RoutedQuery>& routed,
                     const std::vector<RoutedQuery>& edge_keys,
                     uint64_t frames_sent, Metrics& m) {
  std::vector<double> plan, overhead, feasible, stitched, delegated;
  std::vector<double> stitched_ms, delegated_ms;
  for (const RoutedQuery& r : edge_keys) {
    (r.delegated ? delegated_ms : stitched_ms).push_back(r.routed_ms);
  }
  for (const RoutedQuery& r : routed) {
    plan.push_back(r.plan_ms);
    overhead.push_back(r.routed_ms - r.unsharded_ms);
    if (r.stitched) {
      stitched.push_back(r.routed_ms);
      feasible.push_back(static_cast<double>(r.feasible_cut_edges));
    }
    if (r.delegated) delegated.push_back(r.routed_ms);
  }
  stitched_ms.insert(stitched_ms.end(), stitched.begin(), stitched.end());
  delegated_ms.insert(delegated_ms.end(), delegated.begin(), delegated.end());
  const double answered =
      static_cast<double>(stitched.size() + delegated.size());
  m.Add("shard.plan_ms_p50", Median(plan), "ms");
  m.Add("shard.overhead_ms_p50", Median(overhead), "ms");
  m.Add("shard.stitched_share",
        Ratio(static_cast<double>(stitched.size()), answered), "ratio");
  m.Add("shard.frames_per_stitched",
        Ratio(static_cast<double>(frames_sent),
              static_cast<double>(stitched.size())),
        "frames/query");
  m.Add("shard.feasible_cut_edges_p50", Median(feasible), "count");
  m.Add("shard.stitched_ms_p50", Median(stitched_ms), "ms");
  m.Add("shard.delegated_ms_p50", Median(delegated_ms), "ms");
}

void ProbeShard(const pathenum::Graph& g, const RefGraph& ref,
                const ProbeSet& set, uint32_t workers, Metrics& m,
                Outcome& out) {
  pathenum::RouterOptions ro;
  ro.partition.num_shards = 2;
  ro.shard.engine.num_workers = std::max<uint32_t>(1, workers / 2);
  pathenum::ShardRouter router(g, ro);
  pathenum::QueryEngine unsharded(
      g, {.num_workers = workers, .enable_cache = true});
  const EnumOptions opts = LimitOptions(set.limit);
  std::vector<RoutedQuery> routed;
  for (size_t i = 0; i < set.queries.size(); ++i) {
    const Query& q = set.queries[i];
    CountingSink sink;
    const Clock::time_point t0 = Clock::now();
    const pathenum::RouterResult r = router.Run(q, sink, opts);
    const double routed_ms = MsSince(t0);
    ++out.attempted;
    if (!r.error.empty()) {
      ++out.failed;
      continue;
    }
    CheckDelivered("shard.Run", q, sink.count(), r.state, set.expected[i],
                   set.limit, out);
    routed.push_back(ProbeRouted(router, unsharded, nullptr, q, r, routed_ms,
                                 set.expected[i], set.limit, out));
  }
  const uint64_t frames = router.stats().frames_sent;
  AddShardMetrics(routed, RouteEdgeKeys(router, ref, 0, kEdgeKeys, out),
                  frames, m);
}

}  // namespace perfbench
