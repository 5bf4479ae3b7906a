// The repository benchmark: four workloads, each checked against the
// independent reference in reference.h. Usage:
//
//   perfbench --workload <paper_sparse|paper_dense|serve_live|serve_sharded>
//             --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, taken by timing calls into each layer's
// public entry points (probe.h). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every output checked out.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "probe.h"
#include "reference.h"

#include "engine/query_engine.h"
#include "live/async_engine.h"
#include "live/snapshot.h"
#include "shard/router.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace perfbench {
namespace {

using pathenum::BatchOptions;
using pathenum::BatchResult;
using pathenum::Graph;
using pathenum::GraphDelta;
using pathenum::PathSink;
using pathenum::Query;
using pathenum::QueryState;

constexpr uint32_t kHops = 6;
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
/// Query keys the traced run's layer probes take from the workload.
constexpr size_t kProbeQueries = 40;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Generator seed of every fixed query set: the paper workloads' queries and
/// the serving mixes' hot and unsatisfiable keys are the same in every run
/// (fixed inputs, repeated runs); `--seed` draws their order, the serving
/// request sequence, the cold keys and the updates.
constexpr uint64_t kQuerySeed = 1;
/// Batch-throughput samples per serving run.
constexpr size_t kBursts = 5;
/// Update epochs as in bench_throughput's update_heavy configuration: each
/// inserts 8 edges (PATHENUM_BENCH_UPDATE_EDGES) and deletes 8, and the
/// serving workloads publish one per 64 requests (its skewed batch).
constexpr uint32_t kDeltaEdges = 8;
constexpr uint32_t kRequestsPerUpdate = 64;
/// Update epochs per round of a paper workload (an even number, so each
/// round leaves the snapshot's topology where it found it).
constexpr int kPaperUpdatesPerRound = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// splitmix64: the benchmark's own seeded generator.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

uint32_t Workers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Reference counts, up to limit + 1, memoised per (s, t, version).
class Reference {
 public:
  explicit Reference(const RefGraph& g) : g_(g) {}
  uint64_t Count(const Query& q, uint64_t version, uint64_t limit) {
    const auto key = std::make_tuple(q.source, q.target, version);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    DistancesTo(g_, version, q.target, q.hops, dist_);
    const uint64_t cap = limit == kNoLimit ? kNoLimit : limit + 1;
    const uint64_t n =
        CountPaths(g_, version, q.source, q.target, q.hops, cap, dist_);
    memo_.emplace(key, n);
    return n;
  }
  const RefGraph& graph() const { return g_; }

 private:
  const RefGraph& g_;
  std::vector<uint8_t> dist_;
  std::map<std::tuple<uint32_t, uint32_t, uint64_t>, uint64_t> memo_;
};

/// Validates every path as it arrives (used by the untimed check rounds).
class CheckingSink : public PathSink {
 public:
  CheckingSink(const RefGraph& g, uint64_t version, const Query& q)
      : checker_(g, version, q.source, q.target, q.hops) {}
  bool OnPath(std::span<const pathenum::VertexId> path) override {
    checker_.Check(path);
    return true;
  }
  const PathChecker& checker() const { return checker_; }

 private:
  PathChecker checker_;
};

void CheckPaths(const char* where, const RefGraph& g, uint64_t version,
                const Query& q, const TimedSink& sink, Outcome& out) {
  PathChecker pc(g, version, q.source, q.target, q.hops);
  uint32_t begin = 0;
  for (const uint32_t end : sink.ends()) {
    if (!pc.Check(std::span<const pathenum::VertexId>(
            sink.verts().data() + begin, end - begin))) {
      out.Wrong(std::string(where) + ": query " + Describe(q) + ": " +
                pc.error());
      return;
    }
    begin = end;
  }
}

void CheckChecker(const char* where, const Query& q, const PathChecker& pc,
                  Outcome& out) {
  if (!pc.ok()) {
    out.Wrong(std::string(where) + ": query " + Describe(q) + ": " +
              pc.error());
  }
}

/// One query as the user saw it.
struct QueryRecord {
  double query_ms = 0;     // submit -> completion
  double latency_ms = 0;   // due -> completion
  double response_ms = 0;  // submit -> response-target-th (or last) path
  uint64_t paths = 0;
};

QueryRecord Record(Clock::time_point due, Clock::time_point submit,
                   Clock::time_point done, const TimedSink& sink) {
  QueryRecord r;
  r.query_ms = MsBetween(submit, done);
  r.latency_ms = MsBetween(due, done);
  r.response_ms =
      MsBetween(submit, sink.has_paths() ? sink.response_time() : done);
  r.paths = sink.count();
  return r;
}

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<QueryRecord> queries;
  std::vector<double> batch_qps;
  double served_queries = 0;
  double served_ms = 0;
  std::vector<double> update_ms;

  void AddTo(Metrics& m) const {
    std::vector<double> q, lat, resp, rate;
    for (const QueryRecord& r : queries) {
      q.push_back(r.query_ms);
      lat.push_back(r.latency_ms);
      resp.push_back(r.response_ms);
      if (r.paths > 0 && r.query_ms > 0) {
        rate.push_back(static_cast<double>(r.paths) / (r.query_ms / 1e3));
      }
    }
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("query_ms_p50", Median(q), "ms");
    m.Add("response_ms_p50", Median(resp), "ms");
    m.Add("results_per_s", Median(rate), "paths/s");
    m.Add("batch_qps", Median(batch_qps), "queries/s");
    m.Add("latency_ms_p50", Median(lat), "ms");
    m.Add("served_qps", Ratio(served_queries, served_ms / 1e3), "queries/s");
    m.Add("update_ms_p50", Median(update_ms), "ms");
  }
};

/// A random update epoch on the reference's current version: `n` absent
/// edges inserted and `n` present edges deleted, none touching another.
GraphDelta RandomDelta(const RefGraph& g, Rng& rng, uint32_t n) {
  GraphDelta d;
  std::unordered_set<uint64_t> used;
  const uint64_t ver = g.version();
  const auto fresh = [&](uint32_t u, uint32_t v) {
    return u != v && used.insert((uint64_t{u} << 32) | v).second;
  };
  while (d.insertions.size() < n) {
    const uint32_t u = static_cast<uint32_t>(rng.Below(g.num_vertices()));
    const uint32_t v = static_cast<uint32_t>(rng.Below(g.num_vertices()));
    if (!g.HasEdge(u, v, ver) && fresh(u, v)) d.Insert(u, v);
  }
  while (d.deletions.size() < n) {
    const uint32_t u = static_cast<uint32_t>(rng.Below(g.num_vertices()));
    const uint32_t deg = g.OutDegree(u, ver);
    if (deg == 0) continue;
    uint32_t pick = static_cast<uint32_t>(rng.Below(deg)), v = 0;
    g.ForOut(u, ver, [&](uint32_t w) {
      if (pick-- == 0) v = w;
    });
    if (fresh(u, v)) d.Delete(u, v);
  }
  return d;
}

/// The probe set: the first distinct keys of `queries`, with reference
/// counts at `version`.
ProbeSet MakeProbeSet(const std::vector<Query>& queries, Reference& ref,
                      uint64_t version, uint64_t limit) {
  ProbeSet set;
  set.limit = limit;
  std::unordered_set<uint64_t> seen;
  for (const Query& q : queries) {
    if (set.queries.size() >= kProbeQueries) break;
    if (!seen.insert((uint64_t{q.source} << 32) | q.target).second) continue;
    set.queries.push_back(q);
    set.expected.push_back(ref.Count(q, version, limit));
  }
  return set;
}

void AddCommonLayerMetrics(double late_ms_max, uint64_t compactions,
                           uint64_t oracle_rejects, uint64_t certified_unsat,
                           Metrics& m) {
  m.Add("live.compactions", static_cast<double>(compactions), "count");
  m.Add("oracle.reject_share",
        Ratio(static_cast<double>(oracle_rejects),
              static_cast<double>(certified_unsat)),
        "ratio");
  m.Add("loadgen.late_ms_max", late_ms_max, "ms");
}

// ---------------------------------------------------------------------------
// paper_sparse / paper_dense
// ---------------------------------------------------------------------------

struct PaperConfig {
  const char* dataset;
  double scale;
  uint32_t queries;
  uint64_t limit;
};

void RunPaper(const PaperConfig& cfg, const Args& args, Metrics& m,
              Outcome& out) {
  const uint32_t workers = Workers();
  EndToEnd e2e;
  std::unique_ptr<pathenum::QueryEngine> engine;
  std::unique_ptr<pathenum::SnapshotManager> snapshots;
  std::unique_ptr<Graph> g;
  std::vector<Query> queries;
  for (int rep = 0; rep < kSetups; ++rep) {
    engine.reset();
    snapshots.reset();
    g.reset();
    const Clock::time_point t0 = Clock::now();
    g = std::make_unique<Graph>(pathenum::MakeDataset(cfg.dataset, cfg.scale));
    pathenum::QueryGenOptions qo;
    qo.count = cfg.queries;
    qo.hops = kHops;
    qo.seed = kQuerySeed;
    queries = pathenum::GenerateQueries(*g, qo);
    engine = std::make_unique<pathenum::QueryEngine>(
        *g, pathenum::EngineOptions{.num_workers = workers});
    snapshots = std::make_unique<pathenum::SnapshotManager>(Graph(*g));
    e2e.setup_s.push_back(MsSince(t0) / 1e3);
  }
  if (queries.empty()) {
    out.Wrong("the query generator returned no queries");
    return;
  }

  // `--seed` draws the query order and the update epochs. The paper
  // workloads query the base graph, so each random epoch is followed by its
  // inverse on the snapshot layer.
  const std::vector<Query> generated = queries;
  Rng rng(args.seed ^ 0x5bd1e995u);
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.Below(i)]);
  }
  RefGraph refg(*g);
  Reference ref(refg);
  std::vector<uint64_t> expected;
  for (const Query& q : queries) expected.push_back(ref.Count(q, 0, cfg.limit));

  BatchOptions split;
  split.query.result_limit = cfg.limit;
  split.split_branches = true;
  split.use_cache = false;
  BatchOptions batch = split;
  batch.split_branches = false;

  // Check round, untimed: every delivered path of both execution modes is
  // validated against the reference graph. Split-mode paths are recorded
  // and checked after each query, outside the engine's serialized sink.
  {
    for (size_t i = 0; i < queries.size(); ++i) {
      TimedSink sink(true);
      PathSink* sinks[] = {&sink};
      const BatchResult r = engine->RunBatch(
          std::span<const Query>(&queries[i], 1), sinks, split);
      ++out.attempted;
      CheckPaths("split", refg, 0, queries[i], sink, out);
      CheckDelivered("split", queries[i], sink.count(), r.states[0],
                     expected[i], cfg.limit, out);
    }
    std::vector<std::unique_ptr<CheckingSink>> owned;
    std::vector<PathSink*> sinks;
    for (const Query& q : queries) {
      owned.push_back(std::make_unique<CheckingSink>(refg, 0, q));
      sinks.push_back(owned.back().get());
    }
    const BatchResult r = engine->RunBatch(queries, sinks, batch);
    for (size_t i = 0; i < queries.size(); ++i) {
      ++out.attempted;
      CheckChecker("batch", queries[i], owned[i]->checker(), out);
      CheckDelivered("batch", queries[i], owned[i]->checker().count(),
                     r.states[i], expected[i], cfg.limit, out);
    }
  }

  // Each key's times are the medians over the rounds, which keeps a
  // transient stall in one round out of the percentiles.
  std::vector<std::vector<QueryRecord>> per_key(queries.size());
  double late_ms_max = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round == 0 || (!args.trace && MsSince(start) < args.seconds * 1e3);
       ++round) {
    const Clock::time_point phase_start = Clock::now();
    Clock::time_point prev_done = phase_start;
    for (size_t i = 0; i < queries.size(); ++i) {
      TimedSink sink;
      PathSink* sinks[] = {&sink};
      const Clock::time_point t0 = Clock::now();
      late_ms_max = std::max(late_ms_max, MsBetween(prev_done, t0));
      const BatchResult r = engine->RunBatch(
          std::span<const Query>(&queries[i], 1), sinks, split);
      const Clock::time_point t1 = Clock::now();
      prev_done = t1;
      ++out.attempted;
      CheckDelivered("split", queries[i], sink.count(), r.states[0],
                     expected[i], cfg.limit, out);
      per_key[i].push_back(Record(t0, t0, t1, sink));
    }
    e2e.served_queries += static_cast<double>(queries.size());
    e2e.served_ms += MsSince(phase_start);

    Clock::time_point t0;
    for (int u = 0; u < kPaperUpdatesPerRound; u += 2) {
      GraphDelta forward = RandomDelta(refg, rng, kDeltaEdges);
      GraphDelta inverse;
      inverse.insertions = forward.deletions;
      inverse.deletions = forward.insertions;
      for (const GraphDelta* d : {&forward, &inverse}) {
        t0 = Clock::now();
        snapshots->Apply(*d);
        e2e.update_ms.push_back(MsSince(t0));
        ++out.attempted;
      }
    }

    t0 = Clock::now();
    const BatchResult r = engine->CountBatch(queries, batch);
    e2e.batch_qps.push_back(static_cast<double>(queries.size()) /
                            (MsSince(t0) / 1e3));
    for (size_t i = 0; i < queries.size(); ++i) {
      ++out.attempted;
      CheckDelivered("batch", queries[i], r.stats[i].counters.num_results,
                     r.states[i], expected[i], cfg.limit, out);
    }
  }

  for (const std::vector<QueryRecord>& runs : per_key) {
    std::vector<double> q, resp;
    for (const QueryRecord& r : runs) {
      q.push_back(r.query_ms);
      resp.push_back(r.response_ms);
    }
    QueryRecord key = runs.front();
    key.query_ms = key.latency_ms = Median(q);
    key.response_ms = Median(resp);
    e2e.queries.push_back(key);
  }
  if (!args.trace) {
    e2e.AddTo(m);
    return;
  }
  const ProbeSet set = MakeProbeSet(generated, ref, 0, cfg.limit);
  ProbeGraphAndCore(*g, set, m, out);
  ProbeEngine(*g, set, workers, true, true, m, out);
  ProbeLive(*g, set, workers, m, out);
  ProbeShard(*g, refg, set, workers, m, out);
  AddCommonLayerMetrics(late_ms_max, snapshots->stats().compactions, 0, 0, m);
}

// ---------------------------------------------------------------------------
// Serving mixes shared by serve_live and serve_sharded
// ---------------------------------------------------------------------------

/// The serving mix's shares are not taken from measured traffic: hot keys
/// are the majority, so latency_ms_p50 lands on the cache path, and cold
/// keys are more than a tenth, so the latency tail lands on first-touch
/// index builds; unsatisfiable pairs are the rest.
constexpr double kHotShare = 0.6;
constexpr double kColdShare = 0.25;
/// Distinct hot keys under Zipf(1.0) rank weights, as in bench_throughput's
/// skewed workload (PATHENUM_BENCH_SKEW_DISTINCT).
constexpr uint32_t kHotKeys = 8;
/// Unsatisfiable pairs to draw from; the oracle rejects them before any
/// cache lookup, so repeating them takes no other path.
constexpr uint32_t kUnsatKeys = 64;

/// Draws request keys. The hot keys (the paper generator's, with fixed
/// Zipf ranks) and the unsatisfiable pairs (certified by the reference on
/// the base graph) come from kQuerySeed and are the same in every run; the
/// seed draws the request sequence and the cold keys, V' x V' pairs that
/// are never repeated.
class MixSource {
 public:
  MixSource(const Graph& g, Reference& ref, uint32_t hops, uint64_t seed)
      : hops_(hops), rng_(seed) {
    pathenum::QueryGenOptions qo;
    qo.count = kHotKeys;
    qo.hops = hops;
    qo.seed = kQuerySeed;
    hot_ = pathenum::GenerateQueries(g, qo);
    double total = 0;
    for (size_t i = 0; i < hot_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    for (const Query& q : hot_) used_.insert(Pack(q));
    top_ = pathenum::DegreePartition(g).first;
    Rng fixed(kQuerySeed);
    while (unsat_.size() < kUnsatKeys) {
      Query q{static_cast<uint32_t>(fixed.Below(g.num_vertices())),
              static_cast<uint32_t>(fixed.Below(g.num_vertices())), hops};
      if (q.source == q.target || !used_.insert(Pack(q)).second) continue;
      if (ref.Count(q, 0, 1) == 0) unsat_.push_back(q);
    }
  }

  const std::vector<Query>& hot() const { return hot_; }

  /// "hot x% cold y% unsat z%" of the keys drawn so far.
  std::string DrawnShares() const {
    const double n = static_cast<double>(drawn_[0] + drawn_[1] + drawn_[2]);
    char buf[96];
    std::snprintf(buf, sizeof buf, "hot %.1f%% cold %.1f%% unsat %.1f%%",
                  100 * Ratio(drawn_[0], n), 100 * Ratio(drawn_[1], n),
                  100 * Ratio(drawn_[2], n));
    return buf;
  }

  Query Next() {
    const double u = rng_.Unit();
    if (u < kHotShare && !hot_.empty()) {
      ++drawn_[0];
      const double r = rng_.Unit();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), r) -
          zipf_cdf_.begin());
      return hot_[std::min(rank, hot_.size() - 1)];
    }
    if (u < kHotShare + kColdShare) {
      ++drawn_[1];
      for (;;) {
        Query q{top_[rng_.Below(top_.size())], top_[rng_.Below(top_.size())],
                hops_};
        if (q.source != q.target && used_.insert(Pack(q)).second) return q;
      }
    }
    ++drawn_[2];
    return unsat_[rng_.Below(unsat_.size())];
  }

 private:
  static uint64_t Pack(const Query& q) {
    return (uint64_t{q.source} << 32) | q.target;
  }

  uint32_t hops_;
  Rng rng_;
  uint64_t drawn_[3] = {0, 0, 0};  // hot, cold, unsatisfiable
  std::vector<Query> hot_;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> top_;
  std::vector<Query> unsat_;
  std::unordered_set<uint64_t> used_;
};

/// Checks one finished serving request against the reference at the
/// version it saw; counts certified-unsatisfiable pairs and rejections.
struct ServeChecker {
  Reference& ref;
  uint64_t limit;
  uint64_t certified_unsat = 0;
  uint64_t rejected_unsat = 0;

  void Check(const char* where, const Query& q, uint64_t version,
             QueryState state, const TimedSink& sink, Outcome& out) {
    const uint64_t expected = ref.Count(q, version, limit);
    if (expected == 0) ++certified_unsat;
    if (state == QueryState::kUnsatisfiable) ++rejected_unsat;
    CheckDelivered(where, q, sink.count(), state, expected, limit, out);
    CheckPaths(where, ref.graph(), version, q, sink, out);
  }
};

// ---------------------------------------------------------------------------
// serve_live: AsyncEngine, open loop at a fixed rate, updates beside reads
// ---------------------------------------------------------------------------

struct LiveConfig {
  const char* dataset = "ep";
  double scale = 0.2;
  uint64_t limit = 256;
  double rate_qps = 100;
  uint32_t hops = 5;
};

void RunServeLive(const LiveConfig& cfg, const Args& args, Metrics& m,
                  Outcome& out) {
  const uint32_t workers = Workers();
  EndToEnd e2e;
  std::unique_ptr<pathenum::AsyncEngine> engine;
  std::unique_ptr<Graph> g;
  for (int rep = 0; rep < kSetups; ++rep) {
    engine.reset();
    g.reset();
    const Clock::time_point t0 = Clock::now();
    g = std::make_unique<Graph>(pathenum::MakeDataset(cfg.dataset, cfg.scale));
    pathenum::AsyncEngineOptions ao;
    ao.num_workers = workers;
    ao.enable_cache = true;
    ao.enable_oracle = true;
    engine = std::make_unique<pathenum::AsyncEngine>(Graph(*g), ao);
    e2e.setup_s.push_back(MsSince(t0) / 1e3);
  }
  RefGraph refg(*g);
  Reference ref(refg);
  MixSource mix(*g, ref, cfg.hops, args.seed);
  Rng update_rng(args.seed ^ 0x27d4eb2fu);
  std::map<uint64_t, uint64_t> ref_version{{0, 0}};  // engine -> reference

  // A round is one second of the schedule; a run is whole rounds.
  const size_t per_round = static_cast<size_t>(cfg.rate_qps);
  const size_t total = per_round * static_cast<size_t>(args.seconds);
  struct Slot {
    Query q;
    pathenum::QueryTicket ticket;
    std::unique_ptr<TimedSink> sink;
    Clock::time_point due, submit, done;
  };
  std::vector<Slot> slots(total);
  for (Slot& s : slots) {
    s.q = mix.Next();
    s.sink = std::make_unique<TimedSink>(true);
  }
  pathenum::EnumOptions qopts;
  qopts.result_limit = cfg.limit;

  ServeChecker checker{ref, cfg.limit};

  // Warm-up, untimed: every hot key once, so the open loop starts with
  // filled caches instead of a backlog of first-touch builds.
  {
    std::vector<std::unique_ptr<TimedSink>> sinks;
    std::vector<pathenum::QueryTicket> tickets;
    for (const Query& q : mix.hot()) {
      sinks.push_back(std::make_unique<TimedSink>(true));
      tickets.push_back(engine->Submit(q, *sinks.back(), qopts));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      tickets[i].Wait();
      ++out.attempted;
      if (!tickets[i].ok()) {
        ++out.failed;
        continue;
      }
      checker.Check("serve_live(warm-up)", mix.hot()[i], 0, tickets[i].state(),
                    *sinks[i], out);
    }
  }

  // The watcher stamps each ticket's completion; the generator (this
  // thread) submits on schedule and applies the update epochs. The watcher
  // ends once the generator has stopped and every submitted ticket is done.
  std::atomic<size_t> submitted{0};
  std::atomic<bool> generating{true};
  std::thread watcher([&] {
    size_t lo = 0;
    std::vector<uint8_t> done(total, 0);
    for (;;) {
      const bool last_pass = !generating.load();
      const size_t hi = submitted.load(std::memory_order_acquire);
      bool progress = false;
      for (size_t i = lo; i < hi; ++i) {
        if (!done[i] && slots[i].ticket.Done()) {
          slots[i].done = Clock::now();
          done[i] = 1;
          progress = true;
        }
      }
      while (lo < hi && done[lo]) ++lo;
      if (last_pass && lo == hi) break;
      if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const pathenum::AsyncEngine::Stats before = engine->stats();
  double late_ms_max = 0;
  const double interval_ms = 1e3 / cfg.rate_qps;
  const Clock::time_point start = Clock::now();
  const auto generate = [&] {
    for (size_t i = 0; i < total; ++i) {
      Slot& s = slots[i];
      s.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              interval_ms * static_cast<double>(i)));
      std::this_thread::sleep_until(s.due);
      s.submit = Clock::now();
      late_ms_max = std::max(late_ms_max, MsBetween(s.due, s.submit));
      s.ticket = engine->Submit(s.q, *s.sink, qopts);
      submitted.store(i + 1, std::memory_order_release);
      if ((i + 1) % kRequestsPerUpdate == 0) {
        const GraphDelta delta = RandomDelta(refg, update_rng, kDeltaEdges);
        const Clock::time_point t0 = Clock::now();
        uint64_t version = 0;
        const pathenum::Status st = engine->TrySubmitUpdate(delta, &version);
        e2e.update_ms.push_back(MsSince(t0));
        ++out.attempted;
        if (!st.ok()) {
          ++out.failed;
          continue;
        }
        ref_version[version] = refg.Apply(delta.insertions, delta.deletions);
      }
    }
  };
  try {
    generate();
  } catch (...) {
    generating.store(false);
    watcher.join();
    throw;
  }
  generating.store(false);
  watcher.join();
  engine->Drain();
  const double served_ms = MsSince(start);
  const pathenum::AsyncEngine::Stats after = engine->stats();

  std::vector<TicketSpan> spans;
  uint64_t loop_rejected = 0;
  for (Slot& s : slots) {
    s.ticket.Wait();
    ++out.attempted;
    if (!s.ticket.ok()) {
      ++out.failed;
      continue;
    }
    const auto v = ref_version.find(s.ticket.snapshot_version());
    if (v == ref_version.end()) {
      out.Wrong("ticket observed an unknown snapshot version");
      continue;
    }
    checker.Check("serve_live", s.q, v->second, s.ticket.state(), *s.sink,
                  out);
    e2e.queries.push_back(Record(s.due, s.submit, s.done, *s.sink));
    if (s.ticket.state() == QueryState::kUnsatisfiable) {
      ++loop_rejected;
    } else {
      spans.push_back(SpanOf(s.ticket.span()));
    }
  }
  e2e.served_queries = static_cast<double>(total);
  e2e.served_ms = served_ms;

  // Bursts: each submits one second's requests of the schedule at once,
  // for batch throughput.
  for (size_t b = 0; b < kBursts && (b + 1) * per_round <= total; ++b) {
    std::vector<std::unique_ptr<TimedSink>> sinks;
    std::vector<pathenum::QueryTicket> tickets;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = b * per_round; i < (b + 1) * per_round; ++i) {
      sinks.push_back(std::make_unique<TimedSink>(true));
      tickets.push_back(engine->Submit(slots[i].q, *sinks.back(), qopts));
    }
    for (const auto& t : tickets) t.Wait();
    e2e.batch_qps.push_back(static_cast<double>(per_round) /
                            (MsSince(t0) / 1e3));
    for (size_t i = 0; i < per_round; ++i) {
      ++out.attempted;
      if (!tickets[i].ok()) {
        ++out.failed;
        continue;
      }
      checker.Check("serve_live(burst)", slots[b * per_round + i].q,
                    ref_version.at(tickets[i].snapshot_version()),
                    tickets[i].state(), *sinks[i], out);
    }
  }

  if (!args.trace) {
    e2e.AddTo(m);
    return;
  }
  const pathenum::IndexCacheStats cache = after.cache - before.cache;
  std::printf("# loop requests: %s; index-cache hits %.1f%%, result-cache "
              "hits %.1f%%, oracle-rejected %.1f%%\n",
              mix.DrawnShares().c_str(),
              100 * Ratio(cache.index_hits, total),
              100 * Ratio(cache.result_hits, total),
              100 * Ratio(loop_rejected, total));
  std::vector<Query> keys;
  for (const Slot& s : slots) keys.push_back(s.q);
  ProbeSet set = MakeProbeSet(keys, ref, 0, cfg.limit);
  ProbeGraphAndCore(*g, set, m, out);
  ProbeEngine(*g, set, workers, false, false, m, out);
  AddBatchedBuildMetrics(after.batched_builds - before.batched_builds,
                         after.batched_edges_scanned -
                             before.batched_edges_scanned,
                         after.batched_solo_edges - before.batched_solo_edges,
                         m);
  AddCacheMetrics(cache, m);
  AddLiveSpanMetrics(spans, m);
  ProbeShard(*g, refg, set, workers, m, out);
  AddCommonLayerMetrics(late_ms_max, after.compactions - before.compactions,
                        checker.rejected_unsat, checker.certified_unsat, m);
}

// ---------------------------------------------------------------------------
// serve_sharded: ShardRouter, one closed-loop client, routed updates
// ---------------------------------------------------------------------------

struct ShardedConfig {
  const char* dataset = "up";
  double scale = 0.25;
  uint32_t shards = 2;
  uint64_t limit = 256;
  uint32_t hops = kHops;
};

void RunServeSharded(const ShardedConfig& cfg, const Args& args, Metrics& m,
                     Outcome& out) {
  const uint32_t workers = Workers();
  EndToEnd e2e;
  pathenum::RouterOptions ro;
  ro.partition.num_shards = cfg.shards;
  ro.shard.engine.num_workers = std::max<uint32_t>(1, workers / cfg.shards);
  std::unique_ptr<pathenum::ShardRouter> router;
  std::unique_ptr<Graph> g;
  for (int rep = 0; rep < kSetups; ++rep) {
    router.reset();
    g.reset();
    const Clock::time_point t0 = Clock::now();
    g = std::make_unique<Graph>(pathenum::MakeDataset(cfg.dataset, cfg.scale));
    router = std::make_unique<pathenum::ShardRouter>(*g, ro);
    e2e.setup_s.push_back(MsSince(t0) / 1e3);
  }
  RefGraph refg(*g);
  Reference ref(refg);
  MixSource mix(*g, ref, cfg.hops, args.seed);
  Rng update_rng(args.seed ^ 0x27d4eb2fu);
  pathenum::EnumOptions qopts;
  qopts.result_limit = cfg.limit;

  // The traced run also answers every request on an unsharded engine over
  // the same version, for the routing overhead.
  std::unique_ptr<pathenum::SnapshotManager> global;
  std::unique_ptr<pathenum::QueryEngine> unsharded;
  if (args.trace) {
    global = std::make_unique<pathenum::SnapshotManager>(Graph(*g));
    unsharded = std::make_unique<pathenum::QueryEngine>(
        *global->Current(),
        pathenum::EngineOptions{.num_workers = workers, .enable_cache = true});
  }

  struct Done {
    Query q;
    uint64_t version;
    QueryState state;
    std::unique_ptr<TimedSink> sink;
  };
  std::vector<Done> done;
  std::vector<RoutedQuery> routed;
  ServeChecker checker{ref, cfg.limit};
  double late_ms_max = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point prev_done = start;
  double served_ms = 0;
  size_t served = 0;
  constexpr size_t kChunk = 50;
  for (int round = 0;
       round == 0 || MsSince(start) < args.seconds * 1e3;
       ++round) {
    const Clock::time_point round_start = Clock::now();
    prev_done = round_start;
    for (uint32_t i = 0; i < kRequestsPerUpdate; ++i) {
      Done d{mix.Next(), refg.version(), QueryState::kOk,
             std::make_unique<TimedSink>(true)};
      const Clock::time_point t0 = Clock::now();
      late_ms_max = std::max(late_ms_max, MsBetween(prev_done, t0));
      const pathenum::RouterResult r = router->Run(d.q, *d.sink, qopts);
      const Clock::time_point t1 = Clock::now();
      prev_done = t1;
      ++out.attempted;
      if (!r.error.empty()) {
        ++out.failed;
        continue;
      }
      d.state = r.state;
      e2e.queries.push_back(Record(t0, t0, t1, *d.sink));
      if (args.trace) {
        routed.push_back(ProbeRouted(*router, *unsharded,
                                     global->Current().get(), d.q, r,
                                     MsBetween(t0, t1),
                                     ref.Count(d.q, d.version, cfg.limit),
                                     cfg.limit, out));
        prev_done = Clock::now();
      }
      done.push_back(std::move(d));
    }
    const GraphDelta delta = RandomDelta(refg, update_rng, kDeltaEdges);
    const Clock::time_point t0 = Clock::now();
    const pathenum::Status st = router->SubmitUpdate(delta);
    e2e.update_ms.push_back(MsSince(t0));
    ++out.attempted;
    if (!st.ok()) {
      ++out.failed;
    } else {
      refg.Apply(delta.insertions, delta.deletions);
      if (global) global->Apply(delta);
    }
    served += kRequestsPerUpdate;
    served_ms += MsSince(round_start);
    prev_done = Clock::now();
  }
  e2e.served_queries = static_cast<double>(served);
  e2e.served_ms = served_ms;
  const uint64_t loop_frames = router->stats().frames_sent;

  // The first requests again in chunks, back to back with no updates
  // between, for batch throughput.
  const uint64_t final_version = refg.version();
  for (size_t b = 0; b < kBursts && (b + 1) * kChunk <= done.size(); ++b) {
    std::vector<std::unique_ptr<TimedSink>> sinks;
    std::vector<QueryState> states;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = b * kChunk; i < (b + 1) * kChunk; ++i) {
      sinks.push_back(std::make_unique<TimedSink>(true));
      states.push_back(router->Run(done[i].q, *sinks.back(), qopts).state);
    }
    e2e.batch_qps.push_back(static_cast<double>(kChunk) / (MsSince(t0) / 1e3));
    for (size_t i = 0; i < kChunk; ++i) {
      ++out.attempted;
      checker.Check("serve_sharded(batch)", done[b * kChunk + i].q,
                    final_version, states[i], *sinks[i], out);
    }
  }
  for (const Done& d : done) {
    checker.Check("serve_sharded", d.q, d.version, d.state, *d.sink, out);
  }

  if (!args.trace) {
    e2e.AddTo(m);
    return;
  }
  double delegated = 0, stitched = 0;
  for (const RoutedQuery& r : routed) {
    delegated += r.delegated;
    stitched += r.stitched;
  }
  const double requests = static_cast<double>(routed.size());
  std::printf("# loop requests: %s; delegated %.1f%%, stitched %.1f%%, "
              "rejected %.1f%%\n",
              mix.DrawnShares().c_str(), 100 * Ratio(delegated, requests),
              100 * Ratio(stitched, requests),
              100 * Ratio(requests - delegated - stitched, requests));
  std::vector<Query> keys;
  for (const Done& d : done) keys.push_back(d.q);
  const ProbeSet set = MakeProbeSet(keys, ref, 0, cfg.limit);
  ProbeGraphAndCore(*g, set, m, out);
  ProbeEngine(*g, set, workers, true, false, m, out);
  pathenum::IndexCacheStats cache;
  uint64_t compactions = 0;
  for (uint32_t s = 0; s < router->num_shards(); ++s) {
    const pathenum::IndexCacheStats c =
        router->shard(s).engine().cache()->Stats();
    cache.index_hits += c.index_hits;
    cache.index_misses += c.index_misses;
    cache.result_hits += c.result_hits;
    cache.result_misses += c.result_misses;
    cache.invalidation_evictions += c.invalidation_evictions;
    compactions += router->shard(s).snapshots().stats().compactions;
  }
  AddCacheMetrics(cache, m);
  ProbeLive(*g, set, workers, m, out);
  AddShardMetrics(routed,
                  RouteEdgeKeys(*router, refg, refg.version(), kEdgeKeys, out),
                  loop_frames, m);
  AddCommonLayerMetrics(late_ms_max, compactions, checker.rejected_unsat,
                        checker.certified_unsat, m);
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && argc % 2 == 1;
}

void PrintResult(const Args& args, const Metrics& m, const Outcome& out) {
  std::printf("# workload %s seed %" PRIu64 " seconds %d trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  for (const Metrics::Item& it : m.items) {
    std::printf("#   %-40s %16.6f %s\n", it.name.c_str(), it.value,
                it.unit.c_str());
  }
  std::printf("#   attempted %" PRIu64 " failed %" PRIu64 " correct %s%s%s\n",
              out.attempted, out.failed, out.correct ? "true" : "false",
              out.correct ? "" : ": ", out.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (size_t i = 0; i < m.items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.items[i].name.c_str(), m.items[i].value,
                m.items[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  Metrics m;
  Outcome out;
  if (args.workload == "paper_sparse") {
    RunPaper({"up", 0.25, 400, kNoLimit}, args, m, out);
  } else if (args.workload == "paper_dense") {
    RunPaper({"ep", 0.25, 160, 10000}, args, m, out);
  } else if (args.workload == "serve_live") {
    RunServeLive(LiveConfig{}, args, m, out);
  } else if (args.workload == "serve_sharded") {
    RunServeSharded(ShardedConfig{}, args, m, out);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintResult(args, m, out);
  return out.correct ? 0 : 1;
}
