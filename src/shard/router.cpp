#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/parallel_dfs.h"
#include "util/timer.h"

namespace pathenum {

namespace {

constexpr uint32_t kUnreachedDist = 0xffffffffu;

/// Edges between stitch-control polls (cancel/deadline/work budget) — the
/// same granularity the enumerators use, so a trip stops every shard's
/// expansion within a bounded amount of work.
constexpr uint32_t kPollIntervalEdges = 4096;

uint64_t PackEdge(VertexId u, VertexId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

/// Per-shard stitched-execution state. Owned by StitchState; each instance
/// is only ever touched by its shard's transport service thread (the
/// transport serializes handler invocations per destination shard).
struct ShardRouter::ShardWork {
  uint32_t self = 0;  // this shard's id (the frame-handler dst)
  EnumCounters counters;
  BlockEmitter emitter;  // full paths ending at t, through the shared gate
  /// Outgoing continuation blocks, one per destination shard.
  std::vector<PathBlock> outgoing;
  /// Reusable frame-decode buffers.
  std::vector<PathBlock::Entry> entries;
  std::vector<VertexId> verts;
  /// The partial path being extended (global vertex ids; <= k + 1 long).
  VertexId path[kMaxHops + 2] = {};
  uint64_t frames = 0;        // frames expanded on this shard
  uint64_t continuations = 0; // partial paths shipped to other shards
  uint64_t last_folded_edges = 0;
  uint32_t poll = 0;
};

/// Whole-query stitched state. The router thread creates it, publishes it
/// as `active_`, seeds the transport and waits for quiescence; transport
/// service threads expand frames against it. `outstanding` counts frames
/// in flight (queued or being processed, the seed included) — Dijkstra
/// style, incremented BEFORE each Send — so outstanding == 0 is exact
/// quiescence and no frame of this query survives past Run.
struct ShardRouter::StitchState {
  StitchState(const Query& q_in, const EnumOptions& opts_in, Pinned pin_in,
              const uint32_t* dist, const uint32_t* smap, uint32_t num_shards,
              PathSink& sink)
      : q(q_in),
        opts(opts_in),
        pin(std::move(pin_in)),
        dist_to_t(dist),
        shard_map(smap),
        gate(opts_in.result_limit, opts_in.response_target, enum_timer),
        shared(gate, sink),
        deadline(Deadline::AfterMs(opts_in.time_limit_ms)),
        work(num_shards) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      work[s].self = s;
      work[s].outgoing.resize(num_shards);
      work[s].emitter.Arm(&shared, &work[s].counters, &enum_timer,
                          opts.result_limit, opts.response_target);
    }
  }

  /// True once further expansion is pointless: a control trip (abort), the
  /// result limit / a sink stop (drain), or the gate's own stop latch.
  /// Handlers keep draining frames (and decrementing `outstanding`) after
  /// this flips — they just discard the work — so quiescence still arrives.
  bool StopExpansion() const {
    return abort.load(std::memory_order_relaxed) ||
           drain.load(std::memory_order_relaxed) || gate.stopped();
  }

  uint64_t query_id = 0;
  const Query q;
  const EnumOptions opts;
  const Pinned pin;
  const uint32_t* dist_to_t;
  const uint32_t* shard_map;
  Timer enum_timer;
  BranchGate gate;
  BranchSink shared;
  const Deadline deadline;
  std::atomic<uint64_t> outstanding{0};
  std::atomic<uint64_t> work_done{0};  // folded edges_accessed, all shards
  std::atomic<bool> abort{false};      // control trip: discard quickly
  std::atomic<bool> drain{false};      // limit reached / sink stop
  std::atomic<bool> trip_cancelled{false};
  std::atomic<bool> trip_deadline{false};
  std::atomic<bool> trip_work{false};
  std::vector<ShardWork> work;
  std::mutex done_mutex;
  std::condition_variable done_cv;
};

ShardRouter::ShardRouter(const Graph& g, const RouterOptions& opts,
                         std::unique_ptr<ShardTransport> transport) {
  // Process-wide partition generation: distinct for every router ever
  // built, so ShardCacheSalt never collides across repartitions.
  static std::atomic<uint64_t> g_generation{0};
  generation_ = g_generation.fetch_add(1, std::memory_order_relaxed) + 1;

  GraphPartition part = GraphPartitioner::Partition(g, opts.partition);
  shard_map_ = part.shard_map();
  const uint32_t n_shards = part.num_shards();
  shards_.reserve(n_shards);
  for (uint32_t s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<ShardEngine>(
        s, generation_, part.TakeShardGraph(s), opts.shard));
  }

  auto cut = std::make_shared<std::vector<CutEdge>>(part.cut_edges().begin(),
                                                    part.cut_edges().end());
  cut_set_.reserve(cut->size() * 2);
  for (const CutEdge& e : *cut) cut_set_.insert(PackEdge(e.tail, e.head));
  cut_list_ = std::move(cut);

  transport_ = transport != nullptr ? std::move(transport)
                                    : std::make_unique<InProcessTransport>();
  transport_->Start(n_shards,
                    [this](uint32_t dst, std::vector<uint8_t> frame) {
                      HandleFrame(dst, std::move(frame));
                    });

  auto& reg = obs::MetricRegistry::Global();
  metric_label_ = "router=\"" + std::to_string(reg.NextInstanceId()) +
                  "\",gen=\"" + std::to_string(generation_) + "\"";
  reg.RegisterCounter(this, "pathenum_router_queries_total", metric_label_,
                      &queries_);
  reg.RegisterCounter(this, "pathenum_router_delegated_total", metric_label_,
                      &delegated_);
  reg.RegisterCounter(this, "pathenum_router_stitched_total", metric_label_,
                      &stitched_);
  reg.RegisterCounter(this, "pathenum_router_unsatisfiable_total",
                      metric_label_, &unsat_);
  reg.RegisterCounter(this, "pathenum_router_rejected_total", metric_label_,
                      &rejected_);
  reg.RegisterCounter(this, "pathenum_router_updates_total", metric_label_,
                      &updates_);
  reg.RegisterCounter(this, "pathenum_router_frames_sent_total",
                      metric_label_, &frames_sent_);
  reg.RegisterCounter(this, "pathenum_router_continuations_sent_total",
                      metric_label_, &continuations_sent_);
  reg.RegisterGauge(this, "pathenum_router_cut_edges", metric_label_,
                    [this] { return static_cast<double>(cut_size()); });
  plan_ms_hist_ = reg.GetHistogram("pathenum_router_plan_ms", metric_label_);
  stitch_merge_ms_hist_ =
      reg.GetHistogram("pathenum_router_stitch_merge_ms", metric_label_);
}

ShardRouter::~ShardRouter() {
  // Quiesce the service threads before any member they touch dies. No
  // stitched query can be in flight here (Run waits for quiescence), so
  // this only drains stale empty queues.
  transport_->Stop();
  obs::MetricRegistry::Global().UnregisterOwner(this);
}

size_t ShardRouter::cut_size() const {
  std::lock_guard<std::mutex> lk(state_mutex_);
  return cut_list_->size();
}

ShardRouter::Stats ShardRouter::stats() const {
  return {queries_.Value(),     delegated_.Value(),
          stitched_.Value(),    unsat_.Value(),
          rejected_.Value(),    updates_.Value(),
          frames_sent_.Value(), continuations_sent_.Value()};
}

ShardRouter::Pinned ShardRouter::Pin() const {
  std::lock_guard<std::mutex> lk(state_mutex_);
  Pinned p;
  p.views.reserve(shards_.size());
  for (const auto& s : shards_) p.views.push_back(s->CurrentView());
  p.cut = cut_list_;
  return p;
}

Status ShardRouter::SubmitUpdate(const GraphDelta& delta) {
  const Status chk = CheckDelta(delta, num_vertices());
  if (!chk.ok()) return chk;

  std::lock_guard<std::mutex> lk(state_mutex_);
  std::vector<GraphDelta> per_shard(shards_.size());
  for (const auto& [u, v] : delta.insertions) per_shard[ShardOf(u)].Insert(u, v);
  for (const auto& [u, v] : delta.deletions) per_shard[ShardOf(u)].Delete(u, v);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    const Status st = shards_[s]->SubmitLocalDelta(per_shard[s]);
    if (!st.ok()) return st;  // unreachable after CheckDelta
  }

  // Maintain the live cut under the delta's set semantics: all insertions,
  // then all deletions (deletions win), self-loops never cross shards.
  for (const auto& [u, v] : delta.insertions) {
    if (u != v && ShardOf(u) != ShardOf(v)) cut_set_.insert(PackEdge(u, v));
  }
  for (const auto& [u, v] : delta.deletions) cut_set_.erase(PackEdge(u, v));

  auto next = std::make_shared<std::vector<CutEdge>>();
  next->reserve(cut_set_.size());
  for (const uint64_t packed : cut_set_) {
    const VertexId tail = static_cast<VertexId>(packed >> 32);
    const VertexId head = static_cast<VertexId>(packed & 0xffffffffu);
    next->push_back({tail, head, ShardOf(tail), ShardOf(head)});
  }
  std::sort(next->begin(), next->end(),
            [](const CutEdge& a, const CutEdge& b) {
              return a.tail != b.tail ? a.tail < b.tail : a.head < b.head;
            });
  cut_list_ = std::move(next);
  updates_.Inc();
  return Status::Ok();
}

void ShardRouter::ComputeBackwardDistances(const Pinned& pin, VertexId t,
                                           uint32_t k) {
  dist_to_t_.assign(shard_map_.size(), kUnreachedDist);
  frontier_.clear();
  dist_to_t_[t] = 0;
  frontier_.push_back(t);
  for (uint32_t d = 0; d < k && !frontier_.empty(); ++d) {
    next_frontier_.clear();
    for (const VertexId x : frontier_) {
      // In-adjacency of x in shard p is exactly the in-edges whose tail p
      // owns (see shard/partition.h), so the per-shard scans union
      // disjointly into the global in-neighborhood.
      for (const auto& view : pin.views) {
        for (const VertexId y : view->InNeighbors(x)) {
          if (dist_to_t_[y] == kUnreachedDist) {
            dist_to_t_[y] = d + 1;
            next_frontier_.push_back(y);
          }
        }
      }
    }
    std::swap(frontier_, next_frontier_);
  }
}

void ShardRouter::ComputeForwardDistances(const Pinned& pin, VertexId s,
                                          uint32_t k) {
  dist_from_s_.assign(shard_map_.size(), kUnreachedDist);
  frontier_.clear();
  dist_from_s_[s] = 0;
  frontier_.push_back(s);
  for (uint32_t d = 0; d < k && !frontier_.empty(); ++d) {
    next_frontier_.clear();
    for (const VertexId x : frontier_) {
      // Out-adjacency of x is complete in its owning shard and empty
      // everywhere else — one shard scan per vertex.
      for (const VertexId y : pin.views[shard_map_[x]]->OutNeighbors(x)) {
        if (dist_from_s_[y] == kUnreachedDist) {
          dist_from_s_[y] = d + 1;
          next_frontier_.push_back(y);
        }
      }
    }
    std::swap(frontier_, next_frontier_);
  }
}

RouterResult ShardRouter::Run(const Query& q, PathSink& sink,
                              const EnumOptions& opts) {
  queries_.Inc();
  RouterResult r;
  {
    const Status chk = CheckQuery(*shards_[0]->CurrentView(), q);
    if (!chk.ok()) {
      rejected_.Inc();
      r.state = QueryState::kRejected;
      r.error = chk.message();
      return r;
    }
  }

  const Timer total;
  Pinned pin = Pin();
  const Timer plan_timer;
  ComputeBackwardDistances(pin, q.target, q.hops);

  if (dist_to_t_[q.source] > q.hops) {
    // Exact global distance certifies dist(s, t) > k: the complete (empty)
    // result set, no shard ever touched.
    plan_ms_hist_->Observe(plan_timer.ElapsedMs());
    unsat_.Inc();
    obs::QuerySpan span;
    span.Begin(q.source, q.target, q.hops);
    r.state = QueryState::kUnsatisfiable;
    r.stats.counters.oracle_rejected = true;
    r.stats.total_ms = total.ElapsedMs();
    r.stats.response_ms = r.stats.total_ms;
    span.Finish(r.state);
    return r;
  }

  ComputeForwardDistances(pin, q.source, q.hops);
  uint64_t feasible = 0;
  for (const CutEdge& e : *pin.cut) {
    const uint32_t ds = dist_from_s_[e.tail];
    const uint32_t dt = dist_to_t_[e.head];
    if (ds != kUnreachedDist && dt != kUnreachedDist && ds + 1 + dt <= q.hops) {
      ++feasible;
    }
  }
  const double plan_ms = plan_timer.ElapsedMs();
  plan_ms_hist_->Observe(plan_ms);

  if (feasible == 0) {
    // No cut edge fits inside the hop budget, so every feasible path lies
    // wholly in owner(s)'s tail-owned subgraph (a cross-shard path must
    // traverse a feasible cut edge): delegate to that shard's engine.
    return RunDelegated(q, sink, opts, pin, ShardOf(q.source));
  }

  obs::QuerySpan span;
  span.Begin(q.source, q.target, q.hops);
  r = RunStitched(q, sink, opts, std::move(pin), feasible, plan_ms, span);
  r.stats.total_ms = total.ElapsedMs();
  if (r.stats.counters.response_ms < 0.0) {
    r.stats.response_ms = r.stats.total_ms;
  }
  return r;
}

RouterResult ShardRouter::RunDelegated(const Query& q, PathSink& sink,
                                       const EnumOptions& opts,
                                       const Pinned& pin, uint32_t shard) {
  delegated_.Inc();
  shards_[shard]->RecordLocalQuery();
  BatchOptions batch;
  batch.query = opts;
  const Query queries[1] = {q};
  PathSink* sinks[1] = {&sink};
  BatchResult br =
      shards_[shard]->engine().RunBatch(*pin.views[shard], queries, sinks,
                                        batch);
  RouterResult r;
  r.delegated = true;
  r.delegate_shard = shard;
  r.stats = std::move(br.stats[0]);
  r.state = br.states[0];
  r.error = std::move(br.errors[0]);
  return r;
}

RouterResult ShardRouter::RunStitched(const Query& q, PathSink& sink,
                                      const EnumOptions& opts, Pinned pin,
                                      uint64_t feasible_cut, double plan_ms,
                                      obs::QuerySpan& span) {
  stitched_.Inc();
  span.SetSplit();
  auto st = std::make_shared<StitchState>(q, opts, std::move(pin),
                                          dist_to_t_.data(), shard_map_.data(),
                                          num_shards(), sink);
  {
    std::lock_guard<std::mutex> lk(active_mutex_);
    st->query_id = next_query_id_++;
    active_ = st;
  }

  st->enum_timer.Reset();
  // A control trip that fired before the query starts must be observed
  // even when the run would finish under the workers' poll interval.
  if (opts.cancel.cancelled()) {
    st->trip_cancelled.store(true, std::memory_order_relaxed);
    st->abort.store(true, std::memory_order_relaxed);
  } else if (st->deadline.Expired()) {
    st->trip_deadline.store(true, std::memory_order_relaxed);
    st->abort.store(true, std::memory_order_relaxed);
  }
  if (!st->abort.load(std::memory_order_relaxed)) {
    // Seed: the single partial path [s], expanded first in owner(s).
    PathBlock seed;
    const uint32_t sv = q.source;
    seed.Append(std::span<const uint32_t>(&sv, 1));
    st->outstanding.store(1, std::memory_order_release);
    frames_sent_.Inc();
    if (!transport_->Send(ShardOf(q.source),
                          EncodeFrame(st->query_id, num_shards(),
                                      PathBlockView(seed)))) {
      st->outstanding.store(0, std::memory_order_release);
      st->abort.store(true, std::memory_order_relaxed);
    }
  }

  {
    std::unique_lock<std::mutex> lk(st->done_mutex);
    while (st->outstanding.load(std::memory_order_acquire) != 0) {
      st->done_cv.wait_for(lk, std::chrono::milliseconds(5));
      // Router-side control poll: catches trips no worker observes (all
      // frames parked in transport queues). Only meaningful while work is
      // outstanding; a trip racing the final decrement conservatively
      // reports the trip — the delivered prefix is still well-formed.
      if (!st->abort.load(std::memory_order_relaxed) &&
          st->outstanding.load(std::memory_order_acquire) != 0) {
        if (st->opts.cancel.cancelled()) {
          st->trip_cancelled.store(true, std::memory_order_relaxed);
          st->abort.store(true, std::memory_order_relaxed);
        } else if (st->deadline.Expired()) {
          st->trip_deadline.store(true, std::memory_order_relaxed);
          st->abort.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  const double enumerate_ms = st->enum_timer.ElapsedMs();
  span.Mark(obs::SpanStage::kEnumerate);
  {
    std::lock_guard<std::mutex> lk(active_mutex_);
    active_.reset();
  }

  // Merge barrier: fold the per-shard counters with the shared fan-out
  // accounting; the gate's delivered() is structurally capped at the limit.
  const Timer merge_timer;
  std::vector<EnumCounters> per_shard(st->work.size());
  for (size_t s = 0; s < st->work.size(); ++s) {
    per_shard[s] = st->work[s].counters;
    shards_[s]->RecordStitchWork(st->work[s].frames,
                                 st->work[s].continuations,
                                 st->work[s].counters.num_results);
  }
  EnumCounters merged;
  internal::FinishFanout(merged, per_shard, /*root_partials=*/1,
                         /*root_edges=*/0, st->gate.delivered(),
                         st->gate.response_ms(), opts);
  if (st->trip_cancelled.load(std::memory_order_relaxed)) {
    merged.cancelled = true;
  }
  if (st->trip_deadline.load(std::memory_order_relaxed)) {
    merged.timed_out = true;
  }
  if (st->trip_work.load(std::memory_order_relaxed)) {
    merged.work_exceeded = true;
  }

  RouterResult r;
  r.feasible_cut_edges = feasible_cut;
  r.state = merged.TerminalState();
  r.stats.counters = merged;
  r.stats.method = Method::kDfs;
  r.stats.enumerate_ms = enumerate_ms;
  r.stats.response_ms =
      merged.response_ms >= 0.0 ? plan_ms + merged.response_ms : -1.0;
  stitch_merge_ms_hist_->Observe(merge_timer.ElapsedMs());
  span.Mark(obs::SpanStage::kMerge);
  span.Finish(r.state);
  return r;
}

void ShardRouter::HandleFrame(uint32_t dst_shard, std::vector<uint8_t> frame) {
  std::shared_ptr<StitchState> st;
  {
    std::lock_guard<std::mutex> lk(active_mutex_);
    st = active_;
  }
  if (st == nullptr) return;

  ShardWork& w = st->work[dst_shard];
  FrameHeader header;
  if (!DecodeFrame(frame, header, w.entries, w.verts) ||
      header.query_id != st->query_id) {
    // Malformed or stale — not a frame of the active query, so it carries
    // no stake in the active query's outstanding count.
    return;
  }

  ++w.frames;
  if (!st->StopExpansion()) {
    const PathBlockView block(w.entries.data(), w.verts.data(),
                              header.num_paths, header.total_path_verts);
    ForEachPathInBlock(block, [&](std::span<const VertexId> p) {
      std::copy(p.begin(), p.end(), w.path);
      ExpandPartial(*st, w, dst_shard, w.path,
                    static_cast<uint32_t>(p.size()));
      return !st->StopExpansion();
    });
  }

  if (!st->StopExpansion()) {
    for (uint32_t p = 0; p < st->work.size(); ++p) {
      if (p != dst_shard) FlushOutgoing(*st, w, p);
    }
    if (!w.emitter.Flush()) st->drain.store(true, std::memory_order_relaxed);
  } else {
    // Stopped: pending paths are discardable (the gate already delivered
    // everything the limit allows, or a trip made the set partial anyway).
    for (PathBlock& b : w.outgoing) b.Clear();
    w.emitter.block().Clear();
  }

  if (st->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(st->done_mutex);
    st->done_cv.notify_all();
  }
}

void ShardRouter::ExpandPartial(StitchState& st, ShardWork& w,
                                uint32_t dst_shard, VertexId* path,
                                uint32_t len) {
  const VertexId x = path[len - 1];
  const uint32_t edges = len - 1;
  const uint32_t k = st.q.hops;
  for (const VertexId y : st.pin.views[dst_shard]->OutNeighbors(x)) {
    ++w.counters.edges_accessed;
    if (++w.poll >= kPollIntervalEdges && !PollControl(st, w)) return;
    if (st.StopExpansion()) return;
    const uint32_t rem = st.dist_to_t[y];
    if (rem == kUnreachedDist || edges + 1 + rem > k) continue;
    if (y == st.q.target) {
      // A simple s-t path contains t exactly once, at its end: emit, never
      // recurse through t.
      ++w.counters.partials;
      path[len] = y;
      if (!w.emitter.block().HasRoomFor(len + 1) && !w.emitter.Flush()) {
        st.drain.store(true, std::memory_order_relaxed);
        return;
      }
      w.emitter.block().Append(std::span<const uint32_t>(path, len + 1));
      if (w.emitter.AtResultLimit() && !w.emitter.Flush()) {
        st.drain.store(true, std::memory_order_relaxed);
        return;
      }
      continue;
    }
    bool on_path = false;
    for (uint32_t i = 0; i < len; ++i) {
      if (path[i] == y) {
        on_path = true;
        break;
      }
    }
    if (on_path) continue;
    ++w.counters.partials;
    path[len] = y;
    const uint32_t owner = st.shard_map[y];
    if (owner != dst_shard) {
      PathBlock& out = w.outgoing[owner];
      if (!out.HasRoomFor(len + 1)) FlushOutgoing(st, w, owner);
      out.Append(std::span<const uint32_t>(path, len + 1));
    } else {
      ExpandPartial(st, w, dst_shard, path, len + 1);
    }
  }
}

void ShardRouter::FlushOutgoing(StitchState& st, ShardWork& w,
                                uint32_t target_shard) {
  PathBlock& out = w.outgoing[target_shard];
  if (out.empty()) return;
  w.continuations += out.size();
  continuations_sent_.Inc(out.size());
  frames_sent_.Inc();
  // Count the frame outstanding BEFORE it can be processed, so the counter
  // can never dip to zero while work exists (Dijkstra-style termination).
  st.outstanding.fetch_add(1, std::memory_order_acq_rel);
  if (!transport_->Send(target_shard,
                        EncodeFrame(st.query_id, w.self,
                                    PathBlockView(out)))) {
    st.abort.store(true, std::memory_order_relaxed);
    if (st.outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lk(st.done_mutex);
      st.done_cv.notify_all();
    }
  }
  out.Clear();
}

bool ShardRouter::PollControl(StitchState& st, ShardWork& w) {
  w.poll = 0;
  const uint64_t delta = w.counters.edges_accessed - w.last_folded_edges;
  w.last_folded_edges = w.counters.edges_accessed;
  const uint64_t total =
      st.work_done.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (st.abort.load(std::memory_order_relaxed)) return false;
  // Trip precedence matches QueryControl::Check / TerminalState.
  if (st.opts.cancel.cancelled()) {
    st.trip_cancelled.store(true, std::memory_order_relaxed);
    st.abort.store(true, std::memory_order_relaxed);
  } else if (st.deadline.Expired()) {
    st.trip_deadline.store(true, std::memory_order_relaxed);
    st.abort.store(true, std::memory_order_relaxed);
  } else if (total >= st.opts.work_budget_edges) {
    st.trip_work.store(true, std::memory_order_relaxed);
    st.abort.store(true, std::memory_order_relaxed);
  }
  return !st.abort.load(std::memory_order_relaxed);
}

}  // namespace pathenum
