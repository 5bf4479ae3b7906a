#include "reference.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace perfbench {

RefGraph::RefGraph(const pathenum::Graph& g) : n_(g.num_vertices()) {
  out_off_.assign(n_ + 1, 0);
  in_off_.assign(n_ + 1, 0);
  for (Vertex v = 0; v < n_; ++v) {
    out_off_[v + 1] = out_off_[v] + g.OutNeighbors(v).size();
    in_off_[v + 1] = in_off_[v] + g.InNeighbors(v).size();
  }
  out_adj_.reserve(out_off_[n_]);
  in_adj_.reserve(in_off_[n_]);
  for (Vertex v = 0; v < n_; ++v) {
    for (const Vertex w : g.OutNeighbors(v)) out_adj_.push_back(w);
    for (const Vertex w : g.InNeighbors(v)) in_adj_.push_back(w);
    std::sort(out_adj_.begin() + out_off_[v], out_adj_.end());
    std::sort(in_adj_.begin() + in_off_[v], in_adj_.end());
  }
  extra_out_.resize(n_);
  extra_in_.resize(n_);
}

bool RefGraph::InBase(Vertex u, Vertex v) const {
  return std::binary_search(out_adj_.begin() + out_off_[u],
                            out_adj_.begin() + out_off_[u + 1], v);
}

bool RefGraph::Present(uint64_t key, bool base, uint64_t version) const {
  const auto it = history_.find(key);
  if (it == history_.end()) return base;
  bool state = base;
  for (const auto& [ver, present] : it->second) {
    if (ver > version) break;
    state = present;
  }
  return state;
}

bool RefGraph::HasEdge(Vertex u, Vertex v, uint64_t version) const {
  if (u >= n_ || v >= n_) return false;
  if (extra_out_[u].empty()) return InBase(u, v);  // u's edges never changed
  return Present(Key(u, v), InBase(u, v), version);
}

uint32_t RefGraph::OutDegree(Vertex u, uint64_t version) const {
  uint32_t d = 0;
  ForOut(u, version, [&d](Vertex) { ++d; });
  return d;
}

uint64_t RefGraph::Apply(const std::vector<Edge>& insertions,
                         const std::vector<Edge>& deletions) {
  const uint64_t next = version_ + 1;
  const auto record = [&](const Edge& e, bool present) {
    const auto [u, v] = e;
    if (u >= n_ || v >= n_ || u == v) {
      throw std::invalid_argument("update edge outside the graph");
    }
    if (HasEdge(u, v, version_) == present) {
      throw std::invalid_argument("update must change the edge's state");
    }
    auto& h = history_[Key(u, v)];
    if (h.empty()) {
      extra_out_[u].push_back(v);
      extra_in_[v].push_back(u);
    }
    h.emplace_back(next, present);
  };
  for (const Edge& e : insertions) record(e, true);
  for (const Edge& e : deletions) record(e, false);
  version_ = next;
  return next;
}

void DistancesTo(const RefGraph& g, uint64_t version, Vertex t, uint32_t k,
                 std::vector<uint8_t>& dist) {
  dist.assign(g.num_vertices(), kUnreached);
  std::vector<Vertex> frontier{t}, next;
  dist[t] = 0;
  for (uint32_t d = 1; d <= k && !frontier.empty(); ++d) {
    next.clear();
    for (const Vertex x : frontier) {
      g.ForIn(x, version, [&](Vertex w) {
        if (dist[w] == kUnreached) {
          dist[w] = static_cast<uint8_t>(d);
          next.push_back(w);
        }
      });
    }
    frontier.swap(next);
  }
}

namespace {

struct Counter {
  const RefGraph& g;
  uint64_t version;
  Vertex t;
  uint32_t k;
  uint64_t cap;
  const std::vector<uint8_t>& dist;
  std::vector<Vertex> path;
  uint64_t found = 0;

  bool OnPath(Vertex v) const {
    return std::find(path.begin(), path.end(), v) != path.end();
  }

  // Extends the current path, whose last vertex is `u` at `depth` edges.
  void Extend(Vertex u, uint32_t depth) {
    if (depth + 1 == k) {  // one edge left: only u -> t can finish a path
      if (found < cap && g.HasEdge(u, t, version)) ++found;
      return;
    }
    g.ForOut(u, version, [&](Vertex w) {
      if (found >= cap) return;
      if (dist[w] == kUnreached || depth + 1 + dist[w] > k) return;
      if (OnPath(w)) return;
      if (w == t) {
        ++found;
        return;
      }
      path.push_back(w);
      Extend(w, depth + 1);
      path.pop_back();
    });
  }
};

}  // namespace

uint64_t CountPaths(const RefGraph& g, uint64_t version, Vertex s, Vertex t,
                    uint32_t k, uint64_t cap,
                    const std::vector<uint8_t>& dist) {
  if (s == t || dist[s] == kUnreached || cap == 0) return 0;
  Counter c{g, version, t, k, cap, dist, {s}};
  c.Extend(s, 0);
  return c.found;
}

bool PathChecker::Check(std::span<const Vertex> path) {
  if (!error_.empty()) return false;
  const auto fail = [&](const std::string& why) {
    error_ = why + " (path of " + std::to_string(path.size()) + " vertices)";
    return false;
  };
  if (path.size() < 2 || path.front() != s_ || path.back() != t_) {
    return fail("path does not run s->t");
  }
  if (path.size() - 1 > k_) return fail("path longer than k");
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < path.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (path[j] == path[i]) return fail("path repeats a vertex");
    }
    if (i > 0 && !g_.HasEdge(path[i - 1], path[i], version_)) {
      return fail("path uses an edge absent at version " +
                  std::to_string(version_));
    }
    h = (h ^ path[i]) * 1099511628211ull;
    h ^= h >> 29;
  }
  if (!seen_.insert(h).second) return fail("path delivered twice");
  ++count_;
  return true;
}

}  // namespace perfbench
