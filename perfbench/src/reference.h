// The benchmark's independent reference: its own copy of the graph and of
// every update version, a k-bounded BFS, a distance-pruned DFS counter and
// a path validator. Nothing here uses the library's core/, engine/, live/
// or shard/ code; the only library type read is the base Graph's
// adjacency, copied once at construction.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using Vertex = uint32_t;
using Edge = std::pair<Vertex, Vertex>;

inline constexpr uint8_t kUnreached = 255;

/// A directed graph with a history of edge insertions and deletions.
/// Version 0 is the base graph; Apply makes the next version. Every
/// version stays readable.
class RefGraph {
 public:
  explicit RefGraph(const pathenum::Graph& g);

  Vertex num_vertices() const { return n_; }
  uint64_t version() const { return version_; }

  /// Applies one update epoch: every insertion must be absent and every
  /// deletion present at the current version. Returns the new version.
  uint64_t Apply(const std::vector<Edge>& insertions,
                 const std::vector<Edge>& deletions);

  bool HasEdge(Vertex u, Vertex v, uint64_t version) const;
  uint32_t OutDegree(Vertex u, uint64_t version) const;

  /// Calls f(w) for every out-neighbour (in-neighbour) at `version`.
  template <typename F>
  void ForOut(Vertex u, uint64_t version, F&& f) const {
    Scan(out_off_, out_adj_, extra_out_, u, version, false, f);
  }
  template <typename F>
  void ForIn(Vertex v, uint64_t version, F&& f) const {
    Scan(in_off_, in_adj_, extra_in_, v, version, true, f);
  }

 private:
  static uint64_t Key(Vertex u, Vertex v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  bool InBase(Vertex u, Vertex v) const;
  /// State of (u, v) at `version` when it has a change history.
  bool Present(uint64_t key, bool base, uint64_t version) const;

  template <typename F>
  void Scan(const std::vector<uint64_t>& off, const std::vector<Vertex>& adj,
            const std::vector<std::vector<Vertex>>& extra, Vertex x,
            uint64_t version, bool reverse, F& f) const {
    const bool touched = !extra[x].empty();
    for (uint64_t i = off[x]; i < off[x + 1]; ++i) {
      const Vertex w = adj[i];
      if (touched &&
          !Present(reverse ? Key(w, x) : Key(x, w), true, version)) {
        continue;
      }
      f(w);
    }
    for (const Vertex w : extra[x]) {
      const uint64_t key = reverse ? Key(w, x) : Key(x, w);
      const bool base = reverse ? InBase(w, x) : InBase(x, w);
      if (!base && Present(key, false, version)) f(w);
    }
  }

  Vertex n_ = 0;
  uint64_t version_ = 0;
  std::vector<uint64_t> out_off_, in_off_;
  std::vector<Vertex> out_adj_, in_adj_;
  /// Every vertex whose out- (in-) edges ever changed lists the changed
  /// heads (tails); a non-empty list marks the vertex as touched.
  std::vector<std::vector<Vertex>> extra_out_, extra_in_;
  /// Per changed edge: (version, present) in version order.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, bool>>>
      history_;
};

/// Hop distances to `t` (backward BFS) at `version`, capped at `k`:
/// entries beyond k read kUnreached.
void DistancesTo(const RefGraph& g, uint64_t version, Vertex t, uint32_t k,
                 std::vector<uint8_t>& dist);

/// Counts the simple s-t paths of at most k edges at `version`, stopping
/// once `cap` are found. `dist` must hold DistancesTo(t, k).
uint64_t CountPaths(const RefGraph& g, uint64_t version, Vertex s, Vertex t,
                    uint32_t k, uint64_t cap, const std::vector<uint8_t>& dist);

/// Checks the paths one query delivered: each is simple, runs s->t, has at
/// most k edges, uses only edges present at `version`, and none repeats.
class PathChecker {
 public:
  PathChecker(const RefGraph& g, uint64_t version, Vertex s, Vertex t,
              uint32_t k)
      : g_(g), version_(version), s_(s), t_(t), k_(k) {}

  /// Returns false (and keeps the first error) when the path is invalid.
  bool Check(std::span<const Vertex> path);
  uint64_t count() const { return count_; }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  const RefGraph& g_;
  uint64_t version_;
  Vertex s_, t_;
  uint32_t k_;
  uint64_t count_ = 0;
  std::unordered_set<uint64_t> seen_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
