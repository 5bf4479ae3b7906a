// Tests for the triggered-cycle API. (Split enumeration is tested through
// the engines: engine_test, live_test, property_test.)
#include <gtest/gtest.h>

#include <set>

#include "core/cycles.h"
#include "core/path_enum.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "test_util.h"

namespace pathenum {
namespace {

// --- Triggered cycles ---------------------------------------------------------

TEST(CycleApiTest, ClosesThePaperExamplePaths) {
  // Cycles through a hypothetical edge (t, s): each s-t path plus that
  // edge, emitted as (t, s, ..., t).
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CollectingSink sink;
  EnumerateTriggeredCycles(pe, testing::kT, testing::kS, 5, sink);
  ASSERT_EQ(sink.paths().size(), 5u);
  for (const auto& c : sink.paths()) {
    EXPECT_EQ(c.front(), testing::kT);
    EXPECT_EQ(c.back(), testing::kT);
    EXPECT_EQ(c[1], testing::kS);
    EXPECT_LE(c.size(), 6u + 1u);
    std::set<VertexId> interior(c.begin() + 1, c.end() - 1);
    EXPECT_EQ(interior.size(), c.size() - 2) << "cycle must be simple";
  }
}

TEST(CycleApiTest, MatchesManualReduction) {
  const Graph g = RMat(5, 150, 44);
  PathEnumerator pe(g);
  for (VertexId u = 0; u < 8; ++u) {
    for (const VertexId v : g.OutNeighbors(u)) {
      CountingSink cycles;
      EnumerateTriggeredCycles(pe, u, v, 5, cycles);
      EXPECT_EQ(cycles.count(), CountPathsBruteForce(g, {v, u, 4}))
          << u << "->" << v;
      break;  // one edge per source suffices
    }
  }
}

TEST(CycleApiTest, SelfLoopYieldsNothing) {
  const Graph g = testing::PaperExampleGraph();
  PathEnumerator pe(g);
  CountingSink sink;
  const QueryStats stats = EnumerateTriggeredCycles(pe, 3, 3, 6, sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.counters.num_results, 0u);
}

TEST(CycleApiTest, HopBoundRespected) {
  const Graph g = CycleGraph(6);
  PathEnumerator pe(g);
  // The ring is one 6-cycle; asking through edge (0,1) with max 6 finds
  // it, with max 5 does not.
  CountingSink found;
  EnumerateTriggeredCycles(pe, 0, 1, 6, found);
  EXPECT_EQ(found.count(), 1u);
  CountingSink missed;
  EnumerateTriggeredCycles(pe, 0, 1, 5, missed);
  EXPECT_EQ(missed.count(), 0u);
  EXPECT_THROW(EnumerateTriggeredCycles(pe, 0, 1, 1, missed),
               std::logic_error);
}

}  // namespace
}  // namespace pathenum
