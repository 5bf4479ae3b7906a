// Command-line front end for the library — the shape a downstream user
// scripts against.
//
//   pathenum_cli query <edge-list> <s> <t> <k> [options]
//       --method=auto|dfs|join   strategy (default auto)
//       --limit=N                stop after N results
//       --time-ms=T              per-query time budget
//       --print=N                print the first N paths (default 5)
//       --threads=N              split the query across N engine workers
//   pathenum_cli generate <dataset> <scale> <out-file>
//       instantiate a catalog dataset (up, db, gg, ..., tm) as an edge list
//   pathenum_cli stats <edge-list>
//       print graph statistics and degree percentiles
#include <cstring>
#include <iostream>
#include <string>

#include "core/path_enum.h"
#include "engine/query_engine.h"
#include "graph/io.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/datasets.h"

using namespace pathenum;

namespace {

int Usage() {
  std::cerr
      << "usage:\n"
      << "  pathenum_cli query <edge-list> <s> <t> <k> [--method=auto|dfs|"
         "join] [--limit=N] [--time-ms=T] [--print=N] [--threads=N]\n"
      << "  pathenum_cli generate <dataset> <scale> <out-file>\n"
      << "  pathenum_cli stats <edge-list>\n";
  return 2;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int RunQuery(int argc, char** argv) {
  if (argc < 6) return Usage();
  const Graph graph = LoadEdgeList(argv[2]);
  Query query;
  query.source = static_cast<VertexId>(std::stoul(argv[3]));
  query.target = static_cast<VertexId>(std::stoul(argv[4]));
  query.hops = static_cast<uint32_t>(std::stoul(argv[5]));

  EnumOptions opts;
  size_t print_count = 5;
  uint32_t threads = 0;
  for (int i = 6; i < argc; ++i) {
    std::string value;
    const std::string arg = argv[i];
    if (ParseFlag(arg, "method", &value)) {
      if (value == "dfs") {
        opts.method = Method::kDfs;
      } else if (value == "join") {
        opts.method = Method::kJoin;
      } else if (value != "auto") {
        std::cerr << "unknown method: " << value << "\n";
        return 2;
      }
    } else if (ParseFlag(arg, "limit", &value)) {
      opts.result_limit = std::stoull(value);
    } else if (ParseFlag(arg, "time-ms", &value)) {
      opts.time_limit_ms = std::stod(value);
    } else if (ParseFlag(arg, "print", &value)) {
      print_count = std::stoull(value);
    } else if (ParseFlag(arg, "threads", &value)) {
      threads = static_cast<uint32_t>(std::stoul(value));
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }

  if (threads > 0) {
    // Split counting path: the engine plans like the serial run and fans
    // the picked method out across its workers.
    QueryEngine engine(graph, {.num_workers = threads});
    BatchOptions batch;
    batch.query = opts;
    batch.split_branches = true;
    const BatchResult result =
        engine.CountBatch(std::span<const Query>(&query, 1), batch);
    if (!result.ok()) {
      std::cerr << "query failed: " << result.errors[0] << "\n";
      return 1;
    }
    const QueryStats& stats = result.stats[0];
    std::cout << stats.counters.num_results << " paths in " << result.wall_ms
              << " ms (" << MethodName(stats.method) << ", "
              << result.workers << " active workers)\n";
    return 0;
  }

  uint64_t total = 0;
  CallbackSink counting([&](std::span<const VertexId> p) {
    if (total++ < print_count) {
      for (size_t j = 0; j < p.size(); ++j) {
        std::cout << (j > 0 ? " -> " : "") << p[j];
      }
      std::cout << "\n";
    }
    return true;
  });
  PathEnumerator enumerator(graph);
  const QueryStats stats = enumerator.Run(query, counting, opts);
  std::cout << stats.counters.num_results << " paths in " << stats.total_ms
            << " ms (" << MethodName(stats.method)
            << "; index " << stats.index_ms << " ms, optimize "
            << stats.optimize_ms << " ms, enumerate " << stats.enumerate_ms
            << " ms)\n";
  if (stats.counters.timed_out) std::cout << "(stopped at time limit)\n";
  if (stats.counters.hit_result_limit) {
    std::cout << "(stopped at result limit)\n";
  }
  return 0;
}

int RunGenerate(int argc, char** argv) {
  if (argc != 5) return Usage();
  const Graph g = MakeDataset(argv[2], std::stod(argv[3]));
  SaveEdgeList(g, argv[4]);
  std::cout << "wrote " << argv[4] << ": " << g.num_vertices()
            << " vertices, " << g.num_edges() << " edges\n";
  return 0;
}

int RunStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  const Graph g = LoadEdgeList(argv[2]);
  std::vector<double> degrees;
  degrees.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    degrees.push_back(static_cast<double>(g.Degree(v)));
  }
  TablePrinter table({"metric", "value"});
  table.AddRow({"vertices", std::to_string(g.num_vertices())});
  table.AddRow({"edges", std::to_string(g.num_edges())});
  table.AddRow({"avg degree", FormatFixed(Summarize(degrees).mean, 2)});
  table.AddRow({"p50 degree", FormatFixed(PercentileInPlace(degrees, 50), 0)});
  table.AddRow({"p90 degree", FormatFixed(PercentileInPlace(degrees, 90), 0)});
  table.AddRow({"p99 degree", FormatFixed(PercentileInPlace(degrees, 99), 0)});
  table.AddRow({"max degree", FormatFixed(Summarize(degrees).max, 0)});
  table.AddRow({"memory (MB)",
                FormatFixed(static_cast<double>(g.MemoryBytes()) / 1048576.0,
                            2)});
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  try {
    if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
    if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
    if (std::strcmp(argv[1], "stats") == 0) return RunStats(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
