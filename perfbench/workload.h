#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"

namespace perfbench {

/// Everything one run needs to know. The workload-specific numbers (rate
/// ladder, latency limits, ladder sizes) come from perfbench/workloads.json
/// through run.py; the defaults here are only for direct invocation.
struct Config {
  std::string workload;  // enum | lookup | mixed
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  uint32_t threads = 0;  // pool width; 0 = hardware concurrency

  // Open-loop lookup stream.
  std::vector<double> rates;  // `lookup` ladder, ascending; the first
                              // rung is the reference rate
  double ref_share = 0.5;     // share of the window spent at rates[0]
  double step_seconds = 1;    // one ladder rung
  double mixed_rate = 60;     // `mixed` lookup stream rate
  double repeat_share = 0.5;  // `mixed` lookups that repeat a shape
  uint32_t shapes = 8;        // `mixed` repeated shape pool

  // Latency limits on latency_tail_ms, and the fixed tail percentile.
  double slo_ms = 50;
  double tail_pct = 95;

  // Traced run: queries walked down the five rungs, per stream.
  uint32_t ladder_heavy = 12;
  uint32_t ladder_light = 200;

  uint32_t setup_reps = 9;
};

/// Parses `--key value` pairs; returns an error message or "".
std::string ParseConfig(int argc, char** argv, Config* config);

/// One query of a stream, with the reference count the outcomes are
/// checked against (filled outside the timed window).
struct Query {
  hgmatch::Hypergraph graph;
  std::string cls;  // Table III class: q2, q3, q4, q6
  int shape = -1;   // `mixed` repeats: index into the shape pool
  uint64_t expected = 0;
  bool has_expected = false;
};

/// A client stream: the data graph it targets and its query sequence.
/// `heavy` streams run closed loop (one analyst, one query outstanding);
/// light streams run open loop.
struct Stream {
  uint32_t graph = 0;  // index into Inputs::graphs
  bool heavy = false;
  std::vector<Query> queries;
};

/// A generated data graph, written to .hgb for the timed load, plus the
/// benchmark's own reference index (built outside every timed window).
struct DataGraph {
  std::string name;  // catalog name = profile name (SB, MA)
  std::string path;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t incidences = 0;
  uint64_t index_bytes = 0;
  hgmatch::IndexedHypergraph reference =
      hgmatch::IndexedHypergraph::Build(hgmatch::Hypergraph());
};

struct Inputs {
  std::vector<DataGraph> graphs;
  std::vector<Stream> streams;  // heavy stream first when present
  /// `mixed`: distinct shapes the repeats are renamed copies of.
  std::vector<Query> shape_pool;
  uint32_t shape_graph = 0;
};

/// Stream lengths a run of `config` needs: enough distinct heavy queries
/// for the closed loop at up to 60 q/s, and the open-loop schedule's
/// lookups, plus warm-up and ladder queries.
void StreamSizes(const Config& config, size_t* heavy, size_t* light);

/// Generates the workload's data and query streams from `config.seed`:
/// the same seed gives the same graphs, queries and order. Writes each
/// graph to `<out_dir>/data/` as .hgb. `heavy_count`/`light_count` size
/// the streams (distinct queries; `mixed` repeats come on top of them).
std::string MakeInputs(const Config& config, size_t heavy_count,
                       size_t light_count, Inputs* inputs);

/// Computes the reference count (MatchSequential) of the first `used[s]`
/// queries of each stream, and of every shape, on `threads` threads.
void ComputeExpected(Inputs* inputs, const std::vector<size_t>& used,
                     uint32_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
