#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/scheduler.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// One recorded span: the benchmark's own spans around each rung call and
/// client request, and beneath them the program's QuerySpan stamps.
struct SpanRow {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;     // e.g. "net.request", "core.run"
  std::string layer;    // core | scheduler | service | catalog | net
  double start = 0;
  double end = 0;
};

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  /// Records a benchmark-owned root span [start, end] of `layer` and, as
  /// its children, the intervals the QuerySpan stamps bound:
  ///   service.query   submit -> resolve   (service)
  ///     scheduler.queue submit -> admit   (scheduler)
  ///     scheduler.seed  admit -> first_task (scheduler)
  ///     core.run        first_task -> last_task (core)
  ///   net.deliver     resolve -> deliver  (net)
  /// Stamps that never happened (0) are skipped, and children are clipped
  /// to the root. A mirrored outcome carries the stamps of the execution
  /// it mirrors, so only its resolve and deliver stamps are used. Returns
  /// the root id.
  uint64_t AddRequest(const std::string& name, const std::string& layer,
                      double start, double end,
                      const hgmatch::QueryOutcome& outcome);
  const std::vector<SpanRow>& rows() const { return rows_; }
  std::string Json() const;

 private:
  uint64_t Add(uint64_t parent, const std::string& name,
               const std::string& layer, double start, double end);
  std::vector<SpanRow> rows_;
};

/// Result of the traced run.
struct TracedRun {
  std::vector<Metric> metrics;  // every per-layer metric
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double fallback_ratio = 0;
  double mirrored_share = 0;  // rung-3 service report
  SpanLog spans;
};

/// The traced run: an untraced and a traced pass of the workload's own
/// load (tracing overhead and the span-derived queue/run/deliver
/// figures), then the ladder queries walked down the five rungs
///   1 ExecutePlanSequential        (kernel)
///   2 ExecutePlanParallel 1 and N  (scheduler)
///   3 MatchService Submit + Wait   (service)
///   4 GraphCatalog Submit, shards 1 and N (catalog)
///   5 AsyncMatchClient -> MatchServer (net)
/// with every rung's count checked against the reference.
std::string RunTraced(Inputs* inputs, const Config& config, TracedRun* out);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
