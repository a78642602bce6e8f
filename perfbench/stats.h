#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Number of samples strictly above the p-th percentile.
size_t CountAbove(const std::vector<double>& v, double p);

/// A named measurement with its unit, printed as
/// `"name": {"value": v, "unit": "u"}`.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True iff `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

/// Shortest round-tripping decimal form of a finite double ("null" when
/// not finite, which the final-line check reports as incorrect).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
