// The benchmark's own checks, run with `python3 perfbench/run.py
// --self-test` (or ctest in the build directory):
//  - the same seed gives the same query set and expected counts, and
//    another seed a different one;
//  - every metric name matches [A-Za-z0-9_.-]+ and every value is finite;
//  - on each workload the per-layer self times of the traced run sum to
//    within 10% of the client-observed latency, and no outcome fails.

#include <cmath>
#include <cstdio>
#include <string>

#include "core/canonical.h"
#include "drive.h"
#include "ladder.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

Config Small(const std::string& workload, uint64_t seed) {
  Config c;
  c.workload = workload;
  c.seed = seed;
  c.seconds = 2;
  c.out_dir = "perfbench-selftest";
  c.rates = {100, 200};
  c.slo_ms = 100;
  c.tail_pct = 90;
  c.ladder_heavy = 16;
  c.ladder_light = 60;
  c.setup_reps = 2;
  char* argv[] = {nullptr};
  ParseConfig(0, argv, &c);  // validates and resolves the pool width
  return c;
}

// Exact keys and expected counts of the first `k` queries of each stream.
std::vector<std::string> Fingerprint(Inputs* in, size_t k, uint32_t threads) {
  std::vector<size_t> used(in->streams.size(), k);
  ComputeExpected(in, used, threads);
  std::vector<std::string> out;
  for (const Stream& s : in->streams) {
    for (size_t i = 0; i < std::min(k, s.queries.size()); ++i) {
      out.push_back(hgmatch::ExactQueryKey(s.queries[i].graph) + "#" +
                    std::to_string(s.queries[i].expected));
    }
  }
  return out;
}

void CheckMetrics(const std::string& what, const std::vector<Metric>& ms) {
  bool names = true, finite = true;
  for (const Metric& m : ms) {
    names = names && ValidMetricName(m.name);
    finite = finite && std::isfinite(m.value);
  }
  Expect(!ms.empty() && names, what + ": metric names match [A-Za-z0-9_.-]+");
  Expect(finite, what + ": metric values are finite");
}

void CheckWorkload(const std::string& workload) {
  const Config c = Small(workload, 7);
  size_t heavy = 0, light = 0;
  StreamSizes(c, &heavy, &light);
  Inputs a, b, other;
  Expect(MakeInputs(c, heavy, light, &a).empty() &&
             MakeInputs(c, heavy, light, &b).empty() &&
             MakeInputs(Small(workload, 8), heavy, light, &other).empty(),
         workload + ": inputs generate");
  const auto fa = Fingerprint(&a, 12, c.threads);
  Expect(fa == Fingerprint(&b, 12, c.threads),
         workload + ": same seed, same queries and expected counts");
  Expect(fa != Fingerprint(&other, 12, c.threads),
         workload + ": another seed, other queries");

  // Untraced end-to-end run.
  {
    std::unique_ptr<Deployment> dep;
    double setup = 0, load = 0;
    Expect(Deploy(a, c, false, &dep, &setup, &load).empty(),
           workload + ": deploys");
    if (!dep) return;
    const LoadRun run = RunLoad(*dep, a, c, c.seconds, workload == "lookup");
    dep.reset();
    ComputeExpected(&a, run.used, c.threads);
    size_t bad = 0;
    for (const Record& r : run.records) bad += !RecordOk(r, a);
    Expect(!run.records.empty() && bad == 0,
           workload + ": every end-to-end outcome matches its reference");
    double embeddings_per_s = 0;
    CheckMetrics(workload + " end-to-end",
                 EndToEndMetrics(run, a, c, setup, &embeddings_per_s));
  }

  // Traced run.
  TracedRun traced;
  const std::string err = RunTraced(&a, c, &traced);
  Expect(err.empty(), workload + ": traced run " + err);
  Expect(traced.attempted > 0 && traced.failed == 0,
         workload + ": all five rungs agree with the reference");
  CheckMetrics(workload + " per-layer", traced.metrics);
  double sum_ratio = 0;
  for (const Metric& m : traced.metrics) {
    if (m.name == "self.sum_ratio") sum_ratio = m.value;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (%.3f)", sum_ratio);
  Expect(std::fabs(sum_ratio - 1) <= 0.10,
         workload + ": self times sum to within 10% of client latency" + buf);
}

}  // namespace
}  // namespace perfbench

int main() {
  for (const char* w : {"enum", "lookup", "mixed"}) perfbench::CheckWorkload(w);
  std::fprintf(stderr, "%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
