// The repository benchmark: one workload per run against an in-process
// MatchServer over loopback TCP. Usage (normally through perfbench/run.py,
// which builds this binary and supplies the workload settings from
// perfbench/workloads.json):
//
//   perfbench --workload enum|lookup|mixed --seed N --seconds S --trace 0|1
//             [--rates r0,r1,... --slo-ms L --tail-pct P ...]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of the five-rung ladder. The last stdout line is the result object;
// details (workload properties, ladder rungs, spans) go to --out.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "drive.h"
#include "ladder.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

std::string Properties(const Inputs& inputs, const Config& config,
                       const std::vector<Record>& records,
                       const std::vector<size_t>& warmup, uint64_t attempted,
                       uint64_t failed, const std::string& extra) {
  std::vector<bool> skip(records.size(), false);
  for (size_t s : warmup) skip[s] = true;
  std::map<std::string, uint64_t> mix;
  uint64_t measured = 0, repeats = 0, mirrored = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    if (skip[i]) continue;
    const Query& q = inputs.streams[records[i].stream].queries[records[i].query];
    ++measured;
    ++mix[inputs.graphs[inputs.streams[records[i].stream].graph].name + "." +
          q.cls];
    repeats += q.shape >= 0;
    mirrored += records[i].outcome.mirrored;
  }
  auto share = [&](uint64_t k) {
    return JsonNumber(measured ? static_cast<double>(k) / measured : 0);
  };
  std::string out = "{\"workload\": " + JsonString(config.workload) +
                    ", \"seed\": " + std::to_string(config.seed) +
                    ", \"trace\": " + (config.trace ? "1" : "0") +
                    ", \"graphs\": [";
  for (size_t g = 0; g < inputs.graphs.size(); ++g) {
    const DataGraph& d = inputs.graphs[g];
    out += (g ? ", " : "") + std::string("{\"name\": ") + JsonString(d.name) +
           ", \"vertices\": " + std::to_string(d.vertices) +
           ", \"edges\": " + std::to_string(d.edges) +
           ", \"incidences\": " + std::to_string(d.incidences) +
           ", \"index_bytes\": " + std::to_string(d.index_bytes) + "}";
  }
  out += "], \"query_mix\": {";
  bool first = true;
  for (const auto& [cls, count] : mix) {
    out += (first ? "" : ", ") + JsonString(cls) + ": " +
           std::to_string(count);
    first = false;
  }
  out += "}, \"measured_requests\": " + std::to_string(measured) +
         ", \"repeat_share\": " + share(repeats) +
         ", \"mirrored_share\": " + share(mirrored) +
         ", \"failed_ratio\": " +
         JsonNumber(attempted ? static_cast<double>(failed) / attempted : 0) +
         extra + "}";
  return out;
}

// --trace 0: setup repeated, then the workload's load with tracing off.
int RunEndToEnd(Inputs* inputs, const Config& config, std::string* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (uint32_t rep = 0; rep < config.setup_reps; ++rep) {
    dep.reset();
    double setup = 0, load = 0;
    const std::string err = Deploy(*inputs, config, false, &dep, &setup, &load);
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(setup);
  }
  const bool ladder = config.workload == "lookup";
  const LoadRun run = RunLoad(*dep, *inputs, config, config.seconds, ladder);
  dep.reset();
  ComputeExpected(inputs, run.used, config.threads);

  uint64_t attempted = 0, failed = 0;
  for (const Record& r : run.records) {
    ++attempted;
    failed += !RecordOk(r, *inputs);
  }
  double embeddings_per_s = 0;
  const std::vector<Metric> metrics = EndToEndMetrics(
      run, *inputs, config, Median(setup_s), &embeddings_per_s);
  std::vector<double> timed_ms;
  for (size_t s : config.workload == "enum" ? run.heavy : run.light.slots) {
    timed_ms.push_back(run.records[s].LatencySeconds() * 1e3);
  }
  std::string extra = ", \"tail_pct\": " + JsonNumber(config.tail_pct) +
                      ", \"tail_samples\": " +
                      std::to_string(timed_ms.size()) +
                      ", \"tail_samples_beyond\": " +
                      std::to_string(CountAbove(timed_ms, config.tail_pct)) +
                      ", \"slo_ms\": " + JsonNumber(config.slo_ms) +
                      ", \"queries_exhausted\": " +
                      (run.exhausted ? "true" : "false") + ", \"rungs\": [";
  for (size_t i = 0; i < run.rungs.size(); ++i) {
    const Rung& r = run.rungs[i];
    extra += (i ? ", " : "") + std::string("{\"rate\": ") +
             JsonNumber(r.step.rate) + ", \"served\": " + JsonNumber(r.served) +
             ", \"tail_ms\": " + JsonNumber(r.tail_ms) +
             ", \"backlog\": [" + JsonNumber(r.step.backlog_first) + ", " +
             JsonNumber(r.step.backlog_second) + "], \"passed\": " +
             (r.passed ? "true" : "false") + "}";
  }
  extra += "]";
  std::vector<double> lag_ms;
  for (size_t s : run.light.slots) {
    lag_ms.push_back((run.records[s].sent - run.records[s].due) * 1e3);
  }
  extra += ", \"send_lag_ms_tail\": " +
           JsonNumber(Percentile(lag_ms, config.tail_pct)) +
           ", \"embeddings_per_s\": " + JsonNumber(embeddings_per_s);
  *report = Properties(*inputs, config, run.records, run.warmup, attempted,
                       failed, extra);
  if (run.exhausted) {
    std::fprintf(stderr, "perfbench: warning: a query stream ran out\n");
  }
  std::fprintf(stderr, "%-22s %14.6f 1/s\n", "embeddings_per_s",
               embeddings_per_s);
  std::fprintf(stderr, "failed_ratio %.6f ratio (%llu of %llu)\n",
               attempted ? static_cast<double>(failed) / attempted : 0.0,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "%-22s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  const bool correct = failed == 0;
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

int RunTracedMode(Inputs* inputs, const Config& config, std::string* report,
                  std::string* spans) {
  TracedRun traced;
  const std::string err = RunTraced(inputs, config, &traced);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 1;
  }
  std::string extra =
      ", \"canonical_fallback_ratio\": " + JsonNumber(traced.fallback_ratio) +
      ", \"ladder_mirrored_share\": " + JsonNumber(traced.mirrored_share) +
      ", \"metrics\": {";
  for (size_t i = 0; i < traced.metrics.size(); ++i) {
    const Metric& m = traced.metrics[i];
    extra += (i ? ", " : "") + JsonString(m.name) + ": " + JsonNumber(m.value);
    std::fprintf(stderr, "%-32s %14.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  extra += "}";
  *report = Properties(*inputs, config, {}, {}, traced.attempted,
                       traced.failed, extra);
  *spans = traced.spans.Json();
  const bool correct = traced.failed == 0;
  std::printf("%s\n", ResultLine(correct, traced.attempted, traced.failed,
                                 traced.metrics)
                          .c_str());
  return correct ? 0 : 1;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  const std::string err = ParseConfig(argc, argv, &config);
  if (!err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  size_t heavy_count = 0, light_count = 0;
  StreamSizes(config, &heavy_count, &light_count);
  Inputs inputs;
  const std::string gen = MakeInputs(config, heavy_count, light_count, &inputs);
  if (!gen.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", gen.c_str());
    return 1;
  }
  std::string report, spans;
  const int rc = config.trace
                     ? RunTracedMode(&inputs, config, &report, &spans)
                     : RunEndToEnd(&inputs, config, &report);
  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  WriteFile(stem + ".report.json", report + "\n");
  if (!spans.empty()) WriteFile(stem + ".spans.json", spans);
  std::error_code ec;
  for (const DataGraph& g : inputs.graphs) std::filesystem::remove(g.path, ec);
  return rc;
}
