#include "drive.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "io/binary_format.h"
#include "obs/trace.h"

namespace perfbench {

using hgmatch::MonotonicSeconds;

size_t Recorder::Begin(uint32_t stream, uint32_t query, double due,
                       double sent) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record r;
  r.stream = stream;
  r.query = query;
  r.due = due;
  r.sent = sent;
  records_.push_back(std::move(r));
  ++outstanding_;
  return records_.size() - 1;
}

void Recorder::Finish(size_t slot, const hgmatch::AsyncOutcome& outcome) {
  const double now = MonotonicSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  Record& r = records_[slot];
  r.recv = now;
  r.done = true;
  r.transport_ok = outcome.transport.ok();
  if (r.transport_ok) r.outcome = outcome.wire.outcome;
  --outstanding_;
  cv_.notify_all();
}

void Recorder::Abort(size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record& r = records_[slot];
  r.recv = MonotonicSeconds();
  r.done = true;
  r.transport_ok = false;
  --outstanding_;
  cv_.notify_all();
}

size_t Recorder::Outstanding() {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_;
}

bool Recorder::WaitIdle(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [&] { return outstanding_ == 0; });
}

bool Recorder::WaitDone(size_t slot, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [&] { return records_[slot].done; });
}

std::vector<Record> Recorder::Snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

Deployment::~Deployment() {
  for (auto& c : clients_) c->Close();
  clients_.clear();
  if (server_) server_->Stop();
}

std::string Deploy(const Inputs& inputs, const Config& config, bool trace,
                   std::unique_ptr<Deployment>* out, double* setup_seconds,
                   double* load_seconds) {
  auto dep = std::make_unique<Deployment>();
  const double t0 = MonotonicSeconds();
  std::vector<hgmatch::NamedGraph> graphs;
  for (const DataGraph& g : inputs.graphs) {
    auto loaded = hgmatch::LoadHypergraphBinary(g.path);
    if (!loaded.ok()) return "load " + g.path + ": " + loaded.status().ToString();
    graphs.push_back({g.name, std::move(loaded).value()});
  }
  const double t1 = MonotonicSeconds();
  hgmatch::ServerOptions options;
  options.service.parallel.num_threads = config.threads;
  options.io_threads = 1;
  dep->server_ =
      std::make_unique<hgmatch::MatchServer>(std::move(graphs), options);
  hgmatch::Status s = dep->server_->Start();
  if (!s.ok()) return "server start: " + s.ToString();
  const size_t connections = config.workload == "enum" ? 1 : 2;
  for (size_t i = 0; i < connections; ++i) {
    hgmatch::AsyncClientOptions copts;
    copts.max_inflight = 0;
    copts.request_features =
        hgmatch::kFeatureCatalog | (trace ? hgmatch::kFeatureTrace : 0u);
    auto client = std::make_unique<hgmatch::AsyncMatchClient>(copts);
    s = client->Connect("127.0.0.1", dep->server_->port());
    if (!s.ok()) return "connect: " + s.ToString();
    dep->clients_.push_back(std::move(client));
  }
  const double t2 = MonotonicSeconds();
  *setup_seconds = t2 - t0;
  *load_seconds = t1 - t0;
  *out = std::move(dep);
  return "";
}

size_t Send(hgmatch::AsyncMatchClient& client, const std::string& graph,
            const Query& q, uint32_t stream_id, uint32_t index, double due,
            Recorder* recorder) {
  const size_t slot =
      recorder->Begin(stream_id, index, due, MonotonicSeconds());
  auto r = client.Submit(graph, q.graph, hgmatch::SubmitOptions{},
                         [recorder, slot](const hgmatch::AsyncOutcome& o) {
                           recorder->Finish(slot, o);
                         });
  if (!r.ok()) recorder->Abort(slot);
  return slot;
}

namespace {

void SleepUntil(double t) {
  const double wait = t - MonotonicSeconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// Closed loop: one request outstanding on `client`, stream queries from
// *next on, until `deadline`, `limit` requests or the end of the stream.
std::vector<size_t> ClosedLoop(hgmatch::AsyncMatchClient& client,
                               const std::string& graph, const Stream& stream,
                               uint32_t stream_id, size_t* next,
                               double deadline, size_t limit,
                               Recorder* recorder) {
  std::vector<size_t> slots;
  while (*next < stream.queries.size() && slots.size() < limit &&
         MonotonicSeconds() < deadline) {
    const uint32_t i = static_cast<uint32_t>((*next)++);
    const size_t slot = Send(client, graph, stream.queries[i], stream_id, i,
                             MonotonicSeconds(), recorder);
    recorder->WaitDone(slot, 120);
    slots.push_back(slot);
  }
  return slots;
}

OpenStep OpenLoop(const std::vector<hgmatch::AsyncMatchClient*>& clients,
                  const std::string& graph, const Stream& stream,
                  uint32_t stream_id, size_t* next, double rate,
                  double duration, Recorder* recorder) {
  OpenStep step;
  step.rate = rate;
  const size_t base = *next;
  const size_t n = std::min(static_cast<size_t>(rate * duration),
                            stream.queries.size() - base);
  *next = base + n;
  // Start slightly in the future so both senders are up before the first
  // due time.
  step.start = MonotonicSeconds() + 0.002;
  std::vector<std::vector<size_t>> slots(clients.size());
  std::vector<std::thread> senders;
  for (size_t c = 0; c < clients.size(); ++c) {
    senders.emplace_back([&, c] {
      for (size_t k = c; k < n; k += clients.size()) {
        const double due = step.start + static_cast<double>(k) / rate;
        SleepUntil(due);
        slots[c].push_back(Send(*clients[c], graph, stream.queries[base + k],
                                stream_id, static_cast<uint32_t>(base + k),
                                due, recorder));
      }
    });
  }
  const double mid = step.start + duration / 2;
  const double end = step.start + duration;
  double sum[2] = {0, 0};
  int samples[2] = {0, 0};
  for (double now; (now = MonotonicSeconds()) < end;) {
    const int half = now < mid ? 0 : 1;
    sum[half] += static_cast<double>(recorder->Outstanding());
    ++samples[half];
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& t : senders) t.join();
  step.backlog_first = samples[0] > 0 ? sum[0] / samples[0] : 0;
  step.backlog_second = samples[1] > 0 ? sum[1] / samples[1] : 0;
  step.growing = step.backlog_second - step.backlog_first >
                 std::max(10.0, 0.1 * static_cast<double>(n));
  for (const auto& s : slots) {
    step.slots.insert(step.slots.end(), s.begin(), s.end());
  }
  std::sort(step.slots.begin(), step.slots.end());
  return step;
}

}  // namespace

bool RecordOk(const Record& r, const Inputs& inputs) {
  const Query& q = inputs.streams[r.stream].queries[r.query];
  return r.done && r.transport_ok &&
         r.outcome.status == hgmatch::QueryStatus::kOk && q.has_expected &&
         r.outcome.stats.embeddings == q.expected;
}

namespace {

Rung Judge(const OpenStep& step, const std::vector<Record>& records,
           bool drained, const Config& config) {
  Rung rung;
  rung.step = step;
  std::vector<double> latency_ms;
  double last = step.start;
  for (size_t slot : step.slots) {
    const Record& r = records[slot];
    const bool ok = r.done && r.transport_ok &&
                    r.outcome.status == hgmatch::QueryStatus::kOk;
    // A failed or unfinished request misses any latency limit.
    latency_ms.push_back(ok ? r.LatencySeconds() * 1e3 : 1e12);
    if (r.done) last = std::max(last, r.recv);
  }
  rung.tail_ms = Percentile(latency_ms, config.tail_pct);
  rung.served = last > step.start
                    ? static_cast<double>(step.slots.size()) / (last - step.start)
                    : 0;
  rung.passed = drained && !step.slots.empty() && !step.growing &&
                rung.tail_ms <= config.slo_ms;
  return rung;
}

double LastReply(const std::vector<Record>& records,
                 const std::vector<size_t>& slots, double from) {
  double last = from;
  for (size_t s : slots) last = std::max(last, records[s].recv);
  return last - from;
}

}  // namespace

LoadRun RunLoad(Deployment& dep, const Inputs& inputs, const Config& config,
                double seconds, bool ladder) {
  Recorder rec;
  LoadRun run;
  run.used.assign(inputs.streams.size(), 0);
  const bool has_heavy = inputs.streams.front().heavy;
  const bool has_light = !inputs.streams.back().heavy;
  const uint32_t heavy = 0;
  const uint32_t light = static_cast<uint32_t>(inputs.streams.size() - 1);
  auto graph = [&](uint32_t s) {
    return inputs.graphs[inputs.streams[s].graph].name;
  };
  // Connection 0 carries the heavy stream when there is one; the light
  // stream gets the remaining connection(s).
  std::vector<hgmatch::AsyncMatchClient*> light_clients;
  for (size_t c = has_heavy ? 1 : 0; c < dep.num_clients(); ++c) {
    light_clients.push_back(&dep.client(c));
  }
  constexpr double kNoDeadline = 1e300;
  if (has_heavy) {
    run.warmup = ClosedLoop(dep.client(0), graph(heavy), inputs.streams[heavy],
                            heavy, &run.used[heavy], kNoDeadline, 2, &rec);
  }
  if (has_light) {
    auto w = ClosedLoop(*light_clients[0], graph(light), inputs.streams[light],
                        light, &run.used[light], kNoDeadline, 20, &rec);
    run.warmup.insert(run.warmup.end(), w.begin(), w.end());
  }

  const double start = MonotonicSeconds();
  std::thread closed;
  if (has_heavy) {
    closed = std::thread([&] {
      run.heavy = ClosedLoop(dep.client(0), graph(heavy),
                             inputs.streams[heavy], heavy, &run.used[heavy],
                             start + seconds, SIZE_MAX, &rec);
    });
  }
  if (has_light && !ladder) {
    const double rate =
        config.workload == "mixed" ? config.mixed_rate : config.rates.front();
    run.light = OpenLoop(light_clients, graph(light), inputs.streams[light],
                         light, &run.used[light], rate, seconds, &rec);
  } else if (has_light) {
    for (size_t i = 0; i < config.rates.size(); ++i) {
      const double dwell =
          i == 0 ? seconds * config.ref_share : config.step_seconds;
      if (i > 0 && MonotonicSeconds() + dwell > start + seconds) break;
      OpenStep step =
          OpenLoop(light_clients, graph(light), inputs.streams[light], light,
                   &run.used[light], config.rates[i], dwell, &rec);
      const bool drained = rec.WaitIdle(std::max(5.0, 4 * dwell));
      run.rungs.push_back(Judge(step, rec.Snapshot(), drained, config));
      if (i == 0) run.light = step;
      if (!run.rungs.back().passed) break;
    }
  }
  if (closed.joinable()) closed.join();
  if (!rec.WaitIdle(120)) {
    // Closing fails every pending callback now, so none can reach `rec`
    // after it is gone; the unanswered requests count as failed.
    for (size_t c = 0; c < dep.num_clients(); ++c) dep.client(c).Close();
  }
  run.records = rec.Snapshot();
  run.heavy_window = LastReply(run.records, run.heavy, start);
  run.light_window =
      LastReply(run.records, run.light.slots, run.light.start);
  for (size_t s = 0; s < inputs.streams.size(); ++s) {
    if (run.used[s] == inputs.streams[s].queries.size()) run.exhausted = true;
  }
  return run;
}

namespace {

struct Outcomes {
  std::vector<double> latency_ms;
  double ok = 0;
  double embeddings = 0;
  double within_slo = 0;
};

Outcomes Collect(const LoadRun& run, const std::vector<size_t>& slots,
                 const Inputs& inputs, const Config& config) {
  Outcomes o;
  for (size_t s : slots) {
    const Record& r = run.records[s];
    const bool ok = RecordOk(r, inputs);
    // A failed request misses any latency limit.
    const double ms = ok ? r.LatencySeconds() * 1e3 : 1e12;
    o.latency_ms.push_back(ms);
    o.ok += ok;
    o.embeddings += ok ? static_cast<double>(r.outcome.stats.embeddings) : 0;
    o.within_slo += ok && ms <= config.slo_ms;
  }
  return o;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// The offered rate at which the ladder's tail latency crosses the limit:
// interpolated (linear in rate, logarithmic in latency) between the last
// passing rung and the first failing one, so the figure is not quantised
// to the rung spacing. A first failing rung that kept its tail within the
// limit (it failed on backlog growth) or no failing rung at all yields the
// last passing rung's served rate.
double SloRate(const std::vector<Rung>& rungs, double limit_ms) {
  double rate = 0;
  for (size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    if (r.passed) {
      rate = r.served;
      continue;
    }
    const Rung* prev = i > 0 ? &rungs[i - 1] : nullptr;
    if (prev != nullptr && r.tail_ms > limit_ms && prev->tail_ms > 0) {
      const double f = std::log(limit_ms / prev->tail_ms) /
                       std::log(r.tail_ms / prev->tail_ms);
      rate += (r.step.rate - prev->step.rate) * std::clamp(f, 0.0, 1.0);
    }
    break;
  }
  return rate;
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const LoadRun& run, const Inputs& inputs,
                                    const Config& config, double setup_s,
                                    double* embeddings_per_s) {
  const Outcomes heavy = Collect(run, run.heavy, inputs, config);
  const Outcomes light = Collect(run, run.light.slots, inputs, config);
  const Outcomes& timed = config.workload == "enum" ? heavy : light;
  double qps = 0, eps = 0, max_qps = 0;
  if (config.workload == "enum") {
    qps = heavy.ok / run.heavy_window;
    eps = heavy.embeddings / run.heavy_window;
    max_qps = heavy.within_slo / run.heavy_window;
  } else if (config.workload == "lookup") {
    qps = light.ok / run.light_window;
    eps = light.embeddings / run.light_window;
    max_qps = SloRate(run.rungs, config.slo_ms);
  } else {
    qps = (heavy.ok + light.ok) / std::max(run.heavy_window, run.light_window);
    eps = heavy.embeddings / run.heavy_window;
    max_qps = light.within_slo / run.light_window;
  }
  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Percentile(timed.latency_ms, 50), "ms"},
      {"latency_tail_ms", Percentile(timed.latency_ms, config.tail_pct), "ms"},
      {"queries_per_s", qps, "1/s"},
      {"max_qps_at_slo", max_qps, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  *embeddings_per_s = eps;
  return metrics;
}

}  // namespace perfbench
