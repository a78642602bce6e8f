#include "ladder.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "core/matching_order.h"
#include "drive.h"
#include "io/binary_format.h"
#include "parallel/executor.h"
#include "parallel/service.h"
#include "serve/catalog.h"

namespace perfbench {

using hgmatch::MonotonicSeconds;

uint64_t SpanLog::Add(uint64_t parent, const std::string& name,
                      const std::string& layer, double start, double end) {
  SpanRow row;
  row.id = rows_.size() + 1;
  row.parent = parent;
  row.name = name;
  row.layer = layer;
  row.start = start;
  row.end = end;
  rows_.push_back(std::move(row));
  return rows_.back().id;
}

uint64_t SpanLog::AddRequest(const std::string& name, const std::string& layer,
                             double start, double end,
                             const hgmatch::QueryOutcome& outcome) {
  const uint64_t root = Add(0, name, layer, start, end);
  const hgmatch::QuerySpan& span = outcome.span;
  auto add = [&](uint64_t parent, const char* n, const char* l, double a,
                 double b) -> uint64_t {
    if (a <= 0 || b <= 0) return 0;
    a = std::max(a, start);
    b = std::min(b, end);
    return b >= a ? Add(parent, n, l, a, b) : 0;
  };
  const uint64_t query =
      outcome.mirrored ? 0
                       : add(root, "service.query", "service",
                             span.submit_seconds, span.resolve_seconds);
  if (query != 0) {
    add(query, "scheduler.queue", "scheduler", span.submit_seconds,
        span.admit_seconds);
    add(query, "scheduler.seed", "scheduler", span.admit_seconds,
        span.first_task_seconds);
    add(query, "core.run", "core", span.first_task_seconds,
        span.last_task_seconds);
  }
  add(root, "net.deliver", "net", span.resolve_seconds, span.deliver_seconds);
  return root;
}

std::string SpanLog::Json() const {
  std::string out = "{\"spans\": [\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const SpanRow& r = rows_[i];
    out += "{\"id\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"name\": " + JsonString(r.name) +
           ", \"layer\": " + JsonString(r.layer) +
           ", \"start\": " + JsonNumber(r.start) +
           ", \"end\": " + JsonNumber(r.end) + "}";
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

namespace {

// Self time per layer of the span tree rooted at `root`: each span's
// duration minus the part of it its children cover, summed by layer.
std::map<std::string, double> SelfTimes(const std::vector<SpanRow>& rows,
                                        uint64_t root) {
  // A request's tree is contiguous in the log, starting at its root.
  std::map<std::string, double> out;
  const size_t first = root - 1;
  size_t last = first + 1;
  while (last < rows.size() && rows[last].parent != 0) ++last;
  for (size_t i = first; i < last; ++i) {
    const SpanRow& s = rows[i];
    std::vector<std::pair<double, double>> kids;
    for (size_t j = i + 1; j < last; ++j) {
      if (rows[j].parent != s.id) continue;
      const double a = std::max(rows[j].start, s.start);
      const double b = std::min(rows[j].end, s.end);
      if (b > a) kids.emplace_back(a, b);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out[s.layer] += (s.end - s.start) - covered;
  }
  return out;
}

struct LadderQuery {
  const Query* query;
  uint32_t graph;
};

// Timed outcome of one rung call.
struct Call {
  double seconds = 0;
  uint64_t count = 0;
  bool ok = false;
};

double TotalSeconds(const std::vector<Call>& calls) {
  double s = 0;
  for (const Call& c : calls) s += c.seconds;
  return s;
}

double MeanSeconds(const std::vector<Call>& calls) {
  return calls.empty() ? 0 : TotalSeconds(calls) / calls.size();
}

// Span-derived intervals of executed, traced outcomes of a load pass.
struct SpanFigures {
  std::vector<double> queue_ms, run_ms, resolve_us, deliver_us;
};

SpanFigures FromRecords(const std::vector<Record>& records,
                        const std::vector<size_t>& warmup) {
  SpanFigures f;
  std::vector<bool> skip(records.size(), false);
  for (size_t s : warmup) skip[s] = true;
  for (size_t i = 0; i < records.size(); ++i) {
    const hgmatch::QuerySpan& s = records[i].outcome.span;
    if (skip[i] || !records[i].done || records[i].outcome.mirrored ||
        !s.enabled || s.submit_seconds <= 0 || s.last_task_seconds <= 0) {
      continue;
    }
    f.queue_ms.push_back((s.admit_seconds - s.submit_seconds) * 1e3);
    f.run_ms.push_back((s.last_task_seconds - s.first_task_seconds) * 1e3);
    f.resolve_us.push_back((s.resolve_seconds - s.last_task_seconds) * 1e6);
    if (s.deliver_seconds > 0) {
      f.deliver_us.push_back((s.deliver_seconds - s.resolve_seconds) * 1e6);
    }
  }
  return f;
}

// Mean client-observed latency of the measured, ok requests of a pass.
double MeanLatency(const LoadRun& run, const Inputs& inputs) {
  std::vector<bool> skip(run.records.size(), false);
  for (size_t s : run.warmup) skip[s] = true;
  std::vector<double> lat;
  for (size_t i = 0; i < run.records.size(); ++i) {
    if (!skip[i] && RecordOk(run.records[i], inputs)) {
      lat.push_back(run.records[i].LatencySeconds());
    }
  }
  return Mean(lat);
}

void CountRecords(const LoadRun& run, const Inputs& inputs, TracedRun* out) {
  for (const Record& r : run.records) {
    ++out->attempted;
    if (!RecordOk(r, inputs)) ++out->failed;
  }
}

}  // namespace

std::string RunTraced(Inputs* inputs, const Config& config, TracedRun* out) {
  const uint32_t n = config.threads;
  // --- io and index: the set-up's first two steps, repeated -------------
  std::vector<double> load_s, index_s;
  for (uint32_t rep = 0; rep < config.setup_reps; ++rep) {
    double load = 0, index = 0;
    for (const DataGraph& g : inputs->graphs) {
      double t = MonotonicSeconds();
      auto loaded = hgmatch::LoadHypergraphBinary(g.path);
      if (!loaded.ok()) return "load: " + loaded.status().ToString();
      load += MonotonicSeconds() - t;
      t = MonotonicSeconds();
      hgmatch::IndexedHypergraph ix =
          hgmatch::IndexedHypergraph::Build(std::move(loaded).value());
      index += MonotonicSeconds() - t;
    }
    load_s.push_back(load);
    index_s.push_back(index);
  }

  // --- the workload's own load, untraced then traced --------------------
  LoadRun pass[2];
  for (int traced = 0; traced < 2; ++traced) {
    std::unique_ptr<Deployment> dep;
    double setup = 0, load = 0;
    std::string err = Deploy(*inputs, config, traced == 1, &dep, &setup, &load);
    if (!err.empty()) return err;
    pass[traced] = RunLoad(*dep, *inputs, config, config.seconds / 2, false);
  }

  // --- the ladder queries ------------------------------------------------
  std::vector<LadderQuery> ladder;
  std::vector<size_t> used(inputs->streams.size(), 0);
  for (size_t s = 0; s < inputs->streams.size(); ++s) {
    const Stream& stream = inputs->streams[s];
    const size_t k = std::min<size_t>(
        stream.heavy ? config.ladder_heavy : config.ladder_light,
        stream.queries.size());
    for (size_t i = 0; i < k; ++i) {
      ladder.push_back({&stream.queries[i], stream.graph});
    }
    used[s] = std::max({k, pass[0].used[s], pass[1].used[s]});
  }
  ComputeExpected(inputs, used, n);
  CountRecords(pass[0], *inputs, out);
  CountRecords(pass[1], *inputs, out);

  const size_t m = ladder.size();
  auto data = [&](size_t i) -> const hgmatch::IndexedHypergraph& {
    return inputs->graphs[ladder[i].graph].reference;
  };
  auto check = [&](size_t i, const Call& c) {
    ++out->attempted;
    const Query& q = *ladder[i].query;
    if (!c.ok || !q.has_expected || c.count != q.expected) ++out->failed;
  };

  // Rung 1: kernel, with the canonical key and the plan timed beside it.
  std::vector<hgmatch::QueryPlan> plans(m);
  std::vector<Call> r1(m);
  double canonical_s = 0, plan_s = 0;
  uint64_t fallbacks = 0, candidates = 0, filtered = 0, embeddings = 0;
  for (size_t i = 0; i < m; ++i) {
    const hgmatch::Hypergraph& q = ladder[i].query->graph;
    double t = MonotonicSeconds();
    const hgmatch::CanonicalKey key = hgmatch::CanonicalQueryKey(q);
    canonical_s += MonotonicSeconds() - t;
    fallbacks += key.isomorphism_invariant ? 0 : 1;
    t = MonotonicSeconds();
    auto plan = hgmatch::BuildQueryPlan(q, data(i));
    plan_s += MonotonicSeconds() - t;
    if (!plan.ok()) return "plan: " + plan.status().ToString();
    plans[i] = std::move(plan).value();
    t = MonotonicSeconds();
    const hgmatch::MatchStats st =
        hgmatch::ExecutePlanSequential(data(i), plans[i], {}, nullptr);
    r1[i] = {MonotonicSeconds() - t, st.embeddings, true};
    candidates += st.candidates;
    filtered += st.filtered;
    embeddings += st.embeddings;
    check(i, r1[i]);
  }

  // Rung 2: scheduler at 1 and N threads.
  std::vector<Call> r2_one(m), r2_all(m);
  double imbalance = 0, tasks = 0, steals = 0, peak_task_bytes = 0;
  for (size_t i = 0; i < m; ++i) {
    for (uint32_t threads : {1u, n}) {
      hgmatch::ParallelOptions po;
      po.num_threads = threads;
      const double t = MonotonicSeconds();
      const hgmatch::ParallelResult pr =
          hgmatch::ExecutePlanParallel(data(i), plans[i], po);
      const Call c{MonotonicSeconds() - t, pr.stats.embeddings,
                   !pr.stats.timed_out && !pr.stats.limit_hit};
      check(i, c);
      if (threads == 1) {
        r2_one[i] = c;
        continue;
      }
      r2_all[i] = c;
      double busy_max = 0, busy_sum = 0;
      for (const hgmatch::WorkerReport& w : pr.workers) {
        busy_max = std::max(busy_max, w.busy_seconds);
        busy_sum += w.busy_seconds;
        tasks += static_cast<double>(w.tasks_executed);
        steals += static_cast<double>(w.steals);
      }
      if (busy_sum > 0) {
        imbalance += busy_max / (busy_sum / pr.workers.size());
      }
      peak_task_bytes =
          std::max(peak_task_bytes, static_cast<double>(pr.peak_task_bytes));
    }
  }

  // Rung 3: the service, one per graph, on one shared pool (as the
  // catalog and the server run them).
  std::vector<Call> r3(m);
  std::vector<double> submit_s(m), service_self(m);
  hgmatch::SubmitOptions traced;
  traced.trace = true;
  uint64_t submitted = 0, hits = 0, mirrored = 0, service_rejected = 0;
  {
    hgmatch::ServiceOptions so;
    so.parallel.num_threads = n;
    hgmatch::SchedulerPool pool(so);
    std::vector<std::unique_ptr<hgmatch::MatchService>> services;
    for (const DataGraph& g : inputs->graphs) {
      services.push_back(
          std::make_unique<hgmatch::MatchService>(g.reference, pool, so));
    }
    for (size_t i = 0; i < m; ++i) {
      hgmatch::Hypergraph q = ladder[i].query->graph.Clone();
      const double t0 = MonotonicSeconds();
      hgmatch::Ticket ticket =
          services[ladder[i].graph]->Submit(std::move(q), traced);
      const double t1 = MonotonicSeconds();
      const hgmatch::QueryOutcome o = ticket.Wait();
      const double t2 = MonotonicSeconds();
      r3[i] = {t2 - t0, o.stats.embeddings,
               o.status == hgmatch::QueryStatus::kOk};
      check(i, r3[i]);
      submit_s[i] = t1 - t0;
      const uint64_t root =
          out->spans.AddRequest("service.call", "service", t0, t2, o);
      service_self[i] = SelfTimes(out->spans.rows(), root)["service"];
    }
    for (auto& s : services) {
      const hgmatch::ServiceReport rep = s->Shutdown();
      submitted += rep.submitted;
      hits += rep.plan_cache_hits;
      mirrored += rep.mirrored;
      service_rejected += rep.rejected;
    }
  }

  // Rung 4: the catalog on one shared pool, unsharded and N-way sharded.
  std::vector<Call> r4[2];
  for (int sharded = 0; sharded < 2; ++sharded) {
    hgmatch::CatalogOptions co;
    co.service.parallel.num_threads = n;
    co.service.shards = sharded ? n : 1;
    hgmatch::GraphCatalog catalog(co);
    for (const DataGraph& g : inputs->graphs) {
      hgmatch::Status s = catalog.Load(g.name, g.reference.graph().Clone());
      if (!s.ok()) return "catalog load: " + s.ToString();
    }
    r4[sharded].resize(m);
    for (size_t i = 0; i < m; ++i) {
      hgmatch::Hypergraph q = ladder[i].query->graph.Clone();
      const double t0 = MonotonicSeconds();
      auto ct = catalog.Submit(inputs->graphs[ladder[i].graph].name,
                               std::move(q), traced);
      Call c;
      if (ct.ok()) {
        const hgmatch::QueryOutcome& o = ct.value().ticket.Wait();
        c = {0, o.stats.embeddings, o.status == hgmatch::QueryStatus::kOk};
      }
      c.seconds = MonotonicSeconds() - t0;
      r4[sharded][i] = c;
      check(i, c);
    }
    catalog.Shutdown();
  }

  // Rung 5: the wire, one traced connection, one request at a time.
  std::vector<Call> r5(m);
  std::vector<double> core5(m), sched5(m);
  double ping_us = 0, bytes_per_query = 0;
  uint64_t net_rejected = 0;
  {
    // Declared before the deployment so that closing the client on the
    // way out, which fails any pending callback, still finds it alive.
    Recorder rec;
    std::unique_ptr<Deployment> dep;
    double setup = 0, load = 0;
    std::string err = Deploy(*inputs, config, true, &dep, &setup, &load);
    if (!err.empty()) return err;
    hgmatch::AsyncMatchClient& client = dep->client(0);
    const hgmatch::ClientTransferStats before = client.TransferStats();
    for (size_t i = 0; i < m; ++i) {
      const size_t slot =
          Send(client, inputs->graphs[ladder[i].graph].name, *ladder[i].query,
               0, 0, MonotonicSeconds(), &rec);
      rec.WaitDone(slot, 120);
      const Record r = rec.Snapshot()[slot];
      r5[i] = {r.recv - r.due, r.outcome.stats.embeddings,
               r.transport_ok && r.outcome.status == hgmatch::QueryStatus::kOk};
      net_rejected +=
          r.outcome.status == hgmatch::QueryStatus::kRejected ? 1 : 0;
      check(i, r5[i]);
      const uint64_t root = out->spans.AddRequest("net.request", "net", r.due,
                                                  r.recv, r.outcome);
      const auto self = SelfTimes(out->spans.rows(), root);
      core5[i] = self.count("core") ? self.at("core") : 0;
      sched5[i] = self.count("scheduler") ? self.at("scheduler") : 0;
    }
    const hgmatch::ClientTransferStats after = client.TransferStats();
    bytes_per_query =
        m == 0 ? 0
               : static_cast<double>(after.bytes_sent - before.bytes_sent +
                                     after.bytes_received -
                                     before.bytes_received) /
                     static_cast<double>(m);
    std::vector<double> pings;
    for (int i = 0; i < 200; ++i) {
      const double t = MonotonicSeconds();
      if (client.Ping().ok()) pings.push_back(MonotonicSeconds() - t);
    }
    ping_us = Median(pings) * 1e6;
  }
  for (const Record& r : pass[0].records) {
    net_rejected += r.outcome.status == hgmatch::QueryStatus::kRejected;
  }
  for (const Record& r : pass[1].records) {
    net_rejected += r.outcome.status == hgmatch::QueryStatus::kRejected;
  }

  for (size_t i = 0; i < m; ++i) fprintf(stderr, "DBG %zu r1 %.3f r2 %.3f r3 %.3f r4 %.3f r4n %.3f r5 %.3f\n", i, r1[i].seconds*1e3, r2_all[i].seconds*1e3, r3[i].seconds*1e3, r4[0][i].seconds*1e3, r4[1][i].seconds*1e3, r5[i].seconds*1e3);
  // --- reduce ------------------------------------------------------------
  const SpanFigures fig = FromRecords(pass[1].records, pass[1].warmup);
  for (size_t i = 0; i < pass[1].records.size(); ++i) {
    const Record& r = pass[1].records[i];
    if (r.done) {
      out->spans.AddRequest("net.request", "net", r.due, r.recv, r.outcome);
    }
  }
  std::vector<double> lag_ms;
  for (size_t slot : pass[0].light.slots) {
    const Record& r = pass[0].records[slot];
    lag_ms.push_back((r.sent - r.due) * 1e3);
  }
  const double k1 = TotalSeconds(r1);
  const double mm = static_cast<double>(std::max<size_t>(m, 1));
  const double lat3 = MeanSeconds(r3), lat4 = MeanSeconds(r4[0]),
               lat5 = MeanSeconds(r5);
  const double self_core = Mean(core5), self_sched = Mean(sched5),
               self_service = Mean(service_self), self_catalog = lat4 - lat3,
               self_net = lat5 - lat4;
  const double self_sum =
      self_core + self_sched + self_service + self_catalog + self_net;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  out->fallback_ratio = ratio(static_cast<double>(fallbacks), mm);
  out->mirrored_share =
      ratio(static_cast<double>(mirrored), static_cast<double>(submitted));
  out->metrics = {
      {"io.load_s", Median(load_s), "s"},
      {"core.index_build_s", Median(index_s), "s"},
      {"core.canonical_us", canonical_s / mm * 1e6, "us"},
      {"core.canonical_fallback_ratio", out->fallback_ratio, "ratio"},
      {"core.plan_us", plan_s / mm * 1e6, "us"},
      {"core.kernel_ms", k1 / mm * 1e3, "ms"},
      {"core.ns_per_candidate", ratio(k1 * 1e9, candidates), "ns"},
      {"core.ns_per_embedding", ratio(k1 * 1e9, embeddings), "ns"},
      {"core.filter_pass_ratio", ratio(filtered, candidates), "ratio"},
      {"core.embedding_yield", ratio(embeddings, filtered), "ratio"},
      {"scheduler.speedup",
       ratio(TotalSeconds(r2_one), TotalSeconds(r2_all)), "x"},
      {"scheduler.busy_imbalance", imbalance / mm, "ratio"},
      {"scheduler.tasks_per_query", tasks / mm, "count"},
      {"scheduler.steals_per_query", steals / mm, "count"},
      {"scheduler.peak_task_mb", peak_task_bytes / (1 << 20), "MB"},
      {"scheduler.queue_ms_p50", Median(fig.queue_ms), "ms"},
      {"scheduler.queue_ms_tail", Percentile(fig.queue_ms, config.tail_pct),
       "ms"},
      {"scheduler.run_ms", Median(fig.run_ms), "ms"},
      {"service.overhead_us", (lat3 - MeanSeconds(r2_all)) * 1e6, "us"},
      {"service.submit_us", Mean(submit_s) * 1e6, "us"},
      {"service.resolve_us", Median(fig.resolve_us), "us"},
      {"service.plan_cache_hit_ratio",
       ratio(static_cast<double>(hits), static_cast<double>(submitted)),
       "ratio"},
      {"service.mirrored_ratio", out->mirrored_share, "ratio"},
      {"service.rejected", static_cast<double>(service_rejected), "count"},
      {"catalog.overhead_us", (lat4 - lat3) * 1e6, "us"},
      {"catalog.shard_speedup",
       ratio(TotalSeconds(r4[0]), TotalSeconds(r4[1])), "x"},
      {"net.overhead_us", (lat5 - lat4) * 1e6, "us"},
      {"net.deliver_us", Median(fig.deliver_us), "us"},
      {"net.ping_rtt_us", ping_us, "us"},
      {"net.bytes_per_query", bytes_per_query, "B"},
      {"net.rejected", static_cast<double>(net_rejected), "count"},
      {"driver.send_lag_ms_tail", Percentile(lag_ms, config.tail_pct), "ms"},
      {"trace.overhead_ratio",
       ratio(MeanLatency(pass[1], *inputs), MeanLatency(pass[0], *inputs)),
       "ratio"},
      {"self.core_us", self_core * 1e6, "us"},
      {"self.scheduler_us", self_sched * 1e6, "us"},
      {"self.service_us", self_service * 1e6, "us"},
      {"self.catalog_us", self_catalog * 1e6, "us"},
      {"self.net_us", self_net * 1e6, "us"},
      {"self.client_us", lat5 * 1e6, "us"},
      {"self.sum_ratio", ratio(self_sum, lat5), "ratio"},
  };
  return "";
}

}  // namespace perfbench
