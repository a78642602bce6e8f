#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "gen/dataset_profiles.h"
#include "gen/query_gen.h"
#include "io/binary_format.h"
#include "util/rng.h"

namespace perfbench {

using hgmatch::Hypergraph;

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool ParseRates(const std::string& csv, std::vector<double>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = std::min(csv.find(',', pos), csv.size());
    double v = 0;
    if (!ParseDouble(csv.substr(pos, comma - pos).c_str(), &v) || v <= 0) {
      return false;
    }
    out->push_back(v);
    pos = comma + 1;
  }
  return std::is_sorted(out->begin(), out->end());
}

}  // namespace

std::string ParseConfig(int argc, char** argv, Config* c) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return "missing value for " + key;
    const char* v = argv[i + 1];
    double d = 0;
    const bool num = ParseDouble(v, &d);
    auto need = [&](bool ok) { return ok ? "" : "bad value for " + key; };
    std::string err;
    if (key == "--workload") {
      c->workload = v;
    } else if (key == "--out") {
      c->out_dir = v;
    } else if (key == "--rates") {
      err = need(ParseRates(v, &c->rates));

    } else if (!num) {
      err = key.rfind("--", 0) == 0 ? need(false) : "unknown argument " + key;
    } else if (key == "--seed") {
      err = need(d >= 0);
      c->seed = static_cast<uint64_t>(d);
    } else if (key == "--seconds") {
      err = need(d > 0);
      c->seconds = d;
    } else if (key == "--trace") {
      err = need(d == 0 || d == 1);
      c->trace = d == 1;
    } else if (key == "--ref-share") {
      err = need(d > 0 && d < 1);
      c->ref_share = d;
    } else if (key == "--step-seconds") {
      err = need(d > 0);
      c->step_seconds = d;
    } else if (key == "--mixed-rate") {
      err = need(d > 0);
      c->mixed_rate = d;
    } else if (key == "--repeat-share") {
      err = need(d >= 0 && d < 1);
      c->repeat_share = d;
    } else if (key == "--shapes") {
      err = need(d >= 1);
      c->shapes = static_cast<uint32_t>(d);
    } else if (key == "--slo-ms") {
      err = need(d > 0);
      c->slo_ms = d;
    } else if (key == "--tail-pct") {
      err = need(d > 0 && d < 100);
      c->tail_pct = d;
    } else if (key == "--ladder-heavy") {
      c->ladder_heavy = static_cast<uint32_t>(d);
    } else if (key == "--ladder-light") {
      c->ladder_light = static_cast<uint32_t>(d);
    } else {
      err = "unknown argument " + key;
    }
    if (!err.empty()) return err;
  }
  if (c->workload != "enum" && c->workload != "lookup" &&
      c->workload != "mixed") {
    return "--workload must be enum, lookup or mixed";
  }
  if (c->workload == "lookup" && c->rates.empty()) {
    return "--rates is required for the lookup workload";
  }
  if (c->threads == 0) {
    c->threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return "";
}

void StreamSizes(const Config& c, size_t* heavy, size_t* light) {
  constexpr double kHeavyPerSecond = 60;
  constexpr size_t kWarmup = 20;
  const double load_seconds = c.trace ? c.seconds / 2 : c.seconds;
  *heavy = c.workload == "lookup"
               ? 0
               : static_cast<size_t>(load_seconds * kHeavyPerSecond) +
                     c.ladder_heavy + kWarmup;
  if (c.workload == "enum") {
    *light = 0;
  } else if (c.workload == "mixed") {
    *light = static_cast<size_t>(c.mixed_rate * load_seconds) + kWarmup +
             c.ladder_light;
  } else if (c.trace) {
    *light = static_cast<size_t>(c.rates.front() * load_seconds) + kWarmup +
             c.ladder_light;
  } else {
    double n = c.rates.front() * c.seconds * c.ref_share;
    const size_t rungs =
        static_cast<size_t>(c.seconds * (1 - c.ref_share) / c.step_seconds);
    for (size_t i = 1; i < c.rates.size() && i <= rungs; ++i) {
      n += c.rates[i] * c.step_seconds;
    }
    *light = static_cast<size_t>(n) + kWarmup;
  }
}

namespace {

// An isomorphism invariant of a query: equal for isomorphic queries, so two
// queries with different invariants never share a canonical key.
std::string QueryInvariant(const Hypergraph& q) {
  // Hyperedge signatures (sorted member labels, then the hyperedge label),
  // and per vertex its label with the signatures of the hyperedges holding
  // it; for two-edge queries this pins the isomorphism class.
  std::vector<std::vector<uint32_t>> sigs(q.NumEdges());
  for (hgmatch::EdgeId e = 0; e < q.NumEdges(); ++e) {
    for (hgmatch::VertexId v : q.edge(e)) sigs[e].push_back(q.label(v));
    std::sort(sigs[e].begin(), sigs[e].end());
    sigs[e].push_back(~q.edge_label(e));
  }
  std::vector<std::vector<uint32_t>> distinct = sigs;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<std::vector<uint32_t>> vertices(q.NumVertices());
  for (hgmatch::EdgeId e = 0; e < q.NumEdges(); ++e) {
    const uint32_t rank = static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), sigs[e]) -
        distinct.begin());
    for (hgmatch::VertexId v : q.edge(e)) vertices[v].push_back(rank);
  }
  for (hgmatch::VertexId v = 0; v < q.NumVertices(); ++v) {
    std::sort(vertices[v].begin(), vertices[v].end());
    vertices[v].insert(vertices[v].begin(), q.label(v));
  }
  std::sort(sigs.begin(), sigs.end());
  std::sort(vertices.begin(), vertices.end());
  std::string out;
  for (const auto* group : {&sigs, &vertices}) {
    for (const auto& row : *group) {
      for (uint32_t x : row) out += std::to_string(x) + ",";
      out += ";";
    }
    out += "|";
  }
  return out;
}

// A copy of `q` with vertices renamed and hyperedges reordered.
Hypergraph RenamedCopy(const Hypergraph& q, uint64_t seed) {
  hgmatch::Rng rng(seed);
  std::vector<hgmatch::VertexId> perm(q.NumVertices());
  for (size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<hgmatch::VertexId>(i);
  }
  rng.Shuffle(&perm);
  std::vector<hgmatch::Label> labels(q.NumVertices());
  for (size_t v = 0; v < perm.size(); ++v) labels[perm[v]] = q.label(v);
  Hypergraph out;
  for (hgmatch::Label l : labels) out.AddVertex(l);
  std::vector<hgmatch::EdgeId> order(q.NumEdges());
  for (size_t e = 0; e < order.size(); ++e) {
    order[e] = static_cast<hgmatch::EdgeId>(e);
  }
  rng.Shuffle(&order);
  for (hgmatch::EdgeId e : order) {
    hgmatch::VertexSet vs;
    for (hgmatch::VertexId v : q.edge(e)) vs.push_back(perm[v]);
    (void)out.AddEdge(std::move(vs), q.edge_label(e));
  }
  return out;
}

// Runs fn(0..n-1) on `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, uint32_t threads, Fn fn) {
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  std::vector<std::thread> pool;
  for (uint32_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

// Accepts a query iff no earlier accepted query has the same
// CanonicalQueryKey().key. The invariant pre-filter limits the canonical
// search to queries whose invariant collides, and those keys are computed
// in parallel before the (sequential, order-preserving) accept pass.
class Deduper {
 public:
  explicit Deduper(uint32_t threads) : threads_(threads) {}

  std::vector<bool> InsertBatch(const std::vector<Hypergraph*>& batch) {
    std::vector<std::string> invariant(batch.size());
    std::unordered_map<std::string, size_t> in_batch;
    for (size_t i = 0; i < batch.size(); ++i) {
      invariant[i] = QueryInvariant(*batch[i]);
      ++in_batch[invariant[i]];
    }
    // Keys needed: colliding candidates and the stored entries they meet.
    std::vector<std::pair<const Hypergraph*, std::string*>> jobs;
    std::vector<std::string> keys(batch.size());
    std::vector<bool> keyed(batch.size(), false);
    for (size_t i = 0; i < batch.size(); ++i) {
      auto it = buckets_.find(invariant[i]);
      if (it == buckets_.end() && in_batch[invariant[i]] == 1) continue;
      keyed[i] = true;
      jobs.emplace_back(batch[i], &keys[i]);
      if (it == buckets_.end()) continue;
      for (Entry& e : it->second) {
        if (!e.has_key) {
          e.has_key = true;
          jobs.emplace_back(&e.query, &e.key);
        }
      }
    }
    ParallelFor(jobs.size(), threads_, [&](size_t j) {
      *jobs[j].second = hgmatch::CanonicalQueryKey(*jobs[j].first).key;
    });
    std::vector<bool> accepted(batch.size(), false);
    for (size_t i = 0; i < batch.size(); ++i) {
      std::vector<Entry>& bucket = buckets_[invariant[i]];
      bool duplicate = false;
      for (const Entry& e : bucket) duplicate = duplicate || e.key == keys[i];
      if (keyed[i] && duplicate) continue;
      bucket.push_back(Entry{batch[i]->Clone(), keys[i], keyed[i]});
      accepted[i] = true;
    }
    return accepted;
  }

 private:
  struct Entry {
    Hypergraph query;
    std::string key;
    bool has_key = false;
  };
  uint32_t threads_;
  std::unordered_map<std::string, std::vector<Entry>> buckets_;
};

// Draws `count` distinct queries of the classes in `classes` in equal
// shares, interleaved round robin, from deterministic sample batches.
// `accept` filters candidates beyond distinctness.
template <typename Accept>
std::vector<Query> DistinctQueries(
    const Hypergraph& data, const std::vector<hgmatch::QuerySettings>& classes,
    size_t count, uint64_t seed, Deduper* dedup, Accept accept) {
  const size_t per_class = (count + classes.size() - 1) / classes.size();
  std::vector<std::vector<Query>> by_class(classes.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    for (uint64_t round = 0; by_class[c].size() < per_class && round < 64;
         ++round) {
      std::vector<Hypergraph> batch = hgmatch::SampleQueries(
          data, classes[c], std::max<size_t>(64, per_class), Mix(seed, c * 1000 + round));
      if (batch.empty()) break;
      std::vector<Hypergraph*> candidates;
      for (Hypergraph& q : batch) {
        if (accept(q)) candidates.push_back(&q);
      }
      const std::vector<bool> keep = dedup->InsertBatch(candidates);
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (keep[i] && by_class[c].size() < per_class) {
          by_class[c].push_back(
              Query{std::move(*candidates[i]), classes[c].name, -1, 0, false});
        }
      }
    }
  }
  std::vector<Query> out;
  for (size_t k = 0; k < per_class; ++k) {
    for (size_t c = 0; c < classes.size() && out.size() < count; ++c) {
      if (k < by_class[c].size()) out.push_back(std::move(by_class[c][k]));
    }
  }
  return out;
}

std::string MakeGraph(const Config& config, const std::string& profile,
                      Inputs* inputs) {
  const hgmatch::DatasetProfile* p = hgmatch::FindDatasetProfile(profile);
  if (p == nullptr) return "unknown profile " + profile;
  // The graph comes from the profile's own generator seed; --seed drives
  // the query streams. Seeding the graph too would make per-query
  // embedding counts a property of the draw (MA means range 1.1-3.5 across
  // graph seeds), not of the code under test.
  Hypergraph g = p->Generate(1.0);
  DataGraph out;
  out.name = profile;
  const std::filesystem::path dir =
      std::filesystem::path(config.out_dir) / "data";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  out.path = (dir / (profile + "-" + std::to_string(config.seed) + ".hgb"))
                 .string();
  hgmatch::Status s = hgmatch::SaveHypergraphBinary(g, out.path);
  if (!s.ok()) return "cannot write " + out.path + ": " + s.ToString();
  out.vertices = g.NumVertices();
  out.edges = g.NumEdges();
  out.incidences = g.NumIncidences();
  out.reference = hgmatch::IndexedHypergraph::Build(std::move(g));
  out.index_bytes = out.reference.IndexBytes();
  inputs->graphs.push_back(std::move(out));
  return "";
}

}  // namespace

std::string MakeInputs(const Config& config, size_t heavy_count,
                       size_t light_count, Inputs* inputs) {
  const bool heavy = config.workload != "lookup";
  const bool light = config.workload != "enum";
  if (heavy) {
    if (std::string e = MakeGraph(config, "SB", inputs); !e.empty()) return e;
  }
  if (light) {
    if (std::string e = MakeGraph(config, "MA", inputs); !e.empty()) return e;
  }
  auto any = [](const Hypergraph&) { return true; };
  if (heavy) {
    Deduper dedup(config.threads);
    Stream s;
    s.graph = 0;
    s.heavy = true;
    s.queries = DistinctQueries(inputs->graphs[0].reference.graph(),
                                {hgmatch::kQ2}, heavy_count,
                                Mix(config.seed, 11), &dedup, any);
    if (s.queries.size() < heavy_count) return "too few distinct SB queries";
    inputs->streams.push_back(std::move(s));
  }
  if (light) {
    const uint32_t g = heavy ? 1 : 0;
    const Hypergraph& data = inputs->graphs[g].reference.graph();
    const std::vector<hgmatch::QuerySettings> classes = {
        hgmatch::kQ2, hgmatch::kQ3, hgmatch::kQ4, hgmatch::kQ6};
    Deduper dedup(config.threads);
    Stream s;
    s.graph = g;
    if (config.workload == "mixed") {
      // Repeated shapes must take the isomorphic-hit path, so they need a
      // canonical (not exact-fallback) key.
      inputs->shape_graph = g;
      inputs->shape_pool = DistinctQueries(
          data, {hgmatch::kQ2, hgmatch::kQ3, hgmatch::kQ4}, config.shapes,
          Mix(config.seed, 23), &dedup, [](const Hypergraph& q) {
            return hgmatch::CanonicalQueryKey(q).isomorphism_invariant;
          });
      if (inputs->shape_pool.size() < config.shapes) return "too few shapes";
      for (size_t i = 0; i < inputs->shape_pool.size(); ++i) {
        inputs->shape_pool[i].shape = static_cast<int>(i);
      }
    }
    hgmatch::Rng rng(Mix(config.seed, 31));
    std::vector<bool> repeat(light_count, false);
    size_t distinct = light_count;
    if (!inputs->shape_pool.empty()) {
      for (size_t i = 0; i < light_count; ++i) {
        repeat[i] = rng.NextBernoulli(config.repeat_share);
        distinct -= repeat[i] ? 1 : 0;
      }
    }
    std::vector<Query> fresh = DistinctQueries(
        data, classes, distinct, Mix(config.seed, 17), &dedup, any);
    if (fresh.size() < distinct) return "too few distinct MA queries";
    size_t next = 0;
    for (size_t i = 0; i < light_count; ++i) {
      if (!repeat[i]) {
        s.queries.push_back(std::move(fresh[next++]));
        continue;
      }
      const size_t k = rng.NextBounded(inputs->shape_pool.size());
      const Query& shape = inputs->shape_pool[k];
      s.queries.push_back(Query{RenamedCopy(shape.graph, rng.Next64()),
                                shape.cls, static_cast<int>(k), 0, false});
    }
    inputs->streams.push_back(std::move(s));
  }
  return "";
}

void ComputeExpected(Inputs* inputs, const std::vector<size_t>& used,
                     uint32_t threads) {
  struct Job {
    const hgmatch::IndexedHypergraph* data;
    Query* query;
  };
  std::vector<Job> jobs;
  for (Query& q : inputs->shape_pool) {
    if (!q.has_expected) {
      jobs.push_back({&inputs->graphs[inputs->shape_graph].reference, &q});
    }
  }
  for (size_t s = 0; s < inputs->streams.size(); ++s) {
    Stream& stream = inputs->streams[s];
    const size_t n = std::min(used[s], stream.queries.size());
    for (size_t i = 0; i < n; ++i) {
      Query& q = stream.queries[i];
      if (q.shape < 0 && !q.has_expected) {
        jobs.push_back({&inputs->graphs[stream.graph].reference, &q});
      }
    }
  }
  ParallelFor(jobs.size(), threads, [&](size_t j) {
    auto r = hgmatch::MatchSequential(*jobs[j].data, jobs[j].query->graph);
    if (r.ok()) {
      jobs[j].query->expected = r.value().embeddings;
      jobs[j].query->has_expected = true;
    }
  });
  for (Stream& stream : inputs->streams) {
    for (Query& q : stream.queries) {
      if (q.shape >= 0) {
        const Query& shape = inputs->shape_pool[q.shape];
        q.expected = shape.expected;
        q.has_expected = shape.has_expected;
      }
    }
  }
}

}  // namespace perfbench
