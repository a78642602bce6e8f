#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/async_client.h"
#include "net/server.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

/// One client request as the load generator saw it. Times are
/// hgmatch::MonotonicSeconds(), the clock the server's QuerySpan stamps
/// use, so client and server times of one request compare directly.
struct Record {
  uint32_t stream = 0;
  uint32_t query = 0;
  double due = 0;   // when the schedule wanted it sent
  double sent = 0;  // when Submit was called
  double recv = 0;  // when its outcome callback ran
  bool done = false;
  bool transport_ok = false;
  hgmatch::QueryOutcome outcome;

  double LatencySeconds() const { return recv - due; }
};

/// Thread-safe store of every request of a run.
class Recorder {
 public:
  size_t Begin(uint32_t stream, uint32_t query, double due, double sent);
  void Finish(size_t slot, const hgmatch::AsyncOutcome& outcome);
  /// Submit failed: the request is done and not ok.
  void Abort(size_t slot);
  size_t Outstanding();
  /// Waits until nothing is outstanding; false on timeout.
  bool WaitIdle(double timeout_seconds);
  bool WaitDone(size_t slot, double timeout_seconds);
  std::vector<Record> Snapshot();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Record> records_;
  size_t outstanding_ = 0;
};

/// A MatchServer on loopback hosting the workload's graphs, with its
/// catalog-negotiated client connections.
class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  hgmatch::AsyncMatchClient& client(size_t i) { return *clients_[i]; }
  size_t num_clients() const { return clients_.size(); }

 private:
  friend std::string Deploy(const Inputs&, const Config&, bool,
                            std::unique_ptr<Deployment>*, double*, double*);
  std::unique_ptr<hgmatch::MatchServer> server_;
  std::vector<std::unique_ptr<hgmatch::AsyncMatchClient>> clients_;
};

/// The timed set-up: load every .hgb (io), build the server (its catalog
/// indexes each graph), start it and connect the clients: one on `enum`,
/// two otherwise (the lookup stream's pair on `lookup`; heavy and lookup
/// stream on `mixed`). Sets *setup_seconds to the whole and *load_seconds
/// to the io part.
std::string Deploy(const Inputs& inputs, const Config& config, bool trace,
                   std::unique_ptr<Deployment>* out, double* setup_seconds,
                   double* load_seconds);

/// Sends one request of stream `stream_id` (its query `index`) and returns
/// its slot; the outcome lands in `recorder` from the client's reader.
size_t Send(hgmatch::AsyncMatchClient& client, const std::string& graph,
            const Query& q, uint32_t stream_id, uint32_t index, double due,
            Recorder* recorder);

/// One open-loop step: requests due at start + k / rate, spread over the
/// stream's connections round robin, each sent by its connection's own
/// thread at its due time. The backlog (requests outstanding) is sampled
/// every 5 ms; `growing` reports whether its mean over the step's second
/// half exceeds the first half's by more than max(10, 10% of the step's
/// requests); heavy-tailed service times make smaller swings ordinary.
struct OpenStep {
  double rate = 0;
  double start = 0;
  std::vector<size_t> slots;
  double backlog_first = 0;
  double backlog_second = 0;
  bool growing = false;
};

/// A rung of the `lookup` rate ladder, judged once its requests drained.
struct Rung {
  OpenStep step;
  double tail_ms = 0;   // latency at Config::tail_pct
  double served = 0;    // requests / (last completion - first due)
  bool passed = false;  // tail within the limit, no growing backlog,
                        // every request ok
};

/// The load of one workload on a deployment, tracing off or on as the
/// deployment negotiated:
///   enum    closed loop on connection 0 for `seconds`;
///   lookup  open loop over both connections: `ladder` false runs the
///           reference rate for `seconds`; true runs the ladder upward from
///           the reference rung (dwelling ref_share of the window there,
///           step_seconds on each higher rung) and stops at the first rung
///           that fails or when the window is used up;
///   mixed   closed loop on connection 0 beside an open loop at
///           mixed_rate on connection 1, for `seconds`.
/// A short closed-loop warm-up precedes the window and is not measured.
struct LoadRun {
  std::vector<Record> records;
  std::vector<size_t> warmup;  // slots of warm-up requests
  std::vector<size_t> heavy;   // measured closed-loop slots
  double heavy_window = 0;     // seconds from first send to last reply
  OpenStep light;              // measured open loop at the reference rate
  double light_window = 0;
  std::vector<Rung> rungs;     // lookup ladder, reference rung first
  std::vector<size_t> used;    // queries consumed per stream
  bool exhausted = false;      // a stream ran out of queries early
};
LoadRun RunLoad(Deployment& deployment, const Inputs& inputs,
                const Config& config, double seconds, bool ladder);

/// True iff the request completed ok with the reference count.
bool RecordOk(const Record& r, const Inputs& inputs);

/// The end-to-end metrics of an untraced run (see BENCHMARK.json):
/// setup_s, latency_p50_ms, latency_tail_ms, queries_per_s,
/// max_qps_at_slo, peak_rss_mb. Needs the reference counts. Latency is
/// the heavy stream's on `enum` and the lookup stream's (at the reference
/// rate on `lookup`) otherwise. *embeddings_per_s gets the embeddings
/// counted per second by the heavy stream (the lookups on `lookup`, where
/// the offered rate fixes it and it is reported, not gated).
std::vector<Metric> EndToEndMetrics(const LoadRun& run, const Inputs& inputs,
                                    const Config& config, double setup_s,
                                    double* embeddings_per_s);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
