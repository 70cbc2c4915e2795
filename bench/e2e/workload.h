// Shared pieces of the end-to-end workloads. Every workload runs the whole
// PriView lifecycle — choose views, build a release, persist it durably,
// host it behind the query server, answer analysts over the wire — and
// differs only in which part is put under load and timed:
//
//   publish-kosarak  back-to-back releases (design + count + noise +
//                    consistency), then the release is stored and served
//   serve-hot        open-loop analyst traffic whose working set fits the
//                    engine cache (transport, codec, broker)
//   serve-cold       open-loop analyst traffic 64x the cache (solver)
//   stream-rollover  epoch rollovers beside open-loop reads (recount,
//                    build, fsync, install, cache reset)
//
// So every per-layer metric is measured on every workload: a layer a
// workload barely touches reports the little work it did.
#ifndef PRIVIEW_BENCH_E2E_WORKLOAD_H_
#define PRIVIEW_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/query_engine.h"
#include "core/synopsis.h"
#include "counting_env.h"
#include "scrape.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/synopsis_store.h"
#include "table/attr_set.h"
#include "table/dataset.h"

namespace priview::e2e {

/// Seed of the release's own randomness — view selection and noise — and
/// of the accuracy protocol's fixed query set. --seed varies the workload's
/// inputs (the data and the traffic); the mechanism's coins stay fixed, as
/// they would for a curator re-running a release, so run-to-run spread
/// measures the system rather than which covering design the greedy
/// search happened to find.
inline constexpr uint64_t kMechanismSeed = 20140622;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and sockets, inside the checkout;
  /// relative, so the socket path stays short.
  std::string run_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  /// One line per failed correctness check; empty means correct.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The contract metrics: every workload reports the same names.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed and recorded, but not part of the comparison contract.
  std::vector<Metric> detail;
  double generator_lag_p99_ms = 0.0;
  std::string store_fs;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

WorkloadResult RunPublish(const RunConfig& config);
WorkloadResult RunServe(const RunConfig& config, bool hot);
WorkloadResult RunStream(const RunConfig& config);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

double NowSeconds();
double PeakRssMb();
/// FNV-1a-64 over every view's scope mask and cell bit patterns.
uint64_t SynopsisDigest(const PriViewSynopsis& synopsis);
/// "ext4", "tmpfs", ... for the filesystem holding `path`.
std::string FilesystemType(const std::string& path);
/// Distinct random targets of `k_min`..`k_max` attributes out of d.
std::vector<AttrSet> RandomTargets(int d, int k_min, int k_max, size_t count,
                                   Rng* rng);

/// Draws indices into a list of n targets, with Zipf(1.0) popularity (rank
/// r has weight 1/r) or uniformly.
class Popularity {
 public:
  Popularity(size_t n, bool zipf);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// The end-to-end accuracy metric, answer_l2_error: the paper's protocol —
/// the median normalized L2 error over 200 fixed 4-way marginals
/// reconstructed from `synopsis`, against exact counts over `data`.
void AddAccuracyMetric(const PriViewSynopsis& synopsis, const Dataset& data,
                       WorkloadResult* out);
/// latency_p50_ms and latency_tail_ms of latencies in the order they were
/// due: the median, and the highest of p50/p90/p99 with at least ten
/// samples beyond it, taken as the median over up to ten stretches of the
/// run (stats.h ChunkedTail) so one stall does not decide it. Too small a
/// sample fails the run rather than report an unsupported percentile.
void AddLatencyMetrics(const std::vector<double>& in_time_order_ms,
                       WorkloadResult* out);
/// Generator lag p99, in the same stretch-wise way as the latency tail.
double LagP99Ms(const std::vector<double>& in_time_order_ms);
void AddEndToEnd(WorkloadResult* out, const std::string& name, double value,
                 const std::string& unit);
void AddPerLayer(WorkloadResult* out, const std::string& name, double value,
                 const std::string& unit);
void AddDetail(WorkloadResult* out, const std::string& name, double value,
               const std::string& unit);

/// Arms the program's own tracer for the traced run (spans the library
/// already records) and disarms it again.
class TracingScope {
 public:
  explicit TracingScope(bool armed);
  ~TracingScope();
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;

 private:
  bool armed_;
};

/// The process-wide registry scrape (publish spans, query path, solver).
Scrape ScrapeGlobal();
/// Sum, in milliseconds, of the `span` durations in a scrape (delta).
double SpanMs(const Scrape& scrape, const std::string& span);

/// Build-path layer times of `builds` synopsis builds, from the span
/// deltas they left: the publish span and its counting, noise, ripple and
/// consistency children.
void AddBuildLayers(const Scrape& spans, double builds, WorkloadResult* out);

// ---------------------------------------------------------------------------
// Analyst reads, shared by every workload's serving phase.

struct ReadOp {
  enum class Kind { kMarginal, kConjunction, kSeries };
  Kind kind = Kind::kMarginal;
  AttrSet target;
  uint64_t assignment = 0;  // conjunction cell
  uint32_t last_n = 0;      // series depth
};

/// Sends one read and checks the answer's shape: OK status, full tier, a
/// table of 2^k finite cells (or a finite value), and for series at most
/// last_n points, newest first. `min_epoch` > 0 also requires the answer's
/// epoch to be at least that.
bool IssueRead(serve::PriViewClient* client, const std::string& name,
               const ReadOp& op, uint64_t min_epoch = 0);

/// A durable store (through a CountingEnv) plus an in-process query server
/// on a Unix socket, both under one scratch directory.
class ReleaseHost {
 public:
  ReleaseHost(const std::string& dir, int retention_depth,
              size_t history_depth);
  ~ReleaseHost();
  ReleaseHost(const ReleaseHost&) = delete;
  ReleaseHost& operator=(const ReleaseHost&) = delete;

  /// Opens the store and starts the server.
  Status Start();
  /// Persists `synopsis` under `name`, then hot-swaps it into the server
  /// at the store's durable seq — the publisher's steps 4 and 5.
  Status Publish(const std::string& name, const PriViewSynopsis& synopsis);
  StatusOr<serve::PriViewClient> Connect() const;

  store::SynopsisStore& store() { return *store_; }
  serve::PriViewServer& server() { return *server_; }
  const CountingEnv& env() const { return env_; }
  const std::string& dir() const { return dir_; }
  /// Seconds spent in the last Publish's store install and registry swap.
  double last_persist_s() const { return last_persist_s_; }
  double last_install_s() const { return last_install_s_; }
  /// The server's own registry and the process-wide one, as one scrape.
  Scrape ScrapeAll();

 private:
  std::string dir_;
  CountingEnv env_;
  std::unique_ptr<store::SynopsisStore> store_;
  std::unique_ptr<serve::PriViewServer> server_;
  double last_persist_s_ = 0.0;
  double last_install_s_ = 0.0;
};

/// Store write costs per install, from the CountingEnv deltas of
/// `installs` installs of `synopsis`-sized releases.
void AddStoreLayers(const CountingEnv::Counts& before,
                    const CountingEnv::Counts& after, double installs,
                    const PriViewSynopsis& synopsis, double persist_ms,
                    double install_ms, WorkloadResult* out);

/// The probe check every workload runs before its serving phase: each
/// target is asked over the wire, one at a time, and must equal — bit for
/// bit — QueryEngine::TryMarginal called in the same order on a fresh
/// engine with the registry's cache configuration, at tier full and the
/// registry's epoch. `name` must have been installed with an empty cache.
/// Returns the median wire round trip, in milliseconds.
double CheckWireEqualsLibrary(ReleaseHost* host, const std::string& name,
                              const PriViewSynopsis& synopsis,
                              const std::vector<AttrSet>& targets,
                              WorkloadResult* out);

/// Per-layer read path, measured on an unloaded server: `releases` (oldest
/// first) are installed under a fresh name so every engine cache starts
/// empty, then `ops` are sent one at a time over one connection with the
/// tracer armed. Client round trip splits, by the server's own histograms,
/// into transport (wire, socket, event loop, handler hand-off), broker
/// queue wait, engine (coalescing, cache, projection) and solver time.
/// Also times the wire codec on these payloads and reads the solver
/// diagnostics of the distinct targets. Returns the unloaded RTT median.
double AddReadLayers(ReleaseHost* host,
                     const std::vector<const PriViewSynopsis*>& releases,
                     const std::vector<ReadOp>& ops, WorkloadResult* out);

/// Loaded-phase serving metrics from a scrape delta over the phase:
/// cache hit rate, coalescing, degraded answers, broker queue wait and
/// dispatch (means, plus bucket upper bounds for the p99s).
void AddLoadedServeLayers(const Scrape& delta, double queueing_ms,
                          WorkloadResult* out);

}  // namespace priview::e2e

#endif  // PRIVIEW_BENCH_E2E_WORKLOAD_H_
