// serve-hot and serve-cold: the analysts' side. One in-process query server
// on a Unix socket hosts the AOL-like t=2 release (d = 45, N = 647,377,
// w = 51 views) with the default engine cache (64 tables), and four
// generator threads query it: first open loop at a fixed Poisson rate,
// then closed loop for the capacity. 80% of requests are marginals, 20%
// conjunction counts.
//
//   serve-hot   48 targets of 2..6 attributes under Zipf(1.0) popularity:
//               the working set fits the cache, so transport, wire codec,
//               broker and cache lookup dominate and the solvers idle.
//   serve-cold  4,096 distinct targets of 8..10 attributes, uniform: 64x
//               the cache, so nearly every request runs the solver chain.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "data/synthetic.h"
#include "design/covering_design.h"
#include "loadgen.h"
#include "stats.h"
#include "workload.h"

namespace priview::e2e {

namespace {

constexpr size_t kRecords = 647377;
constexpr int kD = 45;
constexpr int kSetups = 9;
constexpr int kThreads = 4;
constexpr size_t kProbes = 200;
// Share of the run spent open loop; the rest measures closed-loop capacity,
// as the rate of the median kWindowS window.
constexpr double kOpenShare = 0.6;
constexpr double kWindowS = 1.0;
constexpr char kName[] = "aol";

struct TrafficShape {
  size_t targets;
  int k_min;
  int k_max;
  bool zipf;
  double rate_per_s;        // open-loop rate, all threads together
  double latency_limit_ms;  // goodput counts answers within this
  size_t replay_ops;        // traced unloaded replay length
};

constexpr TrafficShape kHot{48, 2, 6, true, 10000.0, 2.0, 1000};
constexpr TrafficShape kCold{4096, 8, 10, false, 40.0, 50.0, 200};

ReadOp DrawOp(const std::vector<AttrSet>& targets,
              const Popularity& popularity, Rng* rng) {
  ReadOp op;
  op.target = targets[popularity.Draw(rng)];
  if (rng->UniformDouble() < 0.2) {
    op.kind = ReadOp::Kind::kConjunction;
    op.assignment = rng->UniformInt(uint64_t{1} << op.target.size());
  }
  return op;
}

}  // namespace

WorkloadResult RunServe(const RunConfig& config, bool hot) {
  WorkloadResult out;
  const TrafficShape& shape = hot ? kHot : kCold;
  TracingScope tracing(config.trace);

  // The traffic, from the seed alone.
  Rng traffic_rng(config.seed ^ 0x7aff1cULL);
  const std::vector<AttrSet> targets =
      RandomTargets(kD, shape.k_min, shape.k_max, shape.targets, &traffic_rng);
  const Popularity popularity(targets.size(), shape.zipf);
  const double open_s = kOpenShare * config.seconds;
  const double closed_s = config.seconds - open_s;
  std::vector<ReadOp> ops;
  std::vector<GeneratorPlan> plans(kThreads);
  std::vector<std::vector<uint32_t>> closed_ops(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng op_rng(config.seed * 31 + t);
    for (double due : PoissonSchedule(shape.rate_per_s / kThreads, open_s,
                                      config.seed * 131 + t)) {
      plans[t].arrivals.push_back({due, static_cast<uint32_t>(ops.size())});
      ops.push_back(DrawOp(targets, popularity, &op_rng));
    }
    for (int i = 0; i < 4096; ++i) {
      closed_ops[t].push_back(static_cast<uint32_t>(ops.size()));
      ops.push_back(DrawOp(targets, popularity, &op_rng));
    }
  }
  std::vector<AttrSet> probes;
  Rng probe_rng(config.seed ^ 0x9b0be5ULL);
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(targets[popularity.Draw(&probe_rng)]);
  }

  Rng data_rng(config.seed);
  const Dataset data = MakeAolLike(&data_rng, kRecords);

  // Set-up: view selection (the t=2 covering design), release build,
  // durable persist, server start and hosting, connections.
  std::unique_ptr<PriViewSynopsis> synopsis;
  std::unique_ptr<ReleaseHost> host;
  std::vector<serve::PriViewClient> clients;
  std::vector<double> setup_s, design_ms, build_ms, persist_ms, install_ms;
  const Scrape spans_before = ScrapeGlobal();
  for (int rep = 0; rep < kSetups; ++rep) {
    clients.clear();
    host.reset();
    const double t0 = NowSeconds();
    Rng design_rng(kMechanismSeed);
    const CoveringDesign design = MakeCoveringDesign(kD, 8, 2, &design_rng);
    design_ms.push_back((NowSeconds() - t0) * 1000.0);
    Rng noise_rng(kMechanismSeed + 1);
    PriViewOptions build_options;
    StatusOr<PriViewSynopsis> built = PriViewSynopsis::TryBuild(
        data, design.blocks, build_options, &noise_rng);
    if (!built.ok()) {
      out.Check(false, "release build failed: " + built.status().ToString());
      return out;
    }
    synopsis = std::make_unique<PriViewSynopsis>(std::move(built).value());
    build_ms.push_back((NowSeconds() - t0) * 1000.0);
    host = std::make_unique<ReleaseHost>(
        config.run_dir + "/serve-" + std::to_string(rep),
        /*retention_depth=*/1, /*history_depth=*/1);
    out.Check(host->Start().ok(), "store open or server start failed");
    out.Check(host->Publish(kName, *synopsis).ok(),
              "persist or install failed");
    persist_ms.push_back(host->last_persist_s() * 1000.0);
    install_ms.push_back(host->last_install_s() * 1000.0);
    for (int t = 0; t < kThreads; ++t) {
      StatusOr<serve::PriViewClient> client = host->Connect();
      if (!client.ok()) {
        out.Check(false, "connect failed");
        return out;
      }
      clients.push_back(std::move(client).value());
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  const Scrape setup_spans = ScrapeGlobal().Minus(spans_before);
  AddEndToEnd(&out, "setup_s", Median(setup_s), "s");
  const uint64_t epoch = host->store().last_durable_seq();

  // Untimed: wire == library on a cold cache, then (hot) warm the cache.
  CheckWireEqualsLibrary(host.get(), kName, *synopsis, probes, &out);
  if (hot) {
    for (const AttrSet& target : targets) {
      out.Check(
          IssueRead(&clients[0], kName, {ReadOp::Kind::kMarginal, target}),
          "cache warm-up read failed");
    }
  }

  // Timed: open loop at the fixed rate, then closed loop.
  for (int t = 0; t < kThreads; ++t) {
    plans[t].issue = [&, t](uint32_t op) {
      return IssueRead(&clients[t], kName, ops[op], epoch);
    };
  }
  const Scrape open_before = host->ScrapeAll();
  std::vector<RequestRecord> records = RunOpenLoop(plans);
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.due_s < b.due_s;
            });
  const Scrape open_delta = host->ScrapeAll().Minus(open_before);
  std::vector<IssueFn> issuers;
  for (const GeneratorPlan& plan : plans) issuers.push_back(plan.issue);
  const ClosedLoopResult closed = RunClosedLoop(issuers, closed_ops, closed_s);

  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  size_t within_limit = 0;
  for (const RequestRecord& r : records) {
    lag_ms.push_back(r.lag_s * 1000.0);
    if (!r.ok) continue;
    latency_ms.push_back((r.done_s - r.due_s) * 1000.0);
    if (latency_ms.back() <= shape.latency_limit_ms) ++within_limit;
  }
  out.attempted = records.size() + closed.done_s.size() + closed.failed;
  out.failed = (records.size() - latency_ms.size()) + closed.failed;
  out.Check(out.failed == 0,
            std::to_string(out.failed) + " requests failed or were rejected");
  const double latency_p50 = Median(latency_ms);
  AddLatencyMetrics(latency_ms, &out);
  AddEndToEnd(&out, "capacity_per_s",
              MedianWindowRate(closed.done_s, 0.0, closed_s, kWindowS), "1/s");
  AddAccuracyMetric(*synopsis, data, &out);
  AddEndToEnd(&out, "peak_rss_mb", PeakRssMb(), "MB");
  out.generator_lag_p99_ms = LagP99Ms(lag_ms);
  AddDetail(&out, "offered_rps", static_cast<double>(records.size()) / open_s,
            "1/s");
  AddDetail(&out, "goodput_rps", static_cast<double>(within_limit) / open_s,
            "1/s");
  AddDetail(&out, "goodput_limit_ms", shape.latency_limit_ms, "ms");
  out.store_fs = FilesystemType(host->dir());
  if (!config.trace) return out;

  // Traced: the set-up's write path (three builds), then the read path.
  const double design_median_ms = Median(design_ms);
  AddPerLayer(&out, "design.select_ms", design_median_ms, "ms");
  AddPerLayer(&out, "design.blocks_kept_ratio", 1.0, "ratio");
  AddPerLayer(&out, "table.count_ms",
              SpanMs(setup_spans, "publish/count") / kSetups, "ms");
  AddPerLayer(&out, "table.views_counted_ratio", 1.0, "ratio");
  AddBuildLayers(setup_spans, kSetups, &out);
  // View selection plus the build, less the two layers' own time: what the
  // release step does that neither layer accounts for.
  const double build_mean_ms = Mean(build_ms);
  const double gap_ms = build_mean_ms - Mean(design_ms) -
                        SpanMs(setup_spans, "publish") / kSetups;
  out.Check(std::abs(gap_ms) <= 0.02 * build_mean_ms,
            "traced run: release build not explained by its layers (gap " +
                std::to_string(gap_ms) + " ms)");
  AddPerLayer(&out, "write.gap_ms", gap_ms, "ms");
  AddStoreLayers(CountingEnv::Counts{}, host->env().counts(), 1.0, *synopsis,
                 Median(persist_ms), Median(install_ms), &out);
  const std::vector<ReadOp> replay(
      ops.begin(), ops.begin() + std::min(shape.replay_ops, ops.size()));
  const double rtt_p50_ms =
      AddReadLayers(host.get(), {synopsis.get()}, replay, &out);
  AddLoadedServeLayers(open_delta, latency_p50 - rtt_p50_ms, &out);
  return out;
}

}  // namespace priview::e2e
