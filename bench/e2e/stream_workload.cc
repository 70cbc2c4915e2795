// stream-rollover: writes beside reads. A StreamPublisher over the w=51
// AOL-like views keeps a sliding window of 10 batches of 20,000 records and
// publishes epochs into a durable SynopsisStore (retention 4) and the
// server's registry (history depth 4): one every 50 ms for the first part
// of the run, whose rollover times are the latency, then back to back for
// the capacity. Three reader threads query throughout, open loop at 2,000
// requests/s: 80% marginals of hot targets, 20% Series(last_n = 4). Every
// install starts a fresh engine, so reads after a rollover miss the cache.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "data/synthetic.h"
#include "design/covering_design.h"
#include "loadgen.h"
#include "stats.h"
#include "stream/stream_publisher.h"
#include "workload.h"

namespace priview::e2e {

namespace {

constexpr int kD = 45;
constexpr int kSetups = 9;
constexpr size_t kBatchRecords = 20000;
constexpr size_t kBatches = 32;  // cycled through; the window holds 10
constexpr int kWindowBatches = 10;
constexpr int kReaders = 3;
constexpr double kReadRate = 2000.0;
constexpr size_t kHotTargets = 48;
constexpr uint32_t kSeriesDepth = 4;
constexpr double kEpochPeriodS = 0.05;
constexpr double kPacedShare = 0.6;
constexpr size_t kProbes = 200;
constexpr size_t kReplayOps = 500;
constexpr char kName[] = "clicks";

struct Epoch {
  stream::EpochReport report;
  double wall_ms = 0.0;  // PublishEpoch as the caller sees it
  double done_s = 0.0;   // completion, seconds from the start of the run
};

}  // namespace

WorkloadResult RunStream(const RunConfig& config) {
  WorkloadResult out;
  TracingScope tracing(config.trace);

  // Reads, from the seed alone.
  Rng traffic_rng(config.seed ^ 0x57ea4ULL);
  const std::vector<AttrSet> targets =
      RandomTargets(kD, 2, 6, kHotTargets, &traffic_rng);
  const Popularity popularity(targets.size(), /*zipf=*/true);
  std::vector<ReadOp> ops;
  std::vector<GeneratorPlan> plans(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    Rng op_rng(config.seed * 37 + t);
    for (double due : PoissonSchedule(kReadRate / kReaders, config.seconds,
                                      config.seed * 137 + t)) {
      ReadOp op;
      op.target = targets[popularity.Draw(&op_rng)];
      if (op_rng.UniformDouble() < 0.2) {
        op.kind = ReadOp::Kind::kSeries;
        op.last_n = kSeriesDepth;
      }
      plans[t].arrivals.push_back({due, static_cast<uint32_t>(ops.size())});
      ops.push_back(op);
    }
  }
  std::vector<AttrSet> probes;
  Rng probe_rng(config.seed ^ 0x9b0be5ULL);
  for (size_t i = 0; i < kProbes; ++i) {
    probes.push_back(targets[popularity.Draw(&probe_rng)]);
  }

  // The records, in batches.
  std::vector<std::vector<uint64_t>> batches(kBatches);
  {
    Rng data_rng(config.seed);
    const Dataset data = MakeAolLike(&data_rng, kBatchRecords * kBatches);
    for (size_t i = 0; i < data.size(); ++i) {
      batches[i / kBatchRecords].push_back(data.records()[i]);
    }
  }

  // Set-up: the views, a fresh store and server, and a window filled by
  // kWindowBatches epochs.
  std::unique_ptr<ReleaseHost> host;
  std::unique_ptr<Rng> publish_rng;
  std::unique_ptr<stream::StreamPublisher> publisher;
  std::vector<serve::PriViewClient> clients;
  std::vector<double> setup_s, design_ms;
  size_t next_batch = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    clients.clear();
    publisher.reset();
    host.reset();
    const double t0 = NowSeconds();
    Rng design_rng(kMechanismSeed);
    stream::StreamOptions options;
    options.views = MakeCoveringDesign(kD, 8, 2, &design_rng).blocks;
    design_ms.push_back((NowSeconds() - t0) * 1000.0);
    host = std::make_unique<ReleaseHost>(
        config.run_dir + "/stream-" + std::to_string(rep),
        /*retention_depth=*/4, /*history_depth=*/kSeriesDepth);
    out.Check(host->Start().ok(), "store open or server start failed");
    options.name = kName;
    options.d = kD;
    options.mode = WindowMode::kSliding;
    options.window_batches = kWindowBatches;
    // ε = 1 per epoch; the total only has to outlast the run.
    options.epoch_epsilon = 1.0;
    options.total_epsilon = 1e6;
    publish_rng = std::make_unique<Rng>(kMechanismSeed + 1);
    StatusOr<stream::StreamPublisher> created = stream::StreamPublisher::Create(
        options, &host->store(), &host->server().registry(), publish_rng.get());
    if (!created.ok()) {
      out.Check(false, "publisher: " + created.status().ToString());
      return out;
    }
    publisher =
        std::make_unique<stream::StreamPublisher>(std::move(created).value());
    next_batch = 0;
    for (int i = 0; i < kWindowBatches; ++i) {
      out.Check(publisher->Ingest(batches[next_batch++ % kBatches]).ok() &&
                    publisher->PublishEpoch().ok(),
                "window fill epoch failed");
    }
    for (int t = 0; t < kReaders; ++t) {
      StatusOr<serve::PriViewClient> client = host->Connect();
      if (!client.ok()) {
        out.Check(false, "connect failed");
        return out;
      }
      clients.push_back(std::move(client).value());
    }
    setup_s.push_back(NowSeconds() - t0);
  }
  AddEndToEnd(&out, "setup_s", Median(setup_s), "s");

  // Untimed, on the first full window's release, which depends on the
  // seed alone: wire == library on its empty cache, and its accuracy.
  {
    StatusOr<std::shared_ptr<const serve::HostedSynopsis>> hosted =
        host->server().registry().Acquire(kName);
    if (!hosted.ok()) {
      out.Check(false, "stream release not hosted");
      return out;
    }
    CheckWireEqualsLibrary(host.get(), kName, hosted.value()->synopsis(),
                           probes, &out);
    AddAccuracyMetric(hosted.value()->synopsis(),
                      publisher->window().WindowDataset(), &out);
  }

  // Timed: the publisher paces epochs, then runs them back to back, while
  // the readers follow their schedules for the whole run.
  const double paced_s = kPacedShare * config.seconds;
  const uint64_t first_epoch = host->store().last_durable_seq();
  std::vector<Epoch> paced;
  std::vector<Epoch> back_to_back;
  uint64_t last_epoch = first_epoch;
  std::atomic<bool> epochs_ok{true};
  const CountingEnv::Counts store_before = host->env().counts();
  CountingEnv::Counts store_after;
  const Scrape paced_before = host->ScrapeAll();
  Scrape paced_delta;
  std::thread writer([&] {
    const double origin_s = NowSeconds();
    const auto publish = [&](std::vector<Epoch>* into) {
      if (!publisher->Ingest(batches[next_batch++ % kBatches]).ok()) {
        return false;
      }
      const double t0 = NowSeconds();
      StatusOr<stream::EpochReport> report = publisher->PublishEpoch();
      const double t1 = NowSeconds();
      if (!report.ok()) return false;
      // Epochs strictly increase and are exactly the store's durable seq.
      if (report.value().epoch <= last_epoch ||
          report.value().epoch != host->store().last_durable_seq()) {
        return false;
      }
      last_epoch = report.value().epoch;
      into->push_back({report.value(), (t1 - t0) * 1000.0, t1 - origin_s});
      return true;
    };
    const auto at = [origin = std::chrono::steady_clock::now()](double s) {
      return origin + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(s));
    };
    for (int k = 0; (k + 1) * kEpochPeriodS <= paced_s; ++k) {
      std::this_thread::sleep_until(at(k * kEpochPeriodS));
      if (!publish(&paced)) {
        epochs_ok = false;
        return;
      }
    }
    std::this_thread::sleep_until(at(paced_s));
    store_after = host->env().counts();
    paced_delta = host->ScrapeAll().Minus(paced_before);
    while (std::chrono::steady_clock::now() < at(config.seconds)) {
      if (!publish(&back_to_back)) {
        epochs_ok = false;
        return;
      }
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    plans[t].issue = [&, t](uint32_t op) {
      return IssueRead(&clients[t], kName, ops[op], first_epoch);
    };
  }
  std::vector<RequestRecord> records = RunOpenLoop(plans);
  std::sort(records.begin(), records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.due_s < b.due_s;
            });
  writer.join();

  out.Check(epochs_ok.load(),
            "an epoch failed, or its epoch was not the next durable seq");
  out.Check(publisher->budget().spent() <= publisher->budget().total(),
            "ε spent exceeds the total");
  std::vector<double> rollover_ms;
  for (const Epoch& e : paced) rollover_ms.push_back(e.wall_ms);
  AddLatencyMetrics(rollover_ms, &out);
  // Back-to-back epochs per second, at the median pace.
  std::vector<double> gaps_s;
  for (size_t i = 1; i < back_to_back.size(); ++i) {
    gaps_s.push_back(back_to_back[i].done_s - back_to_back[i - 1].done_s);
  }
  const double median_gap_s = Median(gaps_s);
  AddEndToEnd(&out, "capacity_per_s",
              median_gap_s > 0.0 ? 1.0 / median_gap_s : 0.0, "1/s");

  std::vector<double> read_ms;
  std::vector<double> series_ms;
  std::vector<double> lag_ms;
  size_t read_failures = 0;
  for (const RequestRecord& r : records) {
    if (!r.ok) {
      ++read_failures;
      continue;
    }
    // Reads are timed while epochs are paced; those beside back-to-back
    // epochs only keep the publisher company.
    if (r.due_s >= paced_s) continue;
    lag_ms.push_back(r.lag_s * 1000.0);
    read_ms.push_back((r.done_s - r.due_s) * 1000.0);
    if (ops[r.op].kind == ReadOp::Kind::kSeries) {
      series_ms.push_back(read_ms.back());
    }
  }
  out.attempted = records.size() + paced.size() + back_to_back.size();
  out.failed = read_failures + (epochs_ok.load() ? 0 : 1);
  out.Check(read_failures == 0, std::to_string(read_failures) +
                                    " reads failed or broke the series order");

  // Untimed: recovery into a fresh registry must land on the last served
  // release, bit for bit. Its epoch is the seq of the release's install
  // record; the live registry was handed last_durable_seq(), the seq of
  // the retention gc record journaled after that install, so the two
  // labels differ (README: findings at the seed commit).
  StatusOr<std::shared_ptr<const serve::HostedSynopsis>> served =
      host->server().registry().Acquire(kName);
  {
    const std::vector<std::pair<uint64_t, std::string>> journal =
        host->store().History(kName);
    store::StoreOptions recover_options;
    recover_options.dir = host->store().dir();
    recover_options.retention_depth = 4;
    store::SynopsisStore recovered_store(recover_options);
    serve::SynopsisRegistry fresh;
    bool same = served.ok() && !journal.empty() &&
                recovered_store.Open().ok() &&
                recovered_store.Recover(&fresh).ok();
    if (same) {
      StatusOr<std::shared_ptr<const serve::HostedSynopsis>> recovered =
          fresh.Acquire(kName);
      same = recovered.ok() &&
             recovered.value()->epoch() == journal.back().first &&
             SynopsisDigest(recovered.value()->synopsis()) ==
                 SynopsisDigest(served.value()->synopsis());
      if (recovered.ok()) {
        AddDetail(&out, "recovered_epoch_behind_served",
                  static_cast<double>(served.value()->epoch() -
                                      recovered.value()->epoch()),
                  "count");
      }
    }
    out.Check(same, "recovery did not yield the last served release");
  }
  if (!served.ok()) return out;
  AddEndToEnd(&out, "peak_rss_mb", PeakRssMb(), "MB");
  out.generator_lag_p99_ms = LagP99Ms(lag_ms);
  const std::optional<Quantile> read_tail = ChunkedTail(read_ms, 10);
  const double read_p50_ms = Median(read_ms);
  AddDetail(&out, "read_p50_ms", read_p50_ms, "ms");
  AddDetail(&out, "read_tail_ms", read_tail ? read_tail->value : 0.0, "ms");
  AddDetail(&out, "series_p50_ms", Median(series_ms), "ms");
  AddDetail(&out, "epochs_back_to_back",
            static_cast<double>(back_to_back.size()), "count");
  out.store_fs = FilesystemType(host->dir());
  if (!config.trace || paced.empty()) return out;

  // Traced: rollover stages per paced epoch, from the epoch reports (the
  // publisher's own timers) and the library's spans, cross-checked against
  // the caller's wall time.
  const double n = static_cast<double>(paced.size());
  double recount_us = 0.0, build_us = 0.0, persist_us = 0.0,
         install_us = 0.0, recounted = 0.0, shifted = 0.0;
  for (const Epoch& e : paced) {
    recount_us += e.report.recount_us;
    build_us += e.report.build_us;
    persist_us += e.report.persist_us;
    install_us += e.report.install_us;
    recounted += e.report.views_recounted;
    shifted += e.report.views_shifted;
  }
  AddPerLayer(&out, "design.select_ms", Median(design_ms), "ms");
  AddPerLayer(&out, "design.blocks_kept_ratio", 1.0, "ratio");
  AddPerLayer(&out, "table.count_ms", recount_us / 1000.0 / n, "ms");
  AddPerLayer(&out, "table.views_counted_ratio",
              recounted / std::max(recounted + shifted, 1.0), "ratio");
  AddBuildLayers(paced_delta, n, &out);
  const double rollover_mean_ms = Mean(rollover_ms);
  const double gap_ms =
      rollover_mean_ms -
      (recount_us + build_us + persist_us + install_us) / 1000.0 / n;
  out.Check(std::abs(gap_ms) <= 0.02 * rollover_mean_ms,
            "traced run: rollover not explained by its stages (gap " +
                std::to_string(gap_ms) + " ms)");
  AddPerLayer(&out, "write.gap_ms", gap_ms, "ms");
  AddStoreLayers(store_before, store_after, n, served.value()->synopsis(),
                 persist_us / 1000.0 / n, install_us / 1000.0 / n, &out);

  StatusOr<std::vector<std::shared_ptr<const serve::HostedSynopsis>>> history =
      host->server().registry().AcquireSeries(kName, kSeriesDepth);
  if (!history.ok()) {
    out.Check(false, "series history unavailable");
    return out;
  }
  std::vector<const PriViewSynopsis*> oldest_first;
  for (auto it = history.value().rbegin(); it != history.value().rend();
       ++it) {
    oldest_first.push_back(&(*it)->synopsis());
  }
  const std::vector<ReadOp> replay(
      ops.begin(), ops.begin() + std::min(kReplayOps, ops.size()));
  const double rtt_p50_ms =
      AddReadLayers(host.get(), oldest_first, replay, &out);
  AddLoadedServeLayers(paced_delta, read_p50_ms - rtt_p50_ms, &out);
  return out;
}

}  // namespace priview::e2e
