// publish-kosarak: the curator's side. Back-to-back BuildPriViewPipeline
// releases (ε = 1, the same noise seed every time) on Kosarak-like data at
// the paper's size, d = 32 and N = 912,627. View selection builds covering
// designs for t = 2, 3 and 4 and keeps one, so the design layer does most
// of the work; counting, noise and consistency do the rest. The last
// release is then stored and served, and answers the paper's 200-query
// protocol over the wire.
#include <algorithm>
#include <optional>

#include "common/rng.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "design/covering_design.h"
#include "metrics/metrics.h"
#include "stats.h"
#include "workload.h"

namespace priview::e2e {

namespace {

constexpr size_t kRecords = 912627;
constexpr int kSetups = 5;
// Enough releases for a median with ten beyond it, and a loop long enough
// (~25 s at ~0.8 s a release) that a shared host's slower and faster
// spells average out within one run.
constexpr size_t kMinReleases = 30;
constexpr char kName[] = "kosarak";

}  // namespace

WorkloadResult RunPublish(const RunConfig& config) {
  WorkloadResult out;
  const PipelineOptions options;  // ε = 1, the paper's §4.5 defaults
  TracingScope tracing(config.trace);

  // The input, from the seed; then the set-up: one warm-up release
  // (thread pool start, first-touch allocation).
  Rng data_rng(config.seed);
  const Dataset data = MakeKosarakLike(&data_rng, kRecords);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const double t0 = NowSeconds();
    Rng rng(kMechanismSeed);
    out.Check(BuildPriViewPipeline(data, options, &rng).ok(),
              "set-up release failed");
    setup_s.push_back(NowSeconds() - t0);
  }
  AddEndToEnd(&out, "setup_s", Median(setup_s), "s");

  // Timed: releases back to back for the run time, and at least
  // kMinReleases of them.
  const Scrape spans_before = ScrapeGlobal();
  std::vector<double> release_ms;
  std::vector<uint64_t> digests;
  std::optional<PipelineResult> last;
  const double loop_t0 = NowSeconds();
  while (release_ms.size() < kMinReleases ||
         NowSeconds() - loop_t0 < config.seconds) {
    Rng rng(kMechanismSeed);
    const double t0 = NowSeconds();
    StatusOr<PipelineResult> result = BuildPriViewPipeline(data, options, &rng);
    const double ms = (NowSeconds() - t0) * 1000.0;
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
      out.Check(false, "release failed: " + result.status().ToString());
      break;
    }
    release_ms.push_back(ms);
    digests.push_back(SynopsisDigest(result.value().synopsis));
    last.emplace(std::move(result).value());
  }
  const double loop_s = NowSeconds() - loop_t0;
  const Scrape spans = ScrapeGlobal().Minus(spans_before);
  if (!last) return out;
  const PriViewSynopsis& synopsis = last->synopsis;

  out.Check(std::all_of(digests.begin(), digests.end(),
                        [&](uint64_t d) { return d == digests.front(); }),
            "releases at the same seed have different synopsis digests");
  out.Check(VerifyCovering(last->selection.design),
            "chosen design is not a covering design");
  AddLatencyMetrics(release_ms, &out);
  AddEndToEnd(&out, "capacity_per_s",
              static_cast<double>(release_ms.size()) / loop_s, "1/s");
  AddDetail(&out, "release_digest", static_cast<double>(digests.front() >> 11),
            "id");
  AddDetail(&out, "design_t", last->selection.design.t, "count");
  AddDetail(&out, "design_w", last->selection.design.w(), "count");

  // Untimed: store and serve the last release; the paper's 200-query
  // protocol over the wire doubles as the wire == library check.
  ReleaseHost host(config.run_dir + "/publish", /*retention_depth=*/1,
                   /*history_depth=*/1);
  out.Check(host.Start().ok(), "store open or server start failed");
  out.Check(host.Publish(kName, synopsis).ok(), "persist or install failed");
  Rng probe_rng(config.seed ^ 0x9b0be5ULL);
  const std::vector<AttrSet> probes =
      SampleQuerySets(data.d(), 4, 200, &probe_rng);
  const Scrape probe_before = host.ScrapeAll();
  const double probe_p50_ms =
      CheckWireEqualsLibrary(&host, kName, synopsis, probes, &out);
  const Scrape probe_delta = host.ScrapeAll().Minus(probe_before);
  AddAccuracyMetric(synopsis, data, &out);
  AddEndToEnd(&out, "peak_rss_mb", PeakRssMb(), "MB");
  out.store_fs = FilesystemType(host.dir());
  if (!config.trace) return out;

  // Traced: the release's layers from the library's own spans, per release.
  const double releases = static_cast<double>(release_ms.size());
  const double select_ms = SpanMs(spans, "pipeline/select-views") / releases;
  AddPerLayer(&out, "design.select_ms", select_ms, "ms");
  double candidate_blocks = 0.0;
  for (const ViewCandidate& candidate : last->selection.candidates) {
    candidate_blocks += candidate.design.w();
  }
  AddPerLayer(&out, "design.blocks_kept_ratio",
              last->selection.design.w() / candidate_blocks, "ratio");
  AddPerLayer(&out, "table.count_ms", SpanMs(spans, "publish/count") / releases,
              "ms");
  AddPerLayer(&out, "table.views_counted_ratio", 1.0, "ratio");
  AddBuildLayers(spans, releases, &out);
  // The pipeline's own work beyond view selection and the build is one
  // noisy count; anything more is time the spans do not explain.
  const double release_mean_ms = Mean(release_ms);
  const double gap_ms =
      release_mean_ms - select_ms - SpanMs(spans, "publish") / releases;
  out.Check(std::abs(gap_ms) <= 0.02 * release_mean_ms,
            "traced run: release time not explained by its spans (gap " +
                std::to_string(gap_ms) + " ms)");
  AddPerLayer(&out, "write.gap_ms", gap_ms, "ms");
  // Which covering design costs what: each t once, from the same seed.
  for (int t = 2; t <= options.selection.max_t; ++t) {
    Rng rng(kMechanismSeed);
    const double t0 = NowSeconds();
    const CoveringDesign design =
        MakeCoveringDesign(data.d(), options.selection.ell, t, &rng);
    AddDetail(&out, "design.cover_t" + std::to_string(t) + "_ms",
              (NowSeconds() - t0) * 1000.0, "ms");
    AddDetail(&out, "design.cover_t" + std::to_string(t) + "_w", design.w(),
              "count");
  }

  AddStoreLayers(CountingEnv::Counts{}, host.env().counts(), 1.0, synopsis,
                 host.last_persist_s() * 1000.0,
                 host.last_install_s() * 1000.0, &out);
  std::vector<ReadOp> replay;
  for (const AttrSet& target : probes) {
    replay.push_back({ReadOp::Kind::kMarginal, target, 0, 0});
  }
  const double rtt_p50_ms = AddReadLayers(&host, {&synopsis}, replay, &out);
  AddLoadedServeLayers(probe_delta, probe_p50_ms - rtt_p50_ms, &out);
  return out;
}

}  // namespace priview::e2e
