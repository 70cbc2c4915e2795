#include "workload.h"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/serialization.h"
#include "metrics/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"
#include "serve/wire_protocol.h"
#include "stats.h"

namespace priview::e2e {

namespace {

constexpr char kSpanFamily[] = "priview_span_duration_us";
constexpr char kLatencyFamily[] = "priview_serve_request_latency_us";
// The paper's accuracy protocol: 200 random 4-way marginals.
constexpr int kAccuracyArity = 4;
constexpr int kAccuracyQueries = 200;
// Tails are the median over at most this many stretches of a run.
constexpr size_t kMaxTailChunks = 10;

bool BitEqual(const MarginalTable& a, const MarginalTable& b) {
  return a.attrs() == b.attrs() && a.cells().size() == b.cells().size() &&
         std::memcmp(a.cells().data(), b.cells().data(),
                     a.cells().size() * sizeof(double)) == 0;
}

bool TableLooksRight(const MarginalTable& table, AttrSet target) {
  if (table.attrs() != target ||
      table.cells().size() != (size_t{1} << target.size())) {
    return false;
  }
  return std::all_of(table.cells().begin(), table.cells().end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SynopsisDigest(const PriViewSynopsis& synopsis) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const MarginalTable& view : synopsis.views()) {
    mix(view.attrs().mask());
    for (double cell : view.cells()) {
      uint64_t bits = 0;
      std::memcpy(&bits, &cell, sizeof(bits));
      mix(bits);
    }
  }
  return hash;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<uint64_t>(fs.f_type);
      return hex.str();
    }
  }
}

std::vector<AttrSet> RandomTargets(int d, int k_min, int k_max, size_t count,
                                   Rng* rng) {
  std::vector<AttrSet> targets;
  std::set<uint64_t> seen;
  while (targets.size() < count) {
    const int k = k_min + static_cast<int>(rng->UniformInt(k_max - k_min + 1));
    const AttrSet target =
        AttrSet::FromIndices(rng->SampleWithoutReplacement(d, k));
    if (seen.insert(target.mask()).second) targets.push_back(target);
  }
  return targets;
}

Popularity::Popularity(size_t n, bool zipf) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += zipf ? 1.0 / static_cast<double>(r + 1) : 1.0;
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Popularity::Draw(Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto r =
      static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

void AddAccuracyMetric(const PriViewSynopsis& synopsis, const Dataset& data,
                       WorkloadResult* out) {
  Rng rng(kMechanismSeed);
  const std::vector<AttrSet> targets =
      SampleQuerySets(data.d(), kAccuracyArity, kAccuracyQueries, &rng);
  std::vector<double> errors;
  errors.reserve(targets.size());
  for (const AttrSet& target : targets) {
    StatusOr<MarginalTable> estimate = synopsis.TryQuery(target);
    out->Check(estimate.ok(), "accuracy: reconstruction failed");
    if (!estimate.ok()) return;
    errors.push_back(NormalizedL2Error(estimate.value(),
                                       data.CountMarginal(target),
                                       static_cast<double>(data.size())));
  }
  AddEndToEnd(out, "answer_l2_error", Median(errors), "ratio");
}

void AddLatencyMetrics(const std::vector<double>& in_time_order_ms,
                       WorkloadResult* out) {
  std::vector<double> sorted = in_time_order_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::optional<Quantile> p50 = NearestRank(sorted, 50.0);
  const std::optional<Quantile> tail =
      ChunkedTail(in_time_order_ms, kMaxTailChunks);
  out->Check(p50.has_value() && tail.has_value(),
             "latency: " + std::to_string(sorted.size()) +
                 " samples cannot support a median with ten beyond it");
  AddEndToEnd(out, "latency_p50_ms", p50 ? p50->value : 0.0, "ms");
  AddEndToEnd(out, "latency_tail_ms", tail ? tail->value : 0.0, "ms");
  if (tail) {
    AddDetail(out, "latency_tail_pct", tail->pct, "pct");
    AddDetail(out, "latency_tail_beyond", double(tail->beyond), "count");
  }
  AddDetail(out, "latency_samples", double(sorted.size()), "count");
}

double LagP99Ms(const std::vector<double>& in_time_order_ms) {
  const std::optional<Quantile> lag =
      ChunkedTail(in_time_order_ms, kMaxTailChunks);
  return lag ? lag->value : 0.0;
}

void AddEndToEnd(WorkloadResult* out, const std::string& name, double value,
                 const std::string& unit) {
  out->end_to_end.push_back({name, value, unit});
}

void AddPerLayer(WorkloadResult* out, const std::string& name, double value,
                 const std::string& unit) {
  out->per_layer.push_back({name, value, unit});
}

void AddDetail(WorkloadResult* out, const std::string& name, double value,
               const std::string& unit) {
  out->detail.push_back({name, value, unit});
}

TracingScope::TracingScope(bool armed) : armed_(armed) {
  if (armed_) obs::Tracer::Global().Arm();
}

TracingScope::~TracingScope() {
  if (armed_) obs::Tracer::Global().Disarm();
}

Scrape ScrapeGlobal() {
  return Scrape::Parse(obs::MetricsRegistry::Global().RenderPrometheus());
}

double SpanMs(const Scrape& scrape, const std::string& span) {
  return scrape.HistogramSum(kSpanFamily, {{"span", span}}) / 1000.0;
}

void AddBuildLayers(const Scrape& spans, double builds, WorkloadResult* out) {
  const double n = std::max(builds, 1.0);
  // Per-view noise spans run on pool workers (inside the counting span
  // when TryBuild overlaps the two), so their sum is noise CPU time.
  AddPerLayer(out, "dp.noise_ms",
              SpanMs(spans, "publish/noise/view") / n, "ms");
  AddPerLayer(out, "core.nonneg_ms",
              SpanMs(spans, "publish/ripple") / n, "ms");
  AddPerLayer(out, "core.consistency_ms",
              SpanMs(spans, "publish/consistency") / n, "ms");
  AddPerLayer(out, "core.build_ms", SpanMs(spans, "publish") / n,
              "ms");
}

bool IssueRead(serve::PriViewClient* client, const std::string& name,
               const ReadOp& op, uint64_t min_epoch) {
  switch (op.kind) {
    case ReadOp::Kind::kMarginal: {
      StatusOr<serve::ClientTable> answer = client->Marginal(name, op.target);
      return answer.ok() && answer.value().tier == serve::ServeTier::kFull &&
             answer.value().epoch >= min_epoch &&
             TableLooksRight(answer.value().table, op.target);
    }
    case ReadOp::Kind::kConjunction: {
      StatusOr<serve::ClientValue> answer =
          client->Conjunction(name, op.target, op.assignment);
      return answer.ok() && answer.value().tier == serve::ServeTier::kFull &&
             answer.value().epoch >= min_epoch &&
             std::isfinite(answer.value().value);
    }
    case ReadOp::Kind::kSeries: {
      StatusOr<serve::ClientSeries> answer =
          client->Series(name, op.target, op.last_n);
      if (!answer.ok() || answer.value().tier != serve::ServeTier::kFull) {
        return false;
      }
      const std::vector<serve::ClientSeriesPoint>& points =
          answer.value().points;
      if (points.empty() || points.size() > op.last_n ||
          points.front().epoch < min_epoch) {
        return false;
      }
      for (size_t i = 0; i < points.size(); ++i) {
        if (i > 0 && points[i].epoch >= points[i - 1].epoch) return false;
        if (!TableLooksRight(points[i].table, op.target)) return false;
      }
      return true;
    }
  }
  return false;
}

ReleaseHost::ReleaseHost(const std::string& dir, int retention_depth,
                         size_t history_depth)
    : dir_(dir) {
  std::filesystem::create_directories(dir_);
  store::StoreOptions store_options;
  store_options.dir = dir_ + "/store";
  store_options.retention_depth = retention_depth;
  store_options.env = &env_;
  store_ = std::make_unique<store::SynopsisStore>(store_options);
  serve::ServerOptions server_options;
  server_options.socket_path = dir_ + "/srv.sock";
  server_options.history_depth = history_depth;
  server_ = std::make_unique<serve::PriViewServer>(server_options);
}

ReleaseHost::~ReleaseHost() { server_->Stop(); }

Status ReleaseHost::Start() {
  const Status opened = store_->Open();
  if (!opened.ok()) return opened;
  return server_->Start();
}

Status ReleaseHost::Publish(const std::string& name,
                            const PriViewSynopsis& synopsis) {
  const double t0 = NowSeconds();
  const Status persisted = store_->Install(name, synopsis);
  const double t1 = NowSeconds();
  last_persist_s_ = t1 - t0;
  if (!persisted.ok()) return persisted;
  const Status installed = server_->registry().InstallAtEpoch(
      name, synopsis, store_->last_durable_seq());
  last_install_s_ = NowSeconds() - t1;
  return installed;
}

StatusOr<serve::PriViewClient> ReleaseHost::Connect() const {
  return serve::PriViewClient::Connect(dir_ + "/srv.sock");
}

Scrape ReleaseHost::ScrapeAll() {
  return Scrape::Parse(server_->metrics().registry().RenderPrometheus() +
                       obs::MetricsRegistry::Global().RenderPrometheus());
}

void AddStoreLayers(const CountingEnv::Counts& before,
                    const CountingEnv::Counts& after, double installs,
                    const PriViewSynopsis& synopsis, double persist_ms,
                    double install_ms, WorkloadResult* out) {
  const double n = std::max(installs, 1.0);
  const double bytes =
      static_cast<double>(after.bytes_appended - before.bytes_appended) / n;
  std::ostringstream serialized;
  out->Check(WriteSynopsis(synopsis, &serialized).ok(),
             "store layers: serializing the release failed");
  const double synopsis_bytes = static_cast<double>(serialized.str().size());
  AddPerLayer(out, "store.persist_ms", persist_ms, "ms");
  AddPerLayer(out, "store.fsyncs_per_install",
              static_cast<double>(after.fsyncs() - before.fsyncs()) / n,
              "count");
  AddPerLayer(out, "store.bytes_per_install", bytes, "bytes");
  AddPerLayer(out, "store.write_amp",
              synopsis_bytes > 0.0 ? bytes / synopsis_bytes : 0.0, "ratio");
  AddDetail(out, "store.renames_per_install",
            static_cast<double>(after.renames - before.renames) / n, "count");
  AddPerLayer(out, "serve.install_ms", install_ms, "ms");
}

double CheckWireEqualsLibrary(ReleaseHost* host, const std::string& name,
                              const PriViewSynopsis& synopsis,
                              const std::vector<AttrSet>& targets,
                              WorkloadResult* out) {
  StatusOr<std::shared_ptr<const serve::HostedSynopsis>> hosted =
      host->server().registry().Acquire(name);
  StatusOr<serve::PriViewClient> client = host->Connect();
  if (!hosted.ok() || !client.ok()) {
    out->Check(false, "probe check: release not hosted or connect failed");
    return 0.0;
  }
  const uint64_t epoch = hosted.value()->epoch();
  const QueryEngine engine(&synopsis, QueryEngineOptions{});
  size_t mismatches = 0;
  std::vector<double> wire_ms;
  wire_ms.reserve(targets.size());
  for (const AttrSet& target : targets) {
    const double t0 = NowSeconds();
    StatusOr<serve::ClientTable> wire = client.value().Marginal(name, target);
    wire_ms.push_back((NowSeconds() - t0) * 1000.0);
    StatusOr<MarginalTable> library = engine.TryMarginal(target);
    const bool same = wire.ok() && library.ok() &&
                      wire.value().tier == serve::ServeTier::kFull &&
                      wire.value().epoch == epoch &&
                      BitEqual(wire.value().table, library.value());
    if (!same) ++mismatches;
  }
  out->Check(mismatches == 0,
             "probe check: " + std::to_string(mismatches) + " of " +
                 std::to_string(targets.size()) +
                 " wire answers differ from QueryEngine::TryMarginal");
  return Median(wire_ms);
}

double AddReadLayers(ReleaseHost* host,
                     const std::vector<const PriViewSynopsis*>& releases,
                     const std::vector<ReadOp>& ops, WorkloadResult* out) {
  const std::string name = "replay";
  for (const PriViewSynopsis* release : releases) {
    out->Check(host->server().registry().Install(name, *release).ok(),
               "read replay: install failed");
  }
  StatusOr<serve::PriViewClient> client = host->Connect();
  if (!client.ok() || ops.empty()) {
    out->Check(false, "read replay: connect failed");
    return 0.0;
  }

  const Scrape before = host->ScrapeAll();
  std::vector<double> rtt_ms;
  rtt_ms.reserve(ops.size());
  size_t failed = 0;
  for (const ReadOp& op : ops) {
    const double t0 = NowSeconds();
    if (!IssueRead(&client.value(), name, op)) ++failed;
    rtt_ms.push_back((NowSeconds() - t0) * 1000.0);
  }
  const Scrape delta = host->ScrapeAll().Minus(before);
  out->Check(failed == 0, "read replay: " + std::to_string(failed) +
                              " reads failed on an unloaded server");

  // Means add up exactly, so the layers below sum to the client's mean
  // round trip by construction; a negative remainder means the nesting
  // assumed here no longer holds.
  const double n = static_cast<double>(ops.size());
  const double rtt = Mean(rtt_ms);
  const double broker =
      (delta.HistogramSum(kLatencyFamily, {{"kind", "marginal"}}) +
       delta.HistogramSum(kLatencyFamily, {{"kind", "series"}})) /
      1000.0 / n;
  const double queue_wait =
      delta.HistogramSum("priview_broker_queue_wait_us") / 1000.0 / n;
  const double solve =
      (SpanMs(delta, "query/solve") + SpanMs(delta, "query/marginal")) / n;
  const double transport = rtt - broker;
  const double engine = broker - queue_wait - solve;
  for (const auto& [layer, ms] :
       {std::pair<const char*, double>{"transport", transport},
        {"queue wait", queue_wait},
        {"engine", engine},
        {"solve", solve}}) {
    out->Check(ms >= -0.02 * rtt,
               std::string("traced run: read-path layer '") + layer +
                   "' is negative beyond 2% of the round trip");
  }
  AddPerLayer(out, "serve.rtt_ms", rtt, "ms");
  AddPerLayer(out, "serve.transport_ms", transport, "ms");
  AddPerLayer(out, "serve.queue_wait_ms", queue_wait, "ms");
  AddPerLayer(out, "core.engine_ms", engine, "ms");
  AddPerLayer(out, "opt.solve_ms", solve, "ms");

  // Wire codec on these payloads: encode + decode of each request and of
  // a response of the size the server sends back.
  const PriViewSynopsis& newest = *releases.back();
  std::vector<std::pair<serve::WireRequest, serve::WireResponse>> frames;
  for (const ReadOp& op : ops) {
    serve::WireRequest request;
    request.synopsis = name;
    request.target_mask = op.target.mask();
    serve::WireResponse response;
    const MarginalTable table = newest.Query(op.target);
    switch (op.kind) {
      case ReadOp::Kind::kMarginal:
        request.type = serve::MessageType::kMarginal;
        response = serve::MakeTableResponse(table, 0, false, 1);
        break;
      case ReadOp::Kind::kConjunction:
        request.type = serve::MessageType::kConjunction;
        request.assignment = op.assignment;
        response.type = serve::MessageType::kValue;
        response.value = table.At(op.assignment);
        break;
      case ReadOp::Kind::kSeries:
        request.type = serve::MessageType::kSeries;
        request.last_n = op.last_n;
        response.type = serve::MessageType::kTableSeries;
        for (size_t i = 0; i < std::min<size_t>(op.last_n, releases.size());
             ++i) {
          response.series.push_back({i + 1, table.attrs().mask(),
                                      table.cells()});
        }
        break;
    }
    frames.emplace_back(std::move(request), std::move(response));
    if (frames.size() == 64) break;
  }
  size_t codec_ops = 0;
  bool codec_ok = true;
  const double codec_t0 = NowSeconds();
  while (NowSeconds() - codec_t0 < 0.05) {
    for (const auto& [request, response] : frames) {
      codec_ok &= serve::DecodeRequest(serve::EncodeRequest(request)).ok();
      codec_ok &= serve::DecodeResponse(serve::EncodeResponse(response)).ok();
      ++codec_ops;
    }
  }
  const double codec_us =
      (NowSeconds() - codec_t0) * 1e6 / static_cast<double>(codec_ops);
  out->Check(codec_ok, "read replay: wire codec round trip failed");
  AddPerLayer(out, "serve.wire_codec_us", codec_us, "us");

  // Solver diagnostics of the distinct targets (covered targets never
  // reach a solver and are left out of the iteration mean).
  std::set<uint64_t> distinct;
  const QueryEngine engine_for_diagnostics(&newest, QueryEngineOptions{});
  double iterations = 0.0;
  double solved = 0.0;
  double nonconverged = 0.0;
  for (const ReadOp& op : ops) {
    if (distinct.size() >= 200) break;
    if (!distinct.insert(op.target.mask()).second) continue;
    StatusOr<ReconstructionResult> result =
        engine_for_diagnostics.TryQueryWithDiagnostics(op.target);
    if (!result.ok() || result.value().diagnostics.covered) continue;
    iterations += result.value().diagnostics.iterations;
    solved += 1.0;
    if (!result.value().diagnostics.converged) nonconverged += 1.0;
  }
  AddPerLayer(out, "opt.iterations_mean",
              solved > 0.0 ? iterations / solved : 0.0, "count");
  AddPerLayer(out, "opt.nonconverged", nonconverged, "count");

  out->Check(host->server().registry().Remove(name).ok(),
             "read replay: remove failed");
  return Median(rtt_ms);
}

void AddLoadedServeLayers(const Scrape& delta, double queueing_ms,
                          WorkloadResult* out) {
  const std::string lookups = "priview_query_cache_lookups_total";
  const double exact = delta.Value(lookups, {{"result", "exact"}});
  const double rollup = delta.Value(lookups, {{"result", "rollup"}});
  const double miss = delta.Value(lookups, {{"result", "miss"}});
  const double total_lookups = exact + rollup + miss;
  AddPerLayer(out, "core.cache_hit_rate",
              total_lookups > 0.0 ? (exact + rollup) / total_lookups : 0.0,
              "ratio");

  const std::string requests = "priview_serve_requests_total";
  const double admitted = delta.Value(requests, {{"event", "admitted"}});
  const double coalesced = delta.Value(requests, {{"event", "coalesced"}});
  AddPerLayer(out, "serve.coalesce_rate",
              admitted > 0.0 ? coalesced / admitted : 0.0, "ratio");
  AddPerLayer(out, "serve.coalesce_width_mean",
              delta.HistogramMean("priview_broker_coalesce_width"), "count");

  const std::string served = "priview_serve_served_total";
  const double full = delta.Value(served, {{"tier", "full"}});
  const double degraded = delta.Value(served, {{"tier", "least-norm"}}) +
                          delta.Value(served, {{"tier", "cache-rollup"}});
  AddPerLayer(out, "serve.degraded_ratio",
              full + degraded > 0.0 ? degraded / (full + degraded) : 0.0,
              "ratio");

  const std::string queue_wait = "priview_broker_queue_wait_us";
  const std::string dispatch = "priview_broker_dispatch_latency_us";
  AddPerLayer(out, "serve.queue_wait_mean_ms",
              delta.HistogramMean(queue_wait) / 1000.0, "ms");
  AddPerLayer(out, "serve.dispatch_mean_ms",
              delta.HistogramMean(dispatch) / 1000.0, "ms");
  AddPerLayer(out, "serve.queueing_ms", queueing_ms, "ms");
  // Histogram percentiles are only known to a power-of-two bucket; the
  // names say they are upper bounds.
  AddDetail(out, "serve.queue_wait_p99_ub_ms",
            delta.HistogramUpperBound(queue_wait, {}, 0.99) / 1000.0, "ms");
  AddDetail(out, "serve.dispatch_p99_ub_ms",
            delta.HistogramUpperBound(dispatch, {}, 0.99) / 1000.0, "ms");
}

}  // namespace priview::e2e
