#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace priview::e2e {

std::optional<Quantile> NearestRank(const std::vector<double>& sorted,
                                    double pct) {
  const size_t n = sorted.size();
  if (n == 0 || !(pct > 0.0) || pct > 100.0) return std::nullopt;
  // Integer arithmetic on per-mille ranks avoids ceil() landing one rank
  // high on values like 0.99 * 1000 = 990.0000000000001.
  const auto permille = static_cast<uint64_t>(std::llround(pct * 10.0));
  const size_t rank = static_cast<size_t>((permille * n + 999) / 1000);
  if (rank == 0 || rank > n) return std::nullopt;
  const size_t beyond = n - rank;
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  return Quantile{pct, sorted[rank - 1], n, beyond};
}

std::optional<Quantile> TailQuantile(const std::vector<double>& sorted) {
  for (double pct : {99.0, 90.0, 50.0}) {
    if (std::optional<Quantile> q = NearestRank(sorted, pct)) return q;
  }
  return std::nullopt;
}

std::optional<Quantile> ChunkedTail(const std::vector<double>& in_time_order,
                                    size_t max_chunks) {
  std::vector<double> sorted = in_time_order;
  std::sort(sorted.begin(), sorted.end());
  const std::optional<Quantile> whole = TailQuantile(sorted);
  if (!whole) return std::nullopt;
  // A chunk supports the percentile when it has ten samples beyond it.
  const auto needed = static_cast<size_t>(
      std::llround(static_cast<double>(kMinSamplesBeyond) * 100.0 /
                   (100.0 - whole->pct)));
  const size_t chunks =
      std::clamp<size_t>(in_time_order.size() / needed, 1, max_chunks);
  if (chunks == 1) return whole;
  const size_t size = in_time_order.size() / chunks;
  std::vector<double> values;
  size_t beyond = in_time_order.size();
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(in_time_order.begin() + c * size,
                              in_time_order.begin() + (c + 1) * size);
    std::sort(chunk.begin(), chunk.end());
    const std::optional<Quantile> q = NearestRank(chunk, whole->pct);
    if (!q) return whole;  // unreachable: every chunk has `needed` samples
    values.push_back(q->value);
    beyond = std::min(beyond, q->beyond);
  }
  return Quantile{whole->pct, Median(values), in_time_order.size(), beyond};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MedianWindowRate(const std::vector<double>& event_times_s,
                        double start_s, double end_s, double window_s) {
  if (!(window_s > 0.0) || !(end_s > start_s)) return 0.0;
  const auto windows = static_cast<size_t>((end_s - start_s) / window_s);
  if (windows == 0) return 0.0;
  std::vector<double> counts(windows, 0.0);
  for (double t : event_times_s) {
    if (t < start_s) continue;
    const auto w = static_cast<size_t>((t - start_s) / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  return Median(std::move(counts)) / window_s;
}

std::vector<double> PoissonSchedule(double rate, double duration_s,
                                    uint64_t seed) {
  std::vector<double> due;
  if (!(rate > 0.0) || !(duration_s > 0.0)) return due;
  Rng rng(seed);
  due.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  for (double t = rng.Exponential(rate); t < duration_s;
       t += rng.Exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

double GeneratorLag(double due, double previous_done, double sent) {
  return std::max(0.0, sent - std::max(due, previous_done));
}

}  // namespace priview::e2e
