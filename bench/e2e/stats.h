// Sample statistics for the end-to-end benchmark: nearest-rank
// percentiles that refuse to report a tail the sample cannot support,
// seeded Poisson arrival schedules, and generator-lag accounting for the
// open-loop load generator.
#ifndef PRIVIEW_BENCH_E2E_STATS_H_
#define PRIVIEW_BENCH_E2E_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace priview::e2e {

/// A percentile is reported only when at least this many samples lie
/// beyond it: a p99 needs 1,000 samples, a p90 100, a median 20.
inline constexpr size_t kMinSamplesBeyond = 10;

/// One reported percentile and the sample it came from.
struct Quantile {
  double pct = 0.0;    // e.g. 99 for p99
  double value = 0.0;
  size_t samples = 0;  // sample size
  size_t beyond = 0;   // samples ranked above the percentile
};

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(pct/100 * n). nullopt when fewer than
/// kMinSamplesBeyond samples rank above it (or pct is outside (0, 100]).
std::optional<Quantile> NearestRank(const std::vector<double>& sorted,
                                    double pct);

/// The highest of p50, p90 and p99 that NearestRank supports; nullopt for
/// a sample of fewer than 20.
std::optional<Quantile> TailQuantile(const std::vector<double>& sorted);

/// The tail of a sample in time order, robust to a stall that hits one
/// stretch of the run: the sample is cut into W consecutive chunks of equal
/// size, W as large as possible up to `max_chunks` while every chunk still
/// supports the percentile TailQuantile picks for the whole sample, and the
/// result is the median of the chunks' values at that percentile. `samples`
/// is the whole sample's size, `beyond` a chunk's count beyond its rank.
/// With too few samples for more than one chunk this is TailQuantile.
std::optional<Quantile> ChunkedTail(const std::vector<double>& in_time_order,
                                    size_t max_chunks);

/// Median of a handful of repeated measurements (set-up repetitions),
/// where the tail rule does not apply. Mean of the middle pair for an even
/// count; 0 for an empty sample.
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Completions per second in the median window: [start_s, end_s) is cut
/// into whole windows of window_s seconds (a partial last window is
/// dropped) and the events in each are counted. A capacity read this way
/// ignores a neighbour's burst that slows one window of the run. 0 when no
/// whole window fits.
double MedianWindowRate(const std::vector<double>& event_times_s,
                        double start_s, double end_s, double window_s);

/// Arrival times in seconds, ascending, of a Poisson process of `rate`
/// arrivals per second over [0, duration_s), drawn from `seed` alone: the
/// same seed always gives the same schedule.
std::vector<double> PoissonSchedule(double rate, double duration_s,
                                    uint64_t seed);

/// How late the generator itself sent a request: send time minus the
/// moment the request could first have gone out, which is its due time or,
/// when the previous request on the same connection was still in flight,
/// that request's completion. Waiting on the server is latency, not lag, so
/// a slow server never reads as a stalled generator. Never negative.
double GeneratorLag(double due, double previous_done, double sent);

}  // namespace priview::e2e

#endif  // PRIVIEW_BENCH_E2E_STATS_H_
