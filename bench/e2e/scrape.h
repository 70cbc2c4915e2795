// Reads the program's exported metrics the way an operator would: by
// parsing the Prometheus text exposition (MetricsRegistry::RenderPrometheus)
// rather than calling into any in-process snapshot API, so the benchmark
// keeps working when a facade over the instruments goes away.
#ifndef PRIVIEW_BENCH_E2E_SCRAPE_H_
#define PRIVIEW_BENCH_E2E_SCRAPE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace priview::e2e {

using ScrapeLabels = std::vector<std::pair<std::string, std::string>>;

/// One parsed scrape: every sample line as (series key -> value). The key
/// is the metric name plus its labels sorted by label name, so lookups do
/// not depend on the order the renderer wrote them in.
class Scrape {
 public:
  static Scrape Parse(const std::string& text);

  /// Sample value of `name{labels}`; 0 when the series is absent (a
  /// counter that was never touched renders nothing or 0 alike).
  double Value(const std::string& name, const ScrapeLabels& labels = {}) const;

  /// Histogram family `name{labels}`: the sum of its observations.
  double HistogramSum(const std::string& name,
                      const ScrapeLabels& labels = {}) const;
  /// Sum over count of the observations; 0 for an empty histogram.
  double HistogramMean(const std::string& name,
                       const ScrapeLabels& labels = {}) const;
  /// Upper bound (the `le` value) of the first bucket holding fraction
  /// `p` of the observations: a p99 that is only known to a power-of-two
  /// bucket, never an interpolated value. 0 for an empty histogram.
  double HistogramUpperBound(const std::string& name,
                             const ScrapeLabels& labels, double p) const;

  /// Series-wise difference `*this - before`, for counters and histograms
  /// accumulated over one phase of a run.
  Scrape Minus(const Scrape& before) const;

 private:
  double HistogramCount(const std::string& name,
                        const ScrapeLabels& labels) const;

  std::map<std::string, double> samples_;
};

}  // namespace priview::e2e

#endif  // PRIVIEW_BENCH_E2E_SCRAPE_H_
