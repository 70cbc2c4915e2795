#include "scrape.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace priview::e2e {

namespace {

constexpr char kBucketSuffix[] = "_bucket";

// Parses `name{k="v",...} value`; false on anything else (comments, blank
// lines, malformed input).
bool ParseLine(const std::string& line, std::string* name,
               ScrapeLabels* labels, double* value) {
  if (line.empty() || line[0] == '#') return false;
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  *name = line.substr(0, i);
  labels->clear();
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        return false;
      }
      std::string key = line.substr(i, eq - i);
      std::string val;
      size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\' && j + 1 < line.size()) ++j;
        val += line[j];
      }
      if (j >= line.size()) return false;
      labels->emplace_back(std::move(key), std::move(val));
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return false;
    ++i;  // '}'
  }
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size() || name->empty()) return false;
  const std::string number = line.substr(i);
  if (number == "+Inf") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(number.c_str(), &end);
  return end != number.c_str();
}

// Canonical series key: `name{a="x",b="y"}` with labels sorted by name,
// or the bare name without labels.
std::string SeriesKey(const std::string& name, ScrapeLabels labels) {
  if (labels.empty()) return name;
  std::sort(labels.begin(), labels.end());
  std::string key = name + "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ",";
    key += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  return key + "}";
}

}  // namespace

Scrape Scrape::Parse(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  std::string name;
  ScrapeLabels labels;
  double value = 0.0;
  while (std::getline(in, line)) {
    if (ParseLine(line, &name, &labels, &value)) {
      scrape.samples_[SeriesKey(name, labels)] = value;
    }
  }
  return scrape;
}

double Scrape::Value(const std::string& name,
                     const ScrapeLabels& labels) const {
  const auto it = samples_.find(SeriesKey(name, labels));
  return it == samples_.end() ? 0.0 : it->second;
}

double Scrape::HistogramCount(const std::string& name,
                              const ScrapeLabels& labels) const {
  return Value(name + "_count", labels);
}

double Scrape::HistogramSum(const std::string& name,
                            const ScrapeLabels& labels) const {
  return Value(name + "_sum", labels);
}

double Scrape::HistogramMean(const std::string& name,
                             const ScrapeLabels& labels) const {
  const double count = HistogramCount(name, labels);
  return count > 0.0 ? HistogramSum(name, labels) / count : 0.0;
}

double Scrape::HistogramUpperBound(const std::string& name,
                                   const ScrapeLabels& labels,
                                   double p) const {
  const double count = HistogramCount(name, labels);
  if (!(count > 0.0)) return 0.0;
  // Collect this series' cumulative buckets; interior empty buckets are
  // omitted by the renderer, which cumulative counts tolerate.
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  const std::string prefix = name + kBucketSuffix;
  for (const auto& [key, value] : samples_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    std::string series_name;
    ScrapeLabels series_labels;
    double unused = 0.0;
    if (!ParseLine(key + " 0", &series_name, &series_labels, &unused) ||
        series_name != prefix) {
      continue;
    }
    double le = std::numeric_limits<double>::infinity();
    ScrapeLabels rest;
    for (const auto& label : series_labels) {
      if (label.first == "le") {
        if (label.second != "+Inf") {
          le = std::strtod(label.second.c_str(), nullptr);
        }
      } else {
        rest.push_back(label);
      }
    }
    if (SeriesKey(name, rest) == SeriesKey(name, labels)) {
      buckets.emplace_back(le, value);
    }
  }
  std::sort(buckets.begin(), buckets.end());
  for (const auto& [le, cumulative] : buckets) {
    if (cumulative >= p * count) return le;
  }
  return buckets.empty() ? 0.0 : buckets.back().first;
}

Scrape Scrape::Minus(const Scrape& before) const {
  Scrape delta;
  for (const auto& [key, value] : samples_) {
    const auto it = before.samples_.find(key);
    delta.samples_[key] =
        it == before.samples_.end() ? value : value - it->second;
  }
  return delta;
}

}  // namespace priview::e2e
