// priview_e2e: runs one end-to-end benchmark workload and reports it.
//
//   priview_e2e --workload NAME --seed N --seconds S --trace 0|1
//               --run-dir DIR [--out RECORD.json] [--git-rev REV]
//
// Prints one "name value unit" line per metric, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}, where metrics are the end-to-end metrics of the untraced run
// or the per-layer metrics of the traced one. --out also writes the full
// record (every metric, seed, revision, hardware threads, store
// filesystem, generator lag) for compare.py. Exit status 0 only when every
// correctness check passed and the run is valid.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace {

using priview::e2e::Metric;
using priview::e2e::RunConfig;
using priview::e2e::WorkloadResult;

// A stalled generator would read as a slow server; such a run is invalid.
constexpr double kMaxGeneratorLagMs = 1.0;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += '"';
    json += JsonEscape(metrics[i].name);
    json += "\": {\"value\": ";
    json += JsonNumber(metrics[i].value);
    json += ", \"unit\": \"";
    json += JsonEscape(metrics[i].unit);
    json += "\"}";
  }
  json += '}';
  return json;
}

bool ParseArgs(int argc, char** argv, RunConfig* config, std::string* out,
               std::string* git_rev) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      config->workload = value;
    } else if (key == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config->trace = value == "1";
    } else if (key == "--run-dir") {
      config->run_dir = value;
    } else if (key == "--out") {
      *out = value;
    } else if (key == "--git-rev") {
      *git_rev = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty() && !config->run_dir.empty() &&
         config->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string out_path;
  std::string git_rev = "unknown";
  if (!ParseArgs(argc, argv, &config, &out_path, &git_rev)) {
    std::fprintf(stderr,
                 "usage: priview_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --run-dir DIR [--out FILE] [--git-rev REV]\n");
    return 2;
  }

  WorkloadResult result;
  if (config.workload == "publish-kosarak") {
    result = priview::e2e::RunPublish(config);
  } else if (config.workload == "serve-hot") {
    result = priview::e2e::RunServe(config, /*hot=*/true);
  } else if (config.workload == "serve-cold") {
    result = priview::e2e::RunServe(config, /*hot=*/false);
  } else if (config.workload == "stream-rollover") {
    result = priview::e2e::RunStream(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.run_dir, ignored);

  if (result.attempted == 0) {
    result.failures.push_back("no operation was attempted");
  }
  bool valid = true;
  if (result.generator_lag_p99_ms > kMaxGeneratorLagMs) {
    valid = false;
    result.failures.push_back(
        "invalid run: generator lag p99 " +
        std::to_string(result.generator_lag_p99_ms) + " ms > 1 ms");
  }
  const std::vector<Metric>& reported =
      config.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  const bool correct = result.failures.empty();

  for (const std::vector<Metric>* group :
       {&result.end_to_end, &result.per_layer, &result.detail}) {
    for (const Metric& m : *group) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%-32s %16.6f ms\n", "generator_lag_p99_ms",
              result.generator_lag_p99_ms);
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  if (!out_path.empty()) {
    if (FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(
          f,
          "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
          "\"trace\": %s, \"git_rev\": \"%s\", \"hardware_threads\": %u, "
          "\"store_fs\": \"%s\", \"generator_lag_p99_ms\": %s, "
          "\"valid\": %s, \"correct\": %s, \"attempted\": %llu, "
          "\"failed\": %llu, \"end_to_end\": %s, \"per_layer\": %s, "
          "\"detail\": %s}\n",
          JsonEscape(config.workload).c_str(),
          static_cast<unsigned long long>(config.seed),
          JsonNumber(config.seconds).c_str(), config.trace ? "true" : "false",
          JsonEscape(git_rev).c_str(), std::thread::hardware_concurrency(),
          JsonEscape(result.store_fs).c_str(),
          JsonNumber(result.generator_lag_p99_ms).c_str(),
          valid ? "true" : "false", correct ? "true" : "false",
          static_cast<unsigned long long>(result.attempted),
          static_cast<unsigned long long>(result.failed),
          MetricsJson(result.end_to_end).c_str(),
          MetricsJson(result.per_layer).c_str(),
          MetricsJson(result.detail).c_str());
      std::fclose(f);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
