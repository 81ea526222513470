// The three workloads of the benchmark. Each runs in one process, drives the
// program only through its public functions, checks what it returns, and
// fills a Result with every end-to-end metric and — when spans are on —
// every per-layer metric. See README.md for what each workload runs and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Time budget; the run ends at the first whole cycle after it (0 = one
  /// cycle, the fixed amount of work the benchmark's tests use).
  double seconds = 10.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Output-check violations; the run is correct when this is empty.
  std::vector<std::string> violations;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Simulated, machine-independent outputs of the first cycle: hops,
  /// rounds, relay counts, deliveries, latency quantiles. Two runs with the
  /// same seed must print the same values.
  std::map<std::string, double> outputs;
  std::size_t rounds = 0;
  /// Operations completed per second in each round, in order.
  std::vector<double> round_rates;
};

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run reports each of them; a layer the workload does not run
/// reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Runs one workload. `process_start` is taken first thing in main(), so
/// `setup_s` covers the whole cold set-up of the process.
[[nodiscard]] Result run_workload(const RunConfig& config, SpanRecorder& spans,
                                  Clock::time_point process_start);

}  // namespace perfbench
