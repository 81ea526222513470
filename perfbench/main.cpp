// perfbench: runs one workload of the SELECT benchmark and prints its
// metrics. The last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// with every end-to-end metric (untraced run) or every per-layer metric
// (--trace 1). Earlier lines are for people: check violations, the
// deterministic outputs the benchmark's tests compare, and, when traced,
// each layer's share of the run.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>]
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

struct Args {
  perfbench::RunConfig run;
  bool trace = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.run.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value != "0";
      } else if (flag == "--trace-dir") {
        a.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == a.run.workload;
  if (!known) usage("unknown workload " + a.run.workload);
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Threads of this process, from /proc/self/status (0 when unreadable).
unsigned thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      unsigned n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

/// CPUs this process may run on (its affinity mask, as `nproc` counts
/// them); 0 when unreadable.
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_metrics(const char* label, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %-34s %.6g %s\n", label, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_shares(const perfbench::SpanRecorder& spans) {
  double total = 0.0;
  for (const auto& [name, agg] : spans.aggregates()) total += agg.self_s;
  for (const auto& [name, agg] : spans.aggregates()) {
    std::printf("self %-34s %10.4f s %5.1f %%  (%zu spans)\n", name.c_str(),
                agg.self_s, total > 0.0 ? 100.0 * agg.self_s / total : 0.0,
                agg.count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  const Args args = parse(argc, argv);
  perfbench::SpanRecorder spans(args.trace);
  perfbench::Result res;
  try {
    res = perfbench::run_workload(args.run, spans, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  res.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const unsigned threads = thread_count();
  const unsigned cpus = usable_cpus();
  if (cpus != 0 && threads > cpus) {
    res.violations.push_back("ran " + std::to_string(threads) +
                             " threads on " + std::to_string(cpus) + " CPUs");
  }
  for (const auto& v : res.violations) std::printf("violation: %s\n", v.c_str());
  std::printf("rounds %zu, threads %u, ops/s per round:", res.rounds, threads);
  for (const double r : res.round_rates) std::printf(" %.0f", r);
  std::printf("\n");
  std::printf("outputs {");
  const char* sep = "";
  for (const auto& [name, value] : res.outputs) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");

  const auto& reported = args.trace ? res.per_layer : res.end_to_end;
  if (args.trace) {
    print_metrics("traced end-to-end", res.end_to_end);
    print_shares(spans);
    const std::string path = args.trace_dir + "/" + args.run.workload + "-" +
                             std::to_string(args.run.seed) + ".spans.json";
    if (spans.write_json(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              res.violations.empty() ? "true" : "false", res.attempted,
              res.failed);
  sep = "";
  for (const auto& [name, metric] : reported) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
