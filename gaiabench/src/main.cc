// gaia_benchmark: one workload of the Gaia benchmark per invocation.
//
//   gaia_benchmark --workload online_hot|online_cold|monthly_cycle
//                  --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Prints human-readable report lines, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any answer fails its correctness check, 2 on a usage error, and 3, with no
// result line, when the run could not measure what it reports.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "util/thread_pool.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "gaia_benchmark: %s\nusage: gaia_benchmark --workload "
               "online_hot|online_cold|monthly_cycle --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               message);
  return 2;
}

/// Shortest text that reads back as exactly `value`.
std::string Number(double value) {
  char buffer[64];
  for (int digits = 6; digits <= 17; ++digits) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  gaia::perf::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (!gaia::perf::MakeDirs(args.workdir)) {
    return Usage(("cannot create " + args.workdir).c_str());
  }

  // Every workload runs with a one-thread global pool. On a host whose CPUs
  // are shared with other tenants, a parallel loop waits for its slowest
  // chunk, so a fan-out over every CPU times the neighbours more than the
  // program; one thread per busy component keeps the figures steady.
  gaia::util::ThreadPool::SetGlobalThreads(1);

  gaia::perf::Outcome out;
  if (args.workload == "online_hot") {
    out = gaia::perf::RunOnline(args, /*cold=*/false);
  } else if (args.workload == "online_cold") {
    out = gaia::perf::RunOnline(args, /*cold=*/true);
  } else if (args.workload == "monthly_cycle") {
    out = gaia::perf::RunMonthly(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  for (const std::string& line : out.report) {
    std::printf("[%s] %s\n", args.workload.c_str(), line.c_str());
  }
  if (!out.error.empty()) {
    std::fprintf(stderr, "gaia_benchmark: %s: %s\n", args.workload.c_str(),
                 out.error.c_str());
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "gaia_benchmark: %s is not finite\n", name.c_str());
      return 1;
    }
    json += sep;
    json += "\"" + name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
