// fro_perfbench: the repository's closed-loop benchmark.
//
//   fro_perfbench --workload <serve_repeat|serve_unique|analytic_oj>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--dump-stream <n>]
//
// With --trace 0 the run measures the end-to-end metrics (qps, latency
// p50/p99, success fraction, set-up time, peak RSS); with --trace 1 it
// runs the traced layer-by-layer replay and reports the per-layer
// metrics instead. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// unless the arguments are bad, set-up fails, or an output differs from
// its reference.
//
// --dump-stream <n> prints the first n requests of each client's stream
// with their reference digests, and nothing else; the benchmark's own
// test uses it to check that a seed fixes the request stream.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--dump-stream") {
      args->dump_stream = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !(args->seconds > 0)) {
    std::fprintf(stderr, "need --workload and a positive --seconds\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::RunOutcome outcome;
  int code = 0;
  if (args.workload == "serve_repeat") {
    code = perfbench::RunServe(args, /*unique=*/false, &outcome);
  } else if (args.workload == "serve_unique") {
    code = perfbench::RunServe(args, /*unique=*/true, &outcome);
  } else if (args.workload == "analytic_oj") {
    code = perfbench::RunAnalytic(args, &outcome);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (code != 0 || args.dump_stream > 0) return code;
  perfbench::PrintResult(outcome.correct, outcome.attempted, outcome.failed,
                         outcome.metrics);
  return outcome.correct ? 0 : 1;
}
