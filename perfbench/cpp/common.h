// Shared plumbing of the closed-loop benchmark program: command-line
// arguments, clocks, order statistics, result digests, and the one-line
// JSON report every run ends with.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "relational/relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window; the traced run splits it into
  /// phases (serve.cc, analytic.cc).
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string trace_out;
  /// Test mode: print the first `dump_stream` requests of the workload's
  /// request stream with their reference digests, then exit.
  int dump_stream = 0;
};

/// Median of `values` (0 when empty); takes a copy to sort.
double Median(std::vector<double> values);

/// Mean of the middle half of `values` once sorted: the lowest and the
/// highest quarter are dropped (0 when empty); takes a copy to sort.
double InterquartileMean(std::vector<double> values);

/// Nearest-rank quantile of `values`, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view bytes);

/// Order-independent digest of a bag of rows: each row is hashed over
/// its (attribute id, value) pairs in attribute-id order, and the row
/// hashes are summed after mixing, so neither row order nor column
/// order changes the digest. The row count is folded in.
uint64_t RelationDigest(const fro::Relation& relation);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One correct request of a closed loop.
struct Sample {
  float latency_us = 0;
  int32_t kind = 0;  // request shape or query kind, for the stderr breakdown
  int64_t end_ns = 0;  // completion time, NowNs()
};

/// An empty sample buffer whose `capacity` entries are already written
/// once, so its resident memory is the same whatever the throughput and
/// peak_rss_mb does not grow with the number of requests.
std::vector<Sample> SampleBuffer(size_t capacity);

/// Runs `work` in a forked child process and returns the bytes it
/// produced in `*out`. The references are computed this way: their
/// memory never counts in this process's peak RSS. Call only while the
/// process has a single thread. False when the child failed.
bool RunInChild(const std::function<std::string()>& work, std::string* out);

/// End-to-end figures of one closed-loop window. The window is cut, in
/// completion order, into kLoopBlocks blocks of equally many correct
/// requests (fewer blocks when there are under kMinBlockSamples per
/// block); qps, p50 and p95 are interquartile means of the per-block
/// figures, so a host stall that slows a few blocks does not move them,
/// while the middle half of the blocks is averaged. On a shared VM, whose
/// speed drifts over seconds, that spread less from run to run than the
/// median of the blocks did.
struct LoopSummary {
  /// Correct completions per second, over blocks; a block runs
  /// from the previous block's last completion (the window's start for
  /// the first) to its own last completion.
  double qps = 0;
  /// The blocks' nearest-rank quantiles, over blocks.
  double p50_us = 0;
  double p95_us = 0;
  /// Printed on stderr, not gated: on a shared VM it follows the host's
  /// scheduling stalls more than the program (perfbench/README.md).
  double p99_us = 0;
  /// Requests the latency quantiles are taken over.
  size_t samples = 0;
  size_t blocks = 0;
};

constexpr size_t kLoopBlocks = 20;
constexpr size_t kMinBlockSamples = 100;

/// The loop started at `start_ns`; p99 is over the whole window.
LoopSummary SummarizeLoop(const std::vector<Sample>& samples,
                          int64_t start_ns);

/// Prints request count, p50 and p99 per kind, then the overall
/// quantiles and sample count, to stderr.
void PrintPerKind(const std::vector<Sample>& samples,
                  const std::vector<std::string>& kind_names,
                  const LoopSummary& loop);

/// The six end-to-end metrics every workload reports (trace off).
/// `errors` counts failed, refused and wrong results.
std::vector<Metric> EndToEndMetrics(const LoopSummary& loop,
                                    uint64_t attempted, uint64_t errors,
                                    double setup_s, double peak_rss_mb);

/// What a workload run hands back to main.
struct RunOutcome {
  /// False when any output differed from its reference digest.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The last line of every run: {"correct", "attempted", "failed",
/// "metrics"}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
