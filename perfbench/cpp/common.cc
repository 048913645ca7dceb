#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t lo = values.size() / 4;
  const size_t hi = values.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t RelationDigest(const fro::Relation& relation) {
  const std::vector<fro::AttrId>& cols = relation.scheme().cols();
  std::vector<size_t> order(cols.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return cols[a] < cols[b]; });
  uint64_t sum = Mix(relation.NumRows());
  for (const fro::Tuple& row : relation.rows()) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t i : order) {
      const fro::Value& v = row.value(i);
      h = Mix(h ^ static_cast<uint64_t>(cols[i]));
      h = Mix(h ^ (static_cast<uint64_t>(v.kind()) << 56) ^ v.Hash());
    }
    sum += Mix(h);
  }
  return sum;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Sample> SampleBuffer(size_t capacity) {
  std::vector<Sample> buffer(capacity);
  buffer.clear();
  return buffer;
}

bool RunInChild(const std::function<std::string()>& work, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string bytes = work();
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          write(fds[1], bytes.data() + written, bytes.size() - written);
      if (n <= 0) _exit(1);
      written += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  out->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    out->append(chunk, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

LoopSummary SummarizeLoop(const std::vector<Sample>& samples,
                          int64_t start_ns) {
  LoopSummary out;
  std::vector<Sample> by_end = samples;
  std::sort(by_end.begin(), by_end.end(), [](const Sample& a, const Sample& b) {
    return a.end_ns < b.end_ns;
  });
  std::vector<double> latencies_us;
  latencies_us.reserve(by_end.size());
  for (const Sample& s : by_end) latencies_us.push_back(s.latency_us);
  out.samples = latencies_us.size();
  out.p99_us = Quantile(latencies_us, 0.99);
  out.blocks = std::max<size_t>(
      1, std::min(kLoopBlocks, out.samples / kMinBlockSamples));
  std::vector<double> qps, p50, p95;
  int64_t block_start_ns = start_ns;
  for (size_t b = 0; b < out.blocks && out.samples > 0; ++b) {
    const size_t lo = out.samples * b / out.blocks;
    const size_t hi = out.samples * (b + 1) / out.blocks;
    const std::vector<double> block(latencies_us.begin() + lo,
                                    latencies_us.begin() + hi);
    const int64_t block_end_ns = by_end[hi - 1].end_ns;
    qps.push_back(static_cast<double>(hi - lo) /
                  (static_cast<double>(block_end_ns - block_start_ns) / 1e9));
    p50.push_back(Quantile(block, 0.50));
    p95.push_back(Quantile(block, 0.95));
    block_start_ns = block_end_ns;
  }
  out.qps = InterquartileMean(qps);
  out.p50_us = InterquartileMean(p50);
  out.p95_us = InterquartileMean(p95);
  return out;
}

void PrintPerKind(const std::vector<Sample>& samples,
                  const std::vector<std::string>& kind_names,
                  const LoopSummary& loop) {
  std::vector<std::vector<double>> us(kind_names.size());
  for (const Sample& s : samples) {
    us[static_cast<size_t>(s.kind)].push_back(s.latency_us);
  }
  for (size_t k = 0; k < kind_names.size(); ++k) {
    std::fprintf(stderr, "  %-10s %6zu requests, p50 %7.0f us, p99 %7.0f us\n",
                 kind_names[k].c_str(), us[k].size(), Quantile(us[k], 0.5),
                 Quantile(us[k], 0.99));
  }
  std::fprintf(stderr,
               "  all        %6zu requests; interquartile means over %zu "
               "blocks: p50 %7.0f us, p95 %7.0f us; whole-window p99 %7.0f "
               "us\n",
               loop.samples, loop.blocks, loop.p50_us, loop.p95_us,
               loop.p99_us);
}

std::vector<Metric> EndToEndMetrics(const LoopSummary& loop,
                                    uint64_t attempted, uint64_t errors,
                                    double setup_s, double peak_rss_mb) {
  const double success =
      attempted == 0 ? 0.0
                     : 1.0 - static_cast<double>(errors) /
                                 static_cast<double>(attempted);
  return {
      {"qps", loop.qps, "1/s"},
      {"latency_p50_us", loop.p50_us, "us"},
      {"latency_p95_us", loop.p95_us, "us"},
      {"success_frac", success, "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
