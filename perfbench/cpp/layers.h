// The traced run's layer-by-layer replay of one query: the benchmark
// calls each module's public functions itself, one span per call, and
// accumulates the per-layer counters. Serve workloads wrap it with the
// lang and server layers (serve.cc); analytic_oj with ParseAlgebra
// (analytic.cc).
//
// With tracing off the same calls run without spans and without
// operator timing; the difference in throughput between the two is
// trace.overhead_frac.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common.h"
#include "common/status.h"
#include "optimizer/feedback.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "trace.h"

namespace perfbench {

class LayerProbe {
 public:
  explicit LayerProbe(bool traced) : tracer_(traced) {}

  Tracer* tracer() { return &tracer_; }
  bool traced() const { return tracer_.enabled(); }

  /// Starts request `id`: opens its root span "request" (every other
  /// span of the request nests under it and shares the id), and the
  /// time until EndRequest counts as this probe's busy time.
  void BeginRequest(uint64_t id);
  void EndRequest();

  /// Requests per busy second.
  double qps() const;

  /// Optimizer and executor layers for one algebra query:
  ///   * Optimize with no cache (span optimizer.optimize);
  ///   * every pass of the default pipeline, each run alone through
  ///     RewritePipeline::Empty().Append(pass).Run on one PlanState
  ///     (spans optimizer.pass.<name>), after building their cost model
  ///     (span optimizer.statistics); the final plan hash must equal
  ///     Optimize's, else an error is returned;
  ///   * Optimize against a one-entry plan cache already holding the
  ///     plan (span optimizer.cached_optimize, must hit);
  ///   * BuildBatchIterator and DrainChecked (spans exec.build,
  ///     exec.drain, and one closed span per operator, exec.op.<name>);
  ///   * ObservePlanExecution into a throwaway store (worst Q-error) and
  ///     into the probe's running store, then FeedbackStore::Snapshot
  ///     (span optimizer.feedback_snapshot).
  fro::Result<fro::Relation> OptimizeAndExecute(const fro::ExprPtr& query,
                                                const fro::Database& db);

  /// Adds `value` to a counter reported as a mean per request.
  void Count(const std::string& name, double value) { counts_[name] += value; }

  /// Appends the per-layer metrics this probe measured. Timings are
  /// medians over requests of the span durations; operator self times
  /// and counters are means per request.
  void AppendMetrics(std::vector<Metric>* out) const;

 private:
  Tracer tracer_;
  /// Running store, fed like the server's: every request observes into
  /// it and snapshots it.
  fro::FeedbackStore feedback_;
  std::map<std::string, double> counts_;
  double q_error_max_ = 1.0;
  uint64_t requests_ = 0;
  int request_span_ = -1;
  int64_t request_start_ns_ = 0;
  int64_t busy_ns_ = 0;
};

/// trace.overhead_frac: the throughput the traced probe loses against
/// the untraced one. The replays alternate the two probes block by
/// block, so both see the same mix and the same machine.
double OverheadFrac(const LayerProbe& untraced, const LayerProbe& traced);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
