#include "layers.h"

#include <algorithm>
#include <memory>

#include "exec/build.h"
#include "exec/stats_view.h"
#include "optimizer/cost.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "optimizer/rewrite_pass.h"

namespace perfbench {

namespace {

// Span-timed layers, reported as the median per-request duration.
const char* const kTimedLayers[] = {
    "server.session",          "server.render",
    "lang.parse",              "lang.translate",
    "algebra.parse",           "optimizer.optimize",
    "optimizer.cached_optimize", "optimizer.statistics",
    "optimizer.pass.simplify",
    "optimizer.pass.reorder",  "optimizer.pass.goj",
    "optimizer.pass.wcoj",     "optimizer.pass.acyclic",
    "optimizer.pass.pushdown", "optimizer.feedback_snapshot",
    "exec.build",              "exec.drain",
};

// Counters, reported as means per request.
const char* const kCounters[] = {
    "server.response_bytes", "lang.translated_rows",
    "optimizer.plans_considered", "exec.rows_out",
    "exec.tuples_read",      "exec.base_tuples_read",
    "exec.probes",           "exec.predicate_evals",
    "wcoj.cores_collapsed",  "acyclic.programs",
};

// Physical operators the serial batch engine builds; each gets an
// exec.self_us.<name> metric (mean self time per request).
const char* const kOperators[] = {
    "Scan",           "Filter",        "Project", "Union",
    "NestedLoopJoin", "HashJoin",      "SortMergeJoin",
    "Goj",            "LeapfrogTriejoin",
};

void AddOperatorSpans(Tracer* tracer, const fro::PlanOpStats& node,
                      int parent, int64_t start_ns) {
  const int64_t inclusive =
      static_cast<int64_t>(node.stats.open_ns + node.stats.next_ns);
  const int span =
      tracer->AddClosed("exec.op." + node.physical_name, parent, start_ns,
                        start_ns + inclusive);
  for (const fro::PlanOpStats& child : node.children) {
    AddOperatorSpans(tracer, child, span, start_ns);
  }
}

}  // namespace

void LayerProbe::BeginRequest(uint64_t id) {
  request_start_ns_ = NowNs();
  ++requests_;
  tracer_.BeginRequest(id);
  request_span_ = tracer_.Open("request");
}

void LayerProbe::EndRequest() {
  tracer_.Close(request_span_);
  busy_ns_ += NowNs() - request_start_ns_;
}

double LayerProbe::qps() const {
  return busy_ns_ == 0 ? 0.0
                       : static_cast<double>(requests_) /
                             (static_cast<double>(busy_ns_) / 1e9);
}

double OverheadFrac(const LayerProbe& untraced, const LayerProbe& traced) {
  return untraced.qps() > 0 ? 1.0 - traced.qps() / untraced.qps() : 0.0;
}

fro::Result<fro::Relation> LayerProbe::OptimizeAndExecute(
    const fro::ExprPtr& query, const fro::Database& db) {
  fro::OptimizeOutcome outcome;
  {
    ScopedSpan span(&tracer_, "optimizer.optimize");
    FRO_ASSIGN_OR_RETURN(outcome, fro::Optimize(query, db));
  }
  double plans_considered = 0;
  for (const fro::PassStats& pass : outcome.passes) {
    plans_considered += static_cast<double>(pass.plans_considered);
  }
  Count("optimizer.plans_considered", plans_considered);
  Count("wcoj.cores_collapsed", outcome.PassApplications("wcoj"));
  Count("acyclic.programs", outcome.PassApplications("acyclic"));

  // Each default pass alone, in pipeline order, on one shared state and
  // one cost model — what Optimize does inside, one call per pass.
  {
    const fro::OptimizeOptions defaults;
    // Constructing the cost model computes the per-column statistics of
    // every relation in `db`; Optimize pays this on each call.
    std::unique_ptr<fro::CostModel> cost_model;
    {
      ScopedSpan span(&tracer_, "optimizer.statistics");
      cost_model = std::make_unique<fro::CostModel>(db, defaults.cost_kind);
    }
    fro::RewriteContext context{db, *cost_model, defaults.max_dp_relations};
    fro::PlanState state;
    state.expr = query;
    for (const fro::RewritePassPtr& pass : defaults.pipeline.passes()) {
      ScopedSpan span(&tracer_,
                      "optimizer.pass." + std::string(pass->name()));
      std::vector<fro::PassStats> stats;
      FRO_RETURN_IF_ERROR(fro::RewritePipeline::Empty().Append(pass).Run(
          &state, context, &stats));
    }
    if (state.expr->hash() != outcome.plan->hash()) {
      return fro::Internal("pass-by-pass plan hash differs from Optimize");
    }
  }

  {
    fro::LruPlanCache cache(1);
    fro::OptimizeOptions cached;
    cached.plan_cache = &cache;
    FRO_RETURN_IF_ERROR(fro::Optimize(query, db, cached).status());
    fro::Result<fro::OptimizeOutcome> hit = fro::OptimizeOutcome();
    {
      ScopedSpan span(&tracer_, "optimizer.cached_optimize");
      hit = fro::Optimize(query, db, cached);
    }
    FRO_RETURN_IF_ERROR(hit.status());
    if (!hit->cache_hit || hit->plan->hash() != outcome.plan->hash()) {
      return fro::Internal("cached Optimize did not replay the plan");
    }
  }

  fro::BatchIteratorPtr root;
  {
    ScopedSpan span(&tracer_, "exec.build");
    root = fro::BuildBatchIterator(outcome.plan, db);
  }
  if (traced()) root->EnableTiming(true);
  fro::Result<fro::Relation> result = fro::Relation();
  int drain_span = -1;
  {
    ScopedSpan span(&tracer_, "exec.drain");
    drain_span = tracer_.current();
    result = fro::DrainChecked(root.get(), nullptr);
  }
  FRO_RETURN_IF_ERROR(result.status());
  const fro::PlanOpStats snapshot = fro::SnapshotPlanStats(root.get());
  if (traced()) {
    AddOperatorSpans(&tracer_, snapshot, drain_span,
                     tracer_.start_of(drain_span));
  }
  const fro::ExecStats totals = fro::SumPipelineStats(snapshot);
  Count("exec.rows_out", static_cast<double>(result->NumRows()));
  Count("exec.tuples_read", static_cast<double>(totals.tuples_read()));
  Count("exec.base_tuples_read",
        static_cast<double>(fro::BaseTuplesRead(snapshot)));
  Count("exec.probes", static_cast<double>(totals.probes));
  Count("exec.predicate_evals", static_cast<double>(totals.predicate_evals));

  fro::FeedbackStore throwaway;
  q_error_max_ = std::max(
      q_error_max_, fro::ObservePlanExecution(&throwaway, outcome.plan->hash(),
                                              snapshot, outcome.op_estimates));
  fro::ObservePlanExecution(&feedback_, outcome.plan->hash(), snapshot,
                            outcome.op_estimates);
  {
    ScopedSpan span(&tracer_, "optimizer.feedback_snapshot");
    const fro::CardinalityFeedback corrections = feedback_.Snapshot();
    (void)corrections;
  }
  return result;
}

void LayerProbe::AppendMetrics(std::vector<Metric>* out) const {
  const std::map<std::string, std::vector<double>> inclusive =
      tracer_.PerRequestUs(/*self_time=*/false);
  const std::map<std::string, std::vector<double>> self =
      tracer_.PerRequestUs(/*self_time=*/true);
  auto find = [](const std::map<std::string, std::vector<double>>& m,
                 const std::string& name) -> const std::vector<double>* {
    auto it = m.find(name);
    return it == m.end() ? nullptr : &it->second;
  };
  const double n = requests_ == 0 ? 1.0 : static_cast<double>(requests_);

  for (const char* layer : kTimedLayers) {
    const std::vector<double>* values = find(inclusive, layer);
    out->push_back({std::string(layer) + "_us",
                    values == nullptr ? 0.0 : Median(*values), "us"});
  }
  for (const char* counter : kCounters) {
    auto it = counts_.find(counter);
    const double sum = it == counts_.end() ? 0.0 : it->second;
    const std::string unit =
        std::string(counter) == "server.response_bytes" ? "bytes" : "count";
    out->push_back({counter, sum / n, unit});
  }
  for (const char* op : kOperators) {
    const std::vector<double>* values =
        find(self, std::string("exec.op.") + op);
    double sum = 0;
    if (values != nullptr) {
      for (double v : *values) sum += v;
    }
    out->push_back({std::string("exec.self_us.") + op, sum / n, "us"});
  }
  out->push_back({"optimizer.feedback_entries",
                  static_cast<double>(feedback_.stats().size), "count"});
  out->push_back({"optimizer.q_error_max", q_error_max_, "ratio"});
}

}  // namespace perfbench
