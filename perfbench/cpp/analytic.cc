// analytic_oj: one in-process caller, closed loop, threads = 1. Each
// request is ParseAlgebra -> Optimize -> BuildBatchIterator ->
// DrainChecked over seeded relations of about 1.2 * 10^5 base rows in
// total, so hash tables and relations outgrow L2. There is no server
// and no lang work: the executor and its operators dominate.
//
// The mix, in a seeded order per round of seven requests:
//   example1   paper Example 1 at n = 7000, written in its naive
//              order R1 - (R2 -> R3); reorder finds (R1 - R2) -> R3
//   goj        X -> (Y - Z) over duplicate-free relations (Examples 2
//              and 3's topology, not freely reorderable); goj rewrites
//              it with identity 15's generalized outerjoin (eq. 14)
//   hash_join  a restriction on S over S - T; pushdown sinks it, so
//              the plan is scan -> filter -> hash join
//   left_oj    the same over S -> T: scan -> filter -> left outerjoin
//   oj_chain   the same over (S -> T) -> U, two left outerjoins
//              (freely reorderable; reorder runs the DP)
//   triangle   AGM-hard triangle; wcoj collapses it to leapfrog
//   chain      skewed dangling 3-chain; acyclic plans a semijoin
//              program
// Seven equally likely kinds put the median inside one kind's
// distribution rather than on the boundary between two.
//
// Correctness: before the run, a child process computes each kind's
// reference, Eval on the parsed (unoptimized) expression; every
// result's order-independent digest must equal it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/parse.h"
#include "common/rng.h"
#include "exec/build.h"
#include "layers.h"
#include "optimizer/optimizer.h"
#include "relational/database.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 11;
constexpr int kExample1Rows = 7000;
constexpr int kGojRows = 6000;
constexpr int kTriangleM = 500;
constexpr int kChainK = 400;

struct AnalyticQuery {
  std::string name;
  std::string text;
  /// The relations the query reads, one database per kind: Optimize
  /// computes statistics over every relation of its database.
  std::shared_ptr<const fro::Database> db;
};

/// A seeded permutation of [0, n).
std::vector<int64_t> Permutation(int64_t n, fro::Rng* rng) {
  std::vector<int64_t> p(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (size_t i = p.size(); i > 1; --i) {
    std::swap(p[i - 1], p[rng->Uniform(i)]);
  }
  return p;
}

void AddRows(fro::Database* db, fro::RelId rel,
             std::vector<std::vector<fro::Value>> rows, fro::Rng* rng) {
  // Row order is seeded too: it decides hash-table insertion order and
  // which batch a match lands in.
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng->Uniform(i)]);
  }
  for (std::vector<fro::Value>& row : rows) db->AddRow(rel, std::move(row));
}

fro::Value Int(int64_t v) { return fro::Value::Int(v); }

/// S(a, b) with `s_rows`, T(c, d) with `t_rows` and, when `u_rows` > 0,
/// U(e, f). S.a is uniform over 0..999, so `S.a < 175` keeps a fixed
/// share of S whatever the seed; about half of S.b finds a T.c.
std::shared_ptr<fro::Database> ScanDatabase(int64_t s_rows, int64_t t_rows,
                                            int64_t u_rows, fro::Rng* rng) {
  auto db = std::make_shared<fro::Database>();
  fro::RelId s = *db->AddRelation("S", {"a", "b"});
  fro::RelId t = *db->AddRelation("T", {"c", "d"});
  const std::vector<int64_t> tc = Permutation(t_rows, rng);
  std::vector<std::vector<fro::Value>> rs, rt, ru;
  for (int64_t i = 0; i < s_rows; ++i) {
    rs.push_back({Int(static_cast<int64_t>(rng->Uniform(1000))),
                  Int(static_cast<int64_t>(rng->Uniform(2 * t_rows)))});
  }
  const uint64_t d_range =
      static_cast<uint64_t>(std::max<int64_t>(1, 2 * u_rows));
  for (int64_t i = 0; i < t_rows; ++i) {
    rt.push_back({Int(tc[static_cast<size_t>(i)]),
                  Int(static_cast<int64_t>(rng->Uniform(d_range)))});
  }
  AddRows(db.get(), s, std::move(rs), rng);
  AddRows(db.get(), t, std::move(rt), rng);
  if (u_rows > 0) {
    fro::RelId u = *db->AddRelation("U", {"e", "f"});
    for (int64_t i = 0; i < u_rows; ++i) {
      ru.push_back({Int(i), Int(static_cast<int64_t>(rng->Uniform(100)))});
    }
    AddRows(db.get(), u, std::move(ru), rng);
  }
  return db;
}

/// Builds the relations and the seven queries for `seed`.
std::vector<AnalyticQuery> MakeData(uint64_t seed) {
  std::vector<AnalyticQuery> queries;
  fro::Rng rng(fro::DeriveSeed(seed, 200));

  // Example 1: R1(k) one row, R2(k, fk) and R3(k) n rows; R1.k matches one
  // R2 row, R2.fk = R3.k one-to-one.
  {
    auto db = std::make_shared<fro::Database>();
    const int64_t n = kExample1Rows;
    const std::vector<int64_t> fk = Permutation(n, &rng);
    fro::RelId r1 = *db->AddRelation("X1", {"k"});
    fro::RelId r2 = *db->AddRelation("X2", {"k", "fk"});
    fro::RelId r3 = *db->AddRelation("X3", {"k"});
    AddRows(db.get(), r1, {{Int(static_cast<int64_t>(rng.Uniform(n)))}}, &rng);
    std::vector<std::vector<fro::Value>> rows2, rows3;
    for (int64_t i = 0; i < n; ++i) {
      rows2.push_back({Int(i), Int(fk[static_cast<size_t>(i)])});
      rows3.push_back({Int(i)});
    }
    AddRows(db.get(), r2, std::move(rows2), &rng);
    AddRows(db.get(), r3, std::move(rows3), &rng);
    queries.push_back(
        {"example1", "(X1 -[X1.k = X2.k] (X2 ->[X2.fk = X3.k] X3))", db});
  }

  // GOJ: X(a), Y(b, c), Z(d), duplicate-free; half of Y has a Z partner.
  {
    auto db = std::make_shared<fro::Database>();
    const int64_t n = kGojRows;
    const std::vector<int64_t> yc = Permutation(n, &rng);
    fro::RelId x = *db->AddRelation("GX", {"a"});
    fro::RelId y = *db->AddRelation("GY", {"b", "c"});
    fro::RelId z = *db->AddRelation("GZ", {"d"});
    std::vector<std::vector<fro::Value>> rx, ry, rz;
    for (int64_t i = 0; i < n; ++i) {
      rx.push_back({Int(i)});
      ry.push_back({Int(i), Int(yc[static_cast<size_t>(i)])});
      if (rng.Bernoulli(0.5)) rz.push_back({Int(i)});
    }
    AddRows(db.get(), x, std::move(rx), &rng);
    AddRows(db.get(), y, std::move(ry), &rng);
    AddRows(db.get(), z, std::move(rz), &rng);
    queries.push_back(
        {"goj", "(GX ->[GX.a = GY.b] (GY -[GY.c = GZ.d] GZ))", db});
  }

  // Scan -> filter -> join: S(a, b) probes T(c, d); U(e, f) hangs off T.
  // Each kind has its own relations, sized so the kinds' latencies form
  // a ladder: the median request then sits inside hash_join's
  // latencies, not between two kinds'.
  // The restriction is written on top, as the lang translator writes
  // Where restrictions; reorder peels it and pushdown sinks it onto S.
  const std::string filter = "sigma[S.a < 175]";
  queries.push_back({"hash_join", filter + "((S -[S.b = T.c] T))",
                     ScanDatabase(16000, 8000, 0, &rng)});
  queries.push_back({"left_oj", filter + "((S ->[S.b = T.c] T))",
                     ScanDatabase(20000, 10000, 0, &rng)});
  queries.push_back({"oj_chain",
                     filter + "(((S ->[S.b = T.c] T) ->[T.d = U.e] U))",
                     ScanDatabase(20000, 10000, 4000, &rng)});

  // AGM-hard triangle: each edge relation is {hub} x V u V x {hub} u
  // {(hub, hub)} over seeded vertex labels; every pairwise join has
  // ~m^2 rows while the triangle output is O(m).
  {
    auto db = std::make_shared<fro::Database>();
    const std::vector<int64_t> label = Permutation(kTriangleM + 1, &rng);
    for (int r = 0; r < 3; ++r) {
      fro::RelId rel =
          *db->AddRelation("TR" + std::to_string(r), {"a0", "a1"});
      const int64_t hub = label[0];
      std::vector<std::vector<fro::Value>> rows = {{Int(hub), Int(hub)}};
      for (int j = 1; j <= kTriangleM; ++j) {
        rows.push_back({Int(hub), Int(label[static_cast<size_t>(j)])});
        rows.push_back({Int(label[static_cast<size_t>(j)]), Int(hub)});
      }
      AddRows(db.get(), rel, std::move(rows), &rng);
    }
    queries.push_back({"triangle",
                       "((TR0 -[TR0.a1 = TR1.a0] TR1) "
                       "-[TR1.a1 = TR2.a0 and TR2.a1 = TR0.a0] TR2)",
                       db});
  }

  // Skewed dangling chain C0(a0, a1) - C1 - C2: C1 carries K rows on the
  // heavy key shared with C0 whose other side dies toward C2, and K rows
  // the other way round, so every binary order builds a ~K^2 dead
  // intermediate; a few live rows fan out on both ends.
  {
    auto db = std::make_shared<fro::Database>();
    const int64_t off = static_cast<int64_t>(rng.Uniform(1000)) * 10000;
    const int64_t f = 8, s = 2, heavy1 = off + 1, heavy2 = off + 2;
    fro::RelId c0 = *db->AddRelation("C0", {"a0", "a1"});
    fro::RelId c1 = *db->AddRelation("C1", {"a0", "a1"});
    fro::RelId c2 = *db->AddRelation("C2", {"a0", "a1"});
    std::vector<std::vector<fro::Value>> r0, r1, r2;
    for (int64_t i = 1; i <= f; ++i) {
      r0.push_back({Int(i), Int(off)});
      r2.push_back({Int(off), Int(i)});
    }
    for (int64_t j = 1; j <= kChainK; ++j) {
      r0.push_back({Int(j), Int(heavy1)});
      r2.push_back({Int(heavy2), Int(j)});
      r1.push_back({Int(heavy1), Int(off + 1000 + j)});
      r1.push_back({Int(off + 1000 + kChainK + j), Int(heavy2)});
    }
    for (int64_t i = 0; i < s; ++i) r1.push_back({Int(off), Int(off)});
    AddRows(db.get(), c0, std::move(r0), &rng);
    AddRows(db.get(), c1, std::move(r1), &rng);
    AddRows(db.get(), c2, std::move(r2), &rng);
    queries.push_back(
        {"chain", "((C0 -[C0.a1 = C1.a0] C1) -[C1.a1 = C2.a0] C2)", db});
  }
  return queries;
}

/// Seeded order of the mix: each round of seven requests is one seeded
/// permutation of the seven kinds.
class Mix {
 public:
  Mix(uint64_t seed, uint64_t lane, int kinds)
      : rng_(fro::DeriveSeed(seed, 300 + lane)), kinds_(kinds) {}

  int Next() {
    if (pos_ == round_.size()) {
      round_.clear();
      for (int k = 0; k < kinds_; ++k) round_.push_back(k);
      for (size_t i = round_.size(); i > 1; --i) {
        std::swap(round_[i - 1], round_[rng_.Uniform(i)]);
      }
      pos_ = 0;
    }
    return round_[pos_++];
  }

 private:
  fro::Rng rng_;
  int kinds_;
  std::vector<int> round_;
  size_t pos_ = 0;
};

/// The production path of one request.
fro::Result<fro::Relation> RunOnce(const AnalyticQuery& q) {
  const fro::Database& db = *q.db;
  FRO_ASSIGN_OR_RETURN(fro::ExprPtr expr, fro::ParseAlgebra(q.text, db));
  FRO_ASSIGN_OR_RETURN(fro::OptimizeOutcome outcome, fro::Optimize(expr, db));
  fro::BatchIteratorPtr root = fro::BuildBatchIterator(outcome.plan, db);
  return fro::DrainChecked(root.get(), nullptr);
}

/// Eval references, one per kind: a child process (RunInChild)
/// generates the same relations from the seed and evaluates each query
/// as written, unoptimized, with the materializing evaluator.
bool ComputeReferences(uint64_t seed, std::vector<uint64_t>* out) {
  std::string bytes;
  const bool ok = RunInChild(
      [seed] {
        std::string text;
        for (const AnalyticQuery& q : MakeData(seed)) {
          fro::Result<fro::ExprPtr> expr = fro::ParseAlgebra(q.text, *q.db);
          if (!expr.ok()) return std::string();
          text += std::to_string(RelationDigest(fro::Eval(*expr, *q.db))) +
                  "\n";
        }
        return text;
      },
      &bytes);
  out->clear();
  const char* p = bytes.c_str();
  char* end = nullptr;
  for (uint64_t v = std::strtoull(p, &end, 10); end != p;
       v = std::strtoull(p, &end, 10)) {
    out->push_back(v);
    p = end;
  }
  return ok;
}

/// Replays the mix until `end_ns`, alternating rounds of seven requests
/// between the untraced and the traced probe; returns requests.
uint64_t Replay(uint64_t seed, const std::vector<AnalyticQuery>& queries,
                const std::vector<uint64_t>& refs, LayerProbe* untraced,
                LayerProbe* traced, int64_t end_ns, uint64_t* failed,
                uint64_t* mismatches) {
  Mix mix(seed, 1, static_cast<int>(queries.size()));
  uint64_t n = 0;
  while (NowNs() < end_ns) {
    const int kind = mix.Next();
    const AnalyticQuery& q = queries[static_cast<size_t>(kind)];
    LayerProbe* probe = (n / queries.size()) % 2 == 0 ? untraced : traced;
    probe->BeginRequest(n++);
    fro::Result<fro::ExprPtr> expr = fro::ExprPtr();
    {
      ScopedSpan span(probe->tracer(), "algebra.parse");
      expr = fro::ParseAlgebra(q.text, *q.db);
    }
    fro::Result<fro::Relation> result =
        expr.ok() ? probe->OptimizeAndExecute(*expr, *q.db)
                  : fro::Result<fro::Relation>(expr.status());
    probe->EndRequest();
    if (!result.ok()) {
      ++*failed;
    } else if (RelationDigest(*result) != refs[static_cast<size_t>(kind)]) {
      ++*failed;
      ++*mismatches;
    }
  }
  return n;
}

}  // namespace

int RunAnalytic(const Args& args, RunOutcome* outcome) {
  std::vector<uint64_t> refs;
  if (!ComputeReferences(args.seed, &refs)) {
    std::fprintf(stderr, "reference computation failed\n");
    return 1;
  }

  if (args.dump_stream > 0) {
    const std::vector<AnalyticQuery> queries = MakeData(args.seed);
    Mix mix(args.seed, 0, static_cast<int>(queries.size()));
    for (int i = 0; i < args.dump_stream; ++i) {
      const size_t kind = static_cast<size_t>(mix.Next());
      std::printf("0\t%016llx\t%s\n",
                  static_cast<unsigned long long>(refs[kind]),
                  queries[kind].text.c_str());
    }
    return 0;
  }

  // Set-up: generate the relations, then run each query once so lazy
  // state (columnar mirrors, first-touch allocations) is in place.
  // setup_s is the median of kSetups set-ups: the first serves the run,
  // the others happen after the window and after peak_rss_mb is read.
  std::vector<double> setup_seconds;
  auto timed_set_up = [&](std::vector<AnalyticQuery>* queries) {
    const int64_t start = NowNs();
    *queries = MakeData(args.seed);
    for (const AnalyticQuery& q : *queries) {
      fro::Result<fro::Relation> r = RunOnce(q);
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up of %s failed: %s\n", q.name.c_str(),
                     r.status().ToString().c_str());
        return false;
      }
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return true;
  };
  std::vector<AnalyticQuery> queries;
  if (!timed_set_up(&queries)) return 1;
  if (refs.size() != queries.size()) {
    std::fprintf(stderr, "reference computation failed\n");
    return 1;
  }

  uint64_t mismatches = 0;
  if (!args.trace) {
    // The closed loop: one caller; each result is checked against its
    // kind's reference after the request's timing stops.
    std::vector<Sample> samples = SampleBuffer(1 << 16);
    Mix mix(args.seed, 0, static_cast<int>(queries.size()));
    const int64_t loop_start = NowNs();
    const int64_t loop_end =
        loop_start + static_cast<int64_t>(args.seconds * 1e9);
    int64_t last_end_ns = loop_start;
    while (NowNs() < loop_end) {
      const size_t kind = static_cast<size_t>(mix.Next());
      ++outcome->attempted;
      const int64_t start_ns = NowNs();
      fro::Result<fro::Relation> r = RunOnce(queries[kind]);
      last_end_ns = NowNs();
      if (!r.ok()) {
        ++outcome->failed;
      } else if (RelationDigest(*r) != refs[kind]) {
        ++outcome->failed;
        if (++mismatches <= 3) {
          std::fprintf(stderr, "mismatch on %s\n", queries[kind].name.c_str());
        }
      } else {
        samples.push_back(
            {static_cast<float>(last_end_ns - start_ns) / 1000.0f,
             static_cast<int32_t>(kind), last_end_ns});
      }
    }
    const double peak_rss_mb = PeakRssMb();
    const LoopSummary loop = SummarizeLoop(samples, loop_start);
    size_t base_rows = 0;
    for (const AnalyticQuery& q : queries) {
      for (fro::RelId rel = 0; rel < q.db->num_relations(); ++rel) {
        base_rows += q.db->relation(rel).NumRows();
      }
    }
    std::vector<std::string> kind_names;
    for (const AnalyticQuery& q : queries) kind_names.push_back(q.name);
    PrintPerKind(samples, kind_names, loop);
    std::fprintf(stderr,
                 "analytic_oj: %llu requests (%zu ok) over %.1f s, 1 caller, "
                 "%zu base rows\n",
                 static_cast<unsigned long long>(outcome->attempted),
                 loop.samples, args.seconds, base_rows);
    for (int i = 1; i < kSetups; ++i) {
      std::vector<AnalyticQuery> extra;
      if (!timed_set_up(&extra)) return 1;
    }
    outcome->metrics =
        EndToEndMetrics(loop, outcome->attempted, outcome->failed,
                        Median(setup_seconds), peak_rss_mb);
    outcome->correct = mismatches == 0;
    return 0;
  }

  uint64_t replay_failed = 0;
  LayerProbe untraced(/*traced=*/false);
  LayerProbe traced(/*traced=*/true);
  outcome->attempted +=
      Replay(args.seed, queries, refs, &untraced, &traced,
             NowNs() + static_cast<int64_t>(args.seconds * 1e9),
             &replay_failed, &mismatches);
  outcome->failed += replay_failed;

  // No server and no plan cache on this workload.
  std::vector<Metric>& m = outcome->metrics;
  m.push_back({"server.ping_rtt_us", 0.0, "us"});
  m.push_back({"server.ast_hit_rate", 0.0, "fraction"});
  m.push_back({"optimizer.plan_cache_hit_rate", 0.0, "fraction"});
  m.push_back({"optimizer.plan_cache_evictions", 0.0, "count"});
  traced.AppendMetrics(&m);
  m.push_back({"trace.overhead_frac", OverheadFrac(untraced, traced),
               "fraction"});
  if (!args.trace_out.empty() &&
      !traced.tracer()->WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  outcome->correct = mismatches == 0;
  return 0;
}

}  // namespace perfbench
