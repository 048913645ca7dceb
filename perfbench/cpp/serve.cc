// serve_repeat and serve_unique: an in-process FroServer on loopback
// with one worker, driven by one closed-loop FroClient connection (the
// client sends its next request only after the previous reply), over
// MakeScaledCompanyNestedDb(50). One client and one worker take turns,
// so a single thread is runnable at a time: with more threads than a
// shared host reliably gives, the loop measured the host's scheduling
// more than the server.
//
// Traffic: seven selective Section 5 query shapes with one to seven
// tuple variables. Every text restricts D1 (or E1) to one department
// and carries `E1.Rank < r`. Each round of kNumClasses requests is one
// seeded permutation of the (shape, department) classes, so every block
// of the loop has the same mix and the median request stays inside one
// class's latencies instead of moving between classes:
//   * serve_repeat draws from 7 shapes x 12 seeded departments = 84
//     texts with r fixed, fewer than the plan cache (128) and the AST
//     memo (256) hold, so after warm-up both always hit;
//   * serve_unique draws the same shapes and departments but every
//     request carries a fresh r, so no text or plan ever repeats.
// Ranks in the data are small non-negative integers, so `E1.Rank < r`
// is true for every r used here (checked before measuring): both
// workloads return the same result for a (shape, department) class, and
// one reference per class serves every request of the class.
//
// Correctness: before the server starts, a child process computes each
// class's reference with the Eval reference evaluator (see References)
// and renders it as the server renders; every response body is compared
// with its class's digest after the request's timing stops. Transport
// failures, ERR replies and mismatches all count as failed requests; a
// dropped connection is re-opened and the loop goes on.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/eval.h"
#include "common/rng.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "layers.h"
#include "relational/pretty.h"
#include "server/client.h"
#include "server/metrics.h"
#include "server/server.h"
#include "server/session.h"
#include "testing/nested_sample.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kScale = 50;
constexpr int kClients = 1;
constexpr int kWorkers = 1;
constexpr int kDepartments = 12;
constexpr int kSetups = 11;
constexpr int kUniqueWarmup = 64;
constexpr int kPings = 400;
/// `E1.Rank < kRepeatRank` in every serve_repeat text; serve_unique uses
/// fresh bounds above it.
constexpr int64_t kRepeatRank = 1000;

/// A query shape: its From list, its join conjuncts (may be empty), and
/// the column restricted to one department. Instantiate appends
/// `<dept_column> = d and E1.Rank < r`.
struct Shape {
  const char* from;
  const char* joins;
  const char* dept_qualifier;
  const char* dept_field;
};

const Shape kShapes[] = {
    {"EMPLOYEE E1", "", "E1", "D#"},
    {"EMPLOYEE E1*ChildName, DEPARTMENT D1", "E1.D# = D1.D#", "D1", "D#"},
    {"EMPLOYEE E1, DEPARTMENT D1-->Manager-->Audit, EMPLOYEE E2",
     "E1.D# = D1.D# and E2.D# = D1.D#", "D1", "D#"},
    {"EMPLOYEE E1, DEPARTMENT D1-->Secretary, EMPLOYEE E2*ChildName, "
     "DEPARTMENT D2",
     "E1.D# = D1.D# and E2.Rank = E1.Rank and E2.D# = D2.D#", "D1", "D#"},
    {"EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, DEPARTMENT D2, EMPLOYEE E3",
     "E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank and "
     "E3.D# = D2.D#",
     "D1", "D#"},
    {"EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, DEPARTMENT D2, EMPLOYEE E3, "
     "DEPARTMENT D3-->Manager",
     "E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank and "
     "E3.D# = D2.D# and D3.D# = E3.D#",
     "D1", "D#"},
    {"EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, DEPARTMENT D2, EMPLOYEE E3, "
     "DEPARTMENT D3, EMPLOYEE E4",
     "E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank and "
     "E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank and "
     "D3.D# = E3.D#",
     "D1", "D#"},
};
constexpr int kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);
constexpr int kNumClasses = kNumShapes * kDepartments;

std::string Instantiate(int shape, int64_t department, int64_t rank) {
  const Shape& s = kShapes[shape];
  std::string text = std::string("Select All From ") + s.from + " Where ";
  if (*s.joins != '\0') text += std::string(s.joins) + " and ";
  text += std::string(s.dept_qualifier) + "." + s.dept_field + " = " +
          std::to_string(department) + " and E1.Rank < " +
          std::to_string(rank);
  return text;
}

struct Query {
  std::string text;
  int cls = 0;  // shape * kDepartments + department index
};

/// One lane's deterministic request sequence. Lanes 0..kClients-1 are
/// the loop's clients; kClients is warm-up, kClients + 1 the traced
/// replay. Fresh ranks are distinct across lanes and requests.
class Stream {
 public:
  static constexpr int kLanes = kClients + 2;

  Stream(uint64_t seed, int lane, bool unique,
         const std::vector<int64_t>& departments)
      : rng_(fro::DeriveSeed(seed, 100 + static_cast<uint64_t>(lane))),
        lane_(lane),
        unique_(unique),
        departments_(departments) {
    fro::Rng base(fro::DeriveSeed(seed, 99));
    rank_base_ = kRepeatRank + 1 + static_cast<int64_t>(base.Uniform(1u << 30));
  }

  Query Next() {
    if (next_ % kNumClasses == 0) {
      for (int i = 0; i < kNumClasses; ++i) round_[i] = i;
      for (int i = kNumClasses; i > 1; --i) {
        const uint64_t j = rng_.Uniform(static_cast<uint64_t>(i));
        std::swap(round_[i - 1], round_[j]);
      }
    }
    const int cls = round_[next_ % kNumClasses];
    const int64_t rank =
        unique_ ? rank_base_ + next_ * kLanes + lane_ : kRepeatRank;
    ++next_;
    return {Instantiate(cls / kDepartments,
                        departments_[static_cast<size_t>(cls % kDepartments)],
                        rank),
            cls};
  }

 private:
  fro::Rng rng_;
  int64_t lane_;
  bool unique_;
  const std::vector<int64_t>& departments_;
  int64_t rank_base_ = 0;
  int64_t next_ = 0;
  int round_[kNumClasses] = {};
};

/// kDepartments department numbers, a third of each kind the scaled
/// company database has per copy (two employees, one, none), from
/// seeded copies — so every seed draws the same mix of result sizes.
std::vector<int64_t> ChooseDepartments(uint64_t seed) {
  fro::Rng rng(fro::DeriveSeed(seed, 98));
  std::vector<int64_t> copies;
  for (int64_t c = 0; c < kScale; ++c) copies.push_back(c);
  std::vector<int64_t> out;
  for (int64_t kind = 1; kind <= 3; ++kind) {
    for (size_t i = 0; i < kDepartments / 3; ++i) {
      const size_t j = i + rng.Uniform(copies.size() - i);
      std::swap(copies[i], copies[j]);
      out.push_back(copies[i] * 3 + kind);
    }
  }
  return out;
}

/// Digest of a rendered result: FNV-1a of the table and its row count.
struct BodyDigest {
  uint64_t table = 0;
  int64_t rows = -1;
  bool operator==(const BodyDigest& o) const {
    return table == o.table && rows == o.rows;
  }
};

/// Splits a QUERY body — the canonical table, then one
/// "(<rows> rows; <notes>)" line — into its digest.
bool DigestBody(const std::string& body, BodyDigest* out) {
  if (body.size() < 2 || body.back() != '\n') return false;
  size_t line = body.rfind('\n', body.size() - 2);
  line = line == std::string::npos ? 0 : line + 1;
  if (body[line] != '(') return false;
  out->table = Fnv1a(std::string_view(body).substr(0, line));
  out->rows = std::strtoll(body.c_str() + line + 1, nullptr, 10);
  return true;
}

std::string RenderTable(const fro::Relation& relation,
                        const fro::Catalog& catalog) {
  fro::PrettyOptions pretty;
  pretty.canonical = true;
  pretty.max_rows = static_cast<size_t>(-1);
  return fro::PrettyTable(relation, &catalog, pretty);
}

/// Eval references. Evaluating a six- or seven-variable shape with its
/// department restriction on top costs about a second per department,
/// so each shape is evaluated once without the two restriction
/// conjuncts, and a class's reference keeps the rows whose department
/// column equals the class's department and whose E1.Rank is below
/// kRepeatRank — the restriction, applied by this file to Eval's
/// output — rendered as the server renders.
class References {
 public:
  References(const fro::NestedDb& db, const std::vector<int64_t>& departments)
      : db_(db), departments_(departments) {}

  BodyDigest Get(int cls) {
    BodyDigest digest;
    const Unrestricted& base = Base(cls / kDepartments);
    if (!base.ok) return digest;
    const fro::Value dept = fro::Value::Int(
        departments_[static_cast<size_t>(cls % kDepartments)]);
    fro::Relation kept(base.relation.scheme());
    for (const fro::Tuple& row : base.relation.rows()) {
      const fro::Value& rank = row.value(base.rank_col);
      if (row.value(base.dept_col) == dept &&
          rank.kind() == fro::Value::Kind::kInt &&
          rank.AsInt() < kRepeatRank) {
        kept.AddRow(row);
      }
    }
    digest.table = Fnv1a(RenderTable(kept, base.translation.db->catalog()));
    digest.rows = static_cast<int64_t>(kept.NumRows());
    return digest;
  }

 private:
  struct Unrestricted {
    bool ok = false;
    fro::TranslationResult translation;
    fro::Relation relation;
    size_t dept_col = 0;
    size_t rank_col = 0;
  };

  const Unrestricted& Base(int shape) {
    auto it = bases_.find(shape);
    if (it != bases_.end()) return it->second;
    Unrestricted& base = bases_[shape];
    const Shape& s = kShapes[shape];
    std::string text = std::string("Select All From ") + s.from;
    if (*s.joins != '\0') text += std::string(" Where ") + s.joins;
    fro::Result<fro::SelectQuery> ast = fro::ParseQuery(text);
    if (!ast.ok()) return base;
    fro::Result<fro::TranslationResult> t = fro::TranslateQuery(db_, *ast);
    if (!t.ok()) return base;
    base.translation = std::move(*t);
    const fro::Catalog& catalog = base.translation.db->catalog();
    fro::Result<fro::AttrId> dept =
        catalog.FindAttr(s.dept_qualifier, s.dept_field);
    fro::Result<fro::AttrId> rank = catalog.FindAttr("E1", "Rank");
    if (!dept.ok() || !rank.ok()) return base;
    base.relation = fro::Eval(base.translation.query, *base.translation.db);
    const int dept_col = base.relation.scheme().IndexOf(*dept);
    const int rank_col = base.relation.scheme().IndexOf(*rank);
    if (dept_col < 0 || rank_col < 0) return base;
    base.dept_col = static_cast<size_t>(dept_col);
    base.rank_col = static_cast<size_t>(rank_col);
    base.ok = true;
    return base;
  }

  const fro::NestedDb& db_;
  const std::vector<int64_t>& departments_;
  std::map<int, Unrestricted> bases_;
};

/// Every EMPLOYEE Rank must be a non-null integer below kRepeatRank for
/// `E1.Rank < r` to select all rows for every r the streams use.
bool RankBoundHolds(const fro::NestedDb& db) {
  const int rank_field = db.FindType("EMPLOYEE")->FieldIndex("Rank");
  for (const fro::EntityRow& row : db.Rows("EMPLOYEE")) {
    const fro::Value& rank =
        row.fields[static_cast<size_t>(rank_field)].scalar;
    if (rank.kind() != fro::Value::Kind::kInt || rank.AsInt() < 0 ||
        rank.AsInt() >= kRepeatRank) {
      return false;
    }
  }
  return true;
}

struct Fixture {
  std::unique_ptr<fro::NestedDb> db;
  std::unique_ptr<fro::FroServer> server;
};

/// Builds the database, starts the server and warms it up; the part of
/// a run reported as setup_s.
fro::Status SetUp(uint64_t seed, bool unique,
                  const std::vector<int64_t>& departments, Fixture* f) {
  f->db = std::make_unique<fro::NestedDb>(
      fro::MakeScaledCompanyNestedDb(kScale));
  fro::ServerOptions options;
  options.num_workers = kWorkers;
  options.max_pending = 2 * kWorkers;
  f->server = std::make_unique<fro::FroServer>(f->db.get(), options);
  FRO_RETURN_IF_ERROR(f->server->Start());
  fro::FroClient client;
  FRO_RETURN_IF_ERROR(client.Connect("127.0.0.1", f->server->port()));
  // serve_repeat: every text once, so the AST memo and the plan cache
  // hold them all. serve_unique: fresh texts, to warm code and heap.
  std::vector<std::string> texts;
  if (unique) {
    Stream warm(seed, kClients, /*unique=*/true, departments);
    for (int i = 0; i < kUniqueWarmup; ++i) texts.push_back(warm.Next().text);
  } else {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      texts.push_back(Instantiate(
          cls / kDepartments,
          departments[static_cast<size_t>(cls % kDepartments)], kRepeatRank));
    }
  }
  for (const std::string& text : texts) {
    fro::Result<fro::Response> r = client.Query(text);
    if (!r.ok()) return r.status();
    if (!r->status.ok()) return r->status;
  }
  return fro::Status::Ok();
}

/// Every class's reference digest, computed in a child process
/// (RunInChild) before the server starts.
bool ComputeReferences(const std::vector<int64_t>& departments,
                       std::vector<BodyDigest>* out) {
  std::string bytes;
  const bool ok = RunInChild(
      [&departments] {
        const fro::NestedDb db = fro::MakeScaledCompanyNestedDb(kScale);
        References refs(db, departments);
        std::string text;
        for (int cls = 0; cls < kNumClasses; ++cls) {
          const BodyDigest d = refs.Get(cls);
          text += std::to_string(d.table) + " " + std::to_string(d.rows) +
                  "\n";
        }
        return text;
      },
      &bytes);
  out->assign(kNumClasses, BodyDigest());
  const char* p = bytes.c_str();
  for (int cls = 0; ok && cls < kNumClasses; ++cls) {
    char* end = nullptr;
    (*out)[static_cast<size_t>(cls)].table = std::strtoull(p, &end, 10);
    (*out)[static_cast<size_t>(cls)].rows = std::strtoll(end, &end, 10);
    p = end;
  }
  return ok && (*out)[kNumClasses - 1].rows >= 0;
}

/// What one client of the loop saw.
struct ClientLog {
  std::vector<Sample> samples;  // successful, correct requests
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
};

/// The closed loop: kClients threads, each on its own connection, until
/// `end_ns`. Each reply is checked against its class reference after
/// its timing stops. A transport failure, an ERR reply or a wrong result
/// is a failed request; a dropped connection is re-opened for the next
/// request, and no request is retried.
std::vector<ClientLog> RunLoop(uint64_t seed, bool unique,
                               const std::vector<int64_t>& depts,
                               const std::vector<BodyDigest>& refs, int port,
                               int64_t end_ns) {
  std::vector<ClientLog> logs(kClients);
  for (ClientLog& log : logs) log.samples = SampleBuffer(1 << 18);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Stream stream(seed, c, unique, depts);
      ClientLog& log = logs[static_cast<size_t>(c)];
      fro::FroClient client;
      while (NowNs() < end_ns) {
        ++log.attempted;
        if (!client.connected() &&
            !client.Connect("127.0.0.1", port).ok()) {
          ++log.failed;
          continue;
        }
        const Query q = stream.Next();
        const int64_t start_ns = NowNs();
        fro::Result<fro::Response> r = client.Query(q.text);
        const int64_t done_ns = NowNs();
        BodyDigest got;
        if (!r.ok()) {
          client.Close();
          ++log.failed;
        } else if (!r->status.ok() || !DigestBody(r->body, &got)) {
          ++log.failed;
        } else if (!(got == refs[static_cast<size_t>(q.cls)])) {
          ++log.failed;
          if (++log.mismatches <= 3) {
            std::fprintf(stderr,
                         "mismatch: got %lld rows, reference %lld: %s\n",
                         static_cast<long long>(got.rows),
                         static_cast<long long>(
                             refs[static_cast<size_t>(q.cls)].rows),
                         q.text.c_str());
          }
        } else {
          log.samples.push_back(
              {static_cast<float>(done_ns - start_ns) / 1000.0f,
               q.cls / kDepartments, done_ns});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

/// Outcome of one replayed request.
enum class Check { kOk, kFailed, kMismatch };

/// One request through the lang, optimizer, executor and server-session
/// layers, one public call at a time.
Check ReplayOne(const Query& q, const fro::NestedDb& db,
                fro::QuerySession* session, LayerProbe* probe,
                const std::vector<BodyDigest>& refs) {
  Tracer* tracer = probe->tracer();
  fro::Result<fro::SelectQuery> ast = fro::SelectQuery();
  {
    ScopedSpan span(tracer, "lang.parse");
    ast = fro::ParseQuery(q.text);
  }
  if (!ast.ok()) return Check::kFailed;
  fro::Result<fro::TranslationResult> t = fro::TranslationResult();
  {
    ScopedSpan span(tracer, "lang.translate");
    t = fro::TranslateQuery(db, *ast);
  }
  if (!t.ok()) return Check::kFailed;
  double translated_rows = 0;
  for (fro::RelId rel = 0; rel < t->db->num_relations(); ++rel) {
    translated_rows += static_cast<double>(t->db->relation(rel).NumRows());
  }
  probe->Count("lang.translated_rows", translated_rows);
  fro::Result<fro::Relation> result =
      probe->OptimizeAndExecute(t->query, *t->db);
  if (!result.ok()) return Check::kFailed;
  std::string table;
  {
    ScopedSpan span(tracer, "server.render");
    table = RenderTable(*result, t->db->catalog());
  }
  fro::Request request;
  request.verb = fro::Verb::kQuery;
  request.argument = q.text;
  fro::Response response;
  {
    ScopedSpan span(tracer, "server.session");
    response = session->Execute(request, nullptr);
  }
  probe->Count("server.response_bytes",
               static_cast<double>(response.body.size()));
  BodyDigest via_session;
  if (!response.status.ok() || !DigestBody(response.body, &via_session)) {
    return Check::kFailed;
  }
  const BodyDigest via_layers{Fnv1a(table),
                              static_cast<int64_t>(result->NumRows())};
  const BodyDigest& want = refs[static_cast<size_t>(q.cls)];
  return via_layers == want && via_session == want ? Check::kOk
                                                   : Check::kMismatch;
}

/// Replays lane kClients + 1's stream in-process until `end_ns`,
/// alternating requests between the untraced and the traced probe.
/// Returns the number of requests replayed.
uint64_t Replay(uint64_t seed, bool unique, const std::vector<int64_t>& depts,
                const fro::NestedDb& db, fro::QuerySession* session,
                LayerProbe* untraced, LayerProbe* traced,
                const std::vector<BodyDigest>& refs,
                int64_t end_ns, uint64_t* failed, uint64_t* mismatches) {
  Stream stream(seed, kClients + 1, unique, depts);
  uint64_t n = 0;
  while (NowNs() < end_ns) {
    const Query q = stream.Next();
    LayerProbe* probe = n % 2 == 0 ? untraced : traced;
    probe->BeginRequest(n++);
    const Check check = ReplayOne(q, db, session, probe, refs);
    probe->EndRequest();
    if (check != Check::kOk) ++*failed;
    if (check == Check::kMismatch) ++*mismatches;
  }
  return n;
}

double Rate(uint64_t hits, uint64_t total) {
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

}  // namespace

int RunServe(const Args& args, bool unique, RunOutcome* outcome) {
  const std::vector<int64_t> departments = ChooseDepartments(args.seed);
  std::vector<BodyDigest> refs;
  if (!ComputeReferences(departments, &refs)) {
    std::fprintf(stderr, "reference computation failed\n");
    return 1;
  }

  if (args.dump_stream > 0) {
    for (int lane = 0; lane < kClients; ++lane) {
      Stream stream(args.seed, lane, unique, departments);
      for (int i = 0; i < args.dump_stream; ++i) {
        const Query q = stream.Next();
        const BodyDigest& d = refs[static_cast<size_t>(q.cls)];
        std::printf("%d\t%016llx\t%lld\t%s\n", lane,
                    static_cast<unsigned long long>(d.table),
                    static_cast<long long>(d.rows), q.text.c_str());
      }
    }
    return 0;
  }

  // setup_s is the median of kSetups set-ups: the first one serves the
  // run; the others happen after the window (and after peak_rss_mb is
  // read), so their thread stacks and heap arenas stay out of it.
  std::vector<double> setup_seconds;
  auto timed_set_up = [&](Fixture* f) {
    const int64_t start = NowNs();
    const fro::Status status = SetUp(args.seed, unique, departments, f);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };
  Fixture fixture;
  if (!timed_set_up(&fixture)) return 1;
  if (!RankBoundHolds(*fixture.db)) {
    std::fprintf(stderr, "EMPLOYEE ranks break the E1.Rank bound\n");
    return 1;
  }
  fro::FroServer& server = *fixture.server;

  // The traced run gives the loop 30% of the time (for the cache and
  // transport layers) and replays the stream in-process for the other
  // 70%, alternating untraced and traced requests.
  const double loop_seconds = args.trace ? args.seconds * 0.3 : args.seconds;
  const fro::PlanCacheStats cache_before = server.plan_cache().stats();
  const uint64_t ast_hits_before = server.session().ast_hits();
  const uint64_t ast_misses_before = server.session().ast_misses();
  const int64_t loop_start = NowNs();
  const int64_t loop_end =
      loop_start + static_cast<int64_t>(loop_seconds * 1e9);
  const std::vector<ClientLog> logs = RunLoop(
      args.seed, unique, departments, refs, server.port(), loop_end);
  const fro::PlanCacheStats cache_after = server.plan_cache().stats();
  const uint64_t ast_hits = server.session().ast_hits() - ast_hits_before;
  const uint64_t ast_misses =
      server.session().ast_misses() - ast_misses_before;
  const double peak_rss_mb = PeakRssMb();

  std::vector<Sample> samples;
  uint64_t mismatches = 0;
  for (const ClientLog& log : logs) {
    samples.insert(samples.end(), log.samples.begin(), log.samples.end());
    outcome->attempted += log.attempted;
    outcome->failed += log.failed;
    mismatches += log.mismatches;
  }

  if (!args.trace) {
    const LoopSummary loop = SummarizeLoop(samples, loop_start);
    std::vector<std::string> shape_names;
    for (int shape = 0; shape < kNumShapes; ++shape) {
      shape_names.push_back("shape" + std::to_string(shape + 1));
    }
    PrintPerKind(samples, shape_names, loop);
    std::fprintf(stderr,
                 "%s: %llu requests (%zu ok) over %.1f s, %d clients, "
                 "%d workers\n",
                 unique ? "serve_unique" : "serve_repeat",
                 static_cast<unsigned long long>(outcome->attempted),
                 loop.samples, loop_seconds, kClients, kWorkers);
    server.Stop();
    for (int i = 1; i < kSetups; ++i) {
      Fixture extra;
      if (!timed_set_up(&extra)) return 1;
      extra.server->Stop();
    }
    outcome->metrics =
        EndToEndMetrics(loop, outcome->attempted, outcome->failed,
                        Median(setup_seconds), peak_rss_mb);
    outcome->correct = mismatches == 0;
    return 0;
  }

  std::vector<double> ping_us;
  {
    fro::FroClient client;
    if (client.Connect("127.0.0.1", server.port()).ok()) {
      for (int i = 0; i < kPings; ++i) {
        const int64_t start = NowNs();
        fro::Result<fro::Response> r = client.Ping();
        const int64_t end = NowNs();
        if (r.ok() && r->status.ok()) {
          ping_us.push_back(static_cast<double>(end - start) / 1000.0);
        }
      }
    }
  }
  server.Stop();
  // The replay's session mirrors the server's: its own plan cache and AST
  // memo at the server's capacities, and a feedback store.
  fro::LruPlanCache cache(fro::ServerOptions().plan_cache_capacity);
  fro::FeedbackStore feedback;
  fro::ServerMetrics metrics;
  fro::SessionOptions session_options;
  session_options.feedback = &feedback;
  fro::QuerySession session(fixture.db.get(), &cache, &metrics,
                            session_options);
  if (!unique) {
    for (int cls = 0; cls < kNumClasses; ++cls) {
      fro::Request request;
      request.verb = fro::Verb::kQuery;
      request.argument = Instantiate(
          cls / kDepartments,
          departments[static_cast<size_t>(cls % kDepartments)], kRepeatRank);
      session.Execute(request, nullptr);
    }
  }
  uint64_t replay_failed = 0;
  LayerProbe untraced(/*traced=*/false);
  LayerProbe traced(/*traced=*/true);
  outcome->attempted += Replay(
      args.seed, unique, departments, *fixture.db, &session, &untraced,
      &traced, refs, NowNs() + static_cast<int64_t>(args.seconds * 0.7e9),
      &replay_failed, &mismatches);
  outcome->failed += replay_failed;

  std::vector<Metric>& m = outcome->metrics;
  m.push_back({"server.ping_rtt_us", Median(ping_us), "us"});
  m.push_back({"server.ast_hit_rate", Rate(ast_hits, ast_hits + ast_misses),
               "fraction"});
  m.push_back({"optimizer.plan_cache_hit_rate",
               Rate(cache_after.hits - cache_before.hits,
                    cache_after.hits + cache_after.misses -
                        cache_before.hits - cache_before.misses),
               "fraction"});
  m.push_back({"optimizer.plan_cache_evictions",
               static_cast<double>(cache_after.evictions -
                                   cache_before.evictions),
               "count"});
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
