#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "algebra/exec_policy.h"
#include "count/enumeration.h"
#include "data/csv.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hypergraph/acyclic.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "util/cancel.h"
#include "util/count_int.h"
#include "util/mem_budget.h"

namespace perfbench {

using sharpcq::ConjunctiveQuery;
using sharpcq::Database;
using sharpcq::Value;

namespace {

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

QuerySpec Query(std::string db, std::string text, OracleKind oracle) {
  QuerySpec q;
  q.db = std::move(db);
  q.text = std::move(text);
  q.oracle = oracle;
  return q;
}

void LoadCsv(DatabaseSpec* spec, const std::string& relation,
             const std::string& csv) {
  std::istringstream in(csv);
  sharpcq::CsvResult loaded = sharpcq::LoadRelationCsv(in, relation, &spec->db);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: generated CSV for %s rejected: %s\n",
                 relation.c_str(), loaded.message.c_str());
    std::abort();
  }
}

// Distinct values of one column of a stored relation.
std::vector<Value> ColumnValues(const DatabaseSpec& spec,
                                const std::string& relation, int column) {
  const sharpcq::Relation& rel = spec.db.relation(relation);
  std::set<Value> values;
  for (std::size_t row = 0; row < rel.size(); ++row) {
    values.insert(rel.Row(row)[static_cast<std::size_t>(column)]);
  }
  return {values.begin(), values.end()};
}

// Probe-ingest batches for a binary relation: `rows` pairs drawn from the
// relation's existing column values.
std::function<std::string(std::size_t)> PairBatches(const DatabaseSpec& spec,
                                                    const std::string& relation,
                                                    int rows, std::uint64_t seed) {
  std::vector<Value> left = ColumnValues(spec, relation, 0);
  std::vector<Value> right = ColumnValues(spec, relation, 1);
  return [left, right, rows, seed](std::size_t k) {
    std::mt19937_64 rng(Mix(seed, 0xB47C0000ull + k));
    std::string csv;
    for (int i = 0; i < rows; ++i) {
      const Value a = left[rng() % left.size()];
      const Value b = right[rng() % right.size()];
      csv += std::to_string(a) + "," + std::to_string(b) + "\n";
    }
    return csv;
  };
}

// Seed of the fixed structures the run's seed relabels (see Relabel).
constexpr std::uint64_t kStructureSeed = 1;

// Post-window ingests of the traced run.
constexpr int kProbeBatches = 20;

// `db` with its values permuted by a seeded bijection of its own value
// set. The analytic workloads' instances are generated once, from a fixed
// structure seed, and the run's seed only relabels them: every seed gets
// different inputs with the same joins, sizes and value ranges, so the
// per-request cost does not depend on which random instance a seed drew.
Database Relabel(const Database& db, std::uint64_t seed) {
  std::set<Value> values;
  for (const std::string& name : db.SortedRelationNames()) {
    const sharpcq::Relation& rel = db.relation(name);
    for (std::size_t row = 0; row < rel.size(); ++row) {
      for (Value v : rel.Row(row)) values.insert(v);
    }
  }
  std::vector<Value> from(values.begin(), values.end());
  std::vector<Value> to = from;
  std::mt19937_64 rng(Mix(seed, 6));
  std::shuffle(to.begin(), to.end(), rng);
  std::unordered_map<Value, Value> map;
  for (std::size_t i = 0; i < from.size(); ++i) map.emplace(from[i], to[i]);
  Database out;
  for (const std::string& name : db.SortedRelationNames()) {
    const sharpcq::Relation& rel = db.relation(name);
    out.DeclareRelation(name, db.RelationArity(name));
    for (std::size_t row = 0; row < rel.size(); ++row) {
      std::vector<Value> mapped;
      for (Value v : rel.Row(row)) mapped.push_back(map.at(v));
      out.AddTuple(name, mapped);
    }
  }
  return out;
}

std::vector<int> Iota(std::size_t n) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
  return v;
}

// --- the workloads ------------------------------------------------------------

// The catalog's relations for ad-hoc queries: arity 1, 2 and 3.
struct RelationShape {
  const char* name;
  int arity;
};
constexpr RelationShape kAdhocRelations[] = {
    {"u0", 1}, {"b0", 2}, {"b1", 2}, {"b2", 2}, {"t0", 3}, {"t1", 3}};

// Distinct random CQs (6-10 variables, 5-9 atoms, arity <= 3, one or two
// free variables; half alpha-acyclic by construction), renamed onto the
// adhoc database's relations by arity. The shapes come from the fixed
// structure seed, since their costs differ widely (one seed's pool took
// half again the CPU per count of another's); the run's seed permutes
// each query's variable names. Only queries the planner counts
// with a width-1 #-hypertree decomposition are kept: on this data a
// width-2 bag joins two whole relations and takes up to hundreds of ms,
// which would make the workload about a few outliers instead of planning.
// The pool is twice the daemon's plan-cache capacity, so a query's next
// repeat finds its plan evicted. Planning every candidate costs about a
// second, so the pool is built once per process and shared by the set-ups.
const std::vector<QuerySpec>& AdhocPool(std::uint64_t seed, bool tiny) {
  static std::map<std::pair<std::uint64_t, bool>, std::vector<QuerySpec>> pools;
  std::vector<QuerySpec>& queries = pools[{seed, tiny}];
  const std::size_t pool = tiny ? 64 : 2048;
  for (std::uint64_t i = 0; queries.size() < pool; ++i) {
    std::uint64_t r = Mix(kStructureSeed, 0xADC00000ull + i);
    sharpcq::RandomQueryParams params;
    params.num_vars = 6 + static_cast<int>(r % 5);
    params.num_atoms = 5 + static_cast<int>((r >> 8) % 5);
    params.max_arity = 3;
    params.num_free = 1 + static_cast<int>((r >> 16) % 2);
    params.num_relations = 4;
    params.force_acyclic = i % 2 == 0;
    params.seed = r;
    ConjunctiveQuery q = sharpcq::MakeRandomQuery(params);
    // Names only: the parser numbers variables by first occurrence, so
    // every seed's renaming parses to the same numbered query and plans
    // the same way.
    std::vector<int> names = Iota(static_cast<std::size_t>(params.num_vars));
    std::mt19937_64 rename_rng(Mix(seed, 0xADC00000ull + i));
    std::shuffle(names.begin(), names.end(), rename_rng);
    // MakeRandomQuery interns V0, V1, ... first, so ids index `names`.
    auto name = [&names](sharpcq::VarId v) {
      return "V" + std::to_string(names.at(static_cast<std::size_t>(v)));
    };
    std::string text = "Q(";
    for (sharpcq::VarId v : q.free_vars()) {
      if (text.size() > 2) text += ",";
      text += name(v);
    }
    text += ") <- ";
    for (std::size_t a = 0; a < q.atoms().size(); ++a) {
      const sharpcq::Atom& atom = q.atoms()[a];
      const int k = std::atoi(atom.relation.c_str() + 1);
      if (a > 0) text += ", ";
      text += atom.arity() == 1   ? "u0"
              : atom.arity() == 2 ? "b" + std::to_string(k % 3)
                                  : "t" + std::to_string(k % 2);
      text += "(";
      for (std::size_t t = 0; t < atom.terms.size(); ++t) {
        text += (t > 0 ? "," : "") + name(atom.terms[t].var);
      }
      text += ")";
    }
    std::optional<ConjunctiveQuery> renamed = sharpcq::ParseQuery(text);
    const sharpcq::CountingPlan plan = sharpcq::MakePlan(*renamed);
    if (plan.strategy == sharpcq::PlanStrategy::kSharpHypertree &&
        plan.width_budget == 1) {
      queries.push_back(Query("adhoc", std::move(text), OracleKind::kPs13OrBacktracking));
    }
  }
  return queries;
}

Workload AdhocShapes(std::uint64_t seed, bool tiny) {
  Workload w;
  w.clients = 2;
  // Fixed structure, relabelled by the seed (see Relabel).
  std::mt19937_64 rng(Mix(kStructureSeed, 2));
  const std::uint64_t domain = 300;
  Database db;
  for (const auto& [relation, arity] : kAdhocRelations) {
    const std::size_t rows = arity == 1 ? 150 : 1000;
    std::set<std::vector<Value>> seen;
    while (seen.size() < rows) {
      std::vector<Value> row;
      for (int c = 0; c < arity; ++c) row.push_back(static_cast<Value>(rng() % domain));
      if (seen.insert(row).second) db.AddTuple(relation, row);
    }
  }
  w.databases.push_back({"adhoc", Relabel(db, seed)});
  w.queries = AdhocPool(seed, tiny);
  w.cycle = Iota(w.queries.size());
  w.warmup_requests = tiny ? 8 : 1000;

  // The post-window probes write and count a separate ledger database that
  // the request stream never touches: an ingest into the 5k-row adhoc
  // database is a handful of fsyncs, whose latency on a shared disk varies
  // between runs by more than any bound could absorb.
  Database ledger;
  const int ledger_rows = tiny ? 500 : 20000;
  std::set<std::pair<Value, Value>> seen;
  while (static_cast<int>(seen.size()) < ledger_rows) {
    const Value a = static_cast<Value>(rng() % (ledger_rows / 4));
    const Value b = static_cast<Value>(rng() % (ledger_rows / 4));
    if (seen.emplace(a, b).second) ledger.AddTuple("ledger", {a, b});
  }
  w.databases.push_back({"ledger", Relabel(ledger, seed)});
  w.queries.push_back(Query("ledger", "Q(X) <- ledger(X,Y), ledger(Y,Z)",
                            OracleKind::kJoinProject));
  w.ingest_db = "ledger";
  w.ingest_relation = "ledger";
  w.probe_batches = tiny ? 3 : kProbeBatches;
  w.swap_queries = {static_cast<int>(w.queries.size() - 1)};
  w.batch = PairBatches(w.databases[1], "ledger", 50, seed);
  return w;
}

Workload AnalyticRepeat(std::uint64_t seed, bool tiny) {
  Workload w;
  w.clients = 1;
  // Qn1 chain over a random digraph: #-hypertree width 1.
  const int chain_nodes = tiny ? 2000 : 24000;
  DatabaseSpec chain{"chain",
                     Relabel(sharpcq::MakeQn1RandomDatabase(chain_nodes, chain_nodes,
                                                            kStructureSeed),
                             seed)};
  w.queries.push_back(
      Query("chain", sharpcq::MakeQn1(5).DebugString(), OracleKind::kJoinProject));
  // Q0 over a numeric workforce instance: #-hypertree width 2.
  sharpcq::Q0DatabaseParams p;
  const int f = tiny ? 2 : 15;
  p.machines *= f, p.workers *= f, p.tasks *= f, p.projects *= f;
  p.subtasks *= f, p.resources *= f, p.mw_tuples *= f, p.wt_tuples *= f;
  p.pt_tuples *= f, p.st_tuples *= f, p.rr_tuples *= f;
  p.seed = kStructureSeed;
  DatabaseSpec workforce{"workforce", Relabel(sharpcq::MakeQ0Database(p), seed)};
  w.queries.push_back(Query("workforce", sharpcq::MakeQ0().DebugString(),
                            OracleKind::kJoinProject));
  // Qh2: acyclic, counted by PS13; the generator fixes the count at 2^h.
  // The request pins strategy=ps13: from h = 10 on, auto planning over the
  // snapshot-backed instance lets the cost model steer Qh2 to #b, which
  // takes seconds where PS13 takes milliseconds.
  const int h = tiny ? 6 : 12;
  DatabaseSpec qh2{"qh2", Relabel(sharpcq::MakeQh2Database(h), seed)};
  w.queries.push_back(
      Query("qh2", sharpcq::MakeQh2(h).DebugString(), OracleKind::kClosedForm));
  w.queries.back().closed_form = std::to_string(std::uint64_t{1} << h);
  w.queries.back().strategy = "ps13";
  // Qbar_h2: planned as hybrid #b (the decomposition search runs per
  // execution).
  DatabaseSpec qbar{
      "qbar", Relabel(sharpcq::MakeQbarh2Database(tiny ? 3 : 4, tiny ? 5 : 40), seed)};
  w.queries.push_back(Query("qbar", sharpcq::MakeQbarh2(tiny ? 3 : 4).DebugString(),
                            OracleKind::kBacktracking));
  w.databases.push_back(std::move(chain));
  w.databases.push_back(std::move(workforce));
  w.databases.push_back(std::move(qh2));
  w.databases.push_back(std::move(qbar));
  // Five slots, Q0 twice: with an odd number of equally weighted slots the
  // median falls inside one shape's latency distribution instead of on
  // the gap between two shapes.
  w.cycle = {0, 1, 2, 3, 1};
  w.warmup_requests = (tiny ? 2 : 8) * w.cycle.size();
  w.ingest_db = "chain";
  w.ingest_relation = "r";
  w.probe_batches = tiny ? 3 : kProbeBatches;
  w.swap_queries = {0};
  w.batch = PairBatches(w.databases[0], "r", 50, seed);
  return w;
}

// Runs an oracle under a deadline and an allocation budget; nullopt when
// either runs out. Backtracking's time and join-project's intermediate
// results grow with products of candidate sets.
template <typename Count>
std::optional<sharpcq::CountInt> Bounded(const Count& count) {
  sharpcq::CancelToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(300));
  sharpcq::MemoryBudget budget(std::uint64_t{256} << 20);
  sharpcq::ExecPolicy policy;
  policy.cancel = &token;
  policy.query_memory = &budget;
  try {
    sharpcq::ExecScope scope(std::move(policy));
    return count();
  } catch (const sharpcq::ExecInterrupted&) {
  } catch (const sharpcq::ExecResourceExhausted&) {
  }
  return std::nullopt;
}

bool IsAcyclic(const ConjunctiveQuery& q) {
  std::vector<sharpcq::IdSet> edges;
  for (const sharpcq::Atom& atom : q.atoms()) edges.push_back(atom.Vars());
  return sharpcq::BuildJoinTree(edges).has_value();
}

// The expected count of `spec` over `state`, and the method that produced
// it. The last resort, when the bounded baselines both give up, is a fresh
// engine over the generated row-major data: agreement between the daemon
// (snapshot-backed, cached plan) and an independent in-process count.
std::pair<std::string, const char*> ExpectedCount(
    const QuerySpec& spec, const std::optional<ConjunctiveQuery>& q,
    const Database& db) {
  if (spec.oracle == OracleKind::kClosedForm) return {spec.closed_form, "closed_form"};
  if (!q.has_value()) return {"unparsable", "none"};
  if (spec.oracle == OracleKind::kPs13OrBacktracking && IsAcyclic(*q)) {
    if (auto count = Bounded([&] { return sharpcq::CountByAcyclicPs13(*q, db).count; })) {
      return {sharpcq::CountToString(*count), "ps13"};
    }
  }
  if (spec.oracle != OracleKind::kJoinProject) {
    if (auto count = Bounded([&] { return sharpcq::CountByBacktracking(*q, db); })) {
      return {sharpcq::CountToString(*count), "backtracking"};
    }
  }
  // Random queries skip join-project: their cross products outgrow any
  // reasonable budget before the deadline is next checked.
  if (spec.oracle != OracleKind::kPs13OrBacktracking) {
    if (auto count = Bounded([&] { return sharpcq::CountByJoinProject(*q, db); })) {
      return {sharpcq::CountToString(*count), "join_project"};
    }
  }
  sharpcq::CountingEngine engine;
  return {sharpcq::CountToString(engine.Count(*q, db).count), "engine"};
}

}  // namespace

const DatabaseSpec& Workload::Database(const std::string& name) const {
  for (const DatabaseSpec& spec : databases) {
    if (spec.name == name) return spec;
  }
  std::fprintf(stderr, "perfbench: no database %s\n", name.c_str());
  std::abort();
}

std::optional<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                     bool tiny) {
  std::optional<Workload> w;
  if (name == "adhoc_shapes") w = AdhocShapes(seed, tiny);
  if (name == "analytic_repeat") w = AnalyticRepeat(seed, tiny);
  if (w.has_value()) {
    w->name = name;
    w->seed = seed;
  }
  return w;
}

bool PopulateCatalog(const Workload& w, const std::string& root,
                     std::string* error) {
  sharpcq::Catalog catalog(root);
  for (const DatabaseSpec& spec : w.databases) {
    sharpcq::Status status;
    if (!catalog.Ingest(spec.name, spec.db, nullptr, &status).has_value()) {
      *error = "ingest " + spec.name + ": " + status.ToString();
      return false;
    }
  }
  return true;
}

std::vector<std::pair<std::string, std::string>> DescribeWorkload(
    const Workload& w) {
  std::vector<std::pair<std::string, std::string>> out;
  std::string rows;
  for (const DatabaseSpec& spec : w.databases) {
    for (const std::string& relation : spec.db.SortedRelationNames()) {
      if (!rows.empty()) rows += " ";
      rows += spec.name + "." + relation + "=" +
              std::to_string(spec.db.relation(relation).size());
    }
  }
  out.emplace_back("rows", rows);
  out.emplace_back("distinct_queries", std::to_string(w.queries.size()));
  out.emplace_back("loop", "closed");
  out.emplace_back("clients", std::to_string(w.clients));
  out.emplace_back("probe_ingests", std::to_string(w.probe_batches) +
                                        " after the traced window, into " +
                                        w.ingest_db + "." + w.ingest_relation);
  out.emplace_back("batch_bytes", std::to_string(w.batch(0).size()));
  return out;
}

std::uint64_t AnswerChecker::Verify() {
  // Queries are parsed once; the data is numeric, so ingests never change
  // a constant's value.
  std::map<int, std::optional<ConjunctiveQuery>> parsed;
  std::vector<decltype(pending_)::const_iterator> items;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    items.push_back(it);
    const int query = it->first.second;
    if (parsed.count(query) > 0) continue;
    const QuerySpec& spec = w_.queries[static_cast<std::size_t>(query)];
    parsed[query] = sharpcq::ParseQuery(spec.text);
  }

  // A few threads (the daemon has stopped, so they take no CPU from a
  // measurement) claim items in (batches applied, query) order; each keeps
  // its own copy of the data and appends the probe batches as its items
  // need them.
  std::vector<std::pair<std::string, const char*>> expected(items.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    std::vector<DatabaseSpec> states = w_.databases;
    std::size_t applied = 0;
    for (std::size_t i = next++; i < items.size(); i = next++) {
      const auto [batches, query] = items[i]->first;
      for (DatabaseSpec& state : states) {
        if (state.name != w_.ingest_db) continue;
        for (; applied < batches; ++applied) {
          LoadCsv(&state, w_.ingest_relation, w_.batch(applied));
          state.db.DedupAll();
        }
      }
      const QuerySpec& spec = w_.queries[static_cast<std::size_t>(query)];
      for (const DatabaseSpec& state : states) {
        if (state.name == spec.db) {
          expected[i] = ExpectedCount(spec, parsed.at(query), state.db);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < 4 && t < items.size(); ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();

  std::uint64_t failed = 0;
  int reported = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ++methods_[expected[i].second];
    const auto [batches, query] = items[i]->first;
    for (const auto& [answer, times] : items[i]->second) {
      if (answer == expected[i].first) continue;
      failed += times;
      if (reported++ < 5) {
        std::fprintf(stderr,
                     "perfbench: wrong answer %s (expected %s, %llu times) "
                     "for %s after %zu batches\n",
                     answer.c_str(), expected[i].first.c_str(),
                     static_cast<unsigned long long>(times),
                     w_.queries[static_cast<std::size_t>(query)].text.c_str(),
                     batches);
      }
    }
  }
  return failed;
}

}  // namespace perfbench
