// Quickstart: parse a conjunctive query, load a database, count the answers
// without enumerating them.
//
//   $ ./example_quickstart
//
// The query asks for (advisor, student, course) triples with auditing
// conditions expressed through existentially quantified variables. Counting
// goes through the plan/execute engine: the structural classification
// (Theorem 1.3 et al.) runs once and is cached under the canonical query
// shape, then the plan is materialized against the database. The result is
// checked against brute force.

#include <cstdio>

#include "algebra/stats.h"
#include "core/analyze.h"
#include "count/enumeration.h"
#include "data/database.h"
#include "engine/engine.h"
#include "query/parser.h"

int main() {
  // A small cyclic query: advisors A supervising students B enrolled in
  // courses C, where the student has a project P sharing a lab L with the
  // course.
  const char* text =
      "Q(A,B,C) <- advises(A,B), enrolled(B,C), project(B,P), "
      "lab(P,L), lab(C,L)";
  std::string error;
  std::optional<sharpcq::ConjunctiveQuery> q =
      sharpcq::ParseQuery(text, nullptr, &error);
  if (!q.has_value()) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }
  std::printf("query: %s\n", q->DebugString().c_str());

  sharpcq::Database db;
  // advises(advisor, student)
  db.AddTuple("advises", {1, 100});
  db.AddTuple("advises", {1, 101});
  db.AddTuple("advises", {2, 102});
  db.AddTuple("advises", {2, 100});
  // enrolled(student, course)
  db.AddTuple("enrolled", {100, 500});
  db.AddTuple("enrolled", {101, 500});
  db.AddTuple("enrolled", {102, 501});
  db.AddTuple("enrolled", {100, 501});
  // project(student, project_id)
  db.AddTuple("project", {100, 900});
  db.AddTuple("project", {101, 901});
  db.AddTuple("project", {102, 902});
  // lab(project_or_course, lab_id)
  db.AddTuple("lab", {900, 7});
  db.AddTuple("lab", {901, 7});
  db.AddTuple("lab", {902, 8});
  db.AddTuple("lab", {500, 7});
  db.AddTuple("lab", {501, 8});

  sharpcq::CountingEngine engine;

  // Planning is query-only apart from the coarse data profile that breaks
  // strategy ties; show what the engine decided before counting, next to
  // the query's full structural profile. The plan cache is keyed by that
  // profile too, so the Count below reuses this plan.
  const sharpcq::DataProfile data_profile = sharpcq::BuildDataProfile(db);
  sharpcq::CountingEngine::Planned planned =
      engine.Plan(*q, engine.options().planner, &data_profile);
  std::printf("plan:\n%s\n", planned.plan->DebugString().c_str());
  std::printf("profile:\n%s\n", sharpcq::AnalyzeQuery(*q).ToString().c_str());

  sharpcq::CountResult result = engine.Count(*q, db);
  std::printf("answers: %s  (method: %s, width: %d, plan %s, %.3fms plan + "
              "%.3fms execute)\n",
              sharpcq::CountToString(result.count).c_str(),
              result.method.c_str(), result.width,
              result.cache_hit ? "cached" : "cold", result.planner_ms,
              result.execute_ms);

  sharpcq::CountInt brute = sharpcq::CountByBacktracking(*q, db);
  std::printf("brute-force check: %s  (%s)\n",
              sharpcq::CountToString(brute).c_str(),
              brute == result.count ? "match" : "MISMATCH");
  return brute == result.count ? 0 : 1;
}
