#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: seeded data, the request stream a run sends,
// and the expected answers it is checked against.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/database.h"
#include "data/value.h"

namespace perfbench {

// How the expected count of a query is computed, in-process and outside
// the timed window. Each is a different algorithm from the plan the
// daemon's planner picks for that query.
enum class OracleKind {
  // CountByBacktracking, the repository's arbiter; when it does not finish
  // within its deadline, kJoinProject.
  kBacktracking,
  kJoinProject,  // full join, then a distinct count of the free columns
  kClosedForm,   // a count the data generator fixes by construction
  // PS13 over the query's own join tree when the query is alpha-acyclic
  // (the daemon's plans for these queries are #-hypertree decompositions),
  // else CountByBacktracking; when that does not finish within its
  // deadline, a fresh in-process engine over the generated data.
  kPs13OrBacktracking,
};

struct QuerySpec {
  std::string db;
  std::string text;
  OracleKind oracle = OracleKind::kBacktracking;
  std::string closed_form;  // kClosedForm only
  std::string strategy;     // the count's strategy= argument; empty = auto
};

struct DatabaseSpec {
  std::string name;
  sharpcq::Database db;  // numeric values only
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int clients = 1;  // closed-loop readers

  std::vector<DatabaseSpec> databases;  // generation 1 of the catalog

  // The reader stream: the i-th count any reader sends (one counter shared
  // by all readers) is queries[cycle[i % cycle.size()]].
  std::vector<QuerySpec> queries;
  std::vector<int> cycle;
  std::size_t warmup_requests = 0;  // sent before the timed window

  // Probe ingests: CSV batches appended to ingest_db/ingest_relation;
  // batch(k) is a pure function of (seed, k). The traced run sends
  // `probe_batches` of them after its window, batch k followed by one count
  // of SwapQuery(k) on the new generation, so the storage and data layers'
  // write path is timed on every workload.
  std::string ingest_db;
  std::string ingest_relation;
  int probe_batches = 0;
  // Queries over ingest_db that the probes' counts rotate through, so the
  // freshness cost is not one query's cost.
  std::vector<int> swap_queries;
  std::function<std::string(std::size_t)> batch;

  int SwapQuery(std::size_t k) const { return swap_queries[k % swap_queries.size()]; }

  const DatabaseSpec& Database(const std::string& name) const;
};

// Builds workload `name` from `seed`; `tiny` shrinks every size for the
// smoke test. nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                     bool tiny);

// Writes every database of `w` as generation 1 of a fresh catalog at root.
bool PopulateCatalog(const Workload& w, const std::string& root,
                     std::string* error);

// Descriptive figures of a workload for the properties line: relation
// sizes, distinct queries, loop type and client count.
std::vector<std::pair<std::string, std::string>> DescribeWorkload(
    const Workload& w);

// Expected answers. Check() queues (query, batches-applied, answer)
// triples during a run; Verify() computes each distinct expected count
// once, after the run, and returns how many answers disagreed.
class AnswerChecker {
 public:
  explicit AnswerChecker(const Workload& w) : w_(w) {}

  void Check(int query, std::size_t batches, const std::string& answer) {
    pending_[{batches, query}][answer] += 1;
  }
  // Failed answers, with the first few mismatches reported on stderr.
  std::uint64_t Verify();
  // How many expected counts each oracle method produced.
  const std::map<std::string, std::uint64_t>& methods() const { return methods_; }

 private:
  const Workload& w_;
  // (batches applied, query) -> answer -> occurrences
  std::map<std::pair<std::size_t, int>, std::map<std::string, std::uint64_t>>
      pending_;
  std::map<std::string, std::uint64_t> methods_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
