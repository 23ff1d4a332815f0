#ifndef SHARPCQ_CORE_ANALYZE_H_
#define SHARPCQ_CORE_ANALYZE_H_

#include <optional>
#include <string>

#include "query/conjunctive_query.h"

namespace sharpcq {

// A one-call structural profile of a query: every parameter the paper's
// tractability landscape speaks about, for diagnostics.
struct QueryAnalysis {
  std::size_t num_atoms = 0;
  std::size_t num_vars = 0;
  std::size_t num_free = 0;
  bool is_simple = false;       // distinct relation symbols (Section 2)
  bool is_acyclic = false;      // alpha-acyclicity of HQ
  std::size_t core_atoms = 0;   // size of the colored core Q'
  bool core_is_acyclic = false;
  int quantified_star_size = 0;                 // DM15 (Appendix A)
  std::optional<int> hypertree_width;           // htw(HQ), up to k_max
  std::optional<int> sharp_hypertree_width;     // Definition 1.2, up to k_max
  std::size_t frontier_edges = 0;  // hyperedges of FH(Q', free(Q))
  std::size_t max_frontier_size = 0;

  // A short multi-line report.
  std::string ToString() const;
};

// Computes the profile, searching widths up to `k_max`. Cost is FPT in the
// query (core computation + width searches); the database is not involved.
// A diagnostic: the planner computes only the acyclicity and #-hypertree
// width it selects a strategy by, and never calls this.
QueryAnalysis AnalyzeQuery(const ConjunctiveQuery& q, int k_max = 4);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_ANALYZE_H_
