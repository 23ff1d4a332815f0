#include "core/analyze.h"

#include "core/sharp_decomposition.h"
#include "count/starsize.h"
#include "decomp/hypertree.h"
#include "hypergraph/acyclic.h"
#include "hypergraph/hypergraph.h"
#include "solver/core.h"

namespace sharpcq {

QueryAnalysis AnalyzeQuery(const ConjunctiveQuery& q, int k_max) {
  QueryAnalysis a;
  a.num_atoms = q.NumAtoms();
  a.num_vars = q.AllVars().size();
  a.num_free = q.free_vars().size();
  a.is_simple = q.IsSimple();
  a.is_acyclic = IsAcyclic(q.BuildHypergraph());
  a.quantified_star_size = QuantifiedStarSize(q);
  a.hypertree_width = HypertreeWidth(q, k_max);
  a.sharp_hypertree_width = SharpHypertreeWidth(q, k_max);

  ConjunctiveQuery core = ComputeColoredCore(q);
  a.core_atoms = core.NumAtoms();
  a.core_is_acyclic = IsAcyclic(core.BuildHypergraph());

  Hypergraph fh = FrontierHypergraph(core.BuildHypergraph(), q.free_vars());
  a.frontier_edges = fh.num_edges();
  for (const IdSet& e : fh.edges()) {
    a.max_frontier_size = std::max(a.max_frontier_size, e.size());
  }
  return a;
}

std::string QueryAnalysis::ToString() const {
  auto width = [](const std::optional<int>& w) {
    return w.has_value() ? std::to_string(*w) : std::string("> budget");
  };
  std::string out;
  out += "atoms: " + std::to_string(num_atoms) +
         ", vars: " + std::to_string(num_vars) +
         " (free: " + std::to_string(num_free) + ")";
  out += is_simple ? ", simple" : ", self-joins present";
  out += "\nhypergraph: ";
  out += is_acyclic ? "acyclic" : "cyclic";
  out += ", htw = " + width(hypertree_width);
  out += "\ncolored core: " + std::to_string(core_atoms) + " atoms, ";
  out += core_is_acyclic ? "acyclic" : "cyclic";
  out += "\nfrontier hypergraph: " + std::to_string(frontier_edges) +
         " edges, largest frontier " + std::to_string(max_frontier_size);
  out += "\nquantified star size: " + std::to_string(quantified_star_size);
  out += "\n#-hypertree width: " + width(sharp_hypertree_width);
  out += "\n";
  return out;
}

}  // namespace sharpcq
