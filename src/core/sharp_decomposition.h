#ifndef SHARPCQ_CORE_SHARP_DECOMPOSITION_H_
#define SHARPCQ_CORE_SHARP_DECOMPOSITION_H_

#include <optional>
#include <vector>

#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The paper's primary structural notion.
//
// A #-decomposition of Q w.r.t. a view set V (Definition 1.4) is a tree
// projection Ha with HQ' <= Ha <= HV that also covers the frontier
// hypergraph FH(Q', free(Q)), where Q' is *some* core of color(Q).
// A #-hypertree decomposition of width k (Definition 1.2) is the special
// case V = V^k_Q.

// The combined hypergraph H' of Theorem 3.6: the hyperedges of the core's
// hypergraph, the frontier hyperedges FH(core, w), and a singleton {X} for
// every X in w (the color atoms' edges). Covering H' is equivalent to
// covering both HQ' and the frontier hypergraph.
std::vector<IdSet> SharpCoverEdges(const ConjunctiveQuery& core,
                                   const IdSet& w);

struct SharpDecomposition {
  // The uncolored core Q' of color(Q) that the decomposition is based on.
  ConjunctiveQuery core;
  // The tree projection (bags + guard views) covering HQ' and FH.
  BagTree tree;
  // The views used; guards index into the *original* query's atoms.
  ViewSet views;
  // max guard size (= k for V^k views; 1 for abstract views).
  int width = 0;
};

// Definition 1.4 / Theorem 3.6: #-decomposition w.r.t. an arbitrary view
// set. Different substructure cores behave differently w.r.t. views
// (Example 3.5), so up to `max_cores` cores are tried. Returns nullopt if
// no tried core admits a tree projection.
std::optional<SharpDecomposition> FindSharpDecomposition(
    const ConjunctiveQuery& q, const ViewSet& views,
    std::size_t max_cores = 8);

// Definition 1.2: width-k #-hypertree decomposition (views V^k_Q).
std::optional<SharpDecomposition> FindSharpHypertreeDecomposition(
    const ConjunctiveQuery& q, int k, std::size_t max_cores = 8);

// The smallest width budget k admitting a #-hypertree decomposition, with
// that k's decomposition.
struct MinWidthSharpDecomposition {
  int k = 0;
  SharpDecomposition decomposition;
};

// The #-hypertree width search: tries k = 1..k_max and returns the first k
// with a decomposition, exactly the one FindSharpHypertreeDecomposition(q,
// k, max_cores) returns. The colored cores depend on q alone, so the greedy
// core is computed once and the alternatives are enumerated at most once,
// after the greedy core first fails. Checks CheckExecInterrupt() once per
// k. nullopt if no k <= k_max admits a decomposition.
std::optional<MinWidthSharpDecomposition> FindMinWidthSharpDecomposition(
    const ConjunctiveQuery& q, int k_max, std::size_t max_cores = 8);

// The #-hypertree width of q, searched up to k_max (the smallest k
// admitting a width-k #-hypertree decomposition); nullopt if none exists
// within the budget. Width is measured in the normal-form search of
// decomp/tree_projection.h.
std::optional<int> SharpHypertreeWidth(const ConjunctiveQuery& q, int k_max);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_SHARP_DECOMPOSITION_H_
