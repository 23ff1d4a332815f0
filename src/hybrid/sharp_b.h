#ifndef SHARPCQ_HYBRID_SHARP_B_H_
#define SHARPCQ_HYBRID_SHARP_B_H_

#include <optional>
#include <vector>

#include "core/sharp_decomposition.h"
#include "data/database.h"
#include "decomp/tree_projection.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// A width-k #b-generalized hypertree decomposition of Q w.r.t. D
// (Definition 6.4): a pseudo-free set S-bar ⊇ free(Q) and a width-k
// #-generalized hypertree decomposition of Q[S-bar] whose chi_{S-bar}
// relations have degree at most b w.r.t. the *original* free variables.
struct SharpBDecomposition {
  IdSet s_bar;
  // #-decomposition of Q[S-bar]; its core is a core of color(Q[S-bar]).
  SharpDecomposition decomposition;
  // The achieved degree value b = bound_free(D, <T, chi_{S-bar}, lambda>).
  std::size_t bound = 0;
};

struct SharpBOptions {
  // Reject decompositions with bound > max_b (SIZE_MAX = any bound).
  std::size_t max_b = static_cast<std::size_t>(-1);
  // Substructure cores tried per pseudo-free set.
  std::size_t max_cores = 4;
  // Cap on the number of pseudo-free sets enumerated (FPT in ||Q||, still
  // exponential: 2^|existential vars|). Sets are tried by increasing size,
  // so S-bar = free(Q) — the purely structural case — always comes first.
  std::size_t max_subsets = 4096;
};

// Theorem 6.7 splits into a query-only half and a data half. The query-only
// half lists the pseudo-free sets S-bar and, for each, the substructure
// cores of color(Q[S-bar]) that admit a width-k tree projection at all
// (cores depend only on the query). The data half minimizes the degree b
// over those candidates. The planner runs the first half once per plan;
// the executor runs the second once per data generation.

// One core of Q[S-bar] that admits a tree projection w.r.t. V^k.
struct SharpBCore {
  ConjunctiveQuery core;
  std::vector<IdSet> cover;  // SharpCoverEdges(core, S-bar)
  BagTree existence;         // FindTreeProjection(cover, V^k), unfiltered
};

// A pseudo-free set with its feasible cores, greedy core first.
struct SharpBCandidate {
  IdSet s_bar;
  std::vector<SharpBCore> cores;
};

// The query-only half at one width: V^k and its candidates in enumeration
// order. Immutable once built; any number of data steps may read it
// concurrently.
struct SharpBCandidates {
  int k = 0;
  ViewSet views;
  std::vector<SharpBCandidate> candidates;
};

// The query-only half at width k: walks the pseudo-free sets S-bar ⊇
// free(Q) by increasing size, at most options.max_subsets of them, and
// keeps each whose Q[S-bar] has a core (greedy first, then up to
// options.max_cores alternatives) with a tree projection w.r.t. V^k.
// options.max_b is not read: the bound is a fact about the data.
SharpBCandidates CollectSharpBCandidates(const ConjunctiveQuery& q, int k,
                                         const SharpBOptions& options);

// The data half over stored candidates: the decomposition with the minimum
// achievable degree value b (over the normal-form decomposition class, see
// min_degree_search.h). Candidates are tried in order and the search stops
// once b <= 1. Returns nullopt when no candidate achieves b <= max_b.
std::optional<SharpBDecomposition> FindSharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db,
    const SharpBCandidates& width, std::size_t max_b);

// Theorem 6.7 in one call: both halves at width k, with the data step run
// on each candidate as it is enumerated, so the enumeration stops early
// once b <= 1. Returns the same decomposition as the stored-candidate
// overload, or nullopt when no pseudo-free set admits a width-k
// decomposition within the bound cap.
std::optional<SharpBDecomposition> FindSharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db, int k,
    const SharpBOptions& options = {});

}  // namespace sharpcq

#endif  // SHARPCQ_HYBRID_SHARP_B_H_
