#ifndef SHARPCQ_HYBRID_HYBRID_COUNTING_H_
#define SHARPCQ_HYBRID_HYBRID_COUNTING_H_

#include <optional>

#include "core/sharp_counting.h"
#include "count/ps13.h"
#include "data/database.h"
#include "hybrid/sharp_b.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// Theorem 6.6: counting with a width-k #b-generalized hypertree
// decomposition in polynomial time (for fixed k and b).
//
// Pipeline: the Theorem 3.7 machinery applied to Q[S-bar] eliminates the
// purely structural existential variables (those outside S-bar), yielding
// an acyclic instance over the pseudo-free variables whose full join equals
// pi_{S-bar}(Q(D)); the Figure 13 algorithm (Theorem 6.2) then counts the
// projection onto the *original* free variables, with cost exponential only
// in the degree bound b.
CountResult CountViaSharpB(const ConjunctiveQuery& q, const Database& db,
                           const SharpBDecomposition& d,
                           Ps13Stats* stats = nullptr);

// Search + count: Theorem 6.7 followed by Theorem 6.6. Returns nullopt when
// q has no width-k #b-decomposition within the options' bound cap.
std::optional<CountResult> CountBySharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db, int k,
    const SharpBOptions& options = {});

}  // namespace sharpcq

#endif  // SHARPCQ_HYBRID_HYBRID_COUNTING_H_
