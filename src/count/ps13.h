#ifndef SHARPCQ_COUNT_PS13_H_
#define SHARPCQ_COUNT_PS13_H_

#include <cstddef>

#include "count/join_tree_instance.h"
#include "util/count_int.h"
#include "util/id_set.h"

namespace sharpcq {

// Workload counters for the Figure 13 algorithm, exposing the quantities
// the Theorem 6.2 bound O(|vertices(T)| * m^2k * 4^h) speaks about.
struct Ps13Stats {
  // Largest number of sets in any #-relation R^alpha_p (bounded by m^k 2^h).
  std::size_t max_sets = 0;
  // Largest cardinality of any set S (bounded by the degree h).
  std::size_t max_set_size = 0;
  // Work of the set semijoins: parent rows walked plus kept rows appended,
  // summed over every (parent, child) step.
  std::size_t rows_visited = 0;
};

// The Pichler–Skritek counting algorithm (Figure 13), generalized exactly as
// in the Theorem 6.2 proof: counts |pi_free(join of the instance)| — the
// number of distinct assignments of the free variables extendable to a
// solution of the acyclic instance.
//
// Each vertex's relation is partitioned into a #-relation by the projection
// onto the free variables; #-relations are combined bottom-up with the set
// semijoin R ⋉ R' = { S ⋉ S' != empty } while coefficients count the
// distinct free-assignment combinations below. Runtime is exponential only
// in the degree bound h = bound(D, HD) (Definition 6.1), not in the
// database size. Each (parent, child) step costs the parent's rows plus
// the rows it keeps (Ps13Stats::rows_visited), via an inverted list from
// join keys to the child sets holding them, and equal result sets are
// merged by hashing. The #-relation arenas are charged against the
// execution's memory budget as they grow.
CountInt Ps13Count(const JoinTreeInstance& instance, const IdSet& free_vars,
                   Ps13Stats* stats = nullptr);

}  // namespace sharpcq

#endif  // SHARPCQ_COUNT_PS13_H_
