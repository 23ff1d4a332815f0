#include "hybrid/degree.h"

#include "core/materialize.h"
#include "query/atom_relation.h"
#include "util/check.h"

namespace sharpcq {

std::size_t DegreeOfRelation(const Rel& rel, const IdSet& free) {
  // MaxGroupSize indexes on vars(rel) ∩ free and returns the largest group
  // (0 for the empty relation), which is exactly Definition 6.1. The index
  // is the packed-key one the semijoin probes share, so a degree check on a
  // relation the reducer already probed costs a cache hit — and a degree
  // check that builds the index leaves it warm for the PS13 partition.
  return MaxGroupSize(rel, free);
}

std::size_t BoundOfInstance(const JoinTreeInstance& instance,
                            const IdSet& free) {
  std::size_t bound = 0;
  for (const Rel& rel : instance.nodes) {
    bound = std::max(bound, DegreeOfRelation(rel, free));
  }
  return bound;
}

JoinTreeInstance MaterializeHypertree(const ConjunctiveQuery& q,
                                      const Database& db,
                                      const Hypertree& ht) {
  JoinTreeInstance instance;
  instance.shape = ht.shape;
  instance.nodes.reserve(ht.chi.size());
  for (std::size_t v = 0; v < ht.chi.size(); ++v) {
    std::vector<Rel> guards;
    for (int g : ht.lambda[v]) {
      guards.push_back(AtomToRel(q.atoms()[static_cast<std::size_t>(g)], db));
    }
    instance.nodes.push_back(MaterializeBag(ht.chi[v], std::move(guards), {}));
  }
  return instance;
}

std::size_t HypertreeBound(const ConjunctiveQuery& q, const Database& db,
                           const Hypertree& ht) {
  return BoundOfInstance(MaterializeHypertree(q, db, ht), q.free_vars());
}

}  // namespace sharpcq
