#include "core/materialize.h"

#include <algorithm>

#include "query/atom_relation.h"
#include "util/check.h"

namespace sharpcq {

Rel MaterializeViewRel(const ViewSet& views, std::size_t view_id,
                       const ConjunctiveQuery& guard_query,
                       const Database& db) {
  const std::vector<int>& guard = views.guards[view_id];
  if (guard.empty()) {
    SHARPCQ_CHECK_MSG(views.HasName(view_id),
                      "abstract view has neither guards nor a relation");
    const Relation& stored = db.relation(views.names[view_id]);
    SHARPCQ_CHECK_MSG(
        stored.arity() == static_cast<int>(views.vars[view_id].size()),
        "named view arity mismatch");
    TableBuilder builder(stored.arity());
    builder.ReserveRows(stored.size());
    for (std::size_t i = 0; i < stored.size(); ++i) {
      builder.AddRow(stored.Row(i));
    }
    return Rel(views.vars[view_id], std::move(builder).Build());
  }
  Rel joined = AtomToRel(
      guard_query.atoms()[static_cast<std::size_t>(guard[0])], db);
  for (std::size_t g = 1; g < guard.size(); ++g) {
    joined = Join(joined,
                  AtomToRel(
                      guard_query.atoms()[static_cast<std::size_t>(guard[g])],
                      db));
  }
  return joined;
}

VarRelation MaterializeView(const ViewSet& views, std::size_t view_id,
                            const ConjunctiveQuery& guard_query,
                            const Database& db) {
  return ToVarRelation(MaterializeViewRel(views, view_id, guard_query, db));
}

namespace {

// Removes and returns parts[i].
Rel Take(std::vector<Rel>* parts, std::size_t i) {
  Rel taken = std::move((*parts)[i]);
  parts->erase(parts->begin() + static_cast<std::ptrdiff_t>(i));
  return taken;
}

// Index of the smallest relation in `parts` accepted by `eligible`, or
// parts.size() when none is.
template <typename Pred>
std::size_t Smallest(const std::vector<Rel>& parts, Pred eligible) {
  std::size_t best = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (eligible(parts[i]) &&
        (best == parts.size() || parts[i].size() < parts[best].size())) {
      best = i;
    }
  }
  return best;
}

}  // namespace

Rel MaterializeBag(const IdSet& chi, std::vector<Rel> guards,
                   std::vector<Rel> assigned) {
  SHARPCQ_CHECK_MSG(!guards.empty(), "bag without guards");
  IdSet guarded;
  for (const Rel& g : guards) guarded = Union(guarded, g.vars());
  SHARPCQ_CHECK_MSG(chi.IsSubsetOf(guarded), "bag not guarded by its view");
  for (const Rel& a : assigned) {
    SHARPCQ_CHECK_MSG(a.vars().IsSubsetOf(chi), "assigned atom outside bag");
  }

  // Early projection: a guard keeps chi and the variables it joins on.
  std::vector<IdSet> keep(guards.size(), chi);
  for (std::size_t i = 0; i < guards.size(); ++i) {
    for (std::size_t j = i + 1; j < guards.size(); ++j) {
      IdSet shared = Intersect(guards[i].vars(), guards[j].vars());
      keep[i] = Union(keep[i], shared);
      keep[j] = Union(keep[j], shared);
    }
  }
  for (std::size_t i = 0; i < guards.size(); ++i) {
    guards[i] = Project(guards[i], Intersect(keep[i], guards[i].vars()));
  }

  auto any = [](const Rel&) { return true; };
  Rel result = Take(&guards, Smallest(guards, any));
  while (true) {
    for (std::size_t a = 0; a < assigned.size();) {
      if (assigned[a].vars().IsSubsetOf(result.vars())) {
        result = Semijoin(result, Take(&assigned, a));
      } else {
        ++a;
      }
    }
    if (result.empty()) return Rel(chi);
    IdSet needed = chi;
    for (const Rel& g : guards) needed = Union(needed, g.vars());
    result = Project(result, Intersect(result.vars(), needed));
    if (guards.empty()) return result;

    std::size_t next = Smallest(guards, [&](const Rel& g) {
      return g.vars().Intersects(result.vars());
    });
    if (next == guards.size()) {
      // No guard shares a variable: first join an assigned relation that
      // touches the result and a guard and lies within both (for the
      // smallest such guard); a cross product only when none does.
      std::size_t bridge = assigned.size();
      for (std::size_t a = 0; a < assigned.size(); ++a) {
        const IdSet& vars = assigned[a].vars();
        if (!vars.Intersects(result.vars())) continue;
        for (std::size_t g = 0; g < guards.size(); ++g) {
          if (vars.Intersects(guards[g].vars()) &&
              vars.IsSubsetOf(Union(result.vars(), guards[g].vars())) &&
              (next == guards.size() ||
               guards[g].size() < guards[next].size())) {
            next = g;
            bridge = a;
          }
        }
      }
      if (bridge < assigned.size()) {
        result = Join(result, Take(&assigned, bridge));
      } else {
        next = Smallest(guards, any);
      }
    }
    result = Join(result, Take(&guards, next));
  }
}

JoinTreeInstance MaterializeBags(const ConjunctiveQuery& core,
                                 const ConjunctiveQuery& guard_query,
                                 const Database& db, const BagTree& tree,
                                 const ViewSet& views) {
  // Assign every core atom to the first bag covering it, to be enforced
  // there (the decomposition completion of the Theorem 6.2 proof). An atom
  // identical to one of that bag's guard atoms is already enforced by the
  // guard join, since chi keeps all of its variables, so it is not
  // semijoined again.
  std::vector<std::vector<Rel>> assigned(tree.bags.size());
  for (const Atom& atom : core.atoms()) {
    IdSet vars = atom.Vars();
    std::size_t v = 0;
    while (v < tree.bags.size() && !vars.IsSubsetOf(tree.bags[v])) ++v;
    SHARPCQ_CHECK_MSG(v < tree.bags.size(), "core atom not covered by any bag");
    const std::vector<int>& guards =
        views.guards[static_cast<std::size_t>(tree.view_ids[v])];
    const bool guarded = std::any_of(guards.begin(), guards.end(), [&](int g) {
      return guard_query.atoms()[static_cast<std::size_t>(g)] == atom;
    });
    if (!guarded) assigned[v].push_back(AtomToRel(atom, db));
  }

  JoinTreeInstance instance;
  instance.shape = tree.shape;
  instance.nodes.reserve(tree.bags.size());
  for (std::size_t v = 0; v < tree.bags.size(); ++v) {
    const auto view_id = static_cast<std::size_t>(tree.view_ids[v]);
    std::vector<Rel> guards;
    if (views.guards[view_id].empty()) {
      guards.push_back(MaterializeViewRel(views, view_id, guard_query, db));
    } else {
      for (int g : views.guards[view_id]) {
        guards.push_back(
            AtomToRel(guard_query.atoms()[static_cast<std::size_t>(g)], db));
      }
    }
    instance.nodes.push_back(MaterializeBag(tree.bags[v], std::move(guards),
                                            std::move(assigned[v])));
  }
  return instance;
}

}  // namespace sharpcq
