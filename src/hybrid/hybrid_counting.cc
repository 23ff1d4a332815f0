#include "hybrid/hybrid_counting.h"

#include "core/materialize.h"
#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "util/trace.h"

namespace sharpcq {

CountResult CountViaSharpB(const ConjunctiveQuery& q, const Database& db,
                           const SharpBDecomposition& d, Ps13Stats* stats) {
  CountResult result;
  result.width = d.decomposition.width;
  result.method = "#b-hypertree(k=" + std::to_string(result.width) +
                  ",b=" + std::to_string(d.bound) + ")";

  JoinTreeInstance instance;
  {
    TraceSpan span("materialize_bags");
    instance = MaterializeBags(d.decomposition.core, q, db,
                               d.decomposition.tree, d.decomposition.views);
    span.NoteCount("bags", instance.nodes.size());
  }
  if (!FullReduce(&instance)) {
    result.count = 0;
    return result;
  }
  // chi_{S-bar} labels: drop the structurally-handled existential variables.
  JoinTreeInstance restricted;
  {
    TraceSpan span("restrict_to_s_bar");
    restricted = RestrictToVars(instance, d.s_bar);
  }
  result.count = Ps13Count(restricted, q.free_vars(), stats);
  return result;
}

std::optional<CountResult> CountBySharpBDecomposition(
    const ConjunctiveQuery& q, const Database& db, int k,
    const SharpBOptions& options) {
  std::optional<SharpBDecomposition> d =
      FindSharpBDecomposition(q, db, k, options);
  if (!d.has_value()) return std::nullopt;
  return CountViaSharpB(q, db, *d);
}

}  // namespace sharpcq
