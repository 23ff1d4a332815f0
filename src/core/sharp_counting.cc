#include "core/sharp_counting.h"

#include "core/materialize.h"
#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "util/trace.h"

namespace sharpcq {

const char* CountStatusName(CountStatus status) {
  switch (status) {
    case CountStatus::kOk:
      return "OK";
    case CountStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case CountStatus::kCancelled:
      return "CANCELLED";
    case CountStatus::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

CountResult CountViaSharpDecomposition(const ConjunctiveQuery& q,
                                       const Database& db,
                                       const SharpDecomposition& d) {
  CountResult result;
  result.method = "#-decomposition";
  result.width = d.width;

  JoinTreeInstance instance;
  {
    TraceSpan span("materialize_bags");
    instance = MaterializeBags(d.core, q, db, d.tree, d.views);
    span.NoteCount("bags", instance.nodes.size());
  }
  // Cost-model rewrite (no-op without a cost_model policy); both branches
  // below — the root-count-only DP and the FullReduce pipeline — are exact
  // for any rooting and child order of the materialized tree.
  OptimizeInstanceOrder(&instance);
  if (instance.AllVars().IsSubsetOf(q.free_vars())) {
    // No existential variables to project away: only the root count is
    // needed, and CountFullJoin's zero-weight rows already neutralize
    // dangling tuples — the FullReduce semijoin materializations would be
    // pure overhead.
    result.count = CountFullJoin(instance);
    return result;
  }
  // With existential variables the bags must be globally consistent BEFORE
  // the projection (a dangling tuple could otherwise survive projection and
  // join into a spurious free-variable assignment), so the full reducer
  // stays on this path.
  if (!FullReduce(&instance)) {
    result.count = 0;
    return result;
  }
  JoinTreeInstance restricted;
  {
    TraceSpan span("restrict_to_free_vars");
    restricted = RestrictToVars(instance, q.free_vars());
  }
  result.count = CountFullJoin(restricted);
  return result;
}

std::optional<CountResult> CountBySharpHypertree(const ConjunctiveQuery& q,
                                                 const Database& db, int k,
                                                 std::size_t max_cores) {
  std::optional<SharpDecomposition> d =
      FindSharpHypertreeDecomposition(q, k, max_cores);
  if (!d.has_value()) return std::nullopt;
  CountResult result = CountViaSharpDecomposition(q, db, *d);
  result.method = "#-hypertree(k=" + std::to_string(k) + ")";
  return result;
}

}  // namespace sharpcq
