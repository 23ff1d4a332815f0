#ifndef SHARPCQ_TESTS_TEST_UTIL_H_
#define SHARPCQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "algebra/table.h"
#include "data/database.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"

namespace sharpcq {

// The variable set {names...} resolved against q's name table.
inline IdSet VarsOf(const ConjunctiveQuery& q,
                    std::initializer_list<const char*> names) {
  IdSet out;
  for (const char* n : names) out.Insert(q.VarByName(n));
  return out;
}

// Sorted copy of an edge list, for order-insensitive comparison.
inline std::vector<IdSet> SortedEdges(std::vector<IdSet> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

// True if `edges` contains `edge`.
inline bool HasEdge(const std::vector<IdSet>& edges, const IdSet& edge) {
  return std::find(edges.begin(), edges.end(), edge) != edges.end();
}

// `db` with every relation columnar, as a snapshot-served catalog holds it:
// an atom over a relation's columns in order shares the stored table, so the
// indexes built on it stay cached across counts.
inline Database ColumnarCopy(const Database& db) {
  Database out;
  for (const std::string& name : db.SortedRelationNames()) {
    const Relation& rel = db.relation(name);
    TableBuilder builder(rel.arity());
    for (std::size_t i = 0; i < rel.size(); ++i) builder.AddRow(rel.Row(i));
    out.AdoptColumnar(name, std::move(builder).Build());
  }
  return out;
}

}  // namespace sharpcq

#endif  // SHARPCQ_TESTS_TEST_UTIL_H_
