#ifndef SHARPCQ_TESTS_TEST_UTIL_H_
#define SHARPCQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/table.h"
#include "data/database.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"
#include "util/trace.h"

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

// The first direct child of `node` named `name`, or null.
inline const TraceNode* FindChild(const TraceNode& node,
                                  std::string_view name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

// Every span named `name` in the subtree below `node`.
inline void CollectSpans(const TraceNode& node, std::string_view name,
                         std::vector<const TraceNode*>* out) {
  for (const auto& child : node.children) {
    if (child->name == name) out->push_back(child.get());
    CollectSpans(*child, name, out);
  }
}

// The number of spans named `name` in the subtree below `node`.
inline std::size_t CountSpans(const TraceNode& node, std::string_view name) {
  std::vector<const TraceNode*> spans;
  CollectSpans(node, name, &spans);
  return spans.size();
}

// The value of `node`'s note `key`, or "" when it has none.
inline std::string NoteOf(const TraceNode& node, std::string_view key) {
  for (const auto& [k, v] : node.notes) {
    if (k == key) return v;
  }
  return "";
}

// Checks every non-comment line of a Prometheus text exposition has the
// `name{labels} value` shape with a numeric value, and returns the value
// of `series` (exact name + label match), or -1 when absent.
inline double ParseExposition(const std::string& text,
                              const std::string& series) {
  double found = -1.0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    char* parse_end = nullptr;
    const std::string value_text = line.substr(space + 1);
    const double value = std::strtod(value_text.c_str(), &parse_end);
    EXPECT_EQ(parse_end, value_text.c_str() + value_text.size()) << line;
    if (name == series) found = value;
  }
  return found;
}

}  // namespace sharpcq

#endif  // SHARPCQ_TESTS_TEST_UTIL_H_
