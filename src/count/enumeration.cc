#include "count/enumeration.h"

#include <algorithm>
#include <memory>

#include "algebra/exec_policy.h"
#include "algebra/rel.h"
#include "data/var_relation.h"
#include "query/atom_relation.h"
#include "util/check.h"

namespace sharpcq {

namespace {

// Joins the given relations in a connectivity-aware order: always prefer a
// relation sharing variables with the accumulated result (avoiding
// accidental cartesian products when possible).
Rel JoinAll(std::vector<Rel> rels) {
  SHARPCQ_CHECK(!rels.empty());
  Rel acc = std::move(rels.back());
  rels.pop_back();
  while (!rels.empty()) {
    std::size_t pick = rels.size();
    for (std::size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].vars().Intersects(acc.vars())) {
        pick = i;
        break;
      }
    }
    if (pick == rels.size()) pick = 0;  // disconnected: cartesian product
    acc = Join(acc, rels[pick]);
    rels.erase(rels.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return acc;
}

// Variable-oriented backtracking counter. Deliberately stays on the legacy
// VarRelation representation: this is the independent oracle the kernel's
// differential tests are judged against.
class BacktrackCounter {
 public:
  BacktrackCounter(const ConjunctiveQuery& q, const Database& db) : q_(q) {
    for (const Atom& a : q.atoms()) {
      atom_rels_.push_back(AtomToVarRelation(a, db));
    }
    // Variable order: free variables first, then existential; within each
    // group, ascending id.
    for (VarId v : q.free_vars()) order_.push_back(v);
    num_free_ = order_.size();
    for (VarId v : q.ExistentialVars()) order_.push_back(v);

    // Per-variable: atoms containing it.
    for (std::size_t i = 0; i < atom_rels_.size(); ++i) {
      for (VarId v : atom_rels_[i].vars()) {
        atoms_of_[v].push_back(i);
      }
    }
    bound_.assign(q.name_table()->names.size(), false);
    value_.assign(q.name_table()->names.size(), 0);
  }

  CountInt Count() {
    for (const VarRelation& r : atom_rels_) {
      if (r.empty()) return 0;
    }
    CountInt count = 0;
    Recurse(0, &count);
    return count;
  }

 private:
  // True if atom `i` has a row consistent with the current partial
  // assignment (checking only bound variables).
  bool AtomConsistent(std::size_t i) {
    const VarRelation& r = atom_rels_[i];
    std::size_t row = 0;
    while (row < r.size() && !RowMatches(r, row)) ++row;
    ChargeRows(row);
    return row < r.size();
  }

  bool RowMatches(const VarRelation& r, std::size_t row) const {
    auto tuple = r.rel().Row(row);
    std::size_t c = 0;
    for (VarId v : r.vars()) {
      if (bound_[v] && tuple[c] != value_[v]) return false;
      ++c;
    }
    return true;
  }

  // Deadline/cancellation checkpoint, amortized over the work done: the
  // backtracking search can run for seconds without ever touching a
  // morselized probe loop, so it polls the execution's cancel token itself
  // once per kRowsPerCheck rows scanned. One search node can scan whole
  // relations, so counting nodes would not bound the time between polls.
  void ChargeRows(std::size_t rows) {
    rows_since_check_ += rows + 1;  // + 1: an empty scan still counts
    if (rows_since_check_ >= kRowsPerCheck) {
      rows_since_check_ = 0;
      CheckExecInterrupt();
    }
  }

  // Counts answers below the current partial assignment of order_[0..pos).
  // Only called with pos <= num_free_.
  void Recurse(std::size_t pos, CountInt* count) {
    if (pos == num_free_) {
      // All free variables bound: this is an answer iff the existential
      // suffix has at least one witness (found with early exit).
      if (ExistsExtension(pos)) ++*count;
      return;
    }
    VarId v = order_[pos];
    for (Value candidate : Candidates(v)) {
      bound_[v] = true;
      value_[v] = candidate;
      if (ConsistentAround(v)) Recurse(pos + 1, count);
      bound_[v] = false;
    }
  }

  bool ExistsExtension(std::size_t pos) {
    if (pos == order_.size()) return true;
    VarId v = order_[pos];
    for (Value candidate : Candidates(v)) {
      bound_[v] = true;
      value_[v] = candidate;
      bool ok = ConsistentAround(v) && ExistsExtension(pos + 1);
      bound_[v] = false;
      if (ok) return true;
    }
    return false;
  }

  // Candidate values for `v`: distinct values in the smallest atom relation
  // containing v, filtered by the current assignment.
  std::vector<Value> Candidates(VarId v) {
    auto it = atoms_of_.find(v);
    SHARPCQ_CHECK_MSG(it != atoms_of_.end(),
                      "variable occurs in no atom");
    std::size_t best = it->second[0];
    for (std::size_t i : it->second) {
      if (atom_rels_[i].size() < atom_rels_[best].size()) best = i;
    }
    const VarRelation& r = atom_rels_[best];
    int col = r.ColumnOf(v);
    std::vector<Value> values;
    for (std::size_t row = 0; row < r.size(); ++row) {
      if (RowMatches(r, row)) {
        values.push_back(r.rel().Row(row)[static_cast<std::size_t>(col)]);
      }
    }
    ChargeRows(r.size());
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    return values;
  }

  // Forward check: every atom containing `v` must still have a consistent
  // row.
  bool ConsistentAround(VarId v) {
    for (std::size_t i : atoms_of_.at(v)) {
      if (!AtomConsistent(i)) return false;
    }
    return true;
  }

  const ConjunctiveQuery& q_;
  std::vector<VarRelation> atom_rels_;
  std::vector<VarId> order_;
  std::size_t num_free_ = 0;
  std::unordered_map<VarId, std::vector<std::size_t>> atoms_of_;
  std::vector<bool> bound_;
  std::vector<Value> value_;
  static constexpr std::size_t kRowsPerCheck = 4096;
  std::size_t rows_since_check_ = 0;
};

}  // namespace

CountInt CountByJoinProject(const ConjunctiveQuery& q, const Database& db) {
  std::vector<Rel> rels;
  rels.reserve(q.NumAtoms());
  for (const Atom& a : q.atoms()) rels.push_back(AtomToRel(a, db));
  SHARPCQ_CHECK_MSG(!rels.empty(), "query has no atoms");
  Rel joined = JoinAll(std::move(rels));
  // Counted projection: the distinct-key count streams off the group index,
  // never materializing the deduplicated projection.
  return DistinctCount(joined, Intersect(joined.vars(), q.free_vars()));
}

CountInt CountByBacktracking(const ConjunctiveQuery& q, const Database& db) {
  BacktrackCounter counter(q, db);
  return counter.Count();
}

}  // namespace sharpcq
