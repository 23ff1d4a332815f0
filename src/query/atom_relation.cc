#include "query/atom_relation.h"

#include "algebra/table.h"
#include "util/check.h"

namespace sharpcq {

namespace {

// Column layout of an atom's output relation: the output columns are the
// atom's variables in ascending id order; first_pos[c] is the first atom
// position holding output column c's variable, col_of_pos[p] the output
// column of position p (-1 for constants).
struct AtomLayout {
  std::vector<int> first_pos;
  std::vector<int> col_of_pos;
  bool plain = true;  // no constants, no repeated variables
};

AtomLayout LayoutOf(const Atom& atom, const IdSet& vars) {
  AtomLayout layout;
  layout.first_pos.assign(vars.size(), -1);
  layout.col_of_pos.assign(atom.terms.size(), -1);
  std::size_t c = 0;
  for (VarId v : vars) {
    for (std::size_t p = 0; p < atom.terms.size(); ++p) {
      if (atom.terms[p].is_var() && atom.terms[p].var == v) {
        if (layout.first_pos[c] == -1) {
          layout.first_pos[c] = static_cast<int>(p);
        } else {
          layout.plain = false;  // repeated variable
        }
        layout.col_of_pos[p] = static_cast<int>(c);
      }
    }
    ++c;
  }
  for (const Term& t : atom.terms) {
    if (!t.is_var()) layout.plain = false;  // constant position
  }
  return layout;
}

// Shared filtering loop over any row source (row-major Relation or columnar
// Table, abstracted as at(i, p)): emits the variable-projected row of every
// tuple that satisfies the constant and repeated-variable constraints.
template <typename GetAt, typename Emit>
void ForEachSatisfyingRow(const Atom& atom, const AtomLayout& layout,
                          std::size_t n, GetAt&& at, Emit&& emit) {
  std::vector<Value> row(layout.first_pos.size());
  for (std::size_t i = 0; i < n; ++i) {
    bool ok = true;
    for (std::size_t p = 0; p < atom.terms.size() && ok; ++p) {
      const Term& t = atom.terms[p];
      if (!t.is_var()) {
        ok = at(i, p) == t.value;
      } else {
        // Repeated-variable consistency against the first occurrence.
        std::size_t c = static_cast<std::size_t>(layout.col_of_pos[p]);
        std::size_t first = static_cast<std::size_t>(layout.first_pos[c]);
        ok = at(i, first) == at(i, p);
      }
    }
    if (!ok) continue;
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = at(i, static_cast<std::size_t>(layout.first_pos[c]));
    }
    emit(std::span<const Value>(row));
  }
}

template <typename Emit>
void EmitSatisfyingRows(const Atom& atom, const Database& db,
                        const IdSet& vars, Emit&& emit) {
  AtomLayout layout = LayoutOf(atom, vars);
  if (std::shared_ptr<const Table> stored = db.ColumnarBacking(atom.relation);
      stored != nullptr) {
    SHARPCQ_CHECK_MSG(stored->arity() == atom.arity(),
                      atom.relation.c_str());
    ForEachSatisfyingRow(
        atom, layout, stored->rows(),
        [&stored](std::size_t i, std::size_t p) {
          return stored->at(i, static_cast<int>(p));
        },
        emit);
    return;
  }
  const Relation& rel = db.relation(atom.relation);
  SHARPCQ_CHECK_MSG(rel.arity() == atom.arity(), atom.relation.c_str());
  ForEachSatisfyingRow(
      atom, layout, rel.size(),
      [&rel](std::size_t i, std::size_t p) { return rel.Row(i)[p]; }, emit);
}

std::size_t StoredSize(const Atom& atom, const Database& db) {
  if (auto stored = db.ColumnarBacking(atom.relation); stored != nullptr) {
    return stored->rows();
  }
  return db.relation(atom.relation).size();
}

}  // namespace

Rel AtomToRel(const Atom& atom, const Database& db) {
  IdSet vars = atom.Vars();
  if (std::shared_ptr<const Table> stored = db.ColumnarBacking(atom.relation);
      stored != nullptr) {
    SHARPCQ_CHECK_MSG(stored->arity() == atom.arity(),
                      atom.relation.c_str());
    AtomLayout layout = LayoutOf(atom, vars);
    if (layout.plain) {
      bool identity = true;
      for (std::size_t c = 0; c < layout.first_pos.size(); ++c) {
        if (layout.first_pos[c] != static_cast<int>(c)) {
          identity = false;
          break;
        }
      }
      if (identity) {
        // The variable order already matches the stored column order:
        // share the stored table itself rather than an alias. The stored
        // table outlives any single count, so indexes built while probing
        // it stay cached across queries — on catalog-served snapshots this
        // turns the per-count index build (the dominant cost of semijoins
        // against large relations) into a one-time cost.
        return Rel(std::move(vars), std::move(stored));
      }
      // Every tuple satisfies a plain atom and the projection onto vars is
      // a column permutation, so alias the stored columns directly: the
      // returned relation shares the snapshot's pages (zero copy), and the
      // permutation of a row set is still a row set. The stored table
      // keeps one alias per permutation, so the alias's indexes, like the
      // stored table's own, are built once and not on every count.
      std::shared_ptr<const Table> aliased =
          Table::PermutedAlias(stored, layout.first_pos);
      return Rel(std::move(vars), std::move(aliased));
    }
  }
  TableBuilder builder(static_cast<int>(vars.size()));
  builder.ReserveRows(StoredSize(atom, db));
  EmitSatisfyingRows(atom, db, vars, [&builder](std::span<const Value> row) {
    builder.AddRow(row);
  });
  return Rel(std::move(vars), std::move(builder).Build());
}

VarRelation AtomToVarRelation(const Atom& atom, const Database& db) {
  IdSet vars = atom.Vars();
  VarRelation out(vars);
  EmitSatisfyingRows(atom, db, vars, [&out](std::span<const Value> row) {
    out.rel().AddRow(row);
  });
  out.rel().Dedup();
  return out;
}

}  // namespace sharpcq
