#include "count/ps13.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "algebra/exec_policy.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

// Makes room for `extra` more elements in `v`, charging the execution's
// memory budget once per capacity growth (never per element).
template <typename T>
void Grow(std::vector<T>* v, std::size_t extra) {
  const std::size_t need = v->size() + extra;
  if (need <= v->capacity()) return;
  const std::size_t capacity = std::max(need, 2 * v->capacity());
  ChargeExecMemory(static_cast<std::uint64_t>(capacity - v->capacity()) *
                   sizeof(T));
  v->reserve(capacity);
}

// A #-relation as one arena: set i is rows[offsets[i], offsets[i+1]), a
// sorted list of row ids of the vertex relation, and coeffs[i] counts the
// distinct combinations of free-variable assignments (in the processed
// subtree) compatible with exactly that set.
struct SharpRelation {
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> rows;
  std::vector<CountInt> coeffs;
  // Whether the sets are pairwise disjoint (the initial partition is).
  bool disjoint = true;

  std::size_t num_sets() const { return coeffs.size(); }
  std::span<const std::uint32_t> set(std::size_t i) const {
    return {rows.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  std::size_t max_set_size() const {
    std::size_t best = 0;
    for (std::size_t i = 0; i < num_sets(); ++i) {
      best = std::max(best, offsets[i + 1] - offsets[i]);
    }
    return best;
  }
  // Keeps the capacity (and so the memory already charged) for reuse.
  void clear() {
    offsets.resize(1);
    rows.clear();
    coeffs.clear();
    disjoint = true;
  }
  void Append(std::span<const std::uint32_t> set_rows, CountInt coeff) {
    Grow(&rows, set_rows.size());
    Grow(&offsets, 1);
    Grow(&coeffs, 1);
    rows.insert(rows.end(), set_rows.begin(), set_rows.end());
    offsets.push_back(rows.size());
    coeffs.push_back(coeff);
  }
};

// Initial #-relation of a vertex: the partition of its rows by the
// projection onto the free variables present in the bag, coefficient 1.
// This is a counted projection in kernel terms, so it reads the groups of
// the bag's cached index instead of sorting keys into a map.
void InitialSharpRelation(const Rel& rel, const IdSet& free_vars,
                          SharpRelation* out) {
  IdSet bag_free = Intersect(rel.vars(), free_vars);
  std::shared_ptr<const TableIndex> index =
      rel.table()->IndexOn(ColumnsOf(rel, bag_free));
  out->clear();
  Grow(&out->rows, rel.size());
  Grow(&out->offsets, index->num_groups());
  Grow(&out->coeffs, index->num_groups());
  for (std::size_t g = 0; g < index->num_groups(); ++g) {
    out->Append(index->group_rows(g), CountInt{1});
  }
}

// Collapses equal sets while a #-relation is built: Add appends a new set
// to the output arena, or adds the coefficient to the equal set already
// there. Open addressing over arena set indices, keyed by the hash of the
// sorted row list and confirmed with a full comparison.
class SetInterner {
 public:
  void Reset(SharpRelation* out, std::size_t expected_sets) {
    out_ = out;
    out_->clear();
    std::size_t size = 16;
    while (size < 2 * expected_sets) size *= 2;
    if (size > slots_.capacity()) {
      ChargeExecMemory(static_cast<std::uint64_t>(size - slots_.capacity()) *
                       sizeof(Slot));
    }
    slots_.assign(size, Slot{});
  }

  void Add(std::span<const std::uint32_t> rows, CountInt coeff) {
    if (2 * (out_->num_sets() + 1) > slots_.size()) Rehash(2 * slots_.size());
    const std::size_t hash = HashRange(rows.begin(), rows.end());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.set == kEmpty) {
        SHARPCQ_CHECK_MSG(out_->num_sets() < kEmpty, "#-relation too large");
        slot = Slot{hash, static_cast<std::uint32_t>(out_->num_sets())};
        out_->Append(rows, coeff);
        return;
      }
      if (slot.hash == hash) {
        std::span<const std::uint32_t> existing = out_->set(slot.set);
        if (std::equal(existing.begin(), existing.end(), rows.begin(),
                       rows.end())) {
          out_->coeffs[slot.set] += coeff;
          return;
        }
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  struct Slot {
    std::size_t hash = 0;
    std::uint32_t set = kEmpty;
  };

  void Rehash(std::size_t size) {
    ChargeExecMemory(static_cast<std::uint64_t>(size) * sizeof(Slot));
    std::vector<Slot> slots(size);
    const std::size_t mask = size - 1;
    for (const Slot& slot : slots_) {
      if (slot.set == kEmpty) continue;
      std::size_t i = slot.hash & mask;
      while (slots[i].set != kEmpty) i = (i + 1) & mask;
      slots[i] = slot;
    }
    slots_ = std::move(slots);
  }

  SharpRelation* out_ = nullptr;
  std::vector<Slot> slots_;
};

// Scratch reused by every (parent, child) step of one Ps13Count call, so
// steps after the first allocate only when they outgrow it. Of this, the
// output arena and the interner are charged to the memory budget; the
// rest is bounded by the relations' and arenas' sizes.
struct SemijoinScratch {
  // Child key id -> child sets holding it (CSR over q's index groups).
  std::vector<std::size_t> key_start;
  std::vector<std::uint32_t> key_sets;
  std::vector<std::uint32_t> last_set;
  // Per child set: rows kept by the current parent set, and where they sit
  // in `bucket_rows`.
  std::vector<std::uint32_t> bucket_len;
  std::vector<std::size_t> bucket_start;
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> bucket_rows;
  SharpRelation next;
  SetInterner interner;
};

// Lists, for every key id in [0, num_keys), the child sets holding a row
// with that key, each set once per key. Sets are visited in index order, so
// last_set[k] == s marks key k as already listed for set s. Returns whether
// no key is listed for two sets.
bool BuildKeySets(const SharpRelation& child,
                  const std::vector<std::uint32_t>& q_keys,
                  std::size_t num_keys, SemijoinScratch* scratch) {
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  SHARPCQ_CHECK_MSG(child.num_sets() < kNone, "#-relation too large");
  std::vector<std::size_t>& start = scratch->key_start;
  std::vector<std::uint32_t>& last = scratch->last_set;
  start.assign(num_keys + 1, 0);
  last.assign(num_keys, kNone);
  for (std::uint32_t s = 0; s < child.num_sets(); ++s) {
    for (std::uint32_t row : child.set(s)) {
      const std::uint32_t k = q_keys[row];
      if (last[k] != s) {
        last[k] = s;
        ++start[k + 1];
      }
    }
  }
  for (std::size_t k = 0; k < num_keys; ++k) start[k + 1] += start[k];
  scratch->key_sets.resize(start[num_keys]);
  // Fill with start[k] as key k's cursor; each cursor ends on the next
  // key's start, so shifting the array right by one restores the starts.
  last.assign(num_keys, kNone);
  for (std::uint32_t s = 0; s < child.num_sets(); ++s) {
    for (std::uint32_t row : child.set(s)) {
      const std::uint32_t k = q_keys[row];
      if (last[k] != s) {
        last[k] = s;
        scratch->key_sets[start[k]++] = s;
      }
    }
  }
  for (std::size_t k = num_keys; k > 0; --k) start[k] = start[k - 1];
  start[0] = 0;
  for (std::size_t k = 0; k < num_keys; ++k) {
    if (start[k + 1] - start[k] > 1) return false;
  }
  return true;
}

}  // namespace

CountInt Ps13Count(const JoinTreeInstance& instance, const IdSet& free_vars,
                   Ps13Stats* stats) {
  TraceSpan span("ps13_count");
  span.NoteCount("nodes", instance.nodes.size());
  span.NoteCount("free_vars", free_vars.size());
  if (instance.nodes.empty()) return 1;
  Ps13Stats local;
  Ps13Stats* st = stats != nullptr ? stats : &local;
  *st = Ps13Stats{};

  const std::size_t n = instance.nodes.size();
  std::vector<SharpRelation> sharp(n);
  SemijoinScratch scratch;

  std::vector<int> order = instance.shape.TopoOrder();

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t p = static_cast<std::size_t>(*it);
    CheckExecInterrupt();  // per-node deadline/cancellation checkpoint
    const Rel& rp = instance.nodes[p];
    SharpRelation rel_p;
    InitialSharpRelation(rp, free_vars, &rel_p);
    // The initial partition is where the degree bound h of Theorem 6.2
    // shows up: every set is a sigma_theta(r_p) group of size <= h.
    st->max_sets = std::max(st->max_sets, rel_p.num_sets());
    st->max_set_size = std::max(st->max_set_size, rel_p.max_set_size());

    for (int child : instance.shape.children[p]) {
      CheckExecInterrupt();  // per-(parent, child) step
      std::size_t q = static_cast<std::size_t>(child);
      const Rel& rq = instance.nodes[q];
      const SharpRelation& rel_q = sharp[q];

      // Dense join-key ids over the shared variables: the group ids of q's
      // cached index. q rows read their id straight off the group
      // structure; p rows probe one packed word each, and a p key absent
      // from q maps to the kNoGroup sentinel, which no child set holds.
      IdSet shared = Intersect(rp.vars(), rq.vars());
      std::vector<int> p_cols = ColumnsOf(rp, shared);
      std::vector<int> q_cols = ColumnsOf(rq, shared);
      std::shared_ptr<const TableIndex> q_index =
          rq.table()->IndexOn(q_cols);
      std::vector<std::uint32_t> q_keys(rq.size());
      for (std::size_t g = 0; g < q_index->num_groups(); ++g) {
        for (std::uint32_t row : q_index->group_rows(g)) {
          q_keys[row] = static_cast<std::uint32_t>(g);
        }
      }
      std::vector<std::uint32_t> p_keys(rp.size());
      ForEachProbeGroup(*q_index, *rp.table(), p_cols, 0, rp.size(),
                        [&p_keys](std::size_t row, std::uint32_t group) {
                          p_keys[row] = group;
                        });
      const bool unshared_keys =
          BuildKeySets(rel_q, q_keys, q_index->num_groups(), &scratch);
      const std::vector<std::size_t>& key_start = scratch.key_start;
      const std::vector<std::uint32_t>& key_sets = scratch.key_sets;

      // R^alpha_p := R^(alpha-1)_p ⋉ R_q with coefficient accumulation.
      // Each parent set is walked once: a row goes to the bucket of every
      // child set holding its key (one pass counts bucket sizes, a second
      // fills them in place), and each nonempty bucket — the set semijoin
      // S_p ⋉ S_q, still sorted — is interned with coeff_p * coeff_q.
      // When the parent sets are disjoint and no key is in two child sets,
      // no two buckets share a row, so none can be equal: they are
      // appended as they are, and the result is disjoint again.
      const bool distinct = rel_p.disjoint && unshared_keys;
      if (distinct) {
        scratch.next.clear();
      } else {
        scratch.interner.Reset(&scratch.next, rel_p.num_sets());
      }
      auto emit = [&](std::span<const std::uint32_t> rows, CountInt coeff) {
        if (distinct) {
          scratch.next.Append(rows, coeff);
        } else {
          scratch.interner.Add(rows, coeff);
        }
      };
      scratch.bucket_len.assign(rel_q.num_sets(), 0);
      scratch.bucket_start.resize(rel_q.num_sets());
      for (std::size_t i = 0; i < rel_p.num_sets(); ++i) {
        std::span<const std::uint32_t> parent_rows = rel_p.set(i);
        scratch.touched.clear();
        for (std::uint32_t row : parent_rows) {
          const std::uint32_t k = p_keys[row];
          if (k == TableIndex::kNoGroup) continue;
          for (std::size_t e = key_start[k]; e < key_start[k + 1]; ++e) {
            const std::uint32_t s = key_sets[e];
            if (scratch.bucket_len[s]++ == 0) scratch.touched.push_back(s);
          }
        }
        st->rows_visited += parent_rows.size();
        if (scratch.touched.empty()) continue;
        // Common case (a singleton parent set, or a key shared by the
        // whole set): every bucket is the parent set itself, no fill pass.
        const bool whole = std::all_of(
            scratch.touched.begin(), scratch.touched.end(),
            [&](std::uint32_t s) {
              return scratch.bucket_len[s] == parent_rows.size();
            });
        if (whole) {
          for (std::uint32_t s : scratch.touched) {
            emit(parent_rows, rel_p.coeffs[i] * rel_q.coeffs[s]);
            scratch.bucket_len[s] = 0;
          }
          st->rows_visited += scratch.touched.size() * parent_rows.size();
          continue;
        }
        std::size_t kept = 0;
        for (std::uint32_t s : scratch.touched) {
          scratch.bucket_start[s] = kept;
          kept += scratch.bucket_len[s];
          scratch.bucket_len[s] = 0;
        }
        st->rows_visited += kept;
        scratch.bucket_rows.resize(kept);
        for (std::uint32_t row : parent_rows) {
          const std::uint32_t k = p_keys[row];
          if (k == TableIndex::kNoGroup) continue;
          for (std::size_t e = key_start[k]; e < key_start[k + 1]; ++e) {
            const std::uint32_t s = key_sets[e];
            scratch.bucket_rows[scratch.bucket_start[s] +
                                scratch.bucket_len[s]++] = row;
          }
        }
        for (std::uint32_t s : scratch.touched) {
          emit(std::span<const std::uint32_t>(
                   scratch.bucket_rows.data() + scratch.bucket_start[s],
                   scratch.bucket_len[s]),
               rel_p.coeffs[i] * rel_q.coeffs[s]);
          scratch.bucket_len[s] = 0;
        }
      }
      scratch.next.disjoint = distinct;
      std::swap(rel_p, scratch.next);
      if (rel_p.num_sets() == 0) break;  // no solutions below this vertex
    }

    st->max_sets = std::max(st->max_sets, rel_p.num_sets());
    st->max_set_size = std::max(st->max_set_size, rel_p.max_set_size());
    sharp[p] = std::move(rel_p);
    // Children's #-relations are no longer needed.
    for (int child : instance.shape.children[p]) {
      sharp[static_cast<std::size_t>(child)] = SharpRelation{};
    }
  }
  span.NoteCount("rows_visited", st->rows_visited);

  CountInt total = 0;
  for (CountInt coeff :
       sharp[static_cast<std::size_t>(instance.shape.root)].coeffs) {
    total += coeff;
  }
  return total;
}

}  // namespace sharpcq
