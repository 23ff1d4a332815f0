// The relational kernel (algebra/) against the legacy VarRelation algebra
// (data/var_relation.h): a differential/property suite over random
// instances, plus the copy-on-write and index-cache contracts the counting
// strategies rely on, and the Relation membership-cache invalidation
// regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "algebra/exec_policy.h"
#include "algebra/miss_filter.h"
#include "algebra/rel.h"
#include "data/relation.h"
#include "data/var_relation.h"
#include "solver/consistency.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace sharpcq {
namespace {

VarRelation MakeVarRel(IdSet vars, std::vector<std::vector<Value>> rows) {
  VarRelation r(std::move(vars));
  for (const auto& row : rows) r.rel().AddRow(std::span<const Value>(row));
  return r;
}

// A random deduplicated VarRelation over `vars` with values in [0, domain).
VarRelation RandomVarRel(std::mt19937_64* rng, IdSet vars, int domain,
                         int max_rows) {
  VarRelation r(std::move(vars));
  std::uniform_int_distribution<int> rows_dist(0, max_rows);
  std::uniform_int_distribution<Value> value_dist(0, domain - 1);
  const int rows = rows_dist(*rng);
  std::vector<Value> row(r.vars().size());
  for (int i = 0; i < rows; ++i) {
    for (Value& v : row) v = value_dist(*rng);
    r.rel().AddRow(row);
  }
  r.rel().Dedup();
  return r;
}

// A random schema: a subset of the variable pool, at least `min_vars` wide.
IdSet RandomVars(std::mt19937_64* rng, std::uint32_t pool,
                 std::size_t min_vars) {
  IdSet vars;
  while (vars.size() < min_vars) {
    vars = IdSet{};
    for (std::uint32_t v = 0; v < pool; ++v) {
      if ((*rng)() % 2 == 0) vars.Insert(v);
    }
  }
  return vars;
}

bool SameAsLegacy(const Rel& kernel, const VarRelation& legacy) {
  return SameVarRelation(ToVarRelation(kernel), legacy);
}

// Reference degree computation, independent of the kernel's group index.
std::size_t LegacyDegree(const VarRelation& rel, const IdSet& free) {
  if (rel.empty()) return 0;
  IdSet key_vars = Intersect(rel.vars(), free);
  std::unordered_map<std::vector<Value>, std::size_t, VectorHash<Value>>
      multiplicity;
  std::vector<Value> key(key_vars.size());
  std::size_t degree = 0;
  for (std::size_t row = 0; row < rel.size(); ++row) {
    std::size_t j = 0;
    for (std::uint32_t v : key_vars) key[j++] = rel.At(row, v);
    degree = std::max(degree, ++multiplicity[key]);
  }
  return degree;
}

// Legacy pairwise-consistency fixpoint, mirroring the kernel loop but on
// by-value VarRelations with the legacy semijoin.
bool LegacyEnforcePairwiseConsistency(std::vector<VarRelation>* views) {
  const std::size_t n = views->size();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && (*views)[i].vars().Intersects((*views)[j].vars())) {
        pairs.emplace_back(i, j);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto [i, j] : pairs) {
      bool local = false;
      (*views)[i] = Semijoin((*views)[i], (*views)[j], &local);
      if (local) {
        changed = true;
        if ((*views)[i].empty()) return false;
      }
    }
  }
  for (const VarRelation& v : *views) {
    if (v.empty()) return false;
  }
  return true;
}

// --- differential property suite ---------------------------------------------

TEST(AlgebraKernelDifferentialTest, OpsAgreeWithLegacyOn250RandomInstances) {
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    std::mt19937_64 rng(seed);
    const std::uint32_t pool = 5;
    const int domain = 2 + static_cast<int>(seed % 4);    // 2..5
    const int max_rows = 4 + static_cast<int>(seed % 17);  // 4..20

    IdSet vars_a = RandomVars(&rng, pool, 1);
    IdSet vars_b = RandomVars(&rng, pool, 1);
    VarRelation la = RandomVarRel(&rng, vars_a, domain, max_rows);
    VarRelation lb = RandomVarRel(&rng, vars_b, domain, max_rows);
    Rel ka(la);
    Rel kb(lb);

    // Join.
    EXPECT_TRUE(SameAsLegacy(Join(ka, kb), Join(la, lb))) << "seed " << seed;

    // Semijoin, both directions, with changed-flag agreement.
    bool kernel_changed = false;
    bool legacy_changed = false;
    Rel ks = Semijoin(ka, kb, &kernel_changed);
    VarRelation ls = Semijoin(la, lb, &legacy_changed);
    EXPECT_TRUE(SameAsLegacy(ks, ls)) << "seed " << seed;
    EXPECT_EQ(kernel_changed, legacy_changed) << "seed " << seed;
    EXPECT_TRUE(SameAsLegacy(Semijoin(kb, ka), Semijoin(lb, la)))
        << "seed " << seed;

    // Project onto a random subset of a's variables.
    IdSet onto;
    for (std::uint32_t v : vars_a) {
      if (rng() % 2 == 0) onto.Insert(v);
    }
    EXPECT_TRUE(SameAsLegacy(Project(ka, onto), Project(la, onto)))
        << "seed " << seed;

    // Counted projection: keys match the plain projection, counts
    // partition the source rows, and the streamed distinct count agrees.
    CountedProjection counted = ProjectCounted(ka, onto);
    EXPECT_TRUE(SameAsLegacy(counted.keys, Project(la, onto)))
        << "seed " << seed;
    CountInt total = 0;
    for (CountInt c : counted.counts) total += c;
    EXPECT_EQ(total, CountInt{la.size()}) << "seed " << seed;
    EXPECT_EQ(DistinctCount(ka, onto), Project(la, onto).size())
        << "seed " << seed;

    // SelectEqual on a random variable/value.
    std::uint32_t var = vars_a[rng() % vars_a.size()];
    Value value = static_cast<Value>(rng() % domain);
    EXPECT_TRUE(SameAsLegacy(SelectEqual(ka, var, value),
                             SelectEqual(la, var, value)))
        << "seed " << seed;

    // Degree (max group size) against an independent reference.
    EXPECT_EQ(MaxGroupSize(ka, onto), LegacyDegree(la, onto))
        << "seed " << seed;

    // Set equality both ways.
    EXPECT_TRUE(SameRel(ka, Rel(la))) << "seed " << seed;
    EXPECT_EQ(SameRel(ka, kb), SameVarRelation(la, lb)) << "seed " << seed;
  }
}

TEST(AlgebraKernelDifferentialTest, ConsistencyFixpointAgreesWithLegacy) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const std::uint32_t pool = 5;
    std::vector<VarRelation> legacy;
    std::vector<Rel> kernel;
    const std::size_t num_views = 2 + seed % 4;  // 2..5
    for (std::size_t i = 0; i < num_views; ++i) {
      VarRelation v = RandomVarRel(&rng, RandomVars(&rng, pool, 1),
                                   /*domain=*/3, /*max_rows=*/12);
      kernel.push_back(v);
      legacy.push_back(std::move(v));
    }
    bool kernel_ok = EnforcePairwiseConsistency(&kernel);
    bool legacy_ok = LegacyEnforcePairwiseConsistency(&legacy);
    EXPECT_EQ(kernel_ok, legacy_ok) << "seed " << seed;
    if (kernel_ok && legacy_ok) {
      for (std::size_t i = 0; i < num_views; ++i) {
        EXPECT_TRUE(SameAsLegacy(kernel[i], legacy[i]))
            << "seed " << seed << " view " << i;
      }
    }
  }
}

// --- packed-key probe kernel --------------------------------------------------

// A random deduplicated VarRelation whose values are base + stretch * u for
// u in [0, domain): stretch 1 exercises the dictionary-dense bit-packing,
// large stretches blow the 62-bit budget and force the collision-checked
// hash-word fallback.
VarRelation RandomStretchedVarRel(std::mt19937_64* rng, IdSet vars,
                                  int domain, int max_rows, Value base,
                                  Value stretch) {
  VarRelation r(std::move(vars));
  std::uniform_int_distribution<int> rows_dist(0, max_rows);
  std::uniform_int_distribution<Value> value_dist(0, domain - 1);
  const int rows = rows_dist(*rng);
  std::vector<Value> row(r.vars().size());
  for (int i = 0; i < rows; ++i) {
    for (Value& v : row) v = base + stretch * value_dist(*rng);
    r.rel().AddRow(row);
  }
  r.rel().Dedup();
  return r;
}

// Restores full-width hash words even if a test fails mid-way.
struct NarrowHashedWords {
  explicit NarrowHashedWords(int bits) {
    TableIndex::SetHashedWordBitsForTesting(bits);
  }
  ~NarrowHashedWords() { TableIndex::SetHashedWordBitsForTesting(0); }
};

// One differential round of every kernel operator against the legacy
// algebra (shared by the sequential and morsel-parallel sweeps below).
void CheckOpsAgainstLegacy(std::mt19937_64* rng, const VarRelation& la,
                           const VarRelation& lb, int domain, Value base,
                           Value stretch, std::uint64_t seed) {
  Rel ka(la);
  Rel kb(lb);

  EXPECT_TRUE(SameAsLegacy(Join(ka, kb), Join(la, lb))) << "seed " << seed;

  bool kernel_changed = false;
  bool legacy_changed = false;
  Rel ks = Semijoin(ka, kb, &kernel_changed);
  VarRelation ls = Semijoin(la, lb, &legacy_changed);
  EXPECT_TRUE(SameAsLegacy(ks, ls)) << "seed " << seed;
  EXPECT_EQ(kernel_changed, legacy_changed) << "seed " << seed;
  EXPECT_TRUE(SameAsLegacy(Semijoin(kb, ka), Semijoin(lb, la)))
      << "seed " << seed;

  IdSet onto;
  for (std::uint32_t v : la.vars()) {
    if ((*rng)() % 2 == 0) onto.Insert(v);
  }
  EXPECT_TRUE(SameAsLegacy(Project(ka, onto), Project(la, onto)))
      << "seed " << seed;
  EXPECT_EQ(DistinctCount(ka, onto), Project(la, onto).size())
      << "seed " << seed;
  EXPECT_EQ(MaxGroupSize(ka, onto), LegacyDegree(la, onto)) << "seed " << seed;

  // SelectEqual probes the single-column fast path; half the probes use a
  // value absent from the relation (poison/out-of-dictionary case).
  std::uint32_t var = la.vars()[(*rng)() % la.vars().size()];
  Value value = base + stretch * static_cast<Value>((*rng)() % domain);
  if ((*rng)() % 2 == 0) value += 1;  // usually misses every stretched value
  EXPECT_TRUE(SameAsLegacy(SelectEqual(ka, var, value),
                           SelectEqual(la, var, value)))
      << "seed " << seed;

  EXPECT_TRUE(SameRel(ka, Rel(la))) << "seed " << seed;
  EXPECT_EQ(SameRel(ka, kb), SameVarRelation(la, lb)) << "seed " << seed;
}

// The ISSUE-5 packed-key differential: >= 200 random instances over
// multi-column keys covering the dense bit-packing, shifted bases, the
// hashed fallback, collision-forcing narrowed hash words, and morsel
// parallelism both on and off — every configuration must agree with the
// legacy by-value algebra.
TEST(PackedKeyDifferentialTest, OpsAgreeWithLegacyOn240Instances) {
  ThreadPool pool(3);
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    std::mt19937_64 rng(seed);
    const std::uint32_t pool_vars = 5;
    const int domain = 2 + static_cast<int>(seed % 4);     // 2..5
    const int max_rows = 4 + static_cast<int>(seed % 17);  // 4..20

    Value base = 0;
    Value stretch = 1;
    switch (seed % 3) {
      case 0:  // dictionary-dense small values
        break;
      case 1:  // dense packing with a shifted (negative) base
        base = -1000003;
        stretch = 7;
        break;
      case 2:  // ranges past the 62-bit budget: hashed fallback
        base = -(Value{1} << 60);
        stretch = Value{1} << 59;
        break;
    }
    // Multi-column schemas (>= 2 vars) so shared keys are usually wide.
    IdSet vars_a = RandomVars(&rng, pool_vars, 2);
    IdSet vars_b = RandomVars(&rng, pool_vars, 2);
    VarRelation la =
        RandomStretchedVarRel(&rng, vars_a, domain, max_rows, base, stretch);
    VarRelation lb =
        RandomStretchedVarRel(&rng, vars_b, domain, max_rows, base, stretch);

    // Every fourth seed narrows hash words to 3 bits, making word
    // collisions between distinct keys near-certain: the collision-checked
    // probe must still verify values.
    std::unique_ptr<NarrowHashedWords> narrowed;
    if (seed % 4 == 0) narrowed = std::make_unique<NarrowHashedWords>(3);

    if (seed % 2 == 0) {
      // Morsel-parallel: thresholds forced low so even tiny probe sides
      // split into several chunks across the pool.
      ExecPolicy policy;
      policy.pool = [&pool]() -> ThreadPool* { return &pool; };
      policy.morsel_rows = 3;
      policy.row_threshold = 1;
      ExecScope scope(std::move(policy));
      CheckOpsAgainstLegacy(&rng, la, lb, domain, base, stretch, seed);
    } else {
      CheckOpsAgainstLegacy(&rng, la, lb, domain, base, stretch, seed);
    }
  }
}

TEST(PackedKeyTest, PackingModeSelectionAndPoisonProbes) {
  // Dense: two columns with tiny ranges bit-pack exactly.
  Rel dense = MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 11}, {3, 12}, {1, 12}});
  auto dense_index = dense.table()->IndexOn({0, 1});
  EXPECT_EQ(dense_index->packing().mode, KeyPacking::Mode::kDense);
  const Value hit[2] = {1, 12};
  EXPECT_EQ(dense_index->Lookup(std::span<const Value>(hit, 2)).size(), 1u);
  // Out-of-range probes poison the word and must miss (not crash, not
  // alias an in-range key).
  const Value miss_low[2] = {0, 10};
  const Value miss_high[2] = {1, 999};
  EXPECT_TRUE(dense_index->Lookup(std::span<const Value>(miss_low, 2)).empty());
  EXPECT_TRUE(
      dense_index->Lookup(std::span<const Value>(miss_high, 2)).empty());

  // Hashed: a column spanning more than 62 bits of range.
  const Value wide = Value{1} << 62;
  Rel hashed = MakeVarRel(IdSet{0, 1}, {{-wide, 0}, {wide, 1}, {0, 1}});
  auto hashed_index = hashed.table()->IndexOn({0, 1});
  EXPECT_EQ(hashed_index->packing().mode, KeyPacking::Mode::kHashed);
  const Value hkey[2] = {wide, 1};
  EXPECT_EQ(hashed_index->Lookup(std::span<const Value>(hkey, 2)).size(), 1u);
  const Value habsent[2] = {wide, 0};
  EXPECT_TRUE(
      hashed_index->Lookup(std::span<const Value>(habsent, 2)).empty());

  // Single column: pass-through words plus the Value fast-path overload.
  auto single_index = dense.table()->IndexOn({0});
  EXPECT_EQ(single_index->packing().mode, KeyPacking::Mode::kSingle);
  EXPECT_EQ(single_index->Lookup(Value{1}).size(), 2u);
  EXPECT_TRUE(single_index->Lookup(Value{42}).empty());
  const Value one[1] = {1};
  EXPECT_EQ(single_index->Lookup(Value{1}).data(),
            single_index->Lookup(std::span<const Value>(one, 1)).data());

  // Width-0 key: one group holding every row.
  auto empty_key_index = dense.table()->IndexOn({});
  EXPECT_EQ(empty_key_index->num_groups(), 1u);
  EXPECT_EQ(empty_key_index->Lookup(std::span<const Value>{}).size(), 4u);
}

TEST(PackedKeyTest, NarrowedHashWordsForceCollisionCheckedProbes) {
  // 2-bit hash words admit only 4 distinct words; 40 distinct wide-range
  // keys therefore collide heavily, and both the index build and every
  // probe must disambiguate by comparing actual values.
  NarrowHashedWords narrowed(2);
  const Value stretch = Value{1} << 56;  // 39 * 2^56 stays well inside int64
  std::vector<std::vector<Value>> rows;
  for (Value u = 0; u < 40; ++u) {
    rows.push_back({u * stretch - (Value{1} << 60), (u % 7) * stretch});
  }
  Rel r = MakeVarRel(IdSet{0, 1}, rows);
  auto index = r.table()->IndexOn({0, 1});
  ASSERT_EQ(index->packing().mode, KeyPacking::Mode::kHashed);
  EXPECT_EQ(index->num_groups(), 40u);  // collisions never merge groups
  for (const auto& row : rows) {
    std::span<const std::uint32_t> matches =
        index->Lookup(std::span<const Value>(row));
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(r.table()->at(matches[0], 0), row[0]);
    EXPECT_EQ(r.table()->at(matches[0], 1), row[1]);
    // A perturbed key sharing the same word space must miss.
    const Value absent[2] = {row[0] + 1, row[1]};
    EXPECT_TRUE(index->Lookup(std::span<const Value>(absent, 2)).empty());
  }
}

TEST(PackedKeyTest, MorselParallelSemijoinMatchesSequentialOnLargeInputs) {
  // Large enough that the parallel plan splits into many morsels; the
  // gathered selection must be byte-identical to the sequential result.
  std::mt19937_64 rng(7);
  std::vector<std::vector<Value>> a_rows;
  std::vector<std::vector<Value>> b_rows;
  for (int i = 0; i < 5000; ++i) {
    a_rows.push_back({static_cast<Value>(rng() % 50),
                      static_cast<Value>(rng() % 50),
                      static_cast<Value>(rng() % 50)});
    b_rows.push_back({static_cast<Value>(rng() % 40),
                      static_cast<Value>(rng() % 40)});
  }
  VarRelation la = MakeVarRel(IdSet{0, 1, 2}, a_rows);
  la.rel().Dedup();
  VarRelation lb = MakeVarRel(IdSet{1, 2}, b_rows);
  lb.rel().Dedup();
  Rel ka(la);
  Rel kb(lb);
  Rel seq_semi = Semijoin(ka, kb);
  Rel seq_join = Join(ka, kb);

  ThreadPool pool(4);
  ExecPolicy policy;
  policy.pool = [&pool]() -> ThreadPool* { return &pool; };
  policy.morsel_rows = 128;
  policy.row_threshold = 256;
  ExecScope scope(std::move(policy));
  Rel par_semi = Semijoin(ka, kb);
  Rel par_join = Join(ka, kb);
  EXPECT_TRUE(SameRel(par_semi, seq_semi));
  EXPECT_TRUE(SameRel(par_join, seq_join));
  // Chunk gathering preserves probe order: results are row-for-row equal,
  // not just set-equal.
  ASSERT_EQ(par_join.size(), seq_join.size());
  for (std::size_t i = 0; i < par_join.size(); ++i) {
    for (int c = 0; c < par_join.table()->arity(); ++c) {
      ASSERT_EQ(par_join.table()->at(i, c), seq_join.table()->at(i, c));
    }
  }
}

// --- block probe kernel, miss filters ----------------------------------------

// The axes differential: 108 instances, four RNG streams per seed (two
// with miss filters on, two with them off), crossed with the
// packing-mode configurations of the packed-key sweep. Every instance
// must agree with the legacy by-value algebra.
TEST(MissFilterAxisDifferentialTest, FilterAxisAgreesOn108Instances) {
  for (std::uint64_t seed = 1; seed <= 27; ++seed) {
    for (int axes = 0; axes < 4; ++axes) {
      const bool filters_off = (axes & 2) != 0;
      std::optional<MissFilterDisableScope> no_filters;
      if (filters_off) no_filters.emplace();

      std::mt19937_64 rng(seed * 8 + static_cast<std::uint64_t>(axes));
      const int domain = 2 + static_cast<int>(seed % 4);     // 2..5
      const int max_rows = 4 + static_cast<int>(seed % 17);  // 4..20
      Value base = 0;
      Value stretch = 1;
      switch (seed % 3) {
        case 0:
          break;
        case 1:
          base = -1000003;
          stretch = 7;
          break;
        case 2:  // hashed fallback
          base = -(Value{1} << 60);
          stretch = Value{1} << 59;
          break;
      }
      // Every fifth seed narrows hash words so the filter and the slot
      // walk both face word collisions between distinct keys.
      std::unique_ptr<NarrowHashedWords> narrowed;
      if (seed % 5 == 0) narrowed = std::make_unique<NarrowHashedWords>(3);

      IdSet vars_a = RandomVars(&rng, 5, 2);
      IdSet vars_b = RandomVars(&rng, 5, 2);
      VarRelation la =
          RandomStretchedVarRel(&rng, vars_a, domain, max_rows, base, stretch);
      VarRelation lb =
          RandomStretchedVarRel(&rng, vars_b, domain, max_rows, base, stretch);
      CheckOpsAgainstLegacy(&rng, la, lb, domain, base, stretch,
                            seed * 8 + static_cast<std::uint64_t>(axes));
    }
  }
}

// Both filter layouts: no stored key may be filtered out (one-sidedness),
// and a false positive must fall through to a slot walk that misses.
TEST(MissFilterTest, OneSidedAndFalsePositivesResolveToMiss) {
  for (const std::size_t keys : {100u, 5000u}) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(keys);
    for (std::size_t u = 0; u < keys; ++u) {
      rows.push_back({static_cast<Value>(u * 3)});
    }
    Rel r = MakeVarRel(IdSet{0}, rows);
    auto index = r.table()->IndexOn({0});
    ASSERT_EQ(index->num_groups(), keys);
    EXPECT_EQ(index->miss_filter().kind(),
              keys <= 2048 ? MissFilter::Kind::kTagVector
                           : MissFilter::Kind::kBlockedBloom);

    // One-sided: every stored word passes.
    for (std::size_t u = 0; u < keys; ++u) {
      EXPECT_TRUE(index->FilterMightContainWord(
          static_cast<std::uint64_t>(u * 3)))
          << "key " << u * 3;
    }

    // Hunt for a false positive among absent keys; at the filters' ~2-3%
    // rates one shows up in the first few thousand candidates.
    bool found_false_positive = false;
    std::vector<std::uint64_t> absent_word(1);
    std::vector<std::uint32_t> group(1);
    for (std::uint64_t candidate = 1; candidate < 1000000 * 3;
         candidate += 3) {  // == 1 mod 3: never a stored key
      if (!index->FilterMightContainWord(candidate)) continue;
      found_false_positive = true;
      // The slot walk must still resolve it as a miss, through both the
      // point lookup and the block driver.
      EXPECT_TRUE(index->Lookup(static_cast<Value>(candidate)).empty());
      absent_word[0] = candidate;
      index->ResolveProbeWords(absent_word.data(), 1, nullptr, group.data());
      EXPECT_EQ(group[0], TableIndex::kNoGroup);
      break;
    }
    EXPECT_TRUE(found_false_positive) << keys << " keys";
  }
}

TEST(MissFilterTest, CountersTallyHitsAndPassesAndDisableScopeStopsThem) {
  std::vector<std::vector<Value>> build_rows;
  for (Value u = 0; u < 64; ++u) build_rows.push_back({u, u});
  std::vector<std::vector<Value>> probe_rows;
  for (Value u = 0; u < 512; ++u) probe_rows.push_back({u + 100000, u});
  probe_rows.push_back({5, 5});  // one present key
  Rel build = MakeVarRel(IdSet{0, 1}, build_rows);
  Rel probe = MakeVarRel(IdSet{0, 1}, probe_rows);

  const ProbeFilterStats before = GlobalProbeFilterStats();
  Rel kept = Semijoin(probe, build);
  const ProbeFilterStats after = GlobalProbeFilterStats();
  EXPECT_EQ(kept.size(), 1u);
  // Nearly every probe is a definite miss the filter absorbs; the present
  // key (plus any false positives) walks the slots.
  EXPECT_GT(after.hits - before.hits, 400u);
  EXPECT_GE(after.passes - before.passes, 1u);

  MissFilterDisableScope off;
  const ProbeFilterStats disabled_before = GlobalProbeFilterStats();
  Rel kept_off = Semijoin(probe, build);
  const ProbeFilterStats disabled_after = GlobalProbeFilterStats();
  EXPECT_EQ(kept_off.size(), 1u);
  EXPECT_EQ(disabled_after.hits, disabled_before.hits);
  EXPECT_EQ(disabled_after.passes, disabled_before.passes);
}

TEST(TableBuilderTest, ReservedTaggedDedupKeepsFirstOccurrences) {
  // Heavy duplication through the tag-fronted dedup hash, with the
  // capacity reserved up front from the input size.
  TableBuilder builder(2);
  builder.ReserveRows(4000);
  for (int i = 0; i < 4000; ++i) {
    const Value a = i % 37;
    const Value b = i % 11;
    const Value row[2] = {a, b};
    builder.AddRow(std::span<const Value>(row, 2));
  }
  auto table = std::move(builder).Build();
  // lcm(37, 11) = 407 distinct pairs.
  ASSERT_EQ(table->rows(), 407u);
  // First occurrences in input order: row i of the output is the i-th
  // fresh pair of the input stream.
  EXPECT_EQ(table->at(0, 0), 0);
  EXPECT_EQ(table->at(0, 1), 0);
  EXPECT_EQ(table->at(1, 0), 1);
  EXPECT_EQ(table->at(1, 1), 1);
  EXPECT_EQ(table->at(37, 0), 0);   // 37 % 37 == 0, 37 % 11 == 4
  EXPECT_EQ(table->at(37, 1), 4);
}

// --- worklist consistency propagator ------------------------------------------

// Chain schemas are acyclic (the worklist downgrades to the join-tree full
// reducer); triangles are cyclic (the worklist itself runs). Both must
// match the legacy full-rescan fixpoint, with no scope installed and under
// a cost-model policy: the worklist has one schedule, so the cost model
// neither changes the views nor counts a reorder.
TEST(WorklistConsistencyTest, MatchesLegacyFixpointOnChainsAndTriangles) {
  for (const bool cost_model : {false, true}) {
    ExecStats stats;
    std::optional<ExecScope> scope;
    if (cost_model) {
      ExecPolicy policy;
      policy.cost_model = true;
      policy.stats = &stats;
      scope.emplace(std::move(policy));
    }
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
      std::mt19937_64 rng(seed);
      std::vector<VarRelation> legacy;
      const bool triangle = seed % 2 == 0;
      if (triangle) {
        legacy.push_back(RandomVarRel(&rng, IdSet{0, 1}, 3, 14));
        legacy.push_back(RandomVarRel(&rng, IdSet{1, 2}, 3, 14));
        legacy.push_back(RandomVarRel(&rng, IdSet{0, 2}, 3, 14));
        if (seed % 4 == 0) {  // a 4th view re-using an edge
          legacy.push_back(RandomVarRel(&rng, IdSet{0, 1}, 3, 14));
        }
      } else {
        const std::uint32_t len = 3 + static_cast<std::uint32_t>(seed % 3);
        for (std::uint32_t i = 0; i < len; ++i) {
          legacy.push_back(RandomVarRel(&rng, IdSet{i, i + 1}, 3, 14));
        }
      }
      std::vector<Rel> kernel(legacy.begin(), legacy.end());
      bool kernel_ok = EnforcePairwiseConsistency(&kernel);
      bool legacy_ok = LegacyEnforcePairwiseConsistency(&legacy);
      EXPECT_EQ(kernel_ok, legacy_ok)
          << "seed " << seed << " cost_model " << cost_model;
      if (kernel_ok && legacy_ok) {
        for (std::size_t i = 0; i < legacy.size(); ++i) {
          EXPECT_TRUE(SameAsLegacy(kernel[i], legacy[i]))
              << "seed " << seed << " view " << i << " cost_model "
              << cost_model;
        }
      }
    }
    EXPECT_EQ(stats.cost_reorders.load(), 0u);
  }
}

// --- copy-on-write and sharing contracts --------------------------------------

TEST(AlgebraKernelTest, ConversionDedupsAndUnitHasOneEmptyRow) {
  VarRelation dup = MakeVarRel(IdSet{0}, {{1}, {1}, {2}});
  Rel r(dup);
  EXPECT_EQ(r.size(), 2u);
  Rel unit = Rel::Unit();
  EXPECT_EQ(unit.size(), 1u);
  EXPECT_TRUE(unit.vars().empty());
  // Unit is the Join identity.
  Rel a = MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 20}});
  EXPECT_TRUE(SameRel(Join(a, unit), a));
}

TEST(AlgebraKernelTest, CopiesAndNoOpSemijoinShareTheTable) {
  Rel a = MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  Rel copy = a;
  EXPECT_EQ(copy.table().get(), a.table().get());

  // b matches every row of a: the semijoin removes nothing and must return
  // a handle to a's table itself, preserving cached indexes.
  Rel b = MakeVarRel(IdSet{1, 2}, {{10, 5}, {20, 5}, {30, 6}});
  bool changed = true;
  Rel kept = Semijoin(a, b, &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(kept.table().get(), a.table().get());

  // Identity projection shares too.
  EXPECT_EQ(Project(a, a.vars()).table().get(), a.table().get());

  // A removing semijoin materializes a fresh table.
  Rel c = MakeVarRel(IdSet{1}, {{10}});
  Rel reduced = Semijoin(a, c, &changed);
  EXPECT_TRUE(changed);
  EXPECT_NE(reduced.table().get(), a.table().get());
  EXPECT_EQ(reduced.size(), 1u);
}

TEST(AlgebraKernelTest, IndexCacheIsReusedPerKeyColumnSet) {
  Rel b = MakeVarRel(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(b.table()->CachedIndexCount(), 0u);
  auto first = b.table()->IndexOn({0});
  EXPECT_EQ(b.table()->CachedIndexCount(), 1u);
  auto second = b.table()->IndexOn({0});
  EXPECT_EQ(second.get(), first.get());  // same cached index object
  EXPECT_EQ(b.table()->CachedIndexCount(), 1u);
  b.table()->IndexOn({1});
  EXPECT_EQ(b.table()->CachedIndexCount(), 2u);

  // Repeated semijoins against the same right-hand side hit the cache: the
  // index over the shared columns is built once.
  Rel a = MakeVarRel(IdSet{0}, {{1}, {2}});
  std::size_t before = b.table()->CachedIndexCount();
  Semijoin(a, b);
  std::size_t after_one = b.table()->CachedIndexCount();
  Semijoin(a, b);
  Semijoin(a, b);
  EXPECT_EQ(b.table()->CachedIndexCount(), after_one);
  EXPECT_GE(after_one, before);
}

TEST(AlgebraKernelTest, GroupIndexExposesCountedGroups) {
  Rel r = MakeVarRel(IdSet{0, 1}, {{1, 10}, {1, 11}, {2, 20}});
  CountedProjection counted = ProjectCounted(r, IdSet{0});
  ASSERT_EQ(counted.keys.size(), 2u);
  ASSERT_EQ(counted.counts.size(), 2u);
  // Key 1 has multiplicity 2, key 2 multiplicity 1 (order-insensitive).
  CountInt total = counted.counts[0] + counted.counts[1];
  EXPECT_EQ(total, CountInt{3});
  EXPECT_EQ(DistinctCount(r, IdSet{0}), 2u);
  EXPECT_EQ(MaxGroupSize(r, IdSet{0}), 2u);
  EXPECT_EQ(MaxGroupSize(r, IdSet{0, 1}), 1u);
  // Empty key set: one group holding every row.
  EXPECT_EQ(MaxGroupSize(r, IdSet{}), 3u);
}

// --- Relation membership-cache invalidation ----------------------------------

TEST(RelationMembershipCacheTest, InvalidatedByMutation) {
  Relation r(2);
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  EXPECT_FALSE(r.HasCachedMembershipIndex());

  // First membership check builds and caches the index.
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{1, 2}));
  EXPECT_TRUE(r.HasCachedMembershipIndex());
  EXPECT_FALSE(r.ContainsRow(std::vector<Value>{9, 9}));

  // Mutation drops the cache; the next check must see the new row.
  r.AddRow({9, 9});
  EXPECT_FALSE(r.HasCachedMembershipIndex());
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{9, 9}));
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{1, 2}));

  // Dedup (which sorts) also invalidates; results stay correct.
  r.AddRow({1, 2});
  r.Dedup();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{1, 2}));
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{9, 9}));
  EXPECT_FALSE(r.ContainsRow(std::vector<Value>{2, 1}));

  // Copies do not inherit the cache but answer correctly.
  EXPECT_TRUE(r.ContainsRow(std::vector<Value>{3, 4}));
  Relation copy = r;
  EXPECT_FALSE(copy.HasCachedMembershipIndex());
  EXPECT_TRUE(copy.ContainsRow(std::vector<Value>{3, 4}));
}

}  // namespace
}  // namespace sharpcq
