// Declared in core/enumerate_answers.h; defined here because enumeration
// plans through the engine layer (shared plan cache), which sits above
// core/.

#include "core/enumerate_answers.h"

#include <unordered_map>

#include "core/materialize.h"
#include "count/join_tree_instance.h"
#include "engine/engine.h"
#include "util/check.h"

namespace sharpcq {

namespace {

// DFS over the join tree of a full-reduced, free-variables-only instance.
// Global consistency guarantees every consistent prefix extends to a full
// answer, so the delay between answers is polynomial in the instance.
class Enumerator {
 public:
  Enumerator(const JoinTreeInstance& instance, const IdSet& free,
             const AnswerCallback& callback)
      : instance_(instance), free_(free), callback_(callback) {
    order_ = instance_.shape.TopoOrder();
  }

  std::size_t Run() {
    if (instance_.nodes.empty()) return 0;
    Recurse(0);
    return emitted_;
  }

 private:
  bool Recurse(std::size_t depth) {
    if (stopped_) return false;
    if (depth == order_.size()) {
      std::vector<Value> answer;
      answer.reserve(free_.size());
      for (std::uint32_t v : free_) {
        auto it = assignment_.find(v);
        SHARPCQ_CHECK_MSG(it != assignment_.end(),
                          "free variable missing from instance");
        answer.push_back(it->second);
      }
      ++emitted_;
      if (!callback_(answer)) stopped_ = true;
      return !stopped_;
    }
    const Rel& rel =
        instance_.nodes[static_cast<std::size_t>(order_[depth])];
    const auto& vars = rel.vars();
    const Table& table = *rel.table();
    for (std::size_t row = 0; row < rel.size() && !stopped_; ++row) {
      std::vector<std::uint32_t> bound_here;
      bool ok = true;
      int c = 0;
      for (std::uint32_t v : vars) {
        Value value = table.at(row, c);
        auto [it, inserted] = assignment_.emplace(v, value);
        if (inserted) {
          bound_here.push_back(v);
        } else if (it->second != value) {
          ok = false;
        }
        ++c;
        if (!ok) break;
      }
      if (ok) Recurse(depth + 1);
      for (std::uint32_t v : bound_here) assignment_.erase(v);
    }
    return !stopped_;
  }

  const JoinTreeInstance& instance_;
  const IdSet& free_;
  const AnswerCallback& callback_;
  std::vector<int> order_;
  std::unordered_map<std::uint32_t, Value> assignment_;
  std::size_t emitted_ = 0;
  bool stopped_ = false;
};

}  // namespace

std::optional<std::size_t> EnumerateAnswers(const ConjunctiveQuery& q,
                                            const Database& db, int k,
                                            const AnswerCallback& callback) {
  // Plan through the shared engine so repeated enumerations of the same
  // query shape reuse the cached decomposition instead of re-searching.
  PlannerOptions planner;
  planner.max_width = k;
  planner.enable_acyclic_ps13 = false;
  planner.enable_hybrid = false;
  CountingEngine::Planned planned = CountingEngine::Shared().Plan(q, planner);
  if (planned.plan->strategy != PlanStrategy::kSharpHypertree) {
    return std::nullopt;  // no width-k #-hypertree decomposition
  }
  const CountingPlan& plan = *planned.plan;
  const ConjunctiveQuery& canon = plan.query;

  JoinTreeInstance instance =
      MaterializeBags(plan.sharp->core, canon, db, plan.sharp->tree,
                      plan.sharp->views);
  if (!FullReduce(&instance)) return 0;
  JoinTreeInstance restricted = RestrictToVars(instance, canon.free_vars());
  // Re-reduce: projections can expose tuples whose witnesses were shared;
  // the restricted instance stays globally consistent because each bag is
  // an exact projection of the answer-participating tuples, but a reduce
  // pass is cheap and keeps the no-dead-end property explicit.
  if (!FullReduce(&restricted)) return 0;

  // The plan's instance speaks canonical variables; answers must come back
  // in the original query's ascending-VarId order. perm[j] = position of
  // the j-th original free variable's canonical id among the canonical free
  // variables.
  std::vector<std::size_t> perm;
  perm.reserve(q.free_vars().size());
  const IdSet& canon_free = canon.free_vars();
  bool identity = true;
  for (std::uint32_t v : q.free_vars()) {
    VarId c = planned.canonical.to_canonical.at(v);
    std::size_t pos = 0;
    while (canon_free[pos] != c) ++pos;
    identity = identity && pos == perm.size();
    perm.push_back(pos);
  }
  if (identity) {
    Enumerator enumerator(restricted, canon_free, callback);
    return enumerator.Run();
  }
  std::vector<Value> original(perm.size());
  AnswerCallback remapping = [&callback, &perm,
                              &original](const std::vector<Value>& answer) {
    for (std::size_t j = 0; j < perm.size(); ++j) {
      original[j] = answer[perm[j]];
    }
    return callback(original);
  };
  Enumerator enumerator(restricted, canon_free, remapping);
  return enumerator.Run();
}

std::optional<std::vector<std::vector<Value>>> EnumerateAnswersToVector(
    const ConjunctiveQuery& q, const Database& db, int k, std::size_t limit) {
  std::vector<std::vector<Value>> answers;
  std::optional<std::size_t> emitted = EnumerateAnswers(
      q, db, k, [&answers, limit](const std::vector<Value>& answer) {
        answers.push_back(answer);
        return answers.size() < limit;
      });
  if (!emitted.has_value()) return std::nullopt;
  return answers;
}

}  // namespace sharpcq
