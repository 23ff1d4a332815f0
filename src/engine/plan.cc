#include "engine/plan.h"

#include "util/check.h"

namespace sharpcq {

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kSharpHypertree:
      return "sharp-hypertree";
    case PlanStrategy::kAcyclicPs13:
      return "acyclic-ps13";
    case PlanStrategy::kSharpB:
      return "sharp-b";
    case PlanStrategy::kBacktracking:
      return "backtracking";
  }
  return "unknown";
}

SharpBMemo& SharpBMemo::operator=(const SharpBMemo& other) {
  if (this != &other) {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.clear();
    chosen_ = nullptr;
  }
  return *this;
}

bool SharpBMemo::Find(
    const std::vector<std::shared_ptr<const Table>>& tables,
    std::shared_ptr<const SharpBDecomposition>* chosen) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.empty() || tables_.size() != tables.size()) return false;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    // An expired entry locks to null, which no live table equals.
    if (tables_[i].lock() != tables[i]) return false;
  }
  *chosen = chosen_;
  return true;
}

void SharpBMemo::Store(const std::vector<std::shared_ptr<const Table>>& tables,
                       std::shared_ptr<const SharpBDecomposition> chosen) {
  SHARPCQ_CHECK(!tables.empty());
  std::lock_guard<std::mutex> lock(mu_);
  tables_.assign(tables.begin(), tables.end());
  chosen_ = std::move(chosen);
}

bool SharpBMemo::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.empty();
}

std::string PlannerOptions::CacheFingerprint() const {
  return "w" + std::to_string(max_width) + ";c" + std::to_string(max_cores) +
         ";a" + (enable_acyclic_ps13 ? "1" : "0") + ";h" +
         (enable_hybrid ? "1" : "0") + ";b" + std::to_string(hybrid_max_b) +
         ";s" + std::to_string(hybrid_max_subsets);
}

namespace {

std::string Short(double value) {
  std::string s = std::to_string(value);
  std::size_t dot = s.find('.');
  if (dot != std::string::npos) {
    std::size_t last = s.find_last_not_of('0');
    s.erase(last == dot ? dot : last + 1);
  }
  return s;
}

}  // namespace

std::string CountingPlan::DebugString() const {
  std::string out = "strategy: ";
  out += PlanStrategyName(strategy);
  if (strategy == PlanStrategy::kSharpHypertree) {
    out += " (k=" + std::to_string(width_budget) + ")";
  }
  out += "\ncost: ~" + Short(cost.query_factor) + " * m^" +
         Short(cost.db_exponent);
  if (!cost.note.empty()) out += " " + cost.note;
  out += "\n";
  return out;
}

}  // namespace sharpcq
