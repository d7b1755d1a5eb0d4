#include "core/decompose.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "flow/actions.hpp"

namespace esw::core {

using flow::FieldId;
using flow::Match;

namespace {

using Entry = DecomposedPipeline::Entry;
using Table = DecomposedPipeline::Table;

class Decomposer {
 public:
  explicit Decomposer(uint32_t max_tables) : max_tables_(max_tables) {}

  // Returns the root index, or -1 when the budget was exceeded.
  int32_t run(std::vector<Entry> work, DecomposedPipeline& out) {
    out_ = &out;
    overflow_ = false;
    const int32_t root = emit(std::move(work));
    return overflow_ ? -1 : root;
  }

 private:
  // Serialize a working table for sub-table sharing (identical residual
  // tables collapse into one node, keeping the output a DAG).
  static std::string fingerprint(const std::vector<Entry>& entries) {
    std::ostringstream os;
    for (const Entry& e : entries) {
      os << e.match.to_string() << '#' << e.priority << '#' << to_string(e.actions)
         << '#' << e.logical_goto << ';';
    }
    return os.str();
  }

  // Pivot eligibility: a field is a pivot candidate when every entry that
  // matches on it does so exactly (full mask).  Returns kCount if none.
  static FieldId pick_pivot(const std::vector<Entry>& entries) {
    uint32_t used = 0;
    for (const Entry& e : entries) used |= e.match.present_bits();
    if (__builtin_popcount(used) <= 1) return FieldId::kCount;  // already a leaf

    FieldId best = FieldId::kCount;
    size_t best_diversity = SIZE_MAX;
    for (uint32_t bits = used; bits != 0; bits &= bits - 1) {
      const FieldId f = static_cast<FieldId>(__builtin_ctz(bits));
      const uint64_t full = flow::field_full_mask(f);
      bool exact_only = true;
      std::map<uint64_t, int> keys;  // Sp
      for (const Entry& e : entries) {
        if (!e.match.has(f)) continue;
        if (e.match.mask(f) != full) {
          exact_only = false;
          break;
        }
        keys.emplace(e.match.value(f), 0);
      }
      if (!exact_only || keys.empty()) continue;
      if (keys.size() < best_diversity) {
        best_diversity = keys.size();
        best = f;
      }
    }
    return best;
  }

  int32_t emit(std::vector<Entry> entries) {
    if (overflow_) return -1;
    const std::string fp = fingerprint(entries);
    if (const auto it = memo_.find(fp); it != memo_.end()) return it->second;

    const FieldId pivot = pick_pivot(entries);
    if (pivot == FieldId::kCount) {
      // Leaf: emit verbatim (single-field or irreducible).
      const int32_t idx = alloc_table();
      if (idx < 0) return -1;
      out_->tables[idx].entries = std::move(entries);
      memo_.emplace(fp, idx);
      return idx;
    }

    // Step (1)-(2): distinct keys of the pivot column, in first-appearance
    // order to keep output deterministic.
    std::vector<uint64_t> keys;
    for (const Entry& e : entries)
      if (e.match.has(pivot)) {
        const uint64_t v = e.match.value(pivot);
        bool seen = false;
        for (uint64_t k : keys) seen |= (k == v);
        if (!seen) keys.push_back(v);
      }

    // Reserve the router table slot first so the root is table 0.
    const int32_t router = alloc_table();
    if (router < 0) return -1;
    memo_.emplace(fp, router);

    // Step (4): per-key residual tables; wildcard-in-pivot rules are
    // replicated into every branch (set-pruning), preserving priority order.
    std::vector<Entry> wildcards;
    for (const Entry& e : entries)
      if (!e.match.has(pivot)) wildcards.push_back(e);

    std::vector<std::pair<uint64_t, int32_t>> branches;
    for (const uint64_t key : keys) {
      std::vector<Entry> sub;
      for (const Entry& e : entries) {
        if (e.match.has(pivot)) {
          if (e.match.value(pivot) != key) continue;
          Entry stripped = e;
          stripped.match.clear(pivot);
          sub.push_back(std::move(stripped));
        } else {
          sub.push_back(e);
        }
      }
      const int32_t sub_idx = emit(std::move(sub));
      if (sub_idx < 0) return -1;
      branches.emplace_back(key, sub_idx);
    }
    int32_t miss_idx = -1;
    if (!wildcards.empty()) {
      miss_idx = emit(std::move(wildcards));
      if (miss_idx < 0) return -1;
    }

    // Router: exact entries on the pivot (disjoint), catch-all last.
    Table& rt = out_->tables[router];
    for (const auto& [key, sub_idx] : branches) {
      Entry e;
      e.match.set(pivot, key);
      e.priority = 2;
      e.internal_next = sub_idx;
      rt.entries.push_back(std::move(e));
    }
    if (miss_idx >= 0) {
      Entry e;
      e.priority = 1;
      e.internal_next = miss_idx;
      rt.entries.push_back(std::move(e));
    }
    return router;
  }

  int32_t alloc_table() {
    if (out_->tables.size() >= max_tables_) {
      overflow_ = true;
      return -1;
    }
    out_->tables.emplace_back();
    return static_cast<int32_t>(out_->tables.size() - 1);
  }

  uint32_t max_tables_;
  DecomposedPipeline* out_ = nullptr;
  std::map<std::string, int32_t> memo_;
  bool overflow_ = false;
};

// Renumbers the tables into a topological order of the decomposition DAG
// (reverse DFS postorder from the root): every internal_next then points at a
// higher index.  Emit order alone does not guarantee that — a memoized
// residual table can be allocated before a later router that jumps to it —
// and the burst walk only ever moves forward through a pipeline's stages.
void topo_renumber(DecomposedPipeline& d) {
  const size_t n = d.tables.size();
  std::vector<int32_t> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  const auto visit = [&](const auto& self, int32_t t) -> void {
    seen[static_cast<size_t>(t)] = true;
    for (const Entry& e : d.tables[static_cast<size_t>(t)].entries)
      if (e.internal_next >= 0 && !seen[static_cast<size_t>(e.internal_next)])
        self(self, e.internal_next);
    order.push_back(t);
  };
  visit(visit, 0);
  ESW_CHECK(order.size() == n);  // every emitted table hangs off the root
  std::reverse(order.begin(), order.end());

  std::vector<int32_t> pos(n);
  for (size_t k = 0; k < n; ++k) pos[static_cast<size_t>(order[k])] = static_cast<int32_t>(k);
  std::vector<Table> sorted(n);
  for (size_t k = 0; k < n; ++k) {
    sorted[k] = std::move(d.tables[static_cast<size_t>(order[k])]);
    for (Entry& e : sorted[k].entries)
      if (e.internal_next >= 0) e.internal_next = pos[static_cast<size_t>(e.internal_next)];
  }
  d.tables = std::move(sorted);
}

DecomposedPipeline passthrough(const flow::FlowTable& input) {
  DecomposedPipeline out;
  out.tables.emplace_back();
  for (const flow::FlowEntry& fe : input.entries())
    out.tables[0].entries.push_back(
        {fe.match, fe.priority, fe.actions, fe.goto_table, -1});
  return out;
}

}  // namespace

DecomposedPipeline decompose(const flow::FlowTable& input, uint32_t max_tables) {
  std::vector<Entry> work;
  work.reserve(input.size());
  for (const flow::FlowEntry& fe : input.entries())
    work.push_back({fe.match, fe.priority, fe.actions, fe.goto_table, -1});

  DecomposedPipeline out;
  Decomposer d(max_tables);
  const int32_t root = d.run(std::move(work), out);
  if (root < 0) return passthrough(input);
  ESW_CHECK(root == 0);  // router/leaf allocated first
  topo_renumber(out);
  return out;
}

}  // namespace esw::core
