#include "core/eswitch.hpp"

#include <algorithm>
#include <set>

#include "common/check.hpp"
#include "state/conntrack.hpp"

namespace esw::core {

using flow::FlowEntry;
using flow::FlowMod;
using flow::FlowTable;

Eswitch::Eswitch(const CompilerConfig& cfg) : cfg_(cfg) {
  root_template_.fill(TableTemplate::kLinkedList);
  if (cfg_.ct.enabled) {
    // The conntrack shares the datapath's epoch domain: the per-burst worker
    // tick that lets table retirements reclaim also ages out ct entries.
    ct_ = std::make_unique<state::Conntrack>(cfg_.ct, &dp_.domain());
    dp_.set_conntrack(ct_.get());
  }
}

Eswitch::~Eswitch() {
  dp_.set_conntrack(nullptr);
}

DataplaneStats Eswitch::stats() const {
  const CompiledDatapath::Stats s = dp_.stats();
  DataplaneStats out{s.packets, s.outputs, s.drops, s.to_controller};
  out.jit_fallbacks = degradation_.jit_fallbacks;
  out.mods_refused_table_full = degradation_.mods_refused_table_full;
  if (ct_ != nullptr) {
    const state::Conntrack::Stats cs = ct_->stats();
    out.ct_entries = cs.live;
    out.ct_commit_drops = cs.commit_drops;
    out.ct_evictions_forced = cs.evictions_forced;
    out.ct_expired = cs.expired;
  }
  return out;
}

void Eswitch::install(const flow::Pipeline& pl) {
  const auto err = pl.validate();
  ESW_CHECK_MSG(!err.has_value(), err.value_or(""));
  pipeline_ = pl;
  compile_all();
}

void Eswitch::compile_all() {
  installing_ = true;
  dp_.reset();
  goto_map_.assign(256, -1);
  decomposed_.fill(false);
  for (auto& v : sub_slots_) v.clear();
  degraded_jit_.clear();  // a wholesale reprogram owes the old program nothing

  // Root slots first so any goto resolves, then table bodies.
  for (const FlowTable& t : pipeline_.tables())
    goto_map_[t.id()] = dp_.add_slot(t.miss_policy());
  for (const FlowTable& t : pipeline_.tables()) rebuild_logical(t.id());
  refresh_start_and_plan();
  fusion_retry_.reset();  // the old program's degradation owes us nothing
  refresh_fusion();
  installing_ = false;
}

/// Re-plans the burst walk against the freshly published compiled state.
/// Must run after every control-plane mutation and *before* dp_.reclaim():
/// the published plan pins impl pointers, so any update that retired one has
/// to republish the plan while the retiree is still in its grace period.
void Eswitch::refresh_fusion() {
  // Retry pacing after a refused fused emit: inside the window the plan is
  // republished without a machine program; once it elapses the emit is
  // attempted again.
  const bool retrying = fusion_retry_.has_value();
  const bool retry_due = retrying && update_seq_ >= fusion_retry_->next_at;
  if (retry_due) ++degradation_.fusion_retries;
  const bool emit_machine =
      cfg_.enable_fusion && cfg_.enable_jit && (!retrying || retry_due);

  FusionResult r =
      fuse_pipeline(pipeline_, dp_, goto_map_, sub_slots_, emit_machine, dp_.fused());
  if (r.machine_failed) {
    // The exec-map edge: bursts run the machine-free plan and a
    // bounded-backoff re-fusion attempt is scheduled on the per-table JIT's
    // retry knobs.
    ++degradation_.fusion_fallbacks;
    if (!retrying && cfg_.jit_retry_base_updates > 0) {
      fusion_retry_ = JitRetry{update_seq_ + cfg_.jit_retry_base_updates,
                               cfg_.jit_retry_base_updates};
    } else if (retry_due) {
      fusion_retry_->backoff = std::min<uint64_t>(
          fusion_retry_->backoff * 2,
          std::max(cfg_.jit_retry_max_updates, cfg_.jit_retry_base_updates));
      fusion_retry_->next_at = update_seq_ + fusion_retry_->backoff;
    }
  } else if (retry_due) {
    ++degradation_.fusion_recoveries;
    fusion_retry_.reset();
  }
  if (r.fused == nullptr) return;  // published plan still exact
  ++update_stats_.fusion_republishes;
  dp_.set_fused(std::move(r.fused));
}

void Eswitch::rebuild_logical(uint8_t id, bool fresh_table) {
  const FlowTable* t = pipeline_.find_table(id);
  ESW_CHECK(t != nullptr);
  const int32_t root = goto_map_[id];
  ESW_CHECK(root >= 0);
  BuildCtx ctx{dp_.actions(), goto_map_};
  dp_.set_miss_policy(root, t->miss_policy());

  ++update_stats_.table_rebuilds;
  // Template re-selection accounting: a churn-path rebuild whose re-analysis
  // lands on a different template than the table ran on means the table
  // crossed a shape's sweet spot (or broke a prerequisite).  Wholesale
  // install() and first builds of fresh tables don't count.
  const TableTemplate prev_kind = root_template_[id];
  const auto note_reselection = [&](TableTemplate kind) {
    if (!installing_ && !fresh_table && kind != prev_kind)
      ++update_stats_.template_reselections;
  };
  // The outgoing sub-table chain (if any) becomes unreachable once the root
  // swaps below; retire it behind the swap so its slots recycle after the
  // grace period instead of leaking until the next install().
  std::vector<int32_t> stale_subs = std::move(sub_slots_[id]);
  sub_slots_[id].clear();
  decomposed_[id] = false;
  bool fell_back = false;
  bool jit_degraded = false;
  const auto note_impl = [&](const CompiledTable* impl, TableTemplate kind) {
    if (kind == TableTemplate::kDirectCode && cfg_.enable_jit &&
        !static_cast<const DirectCodeTable*>(impl)->jitted())
      jit_degraded = true;
  };

  if (cfg_.enable_decomposition &&
      analyze_table(*t, cfg_).chosen == TableTemplate::kLinkedList) {
    DecomposedPipeline d = decompose(*t, cfg_.decompose_max_tables);
    if (!d.unchanged()) {
      // Fresh slots for the sub-tables; the logical root keeps its slot so
      // cross-table gotos stay valid across the swap.
      std::vector<int32_t> slot_of(d.tables.size(), -1);
      slot_of[0] = root;
      for (size_t i = 1; i < d.tables.size(); ++i)
        slot_of[i] = dp_.add_slot(t->miss_policy());

      // Children first, root last: readers that enter through the old root
      // never see a half-published chain.
      for (size_t i = d.tables.size(); i-- > 0;) {
        std::vector<BuildEntry> entries = d.tables[i].entries;
        for (BuildEntry& e : entries)
          if (e.internal_next >= 0) e.internal_next = slot_of[e.internal_next];
        TableTemplate kind{};
        auto impl = build_table_impl(entries, cfg_, ctx, &kind, &fell_back);
        note_impl(impl.get(), kind);
        dp_.set_impl(slot_of[i], std::move(impl));
        if (i == 0) {
          note_reselection(kind);
          root_template_[id] = kind;
        }
      }
      decomposed_[id] = true;
      sub_slots_[id].assign(slot_of.begin() + 1, slot_of.end());
      for (const int32_t s : stale_subs) dp_.retire_slot(s);
      if (fell_back) ++degradation_.template_fallbacks;
      note_jit_state(id, jit_degraded);
      return;
    }
  }

  TableTemplate kind{};
  auto impl = build_table_impl(to_build_entries(*t), cfg_, ctx, &kind, &fell_back);
  note_impl(impl.get(), kind);
  dp_.set_impl(root, std::move(impl));
  note_reselection(kind);
  root_template_[id] = kind;
  for (const int32_t s : stale_subs) dp_.retire_slot(s);
  if (fell_back) ++degradation_.template_fallbacks;
  note_jit_state(id, jit_degraded);
}

/// Records whether a rebuild left the logical table on the interpreter when
/// machine code was wanted, and keeps the re-JIT retry schedule in sync: a
/// freshly degraded table gets its first retry window; a table that came back
/// (via retry or ordinary churn) leaves the schedule as a recovery.
void Eswitch::note_jit_state(uint8_t id, bool degraded) {
  const auto it = degraded_jit_.find(id);
  if (degraded) {
    ++degradation_.jit_fallbacks;
    if (it == degraded_jit_.end() && cfg_.jit_retry_base_updates > 0)
      degraded_jit_[id] = {update_seq_ + cfg_.jit_retry_base_updates,
                          cfg_.jit_retry_base_updates};
  } else if (it != degraded_jit_.end()) {
    degraded_jit_.erase(it);
    ++degradation_.jit_recoveries;
  }
}

/// Retries at most one degraded table whose backoff window has elapsed —
/// bounded work per update, no rebuild storms.  The rebuild itself updates
/// the schedule through note_jit_state (erases the entry on success).
void Eswitch::maybe_retry_jit() {
  if (degraded_jit_.empty()) return;
  int pick = -1;
  for (const auto& [id, r] : degraded_jit_) {
    if (update_seq_ >= r.next_at) {
      pick = id;
      break;
    }
  }
  if (pick < 0) return;
  if (pipeline_.find_table(static_cast<uint8_t>(pick)) == nullptr) {
    degraded_jit_.erase(static_cast<uint8_t>(pick));
    return;
  }
  ++degradation_.jit_retries;
  JitRetry& r = degraded_jit_[static_cast<uint8_t>(pick)];
  r.backoff = std::min<uint64_t>(r.backoff * 2,
                                 std::max(cfg_.jit_retry_max_updates,
                                          cfg_.jit_retry_base_updates));
  r.next_at = update_seq_ + r.backoff;
  rebuild_logical(static_cast<uint8_t>(pick));
  refresh_start_and_plan();
}

void Eswitch::refresh_start_and_plan() {
  const FlowTable* first = pipeline_.first_table();
  dp_.set_start(first != nullptr ? goto_map_[first->id()] : -1);
  dp_.set_plan(compute_parser_plan(pipeline_, cfg_));
}

void Eswitch::maybe_widen_plan(const FlowEntry& e) {
  // O(1) plan widening on the incremental path — a full recompute per update
  // would dominate at high flow-mod rates.
  const uint32_t req = e.match.proto_required() | action_proto_requirements(e.actions);
  const proto::ParserPlan needed = plan_for_requirements(req);
  proto::ParserPlan plan = dp_.plan();
  if ((needed.need_l3 && !plan.need_l3) || (needed.need_l4 && !plan.need_l4)) {
    plan.need_l3 |= needed.need_l3;
    plan.need_l4 |= needed.need_l4;
    dp_.set_plan(plan);
  }
}

/// Table-capacity admission control (cfg_.table_capacity, 0 = unbounded):
/// an add that would grow the table past the cap throws TableFullError
/// *before* any state mutates — the OpenFlow TABLE_FULL refusal shape.
/// Replacing an existing (match, priority) entry never grows the table and
/// is always admitted.
void Eswitch::check_capacity(const flow::Pipeline& pl, const FlowMod& fm) const {
  if (cfg_.table_capacity == 0 || fm.command == FlowMod::Cmd::kDelete) return;
  const FlowTable* t = pl.find_table(fm.table_id);
  if (t == nullptr || t->size() < cfg_.table_capacity) return;
  for (const FlowEntry& e : t->entries())
    if (e.priority == fm.priority && e.match == fm.match) return;
  throw TableFullError("table " + std::to_string(fm.table_id) +
                       " at capacity (" + std::to_string(cfg_.table_capacity) +
                       " entries)");
}

void Eswitch::apply_to_pipeline(flow::Pipeline& pl, const FlowMod& fm) const {
  switch (fm.command) {
    case FlowMod::Cmd::kAdd:
    case FlowMod::Cmd::kModify: {
      if (fm.goto_table != flow::kNoGoto) {
        ESW_CHECK_MSG(fm.goto_table > fm.table_id, "goto_table must go forward");
        ESW_CHECK_MSG(pl.find_table(static_cast<uint8_t>(fm.goto_table)) != nullptr,
                      "goto_table target does not exist");
      }
      check_capacity(pl, fm);
      pl.table(fm.table_id).add(flow::entry_from(fm));
      break;
    }
    case FlowMod::Cmd::kDelete: {
      if (pl.find_table(fm.table_id) != nullptr)
        pl.table(fm.table_id).remove(fm.match, fm.priority);
      break;
    }
  }
}

/// §3.4's non-destructive incremental update, in the shape the concurrency
/// mode allows:
///   * no registered workers — mutate the published impl in place (the
///     single-threaded fast path; the caller is the only thread inside the
///     datapath between its own calls);
///   * workers registered + template is reader-safe in place (LPM) — same;
///   * workers registered otherwise — clone, update the private copy, and
///     publish it with a trampoline swap; the displaced impl retires through
///     the epoch domain.  Inside a batch (`cow` non-null) the clone is made
///     once per table, accumulates every mod of the batch, and is published
///     by apply_batch with one swap.
bool Eswitch::try_incremental(uint8_t table, const FlowMod& fm, CowMap* cow) {
  const int32_t root = goto_map_[table];
  CompiledTable* published = root >= 0 ? dp_.impl_mut(root) : nullptr;
  if (published == nullptr || decomposed_[table]) return false;
  const bool is_add = fm.command == FlowMod::Cmd::kAdd;
  if (!is_add && fm.command != FlowMod::Cmd::kDelete) return false;
  BuildCtx ctx{dp_.actions(), goto_map_};

  // Resolve the mutation target: the published impl (in place), the batch's
  // pending clone, or a fresh clone.
  CompiledTable* target = published;
  std::unique_ptr<CompiledTable> fresh;
  const bool in_place = !dp_.has_workers() || published->concurrent_update_safe();
  if (!in_place) {
    const auto it = cow != nullptr ? cow->find(table) : CowMap::iterator{};
    if (cow != nullptr && it != cow->end()) {
      target = it->second.get();
    } else {
      fresh = published->clone_for_update();
      if (fresh == nullptr) return false;
      target = fresh.get();
    }
  }

  // A failed try_* leaves its target untouched, so a pending batch clone
  // stays valid and the caller falls back to a rebuild.
  if (is_add) {
    const FlowEntry e = flow::entry_from(fm);
    if (!target->try_add(e, ctx)) return false;
    maybe_widen_plan(e);
  } else {
    if (!target->try_remove(fm.match, fm.priority)) return false;
  }
  ++update_stats_.incremental;

  if (fresh != nullptr) {
    if (cow != nullptr) {
      cow->emplace(table, std::move(fresh));  // published at batch commit
    } else {
      dp_.set_impl(root, std::move(fresh));
      ++update_stats_.cow_swaps;
    }
  }
  return true;
}

/// True when an incremental update just pushed a table past its template's
/// sweet spot and a rebuild would re-select a better shape: today's one
/// trigger is a fixed-capacity compound hash crossing cuckoo_min_entries
/// (small direct-code tables crossing direct_code_max_entries re-select for
/// free — their try_add refuses, forcing the rebuild anyway).
bool Eswitch::wants_reselection(uint8_t table) const {
  if (decomposed_[table] || cfg_.force_template.has_value()) return false;
  if (root_template_[table] != TableTemplate::kCompoundHash) return false;
  if (cfg_.cuckoo_min_entries == 0) return false;
  const FlowTable* t = pipeline_.find_table(table);
  return t != nullptr && t->size() >= cfg_.cuckoo_min_entries;
}

void Eswitch::apply_one(const FlowMod& fm, CowMap* cow, DirtySet* dirty) {
  const bool new_table =
      fm.command != FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr;

  // Control plane first; throws leave no trace.
  apply_to_pipeline(pipeline_, fm);

  if (fm.command == FlowMod::Cmd::kDelete && pipeline_.find_table(fm.table_id) == nullptr)
    return;  // delete on a never-created table: no-op

  if (new_table) {
    goto_map_[fm.table_id] = dp_.add_slot(pipeline_.table(fm.table_id).miss_policy());
    if (dirty != nullptr) {
      // Batch path: the slot exists (gotos resolve; readers miss on its null
      // impl until commit), the one build runs at commit from the batch's
      // final state.
      (*dirty)[fm.table_id] = true;  // created by this batch
      return;
    }
    rebuild_logical(fm.table_id, /*fresh_table=*/true);
    refresh_start_and_plan();
    return;
  }

  // A table already scheduled for a commit-time rebuild takes further batch
  // mods in the pipeline only — one rebuild per table per batch, not one per
  // failing mod.
  if (dirty != nullptr && dirty->count(fm.table_id) != 0) return;

  if (!try_incremental(fm.table_id, fm, cow)) {
    // Rebuilding from the pipeline (which already carries this batch's mods
    // for the table) obsoletes any pending clone.
    if (cow != nullptr) cow->erase(fm.table_id);
    if (dirty != nullptr) {
      dirty->emplace(fm.table_id, false);
      return;
    }
    rebuild_logical(fm.table_id);
    refresh_start_and_plan();
    return;
  }

  // The add landed incrementally but pushed the table past its template's
  // sweet spot: schedule the re-selecting rebuild (deferred to commit inside
  // a batch, so a churn burst re-selects once).
  if (fm.command == FlowMod::Cmd::kAdd && wants_reselection(fm.table_id)) {
    if (cow != nullptr) cow->erase(fm.table_id);
    if (dirty != nullptr) {
      dirty->emplace(fm.table_id, false);
      return;
    }
    rebuild_logical(fm.table_id);
    refresh_start_and_plan();
  }
}

/// Batch commit: one rebuild per dirty table (from the final pipeline state),
/// one trampoline swap per pending clone, one start/plan refresh.
void Eswitch::commit_batch(CowMap& cow, const DirtySet& dirty) {
  for (const auto& [id, fresh] : dirty) {
    cow.erase(id);  // a rebuild supersedes any pending clone
    rebuild_logical(id, fresh);
  }
  for (auto& [table, impl] : cow) {
    dp_.set_impl(goto_map_[table], std::move(impl));
    ++update_stats_.cow_swaps;
  }
  if (!dirty.empty()) refresh_start_and_plan();
}

void Eswitch::apply(const FlowMod& fm) {
  ++update_seq_;
  try {
    apply_one(fm, nullptr);
  } catch (const TableFullError&) {
    ++degradation_.mods_refused_table_full;
    throw;
  }
  maybe_retry_jit();
  refresh_fusion();
  dp_.reclaim();
}

void Eswitch::apply_batch(const std::vector<FlowMod>& fms) {
  ++update_seq_;
  // Validate every mod against a scratch copy: all-or-nothing semantics.
  flow::Pipeline scratch = pipeline_;
  try {
    for (const FlowMod& fm : fms) apply_to_pipeline(scratch, fm);
  } catch (const TableFullError&) {
    ++degradation_.mods_refused_table_full;
    throw;
  }
  const auto err = scratch.validate();
  ESW_CHECK_MSG(!err.has_value(), err.value_or(""));

  // Commit through the regular path: validated mods cannot throw, and each
  // lands incrementally where its table's template allows, so a batch of
  // route adds does not force wholesale LPM rebuilds.  Tables that do need a
  // rebuild collect in the dirty set and rebuild once at commit; under
  // concurrent workers, clone-and-swap tables are cloned once for the whole
  // batch and published with a single trampoline swap each.
  CowMap cow;
  DirtySet dirty;
  for (const FlowMod& fm : fms) apply_one(fm, &cow, &dirty);
  commit_batch(cow, dirty);
  maybe_retry_jit();
  refresh_fusion();
  dp_.reclaim();
}

std::vector<ModStatus> Eswitch::apply_batch_partial(const std::vector<FlowMod>& fms) {
  ++update_seq_;
  std::vector<ModStatus> out;
  out.reserve(fms.size());
  CowMap cow;
  DirtySet dirty;
  for (const FlowMod& fm : fms) {
    try {
      apply_one(fm, &cow, &dirty);
      out.push_back(ModStatus::kApplied);
    } catch (const TableFullError&) {
      // apply_one throws before mutating anything, so refusing this mod
      // leaves the batch's accumulated state intact and the rest still lands.
      ++degradation_.mods_refused_table_full;
      out.push_back(ModStatus::kRefusedTableFull);
    } catch (const CheckError&) {
      out.push_back(ModStatus::kRefusedInvalid);
    }
  }
  commit_batch(cow, dirty);
  maybe_retry_jit();
  refresh_fusion();
  dp_.reclaim();
  return out;
}

}  // namespace esw::core
