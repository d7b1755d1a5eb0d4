// ESWITCH — the public switch facade.
//
// Owns the control-plane pipeline (the declarative program) and the compiled
// datapath (the specialized machine-code realization), and keeps the two in
// sync the way §3.4 prescribes:
//   * templates supporting it are updated incrementally and non-destructively
//     (compound hash, LPM, linked list);
//   * the direct-code template rebuilds unconditionally;
//   * prerequisite violations rebuild the table under the next template in
//     Fig. 4's fallback chain (via re-analysis);
//   * rebuilds happen side by side and are published with one atomic
//     trampoline swap, giving per-flow-table update granularity;
//   * batches are transactional — validated against a scratch pipeline first,
//     so a bad mod in the middle leaves no partial state behind.
//
// Concurrency: apply()/apply_batch() run on one control thread while any
// number of registered packet workers process bursts.  While workers are
// registered, incremental updates take one of two reader-safe shapes —
// in place for templates that publish per-cell (LPM), or clone-update-swap
// for the rest — and every displaced object is retired through the datapath's
// epoch domain (freed only after all workers tick past the retirement; see
// common/epoch.hpp).  install() is stop-the-world: no workers registered.
//
// Decomposed logical tables occupy a fixed root slot; a rebuild appends fresh
// sub-table slots and swaps the root, so cross-table gotos stay valid.  The
// previous sub-table chain is retired behind the swap and its slots are
// recycled after the grace period.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/compiler.hpp"
#include "core/dataplane.hpp"
#include "core/datapath.hpp"
#include "flow/wire.hpp"

namespace esw::core {

class Eswitch {
 public:
  /// Packet-worker execution context (see CompiledDatapath::Worker).
  using Worker = CompiledDatapath::Worker;

  explicit Eswitch(const CompilerConfig& cfg = CompilerConfig{});
  ~Eswitch();  // out of line: ct_ holds an incomplete type here

  /// Replaces the whole configuration and recompiles from scratch.
  /// Stop-the-world: requires no registered workers.
  void install(const flow::Pipeline& pl);

  /// Applies one flow-mod (add / modify / delete), updating the datapath
  /// incrementally where the template allows.  Throws CheckError on invalid
  /// mods, leaving all state untouched.  Safe concurrently with registered
  /// workers' process_burst.
  void apply(const flow::FlowMod& fm);

  /// Transactional batch: every mod validated against a scratch pipeline
  /// before anything is applied; dirty tables are rebuilt once and swapped
  /// atomically ("partial updates automatically rolled back").  Exactly one
  /// fusion re-plan and one epoch reclaim pass per batch, however many mods
  /// it carries.
  void apply_batch(const std::vector<flow::FlowMod>& fms);

  /// Best-effort batch for controller ingestion (the OfAgent path): applies
  /// every mod it can and reports a per-mod outcome instead of aborting the
  /// remainder — a mid-batch TABLE_FULL refuses *that* mod (one error on the
  /// wire) while the rest land.  Same once-per-batch recompile/fusion/reclaim
  /// schedule as apply_batch; never throws for per-mod failures.
  std::vector<ModStatus> apply_batch_partial(const std::vector<flow::FlowMod>& fms);

  /// Datapath fast path (scalar reference implementation, owner context).
  flow::Verdict process(net::Packet& pkt, MemTrace* trace = nullptr) {
    return dp_.process(pkt, trace);
  }
  /// Worker-context scalar path (per-hop trampoline reload, per-packet tick).
  flow::Verdict process(Worker& w, net::Packet& pkt, MemTrace* trace = nullptr) {
    return dp_.process(w, pkt, trace);
  }

  /// Datapath burst fast path: `n` packets run to completion, one verdict per
  /// packet.  Observably identical to n process() calls but amortizes parse,
  /// trampoline-load and stats overhead over the burst (see
  /// CompiledDatapath::process_burst).  Owner context — single-threaded use.
  void process_burst(net::Packet* const* pkts, uint32_t n, flow::Verdict* out) {
    dp_.process_burst(pkts, n, out);
  }
  /// Worker-context burst path — the entry concurrent packet threads use.
  void process_burst(Worker& w, net::Packet* const* pkts, uint32_t n,
                     flow::Verdict* out) {
    dp_.process_burst(w, pkts, n, out);
  }

  /// Registers a packet-worker context (control thread only; nullptr when the
  /// datapath's kMaxWorkers are active).
  Worker* register_worker() { return dp_.register_worker(); }
  /// Unregisters a worker whose thread has finished (joined).
  void unregister_worker(Worker* w) { dp_.unregister_worker(w); }
  bool has_workers() const { return dp_.has_workers(); }
  /// Forces a quiescent epoch tick for a worker that provably holds no
  /// datapath pointers (parked in backpressure) — the runtime watchdog's
  /// recovery lever against a stuck worker pinning the epoch horizon.
  void quiesce(Worker& w) { dp_.quiesce(w); }

  /// Verdict-level counters in the unified Dataplane shape, degradation and
  /// conntrack counters included.
  DataplaneStats stats() const;

  /// The connection-tracking layer, or nullptr when cfg.ct.enabled is false.
  /// Created at construction and owned for the switch's lifetime.
  state::Conntrack* conntrack() { return ct_.get(); }
  const state::Conntrack* conntrack() const { return ct_.get(); }

  const flow::Pipeline& pipeline() const { return pipeline_; }
  CompiledDatapath& datapath() { return dp_; }
  const CompiledDatapath& datapath() const { return dp_; }
  const CompilerConfig& config() const { return cfg_; }

  /// Template of a logical table's root (kLinkedList default if absent).
  TableTemplate table_template(uint8_t logical) const { return root_template_[logical]; }
  bool is_decomposed(uint8_t logical) const { return decomposed_[logical]; }
  int32_t root_slot(uint8_t logical) const { return goto_map_[logical]; }
  /// Number of decomposition-internal tables behind a logical table (0 when
  /// not decomposed).
  uint32_t decomposed_table_count(uint8_t logical) const {
    return static_cast<uint32_t>(sub_slots_[logical].size()) + decomposed_[logical];
  }

  struct UpdateStats {
    uint64_t incremental = 0;     // served by try_add/try_remove (either shape)
    uint64_t cow_swaps = 0;       // of which: clone-update-swap publications
    uint64_t table_rebuilds = 0;  // side-by-side rebuild + trampoline swap
    // Rebuilds whose re-analysis picked a *different* template than the one
    // the table ran on — the table grew (or shrank) past its shape's sweet
    // spot: exact-match hash → cuckoo at cuckoo_min_entries, small
    // direct-code → hash past direct_code_max_entries, and every fallback
    // demotion.  Wholesale install() recompiles are not re-selections.
    uint64_t template_reselections = 0;
    // Fused whole-pipeline plans actually republished (set_fused with a new
    // plan).  A batch republishes at most once however many mods it carried;
    // the PR 9 fingerprint skip keeps no-op refreshes out of this count.
    uint64_t fusion_republishes = 0;
  };
  const UpdateStats& update_stats() const { return update_stats_; }

  /// Graceful-degradation ledger: every absorbed fault is accounted here
  /// (the chaos soak audits these against the failpoint fire counts).
  struct DegradationStats {
    uint64_t jit_fallbacks = 0;    // direct-code builds landing on the interpreter
    uint64_t jit_retries = 0;      // scheduled re-JIT rebuild attempts
    uint64_t jit_recoveries = 0;   // degraded tables that regained machine code
    uint64_t template_fallbacks = 0;  // exhausted builds demoted to linked list
    uint64_t mods_refused_table_full = 0;  // adds refused at table_capacity
    // Whole-pipeline fusion (jit/fusion.hpp): a fused machine compile the
    // exec mapper refused degrades bursts to the plan without machine code,
    // with the same bounded-backoff retry/recovery ledger as the per-table JIT.
    uint64_t fusion_fallbacks = 0;   // fused compiles degraded to machine-free plans
    uint64_t fusion_retries = 0;     // elapsed re-fusion retry windows
    uint64_t fusion_recoveries = 0;  // degraded pipelines that re-fused
  };
  const DegradationStats& degradation_stats() const { return degradation_; }
  /// Logical tables currently degraded to the interpreter and awaiting a
  /// re-JIT retry window.
  size_t degraded_jit_tables() const { return degraded_jit_.size(); }
  /// True while bursts run the fully fused plan: fusion is enabled, a plan is
  /// published and no re-fusion retry is armed (the plan then carries every
  /// machine member the JIT could emit).  Bursts run a plan either way; the
  /// scalar process() stays the reference walk.
  bool fused_active() const {
    return cfg_.enable_fusion && !fusion_retry_.has_value() && dp_.fused() != nullptr;
  }

  /// Retire/reclaim counters of the epoch-based reclamation path (the only
  /// reclamation path; the old caller-coordinated collect() is gone).
  CompiledDatapath::ReclaimStats reclaim_stats() const { return dp_.reclaim_stats(); }

 private:
  /// Pending clone-and-swap copies during a batch: each touched table is
  /// cloned once, mutated across the whole batch and published with a single
  /// trampoline swap at commit — not K clones for K mods.
  using CowMap = std::map<uint8_t, std::unique_ptr<CompiledTable>>;

  /// Logical tables whose datapath rebuild is deferred to the batch commit:
  /// each is rebuilt exactly once per batch from the final pipeline state,
  /// however many of the batch's mods touched it.  The mapped flag records
  /// whether the table was *created* by this batch (a fresh table's first
  /// build is not a template re-selection).
  using DirtySet = std::map<uint8_t, bool>;

  void compile_all();
  void rebuild_logical(uint8_t id, bool fresh_table = false);
  void refresh_start_and_plan();
  void maybe_widen_plan(const flow::FlowEntry& e);
  void apply_one(const flow::FlowMod& fm, CowMap* cow, DirtySet* dirty = nullptr);
  bool try_incremental(uint8_t table, const flow::FlowMod& fm, CowMap* cow);
  bool wants_reselection(uint8_t table) const;
  void commit_batch(CowMap& cow, const DirtySet& dirty);
  void apply_to_pipeline(flow::Pipeline& pl, const flow::FlowMod& fm) const;
  void check_capacity(const flow::Pipeline& pl, const flow::FlowMod& fm) const;
  void note_jit_state(uint8_t id, bool degraded);
  void maybe_retry_jit();
  void refresh_fusion();

  CompilerConfig cfg_;
  flow::Pipeline pipeline_;
  CompiledDatapath dp_;
  std::unique_ptr<state::Conntrack> ct_;  // attached to dp_ when cfg_.ct.enabled
  GotoMap goto_map_ = GotoMap(256, -1);
  std::array<TableTemplate, 256> root_template_{};
  std::array<bool, 256> decomposed_{};
  // Decomposition-internal (non-root) slots behind each logical table,
  // retired wholesale when the logical table rebuilds.
  std::array<std::vector<int32_t>, 256> sub_slots_{};
  UpdateStats update_stats_;
  DegradationStats degradation_;
  /// Re-JIT retry schedule per degraded logical table, in update counts
  /// (exponential backoff capped at cfg_.jit_retry_max_updates).
  struct JitRetry {
    uint64_t next_at = 0;
    uint64_t backoff = 0;
  };
  std::map<uint8_t, JitRetry> degraded_jit_;
  /// Re-fusion retry schedule after a fused machine-compile failure (same
  /// pacing knobs as the per-table schedule).  While it is armed, every
  /// update still re-plans; the plan is published without a machine program.
  std::optional<JitRetry> fusion_retry_;
  uint64_t update_seq_ = 0;  // apply()/apply_batch() calls, for retry pacing
  bool installing_ = false;  // inside compile_all(): rebuilds are not re-selections
};

static_assert(Dataplane<Eswitch>, "Eswitch must satisfy the unified interface");

}  // namespace esw::core
