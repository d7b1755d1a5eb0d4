// Pipeline compilation helpers: template selection + construction for one
// (sub)table, parser-plan derivation for the whole pipeline, and the
// whole-pipeline fusion planner (ROADMAP item 3).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/analysis.hpp"
#include "core/compiled_table.hpp"
#include "core/datapath.hpp"
#include "flow/pipeline.hpp"

namespace esw::core {

/// Builds the implementation for one table's entries according to analysis
/// (honoring cfg.force_template when its prerequisite holds).  Reports the
/// chosen template via `chosen_out` when non-null.  A specialized build that
/// exhausts its resource budget (tbl8 groups, LPM result slots) degrades to
/// the linked-list template — the infallible bottom of Fig. 4's fallback
/// chain — and sets *fell_back; only a linked-list build failure propagates.
std::unique_ptr<CompiledTable> build_table_impl(const std::vector<BuildEntry>& entries,
                                                const CompilerConfig& cfg, BuildCtx& ctx,
                                                TableTemplate* chosen_out = nullptr,
                                                bool* fell_back = nullptr);

/// The minimal parser plan covering every matched field and every packet-
/// mutating action in the pipeline — the parser-template specialization of
/// §3.1.  With cfg.specialize_parser == false, returns the full L2–L4 plan.
proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl, const CompilerConfig& cfg);

/// Plan needed for a given ProtoBit requirement set.
proto::ParserPlan plan_for_requirements(uint32_t required);

/// ProtoBits an action list needs parsed (set-field targets, checksum-fixup
/// dependencies, dec-TTL).
uint32_t action_proto_requirements(const flow::ActionList& actions);

/// Outcome of one planning pass over the pipeline.
struct FusionResult {
  /// The plan to publish; nullptr when the currently published plan is
  /// already exact (same fingerprint) or the pipeline is empty.
  std::unique_ptr<FusedPipeline> fused;
  /// Machine code was wanted but the fused emit was refused (the jit.exec_map
  /// edge): the plan carries no machine program and is eligible for the
  /// bounded re-fusion retry.
  bool machine_failed = false;
};

/// Builds the burst walk's plan for the pipeline's current compiled state:
/// one stage per table root in table-id order, each decomposed root followed
/// by its sub-slots (`sub_slots[id]`, in the decomposition's topological
/// order), so every goto moves forward.  A slot whose impl is not built yet
/// becomes a stage that always misses.  Conntrack hooks and controller miss
/// policies ride the walk's pre/post stages and miss handling.
///
/// With `emit_machine`, the direct-code members are compiled into one
/// machine function; otherwise (fusion or JIT off, or inside a re-fusion
/// retry window) the same plan is returned without one.  When `prev` (the
/// currently published plan) is passed: an identical fingerprint returns no
/// plan, and an identical direct-code member set (program_key) reuses the
/// previous machine program instead of re-emitting — churn that only touched
/// non-direct-code tables (hash clone-swaps, in-place LPM) republishes the
/// plan without running the JIT.
FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map,
                           const std::array<std::vector<int32_t>, 256>& sub_slots,
                           bool emit_machine, const FusedPipeline* prev);

}  // namespace esw::core
