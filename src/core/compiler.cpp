#include "core/compiler.hpp"

#include "common/check.hpp"
#include "proto/headers.hpp"

namespace esw::core {

using flow::FieldId;

std::unique_ptr<CompiledTable> build_table_impl(const std::vector<BuildEntry>& entries,
                                                const CompilerConfig& cfg, BuildCtx& ctx,
                                                TableTemplate* chosen_out,
                                                bool* fell_back) {
  AnalysisResult ar = analyze_entries(entries, cfg);

  // A forced template only sticks when its prerequisite actually holds.
  flow::Match mask_template;
  bool has_catch_all = false;
  FieldId lpm_field = FieldId::kCount;
  FieldId range_field = FieldId::kCount;
  switch (ar.chosen) {
    case TableTemplate::kCompoundHash:
    case TableTemplate::kCuckooHash:  // same prerequisite as the compound hash
      if (!hash_prerequisite(entries, &mask_template, &has_catch_all))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    case TableTemplate::kLpm:
      if (!lpm_prerequisite(entries, &lpm_field))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    case TableTemplate::kRange:
      if (!range_prerequisite(entries, &range_field))
        ar.chosen = TableTemplate::kLinkedList;
      break;
    default:
      break;
  }

  std::unique_ptr<CompiledTable> impl;
  try {
    switch (ar.chosen) {
      case TableTemplate::kDirectCode:
        impl = DirectCodeTable::build(entries, ctx, cfg.enable_jit);
        break;
      case TableTemplate::kCompoundHash:
        impl = HashTemplateTable::build(entries, mask_template, ctx);
        break;
      case TableTemplate::kCuckooHash:
        impl = CuckooTemplateTable::build(entries, mask_template, ctx);
        break;
      case TableTemplate::kLpm:
        impl = LpmTemplateTable::build(entries, lpm_field, ctx, cfg.lpm_max_tbl8_groups);
        break;
      case TableTemplate::kRange:
        impl = RangeTemplateTable::build(entries, range_field, ctx);
        break;
      case TableTemplate::kLinkedList:
        impl = LinkedListTable::build(entries, ctx);
        break;
    }
  } catch (const CheckError&) {
    // A specialized build ran out of its resource (tbl8 budget, result-table
    // overflow).  The linked-list template has no such budgets — take the
    // bottom of Fig. 4's chain instead of aborting the update.  A genuine
    // linked-list build failure is a programming error and propagates.
    if (ar.chosen == TableTemplate::kLinkedList) throw;
    ar.chosen = TableTemplate::kLinkedList;
    impl = LinkedListTable::build(entries, ctx);
    if (fell_back != nullptr) *fell_back = true;
  }
  if (chosen_out != nullptr) *chosen_out = ar.chosen;
  return impl;
}

proto::ParserPlan plan_for_requirements(uint32_t required) {
  using namespace esw::proto;
  constexpr uint32_t kL3Bits = kProtoIpv4 | kProtoArp | kProtoTcp | kProtoUdp | kProtoIcmp;
  constexpr uint32_t kL4Bits = kProtoTcp | kProtoUdp | kProtoIcmp;
  proto::ParserPlan plan;
  plan.need_l4 = (required & kL4Bits) != 0;
  plan.need_l3 = plan.need_l4 || (required & kL3Bits) != 0;
  return plan;
}

uint32_t action_proto_requirements(const flow::ActionList& actions) {
  using namespace esw::proto;
  uint32_t required = 0;
  for (const flow::Action& a : actions) {
    if (a.type == flow::ActionType::kSetField) {
      required |= flow::field_info(a.field).proto_required;
      // Rewriting IP addresses perturbs the TCP/UDP pseudo-header checksum:
      // the datapath must parse L4 to fix it up, even if nothing matches L4.
      if (a.field == flow::FieldId::kIpSrc || a.field == flow::FieldId::kIpDst)
        required |= kProtoTcp;
    }
    if (a.type == flow::ActionType::kDecTtl) required |= kProtoIpv4;
    // Conntrack commits key on the full five-tuple; the datapath must parse
    // L4 even when no rule matches transport fields.
    if (a.type == flow::ActionType::kCtCommit) required |= kProtoIpv4 | kProtoTcp;
  }
  return required;
}

namespace {

// FNV-1a over a 64-bit word — the plan fingerprints below only need cheap,
// deterministic identity, not cryptographic strength.
uint64_t fnv1a64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

}  // namespace

FusionResult fuse_pipeline(const flow::Pipeline& pl, const CompiledDatapath& dp,
                           const GotoMap& goto_map,
                           const std::array<std::vector<int32_t>, 256>& sub_slots,
                           bool emit_machine, const FusedPipeline* prev) {
  FusionResult res;
  if (pl.tables().empty()) return res;

  auto fused = std::make_unique<FusedPipeline>();
  fused->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  uint64_t fingerprint = kFnvBasis;
  uint64_t program_key = kFnvBasis;
  // Machine members: every direct-code stage, degraded-to-interpreter ones
  // included — the fused emit is a fresh exec-map attempt of its own.
  std::vector<jit::FusedProgram::Member> members;
  const auto add_stage = [&](int32_t slot, flow::FlowTable::MissPolicy miss) {
    ESW_CHECK(slot >= 0 && slot < dp.num_slots());
    FusedPipeline::Stage st;
    st.slot = slot;
    st.impl = dp.impl(slot);
    st.miss = miss;
    st.want_prefetch = st.impl != nullptr &&
                       st.impl->memory_bytes() >= CompiledDatapath::kPrefetchMinBytes;
    const uint32_t stage = static_cast<uint32_t>(fused->stages.size());
    const bool is_dc = st.impl != nullptr && st.impl->kind() == TableTemplate::kDirectCode;
    if (is_dc)
      members.push_back({stage, &static_cast<const DirectCodeTable*>(st.impl)->lowered()});
    fused->stage_of_slot[static_cast<size_t>(slot)] = static_cast<int32_t>(stage);
    fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(slot));
    fingerprint = fnv1a64(fingerprint, reinterpret_cast<uint64_t>(st.impl));
    fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(st.miss));
    // The program key tracks only what the emitted code depends on: the
    // slot->stage topology and the direct-code members' entry chains.
    program_key = fnv1a64(program_key, static_cast<uint64_t>(slot));
    program_key = fnv1a64(program_key, is_dc ? reinterpret_cast<uint64_t>(st.impl) : 0);
    fused->stages.push_back(st);
  };
  // Walk order: tables ascending by id (the control plane only accepts
  // forward gotos), each decomposed root followed by its sub-slots in their
  // topological order (decompose.hpp) — every goto in the plan moves forward.
  for (const flow::FlowTable& t : pl.tables()) {
    add_stage(goto_map[t.id()], t.miss_policy());
    for (const int32_t sub : sub_slots[t.id()]) add_stage(sub, t.miss_policy());
  }
  fingerprint = fnv1a64(fingerprint, static_cast<uint64_t>(fused->stages.size()));
  program_key = fnv1a64(program_key, static_cast<uint64_t>(fused->stages.size()));
  fused->program_key = program_key;

  if (emit_machine && !members.empty() && jit::ExecBuffer::supported()) {
    if (prev != nullptr && prev->program != nullptr && prev->program_key == program_key) {
      fused->program = prev->program;  // churn left the members intact
    } else {
      fused->program = jit::FusedProgram::compile(
          members, fused->stage_of_slot, static_cast<uint32_t>(fused->stages.size()));
      res.machine_failed = fused->program == nullptr;  // emit refused
    }
    if (fused->program != nullptr)
      for (const jit::FusedProgram::Member& m : members)
        fused->stages[m.stage].entry = fused->program->entry(m.stage);
  }
  // Program presence is part of the identity: recovering from a refused emit
  // re-plans the very same impls and must still republish.
  fused->fingerprint = fnv1a64(fingerprint, fused->program != nullptr ? 1 : 0);
  // The published plan still references exactly these impls (retired impls
  // cannot have been freed before the republish decision), so it is exact.
  if (prev != nullptr && prev->fingerprint == fused->fingerprint) return res;
  res.fused = std::move(fused);
  return res;
}

proto::ParserPlan compute_parser_plan(const flow::Pipeline& pl,
                                      const CompilerConfig& cfg) {
  // A conntrack-enabled switch keys every packet on the five-tuple in the
  // pre-stage, so parser specialization below L4 is off the table.
  if (!cfg.specialize_parser || cfg.ct.enabled) return proto::ParserPlan::full();

  uint32_t required = 0;
  for (const flow::FlowTable& t : pl.tables()) {
    for (const flow::FlowEntry& e : t.entries()) {
      required |= e.match.proto_required();
      required |= action_proto_requirements(e.actions);
    }
  }
  return plan_for_requirements(required);
}

}  // namespace esw::core
