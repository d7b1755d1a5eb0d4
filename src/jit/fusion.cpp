#include "jit/fusion.hpp"

#include "jit/assembler.hpp"

namespace esw::jit {

std::shared_ptr<const FusedProgram> FusedProgram::compile(
    const std::vector<Member>& members, const std::vector<int32_t>& stage_of_slot,
    uint32_t n_stages) {
  if (members.empty() || !ExecBuffer::supported()) return nullptr;

  Assembler as;
  const Assembler::Label epilogue = as.new_label();

  // Body labels, keyed by stage, so hits can jump straight into a later
  // member's entry chain (the fused inter-table dispatch).
  std::vector<Assembler::Label> body(n_stages, 0);
  std::vector<bool> is_member(n_stages, false);
  for (const Member& m : members) {
    if (m.stage >= n_stages || m.entries == nullptr) return nullptr;
    body[m.stage] = as.new_label();
    is_member[m.stage] = true;
  }

  // Entry stubs first: one per member, so the C++ walk can re-enter the
  // fused subgraph at any member after an external (non-fused) hop.  The
  // stub loads the register convention, then falls into the member's chain.
  std::vector<Assembler::Label> stub(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    stub[i] = as.new_label();
    as.bind(stub[i]);
    as.emit_fused_prologue();
    as.emit_jmp(body[members[i].stage]);
  }

  // Member bodies in walk order.  Gotos between members are forward-only
  // (the control plane validates goto_table > table_id), so every internal
  // transfer is a forward jmp into an already-planned label.
  for (const Member& m : members) {
    const uint32_t s = m.stage;
    as.bind(body[s]);
    as.emit_stat_inc(s * kFusedStatStride + kFusedStatLookups);
    for (const LoweredEntry& e : *m.entries) {
      const Assembler::Label next_flow = as.new_label();
      as.emit_proto_check(e.proto_required, next_flow);
      for (const FieldTest& t : e.tests) as.emit_field_test(t, next_flow);
      // Hit: the action id and the goto target are compile-time constants —
      // sink both into the instruction stream.
      as.emit_stat_inc(s * kFusedStatStride + kFusedStatHits);
      int32_t action_set = -1;
      int32_t next_slot = -1;
      unpack_result(e.result, action_set, next_slot);
      if (action_set >= 0) as.emit_action_push(static_cast<uint32_t>(action_set));
      if (next_slot < 0) {
        as.emit_fused_exit(63, s, epilogue);  // path end: completed
      } else {
        if (static_cast<size_t>(next_slot) >= stage_of_slot.size()) return nullptr;
        const int32_t ts = stage_of_slot[static_cast<size_t>(next_slot)];
        if (ts < 0 || static_cast<uint32_t>(ts) >= n_stages ||
            static_cast<uint32_t>(ts) <= s)
          return nullptr;  // unresolvable or non-forward goto — don't fuse
        if (is_member[static_cast<uint32_t>(ts)]) {
          as.emit_jmp(body[static_cast<uint32_t>(ts)]);  // fused dispatch
        } else {
          // Leaves the fused subgraph: hand the stage back to the C++ walk.
          as.emit_fused_exit(0, static_cast<uint32_t>(ts), epilogue);
        }
      }
      as.bind(next_flow);
    }
    // Fall-through: table miss at this stage.
    as.emit_stat_inc(s * kFusedStatStride + kFusedStatMisses);
    as.emit_fused_exit(62, s, epilogue);
  }

  as.bind(epilogue);
  as.emit_epilogue();
  if (!as.link()) return nullptr;

  auto buf = std::make_unique<ExecBuffer>();
  if (!buf->load(as.code().data(), as.size())) return nullptr;

  auto prog = std::shared_ptr<FusedProgram>(new FusedProgram());
  prog->entries_.assign(n_stages, nullptr);
  const auto* base = static_cast<const uint8_t*>(buf->entry());
  for (size_t i = 0; i < members.size(); ++i) {
    const int32_t off = as.label_offset(stub[i]);
    prog->entries_[members[i].stage] =
        reinterpret_cast<Fn>(const_cast<uint8_t*>(base + off));
  }
  prog->n_members_ = static_cast<uint32_t>(members.size());
  prog->buf_ = std::move(buf);
  return prog;
}

}  // namespace esw::jit
