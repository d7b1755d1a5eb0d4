// Flow table analysis (§3.2): decide which template a table compiles into.
//
// The compiler "always attempts to compile into the most efficient table
// template available" and falls back along Fig. 4's chain when a prerequisite
// fails: direct code (#flows ≤ CONST) → compound hash (global mask, exact
// match) → LPM (single-field prefix rules, priorities consistent) → linked
// list (no prerequisite).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/decompose.hpp"
#include "core/template_kind.hpp"
#include "flow/table.hpp"
#include "state/ct_config.hpp"

namespace esw::core {

struct CompilerConfig {
  /// Fig. 9's calibrated constant: tables up to this size compile directly.
  uint32_t direct_code_max_entries = 4;
  /// Emit x86-64 machine code for direct-code tables (else the portable
  /// specialized interpreter over the same lowered IR).
  bool enable_jit = true;
  /// Run the Fig. 6 table decomposition pass on linked-list-bound tables.
  bool enable_decomposition = false;
  /// Upper bound on tables one decomposition may produce.
  uint32_t decompose_max_tables = 4096;
  /// Derive a minimal parser plan from the matched fields (parser templates);
  /// false = always parse L2–L4 (the paper prototype's combined parser).
  bool specialize_parser = true;
  /// Force one template for every table (calibration benches / ablation).
  std::optional<TableTemplate> force_template;
  /// tbl8 budget for LPM tables.
  uint32_t lpm_max_tbl8_groups = 1024;
  /// Hash-shaped tables at or above this entry count compile into the
  /// resizable reader-safe cuckoo template instead of the fixed-capacity
  /// compound hash (and a compound-hash table growing past it re-selects on
  /// its next rebuild).  0 disables the cuckoo template.  The default sits
  /// above every figure-scale table so the calibrated benches keep the
  /// paper's compound hash; the million-flow scale/churn benches cross it.
  uint32_t cuckoo_min_entries = 32768;
  /// Enable the range extension template (binary search over flattened
  /// intervals) for single-field tables LPM cannot take.
  bool enable_range_template = true;
  /// Per-logical-table entry cap on the flow-mod path (0 = unbounded).  An
  /// add that would grow a table past this refuses with TableFullError —
  /// surfaced over OpenFlow as OFPFMFC_TABLE_FULL — instead of growing
  /// without bound.  Replacing an existing (match, priority) entry is always
  /// allowed; install() is not subject to the cap (it is the operator's
  /// wholesale program load, not controller churn).
  uint32_t table_capacity = 0;
  /// Whole-pipeline fusion (jit/fusion.hpp): compile the pipeline plan's
  /// direct-code members into one machine function the burst walk enters.
  /// Off, or after a refused fused compile, bursts run the same plan without
  /// machine code; the plan itself is always built.
  bool enable_fusion = true;
  /// Re-JIT retry pacing after a direct-code table degrades to the
  /// interpreter (exec mapping refused): first retry after this many
  /// flow-mod updates, doubling per failed attempt up to the max.  0
  /// disables retries.
  uint32_t jit_retry_base_updates = 64;
  uint32_t jit_retry_max_updates = 4096;
  /// Connection tracking (src/state/): `ct.enabled` attaches a Conntrack to
  /// the compiled datapath; `ct:commit` actions and `ct_state` matches are
  /// parse/compile-valid either way but inert while disabled.
  state::CtConfig ct;
};

/// Analysis input: (match, priority) pairs in priority-descending order —
/// either a control-plane table or a decomposition-internal one.
using AnalysisEntries = std::vector<DecomposedPipeline::Entry>;

struct AnalysisResult {
  TableTemplate chosen = TableTemplate::kLinkedList;
  std::string reason;
};

/// Compound-hash prerequisite: all entries share one field set and identical
/// per-field masks ("every field is matched by exactly the same mask in each
/// entry"), plus at most one catch-all default with strictly lowest priority.
/// On success reports the shared mask template via `mask_out` and whether a
/// catch-all exists.
bool hash_prerequisite(const AnalysisEntries& entries, flow::Match* mask_out,
                       bool* has_catch_all);

/// LPM prerequisite: single IPv4 field, prefix masks only, overlapping
/// prefixes ordered so the more specific has strictly higher priority; at most
/// one catch-all (the /0 default) with strictly lowest priority.
bool lpm_prerequisite(const AnalysisEntries& entries, flow::FieldId* field_out);

/// Range prerequisite (extension template): every non-catch-all entry matches
/// exactly one shared field with a prefix-style mask (each rule = one aligned
/// value range).  No ordering constraint — the interval flattening bakes
/// priorities in — so it catches e.g. priority-inverted prefix tables that
/// LPM must reject.
bool range_prerequisite(const AnalysisEntries& entries, flow::FieldId* field_out);

/// Template choice under `cfg`.
AnalysisResult analyze_entries(const AnalysisEntries& entries, const CompilerConfig& cfg);
AnalysisResult analyze_table(const flow::FlowTable& t, const CompilerConfig& cfg);

}  // namespace esw::core
