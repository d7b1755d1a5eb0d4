// The differential oracle: prove that the specialized datapath is
// behavior-identical to the general-purpose one it replaces.
//
// One trace is replayed through four execution paths —
//
//   1. core::Eswitch with whole-pipeline fusion on (bursts run the plan
//      with its direct-code members fused into one machine function),
//   2. core::Eswitch with the JIT on but fusion off (bursts run the same
//      plan over per-table machine code),
//   3. core::Eswitch with the JIT off, driven packet by packet through the
//      scalar process() walk (the same lowered IR, interpreted) — the one
//      ES leg that does not share the burst walk,
//   4. ovs::OvsSwitch (microflow/megaflow caches over the slow path),
//
// comparing per-packet verdicts, mutated frame bytes and end-of-run
// DataplaneStats.  Detection is cheap: each path folds its behavior into a
// running hash over (verdict, frame bytes) while processing in bursts (the
// production shape), so agreement costs no per-packet bookkeeping.  On
// disagreement the runner binary-searches the shortest failing trace prefix
// (replaying fresh backends per probe — processing is deterministic, so a
// divergence at packet i reproduces under any prefix that includes it),
// single-steps the last packet for a human-readable detail, and writes a
// repro artifact: the minimized pcap plus a DSL dump of the pipeline and
// compiler knobs that load_repro() reads back for replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "flow/pipeline.hpp"
#include "netio/pktgen.hpp"
#include "ovs/ovs_switch.hpp"
#include "testing/pipeline_gen.hpp"

namespace esw::testing {

/// A replayable trace: raw frames plus per-frame ingress ports (pcap carries
/// no port metadata, so the artifact stores ports in the rules dump).
struct DiffTrace {
  struct Item {
    std::vector<uint8_t> frame;
    uint32_t in_port = 1;
  };
  std::vector<Item> items;

  static DiffTrace from_flows(const std::vector<net::FlowSpec>& flows);
  size_t size() const { return items.size(); }
};

struct DiffOptions {
  /// Where repro artifacts land on divergence; empty = don't write.
  std::string artifact_dir;
  /// The baseline's configuration.  Union-mode megaflows only: the minimal
  /// (Shelly-style) masks are deliberately unsound (Fig. 3) and would report
  /// false divergences.
  ovs::OvsSwitch::Config ovs{};
  /// Test-only fault injection: applied to the ES-fused path's verdict stream
  /// (packet index, real verdict) -> observed verdict.  Lets tests prove the
  /// minimizer finds a planted divergence and produces a working artifact.
  std::function<flow::Verdict(size_t, flow::Verdict)> fault;
};

struct Divergence {
  size_t prefix_len = 0;  // shortest failing prefix, in packets
  std::string kind;       // "verdict" | "bytes" | "stats"
  std::string detail;
  std::string description;  // generator's pipeline summary (campaigns)
  std::string pcap_path;    // written artifacts (empty when not writing)
  std::string rules_path;
};

class DiffRunner {
 public:
  explicit DiffRunner(const DiffOptions& opts = {}) : opts_(opts) {}

  /// Replays `trace` through all four paths; nullopt = behaviorally equal.
  /// On divergence, minimizes and (artifact_dir set) writes `<tag>.pcap` +
  /// `<tag>.rules`.
  std::optional<Divergence> run(const flow::Pipeline& pl,
                                const core::CompilerConfig& cfg,
                                const DiffTrace& trace,
                                const std::string& tag = "repro");

  struct CampaignStats {
    uint64_t pipelines = 0;
    uint64_t packets = 0;
  };

  /// Seeded campaign: `n_pipelines` generated workloads of
  /// `packets_per_pipeline` packets each (flow counts drawn per pipeline to
  /// sweep cache pressure), stopping at the first divergence.
  std::optional<Divergence> campaign(uint64_t seed, uint32_t n_pipelines,
                                     uint32_t packets_per_pipeline,
                                     const GenOptions& gen_opts = {},
                                     CampaignStats* stats_out = nullptr);

 private:
  struct PathSummary {
    uint64_t behavior_hash = 0;
    core::DataplaneStats stats;
  };

  bool diverged(const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                const DiffTrace& trace, size_t prefix, std::string* kind);
  std::string classify(const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                       const DiffTrace& trace, size_t prefix, std::string* kind);

  DiffOptions opts_;
};

/// Serializes the repro artifact pair.  Returns false on I/O failure.
bool write_repro(const std::string& pcap_path, const std::string& rules_path,
                 const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                 const DiffTrace& trace, size_t prefix_len,
                 const std::string& header_comment);

struct ReproArtifact {
  flow::Pipeline pipeline;
  core::CompilerConfig cfg;
  DiffTrace trace;
};

/// Reads a `.rules` + `.pcap` artifact pair back; nullopt (with `error` set)
/// on malformed input.
std::optional<ReproArtifact> load_repro(const std::string& rules_path,
                                        const std::string& pcap_path,
                                        std::string* error);

}  // namespace esw::testing
