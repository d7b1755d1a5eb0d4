// The benchmark's workloads and their output references.
//
//   gateway  — the Fig. 13 vPE (make_gateway(10, 20, 10000)), 100K active
//              flows, no rule updates: the multi-table goto chain where the
//              fused JIT, inter-table dispatch and action apply do the work.
//   l2_churn — a 64K-entry MAC table (cuckoo template, past
//              cuckoo_min_entries) with table-aligned traffic while add/delete
//              FLOW_MODs stream in over OpenFlow: writes beside reads.
//
// The pipeline of each workload is fixed; `seed` draws its traffic (and the
// churned MAC keys).  Traffic is split into one contiguous shard per packet
// worker.  Every frame gets a reference outcome from the scalar process()
// walk of a separately installed switch; the harness checks each frame the
// runtime transmits against it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "flow/pipeline.hpp"
#include "netio/pktgen.hpp"

namespace perfbench {

inline constexpr uint32_t kWorkers = 2;

/// Offered load of the open-loop legs, as a fixed share of the same switch's
/// saturated pps, measured in its saturated leg just before.  A fixed share
/// keeps the queueing delay from swinging with the host's speed (a rate fixed
/// in pkt/s sits higher on the latency curve whenever the host runs slower);
/// the delay still scales with the switch's per-packet cost.
inline constexpr double kLoLoad = 0.25;
inline constexpr double kHiLoad = 0.5;
/// Fixed rate of the control plane (l2_churn).
inline constexpr double kChurnModsPerSec = 10000;
inline constexpr uint32_t kChurnBatch = 16;  // 8 adds + 8 deletes, then a BARRIER

/// Each frame carries an 8-byte stamp in its last payload bytes: the frame's
/// shard/index tag and the low 32 bits of its due-time TSC.
inline constexpr uint32_t kStampBytes = 8;

/// Reference outcome of one frame (outputs keep their expected bytes).
struct Expect {
  uint32_t off = 0;  // into Shard::out_bytes
  uint32_t len = 0;
  uint32_t port = 0;
  uint8_t kind = 0;  // flow::Verdict::Kind
};

struct Shard {
  std::vector<esw::net::FlowSpec> flows;
  esw::net::TrafficSet frames;
  std::vector<Expect> expect;
  std::vector<uint8_t> out_bytes;
};

struct Workload {
  std::string name;
  esw::flow::Pipeline pipeline;
  esw::core::CompilerConfig cfg;
  uint32_t n_ports = 0;
  bool churn = false;
  std::array<Shard, kWorkers> shards;
  /// Hash of every generated frame: different seeds must give different inputs.
  uint64_t input_hash = 0;
};

/// Builds a workload (pipeline, sharded frames, references); nullopt for an
/// unknown name.
std::optional<Workload> make_workload(const std::string& name, uint64_t seed);

/// Planted faults for the benchmark's self-test.
enum class Fault { kNone, kVerdict, kWithhold };

/// The pre-timing correctness gate: replays a fixed prefix of the frames
/// through DiffRunner, which compares the fused, staged, interpreter and OVS
/// paths.  Returns the number of disagreeing packets; `detail` gets a one-line
/// description of the first one.
uint64_t run_gate(const Workload& wl, Fault fault, std::string* detail);

}  // namespace perfbench
