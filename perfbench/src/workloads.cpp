#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "core/eswitch.hpp"
#include "proto/parse.hpp"
#include "testing/diff_runner.hpp"
#include "usecases/usecases.hpp"

namespace perfbench {

using esw::flow::Verdict;

namespace {

// The prefix the gate replays, and the packet the planted verdict fault hits.
constexpr size_t kGatePrefix = 256;
constexpr size_t kFaultIndex = 7;

Verdict flipped(Verdict v) {
  return v.kind == Verdict::Kind::kOutput ? Verdict::drop() : Verdict::output(1);
}

uint64_t fnv1a(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

/// Every frame must leave room for the stamp inside its L4 payload, so the
/// stamp never overlaps a header the pipeline matches or rewrites.
void check_stamp_room(const Shard& s) {
  esw::net::Packet pkt;
  for (size_t i = 0; i < s.frames.size(); ++i) {
    s.frames.load(i, pkt);
    esw::proto::ParseInfo pi;
    esw::proto::parse(pkt.data(), pkt.len(), esw::proto::ParserPlan::full(), pi);
    ESW_CHECK_MSG(pi.payload_off > 0 && pi.payload_off + kStampBytes <= pkt.len(),
                  "workload frame has no room for the benchmark stamp");
  }
}

/// Reference outcome of every frame from the scalar process() walk of a
/// separately installed switch.
void compute_references(Workload& wl) {
  esw::core::Eswitch ref(wl.cfg);
  ref.install(wl.pipeline);
  auto pkt = std::make_unique<esw::net::Packet>();
  for (Shard& s : wl.shards) {
    for (size_t i = 0; i < s.frames.size(); ++i) {
      s.frames.load(i, *pkt);
      const Verdict v = ref.process(*pkt);
      Expect e;
      e.kind = static_cast<uint8_t>(v.kind);
      e.port = v.port;
      if (v.kind == Verdict::Kind::kOutput) {
        e.off = static_cast<uint32_t>(s.out_bytes.size());
        e.len = pkt->len();
        s.out_bytes.insert(s.out_bytes.end(), pkt->data(), pkt->data() + pkt->len());
      }
      s.expect.push_back(e);
    }
  }
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name, uint64_t seed) {
  Workload wl;
  wl.name = name;
  std::vector<esw::net::FlowSpec> flows;
  if (name == "gateway") {
    esw::uc::UseCase uc = esw::uc::make_gateway(10, 20, 10000);
    wl.pipeline = std::move(uc.pipeline);
    wl.n_ports = 10;  // CE ports 1..10; routes output on 1..8
    flows = uc.traffic(100000, seed);
  } else if (name == "l2_churn") {
    esw::uc::UseCase uc = esw::uc::make_l2(65536);
    wl.pipeline = std::move(uc.pipeline);
    wl.n_ports = 4;
    wl.churn = true;
    flows = uc.traffic(65536, seed);
  } else {
    return std::nullopt;
  }

  const size_t per = (flows.size() + kWorkers - 1) / kWorkers;
  uint64_t h = 0xcbf29ce484222325ULL;
  esw::net::Packet pkt;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    Shard& s = wl.shards[w];
    const size_t lo = std::min(flows.size(), w * per);
    const size_t hi = std::min(flows.size(), lo + per);
    s.flows.assign(flows.begin() + static_cast<std::ptrdiff_t>(lo),
                   flows.begin() + static_cast<std::ptrdiff_t>(hi));
    ESW_CHECK_MSG(!s.flows.empty(), "workload shard is empty");
    s.frames = esw::net::TrafficSet::from_flows(s.flows);
    check_stamp_room(s);
    for (size_t i = 0; i < s.frames.size(); ++i) {
      s.frames.load(i, pkt);
      h = fnv1a(h, pkt.data(), pkt.len());
    }
  }
  wl.input_hash = h;
  compute_references(wl);
  return wl;
}

uint64_t run_gate(const Workload& wl, Fault fault, std::string* detail) {
  const std::vector<esw::net::FlowSpec>& all = wl.shards[0].flows;
  const std::vector<esw::net::FlowSpec> prefix(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(std::min(kGatePrefix, all.size())));
  esw::testing::DiffOptions opts;
  if (fault == Fault::kVerdict)
    opts.fault = [](size_t i, Verdict v) { return i == kFaultIndex ? flipped(v) : v; };
  esw::testing::DiffRunner runner(opts);
  const auto div =
      runner.run(wl.pipeline, wl.cfg, esw::testing::DiffTrace::from_flows(prefix), wl.name);
  if (!div) return 0;
  *detail = div->kind + " divergence at prefix " + std::to_string(div->prefix_len) + ": " +
            div->detail;
  return 1;
}

}  // namespace perfbench
