#include "testing/diff_runner.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "core/eswitch.hpp"
#include "flow/dsl.hpp"
#include "netio/pcap.hpp"
#include "proto/build.hpp"

namespace esw::testing {

namespace {

using core::DataplaneStats;
using flow::Verdict;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

bool stats_equal(const DataplaneStats& a, const DataplaneStats& b) {
  return a.packets == b.packets && a.outputs == b.outputs && a.drops == b.drops &&
         a.to_controller == b.to_controller;
}

std::string stats_str(const DataplaneStats& s) {
  std::ostringstream os;
  os << "pkts=" << s.packets << " out=" << s.outputs << " drop=" << s.drops
     << " ctrl=" << s.to_controller;
  return os.str();
}

std::string verdict_str(const Verdict& v) {
  switch (v.kind) {
    case Verdict::Kind::kOutput:
      return "output:" + std::to_string(v.port);
    case Verdict::Kind::kDrop:
      return "drop";
    case Verdict::Kind::kController:
      return "controller";
    case Verdict::Kind::kFlood:
      return "flood";
  }
  return "?";
}

const char* kPathNames[4] = {"es-fused", "es-jit", "es-scalar", "ovs"};
constexpr int kScalarLeg = 2;

/// The three Eswitch leg configurations: fused (JIT + whole-pipeline
/// fusion), per-table JIT (the burst plan without machine code) and
/// interpreted.  The interpreted leg replays through the scalar process()
/// walk (ScalarWalk), so the burst walk is always checked against a walk
/// written separately.  The planted-fault hook rides the fused leg — the
/// newest path is the one under the most suspicion.
void make_es_cfgs(const core::CompilerConfig& cfg, core::CompilerConfig out[3]) {
  out[0] = out[1] = out[2] = cfg;
  out[0].enable_jit = true;
  out[0].enable_fusion = true;
  out[1].enable_jit = true;
  out[1].enable_fusion = false;
  out[2].enable_jit = false;
  out[2].enable_fusion = false;
}

/// An Eswitch driven packet by packet: process_burst() as n scalar process()
/// calls.
struct ScalarWalk {
  core::Eswitch& sw;
  void process_burst(net::Packet* const* pkts, uint32_t n, Verdict* out) {
    for (uint32_t i = 0; i < n; ++i) out[i] = sw.process(*pkts[i]);
  }
};

/// Runs `fn` on ES leg `leg`'s view of `sw`: its scalar walk on the scalar
/// leg, the switch's own bursts elsewhere.
template <typename Fn>
auto on_leg(int leg, core::Eswitch& sw, Fn&& fn) {
  if (leg != kScalarLeg) return fn(sw);
  ScalarWalk scalar{sw};
  return fn(scalar);
}

/// Replays `trace[0..prefix)` through `sw` in kBurstSize bursts, folding
/// (verdict, mutated bytes) into a behavior hash.  `fault` (nullable) rewrites
/// the observed verdict stream — the planted-bug hook.
template <typename Sw>
uint64_t replay_hash(Sw& sw, const DiffTrace& trace, size_t prefix,
                     const std::function<Verdict(size_t, Verdict)>* fault) {
  std::vector<net::Packet> scratch(net::kBurstSize);
  net::Packet* pkts[net::kBurstSize];
  Verdict verdicts[net::kBurstSize];
  for (uint32_t i = 0; i < net::kBurstSize; ++i) pkts[i] = &scratch[i];

  uint64_t h = kFnvOffset;
  size_t done = 0;
  while (done < prefix) {
    const uint32_t n =
        static_cast<uint32_t>(std::min<size_t>(net::kBurstSize, prefix - done));
    for (uint32_t i = 0; i < n; ++i) {
      const DiffTrace::Item& it = trace.items[done + i];
      scratch[i].assign(it.frame.data(), static_cast<uint32_t>(it.frame.size()));
      scratch[i].set_in_port(it.in_port);
    }
    sw.process_burst(pkts, n, verdicts);
    for (uint32_t i = 0; i < n; ++i) {
      Verdict v = verdicts[i];
      if (fault != nullptr && *fault) v = (*fault)(done + i, v);
      const uint32_t vk = static_cast<uint32_t>(v.kind);
      h = fnv(h, &vk, sizeof vk);
      h = fnv(h, &v.port, sizeof v.port);
      const uint32_t len = scratch[i].len();
      h = fnv(h, &len, sizeof len);
      h = fnv(h, scratch[i].data(), len);
    }
    done += n;
  }
  return h;
}

/// One packet through `sw` after replaying the preceding prefix: used to
/// produce the human-readable classification of a minimized divergence.
template <typename Sw>
Verdict step_last(Sw& sw, const DiffTrace& trace, size_t prefix,
                  const std::function<Verdict(size_t, Verdict)>* fault,
                  net::Packet& out_pkt) {
  if (prefix > 1) replay_hash(sw, trace, prefix - 1, fault);
  const DiffTrace::Item& it = trace.items[prefix - 1];
  out_pkt.assign(it.frame.data(), static_cast<uint32_t>(it.frame.size()));
  out_pkt.set_in_port(it.in_port);
  net::Packet* p = &out_pkt;
  Verdict v;
  sw.process_burst(&p, 1, &v);
  if (fault != nullptr && *fault) v = (*fault)(prefix - 1, v);
  return v;
}

std::string cfg_line(const core::CompilerConfig& cfg) {
  std::ostringstream os;
  os << "# cfg direct_code_max_entries=" << cfg.direct_code_max_entries
     << " enable_decomposition=" << (cfg.enable_decomposition ? 1 : 0)
     << " decompose_max_tables=" << cfg.decompose_max_tables
     << " specialize_parser=" << (cfg.specialize_parser ? 1 : 0)
     << " lpm_max_tbl8_groups=" << cfg.lpm_max_tbl8_groups
     << " enable_range_template=" << (cfg.enable_range_template ? 1 : 0)
     << " enable_fusion=" << (cfg.enable_fusion ? 1 : 0)
     << " cuckoo_min_entries=" << cfg.cuckoo_min_entries
     << " force_template=";
  if (cfg.force_template.has_value())
    os << static_cast<int>(*cfg.force_template);
  else
    os << "-";
  return os.str();
}

}  // namespace

DiffTrace DiffTrace::from_flows(const std::vector<net::FlowSpec>& flows) {
  DiffTrace t;
  t.items.reserve(flows.size());
  uint8_t buf[net::Packet::kMaxFrame];
  for (const net::FlowSpec& fs : flows) {
    const uint32_t len = proto::build_packet(fs.pkt, buf, sizeof buf);
    ESW_CHECK_MSG(len > 0, "generated packet spec failed to serialize");
    t.items.push_back({{buf, buf + len}, fs.in_port});
  }
  return t;
}

bool DiffRunner::diverged(const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                          const DiffTrace& trace, size_t prefix,
                          std::string* kind) {
  core::CompilerConfig es_cfgs[3];
  make_es_cfgs(cfg, es_cfgs);

  PathSummary s[4];
  for (int i = 0; i < 3; ++i) {
    core::Eswitch sw(es_cfgs[i]);
    sw.install(pl);
    const auto* fault = i == 0 ? &opts_.fault : nullptr;
    s[i].behavior_hash =
        on_leg(i, sw, [&](auto& leg) { return replay_hash(leg, trace, prefix, fault); });
    s[i].stats = sw.stats();
  }
  {
    ovs::OvsSwitch sw(opts_.ovs);
    sw.install(pl);
    s[3].behavior_hash = replay_hash(sw, trace, prefix, nullptr);
    s[3].stats = sw.stats();
  }

  bool hash_diff = false, stats_diff = false;
  for (int i = 1; i < 4; ++i) {
    hash_diff |= s[i - 1].behavior_hash != s[i].behavior_hash;
    stats_diff |= !stats_equal(s[i - 1].stats, s[i].stats);
  }
  if (kind != nullptr && (hash_diff || stats_diff))
    *kind = hash_diff ? "behavior" : "stats";
  return hash_diff || stats_diff;
}

std::string DiffRunner::classify(const flow::Pipeline& pl,
                                 const core::CompilerConfig& cfg,
                                 const DiffTrace& trace, size_t prefix,
                                 std::string* kind) {
  core::CompilerConfig es_cfgs[3];
  make_es_cfgs(cfg, es_cfgs);

  Verdict v[4];
  net::Packet pkt[4];
  DataplaneStats st[4];
  for (int i = 0; i < 3; ++i) {
    core::Eswitch sw(es_cfgs[i]);
    sw.install(pl);
    const auto* fault = i == 0 ? &opts_.fault : nullptr;
    v[i] = on_leg(i, sw, [&](auto& leg) { return step_last(leg, trace, prefix, fault, pkt[i]); });
    st[i] = sw.stats();
  }
  {
    ovs::OvsSwitch sw(opts_.ovs);
    sw.install(pl);
    v[3] = step_last(sw, trace, prefix, nullptr, pkt[3]);
    st[3] = sw.stats();
  }

  std::ostringstream os;
  bool verdict_diff = false, bytes_diff = false;
  for (int i = 1; i < 4; ++i) {
    verdict_diff |= !(v[i - 1] == v[i]);
    bytes_diff |= pkt[i - 1].len() != pkt[i].len();
  }
  if (!bytes_diff)
    for (int i = 1; i < 4; ++i)
      bytes_diff |=
          std::memcmp(pkt[i - 1].data(), pkt[i].data(), pkt[0].len()) != 0;
  if (kind != nullptr)
    *kind = verdict_diff ? "verdict" : bytes_diff ? "bytes" : "stats";

  os << "packet " << prefix - 1 << ": ";
  for (int i = 0; i < 4; ++i)
    os << kPathNames[i] << "={" << verdict_str(v[i]) << " len=" << pkt[i].len()
       << "} ";
  if (bytes_diff) {
    uint32_t n = pkt[0].len();
    for (int i = 1; i < 4; ++i) n = std::min(n, pkt[i].len());
    for (uint32_t off = 0; off < n; ++off) {
      bool diff = false;
      for (int i = 1; i < 4; ++i)
        diff |= pkt[i - 1].data()[off] != pkt[i].data()[off];
      if (diff) {
        os << "first byte diff at +" << off << " (";
        for (int i = 0; i < 4; ++i) os << (i ? "/" : "") << +pkt[i].data()[off];
        os << ") ";
        break;
      }
    }
  }
  os << "| stats ";
  for (int i = 0; i < 4; ++i) os << kPathNames[i] << "={" << stats_str(st[i]) << "} ";
  return os.str();
}

std::optional<Divergence> DiffRunner::run(const flow::Pipeline& pl,
                                          const core::CompilerConfig& cfg,
                                          const DiffTrace& trace,
                                          const std::string& tag) {
  if (trace.items.empty()) return std::nullopt;
  if (!diverged(pl, cfg, trace, trace.size(), nullptr)) return std::nullopt;

  // Binary search the shortest failing prefix.  The predicate is monotone:
  // processing is sequential and deterministic, so a prefix containing the
  // first bad packet diverges no matter how much tail is cut.
  size_t lo = 1, hi = trace.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (diverged(pl, cfg, trace, mid, nullptr))
      hi = mid;
    else
      lo = mid + 1;
  }

  Divergence d;
  d.prefix_len = lo;
  d.detail = classify(pl, cfg, trace, lo, &d.kind);

  if (!opts_.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.artifact_dir, ec);
    d.pcap_path = opts_.artifact_dir + "/" + tag + ".pcap";
    d.rules_path = opts_.artifact_dir + "/" + tag + ".rules";
    if (!write_repro(d.pcap_path, d.rules_path, pl, cfg, trace, lo,
                     "divergence kind=" + d.kind + " prefix=" +
                         std::to_string(lo) + " :: " + d.detail)) {
      d.pcap_path.clear();
      d.rules_path.clear();
    }
  }
  return d;
}

std::optional<Divergence> DiffRunner::campaign(uint64_t seed, uint32_t n_pipelines,
                                               uint32_t packets_per_pipeline,
                                               const GenOptions& gen_opts,
                                               CampaignStats* stats_out) {
  PipelineGen gen(seed, gen_opts);
  CampaignStats cs;
  for (uint32_t i = 0; i < n_pipelines; ++i) {
    const GeneratedWorkload wl = gen.next_pipeline();
    // Flow-count distribution sweep: sometimes a handful of flows (cache-hit
    // heavy), usually a broad mix (megaflow/microflow pressure).
    const size_t n_flows =
        gen.rng().chance(1, 4)
            ? 1 + gen.rng().below(8)
            : 8 + gen.rng().below(std::max<uint64_t>(1, packets_per_pipeline / 4));
    const DiffTrace trace =
        DiffTrace::from_flows(gen.traffic(wl, packets_per_pipeline, n_flows));
    cs.pipelines += 1;
    cs.packets += trace.size();
    auto d = run(wl.pipeline, wl.cfg, trace,
                 "seed" + std::to_string(seed) + "_p" + std::to_string(i));
    if (d.has_value()) {
      d->description = wl.description;
      if (stats_out != nullptr) *stats_out = cs;
      return d;
    }
  }
  if (stats_out != nullptr) *stats_out = cs;
  return std::nullopt;
}

bool write_repro(const std::string& pcap_path, const std::string& rules_path,
                 const flow::Pipeline& pl, const core::CompilerConfig& cfg,
                 const DiffTrace& trace, size_t prefix_len,
                 const std::string& header_comment) {
  prefix_len = std::min(prefix_len, trace.items.size());

  net::PcapWriter pcap;
  for (size_t i = 0; i < prefix_len; ++i)
    pcap.add(trace.items[i].frame.data(),
             static_cast<uint32_t>(trace.items[i].frame.size()),
             /*ts_ns=*/i * 1000);
  if (!pcap.save(pcap_path)) return false;

  std::ofstream rf(rules_path);
  if (!rf) return false;
  rf << "# esw-diff-repro v1\n";
  rf << "# " << header_comment << "\n";
  rf << cfg_line(cfg) << "\n";
  for (const flow::FlowTable& t : pl.tables()) {
    rf << "table " << static_cast<int>(t.id()) << " miss="
       << (t.miss_policy() == flow::FlowTable::MissPolicy::kController
               ? "controller"
               : "drop")
       << "\n";
    for (const flow::FlowEntry& e : t.entries()) rf << flow::format_rule(e) << "\n";
  }
  rf << "# in_ports:";
  for (size_t i = 0; i < prefix_len; ++i) rf << ' ' << trace.items[i].in_port;
  rf << "\n";
  return rf.good();
}

std::optional<ReproArtifact> load_repro(const std::string& rules_path,
                                        const std::string& pcap_path,
                                        std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<ReproArtifact> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::ifstream rf(rules_path);
  if (!rf) return fail("cannot open " + rules_path);

  ReproArtifact art;
  std::vector<uint32_t> in_ports;
  int current_table = -1;
  std::string line;
  while (std::getline(rf, line)) {
    if (line.empty()) continue;
    if (line.rfind("# cfg ", 0) == 0) {
      std::istringstream is(line.substr(6));
      std::string kv;
      while (is >> kv) {
        const size_t eq = kv.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = kv.substr(0, eq), val = kv.substr(eq + 1);
        auto num = [&] { return std::strtoul(val.c_str(), nullptr, 0); };
        if (key == "direct_code_max_entries")
          art.cfg.direct_code_max_entries = static_cast<uint32_t>(num());
        else if (key == "enable_decomposition")
          art.cfg.enable_decomposition = num() != 0;
        else if (key == "decompose_max_tables")
          art.cfg.decompose_max_tables = static_cast<uint32_t>(num());
        else if (key == "specialize_parser")
          art.cfg.specialize_parser = num() != 0;
        else if (key == "lpm_max_tbl8_groups")
          art.cfg.lpm_max_tbl8_groups = static_cast<uint32_t>(num());
        else if (key == "enable_range_template")
          art.cfg.enable_range_template = num() != 0;
        else if (key == "enable_fusion")
          art.cfg.enable_fusion = num() != 0;
        else if (key == "cuckoo_min_entries")
          art.cfg.cuckoo_min_entries = static_cast<uint32_t>(num());
        else if (key == "force_template" && val != "-")
          art.cfg.force_template = static_cast<core::TableTemplate>(num());
      }
      continue;
    }
    if (line.rfind("# in_ports:", 0) == 0) {
      std::istringstream is(line.substr(11));
      uint32_t p;
      while (is >> p) in_ports.push_back(p);
      continue;
    }
    if (line[0] == '#') continue;
    if (line.rfind("table ", 0) == 0) {
      std::istringstream is(line.substr(6));
      int id = -1;
      std::string miss;
      is >> id >> miss;
      if (id < 0 || id > 255) return fail("bad table header: " + line);
      current_table = id;
      art.pipeline.table(static_cast<uint8_t>(id))
          .set_miss_policy(miss == "miss=controller"
                               ? flow::FlowTable::MissPolicy::kController
                               : flow::FlowTable::MissPolicy::kDrop);
      continue;
    }
    if (current_table < 0) return fail("rule before any table header: " + line);
    try {
      art.pipeline.table(static_cast<uint8_t>(current_table))
          .add(flow::parse_rule(line));
    } catch (const std::exception& e) {
      return fail("bad rule '" + line + "': " + e.what());
    }
  }

  net::PcapReader pcap = net::PcapReader::from_file(pcap_path);
  if (!pcap.ok()) return fail("bad pcap: " + pcap.error());
  for (size_t i = 0; i < pcap.size(); ++i) {
    const net::PcapPacket p = pcap.packet(i);
    if (p.len != p.orig_len)
      return fail("pcap record " + std::to_string(i) + " is snaplen-truncated");
    if (p.len == 0 || p.len > net::Packet::kMaxFrame)
      return fail("pcap record " + std::to_string(i) + " length " +
                  std::to_string(p.len) + " is outside the replayable range");
    art.trace.items.push_back(
        {{p.data, p.data + p.len}, i < in_ports.size() ? in_ports[i] : 1});
  }
  return art;
}

}  // namespace esw::testing
