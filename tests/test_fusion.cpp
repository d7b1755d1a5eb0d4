// The pipeline plan (core::fuse_pipeline) and the one burst walk that runs it,
// with and without whole-pipeline JIT fusion (jit/fusion.hpp): bursts must be
// observably identical to n scalar process() calls — same verdicts, same
// packet mutations, same per-table and global stats — for every template
// shape, goto chains, decomposed tables, both miss policies, and under churn.
// The degradation story is covered too: an exec-map refusal during the fused
// compile leaves the plan published without machine code, is accounted in
// the fusion ledger, and heals through the bounded-backoff retry;
// pathological goto graphs (cycles hand-wired below the control-plane
// validator) terminate in the shared loop-bound drop instead of hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "core/decompose.hpp"
#include "core/eswitch.hpp"
#include "flow/dsl.hpp"
#include "jit/exec_mem.hpp"
#include "netio/pktgen.hpp"
#include "test_util.hpp"
#include "usecases/usecases.hpp"

namespace {

using namespace esw;
using core::CompiledDatapath;
using core::CompilerConfig;
using core::Eswitch;
using core::FusedPipeline;
using core::TableTemplate;
using flow::FieldId;
using flow::FlowMod;
using flow::parse_rule;
using flow::Pipeline;
using flow::Verdict;

uint64_t packet_digest(const net::Packet& p) {
  return hash_bytes(p.data(), p.len(), uint64_t{p.len()} << 32 | p.in_port());
}

FlowMod add_mod(uint8_t table, const std::string& rule) {
  const flow::FlowEntry e = parse_rule(rule);
  FlowMod fm;
  fm.command = FlowMod::Cmd::kAdd;
  fm.table_id = table;
  fm.priority = e.priority;
  fm.match = e.match;
  fm.actions = e.actions;
  fm.goto_table = e.goto_table;
  return fm;
}

std::vector<net::FlowSpec> random_traffic(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<net::FlowSpec> flows;
  flows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    net::FlowSpec f;
    const uint64_t k = rng.below(100);
    if (k < 45) {
      f.pkt = test::udp_spec(static_cast<uint32_t>(rng.next()),
                             static_cast<uint32_t>(rng.next()),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(0x400)));
    } else if (k < 90) {
      f.pkt = test::tcp_spec(0x0A000000 | static_cast<uint32_t>(rng.below(256)),
                             0xC0000200 | static_cast<uint32_t>(rng.below(256)),
                             static_cast<uint16_t>(rng.below(0x10000)),
                             static_cast<uint16_t>(rng.below(128)));
    } else if (k < 95) {
      f.pkt.kind = proto::PacketKind::kArp;
    } else {
      f.pkt.kind = proto::PacketKind::kRawEth;
    }
    f.in_port = static_cast<uint32_t>(rng.below(4));
    flows.push_back(f);
  }
  return flows;
}

struct RunResult {
  std::vector<Verdict> verdicts;
  std::vector<uint64_t> digests;
};

/// Replays the sequence in deterministic irregular bursts (singletons,
/// partial bursts, > kBurstSize chunked calls) through process_burst.
RunResult run_bursts(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  Rng rng(0xF5D);
  std::vector<net::Packet> bufs(2 * net::kBurstSize);
  std::vector<net::Packet*> ptrs(bufs.size());
  std::vector<Verdict> verdicts(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];

  size_t i = 0;
  while (i < n) {
    const uint32_t want = static_cast<uint32_t>(rng.range(1, bufs.size()));
    const uint32_t burst = static_cast<uint32_t>(std::min<size_t>(want, n - i));
    for (uint32_t b = 0; b < burst; ++b) ts.load(i + b, bufs[b]);
    sw.process_burst(ptrs.data(), burst, verdicts.data());
    for (uint32_t b = 0; b < burst; ++b) {
      r.verdicts.push_back(verdicts[b]);
      r.digests.push_back(packet_digest(bufs[b]));
    }
    i += burst;
  }
  return r;
}

/// The same sequence packet by packet through the scalar reference walk.
RunResult run_scalar(Eswitch& sw, const net::TrafficSet& ts, size_t n) {
  RunResult r;
  net::Packet p;
  for (size_t i = 0; i < n; ++i) {
    ts.load(i, p);
    r.verdicts.push_back(sw.process(p));
    r.digests.push_back(packet_digest(p));
  }
  return r;
}

void expect_runs_equal(const RunResult& a, const RunResult& b, const char* what) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << what;
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    ASSERT_EQ(a.verdicts[i], b.verdicts[i]) << what << ", packet " << i;
    ASSERT_EQ(a.digests[i], b.digests[i]) << what << ", packet " << i;
  }
}

void expect_stats_equal(const Eswitch& a, const Eswitch& b) {
  const auto sa = a.datapath().stats();
  const auto sb = b.datapath().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.outputs, sb.outputs);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.to_controller, sb.to_controller);
  ASSERT_EQ(a.datapath().num_slots(), b.datapath().num_slots());
  for (int32_t s = 0; s < a.datapath().num_slots(); ++s) {
    const auto ta = a.datapath().table_stats(s);
    const auto tb = b.datapath().table_stats(s);
    EXPECT_EQ(ta.lookups, tb.lookups) << "slot " << s;
    EXPECT_EQ(ta.hits, tb.hits) << "slot " << s;
    EXPECT_EQ(ta.misses, tb.misses) << "slot " << s;
  }
}

/// Same pipeline into a fused switch, a fusion-disabled one (the plan without
/// machine code) and a scalar reference driven through process(): verdicts,
/// frame mutations, verdict-level and per-slot stats must agree packet for
/// packet.
void expect_fused_parity(const Pipeline& pl,
                         const std::vector<net::FlowSpec>& flows,
                         CompilerConfig cfg = {}, size_t n_packets = 3000) {
  CompilerConfig fused_cfg = cfg, plain_cfg = cfg;
  fused_cfg.enable_fusion = true;
  plain_cfg.enable_fusion = false;
  Eswitch fused_sw(fused_cfg), plain_sw(plain_cfg), scalar_sw(cfg);
  fused_sw.install(pl);
  plain_sw.install(pl);
  scalar_sw.install(pl);
  ASSERT_TRUE(fused_sw.fused_active()) << "plan was not published";
  ASSERT_FALSE(plain_sw.fused_active());
  ASSERT_NE(plain_sw.datapath().fused(), nullptr) << "fusion off published no plan";
  ASSERT_EQ(plain_sw.datapath().fused()->program, nullptr);
  const auto ts = net::TrafficSet::from_flows(flows);

  const RunResult f = run_bursts(fused_sw, ts, n_packets);
  const RunResult p = run_bursts(plain_sw, ts, n_packets);
  const RunResult s = run_scalar(scalar_sw, ts, n_packets);
  expect_runs_equal(f, s, "fused vs scalar");
  expect_runs_equal(p, s, "machine-free plan vs scalar");
  expect_stats_equal(fused_sw, scalar_sw);
  expect_stats_equal(plain_sw, scalar_sw);
}

// --- fusability ------------------------------------------------------------

TEST(Fusion, ActiveForEveryTemplateShape) {
  struct Case {
    TableTemplate expect;
    Pipeline pl;
    CompilerConfig cfg;
  };
  std::vector<Case> cases;
  {
    Case c;
    c.expect = TableTemplate::kDirectCode;
    c.pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=output:1"));
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kCompoundHash;
    c.pl = uc::make_l2(64).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLpm;
    c.pl = uc::make_l3(100).pipeline;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kRange;
    c.pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
    c.pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
    c.pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
    c.cfg.direct_code_max_entries = 2;
    cases.push_back(std::move(c));
  }
  {
    Case c;
    c.expect = TableTemplate::kLinkedList;
    const flow::FlowTable acls = uc::make_snort_like_acls(24);
    for (const flow::FlowEntry& e : acls.entries()) c.pl.table(0).add(e);
    cases.push_back(std::move(c));
  }

  for (const Case& c : cases) {
    Eswitch sw(c.cfg);
    sw.install(c.pl);
    ASSERT_EQ(sw.table_template(c.pl.tables().front().id()), c.expect);
    EXPECT_TRUE(sw.fused_active())
        << "template " << static_cast<int>(c.expect) << " blocked fusion";
    const FusedPipeline* fp = sw.datapath().fused();
    ASSERT_NE(fp, nullptr);
    EXPECT_EQ(fp->stages.size(), 1u);
    // Only direct-code members get machine code; the rest is a pinned plan.
    if (c.expect == TableTemplate::kDirectCode && jit::ExecBuffer::supported()) {
      EXPECT_NE(fp->program, nullptr);
    }
  }
}

/// Snort-shaped traffic for make_snort_like_acls: mostly TCP toward the
/// ACLs' HOME_NET and service ports, with their source qualifiers.
std::vector<net::FlowSpec> acl_traffic(size_t n, uint64_t seed) {
  static const uint16_t kPorts[] = {80, 21, 25, 53, 110, 143, 443, 445, 1433, 3306, 139, 8080};
  Rng rng(seed);
  std::vector<net::FlowSpec> flows(n);
  for (net::FlowSpec& f : flows) {
    const uint32_t src = rng.chance(1, 2) ? static_cast<uint32_t>(rng.below(4))
                                          : static_cast<uint32_t>(rng.next());
    const uint32_t dst = 0xC0A80000u + static_cast<uint32_t>(rng.below(5));
    const uint16_t sport = static_cast<uint16_t>(
        rng.chance(1, 2) ? 1024 + rng.below(8) : rng.below(0x10000));
    const uint16_t dport = rng.chance(9, 10) ? kPorts[rng.below(std::size(kPorts))]
                                             : static_cast<uint16_t>(rng.below(0x10000));
    f.pkt = rng.chance(9, 10) ? test::tcp_spec(src, dst, sport, dport)
                              : test::udp_spec(src, dst, sport, dport);
    f.in_port = 1;
  }
  return flows;
}

TEST(Fusion, PlanPublishedUnderEveryConfig) {
  // Every non-empty pipeline gets a plan: with fusion on or off, with
  // decomposed tables, and when the fused emit is refused.
  std::vector<Pipeline> pipelines;
  pipelines.push_back(uc::make_l2(64).pipeline);
  pipelines.push_back(uc::make_gateway(4, 8, 200).pipeline);
  pipelines.push_back(uc::make_load_balancer(20).pipeline);
  const flow::FlowTable acls = uc::make_snort_like_acls(32);
  pipelines.emplace_back();
  for (const flow::FlowEntry& e : acls.entries()) pipelines.back().table(0).add(e);

  for (size_t k = 0; k < pipelines.size(); ++k) {
    const Pipeline& pl = pipelines[k];
    for (int variant = 0; variant < 4; ++variant) {
      CompilerConfig cfg;
      cfg.enable_fusion = variant != 1;
      cfg.enable_decomposition = variant == 2;
      Eswitch sw(cfg);
      {
        const bool refuse = variant == 3 && jit::ExecBuffer::supported();
        if (refuse) jit::ExecBuffer::force_failure_for_testing(true);
        sw.install(pl);
        if (refuse) jit::ExecBuffer::force_failure_for_testing(false);
      }
      const FusedPipeline* fp = sw.datapath().fused();
      ASSERT_NE(fp, nullptr) << "pipeline " << k << " variant " << variant;
      size_t expect_stages = 0;
      for (const flow::FlowTable& t : pl.tables())
        expect_stages += std::max<uint32_t>(1, sw.decomposed_table_count(t.id()));
      EXPECT_EQ(fp->stages.size(), expect_stages) << "pipeline " << k;
      if (variant == 1 || variant == 3) {
        EXPECT_EQ(fp->program, nullptr) << "pipeline " << k;
      }
      const bool has_dc = std::any_of(fp->stages.begin(), fp->stages.end(), [](const auto& st) {
        return st.impl != nullptr && st.impl->kind() == TableTemplate::kDirectCode;
      });
      const bool refused = sw.degradation_stats().fusion_fallbacks != 0;
      EXPECT_EQ(refused, variant == 3 && has_dc && jit::ExecBuffer::supported())
          << "pipeline " << k;
      EXPECT_EQ(sw.fused_active(), variant != 1 && !refused)
          << "pipeline " << k << " variant " << variant;
    }
  }
}

// --- burst/scalar parity ----------------------------------------------------

TEST(Fusion, ParityDirectCodeGotoChainWithMutationsAndControllerMiss) {
  // Three direct-code tables chained by gotos; the middle one's miss goes to
  // the controller and the chain mutates the frame twice (dec_ttl) — packet
  // bytes, action accumulation across stages and both miss policies in one
  // machine-fused graph.
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=30,eth_type=0x0800,actions=dec_ttl,goto:1"));
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0806,actions=controller"));
  pl.table(1).add(parse_rule("priority=20,tcp_dst=80,actions=dec_ttl,goto:2"));
  pl.table(1).add(parse_rule("priority=15,udp_dst=53,actions=goto:2"));
  pl.table(1).set_miss_policy(flow::FlowTable::MissPolicy::kController);
  pl.table(2).add(parse_rule("priority=10,ip_dst=10.0.0.0/8,actions=output:3"));
  pl.table(2).add(parse_rule("priority=1,actions=output:9"));

  Eswitch probe;
  probe.install(pl);
  for (uint8_t t : {0, 1, 2})
    ASSERT_EQ(probe.table_template(t), TableTemplate::kDirectCode);
  if (jit::ExecBuffer::supported()) {
    ASSERT_TRUE(probe.fused_active());
    EXPECT_NE(probe.datapath().fused()->program, nullptr);
  }
  expect_fused_parity(pl, random_traffic(600, 0xFC1));
}

TEST(Fusion, ParityHashL2) {
  const auto uc = uc::make_l2(256);
  expect_fused_parity(uc.pipeline, uc.traffic(1000, 7));
}

TEST(Fusion, ParityLpmL3) {
  const auto uc = uc::make_l3(500);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 11));
}

TEST(Fusion, ParityRangeTemplate) {
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=100,udp_dst=0x100/0xFF00,actions=output:1"));
  pl.table(0).add(parse_rule("priority=20,udp_dst=0x140/0xFFC0,actions=output:2"));
  pl.table(0).add(parse_rule("priority=90,udp_dst=0x200/0xFF00,actions=output:3"));
  pl.table(0).add(parse_rule("priority=95,udp_dst=0x240/0xFFC0,actions=output:4"));
  pl.table(0).add(parse_rule("priority=1,actions=drop"));
  CompilerConfig cfg;
  cfg.direct_code_max_entries = 2;
  expect_fused_parity(pl, random_traffic(600, 0x4A), cfg);
}

TEST(Fusion, ParityLinkedListAcls) {
  Pipeline pl;
  const flow::FlowTable acls = uc::make_snort_like_acls(48);
  for (const flow::FlowEntry& e : acls.entries()) pl.table(0).add(e);
  expect_fused_parity(pl, random_traffic(800, 0x11));
}

TEST(Fusion, ParityGatewayMultiTable) {
  const auto uc = uc::make_gateway(4, 8, 200);
  expect_fused_parity(uc.pipeline, uc.traffic(1500, 31));
}

TEST(Fusion, ParityDecomposedLoadBalancer) {
  // The Fig. 12 load balancer decomposes into a router over in_port and
  // per-key residual tables; the plan walks the root and its sub-slots.
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  const auto uc = uc::make_load_balancer(20);
  Eswitch probe(cfg);
  probe.install(uc.pipeline);
  ASSERT_TRUE(probe.is_decomposed(0));
  ASSERT_GT(probe.decomposed_table_count(0), 2u);
  expect_fused_parity(uc.pipeline, uc.traffic(2000, 5), cfg);
}

TEST(Fusion, ParityDecomposedAclsWithSharedSubTables) {
  // Decomposing these ACLs memoizes identical residual tables, so the
  // decomposer's emit order places some shared sub-tables *before* a router
  // that jumps to them.  The plan needs the topological order decompose()
  // returns: a backward stage transition would be a guard drop.
  const flow::FlowTable acls = uc::make_snort_like_acls(32);
  const core::DecomposedPipeline d = core::decompose(acls);
  std::vector<int> in_degree(d.tables.size(), 0);
  for (size_t t = 0; t < d.tables.size(); ++t) {
    for (const auto& e : d.tables[t].entries) {
      if (e.internal_next < 0) continue;
      EXPECT_GT(e.internal_next, static_cast<int32_t>(t)) << "not topological";
      ++in_degree[static_cast<size_t>(e.internal_next)];
    }
  }
  ASSERT_GT(*std::max_element(in_degree.begin(), in_degree.end()), 1)
      << "no memoized sub-table shared by two routers";

  Pipeline pl;
  for (const flow::FlowEntry& e : acls.entries()) pl.table(0).add(e);
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  Eswitch probe(cfg);
  probe.install(pl);
  ASSERT_TRUE(probe.is_decomposed(0));
  expect_fused_parity(pl, acl_traffic(1500, 0xAC1), cfg);
}

// --- churn: republish, fingerprint skip, program reuse ----------------------

TEST(Fusion, InPlaceUpdateKeepsPublishedPlan) {
  // Without registered workers an incremental add mutates the impl in place:
  // the (slot, impl, miss) fingerprint is unchanged, so refresh_fusion must
  // skip the republish and the plan pointer must not move.
  Pipeline pl;
  for (int i = 0; i < 20; ++i)
    pl.table(0).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kCompoundHash);
  ASSERT_TRUE(sw.fused_active());
  const FusedPipeline* before = sw.datapath().fused();
  const auto rebuilds = sw.update_stats().table_rebuilds;

  sw.apply(add_mod(0, "priority=5,udp_dst=1000,actions=output:7"));
  ASSERT_EQ(sw.update_stats().table_rebuilds, rebuilds);  // in place indeed
  EXPECT_EQ(sw.datapath().fused(), before) << "unchanged fingerprint republished";

  // The live plan serves the new rule through the pinned impl.
  net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, 1000));
  net::Packet* pp = &p;
  Verdict v;
  sw.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::output(7));
}

TEST(Fusion, CloneSwapChurnReusesMachineProgram) {
  // Mixed pipeline: a direct-code stage chained into a hash stage.  With a
  // worker registered, a hash add becomes a clone-update-swap — the impl
  // pointer changes, so the plan must republish (new fingerprint), but the
  // direct-code member set is untouched (same program_key), so the previous
  // machine program must be reused, not re-emitted.  A direct-code mod then
  // changes the member set and must produce a fresh program.
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,eth_type=0x0800,actions=goto:1"));
  for (int i = 0; i < 20; ++i)
    pl.table(1).add(parse_rule("priority=5,udp_dst=" + std::to_string(i) +
                               ",actions=output:1"));
  Eswitch sw;
  sw.install(pl);
  ASSERT_EQ(sw.table_template(0), TableTemplate::kDirectCode);
  ASSERT_EQ(sw.table_template(1), TableTemplate::kCompoundHash);
  ASSERT_TRUE(sw.fused_active());

  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const FusedPipeline* plan0 = sw.datapath().fused();
  ASSERT_NE(plan0, nullptr);
  ASSERT_NE(plan0->program, nullptr);
  const jit::FusedProgram* prog0 = plan0->program.get();

  sw.apply(add_mod(1, "priority=5,udp_dst=2000,actions=output:7"));
  const FusedPipeline* plan1 = sw.datapath().fused();
  ASSERT_NE(plan1, nullptr);
  EXPECT_NE(plan1, plan0) << "clone-swap churn did not republish";
  EXPECT_EQ(plan1->program.get(), prog0) << "unchanged member set re-emitted";

  sw.apply(add_mod(0, "priority=9,eth_type=0x0806,actions=controller"));
  const FusedPipeline* plan2 = sw.datapath().fused();
  ASSERT_NE(plan2, nullptr);
  ASSERT_NE(plan2->program, nullptr);
  EXPECT_NE(plan2->program.get(), prog0) << "stale machine code kept after dc rebuild";

  sw.unregister_worker(w);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u);
}

// --- degradation: exec-map refusal, bounded retry, recovery -----------------

/// Arms the ExecBuffer failure hook for one scope (the jit.exec_map site).
struct ExecFailGuard {
  ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(true); }
  ~ExecFailGuard() { jit::ExecBuffer::force_failure_for_testing(false); }
};

TEST(Fusion, ExecMapFailureFallsBackThenRecovers) {
  if (!jit::ExecBuffer::supported()) GTEST_SKIP() << "no executable memory";
  CompilerConfig cfg;
  cfg.jit_retry_base_updates = 4;  // short windows so the test sees recovery
  Pipeline pl;
  pl.table(0).add(parse_rule("priority=10,udp_dst=53,actions=goto:1"));
  pl.table(0).add(parse_rule("priority=0,actions=goto:1"));  // catch-all
  pl.table(1).add(parse_rule("priority=10,udp_dst=53,actions=output:4"));
  Eswitch sw(cfg);
  sw.install(pl);
  ASSERT_TRUE(sw.fused_active());
  ASSERT_NE(sw.datapath().fused()->program, nullptr);
  // A registered worker turns every update into a clone-swap or rebuild
  // whose displaced impls retire through the epoch domain.
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  {
    ExecFailGuard guard;
    // The rebuild degrades the table to the interpreter AND refuses the
    // fused re-compile: the plan is republished without a machine program.
    sw.apply(add_mod(1, "priority=9,udp_dst=99,actions=output:5"));
  }
  const FusedPipeline* degraded = sw.datapath().fused();
  ASSERT_NE(degraded, nullptr) << "refused compile published no plan";
  EXPECT_EQ(degraded->program, nullptr);
  EXPECT_FALSE(sw.fused_active()) << "retry armed, yet reported fully fused";
  EXPECT_EQ(sw.degradation_stats().fusion_fallbacks, 1u);
  EXPECT_EQ(sw.degradation_stats().fusion_recoveries, 0u);

  // Churn inside the retry window: a worker thread keeps running bursts
  // while each update rebuilds table 1 and republishes the machine-free plan
  // (its predecessor pins the impl the rebuild retired).
  const auto ts = net::TrafficSet::from_flows({
      {test::udp_spec(1, 2, 9, 53), 0},
      {test::udp_spec(1, 2, 9, 99), 0},
      {test::udp_spec(1, 2, 9, 7), 0},
  });
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  std::thread worker([&] {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b) ts.load(b % 3, bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
    }
  });
  while (processed.load() == 0) std::this_thread::yield();
  const auto republishes = sw.update_stats().fusion_republishes;
  for (int k = 0; k < 3; ++k) {
    sw.apply(add_mod(1, "priority=8,udp_dst=" + std::to_string(100 + k) +
                            ",actions=output:" + std::to_string(6 + k)));
    ASSERT_NE(sw.datapath().fused(), nullptr);
    EXPECT_EQ(sw.datapath().fused()->program, nullptr) << "emit retried inside the window";
    EXPECT_FALSE(sw.fused_active());
  }
  stop.store(true);
  worker.join();
  EXPECT_EQ(sw.update_stats().fusion_republishes, republishes + 3);
  EXPECT_EQ(sw.degradation_stats().fusion_retries, 0u);
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);

  // The machine-free plan serves every rule, old and new.
  for (const auto& [port, out] : std::vector<std::pair<uint16_t, Verdict>>{
           {53, Verdict::output(4)},
           {99, Verdict::output(5)},
           {102, Verdict::output(8)},
           {7, Verdict::drop()}}) {
    net::Packet p = test::make_packet(test::udp_spec(1, 2, 9, port));
    net::Packet* pp = &p;
    Verdict v;
    sw.process_burst(&pp, 1, &v);
    EXPECT_EQ(v, out) << "udp_dst " << port;
  }
  sw.unregister_worker(w);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u)
      << "plans/impls retired inside the window stuck after the worker left";

  // The next update elapses the window; the re-fusion must land and be
  // accounted as a recovery.
  sw.apply(add_mod(1, "priority=7,udp_dst=200,actions=output:9"));
  EXPECT_TRUE(sw.fused_active()) << "retry window elapsed without re-fusing";
  ASSERT_NE(sw.datapath().fused()->program, nullptr);
  EXPECT_EQ(sw.degradation_stats().fusion_retries, 1u);
  EXPECT_EQ(sw.degradation_stats().fusion_recoveries, 1u);

  net::Packet p2 = test::make_packet(test::udp_spec(1, 2, 9, 53));
  net::Packet* pp2 = &p2;
  Verdict v;
  sw.process_burst(&pp2, 1, &v);
  EXPECT_EQ(v, Verdict::output(4));
}

// --- pathological goto graphs (shared loop-bound policy) --------------------

TEST(Fusion, GotoCycleTerminatesInBoundedDrop) {
  // Two interpreter tables hand-wired into a cycle via raw internal_next slot
  // ids — below the control-plane validator (which enforces forward gotos).
  // Both walks must terminate in a drop, not hang: the scalar walk at
  // kMaxHops with its stats windows flushed mid-walk (the hoisted lap
  // guard), the burst walk at its forward-only stage guard.
  CompiledDatapath dp;
  const core::GotoMap gmap(256, -1);
  core::BuildCtx ctx{dp.actions(), gmap};
  const int32_t s0 = dp.add_slot(flow::FlowTable::MissPolicy::kDrop);
  const int32_t s1 = dp.add_slot(flow::FlowTable::MissPolicy::kDrop);
  core::BuildEntry e;  // match-all, no actions
  e.priority = 1;
  e.internal_next = s1;
  dp.set_impl(s0, core::DirectCodeTable::build({e}, ctx, false));
  e.internal_next = s0;
  dp.set_impl(s1, core::DirectCodeTable::build({e}, ctx, false));
  dp.set_start(s0);

  net::Packet p = test::make_packet(test::udp_spec(1, 2, 3, 4));
  EXPECT_EQ(dp.process(p), Verdict::drop());  // scalar walk
  EXPECT_EQ(dp.stats().packets, 1u);
  EXPECT_EQ(dp.stats().drops, 1u);
  // Every hop was counted before the guard dropped the packet.
  const auto ts0 = dp.table_stats(s0);
  const auto ts1 = dp.table_stats(s1);
  EXPECT_EQ(ts0.lookups + ts1.lookups, static_cast<uint64_t>(CompiledDatapath::kMaxHops));

  // A hand-built fused plan with the same backward edge: the fused walk's
  // monotone-stage guard must drop at the first backward transition.
  auto fp = std::make_unique<FusedPipeline>();
  fp->stage_of_slot.assign(static_cast<size_t>(dp.num_slots()), -1);
  fp->stages.push_back({s0, dp.impl(s0), flow::FlowTable::MissPolicy::kDrop,
                        false, nullptr});
  fp->stages.push_back({s1, dp.impl(s1), flow::FlowTable::MissPolicy::kDrop,
                        false, nullptr});
  fp->stage_of_slot[static_cast<size_t>(s0)] = 0;
  fp->stage_of_slot[static_cast<size_t>(s1)] = 1;
  dp.set_fused(std::move(fp));
  net::Packet* pp = &p;
  Verdict v = Verdict::output(9);
  dp.process_burst(&pp, 1, &v);
  EXPECT_EQ(v, Verdict::drop());
  EXPECT_EQ(dp.stats().packets, 2u);
  EXPECT_EQ(dp.stats().drops, 2u);
  // Both stages were looked up once; the backward transition took no lookup.
  EXPECT_EQ(dp.table_stats(s0).lookups + dp.table_stats(s1).lookups,
            static_cast<uint64_t>(CompiledDatapath::kMaxHops) + 2);
}

// --- concurrent churn: epoch-safe republish ---------------------------------

TEST(Fusion, ConcurrentChurnRepublishesEpochSafely) {
  // One packet worker runs fused bursts while the control thread churns the
  // MAC table (clone-update-swap per mod => a plan republish per mod).  The
  // run must stay crash-free with exact verdict accounting, and every retired
  // plan/impl must drain once the worker is gone.
  const auto uc = uc::make_l2(2000);
  Eswitch sw;
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.fused_active());
  Eswitch::Worker* w = sw.register_worker();
  ASSERT_NE(w, nullptr);

  const auto ts = net::TrafficSet::from_flows(uc.traffic(512, 99));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  std::thread worker([&] {
    std::vector<net::Packet> bufs(net::kBurstSize);
    std::vector<net::Packet*> ptrs(bufs.size());
    Verdict verdicts[net::kBurstSize];
    for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (uint32_t b = 0; b < net::kBurstSize; ++b)
        ts.load((i + b) % 512, bufs[b]);
      sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
      processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
      i += net::kBurstSize;
    }
  });

  for (int k = 0; k < 300; ++k) {
    FlowMod fm;
    fm.command = FlowMod::Cmd::kAdd;
    fm.table_id = 0;
    fm.priority = 5;
    fm.match.set(FieldId::kEthDst, 0x020000000000ull | static_cast<uint64_t>(k),
                 0xFFFFFFFFFFFFull);
    fm.actions.push_back(flow::Action::output(2));
    sw.apply(fm);
  }
  stop.store(true);
  worker.join();
  sw.unregister_worker(w);

  EXPECT_TRUE(sw.fused_active()) << "churn ended with the fast path lost";
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  EXPECT_EQ(sw.datapath().reclaim_stats().pending, 0u)
      << "retired plans/impls stuck after the last worker left";
}

TEST(Fusion, DecomposedRebuildsUnderTwoWorkers) {
  // Two packet workers run bursts through a decomposed load balancer while
  // the control thread churns its rules: every mod rebuilds the logical
  // table (fresh sub-slots, a root swap) and retires the previous sub-slot
  // chain while the plan republishes.  Packets must be conserved, the plan
  // must survive, and every retired slot/impl/plan must drain afterwards.
  CompilerConfig cfg;
  cfg.enable_decomposition = true;
  const auto uc = uc::make_load_balancer(10);
  Eswitch sw(cfg);
  sw.install(uc.pipeline);
  ASSERT_TRUE(sw.is_decomposed(0));
  ASSERT_TRUE(sw.fused_active());

  Eswitch::Worker* ws[2] = {sw.register_worker(), sw.register_worker()};
  ASSERT_NE(ws[0], nullptr);
  ASSERT_NE(ws[1], nullptr);
  const auto ts = net::TrafficSet::from_flows(uc.traffic(512, 17));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> processed{0};
  std::vector<std::thread> threads;
  for (Eswitch::Worker* w : ws) {
    threads.emplace_back([&, w] {
      std::vector<net::Packet> bufs(net::kBurstSize);
      std::vector<net::Packet*> ptrs(bufs.size());
      Verdict verdicts[net::kBurstSize];
      for (size_t b = 0; b < bufs.size(); ++b) ptrs[b] = &bufs[b];
      size_t i = w->id() * 97;
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t b = 0; b < net::kBurstSize; ++b) ts.load((i + b) % 512, bufs[b]);
        sw.process_burst(*w, ptrs.data(), net::kBurstSize, verdicts);
        processed.fetch_add(net::kBurstSize, std::memory_order_relaxed);
        i += net::kBurstSize;
      }
    });
  }

  while (processed.load() == 0) std::this_thread::yield();
  const auto rebuilds = sw.update_stats().table_rebuilds;
  const auto republishes = sw.update_stats().fusion_republishes;
  for (int k = 0; k < 40; ++k) {
    FlowMod fm;
    fm.command = k % 2 == 0 ? FlowMod::Cmd::kAdd : FlowMod::Cmd::kDelete;
    fm.table_id = 0;
    fm.priority = 20;
    fm.match.set(FieldId::kInPort, 1);
    fm.match.set(FieldId::kIpDst, 0x0A020000u | static_cast<uint32_t>(k / 2));
    fm.match.set(FieldId::kTcpDst, 80);
    fm.actions.push_back(flow::Action::output(50));
    sw.apply(fm);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  for (Eswitch::Worker* w : ws) sw.unregister_worker(w);

  EXPECT_EQ(sw.update_stats().table_rebuilds, rebuilds + 40);
  EXPECT_EQ(sw.update_stats().fusion_republishes, republishes + 40);
  EXPECT_TRUE(sw.is_decomposed(0));
  EXPECT_TRUE(sw.fused_active()) << "churn ended with the plan lost";
  const auto st = sw.datapath().stats();
  EXPECT_EQ(st.packets, processed.load());
  EXPECT_EQ(st.packets, st.outputs + st.drops + st.to_controller);
  sw.datapath().reclaim();
  const auto rs = sw.datapath().reclaim_stats();
  EXPECT_EQ(rs.pending, 0u) << "retired sub-slots/impls/plans stuck after the workers left";
  EXPECT_EQ(rs.retired, rs.reclaimed);

  // The settled switch still agrees with its scalar walk.
  std::vector<net::Packet> bufs(64);
  std::vector<net::Packet*> ptrs(bufs.size());
  std::vector<Verdict> out(bufs.size());
  for (size_t b = 0; b < bufs.size(); ++b) {
    ts.load(b, bufs[b]);
    ptrs[b] = &bufs[b];
  }
  sw.process_burst(ptrs.data(), static_cast<uint32_t>(bufs.size()), out.data());
  for (size_t b = 0; b < bufs.size(); ++b) {
    net::Packet p;
    ts.load(b, p);
    EXPECT_EQ(out[b], sw.process(p)) << "packet " << b;
  }
}

}  // namespace
