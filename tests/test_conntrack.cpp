// Connection-tracking subsystem tests: the TCP state machine, expiry and
// eviction, NAT/LB rewrite semantics, the established-only firewall, and
// JIT-vs-interpreter parity over the stateful use cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/epoch.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/eswitch.hpp"
#include "proto/headers.hpp"
#include "state/conntrack.hpp"
#include "test_util.hpp"
#include "testing/seed.hpp"
#include "usecases/usecases.hpp"

namespace esw {
namespace {

using namespace esw::state;
using core::CompilerConfig;
using core::Eswitch;
using flow::Verdict;
using test::make_packet;

// --- direct-API harness ------------------------------------------------------

struct CtHarness {
  common::EpochDomain domain;
  Conntrack ct;

  explicit CtHarness(CtConfig cfg = manual_cfg()) : ct(cfg, &domain) {}

  static CtConfig manual_cfg() {
    CtConfig cfg;
    cfg.enabled = true;
    cfg.capacity = 1024;
    cfg.manual_clock = true;
    return cfg;
  }

  /// Runs the full pre/post pair the datapath would, with `commit` as the
  /// matched rule's ct:commit decision.  Returns the stamped ct_state.
  uint32_t feed(net::Packet& p, bool commit, uint32_t profile = 0) {
    proto::ParseInfo pi = test::parse_packet(p);
    const uint64_t now = ct.now_ms();
    Conntrack::Hit hit = ct.pre(p.data(), pi, now);
    ct.post(hit, commit, profile, p.data(), pi, now);
    return pi.ct_state;
  }
};

proto::PacketSpec tcp_with_flags(uint32_t src, uint32_t dst, uint16_t sport,
                                 uint16_t dport, uint8_t flags) {
  proto::PacketSpec s = test::tcp_spec(src, dst, sport, dport);
  s.tcp_flags = flags;
  return s;
}

constexpr uint32_t kClient = 0x0A000001;  // 10.0.0.1
constexpr uint32_t kServer = 0xCB007105;  // 203.0.113.5

TcpState tcp_state_of(Conntrack& ct, const FiveTuple& t) {
  Conntrack::Entry* e = ct.find(t);
  EXPECT_NE(e, nullptr);
  return e == nullptr ? TcpState::kClosed
                      : static_cast<TcpState>(e->tcp_state.load());
}

TEST(ConntrackTcp, HandshakeStateMachine) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 40000, 443, proto::kIpProtoTcp};

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagSyn));
  const uint32_t st_syn = h.feed(syn, /*commit=*/true);
  EXPECT_EQ(st_syn, kCtTracked | kCtNew);  // stamped pre-commit: miss, SYN
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynSent);

  auto synack = make_packet(tcp_with_flags(
      kServer, kClient, 443, 40000,
      proto::kTcpFlagSyn | proto::kTcpFlagAck));
  const uint32_t st_synack = h.feed(synack, false);
  // The SYN-ACK must carry established (iptables semantics: an established-
  // only rule admits the handshake) plus reply and new.
  EXPECT_EQ(st_synack, kCtTracked | kCtEstablished | kCtNew | kCtReply);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                        proto::kTcpFlagAck));
  const uint32_t st_ack = h.feed(ack, false);
  // Bits stamp after the transition the packet itself causes: the handshake
  // ACK completes the connection and reads as plain established.
  EXPECT_EQ(st_ack, kCtTracked | kCtEstablished);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);

  auto data = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(data, false), kCtTracked | kCtEstablished);

  auto fin1 = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin1, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kFinWait);
  auto fin2 = make_packet(tcp_with_flags(kServer, kClient, 443, 40000,
                                         proto::kTcpFlagFin | proto::kTcpFlagAck));
  h.feed(fin2, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);

  // Late packets on a closed connection stamp invalid.
  auto late = make_packet(tcp_with_flags(kClient, kServer, 40000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, SimultaneousOpen) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 41000, 7777, proto::kIpProtoTcp};

  auto syn_a = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                          proto::kTcpFlagSyn));
  h.feed(syn_a, true);
  // The crossing SYN (no ACK) from the other side.
  auto syn_b = make_packet(tcp_with_flags(kServer, kClient, 7777, 41000,
                                          proto::kTcpFlagSyn));
  h.feed(syn_b, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kSynRecv);

  auto ack = make_packet(tcp_with_flags(kClient, kServer, 41000, 7777,
                                        proto::kTcpFlagAck));
  h.feed(ack, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kEstablished);
}

TEST(ConntrackTcp, RstTeardown) {
  CtHarness h;
  const FiveTuple orig{kClient, kServer, 42000, 443, proto::kIpProtoTcp};
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                        proto::kTcpFlagSyn));
  h.feed(syn, true);
  auto rst = make_packet(tcp_with_flags(kServer, kClient, 443, 42000,
                                        proto::kTcpFlagRst));
  h.feed(rst, false);
  EXPECT_EQ(tcp_state_of(h.ct, orig), TcpState::kClosed);
  auto late = make_packet(tcp_with_flags(kClient, kServer, 42000, 443,
                                         proto::kTcpFlagAck));
  EXPECT_EQ(h.feed(late, false), kCtTracked | kCtInvalid);
}

TEST(ConntrackTcp, MidstreamPickup) {
  // Off (default): a non-SYN packet stamps invalid and its commit is refused.
  {
    CtHarness h;
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtInvalid);
    EXPECT_EQ(h.ct.find({kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              nullptr);
    EXPECT_EQ(h.ct.stats().commits, 0u);
  }
  // On: the same packet commits straight to Established.
  {
    CtConfig cfg = CtHarness::manual_cfg();
    cfg.midstream_pickup = true;
    CtHarness h(cfg);
    auto ack = make_packet(tcp_with_flags(kClient, kServer, 43000, 443,
                                          proto::kTcpFlagAck));
    EXPECT_EQ(h.feed(ack, true), kCtTracked | kCtNew);
    EXPECT_EQ(tcp_state_of(h.ct, {kClient, kServer, 43000, 443, proto::kIpProtoTcp}),
              TcpState::kEstablished);
  }
}

TEST(Conntrack, NonTcpStatesAndIcmpKeying) {
  CtHarness h;
  auto req = make_packet(test::udp_spec(kClient, kServer, 5000, 53));
  EXPECT_EQ(h.feed(req, true), kCtTracked | kCtNew);
  // UDP replies map onto the entry and count as established.
  auto rep = make_packet(test::udp_spec(kServer, kClient, 53, 5000));
  EXPECT_EQ(h.feed(rep, false), kCtTracked | kCtEstablished | kCtReply);
}

TEST(Conntrack, ExpiryUnderManualClock) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.udp_timeout_ms = 5'000;
  CtHarness h(cfg);
  h.ct.set_now_ms(1'000);

  auto p = make_packet(test::udp_spec(kClient, kServer, 6000, 53));
  h.feed(p, true);
  ASSERT_NE(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);

  // Refresh half-way: the wheel item re-schedules instead of expiring.
  h.ct.set_now_ms(4'000);
  h.feed(p, false);

  // Before the refreshed deadline nothing expires.
  h.ct.set_now_ms(8'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 0u);

  // Past it the wheel removes the entry.
  h.ct.set_now_ms(12'000);
  for (uint32_t i = 0; i < 64; ++i) h.ct.poll(h.ct.now_ms());
  EXPECT_EQ(h.ct.stats().expired, 1u);
  EXPECT_EQ(h.ct.find({kClient, kServer, 6000, 53, proto::kIpProtoUdp}), nullptr);
  EXPECT_EQ(h.ct.stats().live, 0u);
}

TEST(Conntrack, EvictionAtCapacity) {
  CtConfig cfg = CtHarness::manual_cfg();
  cfg.capacity = 16;
  CtHarness h(cfg);

  for (uint32_t i = 0; i < 16; ++i) {
    auto p = make_packet(test::udp_spec(kClient + i, kServer, 7000, 53));
    h.feed(p, true);
  }
  ASSERT_EQ(h.ct.stats().live, 16u);

  // Commit 17: forced eviction + accounted drop (the victim's slot waits out
  // its grace period, so this commit cannot use it).
  auto p17 = make_packet(test::udp_spec(kClient + 100, kServer, 7000, 53));
  h.feed(p17, true);
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 1u);
  EXPECT_EQ(s.live, 15u);

  // After reclaim (no workers registered: grace is immediate) the table has
  // room again.
  h.ct.flush_reclaim();
  auto p18 = make_packet(test::udp_spec(kClient + 101, kServer, 7000, 53));
  h.feed(p18, true);
  s = h.ct.stats();
  EXPECT_EQ(s.live, 16u);
  EXPECT_EQ(s.commit_drops, 1u);

  // Conservation: every commit is live, expired or evicted.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

TEST(Conntrack, InsertFailpointForcesAccountedEviction) {
  CtHarness h;
  auto p1 = make_packet(test::udp_spec(kClient, kServer, 8000, 53));
  h.feed(p1, true);

  ASSERT_TRUE(common::FailpointRegistry::instance().arm("ct.insert", "nth:1"));
  auto p2 = make_packet(test::udp_spec(kClient + 1, kServer, 8000, 53));
  h.feed(p2, true);
  common::FailpointRegistry::instance().disarm("ct.insert");

  // The fire evicted exactly one healthy entry, then the commit proceeded.
  Conntrack::Stats s = h.ct.stats();
  EXPECT_EQ(s.evictions_forced, 1u);
  EXPECT_EQ(s.commit_drops, 0u);
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
}

// --- use cases through the full switch --------------------------------------

CompilerConfig cfg_for(const uc::CtUseCase& c, bool jit = true) {
  CompilerConfig cfg;
  cfg.enable_jit = jit;
  cfg.ct = c.ct;
  return cfg;
}

TEST(CtFirewall, EstablishedOnly) {
  uc::CtUseCase c = uc::make_ct_firewall();
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  // Unsolicited outside packet: dropped, no state.
  auto probe = make_packet(tcp_with_flags(kServer, kClient, 443, 50000,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(probe).kind, Verdict::Kind::kDrop);
  // Even an outside SYN must not open state through the established-only rule.
  auto osyn = make_packet(tcp_with_flags(kServer, kClient, 443, 50001,
                                         proto::kTcpFlagSyn),
                          uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(osyn).kind, Verdict::Kind::kDrop);

  // Inside SYN commits and forwards out.
  auto syn = make_packet(tcp_with_flags(kClient, kServer, 50000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Now the server's SYN-ACK is established traffic and passes.
  auto synack = make_packet(tcp_with_flags(
                                kServer, kClient, 443, 50000,
                                proto::kTcpFlagSyn | proto::kTcpFlagAck),
                            uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(synack), Verdict::output(uc::kCtInsidePort));

  // A different outside tuple still drops.
  auto other = make_packet(tcp_with_flags(kServer, kClient, 443, 50999,
                                          proto::kTcpFlagAck),
                           uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(other).kind, Verdict::Kind::kDrop);
}

TEST(CtNat, SnatRewriteAndReverse) {
  uc::CtUseCase c = uc::make_ct_nat(uc::kCtNatDefaultIp);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto syn = make_packet(tcp_with_flags(kClient, kServer, 51000, 443,
                                        proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));

  // Egress packet carries the translated source.
  proto::ParseInfo pi = test::parse_packet(syn);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, syn.data(), pi),
            uc::kCtNatDefaultIp);
  const uint16_t nat_port = static_cast<uint16_t>(
      flow::extract_field(flow::FieldId::kTcpSrc, syn.data(), pi));
  EXPECT_NE(nat_port, 51000);  // allocated from the profile's range
  // Destination untouched.
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, syn.data(), pi), kServer);

  // The reply arrives addressed to the NAT ip/port and must be un-NATed back
  // to the inside client.
  auto rep = make_packet(tcp_with_flags(kServer, uc::kCtNatDefaultIp, 443,
                                        nat_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpDst, rep.data(), rpi), kClient);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpDst, rep.data(), rpi), 51000u);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi), kServer);
}

TEST(CtLb, AffinityAcrossBackendChurn) {
  uc::CtUseCase c = uc::make_ct_lb(4);
  Eswitch sw(cfg_for(c));
  sw.install(c.pipeline);

  auto backend_of = [&](net::Packet& p) {
    proto::ParseInfo pi = test::parse_packet(p);
    return static_cast<uint32_t>(
        flow::extract_field(flow::FieldId::kIpDst, p.data(), pi));
  };

  auto syn = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagSyn),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(syn), Verdict::output(uc::kCtOutsidePort));
  const uint32_t chosen = backend_of(syn);
  EXPECT_GE(chosen, uc::kCtLbBackendBase);
  EXPECT_LT(chosen, uc::kCtLbBackendBase + 4);

  // Follow-up packet of the same connection: same backend (affinity).
  auto ack = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                        uc::kCtLbVipPort, proto::kTcpFlagAck),
                         uc::kCtInsidePort);
  EXPECT_EQ(sw.process(ack), Verdict::output(uc::kCtOutsidePort));
  EXPECT_EQ(backend_of(ack), chosen);

  // Disable the chosen backend: the committed connection keeps its affinity…
  const uint32_t chosen_idx = chosen - uc::kCtLbBackendBase;
  sw.conntrack()->set_backend_enabled(1, chosen_idx, false);
  auto ack2 = make_packet(tcp_with_flags(kClient, uc::kCtLbVip, 52000,
                                         uc::kCtLbVipPort, proto::kTcpFlagAck),
                          uc::kCtInsidePort);
  sw.process(ack2);
  EXPECT_EQ(backend_of(ack2), chosen);

  // …while new connections avoid the disabled backend entirely.
  for (uint32_t i = 0; i < 64; ++i) {
    auto nsyn = make_packet(tcp_with_flags(kClient + 1 + i, uc::kCtLbVip, 53000,
                                           uc::kCtLbVipPort, proto::kTcpFlagSyn),
                            uc::kCtInsidePort);
    ASSERT_EQ(sw.process(nsyn), Verdict::output(uc::kCtOutsidePort));
    EXPECT_NE(backend_of(nsyn), chosen);
  }

  // Backend replies un-NAT back to the VIP.
  Conntrack::Entry* e =
      sw.conntrack()->find({kClient, uc::kCtLbVip, 52000, uc::kCtLbVipPort,
                            proto::kIpProtoTcp});
  ASSERT_NE(e, nullptr);
  auto rep = make_packet(tcp_with_flags(e->reply.src_ip, e->reply.dst_ip,
                                        e->reply.src_port, e->reply.dst_port,
                                        proto::kTcpFlagSyn | proto::kTcpFlagAck),
                         uc::kCtOutsidePort);
  EXPECT_EQ(sw.process(rep), Verdict::output(uc::kCtInsidePort));
  proto::ParseInfo rpi = test::parse_packet(rep);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kIpSrc, rep.data(), rpi),
            uc::kCtLbVip);
  EXPECT_EQ(flow::extract_field(flow::FieldId::kTcpSrc, rep.data(), rpi),
            uc::kCtLbVipPort);
}

// --- JIT vs interpreter parity over the stateful use cases -------------------

void expect_parity(uc::CtUseCase c, size_t n_flows, size_t n_packets,
                   uint64_t seed) {
  Eswitch sw_jit(cfg_for(c, /*jit=*/true));
  Eswitch sw_int(cfg_for(c, /*jit=*/false));
  sw_jit.install(c.pipeline);
  sw_int.install(c.pipeline);

  const auto flows = c.traffic(n_flows, seed);
  ASSERT_FALSE(flows.empty());
  for (size_t i = 0; i < n_packets; ++i) {
    const net::FlowSpec& fs = flows[i % flows.size()];
    auto pa = make_packet(fs.pkt, fs.in_port);
    auto pb = make_packet(fs.pkt, fs.in_port);
    const Verdict va = sw_jit.process(pa);
    const Verdict vb = sw_int.process(pb);
    ASSERT_EQ(va, vb) << "packet " << i;
    ASSERT_EQ(pa.len(), pb.len()) << "packet " << i;
    ASSERT_EQ(std::memcmp(pa.data(), pb.data(), pa.len()), 0)
        << "post-NAT bytes diverge at packet " << i;
  }
  // The two switches also evolved identical connection tables.
  const Conntrack::Stats sa = sw_jit.conntrack()->stats();
  const Conntrack::Stats sb = sw_int.conntrack()->stats();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.live, sb.live);
  EXPECT_EQ(sa.hits, sb.hits);
}

TEST(CtParity, FirewallJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F1, "CtParity.Firewall");
  expect_parity(uc::make_ct_firewall(), 256, 2048, seed);
}

TEST(CtParity, NatJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F2, "CtParity.Nat");
  expect_parity(uc::make_ct_nat(uc::kCtNatDefaultIp), 256, 2048, seed);
}

TEST(CtParity, LbJitVsInterpreter) {
  const uint64_t seed = testing::test_seed(0xC7F3, "CtParity.Lb");
  expect_parity(uc::make_ct_lb(4), 256, 2048, seed);
}

// --- burst vs scalar: commits inside one burst ------------------------------

/// The use case's traffic with, behind every connection-opening packet, a
/// second packet of the same new connection and the reply, so first packets,
/// their repeats and their replies share a burst.  Reply tuples reverse the
/// egress tuple of a scalar probe run (NAT and LB rewrite the forward
/// packet), so each reply belongs to the connection its first packet opened.
std::vector<net::FlowSpec> same_burst_trace(const uc::CtUseCase& c, const CompilerConfig& cfg,
                                            size_t n_flows, uint64_t seed) {
  Eswitch probe(cfg);
  probe.install(c.pipeline);
  std::vector<net::FlowSpec> out;
  for (const net::FlowSpec& fwd : c.traffic(n_flows, seed)) {
    out.push_back(fwd);
    if (fwd.in_port != uc::kCtInsidePort) continue;
    auto p = make_packet(fwd.pkt, fwd.in_port);
    if (probe.process(p).kind != Verdict::Kind::kOutput) continue;
    out.push_back(fwd);
    const proto::ParseInfo pi = test::parse_packet(p);
    const auto field = [&](flow::FieldId f) { return flow::extract_field(f, p.data(), pi); };
    net::FlowSpec rep = fwd;
    rep.in_port = uc::kCtOutsidePort;
    rep.pkt.ip_src = static_cast<uint32_t>(field(flow::FieldId::kIpDst));
    rep.pkt.ip_dst = static_cast<uint32_t>(field(flow::FieldId::kIpSrc));
    rep.pkt.sport = static_cast<uint16_t>(field(flow::FieldId::kTcpDst));
    rep.pkt.dport = static_cast<uint16_t>(field(flow::FieldId::kTcpSrc));
    rep.pkt.tcp_flags = static_cast<uint8_t>(proto::kTcpFlagSyn | proto::kTcpFlagAck);
    out.push_back(rep);
  }
  return out;
}

/// process_burst over full bursts must match n scalar process() calls on a
/// second switch: verdicts, post-NAT bytes, verdict-level stats and the
/// connection table's commits and live count.
void expect_burst_matches_scalar(const uc::CtUseCase& c, size_t n_flows, uint64_t seed) {
  CompilerConfig cfg = cfg_for(c);
  cfg.ct.manual_clock = true;
  const std::vector<net::FlowSpec> trace = same_burst_trace(c, cfg, n_flows, seed);
  Eswitch burst_sw(cfg), scalar_sw(cfg);
  burst_sw.install(c.pipeline);
  scalar_sw.install(c.pipeline);

  std::vector<net::Packet> bufs(net::kBurstSize);
  net::Packet* ptrs[net::kBurstSize];
  Verdict out[net::kBurstSize];
  for (uint32_t b = 0; b < net::kBurstSize; ++b) ptrs[b] = &bufs[b];
  for (size_t i = 0; i < trace.size(); i += net::kBurstSize) {
    const uint32_t n = static_cast<uint32_t>(std::min<size_t>(net::kBurstSize, trace.size() - i));
    for (uint32_t b = 0; b < n; ++b) bufs[b] = make_packet(trace[i + b].pkt, trace[i + b].in_port);
    burst_sw.process_burst(ptrs, n, out);
    for (uint32_t b = 0; b < n; ++b) {
      auto ref = make_packet(trace[i + b].pkt, trace[i + b].in_port);
      ASSERT_EQ(out[b], scalar_sw.process(ref)) << "packet " << i + b;
      ASSERT_EQ(bufs[b].len(), ref.len()) << "packet " << i + b;
      ASSERT_EQ(std::memcmp(bufs[b].data(), ref.data(), ref.len()), 0)
          << "post-NAT bytes diverge at packet " << i + b;
    }
  }
  const core::DataplaneStats da = burst_sw.stats();
  const core::DataplaneStats db = scalar_sw.stats();
  EXPECT_EQ(da.packets, db.packets);
  EXPECT_EQ(da.outputs, db.outputs);
  EXPECT_EQ(da.drops, db.drops);
  EXPECT_EQ(da.to_controller, db.to_controller);
  EXPECT_EQ(da.ct_entries, db.ct_entries);
  EXPECT_EQ(da.ct_commit_drops, db.ct_commit_drops);
  const Conntrack::Stats sa = burst_sw.conntrack()->stats();
  const Conntrack::Stats sb = scalar_sw.conntrack()->stats();
  EXPECT_EQ(sa.commits, sb.commits);
  EXPECT_EQ(sa.live, sb.live);
  EXPECT_EQ(sa.hits, sb.hits);
}

TEST(CtParity, BurstMatchesScalarFirewall) {
  const uint64_t seed = testing::test_seed(0xC7B1, "CtParity.BurstFirewall");
  expect_burst_matches_scalar(uc::make_ct_firewall(), 256, seed);
}

TEST(CtParity, BurstMatchesScalarNat) {
  const uint64_t seed = testing::test_seed(0xC7B2, "CtParity.BurstNat");
  expect_burst_matches_scalar(uc::make_ct_nat(uc::kCtNatDefaultIp), 256, seed);
}

TEST(CtParity, BurstMatchesScalarLb) {
  const uint64_t seed = testing::test_seed(0xC7B3, "CtParity.BurstLb");
  expect_burst_matches_scalar(uc::make_ct_lb(4), 256, seed);
}

// --- concurrent churn --------------------------------------------------------

// Workers hammer a small table with short-timeout flows while expiry,
// eviction and epoch reclamation run underneath.  The assertions are the
// conservation laws; TSan owns the data-race half of this test.
TEST(CtConcurrency, ChurnConservation) {
  const uint64_t seed = testing::test_seed(0xC7C0, "CtConcurrency.Churn");
  const int scale = [] {
    const char* s = std::getenv("ESW_CONC_SCALE");
    return s != nullptr ? std::max(1, std::atoi(s)) : 4;
  }();

  uc::CtUseCase c = uc::make_ct_firewall(/*capacity=*/512);
  c.ct.auto_commit = true;         // every miss inserts: maximal churn
  c.ct.udp_timeout_ms = 1;         // immediate expiry pressure
  c.ct.tcp_syn_timeout_ms = 1;
  c.ct.tcp_est_timeout_ms = 1;
  CompilerConfig cfg = cfg_for(c);
  Eswitch sw(cfg);
  sw.install(c.pipeline);

  constexpr int kWorkers = 3;
  const int bursts = 200 * scale;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    Eswitch::Worker* ctx = sw.register_worker();
    ASSERT_NE(ctx, nullptr);
    threads.emplace_back([&, ctx, w] {
      Rng rng(seed ^ (w * 0x9E3779B97F4A7C15ULL));
      const auto flows = c.traffic(2048, seed + w);
      std::vector<net::Packet> storage(net::kBurstSize);
      net::Packet* pkts[net::kBurstSize];
      flow::Verdict verdicts[net::kBurstSize];
      for (int b = 0; b < bursts; ++b) {
        for (uint32_t i = 0; i < net::kBurstSize; ++i) {
          const net::FlowSpec& fs = flows[rng.below(flows.size())];
          storage[i] = make_packet(fs.pkt, fs.in_port);
          pkts[i] = &storage[i];
        }
        sw.process_burst(*ctx, pkts, net::kBurstSize, verdicts);
      }
    });
  }
  for (auto& t : threads) t.join();

  Conntrack& ct = *sw.conntrack();
  ct.flush_reclaim();
  const Conntrack::Stats s = ct.stats();
  EXPECT_GT(s.commits, 0u);
  // Conservation: every committed entry is live, expired or evicted; every
  // retirement is pending or reclaimed.
  EXPECT_EQ(s.commits, s.live + s.expired + s.evictions_forced);
  EXPECT_EQ(s.retired_total, s.retire_pending + s.reclaimed_total);
  EXPECT_LE(s.live, 512u);
}

}  // namespace
}  // namespace esw
