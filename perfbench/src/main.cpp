// perfbench — the switch benchmark.  Drives the library only through its
// public calls: uc::make_* builds the workload, Eswitch::install compiles it,
// core::SwitchRuntime runs it with a per-worker source hook, and l2_churn's
// rules arrive over uc::OfController -> uc::OfAgent -> apply_batch_partial.
//
//   perfbench --workload gateway|l2_churn --seed N --seconds S --trace 0|1
//             [--fault none|verdict|withhold] [--out DIR] [--git-sha X] [--src-hash X]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same legs with
// spans recorded, times each layer's public call in isolation, writes the span
// dump and a per-layer summary under --out, and prints the per-layer metrics.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero when any correctness check failed.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/tsc.hpp"
#include "core/template_kind.hpp"
#include "harness.hpp"
#include "proto/parse.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up is repeated this many times per run and reported as the median.
constexpr int kSetups = 16;
// Bursts timed per layer in the traced run's isolated pass.
constexpr uint32_t kLayerBursts = 4096;
// The seed later gain claims must also hold on (never used while tuning).
constexpr uint64_t kHoldoutSeed = 7919;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Fault fault = Fault::kNone;
  std::string out = ".";
  std::string git_sha = "unknown";
  std::string src_hash = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--fault") {
      if (v == "verdict") a->fault = Fault::kVerdict;
      else if (v == "withhold") a->fault = Fault::kWithhold;
      else if (v != "none") return false;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--src-hash") {
      a->src_hash = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Metrics in print order, with their units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = order_.size();
      order_.push_back({name, unit, value});
    } else {
      order_[index_[name]].value = value;
    }
  }
  void print_lines() const {
    for (const Item& m : order_)
      std::printf("metric %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json() const {
    std::string s = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
      const Item& m = order_[i];
      s += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Item> order_;
  std::map<std::string, size_t> index_;
};

/// Failures and attempts over the whole run.
struct Tally {
  uint64_t pkt_attempted = 0;
  uint64_t pkt_failed = 0;
  uint64_t mods_sent = 0;
  uint64_t mod_failed = 0;
  uint64_t gate_failed = 0;
  std::vector<std::string> notes;

  void add(const std::string& leg, const LegResult& r) {
    pkt_attempted += r.attempted;
    pkt_failed += r.failed;
    for (const std::string& b : r.breaches) notes.push_back(leg + ": " + b);
  }
  uint64_t failed() const { return pkt_failed + mod_failed + gate_failed; }
};

std::vector<double> window_values(const LegResult& r, double Window::*field) {
  std::vector<double> v;
  for (const Window& w : r.windows) v.push_back(w.*field);
  return v;
}

struct StageTiming {
  uint8_t table = 0;
  esw::core::TableTemplate tmpl = esw::core::TableTemplate::kLinkedList;
  int32_t slot = -1;
  uint32_t span_name = 0;
  std::vector<double> ns;  // per lookup, one value per burst
  double visits = 0;       // lookups per packet on the live datapath
};

struct LayerTiming {
  std::vector<double> burst_ns, parse_ns;
  std::vector<StageTiming> stages;
};

volatile uint64_t g_sink = 0;

/// Times each layer's public call on the workload's frames, owner context,
/// with the workers stopped: Eswitch::process_burst, proto::parse and every
/// stage's CompiledTable::lookup.  One span tree per burst, all sharing the
/// burst's id.
LayerTiming time_layers(esw::core::Eswitch& sw, const Workload& wl, std::vector<StageTiming> stages,
                        SpanNames& names, SpanBuffer& sb) {
  LayerTiming lt;
  lt.stages = std::move(stages);
  const uint32_t n_root = names.intern("bench.layers");
  const uint32_t n_burst = names.intern("core.burst");
  const uint32_t n_parse = names.intern("proto.parse");
  const double ghz = esw::tsc_ghz();
  constexpr uint32_t B = esw::net::kBurstSize;
  std::vector<std::unique_ptr<esw::net::Packet>> pk(B);
  esw::net::Packet* ptrs[B];
  for (uint32_t i = 0; i < B; ++i) {
    pk[i] = std::make_unique<esw::net::Packet>();
    ptrs[i] = pk[i].get();
  }
  esw::flow::Verdict verdicts[B];
  esw::proto::ParseInfo pis[B];
  size_t cursors[kWorkers] = {};
  const esw::proto::ParserPlan plan = sw.datapath().plan();
  uint64_t sink = 0;
  for (uint32_t b = 0; b < kLayerBursts; ++b) {
    const Shard& s = wl.shards[b % kWorkers];
    size_t& cur = cursors[b % kWorkers];
    const size_t first = cur;
    const auto load = [&] {
      cur = first;
      for (uint32_t i = 0; i < B; ++i) s.frames.load_next(cur, *ptrs[i]);
    };
    load();
    const uint64_t t0 = esw::rdtsc();
    sw.process_burst(ptrs, B, verdicts);
    const uint64_t t1 = esw::rdtsc();
    load();
    const uint64_t t2 = esw::rdtsc();
    for (uint32_t i = 0; i < B; ++i) {
      esw::proto::parse(ptrs[i]->data(), ptrs[i]->len(), plan, pis[i]);
      pis[i].in_port = ptrs[i]->in_port();
    }
    const uint64_t t3 = esw::rdtsc();
    std::vector<std::pair<uint64_t, uint64_t>> st(lt.stages.size());
    for (size_t k = 0; k < lt.stages.size(); ++k) {
      const esw::core::CompiledTable* impl = sw.datapath().impl(lt.stages[k].slot);
      st[k].first = esw::rdtsc();
      for (uint32_t i = 0; i < B; ++i) sink += impl->lookup(ptrs[i]->data(), pis[i]);
      st[k].second = esw::rdtsc();
    }
    const uint64_t tend = esw::rdtsc();
    const auto per_pkt = [&](uint64_t a, uint64_t z) {
      return static_cast<double>(z - a) / ghz / B;
    };
    lt.burst_ns.push_back(per_pkt(t0, t1));
    lt.parse_ns.push_back(per_pkt(t2, t3));
    const uint32_t root = sb.add(n_root, b, t0, tend, B);
    sb.set_parent(sb.add(n_burst, b, t0, t1, B), root);
    sb.set_parent(sb.add(n_parse, b, t2, t3, B), root);
    for (size_t k = 0; k < lt.stages.size(); ++k) {
      lt.stages[k].ns.push_back(per_pkt(st[k].first, st[k].second));
      sb.set_parent(sb.add(lt.stages[k].span_name, b, st[k].first, st[k].second, B), root);
    }
  }
  g_sink = sink;
  return lt;
}

/// Per span name: count, median and p99 duration, median self time (the
/// span's duration minus what its child spans cover).
struct SpanStat {
  std::vector<double> dur_ns, self_ns;
};

std::map<std::string, SpanStat> span_stats(const std::vector<const SpanBuffer*>& bufs,
                                           const SpanNames& names) {
  std::map<std::string, SpanStat> out;
  const double ghz = esw::tsc_ghz();
  for (const SpanBuffer* sb : bufs) {
    const std::vector<Span>& sp = sb->spans();
    std::vector<double> child(sp.size(), 0);
    for (const Span& s : sp)
      if (s.parent != Span::kNoParent) child[s.parent] += static_cast<double>(s.t1 - s.t0) / ghz;
    for (size_t i = 0; i < sp.size(); ++i) {
      const double d = static_cast<double>(sp[i].t1 - sp[i].t0) / ghz;
      SpanStat& st = out[names.at(sp[i].name)];
      st.dur_ns.push_back(d);
      st.self_ns.push_back(d - child[i]);
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<std::pair<std::string, const SpanBuffer*>>& bufs,
                 const SpanNames& names, uint64_t t_origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const double ghz = esw::tsc_ghz();
  for (const auto& [thread, sb] : bufs)
    for (const Span& s : sb->spans())
      std::fprintf(f,
                   "{\"thread\": \"%s\", \"name\": \"%s\", \"id\": %" PRIu64
                   ", \"parent\": %lld, \"start_ns\": %.1f, \"end_ns\": %.1f, \"n\": %u}\n",
                   thread.c_str(), names.at(s.name).c_str(), s.id,
                   s.parent == Span::kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<double>(s.t0 - std::min(s.t0, t_origin)) / ghz,
                   static_cast<double>(s.t1 - std::min(s.t1, t_origin)) / ghz, s.n);
  std::fclose(f);
}

const char* kTemplates[] = {"direct-code", "compound-hash", "cuckoo-hash",
                            "lpm",         "range",         "linked-list"};

int run(const Args& a) {
  pin_current_thread(kControlSlot);
  const uint64_t t_origin = esw::rdtsc();
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);
  std::optional<Workload> wlo = make_workload(a.workload, a.seed);
  if (!wlo) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Workload& wl = *wlo;
  std::printf("# workload built at %.2f s\n", static_cast<double>(esw::rdtsc() - t_origin) / tsc_hz());
  std::printf(
      "# context tsc_ghz=%.6f nproc=%ld cpu=\"%s\" build=%s git=%s src=%s seed=%" PRIu64
      " holdout_seed=%" PRIu64 " workers=%u lo_load=%.2f hi_load=%.2f churn_mods_per_s=%.0f"
      " churn_batch=%u\n",
      esw::tsc_ghz(), sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
      a.git_sha.c_str(), a.src_hash.c_str(), a.seed, kHoldoutSeed, kWorkers, kLoLoad, kHiLoad,
      wl.churn ? kChurnModsPerSec : 0.0, wl.churn ? kChurnBatch : 0);
  std::printf("# inputs frames=%zu+%zu fnv=%016" PRIx64 "\n", wl.shards[0].frames.size(),
              wl.shards[1].frames.size(), wl.input_hash);

  Tally tally;
  std::string gate_detail;
  tally.gate_failed = run_gate(wl, a.fault, &gate_detail);
  if (tally.gate_failed > 0) tally.notes.push_back("gate: " + gate_detail);
  std::printf("# gate %s (fused/staged/interp/ovs) at %.2f s\n",
              tally.gate_failed == 0 ? "pass" : "FAIL",
              static_cast<double>(esw::rdtsc() - t_origin) / tsc_hz());

  SpanNames names;
  SpanIds ids;
  ids.source = names.intern("netio.source");
  ids.load = names.intern("netio.load");
  ids.rx_wait = names.intern("netio.rx_wait");
  ids.batch = names.intern("control.batch");
  ids.send = names.intern("control.send");
  ids.agent_poll = names.intern("usecases.agent_poll");
  ids.apply_batch = names.intern("core.apply_batch");

  Harness::Options hopts;
  hopts.fault = a.fault;
  hopts.seed = a.seed;
  // Each run builds kSetups switches one after another (memory placement
  // and thread start vary per switch).  Untraced runs split the legs over
  // all of them and pool the windows; the traced run measures the last one.
  std::vector<double> setup_s, install_s;
  double mem_mb = 0;
  const double S = a.seconds;
  LegSpec warm;
  warm.seconds = 0.3;
  warm.check = false;
  warm.min_passes = 1.2;
  LegSpec sat;
  LegSpec lo;
  lo.mode = LegSpec::Mode::kOpen;
  LegSpec hi = lo;
  // The open-loop rates follow the switch's own saturated rate.
  std::vector<double> lo_pps, hi_pps;
  const auto set_rates = [&](const LegResult& saturated) {
    const double sat_pps = median(window_values(saturated, &Window::pps));
    lo.offered_pps = kLoLoad * sat_pps;
    hi.offered_pps = kHiLoad * sat_pps;
    lo_pps.push_back(lo.offered_pps);
    hi_pps.push_back(hi.offered_pps);
  };
  sat.seconds = 0.4 * S / kSetups;
  lo.seconds = hi.seconds = 0.3 * S / kSetups;

  LegResult r_sat, r_lo, r_hi, r_base;  // pooled windows (untraced) / last switch (traced)
  std::vector<double> mod_lat_us, poll_us, apply_us;
  uint64_t epoch_pending_max = 0;
  bool churn = false;
  const auto absorb_churn = [&](ChurnControl& cc) {
    churn = true;
    tally.mods_sent += cc.mods_sent;
    tally.mod_failed += cc.of_errors + cc.missing_barriers;
    if (cc.of_errors > 0)
      tally.notes.push_back("control: " + std::to_string(cc.of_errors) + " OpenFlow errors");
    if (cc.missing_barriers > 0)
      tally.notes.push_back("control: " + std::to_string(cc.missing_barriers) +
                            " BARRIER replies missing");
    std::string why;
    if (!cc.verify_table(static_cast<uint32_t>(wl.pipeline.find_table(0)->size()), &why)) {
      ++tally.mod_failed;
      tally.notes.push_back("control: " + why);
    }
    mod_lat_us.insert(mod_lat_us.end(), cc.mod_lat_us.begin(), cc.mod_lat_us.end());
    poll_us.insert(poll_us.end(), cc.poll_us.begin(), cc.poll_us.end());
    apply_us.insert(apply_us.end(), cc.apply_us.begin(), cc.apply_us.end());
    epoch_pending_max = std::max(epoch_pending_max, cc.epoch_pending_max);
  };
  // Pooled legs keep the windows and the counters the metrics read.
  const auto pool = [](LegResult& into, const LegResult& r) {
    into.windows.insert(into.windows.end(), r.windows.begin(), r.windows.end());
    into.attempted += r.attempted;
    into.delta.polls += r.delta.polls;
    into.delta.processed += r.delta.processed;
  };

  std::unique_ptr<Harness> h;
  for (int i = 0; i < kSetups; ++i) {
    h.reset();
    h = std::make_unique<Harness>(wl, hopts, ids);
    setup_s.push_back(h->setup_s());
    install_s.push_back(h->install_s());
    if (i == 0) mem_mb = h->switch_mem_mb();
    if (a.trace) continue;
    tally.add("warm-up", h->run_leg(warm));
    const LegResult rs = h->run_leg(sat);
    set_rates(rs);
    const LegResult rl = h->run_leg(lo);
    const LegResult rh = h->run_leg(hi);
    tally.add("saturated", rs);
    tally.add("lo", rl);
    tally.add("hi", rh);
    pool(r_sat, rs);
    pool(r_lo, rl);
    pool(r_hi, rh);
    const auto lat = [](const LegResult& r) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.4g/%.4g/%.4g", median(window_values(r, &Window::lat_p50_us)),
                    median(window_values(r, &Window::lat_p90_us)),
                    median(window_values(r, &Window::lat_p99_us)));
      return std::string(buf);
    };
    std::printf("# switch %d at %.2f s: mem_mb=%.2f setup_s=%.4f install_s=%.4f pps=%.4g"
                " cycles_per_pkt=%.4g lo_p50/p90/p99_us=%s hi_p50/p90/p99_us=%s"
                " drain_busy=%.2f/%.2f/%.2f window_full=%" PRIu64 "/%" PRIu64 "/%" PRIu64 "\n",
                i, static_cast<double>(esw::rdtsc() - t_origin) / tsc_hz(), h->switch_mem_mb(),
                h->setup_s(), h->install_s(), median(window_values(rs, &Window::pps)),
                median(window_values(rs, &Window::cycles_per_pkt)), lat(rl).c_str(),
                lat(rh).c_str(), rs.drain_busy_frac,
                rl.drain_busy_frac, rh.drain_busy_frac, rs.window_full, rl.window_full,
                rh.window_full);
    if (h->churn() != nullptr) absorb_churn(*h->churn());
  }
  esw::core::Eswitch& sw = h->sw();

  Metrics m;
  const auto& tables = sw.pipeline().tables();
  std::map<int32_t, uint64_t> lookups0;
  const auto update0 = sw.update_stats();
  const auto reclaim0 = sw.reclaim_stats();
  if (a.trace) {
    tally.add("warm-up", h->run_leg(warm));
    for (const esw::flow::FlowTable& t : tables) {
      const int32_t slot = sw.root_slot(t.id());
      if (slot >= 0) lookups0[slot] = sw.datapath().table_stats(slot).lookups;
    }
    // Untraced and traced saturated legs alternate (A/B/A/B/A/B) so the
    // overhead ratio compares like with like.
    LegSpec traced_sat = sat;
    traced_sat.traced = lo.traced = hi.traced = true;
    sat.seconds = traced_sat.seconds = 0.1 * S;
    lo.seconds = hi.seconds = 0.2 * S;
    for (int k = 0; k < 3; ++k) {
      const LegResult rb = h->run_leg(sat);
      const LegResult rs = h->run_leg(traced_sat);
      tally.add("untraced-saturated", rb);
      tally.add("saturated", rs);
      pool(r_base, rb);
      pool(r_sat, rs);
    }
    set_rates(r_base);
    r_lo = h->run_leg(lo);
    r_hi = h->run_leg(hi);
    tally.add("lo", r_lo);
    tally.add("hi", r_hi);
    if (h->churn() != nullptr) absorb_churn(*h->churn());
  }

  const double fail_frac = tally.pkt_attempted > 0
                               ? static_cast<double>(tally.pkt_failed + tally.gate_failed) /
                                     static_cast<double>(tally.pkt_attempted)
                               : 0;
  const double mod_fail_frac =
      tally.mods_sent > 0
          ? static_cast<double>(tally.mod_failed) / static_cast<double>(tally.mods_sent)
          : 0;
  const double mod_p50 = quantile(mod_lat_us, 0.5);
  const double mod_p99 = quantile(mod_lat_us, 0.99);

  if (!a.trace) {
    m.set("pps", median(window_values(r_sat, &Window::pps)), "pkt/s");
    m.set("cycles_per_pkt", median(window_values(r_sat, &Window::cycles_per_pkt)), "cycles");
    m.set("lat_lo_p50_us", median(window_values(r_lo, &Window::lat_p50_us)), "us");
    m.set("lat_hi_p50_us", median(window_values(r_hi, &Window::lat_p50_us)), "us");
    m.set("setup_s", median(setup_s), "s");
    m.set("switch_mem_mb", mem_mb, "MiB");
    uint64_t lo_n = 0, hi_n = 0;
    for (const Window& w : r_lo.windows) lo_n += w.lat_samples;
    for (const Window& w : r_hi.windows) hi_n += w.lat_samples;
    std::printf("# samples saturated_windows=%zu lo_latency=%" PRIu64 " (%zu windows)"
                " hi_latency=%" PRIu64 " (%zu windows) setups=%d\n",
                r_sat.windows.size(), lo_n, r_lo.windows.size(), hi_n, r_hi.windows.size(),
                kSetups);
    std::printf("# offered lo_pps=%.4g..%.4g hi_pps=%.4g..%.4g (median %.4g / %.4g)\n",
                quantile(lo_pps, 0), quantile(lo_pps, 1), quantile(hi_pps, 0),
                quantile(hi_pps, 1), median(lo_pps), median(hi_pps));
    // Reported, not gated: a host that takes a few percent of the CPUs in
    // millisecond slices moves every window's tail (README, "Tails").
    std::printf("# tail lat_lo_p90_us=%.4f lat_lo_p99_us=%.4f lat_hi_p90_us=%.4f"
                " lat_hi_p99_us=%.4f\n",
                median(window_values(r_lo, &Window::lat_p90_us)),
                median(window_values(r_lo, &Window::lat_p99_us)),
                median(window_values(r_hi, &Window::lat_p90_us)),
                median(window_values(r_hi, &Window::lat_p99_us)));
    std::printf("# correctness fail_frac=%.9f (%" PRIu64 " of %" PRIu64 " packets)",
                fail_frac, tally.pkt_failed + tally.gate_failed, tally.pkt_attempted);
    if (churn)
      std::printf(" mod_fail_frac=%.9f (%" PRIu64 " of %" PRIu64 " mods) mod_p50_us=%.3f"
                  " mod_p99_us=%.3f (%zu batches)",
                  mod_fail_frac, tally.mod_failed, tally.mods_sent, mod_p50, mod_p99,
                  mod_lat_us.size());
    std::printf("\n");
  } else {
    // Per-layer metrics from the traced legs and the isolated layer pass.
    std::vector<StageTiming> stages;
    // Table lookups are counted over every leg after the warm-up.
    const uint64_t processed = r_base.delta.processed + r_sat.delta.processed +
                               r_lo.delta.processed + r_hi.delta.processed;
    for (const esw::flow::FlowTable& t : tables) {
      StageTiming st;
      st.table = t.id();
      st.slot = sw.root_slot(t.id());
      if (st.slot < 0 || sw.datapath().impl(st.slot) == nullptr) continue;
      st.tmpl = sw.datapath().impl(st.slot)->kind();
      st.span_name = names.intern("stage." + std::to_string(t.id()) + "." +
                                  esw::core::to_string(st.tmpl) + ".lookup");
      const uint64_t l1 = sw.datapath().table_stats(st.slot).lookups;
      st.visits = processed > 0 ? static_cast<double>(l1 - lookups0[st.slot]) /
                                      static_cast<double>(processed)
                                : 0;
      stages.push_back(std::move(st));
    }
    SpanBuffer main_spans(size_t{1} << 18);  // ~17 spans per isolated burst
    const LayerTiming lt = time_layers(sw, wl, std::move(stages), names, main_spans);

    const double burst_ns = median(lt.burst_ns);
    const double parse_ns = median(lt.parse_ns);
    double covered = parse_ns;
    std::map<std::string, std::pair<double, double>> by_tmpl;  // visits, visits*ns
    for (const StageTiming& st : lt.stages) {
      const double ns = median(st.ns);
      covered += st.visits * ns;
      auto& agg = by_tmpl[esw::core::to_string(st.tmpl)];
      agg.first += st.visits;
      agg.second += st.visits * ns;
      std::printf("# stage table=%u template=%s stage.%u.%s.lookup_ns=%.3f"
                  " stage.%u.%s.pkt_frac=%.4f\n",
                  st.table, esw::core::to_string(st.tmpl), st.table,
                  esw::core::to_string(st.tmpl), ns, st.table, esw::core::to_string(st.tmpl),
                  st.visits);
    }
    std::map<std::string, SpanStat> ss =
        span_stats({&h->worker_spans()[0], &h->worker_spans()[1], &h->control_spans(),
                    &main_spans},
                   names);
    // netio.load spans cover a burst; normalize per packet.
    std::vector<double> load_per_pkt;
    const uint32_t load_id = ids.load;
    for (const SpanBuffer& sb : h->worker_spans())
      for (const Span& s : sb.spans())
        if (s.name == load_id && s.n > 0)
          load_per_pkt.push_back(static_cast<double>(s.t1 - s.t0) / esw::tsc_ghz() / s.n);
    const double load_ns = median(load_per_pkt);
    const double base_pps = median(window_values(r_base, &Window::pps));
    const double traced_pps = median(window_values(r_sat, &Window::pps));
    const double e2e_ns = base_pps > 0 ? 1e9 * kWorkers / base_pps : 0;
    esw::perf::LatencyHistogram rxw = r_lo.rx_wait;
    rxw.merge(r_hi.rx_wait);
    const auto fill = [](const LegResult& r) {
      return r.delta.polls > 0
                 ? static_cast<double>(r.delta.processed) / static_cast<double>(r.delta.polls)
                 : 0;
    };
    const auto update1 = sw.update_stats();
    const auto reclaim1 = sw.reclaim_stats();

    m.set("netio.load_ns", load_ns, "ns");
    m.set("netio.rx_wait_us_p99",
          static_cast<double>(rxw.value_at_percentile(99)) / tsc_hz() * 1e6, "us");
    m.set("proto.parse_ns", parse_ns, "ns");
    m.set("core.burst_ns", burst_ns, "ns");
    for (const char* t : kTemplates) {
      const auto it = by_tmpl.find(t);
      const double visits = it == by_tmpl.end() ? 0 : it->second.first;
      m.set(std::string("stage.") + t + ".lookup_ns",
            visits > 0 ? it->second.second / visits : 0, "ns");
      m.set(std::string("stage.") + t + ".lookups_per_pkt", visits, "count");
    }
    m.set("core.burst_coverage", burst_ns > 0 ? covered / burst_ns : 0, "ratio");
    m.set("runtime.residual_ns", e2e_ns - burst_ns - load_ns, "ns");
    m.set("runtime.burst_fill", fill(r_base), "pkt/poll");
    m.set("runtime.burst_fill_hi", fill(r_hi), "pkt/poll");
    m.set("jit.fused", sw.fused_active() ? 1 : 0, "flag");
    m.set("usecases.agent_poll_us", median(poll_us), "us");
    m.set("core.apply_batch_us", median(apply_us), "us");
    m.set("core.update_incremental",
          static_cast<double>(update1.incremental - update0.incremental), "count");
    m.set("core.update_cow_swaps", static_cast<double>(update1.cow_swaps - update0.cow_swaps),
          "count");
    m.set("core.update_rebuilds",
          static_cast<double>(update1.table_rebuilds - update0.table_rebuilds), "count");
    m.set("core.update_reselections",
          static_cast<double>(update1.template_reselections - update0.template_reselections),
          "count");
    m.set("core.update_fusion_republishes",
          static_cast<double>(update1.fusion_republishes - update0.fusion_republishes), "count");
    m.set("common.epoch_pending_max",
          churn ? static_cast<double>(epoch_pending_max) : static_cast<double>(reclaim1.pending),
          "count");
    m.set("common.epoch_reclaimed", static_cast<double>(reclaim1.reclaimed - reclaim0.reclaimed),
          "count");
    m.set("core.install_s", median(install_s), "s");
    m.set("cls.memory_mb",
          static_cast<double>(sw.datapath().memory_bytes()) / (1024.0 * 1024.0), "MiB");
    m.set("trace.overhead_frac", base_pps > 0 ? traced_pps / base_pps : 0, "ratio");
    m.set("mod_p50_us", mod_p50, "us");
    m.set("mod_p99_us", mod_p99, "us");
    m.set("mod_fail_frac", mod_fail_frac, "ratio");
    m.set("fail_frac", fail_frac, "ratio");

    // Span dump and per-layer summary.
    const std::string tag = a.workload + "-seed" + std::to_string(a.seed);
    const std::string spans_path = a.out + "/spans-" + tag + ".jsonl";
    const std::string summary_path = a.out + "/layers-" + tag + ".json";
    write_spans(spans_path,
                {{"worker0", &h->worker_spans()[0]},
                 {"worker1", &h->worker_spans()[1]},
                 {"control", &h->control_spans()},
                 {"main", &main_spans}},
                names, t_origin);
    if (std::FILE* f = std::fopen(summary_path.c_str(), "w")) {
      std::fprintf(f, "{\n  \"workload\": \"%s\", \"seed\": %" PRIu64 ", \"tsc_ghz\": %.6f,"
                   " \"git\": \"%s\", \"src\": \"%s\", \"build\": \"%s\",\n",
                   a.workload.c_str(), a.seed, esw::tsc_ghz(), json_escape(a.git_sha).c_str(),
                   json_escape(a.src_hash).c_str(), PERFBENCH_BUILD_TYPE);
      std::fprintf(f, "  \"metrics\": %s,\n  \"stages\": [", m.json().c_str());
      for (size_t k = 0; k < lt.stages.size(); ++k) {
        const StageTiming& st = lt.stages[k];
        std::fprintf(f, "%s\n    {\"table\": %u, \"template\": \"%s\", \"lookup_ns\": %.3f,"
                     " \"pkt_frac\": %.6f}",
                     k ? "," : "", st.table, esw::core::to_string(st.tmpl), median(st.ns),
                     st.visits);
      }
      std::fprintf(f, "\n  ],\n  \"spans\": {");
      bool first = true;
      for (const auto& [name, st] : ss) {
        std::fprintf(f, "%s\n    \"%s\": {\"count\": %zu, \"median_ns\": %.1f, \"p99_ns\": %.1f,"
                     " \"self_median_ns\": %.1f, \"self_p99_ns\": %.1f}",
                     first ? "" : ",", name.c_str(), st.dur_ns.size(), median(st.dur_ns),
                     quantile(st.dur_ns, 0.99), median(st.self_ns), quantile(st.self_ns, 0.99));
        first = false;
      }
      uint64_t dropped = main_spans.dropped() + h->control_spans().dropped();
      for (const SpanBuffer& sb : h->worker_spans()) dropped += sb.dropped();
      std::fprintf(f, "\n  },\n  \"spans_dropped\": %" PRIu64 "\n}\n", dropped);
      std::fclose(f);
    }
    std::printf("# trace spans=%s summary=%s\n", spans_path.c_str(), summary_path.c_str());
    for (const auto& [name, st] : ss)
      std::printf("# span %-34s n=%-7zu median_ns=%-10.1f p99_ns=%-10.1f self_median_ns=%.1f\n",
                  name.c_str(), st.dur_ns.size(), median(st.dur_ns), quantile(st.dur_ns, 0.99),
                  median(st.self_ns));
  }

  for (const std::string& n : tally.notes) std::printf("# FAIL %s\n", n.c_str());
  m.print_lines();
  const bool correct = tally.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", tally.pkt_attempted + tally.mods_sent, tally.failed(),
              m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--fault none|verdict|withhold] [--out DIR] [--git-sha X] [--src-hash X]\n");
    return 2;
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
