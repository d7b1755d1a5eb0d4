#include "harness.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "common/check.hpp"
#include "common/tsc.hpp"

namespace perfbench {

using esw::flow::Verdict;
using esw::net::Packet;

namespace {

// Closed loop: a worker's source stops loading while this many of its frames
// are still queued in RX or waiting in TX — a window of outstanding requests.
constexpr uint64_t kClosedWindow = 4096;
// Open loop: frames that fall due while this many of a worker's frames are
// outstanding wait in the generator (still timed from their due time) rather
// than in a buffer, so a drain thread that loses its CPU for tens of
// milliseconds cannot run the pool dry.  Both workers' windows together fit
// in any one ring.  In steady state a few dozen frames are outstanding.
constexpr uint64_t kOpenWindow = 8192;
// Traced runs record the source hook's spans on one call in this many.
constexpr uint64_t kTraceEvery = 256;
// Port rings and buffer pool: each holds both workers' windows of
// outstanding frames, so neither can refuse a frame while the windows hold.
constexpr uint32_t kRingSize = 16384;
constexpr uint32_t kPoolCapacity = 65536;

constexpr uint64_t kChurnOui = 0x04'00'00'00'00'00ULL;  // make_l2 uses 0x02...
constexpr uint64_t kL2Oui = 0x02'00'00'00'00'00ULL;

Runtime::Config runtime_config(const Workload& wl) {
  Runtime::Config c;
  c.n_workers = kWorkers;
  c.n_ports = wl.n_ports;
  c.port.ring_size = kRingSize;
  c.pool_capacity = kPoolCapacity;
  c.worker_cache = 256;
  c.sink_tx = false;
  return c;
}

Runtime::Counters minus(const Runtime::Counters& a, const Runtime::Counters& b) {
  Runtime::Counters d;
  d.polls = a.polls - b.polls;
  d.processed = a.processed - b.processed;
  d.source_packets = a.source_packets - b.source_packets;
  d.tx_packets = a.tx_packets - b.tx_packets;
  d.flood_copies = a.flood_copies - b.flood_copies;
  d.drops = a.drops - b.drops;
  d.packet_ins = a.packet_ins - b.packet_ins;
  d.tx_rejected = a.tx_rejected - b.tx_rejected;
  d.bad_port = a.bad_port - b.bad_port;
  d.pool_exhausted = a.pool_exhausted - b.pool_exhausted;
  d.backpressure_events = a.backpressure_events - b.backpressure_events;
  return d;
}

void read_stamp(const Packet& p, uint32_t* tag, uint32_t* due) {
  const uint8_t* tail = p.data() + p.len() - kStampBytes;
  std::memcpy(tag, tail, 4);
  std::memcpy(due, tail + 4, 4);
}

/// Sleeps most of the way to `target` (TSC), then spins the rest, so paced
/// sends are not late by the scheduler's wake-up slack.
void wait_until(uint64_t target) {
  const double hz = tsc_hz();
  for (;;) {
    const uint64_t now = esw::rdtsc();
    if (now >= target) return;
    const double left_us = static_cast<double>(target - now) / hz * 1e6;
    if (left_us > 300)
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(left_us - 200)));
    else
      __builtin_ia32_pause();
  }
}

uint64_t tsc_after(uint64_t from, double seconds) {
  return from + static_cast<uint64_t>(seconds * tsc_hz());
}

}  // namespace

double tsc_hz() { return esw::tsc_ghz() * 1e9; }

void pin_current_thread(uint32_t slot) {
  // The CPUs this process may use, read once, before any thread is pinned
  // (threads inherit their creator's mask).
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  if (cpus.size() < kThreads) return;  // fewer CPUs than threads: let the OS place them
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot % kThreads], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

uint64_t rss_bytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<uint64_t>(resident) * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// --- control plane ----------------------------------------------------------

ChurnControl::ChurnControl(esw::core::Eswitch& sw, uint64_t seed, SpanIds ids)
    : sw_(sw), ids_(ids), key_base_((seed * 0x9E3779B97F4A7C15ULL) >> 40) {
  esw::uc::OfAgent::Callbacks cbs = esw::uc::make_dataplane_callbacks(sw_);
  auto inner = cbs.on_flow_mod_batch;
  ESW_CHECK_MSG(inner != nullptr, "Eswitch lost its batch ingestion path");
  cbs.on_flow_mod_batch = [this, inner](const std::vector<esw::flow::FlowMod>& fms) {
    const uint64_t t0 = esw::rdtsc();
    std::vector<esw::core::ModStatus> st = inner(fms);
    const uint64_t t1 = esw::rdtsc();
    apply_us.push_back(static_cast<double>(t1 - t0) / tsc_hz() * 1e6);
    if (spans_ != nullptr)
      last_apply_span_ = spans_->add(ids_.apply_batch, batch_id_, t0, t1,
                                     static_cast<uint32_t>(fms.size()));
    return st;
  };
  agent_ = std::make_unique<esw::uc::OfAgent>(std::move(cbs));
  ctrl_ = std::make_unique<esw::uc::OfController>(agent_->controller_fd());
  esw::uc::run_handshake(*agent_, *ctrl_);
  period_ = static_cast<double>(kChurnBatch) / kChurnModsPerSec * tsc_hz();

  // Priming batch (adds only), so every timed batch carries 8 deletes + 8 adds.
  restart_schedule(esw::rdtsc());
  send_batch(nullptr);
  mods_sent = 0;
  mod_lat_us.clear();
  poll_us.clear();
  apply_us.clear();
}

void ChurnControl::restart_schedule(uint64_t now) { next_due_ = static_cast<double>(now); }

std::vector<esw::flow::FlowMod> ChurnControl::next_batch() {
  std::vector<esw::flow::FlowMod> batch;
  const auto mod_for = [](uint64_t key, esw::flow::FlowMod::Cmd cmd) {
    esw::flow::FlowMod fm;
    fm.command = cmd;
    fm.table_id = 0;
    fm.priority = 10;
    fm.match.set(esw::flow::FieldId::kEthDst, kChurnOui | (key & 0xFFFFFF));
    if (cmd == esw::flow::FlowMod::Cmd::kAdd)
      fm.actions = {esw::flow::Action::output(1 + static_cast<uint32_t>(key % 4))};
    return fm;
  };
  for (const uint64_t key : open_keys_)
    batch.push_back(mod_for(key, esw::flow::FlowMod::Cmd::kDelete));
  open_keys_.clear();
  for (uint32_t k = 0; k < kChurnBatch / 2; ++k) {
    const uint64_t key = key_base_ + seq_ * (kChurnBatch / 2) + k;
    batch.push_back(mod_for(key, esw::flow::FlowMod::Cmd::kAdd));
    open_keys_.push_back(key & 0xFFFFFF);
  }
  ++seq_;
  return batch;
}

void ChurnControl::send_batch(SpanBuffer* spans) {
  const uint64_t due = static_cast<uint64_t>(next_due_);
  next_due_ += period_;
  batch_id_ = seq_;
  spans_ = spans;
  last_apply_span_ = Span::kNoParent;

  const std::vector<esw::flow::FlowMod> batch = next_batch();
  const uint64_t s0 = esw::rdtsc();
  for (const esw::flow::FlowMod& fm : batch) ctrl_->send_flow_mod(fm);
  const uint32_t xid = ctrl_->send_barrier();
  const uint64_t s1 = esw::rdtsc();

  bool replied = false;
  uint32_t poll_span = Span::kNoParent;
  const uint64_t deadline = tsc_after(s1, 1.0);
  while (!replied && esw::rdtsc() < deadline) {
    const uint64_t p0 = esw::rdtsc();
    const uint32_t handled = agent_->poll();
    const uint64_t p1 = esw::rdtsc();
    if (handled > 0) {
      poll_us.push_back(static_cast<double>(p1 - p0) / tsc_hz() * 1e6);
      if (spans != nullptr) {
        poll_span = spans->add(ids_.agent_poll, batch_id_, p0, p1, handled);
        spans->set_parent(last_apply_span_, poll_span);
      }
    }
    ctrl_->poll();
    for (const uint32_t x : ctrl_->take_barrier_replies()) replied |= x == xid;
  }
  const uint64_t done = esw::rdtsc();
  of_errors += ctrl_->take_errors().size();
  mods_sent += batch.size();
  if (!replied) {
    ++missing_barriers;
  } else {
    mod_lat_us.push_back(static_cast<double>(done - due) / tsc_hz() * 1e6);
  }
  if (spans != nullptr) {
    const uint32_t root = spans->add(ids_.batch, batch_id_, due, done,
                                     static_cast<uint32_t>(batch.size()));
    spans->set_parent(spans->add(ids_.send, batch_id_, s0, s1), root);
    spans->set_parent(poll_span, root);
  }
  epoch_pending_max = std::max(epoch_pending_max, sw_.reclaim_stats().pending);
  spans_ = nullptr;
}

bool ChurnControl::verify_table(uint32_t initial_entries, std::string* why) const {
  const esw::flow::FlowTable* t = sw_.pipeline().find_table(0);
  if (t == nullptr) {
    *why = "table 0 is gone";
    return false;
  }
  const std::unordered_set<uint64_t> open(open_keys_.begin(), open_keys_.end());
  uint64_t initial = 0, churned = 0, other = 0;
  for (const esw::flow::FlowEntry& e : t->entries()) {
    const uint64_t mac = e.match.value(esw::flow::FieldId::kEthDst);
    if ((mac & ~uint64_t{0xFFFFFF}) == kL2Oui) {
      ++initial;
    } else if ((mac & ~uint64_t{0xFFFFFF}) == kChurnOui && open.count(mac & 0xFFFFFF) > 0) {
      ++churned;
    } else {
      ++other;
    }
  }
  const esw::core::CompiledTable* impl = sw_.datapath().impl(sw_.root_slot(0));
  const size_t compiled = impl != nullptr ? impl->size() : 0;
  if (initial == initial_entries && churned == open.size() && other == 0 &&
      compiled == t->size())
    return true;
  *why = "table 0 after the last BARRIER: " + std::to_string(initial) + " initial (want " +
         std::to_string(initial_entries) + "), " + std::to_string(churned) +
         " open adds (want " + std::to_string(open.size()) + "), " +
         std::to_string(other) + " stray, compiled size " + std::to_string(compiled);
  return false;
}

// --- harness ----------------------------------------------------------------

Harness::Harness(const Workload& wl, const Options& opts, const SpanIds& ids)
    : wl_(wl),
      opts_(opts),
      ids_(ids),
      gens_(kWorkers),
      drained_(kWorkers),
      clocks_(kWorkers),
      rx_wait_(kWorkers),
      worker_spans_(kWorkers) {
  const Runtime::Config rcfg = runtime_config(wl);
  // Hand freed heap pages back first, so the growth below counts the
  // switch's pages rather than whatever the allocator could reuse.
  malloc_trim(0);
  const uint64_t rss0 = rss_bytes();
  rt_ = std::make_unique<Runtime>(rcfg, wl.cfg);
  const uint64_t t0 = esw::rdtsc();
  rt_->backend().install(wl.pipeline);
  const uint64_t t1 = esw::rdtsc();
  const uint64_t rss1 = rss_bytes();
  install_s_ = static_cast<double>(t1 - t0) / tsc_hz();
  for (uint32_t w = 0; w < kWorkers; ++w) gens_[w].shard = &wl_.shards[w];
  rt_->set_source([this](uint32_t w, Packet** bufs, uint32_t n) { return source(w, bufs, n); });

  LegSpec first;
  first.until_first_output = true;
  first.check = false;
  first.seconds = 10;
  const LegResult r = run_leg(first);
  ESW_CHECK_MSG(r.first_output_tsc != 0, "no frame was forwarded during set-up");
  setup_s_ = static_cast<double>(r.first_output_tsc - t0) / tsc_hz();
  {
    // The pool and port rings the benchmark sized, measured the same way while
    // the runtime's own are alive (so neither can reuse the other's pages),
    // after the set-up clock has stopped.
    const uint64_t p0 = rss_bytes();
    const esw::net::MbufPool probe_pool(rcfg.pool_capacity);
    const esw::net::PortSet probe_ports(rcfg.n_ports, rcfg.port);
    const uint64_t p1 = rss_bytes();
    const double switch_bytes = static_cast<double>(rss1 - rss0) - static_cast<double>(p1 - p0);
    switch_mem_mb_ = std::max(0.0, switch_bytes) / (1024.0 * 1024.0);
  }

  if (wl.churn) churn_ = std::make_unique<ChurnControl>(rt_->backend(), opts.seed, ids_);
}

Harness::~Harness() { stop_threads(); }

void Harness::stop_threads() {
  rt_->stop();
  drain_stop_.store(true, std::memory_order_release);
  if (drain_thread_.joinable()) drain_thread_.join();
}

void Harness::tally_expect(const Expect& e, uint64_t& out, uint64_t& drop,
                           uint64_t& pin) const {
  switch (static_cast<Verdict::Kind>(e.kind)) {
    case Verdict::Kind::kOutput:
      ++out;
      break;
    case Verdict::Kind::kDrop:
      ++drop;
      break;
    case Verdict::Kind::kController:
      ++pin;
      break;
    case Verdict::Kind::kFlood:
      break;
  }
}

uint32_t Harness::source(uint32_t w, Packet** bufs, uint32_t n) {
  Gen& g = gens_[w];
  if (!g.pinned) {
    pin_current_thread(w);
    g.pinned = true;
    if (pthread_getcpuclockid(pthread_self(), &clocks_[w].id) == 0)
      clocks_[w].ready.store(true, std::memory_order_release);
  }
  const uint64_t now = esw::rdtsc();
  // Frames this worker injected that have not left yet: queued on its RX
  // port, or transmitted by it and not yet drained.  Actual counts, so a
  // frame whose verdict differs from its reference cannot wedge the window.
  // The drain thread's count lives on another core, so it is re-read only
  // when the window looks full: an old count overstates what is outstanding.
  const Runtime::Counters c = rt_->worker_counters(w);
  const auto outstanding = [&] {
    const uint64_t done = g.drained_seen - g.drained_at_start;
    return (c.source_packets - c.processed) + (c.tx_packets > done ? c.tx_packets - done : 0);
  };
  const uint64_t window = leg_.mode == LegSpec::Mode::kClosed ? kClosedWindow : kOpenWindow;
  uint64_t inflight = outstanding();
  if (inflight >= window) {
    g.drained_seen = drained_[w].out.load(std::memory_order_relaxed);
    inflight = outstanding();
  }
  const uint32_t room =
      inflight >= window ? 0 : static_cast<uint32_t>(std::min<uint64_t>(n, window - inflight));
  uint32_t m = 0;
  if (leg_.mode == LegSpec::Mode::kClosed) {
    m = room;
  } else {
    double due = g.next_due;
    while (m < room && due <= static_cast<double>(now)) {
      ++m;
      due += g.period;
    }
  }
  if (room == 0) ++g.window_full;
  if (m == 0) return 0;

  const bool sample = leg_.traced && (g.calls++ % kTraceEvery) == 0;
  size_t idx[esw::net::kBurstSize];
  const uint64_t l0 = sample ? esw::rdtsc() : 0;
  for (uint32_t i = 0; i < m; ++i) {
    idx[i] = g.cursor;
    g.shard->frames.load_next(g.cursor, *bufs[i]);
  }
  const uint64_t l1 = sample ? esw::rdtsc() : 0;

  const uint64_t first_due = leg_.mode == LegSpec::Mode::kOpen
                                 ? static_cast<uint64_t>(g.next_due)
                                 : now;
  for (uint32_t i = 0; i < m; ++i) {
    uint64_t due = now;
    if (leg_.mode == LegSpec::Mode::kOpen) {
      due = static_cast<uint64_t>(g.next_due);
      g.next_due += g.period;
      if (leg_.traced) rx_wait_[w].record(now - std::min(now, due));
    }
    const uint32_t tag = (w << 31) | static_cast<uint32_t>(idx[i]);
    const uint32_t due_lo = static_cast<uint32_t>(due);
    uint8_t* tail = bufs[i]->data() + bufs[i]->len() - kStampBytes;
    std::memcpy(tail, &tag, 4);
    std::memcpy(tail + 4, &due_lo, 4);
    tally_expect(g.shard->expect[idx[i]], g.exp_out, g.exp_drop, g.exp_pin);
  }
  g.loaded += m;

  if (sample) {
    SpanBuffer& sb = worker_spans_[w];
    const uint64_t id = (uint64_t{w} << 48) | g.calls;
    const uint32_t root = sb.add(ids_.source, id, now, esw::rdtsc(), m);
    sb.set_parent(sb.add(ids_.load, id, l0, l1, m), root);
    // The wait precedes the hook call, so it is a sibling, not a child.
    if (leg_.mode == LegSpec::Mode::kOpen)
      sb.add(ids_.rx_wait, id, std::min(first_due, now), now, m);
  }
  return m;
}

uint64_t Harness::worker_cpu_ns() const {
  uint64_t ns = 0;
  for (const WorkerClock& c : clocks_) {
    timespec ts{};
    ESW_CHECK_MSG(c.ready.load(std::memory_order_acquire) && clock_gettime(c.id, &ts) == 0,
                  "a worker's CPU clock is unreadable");
    ns += static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL + static_cast<uint64_t>(ts.tv_nsec);
  }
  return ns;
}

void Harness::note_mismatch(const std::string& what) {
  if (drain_.mismatches++ == 0) drain_.first_mismatch = what;
}

void Harness::on_tx(Packet* p, uint32_t port, uint64_t now) {
  if (p->len() < kStampBytes) {
    note_mismatch("runt frame on port " + std::to_string(port));
    return;
  }
  uint32_t tag = 0, due = 0;
  read_stamp(*p, &tag, &due);
  const uint32_t w = tag >> 31;
  const uint32_t idx = tag & 0x7FFFFFFFu;
  if (w >= kWorkers || idx >= wl_.shards[w].expect.size()) {
    note_mismatch("unknown frame tag on port " + std::to_string(port));
    return;
  }
  if (opts_.fault == Fault::kWithhold && leg_.check && !drain_.withheld) {
    drain_.withheld = true;  // planted fault: this frame is never accounted
    return;
  }
  drained_[w].out.store(drained_[w].out.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  if (first_output_.load(std::memory_order_relaxed) == 0)
    first_output_.store(now, std::memory_order_release);

  if (leg_.check) {
    const Shard& s = wl_.shards[w];
    const Expect& e = s.expect[idx];
    if (static_cast<Verdict::Kind>(e.kind) != Verdict::Kind::kOutput || e.port != port ||
        e.len != p->len() ||
        std::memcmp(p->data(), s.out_bytes.data() + e.off, e.len - kStampBytes) != 0)
      note_mismatch("frame " + std::to_string(idx) + " of shard " + std::to_string(w) +
                    " left port " + std::to_string(port) + " differing from its reference");
  }
  if (leg_.mode == LegSpec::Mode::kOpen) {
    const uint64_t t0 = meas_t0_.load(std::memory_order_acquire);
    if (t0 == 0 || now < t0) return;
    const uint64_t k = (now - t0) / window_cycles_;
    if (k < lat_windows_.size())
      lat_windows_[k].record(static_cast<uint32_t>(static_cast<uint32_t>(now) - due));
  }
}

void Harness::drain_main() {
  pin_current_thread(kDrainSlot);
  esw::net::MbufCache cache(rt_->pool(), 512);
  Packet* buf[esw::net::kBurstSize];
  uint64_t busy = 0;
  const uint64_t began = esw::rdtsc();
  for (;;) {
    const bool stopping = drain_stop_.load(std::memory_order_acquire);
    uint32_t got = 0;
    for (uint32_t port = 1; port <= wl_.n_ports; ++port) {
      const uint32_t n = rt_->ports().port(port).drain_tx(buf, esw::net::kBurstSize);
      if (n == 0) continue;
      // Read after the dequeue: every frame drained was stamped before `now`.
      const uint64_t now = esw::rdtsc();
      // The frames were just written on another core: fetch each one's
      // head, tail (stamp) and length line before touching any of them.
      for (uint32_t i = 0; i < n; ++i) {
        __builtin_prefetch(buf[i]->data());
        __builtin_prefetch(buf[i]->data() + buf[i]->len() - 1);
        __builtin_prefetch(buf[i]->data() + Packet::kCapacity);
      }
      for (uint32_t i = 0; i < n; ++i) {
        on_tx(buf[i], port, now);
        cache.free(buf[i]);
      }
      got += n;
      busy += esw::rdtsc() - now;
    }
    if (got == 0) {
      if (stopping) break;
      __builtin_ia32_pause();
    }
  }
  cache.flush();
  drain_.busy_frac = static_cast<double>(busy) / static_cast<double>(esw::rdtsc() - began);
}

LegResult Harness::run_leg(const LegSpec& spec) {
  LegResult res;
  leg_ = spec;
  const double hz = tsc_hz();
  const uint32_t n_windows = spec.until_first_output
                                 ? 0
                                 : std::max<uint32_t>(1, static_cast<uint32_t>(
                                                             spec.seconds / kWindowSeconds));
  window_cycles_ = static_cast<uint64_t>(kWindowSeconds * hz);
  lat_windows_.assign(spec.mode == LegSpec::Mode::kOpen ? n_windows : 0,
                      esw::perf::LatencyHistogram{});
  for (auto& h : rx_wait_) h.clear();
  drain_ = DrainState{};
  meas_t0_.store(0, std::memory_order_relaxed);
  first_output_.store(0, std::memory_order_relaxed);
  drain_stop_.store(false, std::memory_order_relaxed);

  std::vector<Gen> start_gen = gens_;
  uint64_t start_drained[kWorkers];
  for (uint32_t w = 0; w < kWorkers; ++w)
    start_drained[w] = drained_[w].out.load(std::memory_order_relaxed);
  const Runtime::Counters c0 = rt_->counters();

  const uint64_t start = esw::rdtsc();
  for (uint32_t w = 0; w < kWorkers; ++w) {
    Gen& g = gens_[w];
    g.drained_at_start = start_drained[w];  // the runtime's counters restart per leg
    g.drained_seen = start_drained[w];
    g.pinned = false;                        // and so do its worker threads
    clocks_[w].ready.store(false, std::memory_order_relaxed);
    g.period = spec.offered_pps > 0 ? hz * kWorkers / spec.offered_pps : 0;
    g.next_due = static_cast<double>(start);
  }
  ChurnControl* cc = churn_.get();
  SpanBuffer* cspans = spec.traced ? &control_spans_ : nullptr;
  drain_thread_ = std::thread([this] { drain_main(); });
  // Workers and the drain thread are stopped on every way out of the leg.
  struct StopOnExit {
    Harness* h;
    ~StopOnExit() { h->stop_threads(); }
  } stop_on_exit{this};
  rt_->start();

  if (spec.until_first_output) {
    const uint64_t give_up = tsc_after(start, spec.seconds);
    while (first_output_.load(std::memory_order_acquire) == 0 && esw::rdtsc() < give_up)
      std::this_thread::yield();
  } else {
    if (cc != nullptr) cc->restart_schedule(esw::rdtsc());
    // Let the loop settle before the first window opens.
    const uint64_t t0 = tsc_after(esw::rdtsc(), 0.05);
    const auto pump_until = [&](uint64_t target) {
      while (esw::rdtsc() < target) {
        if (cc == nullptr) {
          wait_until(target);
          break;
        }
        if (cc->next_due() > target) {
          wait_until(target);
          break;
        }
        wait_until(cc->next_due());
        cc->send_batch(cspans);
      }
    };
    pump_until(t0);
    // Every worker has made its first source call long before the windows open.
    const uint64_t clocks_due = tsc_after(t0, 1.0);
    const auto clocks_ready = [&] {
      for (const WorkerClock& c : clocks_)
        if (!c.ready.load(std::memory_order_acquire)) return false;
      return true;
    };
    while (!clocks_ready() && esw::rdtsc() < clocks_due) std::this_thread::yield();
    meas_t0_.store(t0, std::memory_order_release);
    uint64_t prev_t = esw::rdtsc();
    uint64_t prev_p = rt_->counters().processed;
    uint64_t prev_cpu = worker_cpu_ns();
    for (uint32_t k = 0; k < n_windows; ++k) {
      pump_until(t0 + (k + 1) * window_cycles_);
      const uint64_t t = esw::rdtsc();
      const uint64_t p = rt_->counters().processed;
      const uint64_t cpu = worker_cpu_ns();
      Window win;
      const double dt = static_cast<double>(t - prev_t);
      const double dp = static_cast<double>(p - prev_p);
      win.pps = dp / (dt / hz);
      win.cycles_per_pkt = dp > 0 ? static_cast<double>(cpu - prev_cpu) * esw::tsc_ghz() / dp : 0;
      res.windows.push_back(win);
      prev_t = t;
      prev_p = p;
      prev_cpu = cpu;
    }
    // A closed-loop leg also runs until every worker has replayed its shard
    // min_passes times, so the warm-up touches every flow.
    const uint64_t give_up = tsc_after(start, 10);
    // (The runtime's per-worker counters restart with each leg and are
    // atomics; the workers' own Gen tallies are theirs alone until joined.)
    const auto passes_done = [&] {
      for (uint32_t w = 0; w < kWorkers; ++w)
        if (static_cast<double>(rt_->worker_counters(w).source_packets) <
            spec.min_passes * static_cast<double>(wl_.shards[w].frames.size()))
          return false;
      return true;
    };
    while (!passes_done() && esw::rdtsc() < give_up) pump_until(tsc_after(esw::rdtsc(), 0.01));
  }

  stop_threads();
  res.first_output_tsc = first_output_.load(std::memory_order_relaxed);
  res.drain_busy_frac = drain_.busy_frac;

  // Frames still queued on RX after the workers stopped.
  uint64_t rx_left = 0, left_out = 0, left_drop = 0, left_pin = 0;
  Packet* buf[esw::net::kBurstSize];
  for (uint32_t port = 1; port <= wl_.n_ports; ++port) {
    uint32_t n;
    while ((n = rt_->ports().port(port).rx_burst(buf, esw::net::kBurstSize)) > 0) {
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t tag = 0, due = 0;
        read_stamp(*buf[i], &tag, &due);
        const uint32_t w = tag >> 31;
        const uint32_t idx = tag & 0x7FFFFFFFu;
        if (w < kWorkers && idx < wl_.shards[w].expect.size())
          tally_expect(wl_.shards[w].expect[idx], left_out, left_drop, left_pin);
        rt_->pool().free(buf[i]);
      }
      rx_left += n;
    }
  }

  const Runtime::Counters d = minus(rt_->counters(), c0);
  res.delta = d;
  uint64_t loaded = 0, exp_out = 0, exp_drop = 0, exp_pin = 0, drained = 0;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    loaded += gens_[w].loaded - start_gen[w].loaded;
    exp_out += gens_[w].exp_out - start_gen[w].exp_out;
    exp_drop += gens_[w].exp_drop - start_gen[w].exp_drop;
    exp_pin += gens_[w].exp_pin - start_gen[w].exp_pin;
    res.window_full += gens_[w].window_full - start_gen[w].window_full;
    drained += drained_[w].out.load(std::memory_order_relaxed) - start_drained[w];
  }
  res.attempted = loaded;
  const auto breach = [&](uint64_t count, const std::string& what) {
    if (count == 0) return;
    res.failed += count;
    res.breaches.push_back(what);
  };
  const auto diff = [](uint64_t a, uint64_t b) { return a > b ? a - b : b - a; };
  const uint64_t refused = loaded - std::min(loaded, d.source_packets);
  breach(refused, std::to_string(refused) + " frames refused at RX injection");
  breach(d.tx_rejected, std::to_string(d.tx_rejected) + " frames rejected by a full TX ring");
  breach(d.pool_exhausted, std::to_string(d.pool_exhausted) + " buffer-pool exhaustions");
  breach(d.bad_port, std::to_string(d.bad_port) + " outputs to a nonexistent port");
  breach(d.flood_copies, std::to_string(d.flood_copies) + " unexpected flood copies");
  breach(diff(d.source_packets, d.processed + rx_left) > 0 ? 1 : 0,
         "source packets " + std::to_string(d.source_packets) + " != processed " +
             std::to_string(d.processed) + " + still queued " + std::to_string(rx_left));
  const uint64_t accounted = d.tx_packets + d.drops + d.packet_ins + d.tx_rejected + d.bad_port;
  breach(diff(d.processed, accounted) > 0 ? 1 : 0,
         "processed " + std::to_string(d.processed) + " != tx + drops + packet_ins + "
         "tx_rejected + bad_port = " + std::to_string(accounted));
  breach(diff(d.tx_packets, drained + (drain_.withheld ? 1 : 0)) > 0 ? 1 : 0,
         "transmitted " + std::to_string(d.tx_packets) + " != drained " +
             std::to_string(drained));
  if (spec.check) {
    breach(drain_.mismatches, std::to_string(drain_.mismatches) +
                                  " reference mismatches (first: " + drain_.first_mismatch + ")");
    if (refused == 0) {
      const uint64_t want_out = exp_out - left_out;
      breach(diff(want_out, drained),
             std::to_string(want_out) + " frames should have left TX, " +
                 std::to_string(drained) + " were drained");
      breach(diff(exp_drop - left_drop, d.drops),
             "drops " + std::to_string(d.drops) + " != reference " +
                 std::to_string(exp_drop - left_drop));
      breach(diff(exp_pin - left_pin, d.packet_ins),
             "packet-ins " + std::to_string(d.packet_ins) + " != reference " +
                 std::to_string(exp_pin - left_pin));
    }
  }

  if (spec.mode == LegSpec::Mode::kOpen) {
    for (size_t k = 0; k < res.windows.size() && k < lat_windows_.size(); ++k) {
      const esw::perf::LatencyHistogram& h = lat_windows_[k];
      res.windows[k].lat_samples = h.count();
      res.windows[k].lat_p50_us = static_cast<double>(h.value_at_percentile(50)) / hz * 1e6;
      res.windows[k].lat_p90_us = static_cast<double>(h.value_at_percentile(90)) / hz * 1e6;
      res.windows[k].lat_p99_us = static_cast<double>(h.value_at_percentile(99)) / hz * 1e6;
    }
    for (const auto& h : rx_wait_) res.rx_wait.merge(h);
  }
  return res;
}

}  // namespace perfbench
