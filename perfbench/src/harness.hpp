// The measurement harness: one core::SwitchRuntime with two packet workers,
// fed by a per-worker source hook, drained by the benchmark's own TX thread,
// and (for l2_churn) updated over OpenFlow by the control thread.
//
// Threads (4 at most, the host's nproc): the runtime's 2 workers, the drain
// thread, and the calling thread, which paces legs and runs the controller
// and the agent.
//
// Every frame a worker's source loads carries a stamp (its shard/index tag
// and its due-time TSC) in its last payload bytes.  The drain thread pulls
// every port's TX ring (`sink_tx=false`), checks each frame against its
// reference outcome, and records due->TX latency.  After each leg the
// runtime's counters must satisfy the conservation identities; every breach
// is a counted failure.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/eswitch.hpp"
#include "core/switch_runtime.hpp"
#include "perf/latency.hpp"
#include "trace.hpp"
#include "usecases/of_agent.hpp"
#include "workloads.hpp"

namespace perfbench {

using Runtime = esw::core::SwitchRuntime<esw::core::Eswitch>;

/// Threads the benchmark runs (2 workers, the drain thread, the control
/// thread), each pinned to its own CPU when the host has that many: worker w
/// on slot w, the drain on kDrainSlot, the control thread on kControlSlot.
inline constexpr uint32_t kThreads = kWorkers + 2;
inline constexpr uint32_t kDrainSlot = kWorkers;
inline constexpr uint32_t kControlSlot = kWorkers + 1;
void pin_current_thread(uint32_t slot);

/// TSC cycles per second, calibrated once.
double tsc_hz();

/// The process's resident set, in bytes.
uint64_t rss_bytes();

/// Span names the harness records (interned before any recording thread runs).
struct SpanIds {
  uint32_t source = 0, load = 0, rx_wait = 0;                   // worker source hook
  uint32_t batch = 0, send = 0, agent_poll = 0, apply_batch = 0;  // control plane
};

/// The OpenFlow control plane of l2_churn: FLOW_MOD batches of 8 deletes (the
/// previous batch's adds) and 8 adds on an OUI disjoint from the table's,
/// each closed by a BARRIER, written by uc::OfController and read by a
/// uc::OfAgent bridged to the switch with apply_batch_partial.  Batches are
/// due on a fixed open-loop schedule; a batch's latency runs from its due
/// time to its BARRIER reply.
class ChurnControl {
 public:
  ChurnControl(esw::core::Eswitch& sw, uint64_t seed, SpanIds ids);
  ChurnControl(const ChurnControl&) = delete;
  ChurnControl& operator=(const ChurnControl&) = delete;

  /// Restarts the pacing schedule: the next batch is due at `now`.
  void restart_schedule(uint64_t now);
  uint64_t next_due() const { return static_cast<uint64_t>(next_due_); }
  /// Sends the due batch and waits for its BARRIER reply.
  void send_batch(SpanBuffer* spans);
  /// After the last BARRIER: the table holds exactly its initial entries plus
  /// the adds still open, in the rule store and in the compiled table.
  bool verify_table(uint32_t initial_entries, std::string* why) const;

  uint64_t mods_sent = 0;
  uint64_t of_errors = 0;
  uint64_t missing_barriers = 0;
  uint64_t epoch_pending_max = 0;
  std::vector<double> mod_lat_us;   // due -> BARRIER reply, per batch
  std::vector<double> poll_us;      // OfAgent::poll that handled the batch
  std::vector<double> apply_us;     // apply_batch_partial inside that poll

 private:
  std::vector<esw::flow::FlowMod> next_batch();

  esw::core::Eswitch& sw_;
  SpanIds ids_;
  std::unique_ptr<esw::uc::OfAgent> agent_;
  std::unique_ptr<esw::uc::OfController> ctrl_;
  uint64_t key_base_;
  uint64_t seq_ = 0;  // batches built so far (keys derive from it)
  std::vector<uint64_t> open_keys_;
  double next_due_ = 0;
  double period_ = 0;
  // The apply span recorded by the batch callback during the current poll.
  SpanBuffer* spans_ = nullptr;
  uint32_t last_apply_span_ = Span::kNoParent;
  uint64_t batch_id_ = 0;
};

struct LegSpec {
  enum class Mode { kClosed, kOpen };
  Mode mode = Mode::kClosed;
  double seconds = 1;
  double offered_pps = 0;       // open loop: all workers together
  bool check = true;            // compare transmitted frames with references
  bool traced = false;
  /// Closed loop only: run until each worker has loaded this many passes of
  /// its shard (at least `seconds`, at most 10 s).
  double min_passes = 0;
  /// Setup only: end the leg at the first frame the drain sees.
  bool until_first_output = false;
};

/// Every leg is measured in windows of this length.
inline constexpr double kWindowSeconds = 0.1;

/// One measurement window of a leg.
struct Window {
  double pps = 0;
  /// The workers' CPU time in the window (their threads' CPU clocks, in TSC
  /// cycles) over the packets processed in it.  Busy-polling workers make
  /// this 2 x window cycles / packets, less any time a worker was off its CPU.
  double cycles_per_pkt = 0;
  double lat_p50_us = 0;
  double lat_p90_us = 0;
  double lat_p99_us = 0;
  uint64_t lat_samples = 0;
};

struct LegResult {
  std::vector<Window> windows;
  Runtime::Counters delta;      // runtime counter deltas over the whole leg
  uint64_t attempted = 0;       // frames the source hooks loaded
  uint64_t failed = 0;
  std::vector<std::string> breaches;
  uint64_t first_output_tsc = 0;
  /// Diagnostics: the drain thread's busy share, and how often a source found
  /// its window of outstanding frames full (both high means the drain, not
  /// the switch, set the pace).
  double drain_busy_frac = 0;
  uint64_t window_full = 0;
  esw::perf::LatencyHistogram rx_wait;  // traced: due -> source hook, cycles
};

class Harness {
 public:
  struct Options {
    Fault fault = Fault::kNone;
    uint64_t seed = 1;
  };

  /// Constructs the runtime and installs the workload's pipeline; the set-up
  /// time runs from install() to the first frame drained from TX.
  Harness(const Workload& wl, const Options& opts, const SpanIds& ids);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  double setup_s() const { return setup_s_; }
  double install_s() const { return install_s_; }
  /// RSS growth across constructing the switch and install(), minus the
  /// buffer pool and port rings (a fixed, benchmark-chosen allocation).
  double switch_mem_mb() const { return switch_mem_mb_; }

  LegResult run_leg(const LegSpec& spec);

  esw::core::Eswitch& sw() { return rt_->backend(); }
  ChurnControl* churn() { return churn_.get(); }
  std::vector<SpanBuffer>& worker_spans() { return worker_spans_; }
  SpanBuffer& control_spans() { return control_spans_; }

 private:
  struct alignas(64) Gen {
    const Shard* shard = nullptr;
    size_t cursor = 0;
    uint64_t loaded = 0, exp_out = 0, exp_drop = 0, exp_pin = 0;
    double next_due = 0;
    double period = 0;
    uint64_t calls = 0;
    uint64_t window_full = 0;  // calls refused because the window was full
    uint64_t drained_at_start = 0;
    uint64_t drained_seen = 0;  // this worker's drained count, last read
    bool pinned = false;
  };
  struct alignas(64) Drained {
    std::atomic<uint64_t> out{0};
  };
  /// A worker thread's CPU clock, published by its first source call of a leg.
  struct alignas(64) WorkerClock {
    std::atomic<bool> ready{false};
    clockid_t id{};
  };
  /// Owned by the drain thread during a leg; read after it is joined.
  struct DrainState {
    uint64_t mismatches = 0;
    bool withheld = false;
    double busy_frac = 0;
    std::string first_mismatch;
  };

  /// Stops the workers, then lets the drain thread empty TX and joins it.
  /// Idempotent.
  void stop_threads();
  uint32_t source(uint32_t w, esw::net::Packet** bufs, uint32_t n);
  void drain_main();
  void on_tx(esw::net::Packet* p, uint32_t port, uint64_t now);
  void note_mismatch(const std::string& what);
  void tally_expect(const Expect& e, uint64_t& out, uint64_t& drop, uint64_t& pin) const;
  /// The workers' CPU time so far in this leg, in nanoseconds.
  uint64_t worker_cpu_ns() const;

  const Workload& wl_;
  Options opts_;
  SpanIds ids_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<ChurnControl> churn_;
  double setup_s_ = 0;
  double install_s_ = 0;
  double switch_mem_mb_ = 0;

  // Leg state: written by the calling thread while no worker or drain thread
  // runs; thread start/join orders it.
  LegSpec leg_;
  std::vector<Gen> gens_;
  std::vector<Drained> drained_;
  std::vector<WorkerClock> clocks_;
  std::vector<esw::perf::LatencyHistogram> rx_wait_;  // per worker
  std::vector<esw::perf::LatencyHistogram> lat_windows_;
  DrainState drain_;
  uint64_t window_cycles_ = 0;
  std::atomic<uint64_t> meas_t0_{0};       // 0 until the measured windows begin
  std::atomic<uint64_t> first_output_{0};  // TSC of the first drained frame
  std::atomic<bool> drain_stop_{false};
  std::vector<SpanBuffer> worker_spans_;
  SpanBuffer control_spans_;
  std::thread drain_thread_;
};

/// Median of `v` (0 when empty); `v` is reordered.
double median(std::vector<double> v);
/// Value at quantile q in [0,1] (nearest rank); 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
