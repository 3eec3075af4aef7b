// pstar_bench: one fresh-process run of one end-to-end benchmark workload.
//
//   usage: pstar_bench --workload NAME --tmp DIR [--seed S] [--rep R]
//                      [--trace 0|1]
//          pstar_bench --list
//
// Runs replication R of the named workload once and prints one JSON
// object on stdout: the host-time end-to-end metrics, the simulated
// results (deterministic given S and R, so run_bench.py compares them
// across processes as the run's fingerprint), the workload's own
// correctness checks, the operation counts, the checkpoint wall times,
// and -- with --trace 1 -- the per-layer metrics.  Replication R runs
// with seed sim::seed_stream(S, 0, R), the seed harness::run_replicated
// gives its R-th replication.  Checkpoints, traces and metrics files go
// under DIR.  `--list` prints the workload names and the metric table
// (name, unit, direction) that run_bench.py checks against
// BENCHMARK.json.
//
// Layers are timed from OUTSIDE the library, through its public seams
// (README.md): after set-up, the traced run interposes thin decorators on
// net::Observer, net::OverloadHook, net::RecoveryHook and
// traffic::AdmissionGate that count every call and time it.  End-to-end
// numbers come from untraced runs only.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pstar/adversary/recorder.hpp"
#include "pstar/core/parallel_engine.hpp"
#include "pstar/harness/perf.hpp"
#include "pstar/harness/setup.hpp"
#include "pstar/service/serve.hpp"
#include "pstar/sim/rng.hpp"

namespace {

using namespace pstar;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Metric table.  run_bench.py fails a run whose table drifts from
// BENCHMARK.json, so the two are kept equal by a check, not by hand.  The
// checkpoint percentiles and trace.overhead span several repetitions, so
// run_bench.py computes them; every other metric is printed here.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" / "higher"
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"tx_per_s", "1/s", "higher"},
    {"peak_rss_mb", "MiB", "lower"},
    {"recv_p50_tu", "tu", "lower"},
    {"recv_p99_tu", "tu", "lower"},
    {"delivered_frac", "fraction", "higher"},
    {"honest_p99_tu", "tu", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.pending_max", "count", "lower"},
    {"sim.hold_ns", "ns", "lower"},
    {"sim.residual_share", "fraction", "lower"},
    {"net.tx", "count", "lower"},
    {"net.inflight_max", "count", "lower"},
    {"net.launch.calls", "count", "lower"},
    {"net.launch.ns", "ns/call", "lower"},
    {"net.launch.share", "fraction", "lower"},
    {"traffic.arrivals", "count", "lower"},
    {"traffic.gate.ns", "ns/call", "lower"},
    {"traffic.gate.refused", "count", "lower"},
    {"traffic.gate.share", "fraction", "lower"},
    {"obs.callbacks", "count", "lower"},
    {"obs.ns_per_callback", "ns/call", "lower"},
    {"obs.share", "fraction", "lower"},
    {"obs.trace_bytes", "bytes", "lower"},
    {"obs.trace_records", "count", "lower"},
    {"overload.calls", "count", "lower"},
    {"overload.ns", "ns/call", "lower"},
    {"overload.share", "fraction", "lower"},
    {"overload.shed", "count", "lower"},
    {"recovery.calls", "count", "lower"},
    {"recovery.ns", "ns/call", "lower"},
    {"recovery.share", "fraction", "lower"},
    {"recovery.retx", "count", "lower"},
    {"fault.link_failures", "count", "lower"},
    {"adversary.quarantines", "count", "lower"},
    {"adversary.denied", "count", "lower"},
    {"routing.resolves", "count", "lower"},
    {"service.ckpt.count", "count", "higher"},
    {"service.ckpt_p50_ms", "ms", "lower"},
    {"service.ckpt_p95_ms", "ms", "lower"},
    {"service.snapshot_bytes", "bytes", "lower"},
    {"service.ckpt.MBps", "MB/s", "higher"},
    {"service.metrics_records", "count", "higher"},
    {"core.rounds", "count", "lower"},
    {"core.events_per_round", "count", "higher"},
    {"core.shard_imbalance", "ratio", "lower"},
    {"core.cpu_util", "fraction", "higher"},
    {"trace.overhead", "ratio", "lower"},
};

// ---------------------------------------------------------------------------
// Workloads (README.md says why each exists).  All four run priority STAR
// on the calendar scheduler with delay histograms on, open loop in
// simulated time: Poisson arrivals at the rate rho sets.

struct Workload {
  std::string name;
  harness::ExperimentSpec spec;
  bool sharded = false;
  bool fault_free = true;
  bool trace_file = false;         ///< JSONL trace to a file
  double metrics_period = 0.0;     ///< live metrics record period (tu)
  double checkpoint_period = 0.0;  ///< ServeSession::checkpoint period (tu)
  double slice = 50.0;             ///< ServeSession::advance slice (tu)
};

const char* const kWorkloadNames[] = {"bcast16_hot", "shard4_cube24",
                                      "traced_mixed8", "serve_hostile16"};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t rep) {
  Workload w;
  w.name = name;
  harness::ExperimentSpec& s = w.spec;
  s.scheme = core::Scheme::priority_star();
  s.scheduler = sim::SchedulerKind::kCalendar;
  s.record_histograms = true;
  s.seed = sim::seed_stream(seed, 0, rep);
  if (name == "bcast16_hot") {
    s.shape = topo::Shape{16, 16};
    s.rho = 0.9;
    s.broadcast_fraction = 1.0;
    s.warmup = 200.0;
    s.measure = 8000.0;
  } else if (name == "shard4_cube24") {
    // A replication's work is its Poisson task count times N-1
    // transmissions.  On 48^3 a second of work is ~40 broadcasts, whose
    // count (and so run_s and peak RSS) moves by a sixth between seeds;
    // on 24^3 it is ~400.
    s.shape = topo::Shape{24, 24, 24};
    s.rho = 0.2;
    s.broadcast_fraction = 1.0;
    s.warmup = 0.0;
    s.measure = 330.0;
    s.shards = 4;
    w.sharded = true;
  } else if (name == "traced_mixed8") {
    s.shape = topo::Shape{8, 8};
    s.rho = 0.8;
    s.broadcast_fraction = 0.5;
    s.warmup = 200.0;
    s.measure = 1500.0;
    s.collect_link_metrics = true;
    w.trace_file = true;
    w.metrics_period = 50.0;
  } else if (name == "serve_hostile16") {
    // Every subsystem on, at a load the stack still carries: at rho 0.9,
    // 100 tu repairs and a full-rate pulse, retries back off through
    // several rounds and the delay tail moves by a fifth from one seed to
    // the next.  Here a lost subtree is re-flooded once, after the link
    // is back.
    s.shape = topo::Shape{16, 16};
    s.rho = 0.8;
    s.broadcast_fraction = 1.0;
    s.warmup = 200.0;
    s.measure = 3000.0;
    s.fault_mtbf = 2000.0;
    s.fault_mttr = 5.0;
    s.max_retries = 3;
    s.overload.mode = overload::OverloadMode::kShed;
    // The shedder is consulted on every send but never fires: a shed
    // reception is lost for good (recovery retries are sheddable too),
    // and the benchmark needs workloads on which no operation fails.
    s.overload.shed_threshold = 1e12;
    s.adaptive.mode = routing::AdaptiveMode::kPeriodic;
    s.attack.kind = adversary::AttackKind::kPulse;
    s.attack.intensity = 0.25;
    s.policing.enabled = true;
    // At this size an honest node sends ~0.012 tasks/tu.  The default
    // 50 tu rate window, 3x suspect threshold and 4-task bucket
    // rate-limit a few honest Poisson bursts per run; these settings
    // refused no honest arrival in 480 replications while the pulse
    // attackers (16x the honest rate) are still quarantined.
    s.policing.stats.window = 200.0;
    s.policing.suspect_factor = 5.0;
    s.policing.limit_depth = 8.0;
    w.fault_free = false;
    w.metrics_period = 100.0;
    w.checkpoint_period = 25.0;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Span timing.

/// Calls into one layer and the time spent there.  Self time excludes
/// nested spans of other layers (an observer callback inside a launch).
struct Layer {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// One shard's timing state.  All decorators of a shard share it, so a
/// nested call charges its time to the innermost layer only.  Each shard
/// has its own, so no counter is shared between worker threads.
struct Tracer {
  Layer launch, gate, obs, overload, recovery;
  std::uint64_t arrivals = 0;
  std::uint64_t refused = 0;  ///< arrivals the inner gate deferred or denied
  std::size_t pending_max = 0;
  std::vector<std::int64_t> child_ns;  ///< open spans' nested time

  std::int64_t timed_ns() const {
    return launch.self_ns + gate.self_ns + obs.self_ns + overload.self_ns +
           recovery.self_ns;
  }
};

class Span {
 public:
  Span(Tracer& tracer, Layer& layer) : tracer_(tracer), layer_(layer) {
    ++layer_.calls;
    tracer_.child_ns.push_back(0);
    start_ = Clock::now();
  }
  ~Span() {
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count();
    const std::int64_t child = tracer_.child_ns.back();
    tracer_.child_ns.pop_back();
    layer_.self_ns += ns - child;
    if (!tracer_.child_ns.empty()) tracer_.child_ns.back() += ns;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer& layer_;
  Clock::time_point start_;
};

/// Sits in front of Workload::gate().  Times the inner gate's decision,
/// then launches the task itself and times that; returning false keeps
/// the call order exactly that of Workload::arrive.  Without a tracer it
/// only counts the policer's refusals of honest sources (an honest
/// workload arrival drawn at an attacker node is attacker traffic, as in
/// adversary::ClassRecorder).
class TimedGate final : public traffic::AdmissionGate {
 public:
  TimedGate(Tracer* t, net::Engine& engine, traffic::AdmissionGate* inner,
            const adversary::Policer* policer,
            const std::vector<bool>& attacker)
      : t_(t),
        engine_(engine),
        inner_(inner),
        policer_(policer),
        attacker_(attacker) {}

  bool on_arrival(const traffic::Arrival& a) override {
    if (t_ != nullptr) {
      ++t_->arrivals;
      t_->pending_max =
          std::max(t_->pending_max, engine_.simulator().pending());
    }
    if (inner_ != nullptr) {
      const std::uint64_t denied_before = denied();
      bool admitted = false;
      {
        std::optional<Span> s;
        if (t_ != nullptr) s.emplace(*t_, t_->gate);
        admitted = inner_->on_arrival(a);
      }
      if (!admitted) {
        if (t_ != nullptr) ++t_->refused;
        if (denied() > denied_before &&
            !attacker_[static_cast<std::size_t>(a.source)]) {
          ++honest_denied_;
        }
        return false;
      }
    }
    std::optional<Span> s;
    if (t_ != nullptr) s.emplace(*t_, t_->launch);
    traffic::launch_arrival(engine_, a);
    return false;
  }

  std::uint64_t honest_denied() const { return honest_denied_; }

 private:
  std::uint64_t denied() const {
    return policer_ == nullptr ? 0
                               : policer_->stats().denied_quarantine +
                                     policer_->stats().denied_ratelimit;
  }

  Tracer* t_;
  net::Engine& engine_;
  traffic::AdmissionGate* inner_;
  const adversary::Policer* policer_;
  const std::vector<bool>& attacker_;
  std::uint64_t honest_denied_ = 0;
};

/// Forwards every observer callback to the attached observer, timed.
class TimedObserver final : public net::Observer {
 public:
  TimedObserver(Tracer& t, net::Observer& inner) : t_(t), in_(inner) {}

  void on_task_created(net::TaskId task, const net::Task& info) override {
    Span s(t_, t_.obs);
    in_.on_task_created(task, info);
  }
  void on_enqueue(net::TaskId task, const net::Copy& copy, topo::LinkId link,
                  double now) override {
    Span s(t_, t_.obs);
    in_.on_enqueue(task, copy, link, now);
  }
  void on_transmission(net::TaskId task, const net::Copy& copy,
                       topo::LinkId link, topo::NodeId from, topo::NodeId to,
                       std::int32_t dim, topo::Dir dir, double enqueued_at,
                       double start, double end) override {
    Span s(t_, t_.obs);
    in_.on_transmission(task, copy, link, from, to, dim, dir, enqueued_at,
                        start, end);
  }
  void on_drop(net::TaskId task, const net::Copy& copy, topo::LinkId link,
               double now, bool was_queued) override {
    Span s(t_, t_.obs);
    in_.on_drop(task, copy, link, now, was_queued);
  }
  void on_task_completed(net::TaskId task, const net::Task& info,
                         double time) override {
    Span s(t_, t_.obs);
    in_.on_task_completed(task, info, time);
  }
  void on_link_down(topo::LinkId link, double now) override {
    Span s(t_, t_.obs);
    in_.on_link_down(link, now);
  }
  void on_link_up(topo::LinkId link, double now) override {
    Span s(t_, t_.obs);
    in_.on_link_up(link, now);
  }
  void on_retx(net::TaskId task, std::uint32_t attempt, net::RetxMode mode,
               topo::LinkId link, double now) override {
    Span s(t_, t_.obs);
    in_.on_retx(task, attempt, mode, link, now);
  }
  void on_saturation_on(double now, double level) override {
    Span s(t_, t_.obs);
    in_.on_saturation_on(now, level);
  }
  void on_saturation_off(double now, double level) override {
    Span s(t_, t_.obs);
    in_.on_saturation_off(now, level);
  }
  void on_shed(net::TaskId task, const net::Copy& copy, topo::LinkId link,
               double now) override {
    Span s(t_, t_.obs);
    in_.on_shed(task, copy, link, now);
  }
  void on_throttle(topo::NodeId source, net::TaskKind kind,
                   double now) override {
    Span s(t_, t_.obs);
    in_.on_throttle(source, kind, now);
  }
  void on_abort(double now, std::uint64_t inflight) override {
    Span s(t_, t_.obs);
    in_.on_abort(now, inflight);
  }
  void on_classify(topo::NodeId source, net::SourceClass cls, double rate,
                   double share, double now) override {
    Span s(t_, t_.obs);
    in_.on_classify(source, cls, rate, share, now);
  }
  void on_quarantine(topo::NodeId source, double until, double now) override {
    Span s(t_, t_.obs);
    in_.on_quarantine(source, until, now);
  }
  void on_probation(topo::NodeId source, double now) override {
    Span s(t_, t_.obs);
    in_.on_probation(source, now);
  }
  void on_deny(topo::NodeId source, net::TaskKind kind, net::DenyReason reason,
               double now) override {
    Span s(t_, t_.obs);
    in_.on_deny(source, kind, reason, now);
  }
  void on_resolve(double now, std::uint64_t epoch, double imbalance,
                  double drift, bool applied,
                  const std::vector<double>& x) override {
    Span s(t_, t_.obs);
    in_.on_resolve(now, epoch, imbalance, drift, applied, x);
  }

 private:
  Tracer& t_;
  net::Observer& in_;
};

class TimedOverload final : public net::OverloadHook {
 public:
  TimedOverload(Tracer& t, net::OverloadHook& inner) : t_(t), in_(inner) {}
  bool should_shed(const net::Engine& engine, const net::Copy& copy,
                   topo::LinkId link) override {
    Span s(t_, t_.overload);
    return in_.should_shed(engine, copy, link);
  }

 private:
  Tracer& t_;
  net::OverloadHook& in_;
};

class TimedRecovery final : public net::RecoveryHook {
 public:
  TimedRecovery(Tracer& t, net::RecoveryHook& inner) : t_(t), in_(inner) {}
  void on_broadcast_loss(net::Engine& engine, const net::Copy& copy,
                         topo::LinkId link, std::uint64_t orphaned) override {
    Span s(t_, t_.recovery);
    in_.on_broadcast_loss(engine, copy, link, orphaned);
  }
  bool on_unicast_loss(net::Engine& engine, const net::Copy& copy,
                       topo::LinkId link) override {
    Span s(t_, t_.recovery);
    return in_.on_unicast_loss(engine, copy, link);
  }
  std::uint64_t on_retx_drop(net::Engine& engine, const net::Copy& copy,
                             topo::LinkId link) override {
    Span s(t_, t_.recovery);
    return in_.on_retx_drop(engine, copy, link);
  }
  bool on_retx_delivery(net::Engine& engine, net::TaskId task,
                        topo::NodeId node) override {
    Span s(t_, t_.recovery);
    return in_.on_retx_delivery(engine, task, node);
  }
  bool should_defer_completion(const net::Engine& engine,
                               net::TaskId task) override {
    Span s(t_, t_.recovery);
    return in_.should_defer_completion(engine, task);
  }
  void on_task_finished(net::TaskId task) override {
    Span s(t_, t_.recovery);
    in_.on_task_finished(task);
  }

 private:
  Tracer& t_;
  net::RecoveryHook& in_;
};

/// The decorators of one engine, attached after set-up and detached
/// (originals restored) before the engine is torn down.  With a null
/// tracer only the counting gate is attached.
class Decorated {
 public:
  Decorated(Tracer* t, net::Engine& engine, traffic::Workload& workload,
            const adversary::Policer* policer,
            const std::vector<bool>& attacker)
      : engine_(engine),
        workload_(workload),
        orig_gate_(workload.gate()),
        orig_obs_(engine.observer()),
        orig_overload_(engine.overload()),
        orig_recovery_(engine.recovery()),
        gate_(t, engine, orig_gate_, policer, attacker) {
    workload.set_gate(&gate_);
    if (t == nullptr) return;
    // Detached seams stay detached: wrapping a null observer would make
    // the engine start calling one.
    if (orig_obs_ != nullptr) {
      obs_.emplace(*t, *orig_obs_);
      engine.set_observer(&*obs_);
    }
    if (orig_overload_ != nullptr) {
      overload_.emplace(*t, *orig_overload_);
      engine.set_overload(&*overload_);
    }
    if (orig_recovery_ != nullptr) {
      recovery_.emplace(*t, *orig_recovery_);
      engine.set_recovery(&*recovery_);
    }
  }

  std::uint64_t honest_denied() const { return gate_.honest_denied(); }
  ~Decorated() {
    workload_.set_gate(orig_gate_);
    engine_.set_observer(orig_obs_);
    engine_.set_overload(orig_overload_);
    engine_.set_recovery(orig_recovery_);
  }
  Decorated(const Decorated&) = delete;
  Decorated& operator=(const Decorated&) = delete;

 private:
  net::Engine& engine_;
  traffic::Workload& workload_;
  traffic::AdmissionGate* orig_gate_;
  net::Observer* orig_obs_;
  net::OverloadHook* orig_overload_;
  net::RecoveryHook* orig_recovery_;
  TimedGate gate_;
  std::optional<TimedObserver> obs_;
  std::optional<TimedOverload> overload_;
  std::optional<TimedRecovery> recovery_;
};

/// Scheduler hold cost (pop the minimum, push it back later) at a given
/// queue depth, measured on an isolated calendar queue.
double hold_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  auto q = sim::make_scheduler(sim::SchedulerKind::kCalendar);
  sim::Rng rng(0x401D);
  for (std::size_t i = 0; i < depth; ++i) {
    q->push(rng.exponential(1.0) * static_cast<double>(depth),
            sim::EventFn([](sim::Simulator&) {}));
  }
  constexpr int kOps = 1 << 20;
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    auto [t, fn] = q->pop();
    q->push(t + rng.exponential(1.0) * static_cast<double>(depth),
            std::move(fn));
  }
  return 1e9 * seconds_since(t0) / kOps;
}

// ---------------------------------------------------------------------------
// Result extraction.

/// q-quantile with linear interpolation inside the bucket that holds it.
/// Histogram::quantile reports bucket edges (1 tu steps); interpolating
/// keeps the quantile from jumping a whole bucket between seeds.
double interpolated_quantile(const stats::Histogram& h, double q) {
  const auto total = static_cast<double>(h.total());
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double cum = 0.0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto c = static_cast<double>(h.bucket(i));
    if (c > 0.0 && cum + c >= target) {
      return (static_cast<double>(i) + (target - cum) / c) * h.bucket_width();
    }
    cum += c;
  }
  return static_cast<double>(h.bucket_count()) * h.bucket_width();
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::uint64_t count_lines(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return static_cast<std::uint64_t>(
      std::count(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>(), '\n'));
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Ordered name -> value list, printed as a JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

struct Result {
  Fields host;  ///< host-time end-to-end metrics
  Fields sim;   ///< simulated results: deterministic given seed and rep
  Fields layers;
  std::vector<double> ckpt_ms;
  std::vector<std::string> failed_checks;
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;
};

const char* stop_name(sim::StopReason r) {
  switch (r) {
    case sim::StopReason::kDrained: return "drained";
    case sim::StopReason::kTimeLimit: return "time_limit";
    case sim::StopReason::kEventLimit: return "event_limit";
    case sim::StopReason::kStopped: return "stopped";
  }
  return "?";
}

/// Everything a run reports that is computed the same way for the serial
/// and the sharded engine.
struct RunFacts {
  const net::Metrics* m = nullptr;
  std::int64_t nodes = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  double sim_end = 0.0;
  bool unstable = false;
  sim::StopReason stop = sim::StopReason::kDrained;
  std::uint64_t refused_total = 0;   ///< admissions the policer refused
  std::uint64_t honest_refused = 0;  ///< of those, from honest sources
  std::uint64_t unfinished = 0;      ///< tasks still in flight at the end
  std::optional<double> honest_p99;  ///< from the ClassRecorder, if any
};

void fill_common(const Workload& w, const RunFacts& f, Result& r) {
  const net::Metrics& m = *f.m;
  const double recv_p50 = interpolated_quantile(*m.reception_delay_hist, 0.50);
  const double recv_p99 = interpolated_quantile(*m.reception_delay_hist, 0.99);
  const double delivered =
      static_cast<double>(m.broadcast_receptions) /
      static_cast<double>(m.broadcast_receptions + m.lost_receptions);
  double honest_p99 = 0.0;
  if (f.honest_p99) {
    honest_p99 = *f.honest_p99;
  } else {
    // Without an attacker every task is honest: pool the completion
    // delays of measured broadcasts and unicasts.
    stats::Histogram all = *m.broadcast_delay_hist;
    all.merge(*m.unicast_delay_hist);
    honest_p99 = interpolated_quantile(all, 0.99);
  }
  const double rss_mb =
      static_cast<double>(harness::peak_rss_bytes()) / (1024.0 * 1024.0);
  r.host = {{"setup_s", f.setup_s},
            {"run_s", f.run_s},
            {"tx_per_s", static_cast<double>(m.transmissions) / f.run_s},
            {"peak_rss_mb", rss_mb}};
  const std::uint64_t completed = m.tasks_completed[0] + m.tasks_completed[1] +
                                  m.tasks_completed[2];
  r.sim = {{"recv_p50_tu", recv_p50},
           {"recv_p99_tu", recv_p99},
           {"delivered_frac", delivered},
           {"honest_p99_tu", honest_p99},
           {"events", static_cast<double>(f.events)},
           {"transmissions", static_cast<double>(m.transmissions)},
           {"broadcast_receptions", static_cast<double>(m.broadcast_receptions)},
           {"tasks_completed", static_cast<double>(completed)},
           {"sim_end", f.sim_end}};

  // Operations: every task the workloads drew, launched or refused.  A
  // task fails when it is not fully delivered; a refusal fails only when
  // it hit an honest source (refusing attack traffic is the policer doing
  // its job).  A guard trip or event-limit stop fails them all.
  const std::uint64_t launched = m.tasks_generated[0] + m.tasks_generated[1] +
                                 m.tasks_generated[2];
  r.ops_attempted = launched + f.refused_total;
  r.ops_failed = m.failed_broadcasts + m.failed_unicasts +
                 m.failed_multicasts + f.unfinished + f.honest_refused;
  if (f.unstable || f.stop != sim::StopReason::kDrained) {
    r.ops_failed = r.ops_attempted;
    r.failed_checks.push_back(std::string("run did not drain (") +
                              stop_name(f.stop) + ")");
  }
  if (w.fault_free && m.lost_receptions != 0) {
    r.failed_checks.push_back("fault-free workload lost receptions");
  }
  if (w.name == "bcast16_hot") {
    // An SDC tree is a spanning tree: every transmission is one reception
    // and every completed broadcast made exactly N-1 of them.
    const auto n1 = static_cast<std::uint64_t>(f.nodes - 1);
    if (m.transmissions != m.broadcast_receptions ||
        m.broadcast_receptions != n1 * m.tasks_completed[0]) {
      r.failed_checks.push_back(
          "spanning-tree identity: tx != receptions != (N-1) x broadcasts");
    }
  }
}

// ---------------------------------------------------------------------------
// Serial workloads: one service::ServeSession, advanced in slices.

Result run_serial(const Workload& w, bool traced, const std::string& tmp) {
  service::ServeConfig cfg;
  cfg.spec = w.spec;
  if (w.trace_file) cfg.trace_path = tmp + "/trace.jsonl";
  if (w.metrics_period > 0.0) {
    cfg.metrics_path = tmp + "/metrics.jsonl";
    cfg.metrics_period = w.metrics_period;
  }
  const std::string snap = tmp + "/snapshot.bin";

  const auto t0 = Clock::now();
  service::ServeSession session(cfg);
  RunFacts f;
  f.setup_s = seconds_since(t0);

  net::Engine& engine = session.engine();
  // With an attacker the session's observer is the honest-vs-attacker
  // recorder (docs/ADVERSARIAL.md).
  const auto* recorder =
      dynamic_cast<const adversary::ClassRecorder*>(engine.observer());

  const adversary::Policer* policer = session.policer();
  std::vector<bool> attacker(static_cast<std::size_t>(engine.torus().node_count()));
  if (w.spec.attack.enabled()) {
    for (const topo::NodeId n :
         adversary::attacker_nodes(w.spec.attack, engine.torus().node_count())) {
      attacker[static_cast<std::size_t>(n)] = true;
    }
  }
  Tracer tracer;
  std::optional<Decorated> decorated;
  // The counting gate also runs untraced where a policer can refuse.
  if (traced || policer != nullptr) {
    decorated.emplace(traced ? &tracer : nullptr, engine, session.workload(),
                      policer, attacker);
  }

  Result r;
  const double inf = std::numeric_limits<double>::infinity();
  double next_ckpt =
      w.checkpoint_period > 0.0 ? session.now() + w.checkpoint_period : inf;
  double cursor = session.now();
  sim::StopReason stop = sim::StopReason::kDrained;
  const auto t1 = Clock::now();
  for (;;) {
    const double target = std::min(cursor + w.slice, next_ckpt);
    stop = session.advance(target);
    if (stop == sim::StopReason::kEventLimit ||
        stop == sim::StopReason::kStopped) {
      break;
    }
    stop = sim::StopReason::kDrained;
    cursor = target;
    if (cursor >= next_ckpt) {
      const auto c0 = Clock::now();
      session.checkpoint(snap);
      r.ckpt_ms.push_back(1e3 * seconds_since(c0));
      next_ckpt += w.checkpoint_period;
    }
    if (session.pending_events() == 0) break;
  }
  f.run_s = seconds_since(t1);
  if (decorated) f.honest_refused = decorated->honest_denied();
  decorated.reset();

  const net::Metrics& m = engine.metrics();
  f.m = &m;
  f.nodes = engine.torus().node_count();
  f.events = session.simulator().events_executed();
  f.sim_end = session.now();
  f.unstable = engine.unstable();
  f.stop = stop;
  for (std::size_t k = 0; k < net::kTaskKinds; ++k) {
    f.unfinished += engine.inflight_tasks(static_cast<net::TaskKind>(k));
  }
  if (policer != nullptr) {
    f.refused_total = policer->stats().denied_quarantine +
                      policer->stats().denied_ratelimit;
    // Throttle releases are vetoed (outside the gate) only for sources in
    // quarantine; if an honest source was ever quarantined, count every
    // veto as an honest refusal.
    for (std::size_t n = 0; n < attacker.size(); ++n) {
      if (!attacker[n] &&
          policer->quarantine_until(static_cast<topo::NodeId>(n)) > 0.0) {
        f.honest_refused += session.overload() != nullptr
                                ? session.overload()->stats().releases_denied
                                : 0;
        break;
      }
    }
  }
  if (recorder != nullptr) f.honest_p99 = recorder->honest_p99();
  fill_common(w, f, r);

  if (traced) {
    const double wall_ns = 1e9 * f.run_s;
    const auto per_call = [](const Layer& l) {
      return l.calls ? static_cast<double>(l.self_ns) /
                           static_cast<double>(l.calls)
                     : 0.0;
    };
    const auto share = [&](const Layer& l) {
      return static_cast<double>(l.self_ns) / wall_ns;
    };
    const obs::JsonlTraceSink* sink = session.trace_sink();
    std::uint64_t shed = 0;
    for (const std::uint64_t s : m.shed_copies_by_class) shed += s;
    const adversary::Policer* pol = session.policer();
    r.layers = {
        {"sim.events", static_cast<double>(f.events)},
        {"sim.ns_per_event", wall_ns / static_cast<double>(f.events)},
        {"sim.pending_max", static_cast<double>(tracer.pending_max)},
        {"sim.hold_ns", hold_ns(tracer.pending_max)},
        {"sim.residual_share",
         1.0 - static_cast<double>(tracer.timed_ns()) / wall_ns},
        {"net.tx", static_cast<double>(m.transmissions)},
        {"net.inflight_max", m.inflight_copies.max()},
        {"net.launch.calls", static_cast<double>(tracer.launch.calls)},
        {"net.launch.ns", per_call(tracer.launch)},
        {"net.launch.share", share(tracer.launch)},
        {"traffic.arrivals", static_cast<double>(tracer.arrivals)},
        {"traffic.gate.ns", per_call(tracer.gate)},
        {"traffic.gate.refused", static_cast<double>(tracer.refused)},
        {"traffic.gate.share", share(tracer.gate)},
        {"obs.callbacks", static_cast<double>(tracer.obs.calls)},
        {"obs.ns_per_callback", per_call(tracer.obs)},
        {"obs.share", share(tracer.obs)},
        {"obs.trace_bytes",
         static_cast<double>(w.trace_file ? file_size(cfg.trace_path) : 0)},
        {"obs.trace_records",
         static_cast<double>(sink != nullptr ? sink->records() : 0)},
        {"overload.calls", static_cast<double>(tracer.overload.calls)},
        {"overload.ns", per_call(tracer.overload)},
        {"overload.share", share(tracer.overload)},
        {"overload.shed", static_cast<double>(shed)},
        {"recovery.calls", static_cast<double>(tracer.recovery.calls)},
        {"recovery.ns", per_call(tracer.recovery)},
        {"recovery.share", share(tracer.recovery)},
        {"recovery.retx", static_cast<double>(m.retransmissions)},
        {"fault.link_failures", static_cast<double>(m.link_failures)},
        {"adversary.quarantines",
         static_cast<double>(pol != nullptr ? pol->stats().quarantines : 0)},
        {"adversary.denied", static_cast<double>(f.refused_total)},
        {"routing.resolves",
         static_cast<double>(session.balancer() != nullptr
                                 ? session.balancer()->stats().resolves
                                 : 0)},
        {"service.snapshot_bytes", static_cast<double>(file_size(snap))},
        {"service.metrics_records",
         static_cast<double>(
             cfg.metrics_path.empty() ? 0 : count_lines(cfg.metrics_path))},
        {"core.rounds", 0.0},
        {"core.events_per_round", 0.0},
        {"core.shard_imbalance", 0.0},
        {"core.cpu_util", 0.0},
    };
  }

  if (w.checkpoint_period > 0.0) {
    // The final snapshot must load into a fresh session that writes the
    // same bytes back (the service's resume contract, docs/SERVICE.md).
    session.checkpoint(snap);
    const std::string saved = read_file(snap);
    service::ServeSession restored(cfg, snap);
    std::ostringstream again(std::ios::binary);
    restored.save_snapshot(again);
    if (saved.empty() || again.str() != saved) {
      r.failed_checks.push_back("final snapshot does not round-trip");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Sharded workload: core::ParallelEngine from the public setup builders.

Result run_sharded(const Workload& w, bool traced) {
  const harness::ExperimentSpec& spec = w.spec;
  const auto t0 = Clock::now();
  const topo::Torus torus(spec.shape);
  const queueing::Rates rates =
      harness::derive_rates(torus, spec, spec.length.mean());
  core::ParallelConfig pc;
  pc.shards = spec.shards;
  pc.seed = spec.seed;
  pc.window = static_cast<double>(spec.length.min());
  pc.max_events = spec.max_events;
  pc.max_inflight = spec.max_inflight;
  core::ParallelEngine par(torus, spec.scheme, rates.lambda_b, rates.lambda_r,
                           harness::build_engine_config(spec),
                           harness::build_traffic_config(spec, rates, 0.0), pc);
  RunFacts f;
  f.setup_s = seconds_since(t0);

  const double stop_time = spec.warmup + spec.measure;
  for (std::uint32_t s = 0; s < par.shards(); ++s) {
    net::Engine* eng = &par.engine(s);
    par.simulator(s).at(spec.warmup,
                        [eng](sim::Simulator&) { eng->begin_measurement(); });
    par.simulator(s).at(stop_time,
                        [eng](sim::Simulator&) { eng->end_measurement(); });
  }
  std::vector<Tracer> tracers(par.shards());
  const std::vector<bool> no_attackers;  // no policer: never consulted
  std::vector<std::unique_ptr<Decorated>> decorated;
  if (traced) {
    for (std::uint32_t s = 0; s < par.shards(); ++s) {
      decorated.push_back(std::make_unique<Decorated>(
          &tracers[s], par.engine(s), par.workload(s), nullptr, no_attackers));
    }
  }

  const double cpu0 = cpu_seconds();
  const auto t1 = Clock::now();
  f.stop = par.run();
  f.run_s = seconds_since(t1);
  const double cpu_s = cpu_seconds() - cpu0;
  decorated.clear();

  const net::Metrics merged = par.merged_metrics();
  f.m = &merged;
  f.nodes = torus.node_count();
  f.events = par.events_executed();
  f.sim_end = par.now();
  f.unstable = par.unstable();
  for (std::uint32_t s = 0; s < par.shards(); ++s) {
    for (std::size_t k = 0; k < net::kTaskKinds; ++k) {
      f.unfinished += par.engine(s).inflight_tasks(static_cast<net::TaskKind>(k));
    }
  }
  Result r;
  fill_common(w, f, r);

  if (traced) {
    Tracer sum;
    std::uint64_t max_events = 0;
    for (std::uint32_t s = 0; s < par.shards(); ++s) {
      const Tracer& t = tracers[s];
      sum.launch.calls += t.launch.calls;
      sum.launch.self_ns += t.launch.self_ns;
      sum.arrivals += t.arrivals;
      sum.pending_max = std::max(sum.pending_max, t.pending_max);
      max_events = std::max(max_events, par.simulator(s).events_executed());
    }
    // Shares are of worker time: wall x worker threads.
    const double worker_ns = 1e9 * f.run_s * static_cast<double>(par.jobs());
    const double mean_events =
        static_cast<double>(f.events) / static_cast<double>(par.shards());
    r.layers = {
        {"sim.events", static_cast<double>(f.events)},
        {"sim.ns_per_event", 1e9 * f.run_s / static_cast<double>(f.events)},
        {"sim.pending_max", static_cast<double>(sum.pending_max)},
        {"sim.hold_ns", hold_ns(sum.pending_max)},
        {"sim.residual_share",
         1.0 - static_cast<double>(sum.launch.self_ns) / worker_ns},
        {"net.tx", static_cast<double>(merged.transmissions)},
        {"net.inflight_max", merged.inflight_copies.max()},
        {"net.launch.calls", static_cast<double>(sum.launch.calls)},
        {"net.launch.ns",
         sum.launch.calls ? static_cast<double>(sum.launch.self_ns) /
                                static_cast<double>(sum.launch.calls)
                          : 0.0},
        {"net.launch.share", static_cast<double>(sum.launch.self_ns) / worker_ns},
        {"traffic.arrivals", static_cast<double>(sum.arrivals)},
        {"traffic.gate.ns", 0.0},
        {"traffic.gate.refused", 0.0},
        {"traffic.gate.share", 0.0},
        {"obs.callbacks", 0.0},
        {"obs.ns_per_callback", 0.0},
        {"obs.share", 0.0},
        {"obs.trace_bytes", 0.0},
        {"obs.trace_records", 0.0},
        {"overload.calls", 0.0},
        {"overload.ns", 0.0},
        {"overload.share", 0.0},
        {"overload.shed", 0.0},
        {"recovery.calls", 0.0},
        {"recovery.ns", 0.0},
        {"recovery.share", 0.0},
        {"recovery.retx", 0.0},
        {"fault.link_failures", 0.0},
        {"adversary.quarantines", 0.0},
        {"adversary.denied", 0.0},
        {"routing.resolves", 0.0},
        {"service.snapshot_bytes", 0.0},
        {"service.metrics_records", 0.0},
        {"core.rounds", static_cast<double>(par.rounds())},
        {"core.events_per_round",
         static_cast<double>(f.events) /
             static_cast<double>(std::max<std::uint64_t>(par.rounds(), 1))},
        {"core.shard_imbalance", static_cast<double>(max_events) / mean_events},
        {"core.cpu_util", cpu_s / (f.run_s * static_cast<double>(par.jobs()))},
    };
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_fields(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields[i].first) + ": " + json_number(fields[i].second);
  }
  return out + "}";
}

void print_result(const Workload& w, std::uint64_t rep, bool traced,
                  const Result& r) {
  std::string checks = "[";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i) {
    if (i > 0) checks += ", ";
    checks += json_string(r.failed_checks[i]);
  }
  checks += "]";
  std::string ckpt = "[";
  for (std::size_t i = 0; i < r.ckpt_ms.size(); ++i) {
    if (i > 0) ckpt += ", ";
    ckpt += json_number(r.ckpt_ms[i]);
  }
  ckpt += "]";
  std::cout << "{\"workload\": " << json_string(w.name)
            << ", \"rep\": " << rep
            << ", \"traced\": " << (traced ? "true" : "false")
            << ", \"ops_attempted\": " << r.ops_attempted
            << ", \"ops_failed\": " << r.ops_failed
            << ", \"failed_checks\": " << checks
            << ", \"host\": " << json_fields(r.host)
            << ", \"sim\": " << json_fields(r.sim)
            << ", \"layers\": " << json_fields(r.layers)
            << ", \"ckpt_ms\": " << ckpt << "}\n";
}

void print_list() {
  for (const char* name : kWorkloadNames) std::cout << "workload " << name << "\n";
  for (const MetricDef& m : kEndToEnd) {
    std::cout << "end_to_end " << m.name << " " << m.unit << " " << m.better
              << "\n";
  }
  for (const MetricDef& m : kPerLayer) {
    std::cout << "per_layer " << m.name << " " << m.unit << " " << m.better
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string tmp;
  std::uint64_t seed = 42;
  std::uint64_t rep = 0;
  bool traced = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
        return argv[++i];
      };
      if (flag == "--list") {
        print_list();
        return 0;
      } else if (flag == "--workload") {
        workload = value();
      } else if (flag == "--seed") {
        seed = std::stoull(value());
      } else if (flag == "--rep") {
        rep = std::stoull(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
        traced = v == "1";
      } else if (flag == "--tmp") {
        tmp = value();
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (workload.empty() || tmp.empty()) {
      throw std::invalid_argument("--workload and --tmp are required");
    }
    const Workload w = make_workload(workload, seed, rep);
    const Result r = w.sharded ? run_sharded(w, traced) : run_serial(w, traced, tmp);
    print_result(w, rep, traced, r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pstar_bench: " << e.what() << "\n"
              << "usage: pstar_bench --workload NAME --tmp DIR [--seed S] "
                 "[--rep R] [--trace 0|1]\n"
                 "       pstar_bench --list\n";
    return 2;
  }
}
