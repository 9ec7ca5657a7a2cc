// Wall-clock benchmark of the real-threads DCR backend (exec::ThreadRuntime).
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload closed-loop for S seconds from a single process and
// prints a table, then one JSON result line.  --trace 0 reports the
// end-to-end metrics (profile and scope off); --trace 1 reports the
// per-layer metrics from runs with profile, scope and the timed Context
// decorator on.  README.md explains the workloads and metrics.
//
// Nothing here is virtual time: every duration is std::chrono::steady_clock
// nanoseconds on the host, measured around calls into the public API.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/pennant.hpp"
#include "apps/stencil.hpp"
#include "apps/taskbench.hpp"
#include "common/crc32c.hpp"
#include "dcr/runtime.hpp"
#include "exec/collective.hpp"
#include "exec/gate.hpp"
#include "exec/thread_runtime.hpp"
#include "harness.hpp"
#include "timed_context.hpp"

namespace {

using namespace dcr;
using wallbench::now_ns;
using wallbench::ShardLedger;

// ------------------------------------------------------------- workloads

enum class Workload { StencilReplay, PennantFresh, StencilPhaseAuto, TaskBenchMetg };

constexpr std::pair<const char*, Workload> kWorkloads[] = {
    {"stencil_replay", Workload::StencilReplay},
    {"pennant_fresh", Workload::PennantFresh},
    {"stencil_phase_auto", Workload::StencilPhaseAuto},
    {"taskbench_metg", Workload::TaskBenchMetg},
};

constexpr std::size_t kPhaseEvery = 50;  // stencil_phase_auto phase length
constexpr std::size_t kTbCopies = 4;     // Task Bench independent copies
// Launches stencil_phase_auto issues before its two-phase period is promoted
// and validated; from then on every launch replays (seed code, 16 tiles on 4
// shards or 4 tiles on 1 shard, 950-1050 steps; the simulator agrees).
constexpr std::uint64_t kPhaseWarmupLaunches = 1577;

// One instance of a workload's control program.
struct Shape {
  std::size_t shards = 4;
  std::size_t tiles = 16;  // launch width: tiles, pieces or Task Bench width
  std::size_t steps = 0;   // timesteps / cycles
  std::int64_t cells = 1000;
};

// The seed-drawn parameters of one run.
struct Plan {
  Workload w;
  Shape main;   // zero-work instance: ns_per_task, step latency, setup
  Shape weak;   // `main` with a quarter of the steps: weak-scaling numerator
  Shape small;  // `weak` on 1 shard with 1/shards of the tiles
  Shape check;  // short instance diffed against the simulator backend
  Shape spin;   // busy-spin instance the METG ladder runs
  std::uint32_t slots = 3;  // compute slots (= processors) in spin runs
};

Plan draw_plan(Workload w, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(w));
  auto uni = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Plan p{w, {}, {}, {}, {}, {}, 3};
  const std::int64_t cells = uni(500, 2000);
  switch (w) {
    case Workload::StencilReplay:
      p.main = {4, 16, static_cast<std::size_t>(uni(1900, 2100)), cells};
      p.check = {4, 16, 12, cells};
      p.spin = {4, 16, 24, cells};
      break;
    case Workload::PennantFresh:
      p.main = {4, 16, static_cast<std::size_t>(uni(480, 520)), cells * 10};
      p.check = {4, 16, 6, cells * 10};
      p.spin = {4, 16, 6, cells * 10};
      break;
    case Workload::StencilPhaseAuto:
      p.main = {4, 16, static_cast<std::size_t>(uni(980, 1020)), cells};
      p.check = {4, 16, 150, cells};
      p.spin = {4, 16, 24, cells};
      break;
    case Workload::TaskBenchMetg:
      p.main = {3, 3, static_cast<std::size_t>(2 * uni(950, 1050)), cells};
      p.check = {3, 3, 16, cells};
      p.spin = {3, 3, 64, cells};
      break;
  }
  p.weak = p.main;
  p.weak.steps = p.main.steps / 8 * 2;  // a quarter, kept even for Task Bench
  p.small = p.weak;
  p.small.shards = 1;
  p.small.tiles = p.weak.tiles / p.weak.shards;
  return p;
}

std::size_t smooth_steps(std::size_t steps) {
  std::size_t n = 0;
  for (std::size_t t = 0; t < steps; ++t) n += (t / kPhaseEvery) % 2 == 1;
  return n;
}

// Structural counters every run of a shape must reproduce exactly.
struct Expected {
  std::uint64_t tasks = 0, ops = 0, fences_inserted = 0, fences_elided = 0;
  std::optional<std::uint64_t> traced_ops;  // unset: no closed form for this shape
};

Expected expected(Workload w, const Shape& s) {
  const std::uint64_t T = s.steps, N = s.tiles, S = s.shards;
  Expected e;
  switch (w) {
    case Workload::StencilReplay:
      // fill, 3 launches per step, the program's fence, the runtime's fence.
      e = {3 * N * T, 3 * T + 3, 2 * T + 3, 3 * T - 2, S * 3 * (T - 3)};
      break;
    case Workload::PennantFresh:
      e = {11 * N * T, 12 * T + 4, 6 * T + 3, 17 * T - 5, 0};
      break;
    case Workload::StencilPhaseAuto: {
      const std::uint64_t smooth = smooth_steps(s.steps);
      const std::uint64_t launches = 3 * T + smooth;
      const bool ends_smooth = ((T - 1) / kPhaseEvery) % 2 == 1;
      e = {N * launches, launches + 3, 2 * T + smooth + 3, 3 * T - 2 + (ends_smooth ? 1 : 0),
           std::nullopt};
      if (T >= 950 && T <= 1050) e.traced_ops = S * (launches - kPhaseWarmupLaunches);
      break;
    }
    case Workload::TaskBenchMetg:
      e = {kTbCopies * N * T, kTbCopies * T + 6, kTbCopies * T + 2, kTbCopies * T - 8,
           S * (kTbCopies * T - 24)};
      break;
  }
  return e;
}

// A built control program plus what the harness needs to drive and check it.
// Not movable: the runtime and the app hold references into it.
struct Instance {
  core::FunctionRegistry reg;
  core::ApplicationMain app;
  wallbench::StepMarker marker;
  exec::ThreadConfig cfg;

  Instance(Workload w, const Shape& s, double gran_us) {
    cfg.num_shards = s.shards;
    switch (w) {
      case Workload::StencilReplay:
      case Workload::StencilPhaseAuto: {
        // ns_per_cell 0: every task models exactly 2 us, so work_scale sets a
        // uniform granularity.
        const auto fns = apps::register_stencil_functions(reg, 0.0);
        apps::StencilConfig sc;
        sc.cells_per_tile = s.cells;
        sc.tiles = s.tiles;
        sc.steps = s.steps;
        if (w == Workload::StencilReplay) {
          sc.use_trace = true;
        } else {
          sc.phase_every = kPhaseEvery;
          cfg.auto_trace.enabled = true;
        }
        app = apps::make_stencil_app(sc, fns);
        marker.fn = fns.mul_two;  // exactly one per step in both phases
        cfg.work_scale = gran_us / 2.0;
        break;
      }
      case Workload::PennantFresh: {
        const auto fns = apps::register_pennant_functions(reg, 0.0);  // 4 us each
        apps::PennantConfig pc;
        pc.zones_per_piece = s.cells;
        pc.pieces = s.tiles;
        pc.cycles = s.steps;
        pc.full_physics = true;
        pc.blocking_dt = true;
        app = apps::make_pennant_app(pc, fns);
        cfg.tracing_enabled = false;
        marker.fn = fns.calc_dt;
        // Every piece's dt candidate for cycle k is 1e-3 / (1 + 0.01 k), so
        // the Min reduction the program waits on must return exactly that.
        marker.future_model = [](std::uint64_t k, double v) {
          return v == 1e-3 / (1.0 + 0.01 * static_cast<double>(k));
        };
        cfg.work_scale = gran_us / 4.0;
        break;
      }
      case Workload::TaskBenchMetg: {
        const FunctionId fn = apps::register_taskbench_function(reg);
        apps::TaskBenchConfig tc;
        tc.width = s.tiles;
        tc.steps = s.steps;
        tc.copies = kTbCopies;
        tc.use_trace = true;
        tc.task_granularity = static_cast<SimTime>(gran_us * 1000.0);
        app = apps::make_taskbench_app(tc, fn);
        marker.fn = fn;
        marker.every = kTbCopies;
        cfg.work_scale = gran_us > 0 ? 1.0 : 0.0;
        break;
      }
    }
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
};

// ----------------------------------------------------------- one execute

// Structural prof counters: summed over shards they match across backends.
constexpr prof::Counter kProfCounters[] = {
    prof::Counter::CoarseOps,          prof::Counter::TracedCoarseOps,
    prof::Counter::FinePoints,         prof::Counter::FenceWaits,
    prof::Counter::FutureWaits,        prof::Counter::StaticSkipPoints,
    prof::Counter::TemplateWindowHits, prof::Counter::TemplateWindowMisses,
};

struct RunRecord {
  core::DcrStats stats;
  std::int64_t wall_ns = 0;   // around execute()
  std::int64_t setup_ns = 0;  // runtime construction -> shard 0's first index launch
  std::vector<ShardLedger> ledgers;
  // Whole-run layer counters (prof totals over shards, after join).
  std::map<std::string, double> prof;
  std::string failure;  // empty = passed every check
};

struct ExecOptions {
  bool traced = false;          // profile + scope + timed decorator
  std::uint32_t slots = 0;      // compute slots (spin runs)
};

RunRecord run_instance(Workload w, const Shape& s, double gran_us, const ExecOptions& opt) {
  Instance in(w, s, gran_us);
  in.cfg.compute_slots = opt.slots;
  in.cfg.profile = opt.traced;
  in.cfg.scope = opt.traced;
  RunRecord r;
  r.ledgers.resize(s.shards);
  for (ShardLedger& l : r.ledgers) l.boundaries.reserve(s.steps + 1);

  const std::int64_t t0 = now_ns();
  exec::ThreadRuntime rt(in.reg, in.cfg);
  exec::ThreadRuntime* rtp = &rt;
  std::vector<ShardLedger>* ledgers = &r.ledgers;
  const wallbench::StepMarker* marker = &in.marker;
  const core::ApplicationMain* app = &in.app;
  const bool timed = opt.traced;
  const core::ApplicationMain wrapped = [=](core::Context& ctx) {
    const std::uint32_t sid = ctx.shard_id().value;
    ShardLedger& l = (*ledgers)[sid];
    l.start = l.last = now_ns();
    {
      wallbench::TimedContext tc(ctx, l, *marker, timed);
      (*app)(tc);
    }
    l.end = now_ns();
    if (timed) l.control_ns += l.end - l.last;
    const prof::Counters& pc = rtp->profiler().shard(sid);
    l.coarse_ns = pc.get(prof::Counter::CoarseAnalysisNs);
    l.fine_ns = pc.get(prof::Counter::FineAnalysisNs);
    l.fence_ns = pc.get(prof::Counter::FenceWaitNs);
    l.future_ns = pc.get(prof::Counter::FutureWaitNs);
  };
  const std::int64_t e0 = now_ns();
  r.stats = rt.execute(wrapped);
  r.wall_ns = now_ns() - e0;
  r.setup_ns = r.ledgers[0].first_launch - t0;

  const prof::Profiler& p = rt.profiler();
  for (prof::Counter c : kProfCounters) r.prof[prof::name(c)] = static_cast<double>(p.total(c));
  r.prof["fences_elided_global"] =
      static_cast<double>(p.global().get(prof::GlobalCounter::FencesElided));
  r.prof["fence_decisions_global"] =
      static_cast<double>(p.global().get(prof::GlobalCounter::FenceDecisions));

  // ---- correctness gate ----
  std::ostringstream why;
  const core::DcrStats& st = r.stats;
  if (!st.completed || st.aborted) why << "run did not complete: " << st.abort_message << "; ";
  if (st.determinism_violation) why << "determinism violation: " << st.violation_message << "; ";
  const Expected e = expected(w, s);
  auto eq = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got != want) why << what << " " << got << " != expected " << want << "; ";
  };
  eq("point tasks", st.point_tasks_launched, e.tasks);
  eq("ops", st.ops_issued, e.ops);
  eq("fences inserted", st.fences_inserted, e.fences_inserted);
  eq("fences elided", st.fences_elided, e.fences_elided);
  if (e.traced_ops) eq("traced ops", st.traced_ops, *e.traced_ops);
  // Every workload but pennant_fresh (tracing off) must actually replay.
  if (w != Workload::PennantFresh && st.template_replays == 0) why << "no template replays; ";
  for (std::size_t sh = 0; sh < r.ledgers.size(); ++sh) {
    const ShardLedger& l = r.ledgers[sh];
    eq("step boundaries", l.boundaries.size(), s.steps);
    if (l.futures_wrong != 0) why << "shard " << sh << ": " << l.futures_wrong << " wrong dt; ";
    if (in.marker.future_model) eq("dt values checked", l.futures_checked, s.steps);
    if (timed) {
      // Closure: control + API time is the shard's wall time, and the runtime
      // layers nest inside API time.
      const std::int64_t wall = l.end - l.start;
      const std::int64_t sum = l.control_ns + l.api_ns;
      const std::int64_t layers =
          static_cast<std::int64_t>(l.coarse_ns + l.fine_ns + l.fence_ns + l.future_ns);
      if (std::llabs(sum - wall) > wall / 100 + 20'000) {
        why << "shard " << sh << ": control+api " << sum << " ns != wall " << wall << "; ";
      }
      if (layers > l.api_ns + l.api_ns / 100) {
        why << "shard " << sh << ": layers " << layers << " ns exceed api " << l.api_ns << "; ";
      }
    }
  }
  r.failure = why.str();
  return r;
}

// ------------------------------------------------- simulator cross-check

// Runs the plan's short instance on the simulator backend and on threads and
// diffs every structural counter.  Returns "" when they agree.
std::string cross_check(Workload w, const Shape& s) {
  Instance sim_in(w, s, 0.0);
  core::DcrConfig dc;
  dc.tracing_enabled = sim_in.cfg.tracing_enabled;
  dc.auto_trace = sim_in.cfg.auto_trace;
  sim::Machine machine(sim::MachineConfig{
      .num_nodes = s.shards,
      .compute_procs_per_node = 1,
      .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}});
  core::DcrRuntime sim_rt(machine, sim_in.reg, dc);
  const core::DcrStats a = sim_rt.execute(sim_in.app);
  const RunRecord thr = run_instance(w, s, 0.0, {});
  const core::DcrStats& b = thr.stats;

  std::ostringstream why;
  if (!a.completed || a.determinism_violation) why << "simulator run failed; ";
  if (!thr.failure.empty()) why << "threads: " << thr.failure;
  auto diff = [&](const char* what, std::uint64_t x, std::uint64_t y) {
    if (x != y) why << what << " sim " << x << " != threads " << y << "; ";
  };
  diff("ops", a.ops_issued, b.ops_issued);
  diff("point tasks", a.point_tasks_launched, b.point_tasks_launched);
  diff("fences inserted", a.fences_inserted, b.fences_inserted);
  diff("fences elided", a.fences_elided, b.fences_elided);
  diff("coarse deps", a.coarse_deps, b.coarse_deps);
  diff("determinism checks", a.determinism_checks, b.determinism_checks);
  diff("traced ops", a.traced_ops, b.traced_ops);
  diff("templates captured", a.templates_captured, b.templates_captured);
  diff("template replays", a.template_replays, b.template_replays);
  diff("validation failures", a.template_validation_failures, b.template_validation_failures);
  diff("auto promotions", a.auto_trace_promotions, b.auto_trace_promotions);
  diff("auto demotions", a.auto_trace_demotions, b.auto_trace_demotions);
  diff("statics skipped points", a.statics_skipped_points, b.statics_skipped_points);
  for (prof::Counter c : kProfCounters) {
    diff(prof::name(c), sim_rt.profiler().total(c),
         static_cast<std::uint64_t>(thr.prof.at(prof::name(c))));
  }
  return why.str();
}

// ------------------------------------------------------------- watchdog

// Per-run wall-clock deadline.  A shard that throws or diverges leaves the
// other shards parked at a fence forever, so execute() never returns; the
// watchdog then prints what was measured so far and ends the process.
class Watchdog {
 public:
  explicit Watchdog(std::string header) : header_(std::move(header)) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void arm(std::string what, double seconds) {
    std::lock_guard<std::mutex> lk(mu_);
    what_ = std::move(what);
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000));
    cv_.notify_all();
  }
  void set_partial(std::string partial) {
    std::lock_guard<std::mutex> lk(mu_);
    partial_ = std::move(partial);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (stop_) return;
      if (std::chrono::steady_clock::now() >= deadline_) {
        std::printf("DEADLINE %s: %s did not finish in time\npartial results: %s\n",
                    header_.c_str(), what_.c_str(), partial_.c_str());
        std::fflush(stdout);
        std::_Exit(3);
      }
      if (deadline_ == std::chrono::steady_clock::time_point::max()) {
        cv_.wait(lk);
      } else {
        cv_.wait_until(lk, deadline_);
      }
    }
  }

  const std::string header_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::string what_ = "start-up";
  std::string partial_ = "none";
  std::chrono::steady_clock::time_point deadline_ = std::chrono::steady_clock::time_point::max();
  std::thread thread_;
};

// ---------------------------------------------------------------- probes

// Isolated FenceCollective round trip at `ranks` threads, ns per round.
double probe_fence_rt_ns(std::uint32_t ranks) {
  constexpr int kRounds = 20000;
  exec::FenceCollective fence(ranks);
  std::vector<std::thread> helpers;
  for (std::uint32_t r = 1; r < ranks; ++r) {
    helpers.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) fence.arrive_and_wait();
    });
  }
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kRounds; ++i) fence.arrive_and_wait();
  const std::int64_t t1 = now_ns();
  for (std::thread& t : helpers) t.join();
  return static_cast<double>(t1 - t0) / kRounds;
}

// ConcurrencyGate acquire + release pair with `slots` threads sharing a gate
// of `slots` capacity, ns per pair.
double probe_gate_ns(std::uint32_t slots) {
  constexpr int kPairs = 200000;
  exec::ConcurrencyGate gate(slots);
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> total{0};
  for (std::uint32_t s = 0; s < slots; ++s) {
    threads.emplace_back([&] {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kPairs; ++i) {
        gate.acquire();
        gate.release();
      }
      total.fetch_add(now_ns() - t0);
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(total.load()) / (static_cast<double>(slots) * kPairs);
}

// common/crc32c throughput, ns per KiB.
double probe_crc32c_ns_per_kib() {
  std::vector<unsigned char> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i * 131);
  std::uint32_t crc = 0;
  int reps = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (t1 - t0 < 50'000'000) {
    crc = dcr::crc32c(buf.data(), buf.size(), crc);
    ++reps;
    t1 = now_ns();
  }
  volatile std::uint32_t sink = crc;  // keeps the loop from being optimized away
  (void)sink;
  return static_cast<double>(t1 - t0) / (reps * 64.0);
}

// ------------------------------------------------------------- reporting

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Host CPU time (total, stolen by the hypervisor) in clock ticks, from the
// first line of /proc/stat.  Steal is time this machine's virtual CPUs were
// runnable but not running; a run with much of it measured the neighbours.
std::pair<double, double> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  f >> cpu;
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {total, steal};
}

void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Result accumulator shared by both modes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  bool admit(const RunRecord& r, const char* what) {
    attempted++;
    if (r.failure.empty()) return true;
    failed++;
    if (failures.size() < 5) failures.push_back(std::string(what) + ": " + r.failure);
    return false;
  }
};

double med(const std::vector<double>& v) { return wallbench::median(v).value_or(0.0); }

// Time-share scheduler: runs whichever activity is furthest below its share
// of the measured time until the budget is spent, so slow drift in the host
// hits every activity alike.
struct Activity {
  const char* name;
  double share;
  std::function<void()> unit;
  double spent = 0;
};

void run_shares(std::vector<Activity>& acts, double seconds, Watchdog& dog,
                const std::function<std::string()>& partial) {
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() - start < budget) {
    Activity* next = &acts[0];
    for (Activity& a : acts) {
      if (a.spent / a.share < next->spent / next->share) next = &a;
    }
    dog.arm(next->name, 60.0);
    const std::int64_t t0 = now_ns();
    next->unit();
    next->spent += static_cast<double>(now_ns() - t0);
    dog.set_partial(partial());
  }
}

constexpr double kLadderUs[] = {2, 2.83, 4, 5.66, 8, 11.3, 16, 22.6, 32, 45.3, 64, 90.5,
                                128, 181, 256, 362, 512};
constexpr int kRungReps = 5;

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload_name = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  std::optional<Workload> wopt;
  for (const auto& [name, w] : kWorkloads) {
    if (workload_name == name) wopt = w;
  }
  if (!wopt || !(seconds > 0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload stencil_replay|pennant_fresh|"
                 "stencil_phase_auto|taskbench_metg --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload w = *wopt;
  const Plan plan = draw_plan(w, seed);
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < plan.main.shards) {
    std::fprintf(stderr, "need %zu cores for %zu shard threads, have %u\n",
                 plan.main.shards, plan.main.shards, cores);
    return 2;
  }

  std::ostringstream hdr;
  hdr << "workload=" << workload_name << " seed=" << seed << " trace=" << trace;
  Watchdog dog(hdr.str());
  std::printf("wallbench %s seconds=%g\n", hdr.str().c_str(), seconds);
  std::printf("  shape: %zu shards, %zu tiles, %zu steps; weak scaling at %zu steps; "
              "spin shape %zu steps on %u slots\n",
              plan.main.shards, plan.main.tiles, plan.main.steps, plan.weak.steps,
              plan.spin.steps, plan.slots);

  Tally tally;
  // ---- preflight: the short instance on both backends ----
  dog.arm("simulator cross-check", 60.0);
  {
    const std::string why = cross_check(w, plan.check);
    tally.attempted++;
    if (!why.empty()) {
      tally.failed++;
      tally.failures.push_back("cross-check: " + why);
    }
  }
  reset_peak_rss();
  dog.set_partial("cross-check " + std::string(tally.failed ? "failed" : "passed"));
  const auto ticks0 = cpu_ticks();

  std::vector<Metric> metrics;
  auto partial = [&] {
    std::ostringstream os;
    os << "attempted=" << tally.attempted << " failed=" << tally.failed;
    for (const std::string& f : tally.failures) os << " | " << f;
    return os.str();
  };

  const double tasks_main = static_cast<double>(expected(w, plan.main).tasks);

  if (trace == 0) {
    std::vector<double> ns_per_task, setup_s, step_p50, step_p90, step_p99, weak_eff, eff32, metgs;
    std::size_t step_samples = 0;
    std::size_t censored_ladders = 0;
    auto main_unit = [&] {
      RunRecord r = run_instance(w, plan.main, 0.0, {});
      if (!tally.admit(r, "main")) return;
      ns_per_task.push_back(static_cast<double>(r.wall_ns) / tasks_main);
      // Step latencies pooled over this execute's shards; the run reports the
      // median over executes, so one preempted execute cannot set the tail.
      std::vector<double> steps_us;
      for (const ShardLedger& l : r.ledgers) {
        for (std::size_t i = 1; i < l.boundaries.size(); ++i) {
          steps_us.push_back(static_cast<double>(l.boundaries[i] - l.boundaries[i - 1]) * 1e-3);
        }
      }
      step_samples += steps_us.size();
      step_p50.push_back(wallbench::quantile(steps_us, 0.5).value_or(0));
      step_p90.push_back(wallbench::quantile(steps_us, 0.9).value_or(0));
      step_p99.push_back(wallbench::quantile(steps_us, 0.99).value_or(0));
    };
    auto setup_unit = [&] {
      RunRecord r = run_instance(w, plan.spin, 0.0, {});
      if (tally.admit(r, "setup")) setup_s.push_back(static_cast<double>(r.setup_ns) * 1e-9);
    };
    auto weak_unit = [&] {
      // Back to back, so both halves of a pair see the same host load.
      RunRecord a = run_instance(w, plan.small, 0.0, {});
      RunRecord b = run_instance(w, plan.weak, 0.0, {});
      const bool ok_a = tally.admit(a, "weak small");
      const bool ok_b = tally.admit(b, "weak big");
      if (ok_a && ok_b) {
        weak_eff.push_back(static_cast<double>(a.wall_ns) / static_cast<double>(b.wall_ns));
      }
    };
    const double spin_tasks = static_cast<double>(expected(w, plan.spin).tasks);
    auto efficiency = [&](double g_us) -> std::optional<double> {
      RunRecord r = run_instance(w, plan.spin, g_us, {.slots = plan.slots});
      if (!tally.admit(r, "spin")) return std::nullopt;
      return spin_tasks * g_us * 1000.0 / (plan.slots * static_cast<double>(r.wall_ns));
    };
    auto spin_unit = [&] {
      // One METG ladder: walk up the rungs, median of kRungReps per rung,
      // until efficiency reaches 50%.
      std::vector<wallbench::Rung> ladder;
      for (double g : kLadderUs) {
        std::vector<double> effs;
        for (int i = 0; i < kRungReps; ++i) {
          if (auto e = efficiency(g)) effs.push_back(*e);
        }
        if (effs.empty()) return;
        ladder.push_back({g, med(effs)});
        if (ladder.back().efficiency >= 0.5) break;
      }
      if (auto m = wallbench::metg(ladder)) {
        metgs.push_back(*m);
      } else {
        metgs.push_back(kLadderUs[std::size(kLadderUs) - 1]);  // censored at the top rung
        censored_ladders++;
      }
      for (int i = 0; i < kRungReps; ++i) {
        if (auto e = efficiency(32.0)) eff32.push_back(*e);
      }
    };
    std::vector<Activity> acts = {{"main execute", 0.45, main_unit},
                                  {"weak-scaling pair", 0.20, weak_unit},
                                  {"METG ladder", 0.30, spin_unit},
                                  {"set-up sample", 0.05, setup_unit}};
    run_shares(acts, seconds, dog, partial);

    const double p_hi =
        wallbench::supported_percentile(step_samples / std::max<std::size_t>(1, step_p99.size()));
    metrics = {
        {"ns_per_task", med(ns_per_task), "ns", ns_per_task.size()},
        {"step_us_p50", med(step_p50), "us", step_samples},
        {"step_us_p90", med(step_p90), "us", step_samples},
        {"weak_scaling_eff", med(weak_eff), "ratio", weak_eff.size()},
        {"metg_us", med(metgs), "us", metgs.size()},
        {"eff_32us", med(eff32), "ratio", eff32.size()},
        {"setup_s", med(setup_s), "s", setup_s.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
    std::printf("  step samples %zu over %zu executes (shards pooled per execute); "
                "highest percentile with 10 samples beyond it per execute: p%g\n",
                step_samples, step_p99.size(), p_hi * 100);
    // Not a gated metric: on a shared virtual machine the step p99 follows the
    // hypervisor's steal rate more than the runtime (README.md).
    std::printf("  step_us_p99 %.6g us (median over executes; reported, not gated)\n",
                med(step_p99));
    if (censored_ladders > 0) {
      std::printf("  %zu METG ladders never reached 50%% (counted at the top rung)\n",
                  censored_ladders);
    }
  } else {
    // ---- traced run: per-layer split of the same instances ----
    std::map<std::string, std::vector<double>> L;
    auto put = [&](const char* k, double v) { L[k].push_back(v); };
    std::vector<double> untraced_npt, traced_npt, coarse_small, gate_overhead;

    put("fence.probe_rt_ns", probe_fence_rt_ns(static_cast<std::uint32_t>(plan.main.shards)));
    put("gate.probe_ns", probe_gate_ns(plan.slots));
    put("crc32c.probe_ns_per_kib", probe_crc32c_ns_per_kib());

    auto traced_unit = [&] {
      RunRecord r = run_instance(w, plan.main, 0.0, {.traced = true});
      if (!tally.admit(r, "traced")) return;
      traced_npt.push_back(static_cast<double>(r.wall_ns) / tasks_main);
      double wall = 0, control = 0, api = 0, calls = 0, coarse = 0, fine = 0, fence = 0,
             future = 0, steps = 0;
      for (const ShardLedger& l : r.ledgers) {
        wall += static_cast<double>(l.end - l.start);
        control += static_cast<double>(l.control_ns);
        api += static_cast<double>(l.api_ns);
        calls += static_cast<double>(l.calls);
        coarse += static_cast<double>(l.coarse_ns);
        fine += static_cast<double>(l.fine_ns);
        fence += static_cast<double>(l.fence_ns);
        future += static_cast<double>(l.future_ns);
        steps += static_cast<double>(l.boundaries.size());
      }
      const double shards = static_cast<double>(plan.main.shards);
      const double ops = static_cast<double>(r.stats.ops_issued) * shards;
      auto pr = [&](const char* k) { return r.prof.at(k); };
      const double coarse_ops = pr("coarse_ops") + pr("traced_coarse_ops");
      put("control.ns_per_step", control / steps);
      put("api.calls", calls);
      put("api.ns_per_call", api / calls);
      put("issue.ns_per_op", (api - coarse - fine - fence - future) / ops);
      put("coarse.fresh_ops", pr("coarse_ops"));
      put("coarse.replayed_ops", pr("traced_coarse_ops"));
      put("coarse.ns_per_op", coarse / coarse_ops);
      put("fine.points", pr("fine_points"));
      put("fine.ns_per_point", pr("fine_points") > 0 ? fine / pr("fine_points") : 0);
      put("statics.skip_ratio",
          pr("fine_points") > 0 ? pr("static_skip_points") / pr("fine_points") : 0);
      put("fence.waits", pr("fence_waits"));
      put("fence.ns_per_wait", pr("fence_waits") > 0 ? fence / pr("fence_waits") : 0);
      put("fence.wait_share", fence / wall);
      put("fence.elided_ratio",
          pr("fence_decisions_global") > 0
              ? pr("fences_elided_global") / pr("fence_decisions_global")
              : 0);
      put("future.waits", pr("future_waits"));
      put("future.ns_per_wait", pr("future_waits") > 0 ? future / pr("future_waits") : 0);
      put("future.wait_share", future / wall);
      put("template.replay_ratio", static_cast<double>(r.stats.traced_ops) / ops);
      put("template.window_hits", pr("template_window_hits"));
      put("template.window_misses", pr("template_window_misses"));
      put("template.captures", static_cast<double>(r.stats.templates_captured));
      put("template.validation_failures",
          static_cast<double>(r.stats.template_validation_failures));
      put("trace_id.promotions", static_cast<double>(r.stats.auto_trace_promotions));
      put("trace_id.demotions", static_cast<double>(r.stats.auto_trace_demotions));
      put("trace_id.aborts", static_cast<double>(r.stats.auto_trace_aborts));
    };
    auto untraced_unit = [&] {
      RunRecord r = run_instance(w, plan.main, 0.0, {});
      if (tally.admit(r, "untraced")) {
        untraced_npt.push_back(static_cast<double>(r.wall_ns) / tasks_main);
      }
    };
    auto small_unit = [&] {
      RunRecord r = run_instance(w, plan.small, 0.0, {.traced = true});
      if (!tally.admit(r, "traced small")) return;
      const double ops = r.prof.at("coarse_ops") + r.prof.at("traced_coarse_ops");
      coarse_small.push_back(static_cast<double>(r.ledgers[0].coarse_ns) / ops);
    };
    const double spin_tasks = static_cast<double>(expected(w, plan.spin).tasks);
    auto gate_unit = [&] {
      RunRecord r = run_instance(w, plan.spin, 32.0, {.slots = plan.slots});
      if (!tally.admit(r, "spin")) return;
      const double useful = spin_tasks * 32'000.0;
      gate_overhead.push_back((plan.slots * static_cast<double>(r.wall_ns) - useful) /
                              spin_tasks);
    };
    std::vector<Activity> acts = {{"traced execute", 0.40, traced_unit},
                                  {"untraced execute", 0.25, untraced_unit},
                                  {"traced 1-shard execute", 0.20, small_unit},
                                  {"spin execute at 32 us", 0.15, gate_unit}};
    run_shares(acts, seconds, dog, partial);

    // Metrics in the order README.md lists them.
    const char* order[][2] = {
        {"control.ns_per_step", "ns"},   {"api.calls", "count"},
        {"api.ns_per_call", "ns"},       {"issue.ns_per_op", "ns"},
        {"coarse.fresh_ops", "count"},   {"coarse.replayed_ops", "count"},
        {"coarse.ns_per_op", "ns"},      {"fine.points", "count"},
        {"fine.ns_per_point", "ns"},     {"statics.skip_ratio", "ratio"},
        {"fence.waits", "count"},        {"fence.ns_per_wait", "ns"},
        {"fence.wait_share", "ratio"},   {"fence.elided_ratio", "ratio"},
        {"fence.probe_rt_ns", "ns"},     {"future.waits", "count"},
        {"future.ns_per_wait", "ns"},    {"future.wait_share", "ratio"},
        {"template.replay_ratio", "ratio"}, {"template.window_hits", "count"},
        {"template.window_misses", "count"}, {"template.captures", "count"},
        {"template.validation_failures", "count"}, {"trace_id.promotions", "count"},
        {"trace_id.demotions", "count"}, {"trace_id.aborts", "count"},
        {"crc32c.probe_ns_per_kib", "ns"}, {"gate.probe_ns", "ns"},
    };
    for (const auto& [name, unit] : order) {
      const std::vector<double>& v = L[name];
      metrics.push_back({name, med(v), unit, v.size()});
      if (std::strcmp(name, "coarse.ns_per_op") == 0) {
        const double big = med(v);
        const double small = med(coarse_small);
        metrics.push_back({"coarse.contention_x", small > 0 ? big / small : 0.0, "x",
                           std::min(v.size(), coarse_small.size())});
      }
    }
    metrics.push_back({"gate.overhead_ns_per_task", med(gate_overhead), "ns",
                       gate_overhead.size()});
    const double base = med(untraced_npt);
    metrics.push_back({"trace_overhead_pct",
                       base > 0 ? (med(traced_npt) - base) / base * 100.0 : 0.0, "%",
                       std::min(traced_npt.size(), untraced_npt.size())});
  }

  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  const auto ticks1 = cpu_ticks();
  if (ticks1.first > ticks0.first) {
    std::printf("  host steal during the run: %.1f%% of CPU time\n",
                100.0 * (ticks1.second - ticks0.second) / (ticks1.first - ticks0.first));
  }
  for (const std::string& f : tally.failures) std::printf("  FAILED %s\n", f.c_str());
  std::printf("  runs attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));

  std::ostringstream js;
  js << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return 0;
}
