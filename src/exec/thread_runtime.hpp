// Real-threads execution backend: every shard of the control-replicated
// program runs as an OS thread, behind the same application API (Context) and
// observable surface (DcrStats, spy::Trace, prof::Profiler, realized task
// graph) as the discrete-event simulator backend (dcr/runtime.hpp).
//
// The load-bearing property is differential determinism: the same program
// produces a spy-identical task graph — identical §3 call-hash streams,
// identical op/coarse-dependence/elision records, identical realized tasks
// and edges, identical template window hits and statics verdicts — on both
// backends.  That is not an accident of testing but of construction:
//
//  * the §3 call hashing (dcr/sig.hpp), the op model (dcr/ops.hpp), the
//    whole coarse dependence stage (dcr/coarse.hpp), and the control-plane
//    front end (dcr/shard_front.hpp: the hash-and-issue API calls, trace
//    windows and the auto-trace tap, template capture/validate/replay) are
//    the *same code* on both backends.  The simulator runs one logical
//    CoarseAnalyzer from its event loop; on threads every shard runs its own
//    replica, as in the paper (§4.1), so no shard ever waits for another's
//    analysis;
//  * per-shard state that the simulator replicates logically (region forest,
//    sharding memoization, coarse analyzer, statics prover, template store,
//    RNG) is replicated physically — one instance per thread, no sharing, no
//    locks.  Shard 0's analyzer alone does the once-per-op accounting (prof
//    global fence/elision/statics counters, the statics ledger, the coarse
//    DcrStats mirrors and the spy op/coarse-dep records);
//  * cross-shard coordination uses wall-clock primitives with the same
//    ordering as the simulated collectives: one CompletionFrontier for every
//    pipeline fence of the run (the fence before op B waits until every peer
//    has executed every op below B, as the simulator's barrier does, without
//    waiting for peers to reach B), ValueCollective (per-rank slots,
//    rank-ordered combine) for future all-reduce, and bounded lock-free SPSC
//    mailboxes for broadcast future-value delivery.
//
// Fail-stop: every fenced op logs the op it fences and the shard's running §3
// call fold, and the shard that logs an ordinal last compares every shard's
// entry, so a diverged shard is caught at its next fence (at the latest, at
// the program-end entry every shard logs after its final fence) and the run
// aborts with a determinism violation naming the op and the shards.  A shard
// whose control program throws poisons the frontier.  Either way every shard
// parked at a fence or in a future wait (single-task mailbox or reduce
// collective) wakes and unwinds, and the run aborts with the first cause.
//
// tests/test_exec.cpp enforces the property by running every fuzz program
// through both backends and diffing with spy::graph_equivalent.
//
// dcr-scope on threads (ThreadConfig::scope): the full causal-tracing stack
// runs on wall-clock time — TraceCtx rides the SPSC mailbox payloads, each
// shard writes its fence arrival/wake instants into its own single-writer
// Recorder ledger, and the join folds them into per-fence blame records (the
// releaser is the shard whose completion of the ops below the fence came
// last) that reconcile exactly against prof FenceWaitNs because the *same two
// clock reads* feed both ledgers.  A bounded per-shard flight-recorder ring
// (scope/flight.hpp) is dumped on determinism-violation aborts for
// post-mortem triage without a re-run.
//
// Deliberate non-goals (simulator-only features): fault injection and
// recovery, SDC replication, the physical data-movement model (bytes_moved
// reports 0; messages counts mailbox publishes only under scope), and
// deferred deletions (destroy_region_deferred aborts — there is no consensus
// poller).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/philox.hpp"
#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/coarse.hpp"
#include "dcr/mapper.hpp"
#include "dcr/ops.hpp"
#include "dcr/runtime.hpp"
#include "dcr/shard_front.hpp"
#include "dcr/sharding.hpp"
#include "dcr/template.hpp"
#include "dcr/trace_id.hpp"
#include "dcr/user_tracker.hpp"
#include "exec/clock.hpp"
#include "exec/collective.hpp"
#include "exec/gate.hpp"
#include "exec/queue.hpp"
#include "prof/profiler.hpp"
#include "scope/recorder.hpp"
#include "runtime/region.hpp"
#include "runtime/requirement.hpp"
#include "runtime/task_graph.hpp"
#include "spy/trace.hpp"
#include "statics/lint.hpp"
#include "statics/prover.hpp"

namespace dcr::exec {

struct ThreadConfig {
  std::size_t num_shards = 2;

  // Concurrency cap for point-task execution (the stand-in for "P compute
  // cores"); 0 = uncapped.  Analysis always runs one thread per shard.
  std::uint32_t compute_slots = 0;

  // Each point task occupies a compute slot for (virtual duration ×
  // work_scale) wall nanoseconds, so the ConcurrencyGate yields measurable
  // strong scaling (bench/bench_exec.cpp).  0 = tasks are pure bookkeeping
  // (the differential tests).
  double work_scale = 0.0;

  // How the slot is occupied: busy-spin (models host-side compute — needs as
  // many cores as slots to actually scale) or a timed sleep (models the host
  // thread blocked on an offloaded accelerator kernel — sleeps overlap even
  // on a single core, so this is what bench_exec uses).
  bool work_sleep = false;

  // Per-(producer, consumer) SPSC future-value mailbox capacity.  The lock-
  // free ring covers the common case; overflow spills to a small mutexed
  // side buffer so a producer never blocks on a slow consumer (which could
  // deadlock against a fence).
  std::size_t mailbox_capacity = 256;

  // Analysis knobs, mirroring DcrConfig (dcr/runtime.hpp).
  bool determinism_checks = true;
  bool tracing_enabled = true;
  bool template_validation = true;
  // Automatic repeated-trace identification (dcr/trace_id.hpp): same detector
  // as the simulator backend, one instance per shard thread.
  core::TraceIdConfig auto_trace;
  bool disable_fence_elision = false;
  bool static_analysis = true;
  bool statics_check = false;
  bool record_task_graph = false;
  bool record_trace = false;  // implies record_task_graph
  bool profile = false;       // wall-clock prof spans via exec::WallClock

  // dcr-scope causal tracing (scope/recorder.hpp): thread-safe per-shard
  // ledgers on wall-clock time.  TraceCtx rides the mailbox payloads and the
  // value-collective arrivals, and each shard records its own fence arrivals;
  // blame reports reconcile exactly against prof FenceWaitNs (the same clock
  // reads feed both).
  bool scope = false;
  // Crash flight recorder (scope/flight.hpp): ring of the most recent scope
  // events per shard, dumped to flight_path as Perfetto-loadable JSON when a
  // determinism violation aborts the run.  Requires scope; "" = keep the ring
  // in memory only (still dumpable via flight()).
  std::size_t flight_capacity = 256;
  std::string flight_path;

  // Deterministic mapping policy; must also be thread-safe (it is queried
  // concurrently from every shard thread).  nullptr = default policies.
  core::Mapper* mapper = nullptr;
};

class ThreadRuntime {
 public:
  ThreadRuntime(core::FunctionRegistry& functions, ThreadConfig config = {});
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  // Runs `main` replicated across num_shards OS threads; returns once every
  // thread joins.  A control divergence caught at a fence sets
  // determinism_violation and aborted; a shard exception sets aborted with
  // that shard's message.  DcrStats::makespan is wall-clock nanoseconds; the
  // simulator-only fields (bytes_moved, messages, analysis_busy,
  // compute_busy, fault/SDC counters) are 0.
  core::DcrStats execute(const core::ApplicationMain& main);

  std::size_t num_shards() const { return config_.num_shards; }

  // Registration (before execute only): shardings are replicated into every
  // shard's registry; the projection registry is shared and read-only during
  // execution.
  ShardingId register_sharding(core::ShardingRegistry::ShardingFn fn);
  rt::ProjectionRegistry& projections() { return projections_; }

  // Observability, mirroring DcrRuntime.
  const spy::Trace* trace() const { return trace_.get(); }
  prof::Profiler& profiler() { return profiler_; }
  const prof::Profiler& profiler() const { return profiler_; }
  const rt::TaskGraph& realized_graph() const { return realized_graph_; }
  struct RealizedTask {
    TaskId id;
    OpId op;
    std::uint64_t point_index;
  };
  const std::vector<RealizedTask>& realized_tasks() const { return realized_tasks_; }
  const statics::LaunchLedger& statics_ledger() const { return statics_ledger_; }
  struct FunctionProfile {
    std::uint64_t tasks = 0;
    SimTime total_time = 0;  // summed virtual durations (cost model, not wall)
  };
  const std::map<FunctionId, FunctionProfile>& profile() const { return profile_; }
  core::TemplateManager& shard_templates(ShardId s);
  const core::TraceIdentifier& shard_auto_tracer(ShardId s);
  const Clock& clock() const { return clock_; }
  // dcr-scope causal ledger; non-null iff config.scope (name shadows the
  // namespace inside this class, hence the qualified type — same convention
  // as DcrRuntime::scope()).
  const dcr::scope::Recorder* scope() const { return scope_.get(); }
  const dcr::scope::FlightRecorder* flight() const { return flight_.get(); }

 private:
  friend class ThreadShardContext;

  struct FmPartial {
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  struct FutureMsg {
    std::uint64_t id = 0;
    double value = 0.0;
    // Causal context of the publish (ThreadConfig::scope): rides the SPSC
    // mailbox so the waiter can name the span that released its future wait.
    dcr::scope::TraceCtx ctx;
  };

  struct CachedFuture {
    double value = 0.0;
    dcr::scope::TraceCtx ctx;  // context the value was delivered with
  };

  // State owned by exactly one shard thread — the physical replica of what
  // the simulator backend replicates logically.  The control-plane part
  // (cursors, RNG, templates, trace windows) is core::FrontState, shared
  // with the simulator.
  struct ThreadShard : core::FrontState {
    rt::RegionForest forest;
    core::ShardingRegistry shardings;
    std::unique_ptr<statics::InterferenceProver> prover;  // over this forest
    std::unique_ptr<core::CoarseAnalyzer> coarse;         // this shard's replica
    Hash128 call_fold{};  // running fold of §3 call hashes, logged at every fence
    std::map<std::uint64_t, CachedFuture> future_cache;  // delivered broadcast values
    std::map<std::uint64_t, FmPartial> fm_partials; // own partials per future map
    std::vector<FunctionProfile> profile;  // by FunctionId; merged into profile_ at join
    // Fine-stage scratch reused by every point task, so a launch copies
    // requirements and args into existing capacity instead of allocating.
    core::PointTaskInfo point_info;
    // Inbound future-value transport: one SPSC ring per producer shard plus
    // a mutexed overflow so producers never block (see ThreadConfig).
    std::vector<std::unique_ptr<SpscQueue<FutureMsg>>> inbox;
    std::mutex overflow_mu;
    std::vector<FutureMsg> overflow;
    alignas(kCacheLine) std::atomic<std::uint64_t> doorbell{0};
  };

  struct FutureEntry {
    bool reduce = false;
    ShardId owner;                          // broadcast root (single-task owner)
    std::shared_ptr<ValueCollective> coll;  // non-null iff reduce
  };

  ThreadShard& shard(ShardId s) { return *shards_[s.value]; }

  void ensure_future(std::uint64_t id, OpId producer);
  void ensure_reduce_future(std::uint64_t id, core::ReduceOp rop);
  void publish_future(ThreadShard& st, std::uint64_t id, double value);
  void drain_inbox(ThreadShard& st);
  CachedFuture wait_broadcast(ThreadShard& st, std::uint64_t id);
  // The calling shard's current causal context; invalid when scope is off.
  dcr::scope::TraceCtx scope_ctx(const ThreadShard& st) const;
  bool checks_enabled() const;

  void issue(class ThreadShardContext& ctx, core::OpPayload payload);
  void process_op(ThreadShard& st, const core::OpRecord& op);
  void execute_points(ThreadShard& st, const core::OpRecord& op);
  // Launches one point task whose requirements and args the caller has put
  // into st.point_info.
  void launch_point_task(ThreadShard& st, const core::OpRecord& op, const rt::Point& point,
                         std::uint64_t point_index, FunctionId fn, std::uint64_t future_map_id,
                         std::uint64_t future_id = ~0ull);
  void record_realized_locked(TaskId tid, OpId op, std::uint64_t point_index,
                              const std::vector<TaskId>& preds);
  void shard_main(ThreadShard& st, const core::ApplicationMain& main);
  // After a run failure: wake every shard parked in a future wait (mailbox
  // doorbells, pending reduce collectives) so it unwinds with FenceAborted.
  void wake_future_waiters();
  void busy_spin(SimTime wall_ns);

  core::FunctionRegistry& functions_;
  ThreadConfig config_;
  prof::Profiler profiler_;
  WallClock clock_;
  rt::ProjectionRegistry projections_;
  statics::LaunchLedger statics_ledger_;  // written by shard 0's analyzer only
  core::UserTracker tracker_;
  ConcurrencyGate gate_{config_.compute_slots};
  // Every pipeline fence of the run, and its fail-stop state.
  CompletionFrontier frontier_{static_cast<std::uint32_t>(config_.num_shards)};

  std::vector<std::unique_ptr<ThreadShard>> shards_;

  // Coarse DcrStats mirrors (coarse_deps, fences_elided, fences_inserted);
  // written by shard 0 only, read at join.
  core::DcrStats coarse_stats_;

  // graph_mu_ guards the user tracker, realized graph/tasks, spy task/edge
  // records, and the per-function profile.
  std::mutex graph_mu_;
  rt::TaskGraph realized_graph_;
  std::vector<RealizedTask> realized_tasks_;
  std::map<FunctionId, FunctionProfile> profile_;

  std::mutex futures_mu_;
  std::map<std::uint64_t, FutureEntry> futures_;
  bool futures_failed_ = false;  // guarded by futures_mu_; set by wake_future_waiters

  std::atomic<std::uint64_t> point_tasks_launched_{0};
  std::atomic<std::uint64_t> determinism_checks_{0};
  std::atomic<std::uint64_t> traced_ops_{0};

  std::unique_ptr<spy::Trace> trace_;  // non-null iff config_.record_trace
  // dcr-scope ledgers + crash flight recorder; non-null iff config_.scope.
  std::unique_ptr<dcr::scope::Recorder> scope_;
  std::unique_ptr<dcr::scope::FlightRecorder> flight_;
  bool executed_ = false;
};

}  // namespace dcr::exec
