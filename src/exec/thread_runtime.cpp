#include "exec/thread_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/hash128.hpp"
#include "dcr/sig.hpp"
#include "spy/verify.hpp"

namespace dcr::exec {

using core::AttachPayload;
using core::CoarseDecision;
using core::DeletePayload;
using core::FencePayload;
using core::FillPayload;
using core::IndexPayload;
using core::OpPayload;
using core::OpRecord;
using core::PointPlan;
using core::ReducePayload;
using core::SigBuilder;
using core::TaskPayload;
using core::TemplateManager;

// ===========================================================================
// ThreadShardContext: the threads backend's half of the per-shard
// application API.  The hash-and-issue calls, trace windows and template
// plumbing are core::ShardFront (dcr/shard_front.hpp), shared with the
// simulator; this class adds creations on the shard's own forest replica,
// futures over the mailbox fabric, and execution fences.
// ===========================================================================
class ThreadShardContext final : public core::ShardFront {
 public:
  ThreadShardContext(ThreadRuntime& rt, ThreadRuntime::ThreadShard& st)
      : ShardFront(st, {st.forest, st.shardings, rt.projections_, rt.profiler_, rt.clock_,
                        rt.trace_.get(), rt.config_.mapper, rt.num_shards(),
                        rt.config_.tracing_enabled, rt.config_.template_validation,
                        rt.config_.auto_trace.enabled}),
        rt_(rt),
        state_(st) {}

  // Instead of the simulator's per-call collective check, each thread folds
  // its §3 hash stream into a running 128-bit digest that rides every fence
  // arrival (FenceCollective) — the check travels with the synchronization
  // the run does anyway, with no extra cross-thread traffic.
  void on_api_call(const char* name, const Hash128& h, SigBuilder& sig) override {
    if (rt_.checks_enabled()) {
      rt_.determinism_checks_.fetch_add(1, std::memory_order_relaxed);
      Hasher128 fold;
      fold.value(state_.call_fold.lo).value(state_.call_fold.hi).value(h.lo).value(h.hi);
      state_.call_fold = fold.finish();
    }
    spy_call(name, h, sig);
    advance_call();
  }

  void issue(OpPayload payload) override { rt_.issue(*this, std::move(payload)); }

  // ---- data model: every shard replays creations on its own forest replica;
  //      the handles agree across shards by control determinism ----
  FieldSpaceId create_field_space() override {
    SigBuilder sb = core::sig_create_field_space(cap());
    api_call("create_field_space", sb);
    return state_.forest.create_field_space();
  }

  FieldId allocate_field(FieldSpaceId fs, std::size_t bytes, std::string name) override {
    SigBuilder sb = core::sig_allocate_field(cap(), fs, bytes, name);
    api_call("allocate_field", sb);
    return state_.forest.allocate_field(fs, bytes, std::move(name));
  }

  RegionTreeId create_region(const rt::Rect& bounds, FieldSpaceId fs) override {
    SigBuilder sb = core::sig_create_region(cap(), bounds, fs);
    api_call("create_region", sb);
    return state_.forest.create_tree(bounds, fs);
  }

  PartitionId partition_equal(IndexSpaceId parent, std::size_t pieces, int axis) override {
    SigBuilder sb = core::sig_partition_equal(cap(), parent, pieces, axis);
    api_call("partition_equal", sb);
    return state_.forest.partition_equal(parent, pieces, axis);
  }

  PartitionId partition_with_halo(IndexSpaceId parent, std::size_t pieces,
                                  std::int64_t halo, int axis) override {
    SigBuilder sb = core::sig_partition_with_halo(cap(), parent, pieces, halo, axis);
    api_call("partition_with_halo", sb);
    return state_.forest.partition_with_halo(parent, pieces, halo, axis);
  }

  PartitionId create_partition(IndexSpaceId parent, std::vector<rt::Rect> pieces,
                               bool disjoint) override {
    SigBuilder sb = core::sig_create_partition(cap(), parent, pieces, disjoint);
    api_call("create_partition", sb);
    return state_.forest.create_partition(parent, std::move(pieces), disjoint);
  }

  PartitionId partition_grid(IndexSpaceId parent, std::size_t tiles_x, std::size_t tiles_y,
                             std::int64_t halo) override {
    SigBuilder sb = core::sig_partition_grid(cap(), parent, tiles_x, tiles_y, halo);
    api_call("partition_grid", sb);
    return state_.forest.partition_grid(parent, tiles_x, tiles_y, halo);
  }

  void destroy_region_deferred(RegionTreeId tree) override {
    (void)tree;
    DCR_CHECK(false) << "destroy_region_deferred is not supported on the threads backend "
                        "(no deferred-deletion consensus poller); use destroy_region";
  }

  // ---- futures and fences ----
  double get_future(const core::Future& f) override {
    SigBuilder sb = core::sig_get_future(cap(), f);
    api_call("get_future", sb);
    DCR_CHECK(f.valid()) << "waiting on an invalid future";
    ThreadRuntime::FutureEntry entry;
    {
      std::lock_guard<std::mutex> lk(rt_.futures_mu_);
      auto it = rt_.futures_.find(f.id);
      DCR_CHECK(it != rt_.futures_.end()) << "future " << f.id << " has no producer";
      entry = it->second;
    }
    const SimTime wait_start = rt_.clock_.now();
    double v;
    dcr::scope::TraceCtx releaser;
    if (entry.reduce) {
      v = entry.coll->wait();
      // Merged context of the fan-in: the globally last contributor.
      if (rt_.scope_) releaser = entry.coll->result_ctx();
    } else {
      const ThreadRuntime::CachedFuture cf = rt_.wait_broadcast(state_, f.id);
      v = cf.value;
      releaser = cf.ctx;
    }
    const SimTime now = rt_.clock_.now();
    prof::Counters& pc = rt_.profiler_.shard(state_.id.value);
    pc.add(prof::Counter::FutureWaits);
    pc.add(prof::Counter::FutureWaitNs, now - wait_start);
    pc.observe(prof::Hist::FutureWaitNs, now - wait_start);
    rt_.profiler_.emit(
        {prof::SpanKind::FutureWait, prof::Lane::Control, state_.id.value, wait_start, now});
    if (rt_.scope_) {
      rt_.scope_->on_future_wait(state_.id.value, f.id, wait_start, now, releaser);
    }
    return v;
  }

  bool future_is_ready(const core::Future& f) override {
    // Timing-dependent by design (Figure 5): the *call* is still hashed, but
    // the returned value may differ across shards — here genuinely racy wall
    // clock rather than simulated divergence.
    SigBuilder sb = core::sig_future_is_ready(cap(), f);
    api_call("future_is_ready", sb);
    ThreadRuntime::FutureEntry entry;
    {
      std::lock_guard<std::mutex> lk(rt_.futures_mu_);
      auto it = rt_.futures_.find(f.id);
      if (it == rt_.futures_.end()) return false;
      entry = it->second;
    }
    if (entry.reduce) return entry.coll->ready();
    rt_.drain_inbox(state_);
    return state_.future_cache.count(f.id) != 0;
  }

  void execution_fence() override {
    SigBuilder sb = core::sig_execution_fence(cap());
    api_call("execution_fence", sb);
    // The fence op's coarse decision is a pipeline barrier (it fences on the
    // previous op), and processing is inline, so once issue() returns every
    // shard has finished executing every prior op's owned points.
    const SimTime wait_start = rt_.clock_.now();
    issue(FencePayload{});
    rt_.profiler_.shard(state_.id.value).add(prof::Counter::ExecutionFences);
    rt_.profiler_.emit({prof::SpanKind::ExecutionFence, prof::Lane::Control,
                        state_.id.value, wait_start, rt_.clock_.now()});
  }

 private:
  ThreadRuntime& rt_;
  ThreadRuntime::ThreadShard& state_;  // ShardFront::st_ as the full thread record
};

// ===========================================================================
// ThreadRuntime
// ===========================================================================

namespace {
// record_trace needs the realized graph's edges, so it implies
// record_task_graph; normalized before any member (tracker_) consumes it.
ThreadConfig normalize_config(ThreadConfig config) {
  if (config.record_trace) config.record_task_graph = true;
  if (config.num_shards == 0) config.num_shards = 1;
  return config;
}
}  // namespace

ThreadRuntime::ThreadRuntime(core::FunctionRegistry& functions, ThreadConfig config)
    : functions_(functions),
      config_(normalize_config(std::move(config))),
      profiler_(config_.num_shards, config_.profile),
      tracker_(/*keep_completed=*/config_.record_task_graph) {
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto st = std::make_unique<ThreadShard>();
    st->id = ShardId(static_cast<std::uint32_t>(s));
    st->prover = std::make_unique<statics::InterferenceProver>(st->forest, projections_,
                                                               config_.statics_check);
    // Shard 0's replica does the once-per-op accounting (dcr/coarse.hpp).
    st->coarse = std::make_unique<core::CoarseAnalyzer>(
        core::CoarseAnalyzer::Options{config_.disable_fence_elision, config_.static_analysis,
                                      config_.statics_check},
        s == 0 ? &profiler_.global() : nullptr, s == 0 ? &statics_ledger_ : nullptr);
    st->rng = std::make_unique<Philox4x32>(/*seed=*/0x5eed, /*stream=*/0);
    st->inbox.reserve(config_.num_shards);
    for (std::size_t p = 0; p < config_.num_shards; ++p) {
      st->inbox.push_back(p == s ? nullptr
                                 : std::make_unique<SpscQueue<FutureMsg>>(
                                       config_.mailbox_capacity));
    }
    shards_.push_back(std::move(st));
  }
  if (config_.record_trace) {
    trace_ = std::make_unique<spy::Trace>();
    trace_->num_shards = config_.num_shards;
    trace_->calls.resize(config_.num_shards);
  }
  if (config_.scope) {
    scope_ = std::make_unique<dcr::scope::Recorder>(config_.num_shards);
    if (config_.flight_capacity > 0) {
      flight_ = std::make_unique<dcr::scope::FlightRecorder>(
          config_.num_shards, config_.flight_capacity);
      scope_->set_flight(flight_.get());
      // Fatal-signal hook: a wedged or crashing fleet (SIGSEGV/SIGABRT/
      // SIGBUS/SIGFPE on any shard thread) still leaves a post-mortem dump.
      if (!config_.flight_path.empty()) {
        dcr::scope::FlightRecorder::arm_signal_dump(
            flight_.get(), config_.flight_path, &profiler_);
      }
    }
  }
}

ThreadRuntime::~ThreadRuntime() {
  if (flight_ && !config_.flight_path.empty()) {
    dcr::scope::FlightRecorder::arm_signal_dump(nullptr, {}, nullptr);
  }
}

bool ThreadRuntime::checks_enabled() const {
  // Matches the simulator's DeterminismChecker::enabled(): the per-call count
  // is charged whenever checking is on, even single-shard (where the fence
  // comparison is vacuous) — keeps DcrStats parity exact.
  return config_.determinism_checks;
}

ShardingId ThreadRuntime::register_sharding(core::ShardingRegistry::ShardingFn fn) {
  DCR_CHECK(!executed_) << "register shardings before execute()";
  ShardingId id = ShardingId::invalid();
  for (auto& st : shards_) {
    const ShardingId got = st->shardings.register_sharding(fn);
    if (!id.valid()) id = got;
    DCR_CHECK(got.value == id.value) << "sharding registries diverged";
  }
  return id;
}

core::TemplateManager& ThreadRuntime::shard_templates(ShardId s) {
  return shard(s).templates;
}

const core::TraceIdentifier& ThreadRuntime::shard_auto_tracer(ShardId s) {
  return shard(s).auto_tracer;
}

// ------------------------------------------------------------- collectives

void ThreadRuntime::ensure_future(std::uint64_t id, OpId producer) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto [it, inserted] = futures_.try_emplace(id);
  if (!inserted) return;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  // Single-task futures broadcast from the owner shard (§4.2); delivery is
  // the SPSC mailbox fabric, so no collective object is needed.
  it->second.reduce = false;
  it->second.owner = core::single_op_owner(producer, num_shards());
}

void ThreadRuntime::ensure_reduce_future(std::uint64_t id, core::ReduceOp rop) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto [it, inserted] = futures_.try_emplace(id);
  if (!inserted) return;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  double init = 0.0;
  switch (rop) {
    case core::ReduceOp::Sum: init = 0.0; break;
    case core::ReduceOp::Min: init = std::numeric_limits<double>::infinity(); break;
    case core::ReduceOp::Max: init = -std::numeric_limits<double>::infinity(); break;
  }
  it->second.reduce = true;
  it->second.owner = ShardId(0);
  it->second.coll = std::make_shared<ValueCollective>(
      static_cast<std::uint32_t>(num_shards()), init,
      [rop](double a, double b) { return core::apply_reduce(rop, a, b); });
}

dcr::scope::TraceCtx ThreadRuntime::scope_ctx(const ThreadShard& st) const {
  if (!scope_) return {};
  return scope_->current_ctx(st.id.value, clock_.now());
}

void ThreadRuntime::publish_future(ThreadShard& st, std::uint64_t id, double value) {
  // The producer's current span rides the mailbox payload so a waiter can
  // name the span that released it (the threads analogue of the simulator's
  // network-carried TraceCtx).
  const dcr::scope::TraceCtx ctx = scope_ctx(st);
  st.future_cache[id] = CachedFuture{value, ctx};
  for (auto& tp : shards_) {
    ThreadShard& peer = *tp;
    if (peer.id.value == st.id.value) continue;
    // try_push then overflow: the producer must never block on a slow
    // consumer — the consumer may be parked at a fence that needs this
    // producer's arrival to complete.
    if (!peer.inbox[st.id.value]->try_push(FutureMsg{id, value, ctx})) {
      std::lock_guard<std::mutex> lk(peer.overflow_mu);
      peer.overflow.push_back(FutureMsg{id, value, ctx});
    }
    peer.doorbell.fetch_add(1, std::memory_order_release);
    peer.doorbell.notify_all();
    // One logical message per peer delivery, counted against the origin.
    if (scope_) scope_->on_message(ctx, sizeof(FutureMsg));
  }
}

void ThreadRuntime::drain_inbox(ThreadShard& st) {
  for (auto& q : st.inbox) {
    if (!q) continue;
    while (auto m = q->try_pop()) st.future_cache[m->id] = CachedFuture{m->value, m->ctx};
  }
  std::vector<FutureMsg> spill;
  {
    std::lock_guard<std::mutex> lk(st.overflow_mu);
    spill.swap(st.overflow);
  }
  for (const FutureMsg& m : spill) st.future_cache[m.id] = CachedFuture{m.value, m.ctx};
}

ThreadRuntime::CachedFuture ThreadRuntime::wait_broadcast(ThreadShard& st,
                                                          std::uint64_t id) {
  for (;;) {
    auto it = st.future_cache.find(id);
    if (it != st.future_cache.end()) return it->second;
    // Doorbell generation loaded BEFORE the drain: a publish racing with the
    // drain bumps the generation, so the wait below returns immediately.
    const std::uint64_t gen = st.doorbell.load(std::memory_order_acquire);
    drain_inbox(st);
    auto it2 = st.future_cache.find(id);
    if (it2 != st.future_cache.end()) return it2->second;
    st.doorbell.wait(gen, std::memory_order_acquire);
  }
}

// ----------------------------------------------------------------- issuing

void ThreadRuntime::issue(ThreadShardContext& ctx, OpPayload payload) {
  ThreadShard& st = shard(ctx.shard_id());
  OpRecord op = ctx.open_op(std::move(payload));

  // Futures are created eagerly at issue so the control program can wait on
  // them before any shard's execution has reached the producing op.
  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (task->future_id != ~0ull) ensure_future(task->future_id, op.id);
  } else if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    ensure_reduce_future(red->future_id, red->op);
  }

  // Dependence templates: capture this op's decisions or replay the recorded
  // ones, per the window's mode (dcr/shard_front.hpp).
  ctx.plan_template_op(op);
  if (op.traced) traced_ops_.fetch_add(1, std::memory_order_relaxed);
  process_op(st, op);
}

void ThreadRuntime::process_op(ThreadShard& st, const OpRecord& op) {
  // ---- coarse stage: this shard's own replica decides the op, fresh or
  //      rebuilt from its template; shard 0 does the once-per-op accounting ----
  const bool accounts = st.id.value == 0;
  const SimTime c0 = clock_.now();
  const CoarseDecision dec =
      op.tmode == TemplateManager::Mode::Replay && op.trec != nullptr
          ? st.coarse->install_replayed(op)
          : st.coarse->decide(op, st.forest, *st.prover,
                              core::single_op_owner(op.id, num_shards()));
  if (accounts) core::emit_coarse_decision(op, dec, coarse_stats_, trace_.get());
  core::record_template_decision(st.templates, op, dec);

  const std::uint64_t prof_iter =
      st.templates.active().has_value() ? st.windows_opened - 1 : prof::kNoId;
  prof::Counters& pc = profiler_.shard(st.id.value);
  const SimTime c1 = clock_.now();
  pc.add(op.traced ? prof::Counter::TracedCoarseOps : prof::Counter::CoarseOps);
  pc.add(prof::Counter::CoarseAnalysisNs, c1 - c0);  // real wall ns here
  pc.observe(prof::Hist::CoarseStageNs, c1 - c0);
  profiler_.emit({op.traced ? prof::SpanKind::CoarseReplay : prof::SpanKind::CoarseAnalysis,
                  prof::Lane::Analysis, st.id.value, c0, c1, op.id.value, prof_iter});

  // ---- fence gating: every shard processes every op, so every shard
  //      arrives, in the same order; the arrival carries the §3 check ----
  if (!dec.fence_sources.empty()) {
    if (accounts) {
      profiler_.global().add(prof::GlobalCounter::FenceCollectives);
      profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
    }
    pc.add(prof::Counter::FenceWaits);
    const SimTime w0 = clock_.now();
    // Blame: the SAME w0/w1 clock reads feed both the prof FenceWaitNs charge
    // below and this shard's scope fence record, so the two ledgers reconcile
    // exactly by construction.
    if (scope_) scope_->fence_arrival(op.id.value, st.id.value, prof_iter, w0);
    fence_.arrive_and_wait(st.id.value, {op.id.value, st.call_fold});
    const SimTime w1 = clock_.now();
    if (scope_) scope_->on_fence_wait(st.id.value, op.id.value, w0, w1);
    pc.add(prof::Counter::FenceWaitNs, w1 - w0);
    pc.observe(prof::Hist::FenceWaitNs, w1 - w0);
    profiler_.emit({prof::SpanKind::FenceWait, prof::Lane::Fence, st.id.value, w0, w1,
                    op.id.value, prof_iter});
  }

  // ---- fine stage: owned-point accounting mirrors the simulator ----
  const std::uint64_t owned =
      core::owned_point_count(op, st.shardings, st.forest, num_shards(), st.id);
  const bool static_skip = dec.static_skip && !op.traced;
  const SimTime f0 = clock_.now();
  pc.add(op.traced ? prof::Counter::TracedFineOps : prof::Counter::FineOps);
  pc.add(prof::Counter::FinePoints, owned);
  if (static_skip) {
    pc.add(prof::Counter::StaticSkipOps);
    pc.add(prof::Counter::StaticSkipPoints, owned);
    // No virtual cost model here, so no SavedNs estimate is charged.
  }
  execute_points(st, op);
  const SimTime f1 = clock_.now();
  pc.add(prof::Counter::FineAnalysisNs, f1 - f0);
  pc.observe(prof::Hist::FineStageNs, f1 - f0);
  pc.observe(prof::Hist::FinePointsPerOp, owned);
  profiler_.emit({op.traced ? prof::SpanKind::FineReplay : prof::SpanKind::FineAnalysis,
                  prof::Lane::Analysis, st.id.value, f0, f1, op.id.value, prof_iter});
  if (scope_) {
    // The completed fine stage becomes this shard's current span — the
    // causal parent of every launch/arrival/publish it does next.
    scope_->on_fine_stage(st.id.value, op.id.value, op.traced, f0, f1);
  }
}

// --------------------------------------------------------------- execution

void ThreadRuntime::execute_points(ThreadShard& st, const OpRecord& op) {
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    const core::IndexLaunch& launch = index->launch;
    if (index->future_map_id != ~0ull) {
      st.fm_partials.try_emplace(index->future_map_id);  // identity partials
    }
    if (op.plan) {
      // Template path: per-point projection results were recorded at capture,
      // so the replay touches neither the forest nor the projection registry.
      for (const PointPlan& pp : *op.plan) {
        launch_point_task(st, op, pp.point, pp.point_index, pp.reqs, launch.args,
                          launch.fn, index->future_map_id);
      }
    } else {
      const auto& points =
          st.shardings.owned_points(launch.sharding, launch.domain, num_shards(), st.id);
      for (const rt::Point& p : points) {
        std::vector<rt::Requirement> reqs;
        reqs.reserve(launch.requirements.size());
        for (const rt::GroupRequirement& gr : launch.requirements) {
          reqs.push_back(gr.concretize(st.forest, projections_, p, launch.domain));
        }
        const std::uint64_t point_index = rt::linearize(launch.domain, p);
        launch_point_task(st, op, p, point_index, reqs, launch.args, launch.fn,
                          index->future_map_id);
      }
    }
    return;
  }

  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (core::single_op_owner(op.id, num_shards()) == st.id) {
      rt::Point p;
      p.dim = 1;
      launch_point_task(st, op, p, 0, task->launch.requirements, task->launch.args,
                        task->launch.fn, ~0ull, task->future_id);
    }
    return;
  }

  if (const auto* fill = std::get_if<FillPayload>(&op.payload)) {
    if (core::single_op_owner(op.id, num_shards()) != st.id) return;
    const rt::Rect rect = st.forest.bounds(fill->region);
    const RegionTreeId tree = st.forest.tree_of(fill->region);
    const TaskId tid(op.id.value * core::kPointsPerOp);
    if (config_.record_task_graph) {
      std::lock_guard<std::mutex> lk(graph_mu_);
      for (FieldId f : fill->fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, rt::Privilege::WriteDiscard,
                                             rt::kNoRedop, tid, sim::Event::no_event());
        record_realized_locked(tid, op.id, 0, conflicts.tasks);
      }
      if (trace_) {
        trace_->tasks.push_back(
            {tid, op.id, 0, st.id,
             {{tree, rect, fill->fields, rt::Privilege::WriteDiscard, rt::kNoRedop}}});
      }
    }
    return;
  }

  if (const auto* attach = std::get_if<AttachPayload>(&op.payload)) {
    const auto priv =
        attach->detach ? rt::Privilege::ReadOnly : rt::Privilege::WriteDiscard;
    if (attach->partition.valid()) {
      // Parallel file I/O: every shard attaches/flushes the pieces it owns.
      const RegionTreeId tree = st.forest.tree_of_partition(attach->partition);
      const rt::Rect dom = rt::Rect::r1(
          0, static_cast<std::int64_t>(st.forest.num_subregions(attach->partition)) - 1);
      const auto& points =
          st.shardings.owned_points(core::ShardingRegistry::blocked(), dom, num_shards(),
                                    st.id);
      for (const rt::Point& p : points) {
        const std::uint64_t color = rt::linearize(dom, p);
        const rt::Rect rect = st.forest.bounds(st.forest.subregion(attach->partition, color));
        const TaskId tid(op.id.value * core::kPointsPerOp + color);
        if (config_.record_task_graph) {
          std::lock_guard<std::mutex> lk(graph_mu_);
          std::vector<TaskId> preds;
          for (FieldId f : attach->fields) {
            auto conflicts = tracker_.record_use(tree, f, rect, priv, rt::kNoRedop, tid,
                                                 sim::Event::no_event());
            preds.insert(preds.end(), conflicts.tasks.begin(), conflicts.tasks.end());
          }
          record_realized_locked(tid, op.id, color, preds);
          if (trace_) {
            trace_->tasks.push_back(
                {tid, op.id, color, st.id, {{tree, rect, attach->fields, priv, rt::kNoRedop}}});
          }
        }
      }
      return;
    }
    if (core::single_op_owner(op.id, num_shards()) != st.id) return;
    const rt::Rect rect = st.forest.bounds(attach->region);
    const RegionTreeId tree = st.forest.tree_of(attach->region);
    const TaskId tid(op.id.value * core::kPointsPerOp);
    if (config_.record_task_graph) {
      std::lock_guard<std::mutex> lk(graph_mu_);
      for (FieldId f : attach->fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, priv, rt::kNoRedop, tid,
                                             sim::Event::no_event());
        record_realized_locked(tid, op.id, 0, conflicts.tasks);
      }
      if (trace_) {
        trace_->tasks.push_back(
            {tid, op.id, 0, st.id, {{tree, rect, attach->fields, priv, rt::kNoRedop}}});
      }
    }
    return;
  }

  if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    auto fit = st.fm_partials.find(red->fm_id);
    DCR_CHECK(fit != st.fm_partials.end()) << "reduce of unknown future map";
    double partial = 0.0;
    switch (red->op) {
      case core::ReduceOp::Sum: partial = fit->second.sum; break;
      case core::ReduceOp::Min: partial = fit->second.min; break;
      case core::ReduceOp::Max: partial = fit->second.max; break;
    }
    std::shared_ptr<ValueCollective> coll;
    {
      std::lock_guard<std::mutex> lk(futures_mu_);
      coll = futures_.at(red->future_id).coll;  // created at issue
    }
    // Inline execution: this shard's owned points of the producing launch
    // completed during that op's process_op, so the partial is final.
    coll->arrive(st.id.value, partial, scope_ctx(st));
    return;
  }

  if (const auto* del = std::get_if<DeletePayload>(&op.payload)) {
    // Each shard destroys its own replica at the same program point, so the
    // forests (and their mutation epochs) stay in lockstep.
    if (!st.forest.tree_destroyed(del->tree)) st.forest.destroy_tree(del->tree);
    return;
  }
}

void ThreadRuntime::launch_point_task(ThreadShard& st, const OpRecord& op,
                                      const rt::Point& point, std::uint64_t point_index,
                                      const std::vector<rt::Requirement>& reqs,
                                      const std::vector<std::int64_t>& args, FunctionId fn,
                                      std::uint64_t future_map_id, std::uint64_t future_id) {
  const TaskId tid(op.id.value * core::kPointsPerOp + point_index);

  core::PointTaskInfo info;
  info.fn = fn;
  info.point = point;
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    info.domain = index->launch.domain;
  }
  info.requirements = reqs;
  info.args = args;
  for (const rt::Requirement& r : reqs) {
    info.volume += st.forest.bounds(r.region).volume();
  }

  if (config_.record_task_graph) {
    // One point task's dependence recording is atomic under graph_mu_.  The
    // edge set is still deterministic across interleavings: cross-shard
    // conflicting uses are ordered by a fence (their coarse dependence was
    // not elided), and elided dependences are provably same-shard.
    std::lock_guard<std::mutex> lk(graph_mu_);
    std::vector<TaskId> conflict_tasks;
    for (const rt::Requirement& r : reqs) {
      const rt::Rect rect = st.forest.bounds(r.region);
      const RegionTreeId tree = st.forest.tree_of(r.region);
      for (FieldId f : r.fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, r.privilege, r.redop, tid,
                                             sim::Event::no_event());
        conflict_tasks.insert(conflict_tasks.end(), conflicts.tasks.begin(),
                              conflicts.tasks.end());
      }
    }
    record_realized_locked(tid, op.id, point_index, conflict_tasks);
    if (trace_) {
      std::vector<spy::AccessRecord> accesses;
      accesses.reserve(reqs.size());
      for (const rt::Requirement& r : reqs) {
        accesses.push_back({st.forest.tree_of(r.region), st.forest.bounds(r.region),
                            r.fields, r.privilege, r.redop});
      }
      trace_->tasks.push_back({tid, op.id, point_index, st.id, std::move(accesses)});
    }
  }

  const SimTime duration = functions_.at(fn).duration(info);
  FunctionProfile& fp = st.profile[fn];
  fp.tasks++;
  fp.total_time += duration;

  // Work model (benchmarks): occupy a compute slot in proportion to the
  // task's modeled duration — spinning (host compute) or sleeping (host
  // blocked on an offloaded kernel; overlaps regardless of core count).
  if (config_.work_scale > 0.0) {
    const auto wall_ns =
        static_cast<SimTime>(static_cast<double>(duration) * config_.work_scale);
    gate_.acquire();
    if (config_.work_sleep) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wall_ns));
    } else {
      busy_spin(wall_ns);
    }
    gate_.release();
  }

  const bool wants_value = future_map_id != ~0ull || future_id != ~0ull;
  double value = 0.0;
  if (wants_value) {
    const core::TaskFunction& f = functions_.at(fn);
    DCR_CHECK(f.future_value != nullptr)
        << "task '" << f.name << "' launched for a future but has no value model";
    value = f.future_value(info);
  }
  if (future_map_id != ~0ull) {
    FmPartial& p = st.fm_partials.at(future_map_id);
    p.sum += value;
    p.min = std::min(p.min, value);
    p.max = std::max(p.max, value);
  }
  if (future_id != ~0ull) {
    // Only the owner shard executes a single task; it is the broadcast root.
    publish_future(st, future_id, value);
  }
  point_tasks_launched_.fetch_add(1, std::memory_order_relaxed);
  if (scope_) {
    scope_->on_task_launch(st.id.value, op.id.value, point_index, clock_.now());
  }
}

void ThreadRuntime::record_realized_locked(TaskId tid, OpId op, std::uint64_t point_index,
                                           const std::vector<TaskId>& preds) {
  if (!config_.record_task_graph) return;
  if (!realized_graph_.has_task(tid)) {
    realized_graph_.add_task(tid);
    realized_tasks_.push_back(RealizedTask{tid, op, point_index});
  }
  for (TaskId p : preds) {
    if (!realized_graph_.has_edge(p, tid)) {
      realized_graph_.add_edge(p, tid);
      if (trace_) trace_->edges.push_back({p, tid});
    }
  }
}

void ThreadRuntime::busy_spin(SimTime wall_ns) {
  const SimTime until = clock_.now() + wall_ns;
  while (clock_.now() < until) {
    // Busy wait: this models compute occupancy, so yielding would defeat it.
  }
}

// ----------------------------------------------------------------- execute

void ThreadRuntime::shard_main(ThreadShard& st, const core::ApplicationMain& main) {
  const std::string who = "shard " + std::to_string(st.id.value) + ": ";
  try {
    ThreadShardContext ctx(*this, st);
    main(ctx);
    // Same finalization as the simulator's finalize_shard: stop auto tracing
    // before the final barrier.
    ctx.stop_auto_trace();
    // Final barrier so the call/op streams match the simulator's
    // finalize_shard and every shard's work is done before join.
    ctx.execution_fence();
    // One last round, outside the op stream: a shard that fenced more times
    // than this one fails here instead of parking, and the §3 check covers
    // every call (exec/collective.hpp).
    fence_.arrive_and_wait(st.id.value, {FenceCollective::kProgramEnd, st.call_fold});
  } catch (const FenceAborted&) {
    // Another shard failed first; its cause is recorded in the fence.
  } catch (const std::exception& e) {
    fence_.poison(who + e.what());
  } catch (...) {
    fence_.poison(who + "unknown exception in shard control program");
  }
}

core::DcrStats ThreadRuntime::execute(const core::ApplicationMain& main) {
  DCR_CHECK(!executed_) << "ThreadRuntime::execute may only run once";
  executed_ = true;
  const SimTime started = clock_.now();

  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (auto& st : shards_) {
    threads.emplace_back([this, &main, sp = st.get()] { shard_main(*sp, main); });
  }
  for (std::thread& t : threads) t.join();

  core::DcrStats stats;
  stats.makespan = clock_.now() - started;  // real wall-clock nanoseconds
  const FenceCollective::Failure failure = fence_.failure();
  stats.completed = failure == FenceCollective::Failure::None;
  if (!stats.completed) {
    stats.aborted = true;
    stats.abort_message = fence_.failure_message();
  }
  if (failure == FenceCollective::Failure::Diverged) {
    stats.determinism_violation = true;
    stats.violation_message = stats.abort_message;
    if (trace_) {
      // With a spy trace on hand, upgrade to the linter's argument-level
      // report: which call diverged and which argument differed.
      const spy::LintResult lint = spy::lint_control_determinism(*trace_);
      if (lint.divergent) {
        stats.violation_message = lint.message;
        stats.abort_message = lint.message;
      }
    }
  }

  for (const auto& st : shards_) {
    stats.ops_issued = std::max(stats.ops_issued, st->next_op);
  }
  stats.point_tasks_launched = point_tasks_launched_.load(std::memory_order_relaxed);
  stats.fences_inserted = coarse_stats_.fences_inserted;
  stats.fences_elided = coarse_stats_.fences_elided;
  stats.coarse_deps = coarse_stats_.coarse_deps;
  stats.determinism_checks = determinism_checks_.load(std::memory_order_relaxed);
  stats.traced_ops = traced_ops_.load(std::memory_order_relaxed);

  for (const auto& st : shards_) {
    core::fold_shard_counters(*st, profiler_, stats);
    for (const auto& [fn, fp] : st->profile) {
      FunctionProfile& merged = profile_[fn];
      merged.tasks += fp.tasks;
      merged.total_time += fp.total_time;
    }
  }
  // Statics cache hits: every replica proves every fresh op, so shard 0's
  // prover alone answers the same queries as the simulator's single prover.
  core::fold_run_counters(shards_[0]->prover->stats().cache_hits, profiler_, stats);

  // dcr-scope: the shards have quiesced (joined), so fold their fence
  // records into the blame ledger, one record per fence in op order — same
  // drain point as the simulator backend's end of execute.
  if (scope_) {
    scope_->harvest_shard_fences();
    scope_->set_run_info(stats.makespan, /*recovery_epochs=*/0);
  }

  // Crash flight recorder: a determinism violation (or a shard thread dying
  // on an exception) aborts post-mortem triage to the ring dump — no re-run
  // needed to see what each shard was doing last.
  if (flight_ && !config_.flight_path.empty() &&
      (stats.determinism_violation || stats.aborted)) {
    const std::string& why = stats.determinism_violation
                                 ? stats.violation_message
                                 : stats.abort_message;
    flight_->dump(config_.flight_path, why.c_str(), &profiler_);
  }

  return stats;
}

}  // namespace dcr::exec
