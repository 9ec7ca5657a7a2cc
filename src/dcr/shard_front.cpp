#include "dcr/shard_front.hpp"

#include <algorithm>

#include "dcr/runtime.hpp"

namespace dcr::core {

namespace {

// Capture: turn a computed decision (+ the op's fine-stage plan) into a
// TemplateOp on this shard's recording.
void capture_template_op(TemplateManager& templates, const OpRecord& op,
                         const CoarseDecision& dec) {
  TemplateOp rec;
  rec.payload_kind = op.payload.index();
  rec.call_hash = op.call_hash;
  rec.kind = dec.kind;
  rec.num_reqs = dec.num_reqs;
  rec.summaries = dec.summaries;
  rec.deps.reserve(dec.dep_records.size());
  for (const spy::CoarseDepRecord& d : dec.dep_records) {
    if (d.prev.value >= op.id.value) {
      templates.abort_window("non-causal coarse dependence during capture");
      return;
    }
    rec.deps.push_back({op.id.value - d.prev.value, d.prev.value, /*absolute=*/false,
                        d.tree, d.field, d.elided});
  }
  rec.fences.reserve(dec.fence_sources.size());
  for (OpId src : dec.fence_sources) {
    rec.fences.push_back({op.id.value - src.value, src.value, /*absolute=*/false});
  }
  rec.plan = op.plan;
  templates.record_op(std::move(rec));
}

// Validate: shadow-compare a fresh decision/plan against the recording.
void validate_template_op(TemplateManager& templates, const OpRecord& op,
                          const CoarseDecision& dec) {
  TemplateOp& rec = *op.trec;
  auto fail = [&](const char* what) {
    templates.validation_failed(std::string("shadow compare mismatch at op ") +
                                std::to_string(op.id.value) + ": " + what);
  };
  if (!(rec.call_hash == op.call_hash)) return fail("API-call identity");
  if (rec.kind != dec.kind) return fail("op kind");
  if (rec.num_reqs != dec.num_reqs) return fail("requirement count");
  if (rec.summaries != dec.summaries) return fail("requirement summaries");
  if (rec.deps.size() != dec.dep_records.size()) return fail("coarse dependence count");
  for (std::size_t i = 0; i < rec.deps.size(); ++i) {
    const spy::CoarseDepRecord& d = dec.dep_records[i];
    TemplateDep& rd = rec.deps[i];
    if (rd.tree != d.tree || rd.field != d.field || rd.elided != d.elided) {
      return fail("coarse dependences / elision verdicts");
    }
    // Resolve which source encoding survived an iteration: per-iteration
    // sources keep their relative offset; fixed ops (an init fill issued
    // before the loop) keep their absolute id.
    if (rd.prev_offset == op.id.value - d.prev.value) {
      rd.absolute = false;
    } else if (rd.abs_source == d.prev.value) {
      rd.absolute = true;
    } else {
      return fail("coarse dependence source");
    }
  }
  if (rec.fences.size() != dec.fence_sources.size()) return fail("fence count");
  for (std::size_t i = 0; i < rec.fences.size(); ++i) {
    const OpId src = dec.fence_sources[i];
    TemplateFence& rf = rec.fences[i];
    if (rf.prev_offset == op.id.value - src.value) {
      rf.absolute = false;
    } else if (rf.abs_source == src.value) {
      rf.absolute = true;
    } else {
      return fail("fence sources");
    }
  }
  const PointPlanList empty;
  const PointPlanList& fresh_plan = op.plan ? *op.plan : empty;
  const PointPlanList& stored_plan = rec.plan ? *rec.plan : empty;
  if (!(fresh_plan == stored_plan)) return fail("fine-stage point plan");
}

}  // namespace

// ------------------------------------------------------- template plumbing

void record_template_decision(TemplateManager& templates, const OpRecord& op,
                              const CoarseDecision& dec) {
  if (op.tmode == TemplateManager::Mode::Capture) {
    capture_template_op(templates, op, dec);
  } else if (op.tmode == TemplateManager::Mode::Validate) {
    validate_template_op(templates, op, dec);
    capture_template_op(templates, op, dec);
  }
}

void emit_coarse_decision(const OpRecord& op, const CoarseDecision& dec, DcrStats& stats,
                          spy::Trace* trace) {
  stats.coarse_deps += dec.deps;
  stats.fences_elided += dec.elided;
  if (!dec.fence_sources.empty()) stats.fences_inserted++;
  if (trace) {
    for (const spy::CoarseDepRecord& d : dec.dep_records) trace->coarse_deps.push_back(d);
    trace->ops.push_back({op.id, dec.kind, op.call_index, dec.fence_sources});
  }
}

std::uint64_t owned_point_count(const OpRecord& op, ShardingRegistry& shardings,
                                const rt::RegionForest& forest, std::size_t num_shards,
                                ShardId s) {
  if (op.plan) {
    // Captured or replayed fine-stage mapping: the owned-point set is the
    // plan itself (no sharding-function enumeration needed on replay).
    return op.plan->size();
  }
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    return shardings
        .owned_points(index->launch.sharding, index->launch.domain, num_shards, s)
        .size();
  }
  if (const auto* attach = std::get_if<AttachPayload>(&op.payload);
      attach && attach->partition.valid()) {
    const rt::Rect dom = rt::Rect::r1(
        0, static_cast<std::int64_t>(forest.num_subregions(attach->partition)) - 1);
    return shardings.owned_points(ShardingRegistry::blocked(), dom, num_shards, s).size();
  }
  if (std::holds_alternative<ReducePayload>(op.payload) ||
      std::holds_alternative<FencePayload>(op.payload)) {
    return 0;
  }
  return single_op_owner(op.id, num_shards) == s ? 1 : 0;
}

// ----------------------------------------------------------- trace windows

void close_template_window(FrontState& st, const rt::RegionForest& forest,
                           prof::Profiler& profiler, const Clock& clock) {
  prof::Counters& pc = profiler.shard(st.id.value);
  pc.add(prof::Counter::WindowsClosed);
  pc.add(st.templates.mode() == TemplateManager::Mode::Replay
             ? prof::Counter::TemplateWindowHits
             : prof::Counter::TemplateWindowMisses);
  st.templates.end(forest);
  profiler.emit({prof::SpanKind::TraceWindow, prof::Lane::Control, st.id.value,
                 st.window_started, clock.now(), prof::kNoId, st.windows_opened - 1});
}

void retire_auto_window(FrontState& st, const rt::RegionForest& forest,
                        prof::Profiler& profiler, const Clock& clock, const char* reason) {
  if (st.templates.active()) {
    st.templates.abort_window(reason);  // no-op if already aborted underneath
    close_template_window(st, forest, profiler, clock);
  }
  st.auto_open = false;
  st.auto_tracer.interrupt();
}

// ------------------------------------------------------------ counter fold

void fold_shard_counters(const FrontState& st, prof::Profiler& profiler, DcrStats& stats) {
  const TemplateManager::Counters& c = st.templates.counters();
  stats.templates_captured += c.captured;
  stats.templates_validated += c.validated;
  stats.template_replays += c.window_replays;
  stats.template_invalidations += c.invalidated;
  stats.template_validation_failures += c.validation_failures;
  const TraceIdentifier::Counters& a = st.auto_tracer.counters();
  stats.auto_trace_detections += a.detections;
  stats.auto_trace_promotions += a.promotions;
  stats.auto_trace_demotions += a.demotions;
  stats.auto_trace_windows += a.windows;
  stats.auto_trace_aborts += a.aborts;
  stats.auto_trace_collisions += a.collisions;
  prof::Counters& pc = profiler.shard(st.id.value);
  pc.add(prof::Counter::AutoTraceDetections, a.detections);
  pc.add(prof::Counter::AutoTracePromotions, a.promotions);
  pc.add(prof::Counter::AutoTraceDemotions, a.demotions);
  pc.add(prof::Counter::AutoTraceWindows, a.windows);
  pc.add(prof::Counter::AutoTraceAborts, a.aborts);
  pc.add(prof::Counter::AutoTraceCollisions, a.collisions);
}

void fold_run_counters(std::uint64_t prover_cache_hits, prof::Profiler& profiler,
                       DcrStats& stats) {
  prof::Counters& g = profiler.global();
  stats.statics_cache_hits = prover_cache_hits;
  g.add(prof::GlobalCounter::StaticProofCacheHits, prover_cache_hits);
  stats.statics_resolved_ops = g.get(prof::GlobalCounter::StaticLaunchesResolved);
  stats.statics_unresolved_ops = g.get(prof::GlobalCounter::StaticLaunchesUnresolved);
  for (std::size_t sh = 0; sh < profiler.num_shards(); ++sh) {
    stats.statics_skipped_points +=
        profiler.shard(static_cast<std::uint32_t>(sh)).get(prof::Counter::StaticSkipPoints);
  }
  // Mirror the template-health totals into the global counter bank so a prof
  // snapshot (tools/dcr-prof, golden traces) is self-contained.
  g.add(prof::GlobalCounter::TemplateShadowMismatches, stats.template_validation_failures);
  g.add(prof::GlobalCounter::TemplateInvalidations, stats.template_invalidations);
}

// ===========================================================================
// ShardFront
// ===========================================================================

void ShardFront::api_call(const char* name, SigBuilder& sig) {
  const Hash128 h = sig.finish();
  st_.last_template_hash = sig.tfinish();
  on_api_call(name, h, sig);
}

void ShardFront::advance_call() {
  st_.api_calls++;
  auto_trace_observe();
  if (env_.tracing_enabled) st_.templates.on_call(st_.last_template_hash);
}

void ShardFront::spy_call(const char* name, const Hash128& h, SigBuilder& sig) {
  if (env_.trace) {
    env_.trace->calls[st_.id.value].push_back({st_.api_calls, name, h, sig.take_args()});
  }
}

// ---- operations ----

void ShardFront::destroy_region(RegionTreeId tree) {
  SigBuilder sb = sig_destroy_region(cap(), tree);
  api_call("destroy_region", sb);
  issue(DeletePayload{tree});
}

void ShardFront::fill(IndexSpaceId region, std::vector<FieldId> fields) {
  SigBuilder sb = sig_fill(cap(), region, fields);
  api_call("fill", sb);
  issue(FillPayload{region, std::move(fields)});
}

Future ShardFront::launch(const TaskLaunch& launch) {
  SigBuilder sb = sig_launch(cap(), launch);
  api_call("launch", sb);
  TaskPayload p{launch, ~0ull};
  Future f;
  if (launch.wants_future) {
    f.id = st_.next_future++;
    p.future_id = f.id;
  }
  issue(std::move(p));
  return f;
}

FutureMap ShardFront::index_launch(const IndexLaunch& launch) {
  SigBuilder sb = sig_index_launch(cap(), launch);
  api_call("index_launch", sb);
  IndexPayload p{launch, ~0ull};
  FutureMap fm;
  if (launch.wants_futures) {
    fm.id = st_.next_future_map++;
    p.future_map_id = fm.id;
  }
  issue(std::move(p));
  return fm;
}

Future ShardFront::reduce_future_map(const FutureMap& fm, ReduceOp op) {
  SigBuilder sb = sig_reduce_future_map(cap(), fm, op);
  api_call("reduce_future_map", sb);
  DCR_CHECK(fm.valid()) << "reducing an invalid future map";
  Future f;
  f.id = st_.next_future++;
  issue(ReducePayload{fm.id, op, f.id});
  return f;
}

void ShardFront::attach_file(IndexSpaceId region, std::vector<FieldId> fields,
                             std::string file) {
  SigBuilder sb = sig_attach_file(cap(), region, fields, file);
  api_call("attach_file", sb);
  AttachPayload p;
  p.region = region;
  p.fields = std::move(fields);
  p.file = std::move(file);
  issue(std::move(p));
}

void ShardFront::detach_file(IndexSpaceId region, std::vector<FieldId> fields) {
  SigBuilder sb = sig_detach_file(cap(), region, fields);
  api_call("detach_file", sb);
  AttachPayload p;
  p.region = region;
  p.fields = std::move(fields);
  p.detach = true;
  issue(std::move(p));
}

void ShardFront::attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                                   std::string file_basename) {
  SigBuilder sb = sig_attach_file_group(cap(), partition, fields, file_basename);
  api_call("attach_file_group", sb);
  AttachPayload p;
  p.partition = partition;
  p.fields = std::move(fields);
  p.file = std::move(file_basename);
  issue(std::move(p));
}

void ShardFront::detach_file_group(PartitionId partition, std::vector<FieldId> fields) {
  SigBuilder sb = sig_detach_file_group(cap(), partition, fields);
  api_call("detach_file_group", sb);
  AttachPayload p;
  p.partition = partition;
  p.fields = std::move(fields);
  p.detach = true;
  issue(std::move(p));
}

// ---- tracing (dependence templates, dcr/template.hpp) ----

void ShardFront::begin_trace(TraceId id) {
  SigBuilder sb = sig_begin_trace(cap(), id);
  api_call("begin_trace", sb);
  if (!env_.tracing_enabled) return;
  if (st_.auto_open) {
    // An auto-detected window is open: the explicit window wins.  The tap in
    // api_call usually aborted it already (the begin_trace signature breaks
    // the repeat); this handles a begin_trace that happens to land on a
    // matching token.
    retire_auto_window(st_, env_.forest, env_.profiler, env_.clock,
                       "explicit begin_trace inside an auto window");
  }
  DCR_CHECK(!st_.templates.active()) << "nested traces are not supported";
  open_window(id);
}

void ShardFront::end_trace(TraceId id) {
  SigBuilder sb = sig_end_trace(cap(), id);
  api_call("end_trace", sb);
  if (!env_.tracing_enabled) return;
  DCR_CHECK(st_.templates.active() && *st_.templates.active() == id)
      << "mismatched end_trace";
  close_template_window(st_, env_.forest, env_.profiler, env_.clock);
}

void ShardFront::open_window(TraceId id) {
  // The window keys its validity on the forest mutation epoch plus the
  // backend's recovery and deletion epochs.
  st_.templates.begin(id, env_.forest.mutation_epoch(), recovery_epoch(), deletion_epoch(),
                      env_.template_validation);
  st_.windows_opened++;  // iteration tag for dcr-prof spans
  st_.window_started = env_.clock.now();
}

// Per-call tap, run BEFORE the template manager records the call: on Open
// the window must exist so this call becomes its first op, and on
// Close/CloseOpen the previous window must not absorb this call.  The tap
// issues no API calls of its own, so auto windows are invisible to the §3
// determinism checker — window placement only affects per-shard analysis
// caching, never the decision stream.  The detector is a pure function of
// the call-hash stream, so every backend promotes the same traces at the
// same call indices.
void ShardFront::auto_trace_observe() {
  if (!env_.auto_trace || !env_.tracing_enabled || st_.auto_stop) return;
  // Suppress promotions while an explicit (app-keyed) window is active; the
  // detector keeps tracking so the auto trace resumes after end_trace.
  const bool explicit_open = st_.templates.active() && !st_.auto_open;
  const TraceIdentifier::Result r = st_.auto_tracer.observe(st_.last_template_hash,
                                                            explicit_open);
  if (explicit_open) return;  // suppressed: no actions can fire
  switch (r.action) {
    case TraceIdentifier::Action::None:
      break;
    case TraceIdentifier::Action::Open:
      if (!st_.templates.active()) {
        open_window(r.trace);
        st_.auto_open = true;
      }
      break;
    case TraceIdentifier::Action::Close:
      auto_close_window();
      break;
    case TraceIdentifier::Action::CloseOpen:
      auto_close_window();
      open_window(r.trace);
      st_.auto_open = true;
      break;
    case TraceIdentifier::Action::AbortClose:
      // The repeat broke mid-period: discard the half-recorded capture so it
      // can never validate or replay.
      retire_auto_window(st_, env_.forest, env_.profiler, env_.clock,
                         "auto trace broke mid-period");
      break;
  }
}

void ShardFront::auto_close_window() {
  // The window can already be gone (consensus deletion aborts underneath us,
  // SDC healing invalidates mid-window): skip the accounting then.
  if (st_.templates.active()) {
    close_template_window(st_, env_.forest, env_.profiler, env_.clock);
  }
  st_.auto_open = false;
}

void ShardFront::stop_auto_trace() {
  if (st_.auto_open) {
    retire_auto_window(st_, env_.forest, env_.profiler, env_.clock,
                       "control program ended inside an auto window");
  }
  st_.auto_stop = true;
}

// ---- issue path ----

OpRecord ShardFront::open_op(OpPayload payload) {
  OpRecord op{OpId(st_.next_op++), std::move(payload), false};
  // The API call that issued this op was hashed just before issue().
  if (st_.api_calls > 0) op.call_index = st_.api_calls - 1;
  // Mapper query: "Legion queries mappers to select a sharding function for
  // each subtask launch" (§4).
  if (env_.mapper) {
    if (auto* index = std::get_if<IndexPayload>(&op.payload)) {
      index->launch.sharding = env_.mapper->select_sharding(index->launch, env_.num_shards);
    }
  }
  return op;
}

void ShardFront::plan_template_op(OpRecord& op) {
  if (!st_.templates.active()) return;
  op.call_hash = st_.last_template_hash;
  switch (st_.templates.mode()) {
    case TemplateManager::Mode::Capture:
      op.tmode = TemplateManager::Mode::Capture;
      if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
        op.plan = make_point_plan(*index);
      }
      break;
    case TemplateManager::Mode::Validate: {
      // Fresh analysis still drives execution; decisions are shadow-compared
      // against the recording in record_template_decision().
      TemplateOp* rec = st_.templates.next_op();
      if (rec == nullptr) break;  // window just aborted
      if (rec->payload_kind != op.payload.index()) {
        st_.templates.abort_window("op payload kind diverged from the recording");
        break;
      }
      op.tmode = TemplateManager::Mode::Validate;
      op.trec = rec;
      if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
        op.plan = make_point_plan(*index);
      }
      break;
    }
    case TemplateManager::Mode::Replay: {
      TemplateOp* rec = st_.templates.next_op();
      if (rec == nullptr) break;
      if (rec->payload_kind != op.payload.index() || !(rec->call_hash == op.call_hash)) {
        st_.templates.abort_window("op identity diverged from the recording");
        break;
      }
      op.tmode = TemplateManager::Mode::Replay;
      op.trec = rec;
      op.plan = rec->plan;
      op.traced = true;  // charge the reduced analysis costs
      break;
    }
    case TemplateManager::Mode::Inactive:
      break;
  }
}

std::shared_ptr<const PointPlanList> ShardFront::make_point_plan(const IndexPayload& index) {
  const IndexLaunch& launch = index.launch;
  const auto& points =
      env_.shardings.owned_points(launch.sharding, launch.domain, env_.num_shards, st_.id);
  auto plan = std::make_shared<PointPlanList>();
  plan->reserve(points.size());
  for (const rt::Point& p : points) {
    PointPlan pp;
    pp.point = p;
    pp.point_index = rt::linearize(launch.domain, p);
    pp.reqs.reserve(launch.requirements.size());
    for (const rt::GroupRequirement& gr : launch.requirements) {
      pp.reqs.push_back(gr.concretize(env_.forest, env_.projections, p, launch.domain));
    }
    plan->push_back(std::move(pp));
  }
  return plan;
}

}  // namespace dcr::core
