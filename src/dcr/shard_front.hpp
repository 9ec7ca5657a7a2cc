// The control-plane front end of the per-shard pipeline, written once for
// both execution backends: the simulator's ShardContext (dcr/runtime.cpp)
// and the real-threads ThreadShardContext (exec/thread_runtime.cpp).
//
// Each API call is hashed for the §3 control-determinism check
// (dcr/sig.hpp) and then enters the §4 coarse -> fine pipeline.  The part of
// that path that does not depend on how the pipeline is driven lives here:
//
//  * the Context methods that only hash and issue (fill, launch,
//    index_launch, reduce_future_map, attach/detach_file(_group),
//    destroy_region, begin_trace, end_trace);
//  * the per-shard trace state (FrontState) and its windows: explicit
//    begin/end_trace, the automatic trace-identification tap
//    (dcr/trace_id.hpp), and window close/retire accounting;
//  * the template plumbing (dcr/template.hpp): the issue-time
//    Capture/Validate/Replay switch with its fine-stage point plans, the
//    capture and shadow validation of each analyzed op, the owned-point
//    count the fine stage charges, the stats/spy mirror of each coarse
//    decision, and the end-of-run counter fold.
//
// A backend supplies two hooks: on_api_call, its half of every call (the
// simulator's replay fast-forward, determinism checker, commit log and
// lease; the threads backend's running call digest), and issue, which
// dispatches an op into its coarse/fine driver.  Creations, futures,
// execution fences, fence gating, the fine stage, point-task launch,
// recovery and SDC stay per backend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/hash128.hpp"
#include "common/philox.hpp"
#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/mapper.hpp"
#include "dcr/ops.hpp"
#include "dcr/sharding.hpp"
#include "dcr/sig.hpp"
#include "dcr/template.hpp"
#include "dcr/trace_id.hpp"
#include "prof/profiler.hpp"
#include "runtime/region.hpp"
#include "runtime/requirement.hpp"
#include "spy/trace.hpp"

namespace dcr::core {

struct DcrStats;

// Per-shard control-plane state both backends keep (each backend's shard
// record derives from it).
struct FrontState {
  ShardId id;
  std::uint64_t next_future = 0;  // future / future-map id cursors
  std::uint64_t next_future_map = 0;
  std::uint64_t next_op = 0;    // program-order op counter
  std::uint64_t api_calls = 0;  // determinism-check call index
  std::unique_ptr<Philox4x32> rng;  // replicated: same stream on every shard
  // Dependence templates: capture, validate, and replay of trace windows'
  // analysis decisions.
  TemplateManager templates;
  Hash128 last_template_hash{};  // template-identity hash of the latest call
  // Automatic trace identification: the repeated-trace detector, whether
  // the open template window was opened by it (vs an explicit begin_trace),
  // and the end-of-program gate that stops it from opening windows during
  // finalization.
  TraceIdentifier auto_tracer;
  bool auto_open = false;
  bool auto_stop = false;
  // dcr-prof: trace windows opened by this shard (the span iteration tag)
  // and the start time of the one currently open.
  std::uint64_t windows_opened = 0;
  SimTime window_started = 0;
};

// Owner of single (non-index) ops: rotates with the op id.
inline ShardId single_op_owner(OpId op, std::size_t num_shards) {
  return ShardId(static_cast<std::uint32_t>(op.value % num_shards));
}

// Template window close + hit/miss accounting, shared by explicit end_trace
// and auto-detected windows.  Reads the mode before end() clears it: a
// window still in Replay at close was served by a validated template;
// anything else (capture, validation, mid-window abort) ran fresh analysis.
// hits + misses == windows_closed by construction.
void close_template_window(FrontState& st, const rt::RegionForest& forest,
                           prof::Profiler& profiler, const Clock& clock);

// Abort AND retire an auto-detected window.  An explicit window's abort
// deliberately leaves the active slot occupied for its matching end_trace;
// an auto window has no end_trace, so the close accounting must run here or
// the stale slot blocks every later begin (explicit or auto).
void retire_auto_window(FrontState& st, const rt::RegionForest& forest,
                        prof::Profiler& profiler, const Clock& clock, const char* reason);

// Feeds one analyzed op's coarse decision to the shard's template store per
// the op's issue-time mode: Capture records it; Validate shadow-compares it
// against the recording and also records it into the shadow re-recording
// that replaces the stored template on a mismatch (record_op routes by mode).
void record_template_decision(TemplateManager& templates, const OpRecord& op,
                              const CoarseDecision& dec);

// Mirrors a freshly computed coarse decision into the run's stats and, with
// a spy trace, emits its dependence records then its op record.  Called
// exactly once per op, in program order (analyzer-checked).
void emit_coarse_decision(const OpRecord& op, const CoarseDecision& dec, DcrStats& stats,
                          spy::Trace* trace);

// Points of `op` shard `s` analyzes and launches in the fine stage: the
// captured/replayed plan's size, the owned points of an index launch or of a
// group attach's pieces, 1 or 0 for a single op by owner, 0 for reductions
// and fences.
std::uint64_t owned_point_count(const OpRecord& op, ShardingRegistry& shardings,
                                const rt::RegionForest& forest, std::size_t num_shards,
                                ShardId s);

// End-of-run fold: one shard's template and auto-trace counters into
// `stats`, the auto-trace ones also into the shard's prof bank.
void fold_shard_counters(const FrontState& st, prof::Profiler& profiler, DcrStats& stats);
// End-of-run fold of the statics ledger (resolved/unresolved were charged
// online by the coarse stage; `prover_cache_hits` sums the backend's
// provers) and the template-health global counters.  Runs after every
// shard's fold_shard_counters.
void fold_run_counters(std::uint64_t prover_cache_hits, prof::Profiler& profiler,
                       DcrStats& stats);

// The per-shard Context both backends derive from.
class ShardFront : public Context {
 public:
  // What the front reads from its runtime; fixed for the context's life.
  struct Env {
    const rt::RegionForest& forest;  // this shard's view of the region forest
    ShardingRegistry& shardings;
    const rt::ProjectionRegistry& projections;
    prof::Profiler& profiler;
    const Clock& clock;
    spy::Trace* trace;  // non-null iff the spy trace is recorded
    Mapper* mapper;     // nullptr = default sharding selection
    std::size_t num_shards;
    bool tracing_enabled;
    bool template_validation;
    bool auto_trace;  // automatic trace identification on
  };

  ShardFront(FrontState& st, Env env) : st_(st), env_(env) {}

  // ---- read-only forest access, environment ----
  IndexSpaceId root(RegionTreeId tree) override { return env_.forest.root(tree); }
  const rt::RegionForest& forest() const override { return env_.forest; }
  std::size_t num_shards() const override { return env_.num_shards; }
  ShardId shard_id() const override { return st_.id; }
  Philox4x32& rng() override { return *st_.rng; }
  SimTime now() const override { return env_.clock.now(); }

  // ---- API calls that only hash and issue ----
  void destroy_region(RegionTreeId tree) override;
  void fill(IndexSpaceId region, std::vector<FieldId> fields) override;
  Future launch(const TaskLaunch& launch) override;
  FutureMap index_launch(const IndexLaunch& launch) override;
  Future reduce_future_map(const FutureMap& fm, ReduceOp op) override;
  void attach_file(IndexSpaceId region, std::vector<FieldId> fields,
                   std::string file) override;
  void detach_file(IndexSpaceId region, std::vector<FieldId> fields) override;
  void attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                         std::string file_basename) override;
  void detach_file_group(PartitionId partition, std::vector<FieldId> fields) override;
  void begin_trace(TraceId id) override;
  void end_trace(TraceId id) override;

  // ---- issue-path helpers for the backend's issue() ----
  // Allocates the next op id for `payload`, tags it with its issuing call,
  // and applies the mapper's sharding selection (deterministic, so every
  // shard rewrites the launch identically).
  OpRecord open_op(OpPayload payload);
  // Issue-time template dispatch: inside a trace window, tags the op with
  // the window's mode — Capture and Validate attach a fresh fine-stage point
  // plan (the shadow compare checks it), Replay attaches the recorded op and
  // plan and marks the op traced.  Payload or identity divergence aborts the
  // window.
  void plan_template_op(OpRecord& op);

  // Closes the auto window (if any) and stops the detector: the control
  // program is over, so the window can never complete its period, and the
  // finalization fence must not open a fresh one.
  void stop_auto_trace();

 protected:
  // Backend half of every API call, run after the call is hashed.  Must call
  // advance_call() exactly once.
  virtual void on_api_call(const char* name, const Hash128& h, SigBuilder& sig) = 0;
  // Dispatches one op into the backend's coarse/fine driver.
  virtual void issue(OpPayload payload) = 0;
  // Template validity epochs beyond the forest mutation epoch: the runtime
  // recovery epoch and the count of consensus deletions this shard folded in
  // (insertions shift op ids, breaking relative dep offsets).  Backends
  // without recovery or deferred deletion keep both at 0.
  virtual std::uint64_t recovery_epoch() const { return 0; }
  virtual std::uint64_t deletion_epoch() const { return 0; }

  // Hashes the call, then runs the backend half (on_api_call).
  void api_call(const char* name, SigBuilder& sig);
  // Bumps the call index, then runs the auto-trace tap and feeds the call to
  // the template manager.
  void advance_call();
  // Appends the call to the spy trace's per-shard call stream.
  void spy_call(const char* name, const Hash128& h, SigBuilder& sig);
  // Whether sig_* encoders should capture named arguments for the spy trace.
  bool cap() const { return env_.trace != nullptr; }

  FrontState& st_;
  const Env env_;

 private:
  // ---- automatic trace identification (dcr/trace_id.hpp) ----
  void auto_trace_observe();
  void open_window(TraceId id);
  void auto_close_window();
  // Fine-stage mapping for this shard's owned points of an index launch
  // (what a replay skips recomputing).
  std::shared_ptr<const PointPlanList> make_point_plan(const IndexPayload& index);
};

}  // namespace dcr::core
