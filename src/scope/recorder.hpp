// dcr-scope recorder: the per-run causal ledger.
//
// The runtime (dcr/runtime.cpp under DcrConfig::scope, or the real-threads
// backend exec/thread_runtime.cpp under ThreadConfig::scope) feeds the
// recorder from its hot paths:
//   - on_fine_stage   when a shard finishes a fine-analysis stage (fresh or
//                     template replay) — this becomes the shard's *current
//                     span*, the causal parent of everything it does next;
//   - fence_arrival   when a shard's control thread reaches a fence — records
//                     the arrival (op, iteration, time) in the shard's
//                     ledger and returns the shard's causal context;
//   - on_fence_wait   when a shard's fence wait resolves — records the wake
//                     time beside the arrival and feeds the flight recorder;
//   - on_future_wait  when a blocking future wait resolves, with the merged
//                     context of the contribution that released it;
//   - on_task_launch  when a point task is launched;
//   - on_message      from the network send tap (sim) or the mailbox publish
//                     path (threads), once per logical message carrying a
//                     valid context;
//   - harvest_fence   at end of a simulator run, copying each simulated
//                     FenceCollective's per-rank timestamps and merged releaser;
//   - harvest_shard_fences  at the join of a threads run, building the same
//                     records from the per-shard fence arrivals and spans.
//
// Thread-safety model (DESIGN.md §17): every hot-path hook writes only the
// calling shard's *single-writer* append ledger — no locks, no shared
// mutation.  Span ids come from one relaxed atomic counter so they are dense
// and globally unique on both backends.  The merged read-side views
// (spans(), launches(), ...) lazily splice the per-shard ledgers together and
// are only legal once the shards have quiesced (end of run on the threads
// backend; always on the single-threaded simulator).  Live observers — the
// wall-clock metrics refresher — must instead use the *_recorded() atomic
// counters, which are safe to read concurrently with writers.
//
// Everything is plain host-side state: no simulator events, no virtual time.
// By construction a scope-on run has a makespan identical to scope-off under
// the simulator, and per-rank fence waits (completion - arrival) equal
// dcr-prof's FenceWaitNs samples instant for instant — on the threads backend
// the *same two clock reads* feed both ledgers — which is what lets reports
// reconcile the two ledgers exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "scope/context.hpp"
#include "scope/flight.hpp"
#include "sim/collective.hpp"

namespace dcr::scope {

inline constexpr std::uint64_t kNoIter = ~0ull;

// A completed fine-analysis stage on one shard: the unit of causal blame.
struct SpanRec {
  std::uint64_t id = kNoSpan;
  std::uint32_t shard = kNoShard;
  std::uint64_t op = 0;
  bool replayed = false;  // produced by template replay rather than fresh analysis
  SimTime start = 0;
  SimTime end = 0;
};

// One rank's view of a fence round.
struct FenceShard {
  SimTime arrived_at = kTimeNever;    // when this shard contributed
  SimTime completed_at = kTimeNever;  // when the combined result reached it
  bool arrived() const { return arrived_at != kTimeNever; }
  bool completed() const { return completed_at != kTimeNever; }
  SimTime wait() const {
    return completed() && arrived() ? completed_at - arrived_at : 0;
  }
};

// One shard's side of one fence: the arrival and wake instants are the same
// two clock reads prof charges to FenceWaitNs.
struct FenceArrival {
  std::uint64_t op = 0;          // dependent OpId the fence protects
  std::uint64_t iter = kNoIter;
  SimTime arrived_at = kTimeNever;
  SimTime completed_at = kTimeNever;
};

// The blame ledger entry for one non-elided fence.
struct FenceRec {
  std::uint64_t op = 0;          // dependent OpId the fence protects
  std::uint64_t iter = kNoIter;  // loop iteration, if the program declared one
  std::vector<FenceShard> shards;
  TraceCtx releaser;             // merged context: last-releasing shard + span
  std::uint32_t last_shard = kNoShard;  // raw last arriver (valid scope-off too)
  SimTime first_arrival = kTimeNever;
  SimTime last_arrival = kTimeNever;
  SimTime completed_at = kTimeNever;
  bool complete = false;

  SimTime latency() const {
    return complete && completed_at >= first_arrival
               ? completed_at - first_arrival
               : 0;
  }
  SimTime total_wait() const {
    SimTime t = 0;
    for (const FenceShard& s : shards) t += s.wait();
    return t;
  }
};

// A resolved blocking future wait on one shard.
struct FutureRec {
  std::uint64_t future = 0;
  std::uint32_t shard = kNoShard;  // the waiter
  SimTime started = 0;
  SimTime ended = 0;
  TraceCtx releaser;  // last contribution merged into the future's collective
};

// A point-task launch, tagged with the span that caused it.
struct LaunchRec {
  std::uint32_t shard = kNoShard;
  std::uint64_t op = 0;
  std::uint64_t point = 0;
  std::uint64_t span = kNoSpan;
  SimTime at = 0;
};

// One resolved SDC-replication quorum (dcr/replicate).  Feeds the `quorum`
// report: disagreement counts, re-execution latency, and the shard ranking of
// corruption sources.
struct QuorumRec {
  std::uint64_t op = 0;
  std::uint64_t point = 0;
  std::uint32_t primary = kNoShard;
  std::uint32_t rounds = 0;      // re-execution rounds before resolution
  std::uint32_t ballots = 0;     // digests tallied (primary + replicas)
  std::uint32_t mismatches = 0;  // ballots out-voted by the winning digest
  bool primary_corrupted = false;
  std::vector<std::uint32_t> corrupted_shards;  // shard of each losing ballot
  SimTime opened = 0;
  SimTime resolved = 0;

  SimTime latency() const { return resolved >= opened ? resolved - opened : 0; }
};

struct MessageStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Recorder {
 public:
  explicit Recorder(std::size_t num_shards, std::uint64_t trace_id = 1)
      : trace_(trace_id) {
    DCR_CHECK(trace_id != 0) << "trace id 0 means 'tracing off'";
    shards_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<ShardLedger>());
    }
  }

  std::uint64_t trace_id() const { return trace_; }
  std::size_t num_shards() const { return shards_.size(); }

  // Attach a crash flight recorder (scope/flight.hpp): every hot-path hook
  // also appends a bounded-ring event, so a post-mortem dump needs no re-run.
  // Must be set before shard threads start; may be null.
  void set_flight(FlightRecorder* flight) { flight_ = flight; }
  FlightRecorder* flight() const { return flight_; }

  // ---- spans -------------------------------------------------------------
  // Called by the owning shard thread only.  Ids are dense across shards
  // (one atomic allocator), so after a quiesced merge spans()[i].id == i.
  std::uint64_t on_fine_stage(std::uint32_t shard, std::uint64_t op,
                              bool replayed, SimTime start, SimTime end) {
    ShardLedger& led = ledger(shard);
    const std::uint64_t id = next_span_.fetch_add(1, std::memory_order_relaxed);
    led.spans.push_back(SpanRec{id, shard, op, replayed, start, end});
    led.current = id;
    if (flight_ != nullptr) {
      flight_->record(shard, FlightEvent{FlightEvent::Kind::Span, shard, op,
                                         /*aux=*/id, start, end});
    }
    return id;
  }

  // The context a message from `shard` carries right now: the shard's last
  // completed fine stage (kNoSpan while it is still in pure control work).
  // Only the owning shard thread may call this (it reads the single-writer
  // current-span cell).
  TraceCtx current_ctx(std::uint32_t shard, SimTime now) const {
    return TraceCtx{trace_, ledger(shard).current, shard, now};
  }

  // ---- fences ------------------------------------------------------------
  // Called when a shard's control thread reaches the fence for `fence_op`;
  // records the arrival in the shard's ledger and returns the context to
  // stamp onto it.
  TraceCtx fence_arrival(std::uint64_t fence_op, std::uint32_t shard,
                         std::uint64_t iter, SimTime now) {
    ledger(shard).fences.push_back(FenceArrival{fence_op, iter, now, kTimeNever});
    return current_ctx(shard, now);
  }

  // A shard's fence wait resolved: [started, ended) is exactly the interval
  // prof charged to FenceWaitNs.  Stamps the wake time onto the shard's
  // latest arrival (a shard waits out each fence before it reaches the next)
  // and feeds the flight recorder.
  void on_fence_wait(std::uint32_t shard, std::uint64_t fence_op,
                     SimTime started, SimTime ended) {
    std::vector<FenceArrival>& fences = ledger(shard).fences;
    if (!fences.empty() && fences.back().op == fence_op) fences.back().completed_at = ended;
    if (flight_ != nullptr) {
      flight_->record(shard, FlightEvent{FlightEvent::Kind::FenceWait, shard,
                                         fence_op, /*aux=*/0, started, ended});
    }
  }

  // End of a simulator run: copy the collective's per-rank timestamps +
  // merged releaser.
  void harvest_fence(std::uint64_t fence_op, const sim::FenceCollective& coll) {
    FenceRec rec;
    rec.op = fence_op;
    rec.iter = lookup_fence_iter(fence_op);
    rec.shards.resize(coll.num_ranks());
    for (std::size_t r = 0; r < coll.num_ranks(); ++r) {
      rec.shards[r].arrived_at = coll.arrival_time(r);
      rec.shards[r].completed_at = coll.completion_time(r);
    }
    rec.releaser = coll.releaser();
    rec.last_shard = coll.last_arrival_rank();
    rec.first_arrival = coll.first_arrival();
    rec.last_arrival = coll.last_arrival();
    rec.completed_at = coll.completed_at();
    rec.complete = coll.complete();
    fences_.push_back(std::move(rec));
    fences_count_.store(fences_.size(), std::memory_order_relaxed);
  }

  // Join of a threads run (quiesced): every shard passed the same fences in
  // the same order, so fence i is the i-th arrival in every shard's ledger.
  // Builds one FenceRec per fence, in fence order.  A shard's wait at the
  // fence before op B ends once every peer has executed every op below B, so
  // the fence is released by the shard whose fine stage of op B-1 ended last:
  // the releaser is the latest-merge, in rank order, of each shard's span of
  // op B-1 stamped with its end (ties go to the larger rank), and the fence
  // completed at that instant.  A run that aborted on a divergence stops at
  // the first fence whose shards fenced different ops.
  void harvest_shard_fences() {
    std::size_t rounds = shards_.empty() ? 0 : shards_[0]->fences.size();
    for (const auto& led : shards_) rounds = std::min(rounds, led->fences.size());
    for (std::size_t i = 0; i < rounds; ++i) {
      FenceRec rec;
      rec.op = shards_[0]->fences[i].op;
      if (!std::all_of(shards_.begin(), shards_.end(),
                       [&](const auto& led) { return led->fences[i].op == rec.op; })) {
        break;
      }
      rec.shards.resize(shards_.size());
      rec.complete = true;
      for (std::uint32_t r = 0; r < shards_.size(); ++r) {
        const FenceArrival& a = shards_[r]->fences[i];
        rec.shards[r] = FenceShard{a.arrived_at, a.completed_at};
        rec.complete = rec.complete && rec.shards[r].completed();
        if (rec.iter == kNoIter) rec.iter = a.iter;
        if (a.arrived_at < rec.first_arrival) rec.first_arrival = a.arrived_at;
        if (rec.last_arrival == kTimeNever || a.arrived_at > rec.last_arrival) {
          rec.last_arrival = a.arrived_at;
        }
        if (const SpanRec* sp = op_span(r, rec.op - 1)) {
          rec.releaser = latest(rec.releaser, TraceCtx{trace_, sp->id, r, sp->end});
        }
      }
      if (rec.releaser.valid()) {
        rec.last_shard = rec.releaser.origin;
        rec.completed_at = rec.releaser.at;
      }
      fences_.push_back(std::move(rec));
    }
    fences_count_.store(fences_.size(), std::memory_order_relaxed);
  }

  const std::vector<FenceRec>& fences() const { return fences_; }

  // One shard's fence arrivals in the order it passed them (quiesced only).
  const std::vector<FenceArrival>& shard_fences(std::uint32_t shard) const {
    return ledger(shard).fences;
  }

  // ---- futures -----------------------------------------------------------
  void on_future_wait(std::uint32_t shard, std::uint64_t future,
                      SimTime started, SimTime ended, TraceCtx releaser) {
    ledger(shard).future_waits.push_back(
        FutureRec{future, shard, started, ended, releaser});
    future_waits_count_.fetch_add(1, std::memory_order_relaxed);
    if (flight_ != nullptr) {
      flight_->record(shard, FlightEvent{FlightEvent::Kind::FutureWait, shard,
                                         future, /*aux=*/releaser.origin,
                                         started, ended});
    }
  }

  // ---- task launches -----------------------------------------------------
  void on_task_launch(std::uint32_t shard, std::uint64_t op, std::uint64_t point,
                      SimTime at) {
    ShardLedger& led = ledger(shard);
    led.launches.push_back(LaunchRec{shard, op, point, led.current, at});
    launches_count_.fetch_add(1, std::memory_order_relaxed);
    if (flight_ != nullptr) {
      flight_->record(shard, FlightEvent{FlightEvent::Kind::Launch, shard, op,
                                         /*aux=*/point, at, at});
    }
  }

  // ---- SDC quorums (simulator-only callers; quiesced or single-threaded) --
  void on_quorum(QuorumRec rec) { quorums_.push_back(std::move(rec)); }
  const std::vector<QuorumRec>& quorums() const { return quorums_; }

  // ---- network tap -------------------------------------------------------
  // Atomic per-origin counters: safe from any thread (the sim network tap and
  // the threads backend's mailbox publish path both report the *origin*).
  void on_message(const TraceCtx& ctx, std::uint64_t bytes) {
    if (!ctx.valid() || ctx.origin >= shards_.size()) return;
    ShardLedger& led = *shards_[ctx.origin];
    led.messages.fetch_add(1, std::memory_order_relaxed);
    led.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  // ---- live counters (safe concurrently with writers) --------------------
  std::uint64_t spans_recorded() const {
    return next_span_.load(std::memory_order_relaxed);
  }
  std::uint64_t launches_recorded() const {
    return launches_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t future_waits_recorded() const {
    return future_waits_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t fences_recorded() const {
    return fences_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_recorded() const {
    std::uint64_t n = 0;
    for (const auto& led : shards_) {
      n += led->messages.load(std::memory_order_relaxed);
    }
    return n;
  }

  // ---- merged read-side views (quiesced shards only) ---------------------
  // Spans sorted by their dense ids, so spans()[i].id == i.
  const std::vector<SpanRec>& spans() const {
    merge_spans();
    return merged_spans_;
  }
  const SpanRec* span(std::uint64_t id) const {
    merge_spans();
    return id < merged_spans_.size() ? &merged_spans_[id] : nullptr;
  }
  const std::vector<FutureRec>& future_waits() const {
    const std::uint64_t want = future_waits_count_.load(std::memory_order_relaxed);
    if (merged_future_waits_.size() != want) {
      merged_future_waits_.clear();
      merged_future_waits_.reserve(want);
      for (const auto& led : shards_) {
        merged_future_waits_.insert(merged_future_waits_.end(),
                                    led->future_waits.begin(),
                                    led->future_waits.end());
      }
    }
    return merged_future_waits_;
  }
  const std::vector<LaunchRec>& launches() const {
    const std::uint64_t want = launches_count_.load(std::memory_order_relaxed);
    if (merged_launches_.size() != want) {
      merged_launches_.clear();
      merged_launches_.reserve(want);
      for (const auto& led : shards_) {
        merged_launches_.insert(merged_launches_.end(), led->launches.begin(),
                                led->launches.end());
      }
    }
    return merged_launches_;
  }
  const std::vector<MessageStats>& messages() const {
    merged_messages_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      merged_messages_[s].messages =
          shards_[s]->messages.load(std::memory_order_relaxed);
      merged_messages_[s].bytes =
          shards_[s]->bytes.load(std::memory_order_relaxed);
    }
    return merged_messages_;
  }

  // ---- run info ----------------------------------------------------------
  void set_run_info(SimTime makespan, std::uint64_t recovery_epochs) {
    makespan_ = makespan;
    recovery_epochs_ = recovery_epochs;
  }
  SimTime makespan() const { return makespan_; }
  std::uint64_t recovery_epochs() const { return recovery_epochs_; }

 private:
  // Single-writer per-shard ledger; only the owning shard thread appends.
  // Heap-allocated so the atomics never share a cache line across shards.
  struct ShardLedger {
    std::vector<SpanRec> spans;
    std::vector<FutureRec> future_waits;
    std::vector<LaunchRec> launches;
    std::vector<FenceArrival> fences;
    std::uint64_t current = kNoSpan;  // current span (owner thread only)
    alignas(64) std::atomic<std::uint64_t> messages{0};  // own cache line
    std::atomic<std::uint64_t> bytes{0};
  };

  ShardLedger& ledger(std::uint32_t shard) {
    DCR_CHECK(shard < shards_.size());
    return *shards_[shard];
  }
  const ShardLedger& ledger(std::uint32_t shard) const {
    DCR_CHECK(shard < shards_.size());
    return *shards_[shard];
  }

  // `shard`'s span of `op` (its spans are appended in op order), or null.
  const SpanRec* op_span(std::uint32_t shard, std::uint64_t op) const {
    const std::vector<SpanRec>& spans = ledger(shard).spans;
    auto it = std::lower_bound(spans.begin(), spans.end(), op,
                               [](const SpanRec& sp, std::uint64_t o) { return sp.op < o; });
    return it != spans.end() && it->op == op ? &*it : nullptr;
  }

  // Iteration label for a fence, merged across shards: the first non-kNoIter
  // report wins (every shard of a deterministic program reports the same
  // label, so the merge order cannot change the value).
  std::uint64_t lookup_fence_iter(std::uint64_t fence_op) const {
    std::uint64_t iter = kNoIter;
    bool seen = false;
    for (const auto& led : shards_) {
      for (const FenceArrival& f : led->fences) {
        if (f.op != fence_op) continue;
        seen = true;
        if (f.iter != kNoIter && iter == kNoIter) iter = f.iter;
      }
    }
    return seen ? iter : kNoIter;
  }

  void merge_spans() const {
    const std::uint64_t want = next_span_.load(std::memory_order_relaxed);
    if (merged_spans_.size() == want) return;
    merged_spans_.clear();
    merged_spans_.reserve(want);
    for (const auto& led : shards_) {
      merged_spans_.insert(merged_spans_.end(), led->spans.begin(),
                           led->spans.end());
    }
    // Dense ids: position by id so spans()[i].id == i on both backends.
    std::vector<SpanRec> by_id(merged_spans_.size());
    for (SpanRec& sp : merged_spans_) {
      DCR_CHECK(sp.id < by_id.size()) << "span ids must be dense";
      by_id[sp.id] = sp;
    }
    merged_spans_ = std::move(by_id);
  }

  std::uint64_t trace_;
  std::vector<std::unique_ptr<ShardLedger>> shards_;
  std::atomic<std::uint64_t> next_span_{0};
  std::atomic<std::uint64_t> launches_count_{0};
  std::atomic<std::uint64_t> future_waits_count_{0};
  std::atomic<std::uint64_t> fences_count_{0};
  std::vector<FenceRec> fences_;   // harvest-time only (quiesced)
  std::vector<QuorumRec> quorums_;
  FlightRecorder* flight_ = nullptr;
  SimTime makespan_ = 0;
  std::uint64_t recovery_epochs_ = 0;

  // Lazy merged views; rebuilt when the atomic counts outgrow them.  Only
  // touched from quiesced contexts (see header comment), so plain mutables.
  mutable std::vector<SpanRec> merged_spans_;
  mutable std::vector<FutureRec> merged_future_waits_;
  mutable std::vector<LaunchRec> merged_launches_;
  mutable std::vector<MessageStats> merged_messages_;
};

}  // namespace dcr::scope
