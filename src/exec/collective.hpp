// Wall-clock collectives for the real-threads backend.
//
// FenceCollective: the cross-shard fence of paper §4.1/§4.2 as a reusable
// N-thread barrier — atomic arrival counter plus futex-style parking via
// C++20 atomic wait/notify (no mutex, no condvar, no spin).  Sense-reversing
// by generation, so one object serves every round: every shard passes every
// fence of a control-deterministic program in the same order, so the threads
// backend routes all of a run's fences through one instance.
//
// The fence also carries the paper's §3 control-determinism check, with no
// extra messages: each checked arrival writes the op it fences and its
// running call fold into its own rank slot before the arrival RMW, and the
// last arriver compares the slots.  A mismatch releases the round as failed.
// Every rank ends with one more arrival marked kProgramEnd, so ranks that
// fenced a different number of times fail there rather than park, and the
// fold covers every call of the program.
// A shard whose control program throws poisons the barrier.  Either way
// every parked and every later arrival throws FenceAborted, so all shards
// unwind instead of parking forever, and the first failure is kept for the
// join.
//
// ValueCollective: the future all-reduce/broadcast — every shard pushes its
// (rank, value) contribution through an MPMC fan-in queue; the last arriver
// drains the queue, combines in deterministic rank order, and publishes the
// result for everyone.  Rank-order combination makes the result independent
// of arrival order, so repeated runs (and the differential tests) see one
// value stream.  Under ThreadConfig::scope the arriving TraceCtxs fold with
// the associative latest-merge into result_ctx(), mirroring the simulated
// collective's fan-in (sim/collective.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hash128.hpp"
#include "common/types.hpp"
#include "exec/queue.hpp"
#include "scope/context.hpp"

namespace dcr::exec {

// Thrown out of FenceCollective::arrive_and_wait once the barrier has failed.
class FenceAborted : public std::runtime_error {
 public:
  FenceAborted() : std::runtime_error("cross-shard fence aborted") {}
};

class FenceCollective {
 public:
  // What a checked arrival carries: the dependent op it fences and, with
  // determinism checks on, the rank's running §3 call fold.
  struct Arrival {
    std::uint64_t op = 0;
    Hash128 fold{};
    friend bool operator==(const Arrival&, const Arrival&) = default;
  };

  // The op a rank arrives with once its control program has ended.  Every
  // rank makes this one last arrival, so a rank that fenced fewer times than
  // the others meets their next fence here and the round fails as Diverged,
  // instead of leaving them parked.
  static constexpr std::uint64_t kProgramEnd = ~0ull;

  enum class Failure : std::uint8_t { None, Diverged, Poisoned };

  explicit FenceCollective(std::uint32_t ranks) : ranks_(ranks), slots_(ranks) {
    DCR_CHECK(ranks >= 1);
  }

  FenceCollective(const FenceCollective&) = delete;
  FenceCollective& operator=(const FenceCollective&) = delete;

  std::uint32_t ranks() const { return ranks_; }
  std::uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  // Arrive and block until all ranks of this round have arrived.  The last
  // arriver bumps the generation and wakes the parked ranks.  An object is
  // used either with these unchecked arrivals or with checked ones, never
  // both.  Throws FenceAborted once the barrier has failed.
  void arrive_and_wait() { round(/*checked=*/false); }

  // Checked arrival for `rank`: as above, and the last arriver compares every
  // rank's Arrival.  On a mismatch the round fails as Diverged, with a
  // message naming the op each shard fenced, and every rank throws.
  void arrive_and_wait(std::uint32_t rank, const Arrival& a) {
    DCR_CHECK(rank < ranks_);
    slots_[rank].arrival = a;  // own slot; published by the arrival RMW
    round(/*checked=*/true);
  }

  // Fail the barrier from outside a round (a shard's control program threw):
  // every parked rank wakes and throws, and so does every later arrival.
  void poison(std::string why) { fail(Failure::Poisoned, std::move(why)); }

  // The first failure and its message; read after the ranks joined.
  Failure failure() const {
    std::lock_guard<std::mutex> lk(fail_mu_);
    return failure_;
  }
  std::string failure_message() const {
    std::lock_guard<std::mutex> lk(fail_mu_);
    return failure_message_;
  }

 private:
  struct alignas(kCacheLine) Slot {
    Arrival arrival;
  };

  void round(bool checked) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (failed_.load(std::memory_order_acquire)) throw FenceAborted();
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      // Every slot write happens-before this point via the arrived_ RMW chain.
      arrived_.store(0, std::memory_order_relaxed);
      if (checked) {
        std::string why = divergence();
        if (!why.empty()) {
          fail(Failure::Diverged, std::move(why));
          throw FenceAborted();
        }
      }
      generation_.fetch_add(1, std::memory_order_acq_rel);
      generation_.notify_all();
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
    if (failed_.load(std::memory_order_acquire)) throw FenceAborted();
  }

  // Last arriver only: "" when every rank agrees with rank 0.
  std::string divergence() const {
    const Arrival& ref = slots_[0].arrival;
    std::string diff;
    for (std::uint32_t r = 1; r < ranks_; ++r) {
      const Arrival& a = slots_[r].arrival;
      if (a == ref) continue;
      diff += diff.empty() ? "" : ", ";
      diff += "shard " + std::to_string(r) + " " + where(a.op);
      if (a.op == ref.op) diff += " after a different call stream";
    }
    if (diff.empty()) return diff;
    return "control determinism violation at a cross-shard fence: shard 0 " + where(ref.op) +
           "; " + diff;
  }

  static std::string where(std::uint64_t op) {
    return op == kProgramEnd ? "ended its program" : "fenced op " + std::to_string(op);
  }

  void fail(Failure kind, std::string why) {
    {
      std::lock_guard<std::mutex> lk(fail_mu_);
      if (failure_ == Failure::None) {
        failure_ = kind;
        failure_message_ = std::move(why);
      }
      failed_.store(true, std::memory_order_release);
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
  }

  const std::uint32_t ranks_;
  std::vector<Slot> slots_;  // one per rank, written only by that rank
  mutable std::mutex fail_mu_;
  Failure failure_ = Failure::None;  // guarded by fail_mu_
  std::string failure_message_;      // guarded by fail_mu_
  std::atomic<bool> failed_{false};
  alignas(kCacheLine) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> generation_{0};
};

// One-shot all-reduce of doubles across N ranks.  Contributions fan in
// through an MPMC queue (multi-producer: every shard thread pushes); the
// rank that completes the set combines in ascending rank order and publishes.
class ValueCollective {
 public:
  using CombineFn = std::function<double(double, double)>;

  ValueCollective(std::uint32_t ranks, double init, CombineFn combine)
      : ranks_(ranks), init_(init), combine_(std::move(combine)), fanin_(ranks) {
    DCR_CHECK(ranks >= 1);
    slots_.assign(ranks_, 0.0);
    slot_set_.assign(ranks_, 0);
  }

  ValueCollective(const ValueCollective&) = delete;
  ValueCollective& operator=(const ValueCollective&) = delete;

  // Contribute rank `r`'s value; each rank contributes exactly once.  The
  // optional TraceCtx is the contributor's causal context (ThreadConfig::
  // scope); the last arriver folds them with scope::latest so result_ctx()
  // names the globally last contributor, exactly like the simulated
  // collective's fan-in merge.
  void arrive(std::uint32_t r, double value, scope::TraceCtx ctx = {}) {
    DCR_CHECK(r < ranks_);
    const bool pushed = fanin_.try_push(Contribution{r, value, ctx});
    DCR_CHECK(pushed) << "value-collective fan-in overflow (duplicate arrival?)";
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      // Last arriver: drain the fan-in, combine in rank order, publish.
      while (auto c = fanin_.try_pop()) {
        DCR_CHECK(!slot_set_[c->rank]) << "duplicate value-collective arrival";
        slot_set_[c->rank] = 1;
        slots_[c->rank] = c->value;
        result_ctx_ = scope::latest(result_ctx_, c->ctx);
      }
      double acc = init_;
      for (std::uint32_t i = 0; i < ranks_; ++i) {
        DCR_CHECK(slot_set_[i]) << "value-collective missing rank " << i;
        acc = combine_(acc, slots_[i]);
      }
      result_bits_.store(bits_of(acc), std::memory_order_relaxed);
      ready_.store(true, std::memory_order_release);
      ready_.notify_all();
    }
  }

  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Block until the combined value is published.
  double wait() const {
    while (!ready_.load(std::memory_order_acquire)) {
      ready_.wait(false, std::memory_order_acquire);
    }
    return value_of(result_bits_.load(std::memory_order_relaxed));
  }

  double result() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return value_of(result_bits_.load(std::memory_order_relaxed));
  }

  // Merged causal context of the contributions; valid once ready() (written
  // by the draining thread before the ready_ release, read after acquire).
  const scope::TraceCtx& result_ctx() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return result_ctx_;
  }

 private:
  struct Contribution {
    std::uint32_t rank = 0;
    double value = 0.0;
    scope::TraceCtx ctx;
  };

  static std::uint64_t bits_of(double d) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(d));
    __builtin_memcpy(&b, &d, sizeof(b));
    return b;
  }
  static double value_of(std::uint64_t b) {
    double d;
    __builtin_memcpy(&d, &b, sizeof(d));
    return d;
  }

  const std::uint32_t ranks_;
  const double init_;
  CombineFn combine_;
  MpmcQueue<Contribution> fanin_;
  // Slot arrays and the merged context are written only by the single
  // draining thread (the last arriver) and read after the ready_
  // release/acquire edge.
  std::vector<double> slots_;
  std::vector<std::uint8_t> slot_set_;
  scope::TraceCtx result_ctx_;
  alignas(kCacheLine) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> result_bits_{0};
  alignas(kCacheLine) std::atomic<bool> ready_{false};
};

}  // namespace dcr::exec
