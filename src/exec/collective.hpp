// Wall-clock collectives for the real-threads backend.
//
// CompletionFrontier: the cross-shard fence of paper §4.2 as the threads
// backend runs it.  Each rank publishes a monotone `done` counter after every
// op's fine stage (ops [0, done) have executed on that rank).  The fence
// before op B waits only until every peer's done >= B: exactly the guarantee
// a barrier at B gives (every rank finished every op below B), but a rank
// never waits for its peers to *reach* B — to hash, issue and coarse-analyse
// it.  This is the shape of Legion's phase-barrier fence, where the arrival
// fires on completion and the wait sits only at the dependent op.  A rank
// waits only on peers' progress below its own current op, so the rank at the
// lowest op never waits and the frontier cannot deadlock, even when ranks
// diverge.  Waiters park (C++20 atomic wait/notify, no spin) on the peer's
// wake word, which the peer bumps only when somebody is parked on it.
//
// The frontier also carries the paper's §3 control-determinism check, with
// no extra messages: every fenced op appends (op, running call fold) to the
// rank's bounded fence log, and the rank that logs ordinal k last compares
// every rank's entry k with rank 0's.  Every rank ends with one more entry
// marked kProgramEnd and waits until every peer has logged as many entries,
// so ranks that fenced a different number of times fail there rather than
// park, and the fold covers every call of the program.  A rank whose control
// program throws poisons the frontier.  Either way every parked and every
// later wait throws FenceAborted, so all ranks unwind, and the first failure
// is kept for the join.
//
// FenceCollective: a reusable N-thread barrier with the same checked
// arrivals — atomic arrival counter, sense-reversing by generation, futex-
// style parking.  The runtime's fences do not use it; wallbench's
// fence.probe_rt_ns round trip measures it as the barrier primitive.
//
// ValueCollective: the future all-reduce.  Every rank writes its (value,
// context) into its own slot before the arrival RMW; the last arriver
// combines the slots in rank order and publishes the result.  Rank-order
// combination makes the result independent of arrival order, so repeated
// runs (and the differential tests) see one value stream.  Under
// ThreadConfig::scope the contexts fold with the associative latest-merge into
// result_ctx(), mirroring the simulated collective's fan-in
// (sim/collective.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hash128.hpp"
#include "common/types.hpp"
#include "exec/queue.hpp"
#include "scope/context.hpp"

namespace dcr::exec {

// Thrown out of a fence wait (and out of future waits) once the run failed.
class FenceAborted : public std::runtime_error {
 public:
  FenceAborted() : std::runtime_error("cross-shard fence aborted") {}
};

// What a checked fence carries: the dependent op it fences and, with
// determinism checks on, the rank's running §3 call fold.
struct FenceEntry {
  std::uint64_t op = 0;
  Hash128 fold{};
  friend bool operator==(const FenceEntry&, const FenceEntry&) = default;
};

enum class FenceFailure : std::uint8_t { None, Diverged, Poisoned };

namespace detail {

// The op a rank fences once its control program has ended.
inline constexpr std::uint64_t kProgramEndOp = ~0ull;

inline std::string fence_where(std::uint64_t op) {
  return op == kProgramEndOp ? "ended its program" : "fenced op " + std::to_string(op);
}

// "" when every rank's entry equals rank 0's; otherwise a message naming rank
// 0's entry and every rank that differs from it.
template <typename EntryOf>
std::string fence_divergence(std::uint32_t ranks, EntryOf entry_of) {
  const FenceEntry& ref = entry_of(0);
  std::string diff;
  for (std::uint32_t r = 1; r < ranks; ++r) {
    const FenceEntry& a = entry_of(r);
    if (a == ref) continue;
    diff += diff.empty() ? "" : ", ";
    diff += "shard " + std::to_string(r) + " " + fence_where(a.op);
    if (a.op == ref.op) diff += " after a different call stream";
  }
  if (diff.empty()) return diff;
  return "control determinism violation at a cross-shard fence: shard 0 " +
         fence_where(ref.op) + "; " + diff;
}

// The first failure of a fence primitive and its message.
class FailureLatch {
 public:
  bool failed() const { return failed_.load(std::memory_order_seq_cst); }

  // Keeps the first failure; later ones only confirm the flag.
  void set(FenceFailure kind, std::string why) {
    std::lock_guard<std::mutex> lk(mu_);
    if (kind_ == FenceFailure::None) {
      kind_ = kind;
      message_ = std::move(why);
    }
    failed_.store(true, std::memory_order_seq_cst);
  }

  FenceFailure kind() const {
    std::lock_guard<std::mutex> lk(mu_);
    return kind_;
  }
  std::string message() const {
    std::lock_guard<std::mutex> lk(mu_);
    return message_;
  }

 private:
  mutable std::mutex mu_;
  FenceFailure kind_ = FenceFailure::None;  // guarded by mu_
  std::string message_;                     // guarded by mu_
  std::atomic<bool> failed_{false};
};

}  // namespace detail

class CompletionFrontier {
 public:
  using Entry = FenceEntry;
  using Failure = FenceFailure;
  static constexpr std::uint64_t kProgramEnd = detail::kProgramEndOp;

  explicit CompletionFrontier(std::uint32_t ranks) : ranks_(ranks) { DCR_CHECK(ranks >= 1); }

  CompletionFrontier(const CompletionFrontier&) = delete;
  CompletionFrontier& operator=(const CompletionFrontier&) = delete;

  std::uint32_t ranks() const { return static_cast<std::uint32_t>(ranks_.size()); }

  // Rank `r` has executed every op below `next` (monotone per rank).
  void complete(std::uint32_t r, std::uint64_t next) {
    Rank& me = ranks_[r];
    me.done.store(next, std::memory_order_seq_cst);
    ring(me);
  }

  // The fence before op `e.op` on rank `r`: logs `e` for the §3 check, then
  // waits until every peer has executed every op below e.op.  Throws
  // FenceAborted once the run has failed, including when this log entry is
  // the one that shows the ranks diverged.
  void fence(std::uint32_t r, const Entry& e) {
    log(r, e);
    // Park on the peer furthest behind, which is likely to finish last, so
    // a waiter is usually woken once rather than once per lagging peer.
    for (;;) {
      Rank* behind = nullptr;
      std::uint64_t least = e.op;
      for (std::uint32_t t = 0; t < ranks(); ++t) {
        const std::uint64_t done = ranks_[t].done.load(std::memory_order_seq_cst);
        if (t != r && done < least) {
          least = done;
          behind = &ranks_[t];
        }
      }
      if (behind == nullptr) return;
      await(*behind, [&] { return behind->done.load(std::memory_order_seq_cst) >= e.op; });
    }
  }

  // Rank `r`'s control program ended: one last log entry, then a wait until
  // every peer has logged as many entries, so a rank that fenced more or
  // fewer times than the others fails the run instead of leaving it parked.
  void end(std::uint32_t r, const Hash128& fold) {
    log(r, {kProgramEnd, fold});
    const std::uint64_t n = ranks_[r].logged.load(std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < ranks(); ++t) {
      if (t == r) continue;
      Rank& p = ranks_[t];
      await(p, [&] { return p.logged.load(std::memory_order_seq_cst) >= n; });
    }
  }

  // Fail the run from outside a fence (a rank's control program threw):
  // every parked rank wakes and throws, and so does every later wait.
  void poison(std::string why) { fail(Failure::Poisoned, std::move(why)); }

  bool failed() const { return failure_.failed(); }
  // The first failure and its message; read after the ranks joined.
  Failure failure() const { return failure_.kind(); }
  std::string failure_message() const { return failure_.message(); }

 private:
  // Log depth.  Entry k lives in slot k % kLogSlots until every rank has
  // logged k + 2 (so every comparison of k is over).  Ranks of a
  // control-deterministic program stay within two entries of each other —
  // passing fence k needs every peer past the op of fence k - 1 — so the
  // room wait in log() only ever parks a rank that has already diverged.
  static constexpr std::uint64_t kLogSlots = 8;

  struct alignas(kCacheLine) Rank {
    std::atomic<std::uint64_t> done{0};     // ops [0, done) executed (owner writes)
    std::atomic<std::uint64_t> logged{0};   // fence entries logged (owner writes)
    std::atomic<std::uint32_t> waiters{0};  // peers parked on `wake`
    std::atomic<std::uint32_t> wake{0};     // bumped when done/logged moves under waiters
    Entry log[kLogSlots];                   // written by the owner only
  };

  void log(std::uint32_t r, const Entry& e) {
    if (failed()) throw FenceAborted();
    Rank& me = ranks_[r];
    const std::uint64_t k = me.logged.load(std::memory_order_relaxed);
    if (k + 2 > kLogSlots) {
      const std::uint64_t need = k + 2 - kLogSlots;
      for (std::uint32_t t = 0; t < ranks(); ++t) {
        if (t == r) continue;
        Rank& p = ranks_[t];
        await(p, [&] { return p.logged.load(std::memory_order_seq_cst) >= need; });
      }
    }
    me.log[k % kLogSlots] = e;  // published by the seq_cst store below
    me.logged.store(k + 1, std::memory_order_seq_cst);
    ring(me);
    // Whoever logs ordinal k last compares every rank's entry k with rank
    // 0's (seq_cst counts: the last store sees every earlier one), so the
    // message names rank 0's entry and every rank that differs, whatever
    // the interleaving.  Several ranks may compare; they agree.
    for (const Rank& p : ranks_) {
      if (p.logged.load(std::memory_order_seq_cst) <= k) return;
    }
    std::string why = detail::fence_divergence(
        ranks(), [&](std::uint32_t t) -> const Entry& { return ranks_[t].log[k % kLogSlots]; });
    if (!why.empty()) {
      fail(Failure::Diverged, std::move(why));
      throw FenceAborted();
    }
  }

  // Wake the peers parked on `me`, if any.  The seq_cst store before this
  // and the waiter's seq_cst waiters increment before its re-check form a
  // Dekker pair: either the owner sees the waiter or the waiter sees the
  // progress.
  static void ring(Rank& me) {
    if (me.waiters.load(std::memory_order_seq_cst) == 0) return;
    me.wake.fetch_add(1, std::memory_order_seq_cst);
    me.wake.notify_all();
  }

  // Park until `ready()` holds for peer `p`; throws once the run failed.
  template <typename Ready>
  void await(Rank& p, Ready ready) {
    while (!ready()) {
      const std::uint32_t w = p.wake.load(std::memory_order_seq_cst);
      p.waiters.fetch_add(1, std::memory_order_seq_cst);
      if (!ready() && !failed()) p.wake.wait(w, std::memory_order_seq_cst);
      p.waiters.fetch_sub(1, std::memory_order_relaxed);
      if (failed()) throw FenceAborted();
    }
  }

  void fail(Failure kind, std::string why) {
    failure_.set(kind, std::move(why));
    for (Rank& p : ranks_) {
      p.wake.fetch_add(1, std::memory_order_seq_cst);
      p.wake.notify_all();
    }
  }

  std::vector<Rank> ranks_;
  detail::FailureLatch failure_;
};

class FenceCollective {
 public:
  using Arrival = FenceEntry;
  using Failure = FenceFailure;

  // The op a rank arrives with once its control program has ended.  Every
  // rank makes this one last arrival, so a rank that fenced fewer times than
  // the others meets their next fence here and the round fails as Diverged,
  // instead of leaving them parked.
  static constexpr std::uint64_t kProgramEnd = detail::kProgramEndOp;

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
  Failure failure() const { return failure_.kind(); }
  std::string failure_message() const { return failure_.message(); }

 private:
  struct alignas(kCacheLine) Slot {
    Arrival arrival;
  };

  void round(bool checked) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (failure_.failed()) throw FenceAborted();
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      // Every slot write happens-before this point via the arrived_ RMW chain.
      arrived_.store(0, std::memory_order_relaxed);
      if (checked) {
        std::string why = detail::fence_divergence(
            ranks_, [&](std::uint32_t r) -> const Arrival& { return slots_[r].arrival; });
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
    if (failure_.failed()) throw FenceAborted();
  }

  void fail(Failure kind, std::string why) {
    failure_.set(kind, std::move(why));
    generation_.fetch_add(1, std::memory_order_acq_rel);
    generation_.notify_all();
  }

  const std::uint32_t ranks_;
  std::vector<Slot> slots_;  // one per rank, written only by that rank
  detail::FailureLatch failure_;
  alignas(kCacheLine) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> generation_{0};
};

// One-shot all-reduce of doubles across N ranks.  Each rank writes its own
// slot before the arrival RMW; the rank that completes the set combines the
// slots in ascending rank order and publishes.
class ValueCollective {
 public:
  using CombineFn = std::function<double(double, double)>;

  ValueCollective(std::uint32_t ranks, double init, CombineFn combine)
      : slots_(ranks), init_(init), combine_(std::move(combine)) {
    DCR_CHECK(ranks >= 1);
  }

  ValueCollective(const ValueCollective&) = delete;
  ValueCollective& operator=(const ValueCollective&) = delete;

  // Contribute rank `r`'s value; each rank contributes exactly once.  The
  // optional TraceCtx is the contributor's causal context (ThreadConfig::
  // scope); the last arriver folds them with scope::latest so result_ctx()
  // names the globally last contributor, exactly like the simulated
  // collective's fan-in merge.
  void arrive(std::uint32_t r, double value, scope::TraceCtx ctx = {}) {
    DCR_CHECK(r < slots_.size());
    slots_[r] = Slot{value, ctx};  // own slot; published by the arrival RMW
    const std::uint32_t ranks = static_cast<std::uint32_t>(slots_.size());
    const std::uint32_t arrived = arrived_.fetch_add(1, std::memory_order_acq_rel) + 1;
    DCR_CHECK(arrived <= ranks) << "duplicate value-collective arrival";
    if (arrived != ranks) return;
    // Last arriver: every slot write happens-before this point via the RMW
    // chain.  Combine in rank order, then publish.
    double acc = init_;
    for (const Slot& s : slots_) {
      acc = combine_(acc, s.value);
      result_ctx_ = scope::latest(result_ctx_, s.ctx);
    }
    result_ = acc;
    std::uint8_t pending = kPending;
    if (state_.compare_exchange_strong(pending, kReady, std::memory_order_release,
                                       std::memory_order_relaxed)) {
      state_.notify_all();
    }
  }

  // Fail a collective that has not completed: every waiter wakes and throws
  // FenceAborted (a shard failed before contributing).
  void fail() {
    std::uint8_t pending = kPending;
    if (state_.compare_exchange_strong(pending, kFailed, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      state_.notify_all();
    }
  }

  bool ready() const { return state_.load(std::memory_order_acquire) == kReady; }

  // Block until the combined value is published; throws FenceAborted if the
  // collective failed first.
  double wait() const {
    std::uint8_t s;
    while ((s = state_.load(std::memory_order_acquire)) == kPending) {
      state_.wait(kPending, std::memory_order_acquire);
    }
    if (s == kFailed) throw FenceAborted();
    return result_;
  }

  double result() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return result_;
  }

  // Merged causal context of the contributions; valid once ready() (written
  // by the last arriver before the state_ release, read after acquire).
  const scope::TraceCtx& result_ctx() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return result_ctx_;
  }

 private:
  struct Slot {
    double value = 0.0;
    scope::TraceCtx ctx;
  };

  static constexpr std::uint8_t kPending = 0;
  static constexpr std::uint8_t kReady = 1;
  static constexpr std::uint8_t kFailed = 2;

  std::vector<Slot> slots_;  // one per rank, written only by that rank
  const double init_;
  CombineFn combine_;
  // Written by the last arriver only, read after the state_ release/acquire.
  double result_ = 0.0;
  scope::TraceCtx result_ctx_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint8_t> state_{kPending};
};

}  // namespace dcr::exec
