// Bounded lock-free queue for the real-threads backend.
//
// SpscQueue: single-producer / single-consumer ring buffer with acquire /
// release publication — the N×N inter-shard mailboxes (one per directed shard
// pair) use it so future-value delivery never takes a lock.
//
// It is fixed-capacity (power of two) and non-blocking at this layer:
// try_push / try_pop return false on full / empty, and close() wakes anyone
// spinning in the blocking helpers so shutdown-while-blocked cannot hang
// (tests/test_exec.cpp stresses exactly that).  Blocking helpers park on the
// queue's atomic via C++20 wait/notify rather than spinning hot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"

namespace dcr::exec {

inline constexpr std::size_t kCacheLine = 64;

inline std::size_t round_up_pow2(std::size_t n) {
  std::size_t c = 1;
  while (c < n) c <<= 1;
  return c;
}

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        cells_(capacity_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return capacity_; }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Producer side.  False when full (backpressure) or closed.
  bool try_push(T v) {
    if (closed()) return false;
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= capacity_) return false;
    cells_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
    return true;
  }

  // Consumer side.  Empty optional when nothing is available.
  std::optional<T> try_pop() {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return std::nullopt;
    std::optional<T> v(std::move(cells_[h & mask_]));
    head_.store(h + 1, std::memory_order_release);
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
    return v;
  }

  // Blocking producer: parks while full.  False iff the queue was closed
  // before the value could be enqueued.  The generation is loaded BEFORE the
  // attempt: any state change in between (a pop, a close) bumps progress_,
  // so the wait returns instead of sleeping through it.  Waiting on the
  // cursors themselves would miss close() — it wakes current sleepers but
  // never changes a cursor, so a rank parking just after that notify would
  // hang (QueueStress.ShutdownWhileBlocked caught exactly this).
  bool push(T v) {
    for (;;) {
      const std::uint64_t gen = progress_.load(std::memory_order_acquire);
      if (try_push(v)) return true;  // copy: v must survive a failed attempt
      if (closed()) return false;
      progress_.wait(gen, std::memory_order_acquire);
    }
  }

  // Blocking consumer: parks while empty.  Empty optional iff the queue was
  // closed and fully drained.
  std::optional<T> pop() {
    for (;;) {
      const std::uint64_t gen = progress_.load(std::memory_order_acquire);
      if (auto v = try_pop()) return v;
      if (closed()) return try_pop();  // drain a racing final push
      progress_.wait(gen, std::memory_order_acquire);
    }
  }

  // Wakes every blocked producer and consumer; pending items stay poppable.
  void close() {
    closed_.store(true, std::memory_order_release);
    progress_.fetch_add(1, std::memory_order_release);
    progress_.notify_all();
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> cells_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producer cursor
  // Progress generation: bumped on every successful push/pop and on close —
  // the only atomic the blocking helpers park on.  libstdc++ elides the futex
  // syscall when nobody is waiting, so the lock-free try_ paths stay cheap.
  alignas(kCacheLine) std::atomic<std::uint64_t> progress_{0};
  alignas(kCacheLine) std::atomic<bool> closed_{false};
};

}  // namespace dcr::exec
