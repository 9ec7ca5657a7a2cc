// Real-threads execution backend (src/exec): primitive units and stress
// tests for the lock-free transport, plus the differential suite that runs
// every fuzz program through BOTH backends — the discrete-event simulator
// (the oracle) and the OS-thread runtime — and demands spy-identical task
// graphs, identical per-shard call-hash streams, and identical analysis
// statistics.  The sweeps ride the "exec" ctest label (see check-exec) and
// are also run under ThreadSanitizer by check-hardened.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "common/philox.hpp"
#include "dcr/runtime.hpp"
#include "dcr_fuzz_programs.hpp"
#include "exec/clock.hpp"
#include "exec/collective.hpp"
#include "exec/gate.hpp"
#include "exec/queue.hpp"
#include "exec/thread_runtime.hpp"
#include "spy/trace.hpp"
#include "spy/verify.hpp"

namespace dcr::exec {
namespace {

using core::ApplicationMain;
using core::DcrConfig;
using core::DcrRuntime;
using core::DcrStats;
using core::FunctionRegistry;

// ===========================================================================
// Primitive units
// ===========================================================================

TEST(SpscQueue, FifoOrderAndBackpressure) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99)) << "full queue must exert backpressure";
  for (int i = 0; i < 4; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  SpscQueue<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscQueue, CloseDrainsPendingItems) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_FALSE(q.try_push(3)) << "closed queue rejects new items";
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value()) << "drained + closed pop returns empty";
}

TEST(FenceCollective, ReusableAcrossGenerations) {
  constexpr std::uint32_t kRanks = 4;
  constexpr int kRounds = 50;
  FenceCollective fence(kRanks);
  std::atomic<int> inside{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        inside.fetch_add(1);
        fence.arrive_and_wait();
        // Everyone from this round must have arrived before anyone leaves.
        if (inside.load() < kRanks * (round + 1)) torn.store(true);
        fence.arrive_and_wait();  // second barrier so rounds can't overlap
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(fence.generation(), static_cast<std::uint64_t>(2 * kRounds));
}

TEST(ValueCollective, CombinesInRankOrderRegardlessOfArrival) {
  // A deliberately non-commutative combine exposes any arrival-order
  // dependence: acc = 2*acc + v yields a unique value per rank order.
  constexpr std::uint32_t kRanks = 6;
  double expected = 0.0;
  for (std::uint32_t r = 0; r < kRanks; ++r) expected = 2.0 * expected + (r + 1);
  for (int trial = 0; trial < 20; ++trial) {
    ValueCollective coll(kRanks, 0.0, [](double a, double b) { return 2.0 * a + b; });
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] { coll.arrive(r, r + 1.0); });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(coll.ready());
    EXPECT_EQ(coll.result(), expected);
  }
}

TEST(ValueCollective, FailWakesWaiterAndLeavesACompletedOneAlone) {
  ValueCollective pending(2, 0.0, [](double a, double b) { return a + b; });
  pending.arrive(0, 1.0);
  std::thread waiter([&] { EXPECT_THROW(pending.wait(), FenceAborted); });
  pending.fail();
  waiter.join();
  EXPECT_FALSE(pending.ready());

  ValueCollective done(1, 0.0, [](double a, double b) { return a + b; });
  done.arrive(0, 2.5);
  done.fail();  // too late: the result stands
  EXPECT_EQ(done.wait(), 2.5);
}

// The frontier fence waits for peers to *complete* the ops below it, not to
// reach it: rank 0 passes its fence while rank 1, its ops done, is held back
// until rank 0 has passed.  A fence that needed rank 1's arrival would keep
// both parked until rank 1 gives up after 10 s.
TEST(CompletionFrontier, FenceWaitsForPeerCompletionNotArrival) {
  CompletionFrontier frontier(2);
  std::atomic<bool> passed{false};
  std::thread peer([&] {
    frontier.complete(1, 5);  // ops 0..4 executed
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!passed.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(passed.load()) << "rank 0's fence waited for rank 1 to arrive";
    frontier.fence(1, {5, {}});
    frontier.complete(1, 6);
    frontier.end(1, {});
  });
  frontier.complete(0, 5);
  frontier.fence(0, {5, {}});
  passed.store(true);
  frontier.complete(0, 6);
  frontier.end(0, {});
  peer.join();
  EXPECT_EQ(frontier.failure(), FenceFailure::None);
}

// Every rank waits in its fence until each peer has published completion of
// every op below it.
TEST(CompletionFrontier, NoRankPassesAFenceBeforeEveryPeerCompletedTheOpsBelow) {
  constexpr std::uint32_t kRanks = 4;
  constexpr std::uint64_t kOps = 200;
  CompletionFrontier frontier(kRanks);
  std::vector<std::atomic<std::uint64_t>> executed(kRanks);
  std::atomic<bool> early{false};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (std::uint64_t op = 0; op < kOps; ++op) {
        if (op % 3 == 1) {  // every third op is fenced
          frontier.fence(r, {op, {}});
          for (const auto& e : executed) {
            if (e.load() < op) early.store(true);
          }
        }
        executed[r].store(op + 1);
        frontier.complete(r, op + 1);
      }
      frontier.end(r, {});
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(early.load());
  EXPECT_EQ(frontier.failure(), FenceFailure::None);
}

TEST(ConcurrencyGate, NeverExceedsSlotCap) {
  constexpr std::uint32_t kSlots = 3;
  ConcurrencyGate gate(kSlots);
  std::atomic<std::uint32_t> inside{0};
  std::atomic<std::uint32_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        gate.acquire();
        const std::uint32_t now = inside.fetch_add(1) + 1;
        std::uint32_t prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
        gate.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), kSlots);
}

TEST(ConcurrencyGate, BlocksWhenSlotsExhausted) {
  ConcurrencyGate gate(2);
  gate.acquire();
  gate.acquire();  // both slots held by this thread
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    gate.acquire();
    acquired.store(true, std::memory_order_release);
    gate.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire))
      << "gate admitted a third holder with both slots taken";
  gate.release();  // frees exactly one slot; the waiter must now proceed
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
  gate.release();
}

TEST(ConcurrencyGate, UncappedIsPassThrough) {
  ConcurrencyGate gate(0);
  EXPECT_FALSE(gate.enabled());
  gate.acquire();  // must not block or count
  gate.release();
}

TEST(WallClock, MonotonicRealNanoseconds) {
  WallClock clock;
  const SimTime a = clock.now();
  const SimTime b = clock.now();
  EXPECT_LE(a, b);
  // A real sleep must advance the reading by roughly that much.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(clock.now() - b, static_cast<SimTime>(1'000'000));
}

// ===========================================================================
// Stress: backpressure and shutdown-while-blocked
// ===========================================================================

TEST(QueueStress, SpscFullQueueBackpressure) {
  // 1000 iterations of a capacity-2 ring: the producer is almost always
  // blocked on a full queue, the consumer almost always on an empty one.
  constexpr std::uint64_t kItems = 1000;
  SpscQueue<std::uint64_t> q(2);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
  });
  std::uint64_t expect = 0;
  std::thread consumer([&] {
    while (expect < kItems) {
      auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, expect) << "SPSC order broken under backpressure";
      expect++;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(expect, kItems);
}

TEST(QueueStress, ShutdownWhileBlocked) {
  // 1000 iterations: a consumer parked on an empty queue and a producer
  // parked on a full one must both return promptly once close() lands —
  // the only assertion is termination (a hang here is the bug).
  for (int iter = 0; iter < 1000; ++iter) {
    SpscQueue<int> q(2);
    std::thread consumer([&] {
      while (q.pop().has_value()) {
      }
    });
    std::thread producer([&] {
      int i = 0;
      while (q.push(i) && ++i < 8) {
      }
    });
    q.close();
    consumer.join();
    producer.join();
  }
}

// ===========================================================================
// Differential harness: simulator backend as the oracle
// ===========================================================================

sim::MachineConfig cluster(std::size_t nodes) {
  return {.num_nodes = nodes,
          .compute_procs_per_node = 1,
          .network = {.alpha = us(1), .ns_per_byte = 0.1}};
}

struct BackendRun {
  DcrStats stats;
  spy::Trace trace;
  // Non-volatile per-shard prof counters (wall-time Ns counters excluded).
  std::vector<std::vector<std::uint64_t>> counters;
  std::vector<std::uint64_t> globals;
  std::uint64_t collective_rounds = 0;
  // Dependent op of every fence the scope ledger harvested, in ledger order
  // (threads runs with DiffOptions::scope only).
  std::vector<std::uint64_t> scope_fence_ops;
};

constexpr prof::Counter kParityCounters[] = {
    prof::Counter::CoarseOps,          prof::Counter::TracedCoarseOps,
    prof::Counter::FineOps,            prof::Counter::TracedFineOps,
    prof::Counter::FinePoints,         prof::Counter::FenceWaits,
    prof::Counter::FutureWaits,        prof::Counter::ExecutionFences,
    prof::Counter::WindowsClosed,      prof::Counter::TemplateWindowHits,
    prof::Counter::TemplateWindowMisses, prof::Counter::StaticSkipOps,
    prof::Counter::StaticSkipPoints,
};

constexpr prof::GlobalCounter kParityGlobals[] = {
    prof::GlobalCounter::FenceDecisions, prof::GlobalCounter::FencesIssued,
    prof::GlobalCounter::FencesElided,   prof::GlobalCounter::FenceCollectives,
    prof::GlobalCounter::FutureCollectives,
};

void harvest_counters(const prof::Profiler& prof, std::size_t shards, BackendRun* out) {
  out->counters.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    for (prof::Counter c : kParityCounters) {
      out->counters[s].push_back(prof.shard(static_cast<std::uint32_t>(s)).get(c));
    }
  }
  for (prof::GlobalCounter g : kParityGlobals) {
    out->globals.push_back(prof.global().get(g));
  }
  out->collective_rounds = prof.global().get(prof::GlobalCounter::CollectiveRounds);
}

struct DiffOptions {
  bool statics_check = false;
  bool disable_fence_elision = false;
  core::TraceIdConfig auto_trace;
  bool scope = false;  // threads backend only
};

BackendRun run_sim(const ApplicationMain& app, FunctionRegistry& functions,
                   std::size_t shards, const DiffOptions& opt = {}) {
  sim::Machine machine(cluster(shards));
  DcrConfig cfg;
  cfg.record_trace = true;
  cfg.statics_check = opt.statics_check;
  cfg.disable_fence_elision = opt.disable_fence_elision;
  cfg.auto_trace = opt.auto_trace;
  DcrRuntime rt(machine, functions, cfg);
  BackendRun out;
  out.stats = rt.execute(app);
  out.trace = *rt.trace();
  harvest_counters(rt.profiler(), shards, &out);
  return out;
}

BackendRun run_threads(const ApplicationMain& app, FunctionRegistry& functions,
                       std::size_t shards, const DiffOptions& opt = {}) {
  ThreadConfig cfg;
  cfg.num_shards = shards;
  cfg.record_trace = true;
  cfg.statics_check = opt.statics_check;
  cfg.disable_fence_elision = opt.disable_fence_elision;
  cfg.auto_trace = opt.auto_trace;
  cfg.scope = opt.scope;
  ThreadRuntime rt(functions, cfg);
  BackendRun out;
  out.stats = rt.execute(app);
  out.trace = *rt.trace();
  harvest_counters(rt.profiler(), shards, &out);
  if (rt.scope()) {
    for (const dcr::scope::FenceRec& f : rt.scope()->fences()) {
      out.scope_fence_ops.push_back(f.op);
    }
  }
  return out;
}

// The load-bearing assertion: both backends produced the same observable
// execution.  `volatile` quantities — wall/virtual makespans, busy times and
// bytes_moved/messages (no physical model on threads) — are deliberately
// excluded.
void expect_equivalent(const BackendRun& sim_run, const BackendRun& thr_run,
                       const char* what) {
  ASSERT_TRUE(sim_run.stats.completed) << what << ": simulator run failed";
  ASSERT_TRUE(thr_run.stats.completed)
      << what << ": threads run failed: " << thr_run.stats.abort_message;
  EXPECT_FALSE(sim_run.stats.determinism_violation) << what;
  EXPECT_FALSE(thr_run.stats.determinism_violation)
      << what << ": " << thr_run.stats.violation_message;

  // Task graph: same tasks (op, point, accesses) and same dependence edges.
  std::string why;
  EXPECT_TRUE(spy::graph_equivalent(sim_run.trace, thr_run.trace, &why))
      << what << ": " << why;

  // §3 call streams: per shard, the same calls with the same hashes in the
  // same order on both backends.
  ASSERT_EQ(sim_run.trace.calls.size(), thr_run.trace.calls.size()) << what;
  for (std::size_t s = 0; s < sim_run.trace.calls.size(); ++s) {
    const auto& a = sim_run.trace.calls[s];
    const auto& b = thr_run.trace.calls[s];
    ASSERT_EQ(a.size(), b.size()) << what << ": call count diverged on shard " << s;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].name, b[i].name) << what << ": shard " << s << " call " << i;
      ASSERT_TRUE(a[i].hash == b[i].hash)
          << what << ": hash diverged at shard " << s << " call " << i << " ("
          << a[i].name << ")";
    }
  }

  // Analysis statistics.
  const DcrStats& a = sim_run.stats;
  const DcrStats& b = thr_run.stats;
  EXPECT_EQ(a.ops_issued, b.ops_issued) << what;
  EXPECT_EQ(a.point_tasks_launched, b.point_tasks_launched) << what;
  EXPECT_EQ(a.fences_inserted, b.fences_inserted) << what;
  EXPECT_EQ(a.fences_elided, b.fences_elided) << what;
  EXPECT_EQ(a.coarse_deps, b.coarse_deps) << what;
  EXPECT_EQ(a.determinism_checks, b.determinism_checks) << what;
  EXPECT_EQ(a.traced_ops, b.traced_ops) << what;
  EXPECT_EQ(a.templates_captured, b.templates_captured) << what;
  EXPECT_EQ(a.templates_validated, b.templates_validated) << what;
  EXPECT_EQ(a.template_replays, b.template_replays) << what;
  EXPECT_EQ(a.template_invalidations, b.template_invalidations) << what;
  EXPECT_EQ(a.template_validation_failures, b.template_validation_failures) << what;
  EXPECT_EQ(a.statics_resolved_ops, b.statics_resolved_ops) << what;
  EXPECT_EQ(a.statics_unresolved_ops, b.statics_unresolved_ops) << what;
  EXPECT_EQ(a.statics_skipped_points, b.statics_skipped_points) << what;
  EXPECT_EQ(a.statics_cache_hits, b.statics_cache_hits) << what;

  // Non-volatile prof counters, per shard and global.
  ASSERT_EQ(sim_run.counters.size(), thr_run.counters.size()) << what;
  for (std::size_t s = 0; s < sim_run.counters.size(); ++s) {
    EXPECT_EQ(sim_run.counters[s], thr_run.counters[s])
        << what << ": prof counters diverged on shard " << s;
  }
  EXPECT_EQ(sim_run.globals, thr_run.globals) << what << ": global prof counters";
}

// ------------------------------------------------------ basic functionality

TEST(ThreadBackend, SingleShardSmoke) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  ThreadConfig cfg;
  cfg.num_shards = 1;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([fn](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId part = ctx.partition_equal(root, 4);
    ctx.fill(root, {f});
    core::IndexLaunch l;
    l.fn = fn;
    l.domain = rt::Rect::r1(0, 3);
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
    ctx.index_launch(l);
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.point_tasks_launched, 4u);
}

TEST(ThreadBackend, FuturesBroadcastAndReduce) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple(
      "valued", us(1), 0.0,
      [](const core::PointTaskInfo& info) {
        return 10.0 + static_cast<double>(info.point[0]);
      });
  for (std::size_t shards : {1u, 2u, 4u}) {
    ThreadConfig cfg;
    cfg.num_shards = shards;
    ThreadRuntime rt(functions, cfg);
    // One slot per shard: every shard thread records what it observed.
    std::vector<double> single(shards, 0.0), reduced(shards, 0.0);
    const DcrStats stats = rt.execute([&, fn](core::Context& ctx) {
      const FieldSpaceId fs = ctx.create_field_space();
      const FieldId f = ctx.allocate_field(fs, 8, "x");
      const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
      const IndexSpaceId root = ctx.root(tree);
      const PartitionId part = ctx.partition_equal(root, 4);
      ctx.fill(root, {f});
      // Single task with a future: only the owner executes, all observe.
      core::TaskLaunch tl;
      tl.fn = fn;
      tl.requirements.push_back(
          {root, {f}, rt::Privilege::ReadWrite, rt::kNoRedop});
      tl.wants_future = true;
      single[ctx.shard_id().value] = ctx.get_future(ctx.launch(tl));
      // Index launch reduced to one future: the all-reduce collective.
      core::IndexLaunch il;
      il.fn = fn;
      il.domain = rt::Rect::r1(0, 3);
      il.requirements.push_back(
          rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
      il.wants_futures = true;
      const core::FutureMap fm = ctx.index_launch(il);
      reduced[ctx.shard_id().value] =
          ctx.get_future(ctx.reduce_future_map(fm, core::ReduceOp::Sum));
    });
    ASSERT_TRUE(stats.completed) << shards << " shards: " << stats.abort_message;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(single[s], 10.0) << shards << " shards, shard " << s;  // point 0
      EXPECT_EQ(reduced[s], 10 + 11 + 12 + 13) << shards << " shards, shard " << s;
    }
    EXPECT_FALSE(stats.determinism_violation) << stats.violation_message;
  }
}

TEST(ThreadBackend, DivergentControlProgramIsCaught) {
  FunctionRegistry functions;
  ThreadConfig cfg;
  cfg.num_shards = 4;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    // Shard-dependent argument: a §3 violation the folded digests must flag.
    ctx.allocate_field(fs, 8 + ctx.shard_id().value, "diverge");
  });
  EXPECT_TRUE(stats.determinism_violation);
  EXPECT_FALSE(stats.completed);
  EXPECT_NE(stats.violation_message.find("determinism"), std::string::npos)
      << stats.violation_message;
}

TEST(ThreadBackend, ProfLedgerInvariantsReconcile) {
  // The dcr-prof ledger invariants must hold on wall-clock spans/counters
  // exactly as they do in virtual time (ISSUE satellite 6).
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  Philox4x32 rng(fuzz::seed_for_label("exec-ledger", 0), /*stream=*/11);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, 6);
  ThreadConfig cfg;
  cfg.num_shards = 4;
  cfg.profile = true;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats =
      rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
  ASSERT_TRUE(stats.completed) << stats.abort_message;

  const prof::Profiler& prof = rt.profiler();
  EXPECT_EQ(prof.global().get(prof::GlobalCounter::FencesIssued) +
                prof.global().get(prof::GlobalCounter::FencesElided),
            prof.global().get(prof::GlobalCounter::FenceDecisions));
  for (std::uint32_t s = 0; s < 4; ++s) {
    const prof::Counters& c = prof.shard(s);
    EXPECT_EQ(c.get(prof::Counter::TemplateWindowHits) +
                  c.get(prof::Counter::TemplateWindowMisses),
              c.get(prof::Counter::WindowsClosed))
        << "shard " << s;
    EXPECT_GT(c.get(prof::Counter::WindowsClosed), 0u) << "shard " << s;
  }
}

// ------------------------------------------------------ API-surface parity

// The fuzz programs below only create, fill, index-launch, open trace
// windows and fence.  This program makes every other API call the shared
// control-plane front end (dcr/shard_front.hpp) implements: partition_grid,
// the four attach/detach variants, destroy_region, future_is_ready, Min and
// Max future-map reductions, and a single-task future.  The index launch and
// its reductions sit inside a repeated trace window so capture, validation
// and replay all see them; the single task stays outside, because single-op
// ownership rotates with op ids and a window holding it would re-record
// forever (dcr/template.hpp).
TEST(ExecParity, EveryApiCallAgreesAcrossBackends) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple(
      "valued", us(1), 1.0,
      [](const core::PointTaskInfo& info) { return 1.0 + static_cast<double>(info.point[0]); });
  const ApplicationMain app = [fn](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r2(0, 15, 0, 7), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId grid = ctx.partition_grid(root, 4, 2);
    ctx.attach_file(root, {f}, "input");
    ctx.attach_file_group(grid, {f}, "pieces");

    core::TaskLaunch tl;
    tl.fn = fn;
    tl.requirements.push_back({root, {f}, rt::Privilege::ReadOnly, rt::kNoRedop});
    tl.wants_future = true;
    const core::Future single = ctx.launch(tl);
    // Hashed like any call; the answer is timing-dependent, so never branch on it.
    (void)ctx.future_is_ready(single);
    EXPECT_EQ(ctx.get_future(single), 1.0);

    core::IndexLaunch il;
    il.fn = fn;
    il.domain = rt::Rect::r2(0, 3, 0, 1);
    il.requirements.push_back(
        rt::GroupRequirement::on_partition(grid, {f}, rt::Privilege::ReadWrite));
    il.wants_futures = true;
    for (int iter = 0; iter < 6; ++iter) {
      ctx.begin_trace(TraceId(7));
      const core::FutureMap fm = ctx.index_launch(il);
      const core::Future lo = ctx.reduce_future_map(fm, core::ReduceOp::Min);
      const core::Future hi = ctx.reduce_future_map(fm, core::ReduceOp::Max);
      ctx.end_trace(TraceId(7));
      EXPECT_EQ(ctx.get_future(lo), 1.0);
      EXPECT_EQ(ctx.get_future(hi), 4.0);
    }

    ctx.detach_file_group(grid, {f});
    ctx.detach_file(root, {f});
    ctx.destroy_region(tree);
  };
  for (std::size_t shards : {1u, 2u, 4u}) {
    const std::string what = "api surface, shards " + std::to_string(shards);
    const BackendRun sim_run = run_sim(app, functions, shards);
    const BackendRun thr_run = run_threads(app, functions, shards);
    expect_equivalent(sim_run, thr_run, what.c_str());
    EXPECT_GT(thr_run.stats.template_replays, 0u) << what;
  }
}

// ------------------------------------------------ coarse replicas

// Every shard decides every op on its own CoarseAnalyzer replica, shard 0
// alone does the once-per-op accounting, and every fence goes through the
// run's completion frontier.  Eight shard threads on a smaller host run far apart,
// and the two programs between them mix captured, validated, replayed and
// fresh ops with blocking futures.  The runs must match the simulator on
// stats, prof counters and the collective globals, and the scope ledger
// must hold one fence record per fenced op, in ascending op order.
TEST(ExecPublication, EightShardsMatchSimulatorAndHarvestFencesInOpOrder) {
  core::TraceIdConfig auto_trace;
  auto_trace.enabled = true;
  auto_trace.min_period = 2;
  auto_trace.probe = 6;
  auto_trace.promote_periods = 1;
  struct Program {
    const char* name;
    apps::StencilConfig cfg;
  };
  const Program programs[] = {
      {"phase stencil", {.cells_per_tile = 32, .tiles = 16, .steps = 48, .phase_every = 6}},
      // Hand trace windows, and every step reduces a residual outside the
      // window and branches on it: a blocking future per step.
      {"residual stencil",
       {.cells_per_tile = 32, .tiles = 16, .steps = 24, .use_trace = true,
        .residual_every = 1, .phase_every = 4}},
  };
  constexpr std::size_t kShards = 8;
  for (const Program& p : programs) {
    FunctionRegistry functions;
    const ApplicationMain app =
        apps::make_stencil_app(p.cfg, apps::register_stencil_functions(functions, 1.0));
    DiffOptions opt;
    opt.auto_trace = auto_trace;
    const BackendRun sim_run = run_sim(app, functions, kShards, opt);
    opt.scope = true;
    for (int run = 0; run < 3; ++run) {
      const std::string what = std::string(p.name) + " run " + std::to_string(run);
      const BackendRun thr_run = run_threads(app, functions, kShards, opt);
      expect_equivalent(sim_run, thr_run, what.c_str());
      EXPECT_EQ(sim_run.collective_rounds, thr_run.collective_rounds) << what;
      // The program exercised every coarse path.
      EXPECT_GT(thr_run.stats.templates_captured, 0u) << what;
      EXPECT_GT(thr_run.stats.templates_validated, 0u) << what;
      EXPECT_GT(thr_run.stats.template_replays, 0u) << what;
      // traced_ops sums over shards; ops_issued is per shard.
      EXPECT_LT(thr_run.stats.traced_ops, thr_run.stats.ops_issued * kShards) << what;
      if (p.cfg.residual_every > 0) {
        EXPECT_NE(std::count_if(thr_run.trace.calls[0].begin(), thr_run.trace.calls[0].end(),
                                [](const spy::CallRecord& c) { return c.name == "get_future"; }),
                  0)
            << what;
      }

      std::vector<std::uint64_t> fenced_ops;
      for (const spy::OpRecord& op : thr_run.trace.ops) {
        if (!op.fence_sources.empty()) fenced_ops.push_back(op.id.value);
      }
      ASSERT_EQ(fenced_ops.size(), thr_run.stats.fences_inserted) << what;
      EXPECT_TRUE(std::is_sorted(fenced_ops.begin(), fenced_ops.end())) << what;
      EXPECT_EQ(thr_run.scope_fence_ops, fenced_ops) << what;
      if (::testing::Test::HasFailure()) FAIL() << what;
    }
  }
}

// Replica agreement: with scope on, each shard's own fence records list
// exactly the simulator's fenced ops (the shards' replicas agreed on every
// fence), and the FenceRecs harvested from those records reconcile exactly,
// per shard, with prof FenceWaitNs.  Eight shards over the ExecLoopFuzz
// programs and the phase-changing auto-traced stencil.
void expect_replicas_agree(const ApplicationMain& app, FunctionRegistry& functions,
                           const DiffOptions& sim_opt, const std::string& what) {
  constexpr std::size_t kShards = 8;
  const BackendRun sim_run = run_sim(app, functions, kShards, sim_opt);
  ASSERT_TRUE(sim_run.stats.completed) << what;
  std::vector<std::uint64_t> fenced_ops;
  for (const spy::OpRecord& op : sim_run.trace.ops) {
    if (!op.fence_sources.empty()) fenced_ops.push_back(op.id.value);
  }

  ThreadConfig cfg;
  cfg.num_shards = kShards;
  cfg.scope = true;
  cfg.statics_check = sim_opt.statics_check;
  cfg.auto_trace = sim_opt.auto_trace;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute(app);
  ASSERT_TRUE(stats.completed) << what << ": " << stats.abort_message;
  ASSERT_NE(rt.scope(), nullptr);
  const dcr::scope::Recorder& rec = *rt.scope();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::vector<std::uint64_t> shard_ops;
    for (const dcr::scope::FenceArrival& f : rec.shard_fences(s)) shard_ops.push_back(f.op);
    EXPECT_EQ(shard_ops, fenced_ops) << what << ": shard " << s;
  }
  ASSERT_EQ(rec.fences().size(), fenced_ops.size()) << what;
  std::vector<SimTime> waited(kShards, 0);
  for (std::size_t i = 0; i < rec.fences().size(); ++i) {
    const dcr::scope::FenceRec& f = rec.fences()[i];
    EXPECT_EQ(f.op, fenced_ops[i]) << what;
    EXPECT_TRUE(f.complete) << what << ": fence for op " << f.op;
    ASSERT_EQ(f.shards.size(), kShards) << what;
    for (std::size_t s = 0; s < kShards; ++s) waited[s] += f.shards[s].wait();
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(waited[s], rt.profiler().shard(s).get(prof::Counter::FenceWaitNs))
        << what << ": shard " << s;
  }
}

TEST(ExecReplicas, ShardFenceLedgersMatchSimulatorAndReconcile) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Philox4x32 rng(fuzz::seed_for_label("exec-loop", seed), /*stream=*/13);
    const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    DiffOptions opt;
    opt.statics_check = true;
    expect_replicas_agree(fuzz::materialize_loop(program, fn, /*use_trace=*/true), functions,
                          opt, "loop seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
  }
  DiffOptions opt;
  opt.auto_trace.enabled = true;
  opt.auto_trace.min_period = 2;
  opt.auto_trace.probe = 6;
  opt.auto_trace.promote_periods = 1;
  FunctionRegistry functions;
  const apps::StencilConfig phase{.cells_per_tile = 32, .tiles = 16, .steps = 48,
                                  .phase_every = 6};
  expect_replicas_agree(
      apps::make_stencil_app(phase, apps::register_stencil_functions(functions, 1.0)),
      functions, opt, "phase stencil");
}

// ------------------------------------------------------ completion frontier

// The fence guarantee observed from inside the tasks: every point task takes
// a global sequence stamp in its duration model, and the spy trace gives each
// op's fence sources.  For every fenced op B, every point of B (on any shard)
// must be stamped after every point of every op below B (on any shard).  The
// stamps are one atomic's modification order, which respects happens-before,
// so a fence that let a shard start B's points before a peer finished an
// earlier op could show up as an inversion.
struct StampLog {
  explicit StampLog(std::size_t shards) : per_shard(shards) {}
  std::atomic<std::uint64_t> seq{0};
  std::vector<std::vector<std::uint64_t>> per_shard;  // each appended by its shard only
};

// Set by each shard thread before its control program runs.
thread_local std::uint32_t tls_stamp_shard = 0;

// A copy of `src` (same FunctionIds) whose duration models also stamp.
void register_stamped(const FunctionRegistry& src, StampLog* log, FunctionRegistry* out) {
  for (std::uint32_t i = 0; i < src.size(); ++i) {
    core::TaskFunction f = src.at(FunctionId(i));
    f.duration = [inner = f.duration, log](const core::PointTaskInfo& info) {
      log->per_shard[tls_stamp_shard].push_back(
          log->seq.fetch_add(1, std::memory_order_relaxed));
      return inner(info);
    };
    out->register_function(std::move(f));
  }
}

void expect_fences_order_points(const ApplicationMain& app, const FunctionRegistry& base,
                                std::size_t shards, const DiffOptions& opt,
                                const std::string& what) {
  StampLog log(shards);
  FunctionRegistry functions;
  register_stamped(base, &log, &functions);
  ThreadConfig cfg;
  cfg.num_shards = shards;
  cfg.record_trace = true;
  cfg.statics_check = opt.statics_check;
  cfg.auto_trace = opt.auto_trace;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([&app](core::Context& ctx) {
    tls_stamp_shard = ctx.shard_id().value;
    app(ctx);
  });
  ASSERT_TRUE(stats.completed) << what << ": " << stats.abort_message;
  const spy::Trace& trace = *rt.trace();

  // Point tasks are the tasks of index launches and single tasks; each
  // shard launches them, and so stamps, in its trace order.
  std::map<std::uint64_t, const spy::OpRecord*> ops;
  for (const spy::OpRecord& op : trace.ops) ops[op.id.value] = &op;
  std::vector<std::vector<std::uint64_t>> point_ops(shards);
  for (const spy::TaskRecord& t : trace.tasks) {
    const std::string& kind = ops.at(t.op.value)->kind;
    if (kind == "index_launch" || kind == "task") point_ops[t.shard.value].push_back(t.op.value);
  }
  struct Range {
    std::uint64_t lo = ~0ull;
    std::uint64_t hi = 0;
  };
  std::map<std::uint64_t, Range> stamps;  // op -> stamps of its points, all shards
  for (std::size_t s = 0; s < shards; ++s) {
    ASSERT_EQ(point_ops[s].size(), log.per_shard[s].size()) << what << ": shard " << s;
    for (std::size_t i = 0; i < point_ops[s].size(); ++i) {
      Range& r = stamps[point_ops[s][i]];
      r.lo = std::min(r.lo, log.per_shard[s][i]);
      r.hi = std::max(r.hi, log.per_shard[s][i]);
    }
  }

  std::size_t checked = 0;
  std::uint64_t below = 0;  // 1 + the latest stamp of any point of the ops so far
  for (const auto& [id, op] : ops) {
    auto it = stamps.find(id);
    if (it == stamps.end()) continue;
    if (!op->fence_sources.empty()) {
      EXPECT_GE(it->second.lo, below)
          << what << ": a point of fenced op " << id << " ran before a point of an earlier op";
      ++checked;
    }
    below = std::max(below, it->second.hi + 1);
  }
  EXPECT_GT(checked, 0u) << what;
}

TEST(ExecProgressFence, LoopFuzzPointsRunAfterEveryEarlierOp) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Philox4x32 rng(fuzz::seed_for_label("exec-loop", seed), /*stream=*/13);
    const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    DiffOptions opt;
    opt.statics_check = true;
    const ApplicationMain app = fuzz::materialize_loop(program, fn, /*use_trace=*/true);
    for (std::size_t shards : {2u, 4u, 8u}) {
      expect_fences_order_points(app, functions, shards, opt,
                                 "loop seed " + std::to_string(seed) + " shards " +
                                     std::to_string(shards));
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ExecProgressFence, PhaseStencilPointsRunAfterEveryEarlierOp) {
  DiffOptions opt;
  opt.auto_trace.enabled = true;
  opt.auto_trace.min_period = 2;
  opt.auto_trace.probe = 6;
  opt.auto_trace.promote_periods = 1;
  FunctionRegistry functions;
  const apps::StencilConfig phase{.cells_per_tile = 32, .tiles = 16, .steps = 48,
                                  .phase_every = 6};
  const ApplicationMain app =
      apps::make_stencil_app(phase, apps::register_stencil_functions(functions, 1.0));
  for (std::size_t shards : {2u, 4u, 8u}) {
    expect_fences_order_points(app, functions, shards, opt,
                               "phase stencil shards " + std::to_string(shards));
  }
}

// ------------------------------------------------------------- fail-stop

// A control divergence or a shard exception must end the run, bounded, with
// a classified outcome.  Each replica decides its own ops, so a diverged
// shard fences differently; the fence-carried §3 check (op id + call fold in
// every fence log entry) catches it, and a throwing shard poisons the
// frontier.  A futures-free stencil-shaped loop: each iteration writes its
// own pieces and reads its neighbours' halos, so every iteration fences.
// These tests run as their own ctest entries with a TIMEOUT, so a regression
// fails instead of hanging.
enum class Fault { Privilege, ExtraLaunch, TrailingLaunch, Throw };

ApplicationMain faulty_stencil(FunctionId fn, Fault fault) {
  return [fn, fault](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId pieces = ctx.partition_equal(root, 8);
    const PartitionId halos = ctx.partition_with_halo(root, 8, 1);
    ctx.fill(root, {f});
    core::IndexLaunch write;
    write.fn = fn;
    write.domain = rt::Rect::r1(0, 7);
    write.requirements.push_back(
        rt::GroupRequirement::on_partition(pieces, {f}, rt::Privilege::ReadWrite));
    core::IndexLaunch read = write;
    read.requirements[0] =
        rt::GroupRequirement::on_partition(halos, {f}, rt::Privilege::ReadOnly);
    for (int iter = 0; iter < 10; ++iter) {
      const bool here = iter == 5 && ctx.shard_id().value == 1;
      if (here && fault == Fault::Throw) throw std::runtime_error("injected failure");
      core::IndexLaunch w = write;
      if (here && fault == Fault::Privilege) {
        w.requirements[0].privilege = rt::Privilege::ReadOnly;
      }
      ctx.index_launch(w);
      if (here && fault == Fault::ExtraLaunch) ctx.index_launch(w);
      ctx.index_launch(read);
    }
    if (fault == Fault::TrailingLaunch && ctx.shard_id().value == 1) ctx.index_launch(write);
  };
}

DcrStats run_faulty(Fault fault, bool record_trace = false, bool checks = true) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  ThreadConfig cfg;
  cfg.num_shards = 4;
  cfg.record_trace = record_trace;
  cfg.determinism_checks = checks;
  ThreadRuntime rt(functions, cfg);
  return rt.execute(faulty_stencil(fn, fault));
}

void expect_violation(const DcrStats& stats) {
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.aborted);
  EXPECT_TRUE(stats.determinism_violation) << stats.abort_message;
  EXPECT_NE(stats.violation_message.find("determinism"), std::string::npos)
      << stats.violation_message;
}

// The barrier itself: one rank fencing a different op fails the round on
// every rank, and a poisoned barrier wakes a parked rank.
TEST(ExecFailStop, MismatchedArrivalFailsEveryRank) {
  constexpr std::uint32_t kRanks = 3;
  FenceCollective fence(kRanks);
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      try {
        fence.arrive_and_wait(r, {/*op=*/4, {}});  // a clean round first
        fence.arrive_and_wait(r, {/*op=*/r == 2 ? 6u : 5u, {}});
      } catch (const FenceAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(aborted.load(), static_cast<int>(kRanks));
  EXPECT_EQ(fence.failure(), FenceCollective::Failure::Diverged);
  EXPECT_NE(fence.failure_message().find("shard 0 fenced op 5; shard 2 fenced op 6"),
            std::string::npos)
      << fence.failure_message();
  EXPECT_THROW(fence.arrive_and_wait(), FenceAborted);  // stays failed
}

TEST(ExecFailStop, PoisonWakesParkedRanks) {
  FenceCollective fence(3);
  std::atomic<int> aborted{0};
  std::vector<std::thread> waiters;
  for (std::uint32_t r = 0; r < 2; ++r) {
    waiters.emplace_back([&, r] {
      try {
        fence.arrive_and_wait(r, {/*op=*/9, {}});
      } catch (const FenceAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  fence.poison("shard 2: boom");
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(aborted.load(), 2);
  EXPECT_EQ(fence.failure(), FenceCollective::Failure::Poisoned);
  EXPECT_EQ(fence.failure_message(), "shard 2: boom");
}

// The frontier's §3 check: whichever rank logs an ordinal last compares every
// rank's entry with rank 0's, so the message names rank 0's entry and the
// rank that differs whatever the interleaving, and every rank unwinds.
TEST(ExecFailStop, FrontierMismatchFailsEveryRank) {
  constexpr std::uint32_t kRanks = 3;
  CompletionFrontier frontier(kRanks);
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      try {
        frontier.complete(r, 4);
        frontier.fence(r, {/*op=*/4, {}});  // a clean fence first
        frontier.complete(r, 7);
        frontier.fence(r, {/*op=*/r == 2 ? 6u : 5u, {}});
        frontier.complete(r, 8);
        frontier.end(r, {});
      } catch (const FenceAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(aborted.load(), static_cast<int>(kRanks));
  EXPECT_EQ(frontier.failure(), FenceFailure::Diverged);
  EXPECT_EQ(frontier.failure_message(),
            "control determinism violation at a cross-shard fence: shard 0 fenced op 5; "
            "shard 2 fenced op 6");
  EXPECT_THROW(frontier.fence(0, {9, {}}), FenceAborted);  // stays failed
}

TEST(ExecFailStop, FrontierPoisonWakesWaitingRanks) {
  CompletionFrontier frontier(3);
  std::atomic<int> aborted{0};
  std::vector<std::thread> waiters;
  for (std::uint32_t r = 0; r < 2; ++r) {
    waiters.emplace_back([&, r] {
      try {
        frontier.fence(r, {/*op=*/9, {}});  // rank 2 never completes op 8
      } catch (const FenceAborted&) {
        aborted.fetch_add(1);
      }
    });
  }
  frontier.poison("shard 2: boom");
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(aborted.load(), 2);
  EXPECT_EQ(frontier.failure(), FenceFailure::Poisoned);
  EXPECT_EQ(frontier.failure_message(), "shard 2: boom");
}

// A shard that fails before producing a future must not leave its peers
// parked in get_future.  Two shards; shard 1 throws before issuing anything.
// Shard 0 issues two fence-free ops — a single task it owns (op 0) and the
// single task with the future, owned by shard 1 (op 1) — or an index launch
// and its reduction, then waits on the future.
ApplicationMain fails_before_producer(FunctionId fn, bool reduce) {
  return [fn, reduce](core::Context& ctx) {
    if (ctx.shard_id().value == 1) throw std::runtime_error("failed before the producer");
    core::Future f;
    if (reduce) {
      core::IndexLaunch il;
      il.fn = fn;
      il.domain = rt::Rect::r1(0, 1);
      il.wants_futures = true;
      f = ctx.reduce_future_map(ctx.index_launch(il), core::ReduceOp::Sum);
    } else {
      core::TaskLaunch tl;
      tl.fn = fn;
      ctx.launch(tl);
      tl.wants_future = true;
      f = ctx.launch(tl);
    }
    (void)ctx.get_future(f);
  };
}

void expect_wait_unwinds(bool reduce) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple(
      "valued", us(1), 1.0, [](const core::PointTaskInfo&) { return 1.0; });
  ThreadConfig cfg;
  cfg.num_shards = 2;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute(fails_before_producer(fn, reduce));
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.determinism_violation) << stats.violation_message;
  EXPECT_EQ(stats.abort_message, "shard 1: failed before the producer");
}

TEST(ExecFailStop, SingleTaskFutureWaitWakesOnShardFailure) {
  expect_wait_unwinds(/*reduce=*/false);
}

TEST(ExecFailStop, ReduceFutureWaitWakesOnShardFailure) {
  expect_wait_unwinds(/*reduce=*/true);
}

TEST(ExecFailStop, ChangedPrivilegeIsCaughtAtTheNextFence) {
  const DcrStats stats = run_faulty(Fault::Privilege);
  expect_violation(stats);
  // Names the fenced op and the diverged shard.
  EXPECT_NE(stats.violation_message.find("shard 0 fenced op "), std::string::npos)
      << stats.violation_message;
  EXPECT_NE(stats.violation_message.find("shard 1 fenced op "), std::string::npos)
      << stats.violation_message;
  EXPECT_EQ(stats.violation_message.find("shard 2"), std::string::npos)
      << stats.violation_message;
  // With a spy trace the linter names the diverged call instead.
  expect_violation(run_faulty(Fault::Privilege, /*record_trace=*/true));
}

TEST(ExecFailStop, ExtraIndexLaunchIsCaughtAtTheNextFence) {
  const DcrStats stats = run_faulty(Fault::ExtraLaunch);
  expect_violation(stats);
  EXPECT_NE(stats.violation_message.find("shard 1 fenced op "), std::string::npos)
      << stats.violation_message;
}

// With checks off the fence log entries carry op ids only.  Shard 1's
// trailing write fences as the same op as the others' final execution fence,
// so every entry in the op stream agrees; the others then end their program
// while shard 1 still fences, and that entry must fail the run rather than
// leave shard 1 parked.
TEST(ExecFailStop, TrailingLaunchWithChecksOffIsCaught) {
  const DcrStats stats =
      run_faulty(Fault::TrailingLaunch, /*record_trace=*/false, /*checks=*/false);
  expect_violation(stats);
  EXPECT_NE(stats.violation_message.find("shard 0 ended its program; shard 1 fenced op "),
            std::string::npos)
      << stats.violation_message;
}

TEST(ExecFailStop, ShardExceptionPoisonsTheBarrier) {
  const DcrStats stats = run_faulty(Fault::Throw);
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.determinism_violation) << stats.violation_message;
  EXPECT_EQ(stats.abort_message, "shard 1: injected failure");
}

// --------------------------------------------- differential fuzz sweeps

// 100 seeds x 2 shard counts = 200 fuzzed programs, faults off, sim vs
// threads (the ISSUE's headline acceptance gate).  Registered as the
// aggregate ExecFuzzSweep ctest entry under -L exec.
class ExecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecFuzz, SimAndThreadsProduceIdenticalGraphs) {
  Philox4x32 rng(fuzz::seed_for_label("exec", GetParam()), /*stream=*/11);
  const fuzz::RandomDcrProgram program = fuzz::generate(rng, /*tiles=*/6);
  for (std::size_t shards : {2u, 4u}) {
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const ApplicationMain app = fuzz::materialize(program, fn);
    const BackendRun sim_run = run_sim(app, functions, shards);
    const BackendRun thr_run = run_threads(app, functions, shards);
    expect_equivalent(sim_run, thr_run,
                      ("seed " + std::to_string(GetParam()) + " shards " +
                       std::to_string(shards))
                          .c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzz, ::testing::Range<std::uint64_t>(0, 100));

// Smaller sweep with dependence templates AND the statics oracle armed on
// both backends: loop programs under begin/end_trace, so capture, shadow
// validation, and replay all run on real threads and must match the
// simulator's window accounting bit for bit.
class ExecLoopFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecLoopFuzz, TemplatesAndStaticsAgreeAcrossBackends) {
  Philox4x32 rng(fuzz::seed_for_label("exec-loop", GetParam()), /*stream=*/13);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  DiffOptions opt;
  opt.statics_check = true;  // oracle: cross-check every static verdict
  for (std::size_t shards : {2u, 4u}) {
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const ApplicationMain app =
        fuzz::materialize_loop(program, fn, /*use_trace=*/true);
    const BackendRun sim_run = run_sim(app, functions, shards, opt);
    const BackendRun thr_run = run_threads(app, functions, shards, opt);
    expect_equivalent(sim_run, thr_run,
                      ("loop seed " + std::to_string(GetParam()) + " shards " +
                       std::to_string(shards))
                          .c_str());
    EXPECT_GT(thr_run.stats.templates_captured, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecLoopFuzz, ::testing::Range<std::uint64_t>(0, 25));

// Elision ablation: with fence elision disabled the graphs must still agree
// (more fences, same dependences) — guards the fence transport specifically.
class ExecNoElideFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecNoElideFuzz, AllFencesBackendAgreement) {
  Philox4x32 rng(fuzz::seed_for_label("exec-noelide", GetParam()), /*stream=*/17);
  const fuzz::RandomDcrProgram program = fuzz::generate(rng, /*tiles=*/6);
  DiffOptions opt;
  opt.disable_fence_elision = true;
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  const ApplicationMain app = fuzz::materialize(program, fn);
  const BackendRun sim_run = run_sim(app, functions, 4, opt);
  const BackendRun thr_run = run_threads(app, functions, 4, opt);
  expect_equivalent(sim_run, thr_run,
                    ("noelide seed " + std::to_string(GetParam())).c_str());
  EXPECT_EQ(thr_run.stats.fences_elided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecNoElideFuzz, ::testing::Range<std::uint64_t>(0, 10));

// ------------------------------------------------------------- flaky guard

// ISSUE satellite 4: thread-schedule nondeterminism is the enemy this suite
// exists to catch, and a single pass can get lucky.  One ctest entry repeats
// the 8-thread stencil equivalence 20 times so a schedule-dependent
// divergence has 20 chances to fire before a PR lands.
TEST(ExecFlakyGuard, StencilEquivalenceTwentyRuns) {
  FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  const apps::StencilConfig app_cfg{.cells_per_tile = 64, .tiles = 8, .steps = 3};
  const ApplicationMain app = apps::make_stencil_app(app_cfg, fns);

  const BackendRun sim_run = run_sim(app, functions, /*shards=*/8);
  ASSERT_TRUE(sim_run.stats.completed);

  for (int run = 0; run < 20; ++run) {
    const BackendRun thr_run = run_threads(app, functions, /*shards=*/8);
    expect_equivalent(sim_run, thr_run, ("stencil run " + std::to_string(run)).c_str());
    if (::testing::Test::HasFailure()) {
      FAIL() << "stencil equivalence diverged on repetition " << run;
    }
  }
}

}  // namespace
}  // namespace dcr::exec
