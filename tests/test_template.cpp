// Dependence templates (dcr/template.hpp): property tests and negative tests.
//
// The headline property, checked over fuzzed loop-structured programs: a run
// with template capture/validate/replay realizes the same task graph as a run
// with fresh analysis every iteration, and both pass the dcr-spy offline
// verifier.  Negative tests seed stale-template mutations between capture and
// validation and prove the validation pass catches them; unit tests drive the
// DEPseq audit directly, and differential tests hold it to a reference audit
// that materializes the full DEPseq task graph.  Template/recovery
// interaction: a shard crash while a cached template is mid-replay drops the
// dead shard's templates and the replacement rebuilds from scratch with an
// equivalent graph.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/semantics.hpp"
#include "apps/stencil.hpp"
#include "common/philox.hpp"
#include "dcr/runtime.hpp"
#include "dcr/template.hpp"
#include "dcr_fuzz_programs.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "spy/trace.hpp"
#include "spy/verify.hpp"

namespace dcr::core {
namespace {

sim::MachineConfig cluster(std::size_t nodes) {
  return {.num_nodes = nodes,
          .compute_procs_per_node = 1,
          .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}};
}

struct LoopRun {
  DcrStats stats;
  spy::Trace trace;
  rt::TaskGraph graph;  // realized, transitively closed
};

LoopRun run_loop(const fuzz::LoopDcrProgram& p, bool use_trace, std::size_t nodes) {
  sim::Machine machine(cluster(nodes));
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  DcrConfig cfg;
  cfg.record_trace = true;
  cfg.record_task_graph = true;
  DcrRuntime rt(machine, functions, cfg);
  LoopRun out;
  out.stats = rt.execute(fuzz::materialize_loop(p, fn, use_trace));
  out.trace = *rt.trace();
  out.graph = rt.realized_graph().transitive_closure();
  return out;
}

void expect_clean(const LoopRun& run, const char* what, std::uint64_t seed) {
  EXPECT_TRUE(run.stats.completed) << what << " seed " << seed;
  EXPECT_FALSE(run.stats.determinism_violation) << what << " seed " << seed;
  const spy::VerifyReport report = spy::verify(run.trace);
  EXPECT_TRUE(report.ok()) << what << " seed " << seed << ": " << report.summary()
                           << (report.findings.empty() ? "" : "\n  " + report.findings[0].message);
}

// ------------------------------------------------ reference DEPseq audit

// audit_template() as it stood before it went closure-first, kept as the
// oracle the differential tests hold it to.  Part 1 reads no point plans, so
// auditing a plan-free copy runs exactly part 1; part 2 then materializes the
// whole DEPseq task graph with analyze_sequential and walks its edges
// against a dense Floyd-Warshall closure of the recorded ordering.
bool audit_template_reference(const DependenceTemplate& t, const rt::RegionForest& forest,
                              std::string* why) {
  DependenceTemplate coarse_only = t;
  for (TemplateOp& op : coarse_only.ops) op.plan.reset();
  if (!audit_template(coarse_only, forest, why)) return false;

  const std::size_t n = t.ops.size();
  constexpr std::uint64_t kStride = 1ull << 20;
  an::AProgram prog;
  std::map<std::uint64_t, const PointPlan*> plans;
  for (std::size_t pos = 0; pos < n; ++pos) {
    an::ATaskGroup group;
    if (t.ops[pos].plan) {
      for (std::size_t i = 0; i < t.ops[pos].plan->size(); ++i) {
        const TaskId tid(pos * kStride + i);
        group.push_back({tid, ShardId(0)});
        plans[tid.value] = &(*t.ops[pos].plan)[i];
      }
    }
    prog.push_back(std::move(group));
  }
  const an::Oracle oracle = [&](TaskId a, TaskId b) {
    for (const rt::Requirement& ra : plans.at(a.value)->reqs) {
      for (const rt::Requirement& rb : plans.at(b.value)->reqs) {
        if (rt::requirements_conflict(forest, ra, rb)) return true;
      }
    }
    return false;
  };
  const rt::TaskGraph g = an::analyze_sequential(prog, oracle);

  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (const TemplateDep& d : t.ops[pos].deps) {
      if (!d.absolute && d.prev_offset <= pos) reach[pos - d.prev_offset][pos] = true;
    }
    for (const TemplateFence& f : t.ops[pos].fences) {
      if (!f.absolute && f.prev_offset >= 1 && f.prev_offset <= pos) {
        reach[pos - f.prev_offset][pos] = true;
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }

  for (TaskId u : g.tasks()) {
    for (TaskId v : g.successors(u)) {
      const std::size_t pu = static_cast<std::size_t>(u.value / kStride);
      const std::size_t pv = static_cast<std::size_t>(v.value / kStride);
      if (pu == pv || reach[pu][pv]) continue;
      std::ostringstream os;
      os << "DEPseq finds a point-level dependence from op " << pu << " (point "
         << (u.value % kStride) << ") to op " << pv << " (point " << (v.value % kStride)
         << ") not covered by any recorded coarse dependence";
      if (why) *why = os.str();
      return false;
    }
  }
  return true;
}

// Runs audit_template() and the reference on `t`, expects the same verdict
// and the same message, and returns the reference's message ("" on a pass).
std::string expect_same_audit(const DependenceTemplate& t, const rt::RegionForest& forest,
                              const std::string& what) {
  std::string why, ref_why;
  const bool ok = audit_template(t, forest, &why);
  const bool ref_ok = audit_template_reference(t, forest, &ref_why);
  EXPECT_EQ(ok, ref_ok) << what << ": " << ref_why;
  EXPECT_EQ(why, ref_why) << what;
  return ref_why;
}

enum class Mutation { DropDep, DropFence, WidenPrivilege };
constexpr Mutation kMutations[] = {Mutation::DropDep, Mutation::DropFence,
                                   Mutation::WidenPrivilege};

// Seeded one-place corruption of a recording: drop one recorded dependence,
// drop one fence, or widen one point requirement's privilege to ReadWrite.
// Returns false when `t` has nothing of that kind.
bool mutate(DependenceTemplate& t, Mutation m, Philox4x32& rng) {
  std::vector<std::size_t> candidates;
  for (std::size_t pos = 0; pos < t.ops.size(); ++pos) {
    const TemplateOp& op = t.ops[pos];
    const bool has = m == Mutation::DropDep     ? !op.deps.empty()
                     : m == Mutation::DropFence ? !op.fences.empty()
                                                : op.plan && !op.plan->empty();
    if (has) candidates.push_back(pos);
  }
  if (candidates.empty()) return false;
  TemplateOp& op = t.ops[candidates[rng.next_below(candidates.size())]];
  switch (m) {
    case Mutation::DropDep:
      op.deps.erase(op.deps.begin() +
                    static_cast<std::ptrdiff_t>(rng.next_below(op.deps.size())));
      return true;
    case Mutation::DropFence:
      op.fences.erase(op.fences.begin() +
                      static_cast<std::ptrdiff_t>(rng.next_below(op.fences.size())));
      return true;
    case Mutation::WidenPrivilege: {
      // Copy on write: the plan is shared with the recording it came from.
      auto plan = std::make_shared<PointPlanList>(*op.plan);
      PointPlan& point = (*plan)[rng.next_below(plan->size())];
      if (point.reqs.empty()) return false;
      rt::Requirement& req = point.reqs[rng.next_below(point.reqs.size())];
      req.privilege = rt::Privilege::ReadWrite;
      req.redop = rt::kNoRedop;
      op.plan = std::move(plan);
      return true;
    }
  }
  return false;
}

// ------------------------------------------------- on/off graph equivalence

class TemplateFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// 200 fuzzed loop programs: template replay must be invisible in the realized
// partial order, and both executions must satisfy the offline verifier.
TEST_P(TemplateFuzz, ReplayedGraphMatchesFreshAnalysis) {
  const std::uint64_t seed = GetParam();
  Philox4x32 rng(fuzz::seed_for_label("template", seed), /*stream=*/5);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  const LoopRun on = run_loop(program, /*use_trace=*/true, /*nodes=*/4);
  const LoopRun off = run_loop(program, /*use_trace=*/false, /*nodes=*/4);
  expect_clean(on, "templates on", seed);
  expect_clean(off, "templates off", seed);
  EXPECT_TRUE(on.graph.same_partial_order(off.graph)) << "seed " << seed;
  EXPECT_EQ(on.stats.point_tasks_launched, off.stats.point_tasks_launched)
      << "seed " << seed;
  EXPECT_EQ(off.stats.template_replays, 0u);
}

// Differential audit over the same 200 programs: every template the run
// records, as it stands after each window, and a seeded mutation of each.
TEST_P(TemplateFuzz, AuditMatchesReference) {
  const std::uint64_t seed = GetParam();
  Philox4x32 rng(fuzz::seed_for_label("template", seed), /*stream=*/5);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  sim::Machine machine(cluster(4));
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  DcrRuntime rt(machine, functions, DcrConfig{});
  // The simulator runs one shard's control program at a time.
  std::vector<DependenceTemplate> recorded;
  const DcrStats stats = rt.execute(fuzz::materialize_loop(
      program, fn, /*use_trace=*/true, TraceId(1), [&](Context& ctx) {
        if (const DependenceTemplate* t = rt.shard_templates(ctx.shard_id()).find(TraceId(1))) {
          recorded.push_back(*t);
        }
      }));
  ASSERT_TRUE(stats.completed) << "seed " << seed;
  ASSERT_FALSE(recorded.empty()) << "seed " << seed;

  Philox4x32 mutations(fuzz::seed_for_label("template-audit", seed));
  for (std::size_t k = 0; k < recorded.size(); ++k) {
    const std::string what = "seed " + std::to_string(seed) + " template " + std::to_string(k);
    expect_same_audit(recorded[k], rt.forest(), what);
    for (const Mutation m : kMutations) {
      DependenceTemplate mutated = recorded[k];
      if (mutate(mutated, m, mutations)) {
        expect_same_audit(mutated, rt.forest(),
                          what + " mutation " + std::to_string(static_cast<int>(m)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemplateFuzz, ::testing::Range<std::uint64_t>(0, 200));

// ------------------------------------------------ deterministic steady state

// A window whose decisions are iteration-invariant (an untraced priming
// launch makes iteration 0's cross-window dependence identical to steady
// state), so validation passes on the second occurrence and every later
// iteration replays.  `after_first` (optional) runs between iteration 0 and 1
// — the hook the stale-mutation tests use to corrupt the recording.
struct PrimedRun {
  DcrStats stats;
  rt::TaskGraph graph;
};

PrimedRun run_primed_loop(bool use_trace,
                          const std::function<void(DcrRuntime&, Context&)>& after_first = {}) {
  sim::Machine machine(cluster(2));
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  DcrConfig cfg;
  cfg.record_task_graph = true;
  DcrRuntime rt(machine, functions, cfg);
  const DcrStats stats = rt.execute([&](Context& ctx) {
    FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "f");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 127), fs);
    const PartitionId part = ctx.partition_equal(ctx.root(tree), 4);
    auto launch_step = [&] {
      IndexLaunch l;
      l.fn = fn;
      l.domain = rt::Rect::r1(0, 3);
      l.requirements.push_back(
          rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
      ctx.index_launch(l);
    };
    launch_step();  // untraced priming launch: iteration 0 sees steady state
    for (int i = 0; i < 5; ++i) {
      if (use_trace) ctx.begin_trace(TraceId(9));
      launch_step();
      if (use_trace) ctx.end_trace(TraceId(9));
      if (i == 0 && after_first) after_first(rt, ctx);
    }
    ctx.execution_fence();
  });
  PrimedRun out;
  out.stats = stats;
  out.graph = rt.realized_graph().transitive_closure();
  return out;
}

TEST(TemplateLifecycle, SteadyStateValidatesOnceThenReplays) {
  const PrimedRun off = run_primed_loop(false);
  const PrimedRun on = run_primed_loop(true);
  EXPECT_TRUE(on.stats.completed);
  EXPECT_FALSE(on.stats.determinism_violation);
  // Per shard: iteration 0 captures, iteration 1's shadow compare + DEPseq
  // audit pass (the priming launch made the capture steady-state), and
  // iterations 2..4 replay.
  EXPECT_EQ(on.stats.templates_captured, 2u);
  EXPECT_EQ(on.stats.templates_validated, 2u);
  EXPECT_EQ(on.stats.template_validation_failures, 0u);
  EXPECT_EQ(on.stats.template_replays, 6u);  // 3 windows x 2 shards
  EXPECT_TRUE(on.graph.same_partial_order(off.graph));
}

// Between capture and validation, corrupt the recording so it claims the
// window has no dependences at all.  Replaying it would race iteration i
// against iteration i-1; the validation pass must catch it instead.
TEST(TemplateLifecycle, StaleDroppedDepIsCaughtByValidation) {
  const PrimedRun off = run_primed_loop(false);
  const PrimedRun on = run_primed_loop(true, [](DcrRuntime& rt, Context& ctx) {
    TemplateManager& tm = rt.shard_templates(ctx.shard_id());
    DependenceTemplate* t = tm.find(TraceId(9));
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->state, DependenceTemplate::State::Recorded);
    ASSERT_FALSE(t->ops.empty());
    ASSERT_FALSE(t->ops[0].deps.empty());
    t->ops[0].deps.clear();
    t->ops[0].fences.clear();
  });
  EXPECT_TRUE(on.stats.completed);
  // One shadow-compare failure per shard; the window is re-recorded from the
  // fresh decisions and the corrupted version never replays.
  EXPECT_EQ(on.stats.template_validation_failures, 2u);
  EXPECT_GT(on.stats.template_replays, 0u);
  EXPECT_TRUE(on.graph.same_partial_order(off.graph));
}

// Same, corrupting a recorded privilege: the per-op summary compare fires.
TEST(TemplateLifecycle, StalePrivilegeIsCaughtByValidation) {
  const PrimedRun off = run_primed_loop(false);
  const PrimedRun on = run_primed_loop(true, [](DcrRuntime& rt, Context& ctx) {
    DependenceTemplate* t = rt.shard_templates(ctx.shard_id()).find(TraceId(9));
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->ops.empty());
    ASSERT_FALSE(t->ops[0].summaries.empty());
    t->ops[0].summaries[0].privilege = rt::Privilege::ReadOnly;
  });
  EXPECT_TRUE(on.stats.completed);
  EXPECT_EQ(on.stats.template_validation_failures, 2u);
  EXPECT_TRUE(on.graph.same_partial_order(off.graph));
}

// ------------------------------------------------------------- DEPseq audit

// Minimal hand-built templates driven straight through audit_template().
ReqSummary index_summary(RegionTreeId tree, FieldId f, PartitionId part,
                         rt::Privilege priv) {
  ReqSummary s;
  s.tree = tree;
  s.fields = {f};
  s.privilege = priv;
  s.is_index = true;
  s.domain = rt::Rect::r1(0, 3);
  s.partition = part;
  return s;
}

TEST(TemplateAudit, NonCausalDependenceFails) {
  rt::RegionForest forest;
  DependenceTemplate t;
  TemplateOp op;
  op.deps.push_back({/*prev_offset=*/0, /*abs_source=*/0, /*absolute=*/false,
                     RegionTreeId(0), FieldId(0), /*elided=*/true});
  t.ops.push_back(op);
  std::string why;
  EXPECT_FALSE(audit_template(t, forest, &why));
  EXPECT_NE(why.find("non-causal"), std::string::npos) << why;
}

TEST(TemplateAudit, CrossShardDependenceWithoutFenceFails) {
  rt::RegionForest forest;
  DependenceTemplate t;
  t.ops.emplace_back();
  TemplateOp op;
  op.deps.push_back({/*prev_offset=*/1, /*abs_source=*/0, /*absolute=*/false,
                     RegionTreeId(0), FieldId(0), /*elided=*/false});
  t.ops.push_back(op);  // no fence entry for offset 1
  std::string why;
  EXPECT_FALSE(audit_template(t, forest, &why));
  EXPECT_NE(why.find("no matching fence"), std::string::npos) << why;
}

TEST(TemplateAudit, UnprovableElisionFails) {
  rt::RegionForest forest;
  const FieldSpaceId fs = forest.create_field_space();
  const RegionTreeId tree = forest.create_tree(rt::Rect::r1(0, 63), fs);
  const IndexSpaceId root = forest.root(tree);
  const PartitionId p1 = forest.partition_equal(root, 4);
  const PartitionId p2 = forest.partition_with_halo(root, 4, 2);  // aliased

  DependenceTemplate t;
  TemplateOp writer;
  writer.summaries.push_back(index_summary(tree, FieldId(0), p1, rt::Privilege::ReadWrite));
  t.ops.push_back(writer);
  TemplateOp reader;
  reader.summaries.push_back(index_summary(tree, FieldId(0), p2, rt::Privilege::ReadWrite));
  reader.deps.push_back({/*prev_offset=*/1, /*abs_source=*/0, /*absolute=*/false, tree,
                         FieldId(0), /*elided=*/true});
  t.ops.push_back(reader);

  std::string why;
  EXPECT_FALSE(audit_template(t, forest, &why));
  EXPECT_NE(why.find("not provably shard-local"), std::string::npos) << why;

  // Control: the same dependence between two launches of the *same* disjoint
  // partition is provably shard-local and the audit accepts it.
  t.ops[1].summaries[0] = index_summary(tree, FieldId(0), p1, rt::Privilege::ReadWrite);
  EXPECT_TRUE(audit_template(t, forest, &why)) << why;
}

// Hand-built point plan: one point accessing `region` on field 0.
std::shared_ptr<const PointPlanList> one_point(IndexSpaceId region, rt::Privilege priv) {
  PointPlan point;
  point.reqs.push_back({region, {FieldId(0)}, priv});
  return std::make_shared<const PointPlanList>(PointPlanList{point});
}

// Part 2 of the audit: two ops whose points write overlapping subregions of
// one field, with no recorded dependence and no fence.  Part 1 has nothing to
// check, so only the DEPseq point audit can see the race.
TEST(TemplateAudit, UncoveredPointDependenceFails) {
  rt::RegionForest forest;
  const FieldSpaceId fs = forest.create_field_space();
  const RegionTreeId tree = forest.create_tree(rt::Rect::r1(0, 63), fs);
  const PartitionId halo = forest.partition_with_halo(forest.root(tree), 4, 2);

  DependenceTemplate t;
  t.ops.resize(2);
  t.ops[0].plan = one_point(forest.subregion(halo, 1), rt::Privilege::ReadWrite);
  t.ops[1].plan = one_point(forest.subregion(halo, 2), rt::Privilege::ReadWrite);
  std::string why;
  EXPECT_FALSE(audit_template(t, forest, &why));
  EXPECT_EQ(why,
            "DEPseq finds a point-level dependence from op 0 (point 0) to op 1 (point 0) "
            "not covered by any recorded coarse dependence");
}

// Positive control: A -> B and B -> C are recorded (fenced) and A conflicts
// with C only at point level.  The transitive ordering covers it.
TEST(TemplateAudit, PointDependenceCoveredTransitivelyPasses) {
  rt::RegionForest forest;
  const FieldSpaceId fs = forest.create_field_space();
  const RegionTreeId tree = forest.create_tree(rt::Rect::r1(0, 63), fs);
  const IndexSpaceId root = forest.root(tree);
  const PartitionId halo = forest.partition_with_halo(root, 4, 2);
  const PartitionId owned = forest.partition_equal(root, 4);

  DependenceTemplate t;
  t.ops.resize(3);
  t.ops[0].plan = one_point(forest.subregion(halo, 1), rt::Privilege::ReadWrite);  // A
  t.ops[1].plan = one_point(forest.subregion(owned, 3), rt::Privilege::ReadWrite);  // B
  t.ops[2].plan = one_point(forest.subregion(halo, 2), rt::Privilege::ReadWrite);  // C
  for (std::size_t pos : {1u, 2u}) {
    t.ops[pos].deps.push_back({/*prev_offset=*/1, /*abs_source=*/0, /*absolute=*/false, tree,
                               FieldId(0), /*elided=*/false});
    t.ops[pos].fences.push_back({/*prev_offset=*/1, /*abs_source=*/0, /*absolute=*/false});
  }
  std::string why;
  EXPECT_TRUE(audit_template(t, forest, &why)) << why;

  // Without B -> C nothing orders A before C.
  t.ops[2].deps.clear();
  t.ops[2].fences.clear();
  EXPECT_FALSE(audit_template(t, forest, &why));
  EXPECT_EQ(why,
            "DEPseq finds a point-level dependence from op 0 (point 0) to op 2 (point 0) "
            "not covered by any recorded coarse dependence");
}

// The window the audit exists for: the 350-op, two-phase period that the
// phase_every = 50 stencil promotes under automatic trace identification (16
// tiles on 4 shards), on every shard, plus a seeded mutation of each kind.
TEST(TemplateAudit, MatchesReferenceOnPhaseAutoWindow) {
  sim::Machine machine(cluster(4));
  FunctionRegistry functions;
  // Zero-cost tasks: the recording depends only on the control program, and
  // the simulator then has no task work to model.
  apps::StencilFunctions fns;
  fns.add_one = functions.register_simple("add_one", 0, 0.0);
  fns.mul_two = functions.register_simple("mul_two", 0, 0.0);
  fns.stencil = functions.register_simple("stencil", 0, 0.0);
  apps::StencilConfig sc{.cells_per_tile = 32, .tiles = 16, .steps = 700};
  sc.phase_every = 50;
  DcrConfig cfg;
  cfg.auto_trace.enabled = true;
  DcrRuntime rt(machine, functions, cfg);
  // The runtime discards the auto window still open when the program ends,
  // and its template with it, so copy each shard's largest validated
  // template while the program is under way.
  std::vector<DependenceTemplate> windows(4);
  sc.after_step = [&](Context& ctx) {
    TemplateManager& tm = rt.shard_templates(ctx.shard_id());
    for (const auto& [launch, id] : rt.shard_auto_tracer(ctx.shard_id()).promotion_log()) {
      const DependenceTemplate* t = tm.find(TraceId(id));
      DependenceTemplate& largest = windows[ctx.shard_id().value];
      if (t && t->state == DependenceTemplate::State::Validated &&
          t->ops.size() > largest.ops.size()) {
        largest = *t;
      }
    }
  };
  const DcrStats stats = rt.execute(apps::make_stencil_app(sc, fns));
  ASSERT_TRUE(stats.completed) << stats.abort_message;
  ASSERT_GT(stats.template_replays, 0u);

  Philox4x32 mutations(fuzz::seed_for_label("template-audit", 350));
  std::size_t depseq_failures = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const DependenceTemplate& window = windows[s];
    ASSERT_EQ(window.ops.size(), 350u) << "shard " << s;
    const std::string what = "shard " + std::to_string(s);
    EXPECT_EQ(expect_same_audit(window, rt.forest(), what), "");
    for (const Mutation m : kMutations) {
      DependenceTemplate mutated = window;
      ASSERT_TRUE(mutate(mutated, m, mutations));
      const std::string why = expect_same_audit(
          mutated, rt.forest(), what + " mutation " + std::to_string(static_cast<int>(m)));
      if (why.rfind("DEPseq", 0) == 0) depseq_failures++;
    }
  }
  // Some mutation must reach part 2, or this would compare part 1 only.
  EXPECT_GT(depseq_failures, 0u);
}

// ------------------------------------------------- recovery interaction

struct FaultHarness {
  sim::Machine machine;
  sim::FaultPlan plan;
  FunctionRegistry functions;
  DcrRuntime runtime;

  FaultHarness(std::size_t nodes, sim::FaultConfig fcfg, DcrConfig cfg = {})
      : machine(cluster(nodes)), plan(std::move(fcfg)), runtime(machine, functions, [&cfg] {
          cfg.record_task_graph = true;
          return cfg;
        }()) {
    machine.install_faults(plan);
  }
};

// A traced loop whose control program stays in lockstep with execution (one
// execution fence per iteration): a mid-run crash then lands while the
// survivors still have trace windows to open, so the recovery-epoch
// invalidation is observable, not just the drop on the dead shard.  Each
// window holds a disjoint write followed by a halo read — a cross-shard
// dependence, so replay also re-registers fence sources.
void fenced_loop_app(Context& ctx, FunctionId fn, bool use_trace) {
  FieldSpaceId fs = ctx.create_field_space();
  const FieldId f = ctx.allocate_field(fs, 8, "f");
  const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 8 * 64 - 1), fs);
  const IndexSpaceId root = ctx.root(tree);
  const PartitionId disj = ctx.partition_equal(root, 8);
  const PartitionId halo = ctx.partition_with_halo(root, 8, 2);
  auto step = [&] {
    IndexLaunch w;
    w.fn = fn;
    w.domain = rt::Rect::r1(0, 7);
    w.requirements.push_back(
        rt::GroupRequirement::on_partition(disj, {f}, rt::Privilege::ReadWrite));
    ctx.index_launch(w);
    IndexLaunch r;
    r.fn = fn;
    r.domain = rt::Rect::r1(0, 7);
    r.requirements.push_back(
        rt::GroupRequirement::on_partition(halo, {f}, rt::Privilege::ReadOnly));
    ctx.index_launch(r);
  };
  ctx.fill(root, {f});
  step();  // priming: iteration 0's cross-window offsets match steady state
  for (int i = 0; i < 12; ++i) {
    if (use_trace) ctx.begin_trace(TraceId(7));
    step();
    if (use_trace) ctx.end_trace(TraceId(7));
    ctx.execution_fence();  // keeps control from running ahead of execution
  }
}

// Fail-stop crash of a shard while its cached template is mid-replay: the
// replacement starts template-less, re-captures during fast-forward, the
// survivors' templates are invalidated by the recovery epoch bump, and the
// realized graph still matches the fault-free reference.
TEST(TemplateRecovery, CrashMidReplayRebuildsFromScratch) {
  const std::size_t nodes = 4;

  SimTime fault_free_makespan = 0;
  rt::TaskGraph reference;
  DcrStats fault_free;
  {
    sim::Machine machine(cluster(nodes));
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(5), 1.0);
    DcrConfig cfg;
    cfg.record_task_graph = true;
    DcrRuntime rt(machine, functions, cfg);
    fault_free = rt.execute(
        [&](Context& ctx) { fenced_loop_app(ctx, fn, /*use_trace=*/true); });
    ASSERT_TRUE(fault_free.completed);
    fault_free_makespan = fault_free.makespan;
    reference = rt.realized_graph().transitive_closure();
  }
  // The fault-free traced run must actually be replaying by mid-run.
  ASSERT_GT(fault_free.template_replays, 0u);

  sim::FaultConfig fcfg;
  fcfg.seed = fuzz::seed_for_label("template", 1000);
  fcfg.crashes.push_back({NodeId(2), fault_free_makespan * 3 / 5});
  FaultHarness h(nodes, fcfg);
  const FunctionId fn = h.functions.register_simple("t", us(5), 1.0);
  const DcrStats stats =
      h.runtime.execute([&](Context& ctx) { fenced_loop_app(ctx, fn, /*use_trace=*/true); });

  EXPECT_TRUE(stats.completed) << stats.abort_message;
  EXPECT_FALSE(stats.determinism_violation);
  ASSERT_EQ(stats.failures.size(), 1u);
  const FailureReport& rep = stats.failures[0];
  EXPECT_TRUE(rep.recovered);
  // The dead shard held a validated template for the stencil window.
  EXPECT_GT(rep.templates_dropped, 0u);
  EXPECT_NE(rep.describe().find("templates dropped"), std::string::npos);
  // The recovery epoch bump invalidated the survivors' templates too.
  EXPECT_GT(stats.template_invalidations, 0u);
  // Everyone re-captured and the steady state replays again after recovery.
  EXPECT_GT(stats.template_replays, 0u);
  // Recovery rebuilt the analysis from scratch: same realized partial order.
  EXPECT_TRUE(reference.same_partial_order(h.runtime.realized_graph().transitive_closure()));
}

}  // namespace
}  // namespace dcr::core
