// Random region-based DCR programs shared by the end-to-end fuzzers
// (test_fuzz_dcr.cpp) and the dcr-spy verification suite (test_spy.cpp):
// random trees, partitions, privileges, and launch sequences that are
// non-interfering within each launch by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/philox.hpp"
#include "dcr/api.hpp"
#include "dcr/sharding.hpp"

namespace dcr::fuzz {

// Per-suite fuzz seeds, derived from the suite's ctest label so different
// labels (-L spy, -L faults, -L template, ...) explore disjoint program
// spaces instead of sharing one hard-coded base.  FNV-1a over the label
// folded with the per-case index; the scheme is documented in tests/README.md.
inline std::uint64_t seed_for_label(const char* label, std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char* c = label; *c != '\0'; ++c) {
    h ^= static_cast<unsigned char>(*c);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h ^ (index * 0x9e3779b97f4a7c15ull);  // golden-ratio index fold
}

struct RandomDcrProgram {
  // One op in the generated program.
  struct Op {
    enum class Kind { Fill, Launch } kind;
    std::size_t tree;       // which of the generated trees
    std::size_t rw_part;    // disjoint partition index for the RW requirement
    std::size_t rw_field;   // field index for the RW requirement
    bool has_ro = false;
    std::size_t ro_part;    // aliased (halo) partition index
    std::size_t ro_field;
    bool reduce = false;    // RED instead of RW on the aliased partition
    ShardingId sharding;
  };
  std::size_t num_trees;
  std::size_t tiles;
  std::vector<Op> ops;
};

// Programs are non-interfering within each launch by construction: writes go
// to a disjoint partition; aliased reads use a different field; reductions
// share a reduction operator (commutative).
inline RandomDcrProgram generate(Philox4x32& rng, std::size_t tiles) {
  RandomDcrProgram p;
  p.num_trees = 1 + rng.next_below(2);
  p.tiles = tiles;
  const std::size_t num_ops = 8 + rng.next_below(10);
  for (std::size_t i = 0; i < num_ops; ++i) {
    RandomDcrProgram::Op op;
    op.kind = rng.next_below(6) == 0 ? RandomDcrProgram::Op::Kind::Fill
                                     : RandomDcrProgram::Op::Kind::Launch;
    op.tree = rng.next_below(p.num_trees);
    op.rw_part = rng.next_below(2);   // two disjoint partitions per tree
    op.rw_field = rng.next_below(2);  // two fields per tree
    if (rng.next_below(2)) {
      op.has_ro = true;
      op.ro_part = 0;  // the single halo partition per tree
      op.ro_field = 1 - op.rw_field;
      op.reduce = rng.next_below(3) == 0;
    }
    op.sharding = rng.next_below(2) ? core::ShardingRegistry::blocked()
                                    : core::ShardingRegistry::cyclic();
    p.ops.push_back(op);
  }
  return p;
}

// Replicated region state for one generated tree, shared by the straight-line
// and loop-structured materializers.
struct FuzzTreeState {
  IndexSpaceId root;
  std::vector<FieldId> fields;
  std::vector<PartitionId> disjoint;  // [0]: blocked-equal, [1]: offset tiles
  PartitionId halo;
};

inline std::vector<FuzzTreeState> build_trees(core::Context& ctx,
                                              const RandomDcrProgram& p) {
  using namespace rt;
  std::vector<FuzzTreeState> trees;
  for (std::size_t t = 0; t < p.num_trees; ++t) {
    FieldSpaceId fs = ctx.create_field_space();
    FuzzTreeState st;
    st.fields.push_back(ctx.allocate_field(fs, 8, "a"));
    st.fields.push_back(ctx.allocate_field(fs, 8, "b"));
    const RegionTreeId tree =
        ctx.create_region(Rect::r1(0, static_cast<std::int64_t>(p.tiles) * 64 - 1), fs);
    st.root = ctx.root(tree);
    st.disjoint.push_back(ctx.partition_equal(st.root, p.tiles));
    // A second, offset disjoint partition (different tile boundaries).
    std::vector<Rect> offset;
    const std::int64_t n = static_cast<std::int64_t>(p.tiles) * 64;
    for (std::size_t c = 0; c < p.tiles; ++c) {
      const std::int64_t lo = static_cast<std::int64_t>(c) * n /
                              static_cast<std::int64_t>(p.tiles);
      const std::int64_t hi =
          (static_cast<std::int64_t>(c) + 1) * n / static_cast<std::int64_t>(p.tiles) - 1;
      offset.push_back(Rect::r1(std::min(lo + 7, hi), hi));
    }
    st.disjoint.push_back(ctx.create_partition(st.root, offset, true));
    st.halo = ctx.partition_with_halo(st.root, p.tiles, 2);
    trees.push_back(st);
  }
  return trees;
}

inline void emit_ops(core::Context& ctx, const RandomDcrProgram& p,
                     const std::vector<FuzzTreeState>& trees, FunctionId fn) {
  const rt::Rect domain = rt::Rect::r1(0, static_cast<std::int64_t>(p.tiles) - 1);
  for (const auto& op : p.ops) {
    const FuzzTreeState& st = trees[op.tree];
    if (op.kind == RandomDcrProgram::Op::Kind::Fill) {
      ctx.fill(st.root, {st.fields[op.rw_field]});
      continue;
    }
    core::IndexLaunch l;
    l.fn = fn;
    l.domain = domain;
    l.sharding = op.sharding;
    l.requirements.push_back(rt::GroupRequirement::on_partition(
        st.disjoint[op.rw_part], {st.fields[op.rw_field]}, rt::Privilege::ReadWrite));
    if (op.has_ro) {
      l.requirements.push_back(rt::GroupRequirement::on_partition(
          st.halo, {st.fields[op.ro_field]},
          op.reduce ? rt::Privilege::Reduce : rt::Privilege::ReadOnly,
          op.reduce ? 1 : 0));
    }
    ctx.index_launch(l);
  }
}

inline core::ApplicationMain materialize(const RandomDcrProgram& p, FunctionId fn) {
  return [p, fn](core::Context& ctx) {
    const std::vector<FuzzTreeState> trees = build_trees(ctx, p);
    emit_ops(ctx, p, trees, fn);
    ctx.execution_fence();
  };
}

// Loop-structured programs: a random window body re-issued for a number of
// iterations, optionally wrapped in begin/end_trace — the shape dependence
// templates (dcr/template.hpp) capture, validate, and replay.
struct LoopDcrProgram {
  RandomDcrProgram body;
  std::size_t iterations = 4;
};

inline LoopDcrProgram generate_loop(Philox4x32& rng, std::size_t tiles) {
  LoopDcrProgram p;
  p.body = generate(rng, tiles);
  // Trim to a window-sized body so many iterations stay cheap, and enough
  // iterations that a validated template replays several times.
  if (p.body.ops.size() > 6) p.body.ops.resize(6);
  p.iterations = 4 + rng.next_below(4);
  return p;
}

// `after_window` (optional) runs in each shard's control program after every
// iteration's window closes.
inline core::ApplicationMain materialize_loop(
    const LoopDcrProgram& p, FunctionId fn, bool use_trace, TraceId trace = TraceId(1),
    std::function<void(core::Context&)> after_window = {}) {
  return [p, fn, use_trace, trace, after_window](core::Context& ctx) {
    const std::vector<FuzzTreeState> trees = build_trees(ctx, p.body);
    for (std::size_t i = 0; i < p.iterations; ++i) {
      if (use_trace) ctx.begin_trace(trace);
      emit_ops(ctx, p.body, trees, fn);
      if (use_trace) ctx.end_trace(trace);
      if (after_window) after_window(ctx);
    }
    ctx.execution_fence();
  };
}

}  // namespace dcr::fuzz
