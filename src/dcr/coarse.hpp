// The shared coarse dependence stage (paper §4.1), backend-neutral.
//
// CoarseAnalyzer owns the state every shard shares — the per-(tree,field)
// epoch users, the per-op decision cache, and the in-program-order guard —
// and produces one CoarseDecision per op: coarse dependences, fence-elision
// verdicts, fence sources, and the static-interference skip license.  The
// first shard to reach an op computes the decision; later shards read the
// cached one.  Shards process ops in program order, so when op k is decided
// the epoch state has folded in exactly ops 0..k-1.
//
// Both execution backends drive this one analyzer implementation: the
// discrete-event simulator calls it from a single-threaded event loop; on
// the real-threads backend (exec/thread_runtime.cpp) only the first shard to
// reach an op calls it, under a mutex, and publishes a pointer to the cached
// decision for the other shards to read without a lock.  That is safe
// because a cached decision is never mutated after insert and the map never
// moves its nodes.  That sharing — not a re-implementation — is what makes
// the two backends' fence/elision/dependence streams identical by
// construction, which the differential tests in tests/test_exec.cpp verify
// end to end.
//
// The analyzer charges the prof global fence/elision/statics ledgers itself
// (they must reconcile identically on both backends); the caller owns
// DcrStats mirroring and spy trace emission, gated on the `fresh` out-param
// so each op is emitted exactly once, in program order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dcr/ops.hpp"
#include "prof/profiler.hpp"
#include "runtime/region.hpp"
#include "statics/lint.hpp"
#include "statics/prover.hpp"

namespace dcr::core {

// Requirement summaries for one op: the coarse stage's task-group view.
// `owner` is the op's single-task owner shard (op.id % num_shards).
std::vector<ReqSummary> summarize_op(const OpPayload& payload, const rt::RegionForest& forest,
                                     ShardId owner);

class CoarseAnalyzer {
 public:
  struct Options {
    bool disable_fence_elision = false;
    bool static_analysis = true;
    bool statics_check = false;
  };

  CoarseAnalyzer(Options opts, prof::Profiler& profiler)
      : opts_(opts), profiler_(profiler) {}

  CoarseAnalyzer(const CoarseAnalyzer&) = delete;
  CoarseAnalyzer& operator=(const CoarseAnalyzer&) = delete;

  // The cached decision for `id`, or nullptr if no shard has computed it yet.
  const CoarseDecision* find(OpId id) const {
    auto it = decisions_.find(id);
    return it == decisions_.end() ? nullptr : &it->second;
  }

  // Fresh analysis: compute (or fetch) the decision for `op`.  `forest` and
  // `prover` are the calling shard's replicas — identical across shards by
  // control determinism, so the decision is shard-independent.  `*fresh` is
  // set iff this call computed the decision (the caller then mirrors stats
  // and emits trace records exactly once).
  const CoarseDecision& decide(const OpRecord& op, const rt::RegionForest& forest,
                               statics::InterferenceProver& prover,
                               statics::LaunchLedger& ledger, ShardId owner, bool* fresh);

  // Template replay: install the recorded decision without re-running the
  // conflict scans, folding the recorded summaries into the epoch state.
  const CoarseDecision& install_replayed(const OpRecord& op, statics::LaunchLedger& ledger,
                                         bool* fresh);

  // Ops folded into the epoch state so far (== the next op id expected).
  std::uint64_t next_op() const { return next_op_; }

 private:
  void apply_epoch_update(OpId op, FieldId f, const ReqSummary& r);

  Options opts_;
  prof::Profiler& profiler_;
  std::map<OpId, CoarseDecision> decisions_;
  std::map<std::pair<RegionTreeId, FieldId>, CoarseFieldState> state_;
  std::uint64_t next_op_ = 0;  // ops folded into state_
};

}  // namespace dcr::core
