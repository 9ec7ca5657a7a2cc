// The coarse dependence stage (paper §4.1), backend-neutral.
//
// CoarseAnalyzer owns one replica of the coarse-stage state — the
// per-(tree,field) epoch users and the in-program-order guard — and produces
// one CoarseDecision per op: coarse dependences, fence-elision verdicts,
// fence sources, and the static-interference skip license.  Ops are fed in
// program order, so when op k is decided the epoch state has folded in
// exactly ops 0..k-1.  The analyzer keeps no decisions: each call returns
// its decision by value and the caller keeps what it needs.
//
// Both execution backends drive this one implementation.  The discrete-event
// simulator's shards share one logical analyzer: DcrRuntime runs it once per
// op and caches the decision for the other shards (and for recovery and SDC
// healing).  On the real-threads backend (exec/thread_runtime.cpp) every
// shard owns a replica, as in the paper: each shard decides every op itself
// against its own forest and prover replicas, and control determinism makes
// the replicas agree, which the fence-carried §3 check enforces online.
// Running the same code on both backends — not a re-implementation — is what
// makes their fence/elision/dependence streams identical by construction,
// which the differential tests in tests/test_exec.cpp verify end to end.
//
// Once-per-op accounting belongs to one replica, chosen at construction: the
// analyzer charges the prof global fence/elision/statics ledgers into
// `global` and notes launch sites into `ledger` when they are non-null, and
// does neither when they are null.  The caller owns DcrStats mirroring and
// spy trace emission for the same replica.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dcr/ops.hpp"
#include "prof/counters.hpp"
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

  // `global` and `ledger` may be null: a replica that does no once-per-op
  // accounting (see the header comment).
  CoarseAnalyzer(Options opts, prof::Counters* global, statics::LaunchLedger* ledger)
      : opts_(opts), global_(global), ledger_(ledger) {}

  CoarseAnalyzer(const CoarseAnalyzer&) = delete;
  CoarseAnalyzer& operator=(const CoarseAnalyzer&) = delete;

  // Fresh analysis of the next op.  `forest` and `prover` are the caller's
  // replicas — identical across shards by control determinism, so the
  // decision is shard-independent.
  CoarseDecision decide(const OpRecord& op, const rt::RegionForest& forest,
                        statics::InterferenceProver& prover, ShardId owner);

  // Template replay: rebuild the recorded decision without re-running the
  // conflict scans, folding the recorded summaries into the epoch state.
  CoarseDecision install_replayed(const OpRecord& op);

  // Ops folded into the epoch state so far (== the next op id expected).
  std::uint64_t next_op() const { return next_op_; }

 private:
  void apply_epoch_update(OpId op, FieldId f, const ReqSummary& r);
  void note_launch_sites(const std::vector<ReqSummary>& reqs);
  void charge_fence_decisions(const CoarseDecision& dec);

  Options opts_;
  prof::Counters* global_;
  statics::LaunchLedger* ledger_;
  std::map<std::pair<RegionTreeId, FieldId>, CoarseFieldState> state_;
  std::uint64_t next_op_ = 0;  // ops folded into state_
};

}  // namespace dcr::core
