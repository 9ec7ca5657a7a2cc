#include "dcr/coarse.hpp"

#include <set>

#include "dcr/sharding.hpp"

namespace dcr::core {

std::vector<ReqSummary> summarize_op(const OpPayload& payload, const rt::RegionForest& forest,
                                     ShardId owner) {
  std::vector<ReqSummary> out;
  auto single = [&](IndexSpaceId region, const std::vector<FieldId>& fields,
                    rt::Privilege priv, rt::ReductionOpId redop) {
    ReqSummary r;
    r.tree = forest.tree_of(region);
    r.upper_bound = region;
    r.fields = fields;
    r.privilege = priv;
    r.redop = redop;
    r.is_index = false;
    r.single_owner = owner;
    out.push_back(std::move(r));
  };

  if (const auto* fill = std::get_if<FillPayload>(&payload)) {
    single(fill->region, fill->fields, rt::Privilege::WriteDiscard, rt::kNoRedop);
  } else if (const auto* task = std::get_if<TaskPayload>(&payload)) {
    for (const auto& req : task->launch.requirements) {
      single(req.region, req.fields, req.privilege, req.redop);
    }
  } else if (const auto* attach = std::get_if<AttachPayload>(&payload)) {
    if (attach->partition.valid()) {
      // Group variant: an index-launch-shaped upper-bound view so the fence
      // elision proof applies to back-to-back group I/O.
      ReqSummary r;
      r.upper_bound = forest.parent_region(attach->partition);
      r.tree = forest.tree_of(r.upper_bound);
      r.fields = attach->fields;
      r.privilege = attach->detach ? rt::Privilege::ReadOnly : rt::Privilege::WriteDiscard;
      r.redop = rt::kNoRedop;
      r.is_index = true;
      r.sharding = ShardingRegistry::blocked();
      r.domain = rt::Rect::r1(
          0, static_cast<std::int64_t>(forest.num_subregions(attach->partition)) - 1);
      r.partition = attach->partition;
      r.projection = rt::ProjectionRegistry::identity();
      out.push_back(std::move(r));
    } else {
      single(attach->region, attach->fields,
             attach->detach ? rt::Privilege::ReadOnly : rt::Privilege::WriteDiscard,
             rt::kNoRedop);
    }
  } else if (const auto* index = std::get_if<IndexPayload>(&payload)) {
    for (const auto& req : index->launch.requirements) {
      ReqSummary r;
      r.upper_bound = req.upper_bound(forest);
      r.tree = forest.tree_of(r.upper_bound);
      r.fields = req.fields;
      r.privilege = req.privilege;
      r.redop = req.redop;
      r.is_index = true;
      r.sharding = index->launch.sharding;
      r.domain = index->launch.domain;
      r.partition = req.partition;
      r.projection = req.projection;
      out.push_back(std::move(r));
    }
  }
  // ReducePayload and DeletePayload carry no region requirements here;
  // deletions are handled as pipeline barriers in decide().
  return out;
}

namespace {

// Adapter into the static prover's layer-neutral launch view.
statics::LaunchReq to_launch_req(const ReqSummary& r) {
  statics::LaunchReq q;
  q.is_index = r.is_index;
  q.partition = r.partition;
  q.projection = r.projection;
  q.domain = r.domain;
  q.sharding = r.sharding;
  q.privilege = r.privilege;
  q.redop = r.redop;
  return q;
}

}  // namespace

void CoarseAnalyzer::apply_epoch_update(OpId op, FieldId f, const ReqSummary& r) {
  CoarseFieldState& fs = state_[{r.tree, f}];
  switch (r.privilege) {
    case rt::Privilege::ReadWrite:
    case rt::Privilege::WriteDiscard:
      fs.last_writer = GroupUse{op, r};
      fs.readers_since.clear();
      fs.reducers_since.clear();
      break;
    case rt::Privilege::Reduce:
      fs.reducers_since.push_back(GroupUse{op, r});
      break;
    case rt::Privilege::ReadOnly:
      fs.readers_since.push_back(GroupUse{op, r});
      break;
    case rt::Privilege::None:
      break;
  }
}

CoarseDecision CoarseAnalyzer::decide(const OpRecord& op, const rt::RegionForest& forest,
                                      statics::InterferenceProver& prover, ShardId owner) {
  // Ops arrive in program order, so the epoch state has folded in exactly
  // the ops before this one.
  DCR_CHECK(next_op_ == op.id.value)
      << "coarse analysis out of order: expected op " << next_op_ << " got " << op.id.value;
  next_op_++;

  CoarseDecision dec;
  if (std::holds_alternative<FillPayload>(op.payload)) dec.kind = "fill";
  else if (std::holds_alternative<TaskPayload>(op.payload)) dec.kind = "task";
  else if (std::holds_alternative<IndexPayload>(op.payload)) dec.kind = "index_launch";
  else if (std::holds_alternative<ReducePayload>(op.payload)) dec.kind = "reduce_future_map";
  else if (std::holds_alternative<AttachPayload>(op.payload)) {
    dec.kind = std::get<AttachPayload>(op.payload).detach ? "detach" : "attach";
  } else if (std::holds_alternative<DeletePayload>(op.payload)) dec.kind = "delete";
  else if (std::holds_alternative<FencePayload>(op.payload)) dec.kind = "fence";

  std::set<OpId> sources;

  if (std::holds_alternative<DeletePayload>(op.payload) ||
      std::holds_alternative<FencePayload>(op.payload)) {
    // Deletions and execution fences order against everything before them:
    // full pipeline barrier.
    if (op.id.value > 0) sources.insert(OpId(op.id.value - 1));
    dec.num_reqs = 1;
  } else {
    std::vector<ReqSummary> reqs = summarize_op(op.payload, forest, owner);
    dec.num_reqs = reqs.size();
    // Static interference analysis (src/statics): resolve every requirement
    // and classify every discovered dependence.  The verdicts never alter a
    // dependence/fence decision below — a fully proven launch only licenses
    // the fine stage to skip per-point enumeration, so runs are decision-
    // and graph-identical statics on/off.
    const bool statics_candidate =
        opts_.static_analysis && std::holds_alternative<IndexPayload>(op.payload);
    bool static_ok = statics_candidate;
    for (const ReqSummary& r : reqs) {
      if (!static_ok) break;
      if (prover.resolve(to_launch_req(r)) == statics::Verdict::Unknown) {
        static_ok = false;
      }
    }
    note_launch_sites(reqs);
    for (const ReqSummary& r : reqs) {
      for (FieldId f : r.fields) {
        CoarseFieldState& fs = state_[{r.tree, f}];
        auto consider = [&](const GroupUse& prev) {
          if (!rt::privileges_conflict(prev.req.privilege, prev.req.redop, r.privilege,
                                       r.redop)) {
            return;
          }
          if (forest.structurally_disjoint(prev.req.upper_bound, r.upper_bound)) return;
          if (!forest.regions_overlap(prev.req.upper_bound, r.upper_bound)) return;
          dec.deps++;
          // Paper §4.1, observation 2 (Figures 10/11) — the same proof the
          // template validation audit re-derives for recorded elisions.
          const bool elide = !opts_.disable_fence_elision &&
                             summaries_shard_local(forest, prev.req, r);
          if (elide) {
            dec.elided++;
          } else {
            sources.insert(prev.op);
          }
          dec.dep_records.push_back({prev.op, op.id, r.tree, f, elide});
          if (static_ok &&
              prover.classify(to_launch_req(prev.req), to_launch_req(r)) ==
                  statics::Verdict::Unknown) {
            static_ok = false;
          }
        };
        if (fs.last_writer) consider(*fs.last_writer);
        for (const GroupUse& rd : fs.readers_since) consider(rd);
        for (const GroupUse& rx : fs.reducers_since) consider(rx);
        apply_epoch_update(op.id, f, r);
      }
    }
    dec.summaries = std::move(reqs);
    dec.static_skip = static_ok;
    if (statics_candidate && global_ != nullptr) {
      global_->add(static_ok ? prof::GlobalCounter::StaticLaunchesResolved
                             : prof::GlobalCounter::StaticLaunchesUnresolved);
    }
    if (dec.static_skip && opts_.statics_check) {
      // Debug oracle: re-derive every proof by concrete point enumeration.
      for (const ReqSummary& r : dec.summaries) {
        prover.oracle_check_launch(to_launch_req(r));
      }
    }
  }
  dec.fence_sources.assign(sources.begin(), sources.end());
  // dcr-prof fence accounting, at dependence granularity: every coarse
  // dependence is a fence-or-elide decision, and with elision enabled each
  // one ran the §4.1 shard-locality proof.  fences_issued + fences_elided ==
  // fence_decisions by construction (tests/test_prof.cpp pins this).
  if (global_ != nullptr) {
    charge_fence_decisions(dec);
    if (!opts_.disable_fence_elision) {
      global_->add(prof::GlobalCounter::ElisionProofsAttempted, dec.deps);
      global_->add(prof::GlobalCounter::ElisionProofsSucceeded, dec.elided);
    }
  }
  return dec;
}

CoarseDecision CoarseAnalyzer::install_replayed(const OpRecord& op) {
  const TemplateOp& rec = *op.trec;
  DCR_CHECK(next_op_ == op.id.value)
      << "template replay out of order: expected op " << next_op_ << " got " << op.id.value;
  next_op_++;

  CoarseDecision dec;
  dec.kind = rec.kind;
  dec.num_reqs = rec.num_reqs;
  dec.summaries = rec.summaries;
  std::set<OpId> sources;
  const auto source_of = [&op](std::uint64_t offset, std::uint64_t abs, bool absolute) {
    if (absolute) {
      DCR_CHECK(abs < op.id.value) << "corrupt template absolute source";
      return OpId(abs);
    }
    DCR_CHECK(offset >= 1 && offset <= op.id.value) << "corrupt template source offset";
    return OpId(op.id.value - offset);
  };
  for (const TemplateDep& d : rec.deps) {
    const OpId prev = source_of(d.prev_offset, d.abs_source, d.absolute);
    dec.deps++;
    if (d.elided) {
      dec.elided++;
    } else {
      sources.insert(prev);
    }
    dec.dep_records.push_back({prev, op.id, d.tree, d.field, d.elided});
  }
  for (const TemplateFence& f : rec.fences) {
    sources.insert(source_of(f.prev_offset, f.abs_source, f.absolute));
  }
  dec.fence_sources.assign(sources.begin(), sources.end());
  // Fold the recorded summaries into the shared epoch state exactly as a
  // fresh analysis would, so ops after the window (and un-templated ops
  // between windows) still see the correct last users.  The conflict scans
  // against those users are what the replay skips.
  for (const ReqSummary& r : dec.summaries) {
    for (FieldId f : r.fields) apply_epoch_update(op.id, f, r);
  }
  // Replayed ops already charge the reduced traced costs; a static skip on
  // top would double-discount, so replays never set it (dec.static_skip stays
  // false).  The lint ledger still sees the launch sites.
  note_launch_sites(dec.summaries);
  // Replayed decisions still count as fence-or-elide outcomes, but the
  // shard-locality proofs were skipped (that is the point of the template),
  // so the proof counters stay untouched.
  if (global_ != nullptr) charge_fence_decisions(dec);
  return dec;
}

void CoarseAnalyzer::note_launch_sites(const std::vector<ReqSummary>& reqs) {
  // Launch-site ledger for the offline lint (`dcr-spy statics`).
  if (!opts_.static_analysis || ledger_ == nullptr) return;
  for (const ReqSummary& r : reqs) {
    if (!r.is_index || !r.partition.valid()) continue;
    ledger_->note(r.partition, r.projection, r.domain, r.privilege, r.redop);
  }
}

void CoarseAnalyzer::charge_fence_decisions(const CoarseDecision& dec) {
  global_->add(prof::GlobalCounter::FenceDecisions, dec.deps);
  global_->add(prof::GlobalCounter::FencesElided, dec.elided);
  global_->add(prof::GlobalCounter::FencesIssued, dec.deps - dec.elided);
}

}  // namespace dcr::core
