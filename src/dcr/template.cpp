#include "dcr/template.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace dcr::core {

bool summaries_shard_local(const rt::RegionForest& forest, const ReqSummary& prev,
                           const ReqSummary& next) {
  if (prev.is_index && next.is_index) {
    return prev.sharding == next.sharding && prev.domain == next.domain &&
           prev.partition.valid() && prev.partition == next.partition &&
           prev.projection == next.projection && forest.is_disjoint(prev.partition);
  }
  if (!prev.is_index && !next.is_index) {
    // Two single operations analyzed by the same owner shard.
    return prev.single_owner == next.single_owner;
  }
  return false;  // single <-> group: conservatively cross-shard (Figure 10 fill)
}

// ------------------------------------------------------------ state machine

TemplateManager::Mode TemplateManager::begin(TraceId id, std::uint64_t region_epoch,
                                             std::uint64_t recovery_epoch,
                                             std::uint64_t deletion_epoch,
                                             bool validation_enabled) {
  DCR_CHECK(!active_) << "template window already open";
  active_ = id;
  pos_ = 0;
  calls_ = 0;

  auto it = templates_.find(id);
  if (it != templates_.end() && (it->second.region_epoch != region_epoch ||
                                 it->second.recovery_epoch != recovery_epoch ||
                                 it->second.deletion_epoch != deletion_epoch)) {
    // Region-tree mutation, shard failover, or a consensus deletion shifted
    // the ground the recording stood on: drop it and re-capture.
    counters_.invalidated++;
    last_event_ = "template invalidated by epoch change";
    templates_.erase(it);
    it = templates_.end();
  }

  if (it == templates_.end()) {
    DependenceTemplate t;
    t.region_epoch = region_epoch;
    t.recovery_epoch = recovery_epoch;
    t.deletion_epoch = deletion_epoch;
    templates_.emplace(id, std::move(t));
    mode_ = Mode::Capture;
  } else if (it->second.state == DependenceTemplate::State::Rejected) {
    mode_ = Mode::Inactive;  // run fresh, no recording: the audit said no
  } else if (it->second.state == DependenceTemplate::State::Recorded) {
    mode_ = validation_enabled ? Mode::Validate : Mode::Replay;
  } else {
    mode_ = Mode::Replay;
  }
  if (mode_ == Mode::Validate) {
    // The shadow re-recording adopted if the compare mismatches.
    fresh_ = DependenceTemplate{};
    fresh_.region_epoch = region_epoch;
    fresh_.recovery_epoch = recovery_epoch;
    fresh_.deletion_epoch = deletion_epoch;
    mismatch_ = false;
  }
  return mode_;
}

bool TemplateManager::on_call(const Hash128& h) {
  if (!active_ || mode_ == Mode::Inactive) return true;
  DependenceTemplate& t = current();
  if (mode_ == Mode::Capture) {
    t.call_hashes.push_back(h);
    return true;
  }
  if (calls_ >= t.call_hashes.size() || !(t.call_hashes[calls_] == h)) {
    abort_window("API-call stream diverged from the recorded window");
    return false;
  }
  calls_++;
  if (mode_ == Mode::Validate) fresh_.call_hashes.push_back(h);
  return true;
}

TemplateOp* TemplateManager::next_op() {
  if (mode_ != Mode::Validate && mode_ != Mode::Replay) return nullptr;
  DependenceTemplate& t = current();
  if (pos_ >= t.ops.size()) {
    abort_window("window issued more ops than were recorded");
    return nullptr;
  }
  return &t.ops[pos_++];
}

void TemplateManager::record_op(TemplateOp op) {
  if (mode_ == Mode::Capture) {
    current().ops.push_back(std::move(op));
  } else if (mode_ == Mode::Validate) {
    fresh_.ops.push_back(std::move(op));
  }
}

void TemplateManager::abort_window(std::string reason) {
  if (!active_ || mode_ == Mode::Inactive) return;
  counters_.invalidated++;
  last_event_ = std::move(reason);
  templates_.erase(*active_);
  mode_ = Mode::Inactive;  // the rest of the window runs fresh analysis
}

void TemplateManager::validation_failed(std::string reason) {
  if (mode_ != Mode::Validate || mismatch_) return;  // keep the first reason
  mismatch_ = true;
  last_event_ = std::move(reason);
  // Stay in Validate: the rest of the window keeps comparing positionally and
  // keeps feeding the shadow re-recording that end() will adopt.
}

void TemplateManager::end(const rt::RegionForest& forest) {
  const Mode m = mode_;
  mode_ = Mode::Inactive;
  if (!active_) return;
  const TraceId id = *active_;
  active_.reset();
  if (m == Mode::Inactive) return;  // window aborted / rejected earlier

  DependenceTemplate& t = templates_.at(id);
  switch (m) {
    case Mode::Capture:
      t.state = DependenceTemplate::State::Recorded;
      counters_.captured++;
      break;
    case Mode::Validate: {
      if (mismatch_ || pos_ != t.ops.size() || calls_ != t.call_hashes.size()) {
        // The recording disagrees with a fresh analysis of this occurrence
        // (usually: the capture happened before steady state).  Adopt the
        // shadow re-recording and validate it against the next occurrence.
        counters_.validation_failures++;
        if (!mismatch_) last_event_ = "validation window ended short of the recording";
        fresh_.state = DependenceTemplate::State::Recorded;
        templates_[id] = std::move(fresh_);
        break;
      }
      std::string why;
      if (!audit_template(t, forest, &why)) {
        // The recording matched a fresh analysis yet contradicts the DEPseq
        // sequential semantics: replaying would be no safer than re-analyzing,
        // but nothing here would ever converge — sticky reject.
        counters_.validation_failures++;
        last_event_ = "validation audit failed: " + why;
        t.state = DependenceTemplate::State::Rejected;
      } else {
        t.state = DependenceTemplate::State::Validated;
        counters_.validated++;
      }
      break;
    }
    case Mode::Replay:
      if (pos_ != t.ops.size() || calls_ != t.call_hashes.size()) {
        counters_.invalidated++;
        last_event_ = "replay window ended short of the recording";
        templates_.erase(id);
      } else {
        t.replays++;
        counters_.window_replays++;
      }
      break;
    case Mode::Inactive:
      break;
  }
}

void TemplateManager::reset() {
  templates_.clear();
  mode_ = Mode::Inactive;
  active_.reset();
  pos_ = 0;
  calls_ = 0;
  fresh_ = DependenceTemplate{};
  mismatch_ = false;
}

// ------------------------------------------------------------------- audit

bool audit_template(const DependenceTemplate& t, const rt::RegionForest& forest,
                    std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  const std::size_t n = t.ops.size();

  // 1. Per-dependence checks: causality, fence coverage for cross-shard
  //    edges, and a re-proof of every in-window elision from the recorded
  //    summaries against the *current* forest.
  for (std::size_t pos = 0; pos < n; ++pos) {
    const TemplateOp& op = t.ops[pos];
    std::set<std::uint64_t> rel_fences;
    std::set<std::uint64_t> abs_fences;
    for (const TemplateFence& f : op.fences) {
      (f.absolute ? abs_fences : rel_fences).insert(f.absolute ? f.abs_source
                                                               : f.prev_offset);
    }
    for (const TemplateDep& d : op.deps) {
      if (!d.absolute && d.prev_offset == 0) {
        return fail("op " + std::to_string(pos) + " records a non-causal dependence");
      }
      const bool fenced = d.absolute ? abs_fences.count(d.abs_source) > 0
                                     : rel_fences.count(d.prev_offset) > 0;
      if (!d.elided && !fenced) {
        std::ostringstream os;
        os << "op " << pos << " records a cross-shard dependence at "
           << (d.absolute ? "absolute source " : "offset ")
           << (d.absolute ? d.abs_source : d.prev_offset) << " with no matching fence";
        return fail(os.str());
      }
      if (d.elided && !d.absolute && d.prev_offset <= pos) {
        const TemplateOp& prev = t.ops[pos - d.prev_offset];
        bool proven = false;
        for (const ReqSummary& ps : prev.summaries) {
          if (ps.tree != d.tree) continue;
          if (std::find(ps.fields.begin(), ps.fields.end(), d.field) == ps.fields.end()) {
            continue;
          }
          for (const ReqSummary& ns : op.summaries) {
            if (ns.tree != d.tree) continue;
            if (std::find(ns.fields.begin(), ns.fields.end(), d.field) == ns.fields.end()) {
              continue;
            }
            if (rt::privileges_conflict(ps.privilege, ps.redop, ns.privilege, ns.redop) &&
                summaries_shard_local(forest, ps, ns)) {
              proven = true;
              break;
            }
          }
          if (proven) break;
        }
        if (!proven) {
          std::ostringstream os;
          os << "op " << pos << " elides a dependence at offset " << d.prev_offset
             << " on (tree " << d.tree.value << ", field " << d.field.value
             << ") that is not provably shard-local";
          return fail(os.str());
        }
      }
    }
  }

  // 2. DEPseq audit over the recorded fine-stage plans.  DEPseq
  //    (analysis/semantics.hpp) run on this shard's recorded points with the
  //    concrete requirements_conflict oracle orders point u of op pu before
  //    point v of a later op pv iff they conflict; the recording is sound iff
  //    every such pair is covered by the op-level ordering it implies.  So
  //    build that ordering first and query the oracle only for op pairs it
  //    leaves unordered: no DEPseq task graph is materialized.
  //
  //    Op-level ordering: every dep (elided or fenced) and every fence source
  //    with an in-window target, transitively closed by Warshall over rows of
  //    64-bit words (O(n^3 / 64)).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  auto row = [&](std::size_t i) { return reach.data() + i * words; };
  auto reaches = [&](std::size_t i, std::size_t j) {
    return (row(i)[j / 64] >> (j % 64) & 1) != 0;
  };
  auto order = [&](std::size_t i, std::size_t j) { row(i)[j / 64] |= 1ull << (j % 64); };
  for (std::size_t pos = 0; pos < n; ++pos) {
    for (const TemplateDep& d : t.ops[pos].deps) {
      if (!d.absolute && d.prev_offset <= pos) order(pos - d.prev_offset, pos);
    }
    for (const TemplateFence& f : t.ops[pos].fences) {
      if (!f.absolute && f.prev_offset >= 1 && f.prev_offset <= pos) {
        order(pos - f.prev_offset, pos);
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t* rk = row(k);
    for (std::size_t i = 0; i < n; ++i) {
      if (!reaches(i, k)) continue;
      std::uint64_t* ri = row(i);
      for (std::size_t w = 0; w < words; ++w) ri[w] |= rk[w];
    }
  }

  //    Point pairs are visited in (pu, i, pv, j) order, the order in which a
  //    DEPseq graph over task ids pu * stride + i lists its edges, so the
  //    first uncovered dependence reported is the one a walk of that graph
  //    would report.
  auto conflict = [&](const PointPlan& a, const PointPlan& b) {
    for (const rt::Requirement& ra : a.reqs) {
      for (const rt::Requirement& rb : b.reqs) {
        if (rt::requirements_conflict(forest, ra, rb)) return true;
      }
    }
    return false;
  };
  std::vector<std::size_t> unordered;  // later ops with points, not reached from pu
  for (std::size_t pu = 0; pu < n; ++pu) {
    if (!t.ops[pu].plan) continue;
    unordered.clear();
    for (std::size_t pv = pu + 1; pv < n; ++pv) {
      if (t.ops[pv].plan && !reaches(pu, pv)) unordered.push_back(pv);
    }
    if (unordered.empty()) continue;
    const PointPlanList& us = *t.ops[pu].plan;
    for (std::size_t i = 0; i < us.size(); ++i) {
      for (const std::size_t pv : unordered) {
        const PointPlanList& vs = *t.ops[pv].plan;
        for (std::size_t j = 0; j < vs.size(); ++j) {
          if (!conflict(us[i], vs[j])) continue;
          std::ostringstream os;
          os << "DEPseq finds a point-level dependence from op " << pu << " (point " << i
             << ") to op " << pv << " (point " << j
             << ") not covered by any recorded coarse dependence";
          return fail(os.str());
        }
      }
    }
  }
  return true;
}

}  // namespace dcr::core
