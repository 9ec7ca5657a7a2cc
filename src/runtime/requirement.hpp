// Region requirements, projection functions, and the pairwise dependence
// oracle.
//
// A *concrete* Requirement names one region + fields + privilege, as used by
// a single task.  A GroupRequirement is the upper-bound form used by a group
// (index) task launch: a partition (or a single region shared by all points)
// plus a projection function that maps each point of the launch domain to its
// subregion — the `t(p[f(i_j)])` form of paper §4.
//
// The oracle implements exactly the three-step check of paper §4.1: shared
// index points -> common field -> at least one writer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "runtime/geometry.hpp"
#include "runtime/privilege.hpp"
#include "runtime/region.hpp"
#include "statics/affine.hpp"

namespace dcr::rt {

struct Requirement {
  IndexSpaceId region;
  std::vector<FieldId> fields;
  Privilege privilege = Privilege::ReadOnly;
  ReductionOpId redop = kNoRedop;

  friend bool operator==(const Requirement&, const Requirement&) = default;
};

// Projection functions are pure: (partition, point, launch domain) -> region.
// Purity is what allows memoization and the symbolic fence-elision proof
// (paper §4: "Because sharding functions are pure, we can memoize their
// results" — the same holds for projections).
class ProjectionRegistry {
 public:
  using ProjectionFn =
      std::function<IndexSpaceId(const RegionForest&, PartitionId, const Point&, const Rect&)>;
  // Declarative form: (point, launch domain) -> color of the target partition.
  // A projection registered this way gets an opaque fn synthesized from it,
  // so the symbolic and the opaque forms agree by construction on the colors
  // the ColorFn produces.
  using ColorFn = std::function<std::uint64_t(const Point&, const Rect&)>;

  ProjectionRegistry() {
    // Projection 0: identity — point i maps to the subregion colored by the
    // linearization of i in the launch domain (the `owned[id(.)]` form).
    // Registered with its symbolic (affine) form, validated at construction.
    register_projection([](const Point& p, const Rect& domain) { return linearize(domain, p); },
                        statics::AffineProjection::identity());
  }

  // Opaque registration: no symbolic form, the static prover answers Unknown
  // for every launch using it and the runtime falls back to per-point fine
  // analysis.  Always sound.
  ProjectionId register_projection(ProjectionFn fn) {
    fns_.push_back(std::move(fn));
    syms_.push_back(std::nullopt);
    return ProjectionId(static_cast<std::uint32_t>(fns_.size() - 1));
  }

  // Symbolic registration: the affine form is validated against the concrete
  // color fn by exhaustive comparison over the fixed sample-domain suite; any
  // mismatch aborts loudly (a wrong symbolic form would let the prover skip
  // fine analysis that was actually needed).
  ProjectionId register_projection(ColorFn color, const statics::AffineProjection& sym) {
    validate_symbolic(color, sym);
    ColorFn shared = std::move(color);
    fns_.push_back([shared](const RegionForest& forest, PartitionId part, const Point& p,
                            const Rect& domain) {
      return forest.subregion(part, shared(p, domain));
    });
    syms_.push_back(sym);
    return ProjectionId(static_cast<std::uint32_t>(fns_.size() - 1));
  }

  IndexSpaceId apply(ProjectionId id, const RegionForest& forest, PartitionId part,
                     const Point& p, const Rect& domain) const {
    DCR_CHECK(id.value < fns_.size()) << "unknown projection function";
    return fns_[id.value](forest, part, p, domain);
  }

  // Symbolic form, or nullptr for opaque projections.
  const statics::AffineProjection* symbolic(ProjectionId id) const {
    DCR_CHECK(id.value < syms_.size()) << "unknown projection function";
    return syms_[id.value].has_value() ? &*syms_[id.value] : nullptr;
  }

  static ProjectionId identity() { return ProjectionId(0); }

 private:
  static void validate_symbolic(const ColorFn& color, const statics::AffineProjection& sym) {
    std::uint64_t compared = 0;
    for (const Rect& domain : statics::sample_domains()) {
      for (std::uint64_t idx = 0; idx < domain.volume(); ++idx) {
        const Point p = delinearize(domain, idx);
        const auto symbolic_color = statics::eval_color(sym, domain, p);
        if (!symbolic_color.has_value()) continue;  // sym undefined here: no claim
        DCR_CHECK(*symbolic_color == color(p, domain))
            << "symbolic projection mismatch: " << statics::to_string(sym, domain.dim)
            << " claims color " << *symbolic_color << " but the concrete fn returns "
            << color(p, domain) << " at linear point " << idx << " of a " << domain.dim
            << "-d sample domain";
        ++compared;
      }
    }
    DCR_CHECK(compared > 0)
        << "symbolic projection " << statics::to_string(sym)
        << " is undefined on every sample domain; refusing a vacuous registration";
  }

  std::vector<ProjectionFn> fns_;
  std::vector<std::optional<statics::AffineProjection>> syms_;
};

struct GroupRequirement {
  // Exactly one of partition/region is valid.  The partition (or region) is
  // the coarse-stage upper bound for every point's concrete requirement.
  PartitionId partition = PartitionId::invalid();
  IndexSpaceId region = IndexSpaceId::invalid();
  ProjectionId projection = ProjectionRegistry::identity();
  std::vector<FieldId> fields;
  Privilege privilege = Privilege::ReadOnly;
  ReductionOpId redop = kNoRedop;

  bool uses_partition() const { return partition.valid(); }

  static GroupRequirement on_partition(PartitionId p, std::vector<FieldId> fields,
                                       Privilege priv, ReductionOpId redop = kNoRedop,
                                       ProjectionId proj = ProjectionRegistry::identity()) {
    GroupRequirement r;
    r.partition = p;
    r.projection = proj;
    r.fields = std::move(fields);
    r.privilege = priv;
    r.redop = redop;
    return r;
  }
  static GroupRequirement on_region(IndexSpaceId reg, std::vector<FieldId> fields,
                                    Privilege priv, ReductionOpId redop = kNoRedop) {
    GroupRequirement r;
    r.region = reg;
    r.fields = std::move(fields);
    r.privilege = priv;
    r.redop = redop;
    return r;
  }

  // Concrete requirement for one point of the launch domain.
  Requirement concretize(const RegionForest& forest, const ProjectionRegistry& projs,
                         const Point& p, const Rect& domain) const {
    Requirement req;
    concretize_into(req, forest, projs, p, domain);
    return req;
  }

  // As concretize, into an existing Requirement: the field list is copy-
  // assigned, so a reused `out` keeps its capacity and the fine stage's
  // per-point loop does not allocate.
  void concretize_into(Requirement& out, const RegionForest& forest,
                       const ProjectionRegistry& projs, const Point& p,
                       const Rect& domain) const {
    out.region = uses_partition() ? projs.apply(projection, forest, partition, p, domain)
                                  : region;
    out.fields = fields;
    out.privilege = privilege;
    out.redop = redop;
  }

  // Upper-bound region covering every point's concrete requirement.
  IndexSpaceId upper_bound(const RegionForest& forest) const {
    return uses_partition() ? forest.parent_region(partition) : region;
  }
};

// On the per-point fine path, so the common cases must not be O(n·m): field
// ids are small dense integers in practice, so a 64-bit occupancy mask
// resolves both hit and miss in O(n+m); only ids >= 64 (none today) fall back
// to the quadratic scan, and then only for the unmasked ids.
inline bool fields_intersect(const std::vector<FieldId>& a, const std::vector<FieldId>& b) {
  if (a.empty() || b.empty()) return false;
  if (a.size() == 1 && b.size() == 1) return a[0] == b[0];
  std::uint64_t mask_a = 0, mask_b = 0;
  bool all_small = true;
  for (FieldId fa : a) {
    if (fa.value < 64) {
      mask_a |= std::uint64_t{1} << fa.value;
    } else {
      all_small = false;
    }
  }
  for (FieldId fb : b) {
    if (fb.value < 64) {
      mask_b |= std::uint64_t{1} << fb.value;
    } else {
      all_small = false;
    }
  }
  if ((mask_a & mask_b) != 0) return true;
  if (all_small) return false;
  for (FieldId fa : a) {
    if (fa.value < 64) continue;  // misses in the mask are exact
    if (std::find(b.begin(), b.end(), fa) != b.end()) return true;
  }
  return false;
}

// The dependence oracle on concrete requirements (paper §4.1, final ¶).
inline bool requirements_conflict(const RegionForest& forest, const Requirement& a,
                                  const Requirement& b) {
  if (forest.tree_of(a.region) != forest.tree_of(b.region)) return false;
  if (!forest.regions_overlap(a.region, b.region)) return false;
  if (!fields_intersect(a.fields, b.fields)) return false;
  return privileges_conflict(a.privilege, a.redop, b.privilege, b.redop);
}

// Conservative (symbolic) oracle on group-launch upper bounds: used by the
// coarse stage, which must not enumerate points.  Compares the upper-bound
// region nodes using structural disjointness first, then geometry of the
// bounds.
inline bool group_bounds_may_conflict(const RegionForest& forest, IndexSpaceId ub_a,
                                      const std::vector<FieldId>& fields_a, Privilege priv_a,
                                      ReductionOpId redop_a, IndexSpaceId ub_b,
                                      const std::vector<FieldId>& fields_b, Privilege priv_b,
                                      ReductionOpId redop_b) {
  if (forest.tree_of(ub_a) != forest.tree_of(ub_b)) return false;
  if (!fields_intersect(fields_a, fields_b)) return false;
  if (!privileges_conflict(priv_a, redop_a, priv_b, redop_b)) return false;
  if (forest.structurally_disjoint(ub_a, ub_b)) return false;
  return forest.regions_overlap(ub_a, ub_b);
}

}  // namespace dcr::rt
