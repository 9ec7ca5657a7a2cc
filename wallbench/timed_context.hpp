// A forwarding core::Context that measures a control program from outside
// the runtime.  It wraps the context a shard thread hands the application and
// forwards every call unchanged, adding:
//
//  * one clock read per timestep boundary (always on): a boundary is every
//    `every`-th index launch of the workload's marker function, so the step
//    latency is the time between consecutive boundaries, plus one read at
//    the program's first index launch, where set-up ends;
//  * with `timed`, two clock reads around every call, splitting the shard's
//    wall time into API time (inside calls) and control time (between them).
//
// It never changes what the program does: the runtime sees the same calls
// with the same arguments in the same order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "dcr/api.hpp"

namespace wallbench {

using dcr::FieldId;
using dcr::FieldSpaceId;
using dcr::FunctionId;
using dcr::IndexSpaceId;
using dcr::PartitionId;
using dcr::RegionTreeId;
using dcr::ShardId;
using dcr::SimTime;
using dcr::TraceId;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Everything one shard's control program leaves behind for the harness.
// Written only by that shard's thread; read after execute() joins it.
struct ShardLedger {
  std::int64_t start = 0;       // control program entered
  std::int64_t end = 0;         // control program returned
  std::int64_t last = 0;        // end of the previous API call (timed mode)
  std::int64_t api_ns = 0;      // inside API calls
  std::int64_t control_ns = 0;  // between API calls
  std::uint64_t calls = 0;
  std::uint64_t marker_launches = 0;
  std::int64_t first_launch = 0;         // the first timestep begins
  std::vector<std::int64_t> boundaries;  // clock reads at step boundaries
  std::uint64_t futures_checked = 0;
  std::uint64_t futures_wrong = 0;
  // Runtime layer counters of this shard when the control program returned
  // (excludes the runtime's own end-of-program barrier).
  std::uint64_t coarse_ns = 0, fine_ns = 0, fence_ns = 0, future_ns = 0;
};

struct StepMarker {
  FunctionId fn;
  std::uint64_t every = 1;
  // Optional model of the k-th get_future value (0-based, per shard);
  // returns false when the value is wrong.
  std::function<bool(std::uint64_t k, double value)> future_model;
};

class TimedContext final : public dcr::core::Context {
 public:
  TimedContext(dcr::core::Context& inner, ShardLedger& ledger, const StepMarker& marker,
               bool timed)
      : in_(inner), l_(ledger), marker_(marker), timed_(timed) {}

 private:
  // Forwards one API call; in timed mode the time since the previous call
  // returned is control time and the call itself is API time.
  template <class F>
  auto call(F&& f) {
    l_.calls++;
    if (!timed_) return f();
    const std::int64_t t0 = now_ns();
    l_.control_ns += t0 - l_.last;
    struct Close {
      ShardLedger& l;
      std::int64_t t0;
      ~Close() {
        l.last = now_ns();
        l.api_ns += l.last - t0;
      }
    } close{l_, t0};
    return f();
  }

 public:
  FieldSpaceId create_field_space() override {
    return call([&] { return in_.create_field_space(); });
  }
  FieldId allocate_field(FieldSpaceId fs, std::size_t bytes, std::string name) override {
    return call([&] { return in_.allocate_field(fs, bytes, std::move(name)); });
  }
  RegionTreeId create_region(const dcr::rt::Rect& bounds, FieldSpaceId fs) override {
    return call([&] { return in_.create_region(bounds, fs); });
  }
  IndexSpaceId root(RegionTreeId tree) override {
    return call([&] { return in_.root(tree); });
  }
  PartitionId partition_equal(IndexSpaceId parent, std::size_t pieces, int axis) override {
    return call([&] { return in_.partition_equal(parent, pieces, axis); });
  }
  PartitionId partition_with_halo(IndexSpaceId parent, std::size_t pieces, std::int64_t halo,
                                  int axis) override {
    return call([&] { return in_.partition_with_halo(parent, pieces, halo, axis); });
  }
  PartitionId create_partition(IndexSpaceId parent, std::vector<dcr::rt::Rect> pieces,
                               bool disjoint) override {
    return call([&] { return in_.create_partition(parent, std::move(pieces), disjoint); });
  }
  PartitionId partition_grid(IndexSpaceId parent, std::size_t tiles_x, std::size_t tiles_y,
                             std::int64_t halo) override {
    return call([&] { return in_.partition_grid(parent, tiles_x, tiles_y, halo); });
  }
  void destroy_region(RegionTreeId tree) override {
    call([&] { in_.destroy_region(tree); });
  }
  void destroy_region_deferred(RegionTreeId tree) override {
    call([&] { in_.destroy_region_deferred(tree); });
  }
  const dcr::rt::RegionForest& forest() const override { return in_.forest(); }

  void fill(IndexSpaceId region, std::vector<FieldId> fields) override {
    call([&] { in_.fill(region, std::move(fields)); });
  }
  dcr::core::Future launch(const dcr::core::TaskLaunch& launch) override {
    return call([&] { return in_.launch(launch); });
  }
  dcr::core::FutureMap index_launch(const dcr::core::IndexLaunch& launch) override {
    if (l_.first_launch == 0) l_.first_launch = now_ns();
    if (launch.fn.value == marker_.fn.value &&
        l_.marker_launches++ % marker_.every == 0) {
      l_.boundaries.push_back(now_ns());
    }
    return call([&] { return in_.index_launch(launch); });
  }
  dcr::core::Future reduce_future_map(const dcr::core::FutureMap& fm,
                                      dcr::core::ReduceOp op) override {
    return call([&] { return in_.reduce_future_map(fm, op); });
  }
  double get_future(const dcr::core::Future& f) override {
    const double v = call([&] { return in_.get_future(f); });
    if (marker_.future_model) {
      if (!marker_.future_model(l_.futures_checked, v)) l_.futures_wrong++;
      l_.futures_checked++;
    }
    return v;
  }
  bool future_is_ready(const dcr::core::Future& f) override {
    return call([&] { return in_.future_is_ready(f); });
  }
  void execution_fence() override {
    call([&] { in_.execution_fence(); });
  }
  void attach_file(IndexSpaceId region, std::vector<FieldId> fields,
                   std::string file) override {
    call([&] { in_.attach_file(region, std::move(fields), std::move(file)); });
  }
  void detach_file(IndexSpaceId region, std::vector<FieldId> fields) override {
    call([&] { in_.detach_file(region, std::move(fields)); });
  }
  void attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                         std::string file_basename) override {
    call([&] {
      in_.attach_file_group(partition, std::move(fields), std::move(file_basename));
    });
  }
  void detach_file_group(PartitionId partition, std::vector<FieldId> fields) override {
    call([&] { in_.detach_file_group(partition, std::move(fields)); });
  }
  void begin_trace(TraceId id) override {
    call([&] { in_.begin_trace(id); });
  }
  void end_trace(TraceId id) override {
    call([&] { in_.end_trace(id); });
  }

  std::size_t num_shards() const override { return in_.num_shards(); }
  ShardId shard_id() const override { return in_.shard_id(); }
  dcr::Philox4x32& rng() override { return in_.rng(); }
  SimTime now() const override { return in_.now(); }

 private:
  dcr::core::Context& in_;
  ShardLedger& l_;
  const StepMarker& marker_;
  const bool timed_;
};

}  // namespace wallbench
