// ColorAdvisor: capacity planning and live diagnosis for color sets.
//
// The paper's one sharp edge is over-constrained colorings: a task whose
// heap outgrows its colored pool starts taking fallback pages (uncolored,
// often remote -- the freqmine anomaly of Section V.B). The advisor
// makes that failure mode visible and actionable:
//
//   * `pool_capacity_pages()` -- how many frames a task's current color
//     set can ever supply (geometry-based, the planning-time check),
//   * `analyze()` -- post-run diagnosis from the TCB allocation stats:
//     which tasks fell back, and which *free* colors on their node could
//     be added to widen the pool (falling back to group-shared colors
//     when the node is fully claimed -- the "(part)" escape hatch),
//   * `apply()` -- issues the corresponding SET_* mmap calls.
#pragma once

#include <string>
#include <vector>

#include "core/color_planner.h"
#include "os/kernel.h"

namespace tint::core {

// Which color axis a live re-coloring plan operates on.
enum class ColorDim : uint8_t {
  kBank = 0,  // per-node bank colors (Eq. 1)
  kLlc,       // machine-global LLC colors
};

struct TaskAdvice {
  enum class Kind {
    kOk,              // no action needed
    kWidenBanks,      // add the suggested bank colors (free on local node)
    kShareLlc,        // add LLC colors already used by same-node tasks
    kReplaceRetired,  // drop RAS-retired bank colors, add healthy ones
    kRecolorHot,      // swap a contention-hot color for a quiet one
  };

  os::TaskId task = os::kNoTask;
  Kind kind = Kind::kOk;
  std::string reason;
  // Colors to add (empty for kOk).
  ThreadColorPlan additions;
  // Colors to drop first (kReplaceRetired only): banks the kernel's RAS
  // layer retired after repeated poisoning. alloc_colored() already skips
  // them, so they only shrink the task's pool -- clearing them makes the
  // plan honest and lets capacity checks see the real geometry.
  ThreadColorPlan removals;
};

class ColorAdvisor {
 public:
  ColorAdvisor(const hw::AddressMapping& mapping, const hw::Topology& topo);

  // Maximum number of frames the task's current color set can supply
  // (per-combo capacity times the number of combos; uncolored axes count
  // as "all colors"). Returns the machine page count for uncolored tasks.
  uint64_t pool_capacity_pages(const os::Kernel& kernel,
                               os::TaskId task) const;

  // True when `needed_bytes` of heap cannot fit the task's pool -- call
  // before running to catch freqmine-style overconstraint.
  bool pool_would_overflow(const os::Kernel& kernel, os::TaskId task,
                           uint64_t needed_bytes) const;

  // Diagnoses every task from its allocation statistics. `fallback_tolerance`
  // is the fraction of faults allowed to fall back before advice fires.
  std::vector<TaskAdvice> analyze(const os::Kernel& kernel,
                                  double fallback_tolerance = 0.02) const;

  // Applies one piece of advice through the mmap color protocol
  // (CLEAR_* for removals first, then SET_* for additions). Returns the
  // number of color-control calls issued.
  unsigned apply(os::Kernel& kernel, const TaskAdvice& advice) const;

  // Live re-coloring advice for the ColorGuard: pick a replacement for
  // `hot_color` in `task`'s bank set -- unclaimed by any task, not
  // RAS-retired, on an online node, and not itself flagged in `avoid`
  // (one entry per bank color; the guard passes its hot set so a heal
  // never lands on another hot bank). The search prefers the hot
  // color's own node (the migration stays controller-local), then the
  // task's node, then any online node. Returns kRecolorHot advice with
  // removals = {hot_color} and one addition, or kOk when no healthy
  // replacement exists (the guard then backs off rather than churn).
  // Unlike the rest of the advisor, this is *not* applied through the
  // mmap protocol: the guard feeds it to Kernel::recolor_task so the
  // swap publishes atomically.
  //
  // `dim` selects the color axis. For kLlc the palette is machine-global
  // (no node preference, no RAS retirement): the replacement is the
  // lowest LLC color unclaimed by any task and not flagged in `avoid`
  // (one entry per LLC color -- the guard passes its LLC hot set).
  TaskAdvice plan_recolor(const os::Kernel& kernel, os::TaskId task,
                          unsigned hot_color,
                          const std::vector<uint8_t>& avoid,
                          ColorDim dim = ColorDim::kBank) const;

 private:
  const hw::AddressMapping& mapping_;
  hw::Topology topo_;
};

}  // namespace tint::core
