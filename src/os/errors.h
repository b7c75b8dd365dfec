// Typed error results and the degradation ladder of the allocation path.
//
// The paper's kernel returns an error from mmap() on pool exhaustion and
// the freqmine anomaly (Section V.B) hinges on over-constrained colorings
// degrading gracefully. Recoverable conditions therefore surface as
// `AllocError` codes instead of aborting: the simulated kernel only aborts
// on programming errors (true invariant violations), never on resource
// exhaustion or bad user arguments.
//
// Every order-0 allocation walks an explicit, observable ladder:
//
//   kColored    page from the task's own color_list combos (Algorithm 1)
//   kWidened    color constraint relaxed, node locality kept: any parked
//               page on the task's nodes
//   kDefault    stock buddy path, preferred node first
//   kScavenged  stranded colorized pages reclaimed from any online node
//   kFailed     ladder exhausted; the fault reports kOutOfMemory
//
// Per-stage counters live in KernelStats (machine-wide) and
// TaskAllocStats (per task).
#pragma once

#include <cstdint>

namespace tint::os {

enum class AllocError : uint8_t {
  kOk = 0,
  kInvalidArgument,  // bad mmap/munmap/heap arguments (EINVAL)
  kPoolExhausted,    // colored pool dry and fallback disabled (paper mode)
  kOutOfMemory,      // degradation ladder fully exhausted (ENOMEM)
  kHugeExhausted,    // huge pool dry and every zone fragmented/offline
  kNodeOffline,      // no online node could serve the request
  // An uncorrectable DRAM error consumed the page's data: the frame was
  // hard-offlined (poisoned, mapping dropped). The next touch of the
  // same virtual page faults in a fresh zeroed frame (the simulated
  // SIGBUS + MCE recovery contract; see DESIGN.md section 11).
  kEccUncorrected,
  // Live migration lost its race: the translation changed between the
  // replacement allocation and the swap (another thread migrated or
  // unmapped the page first). Nothing was corrupted; the page simply no
  // longer needed this migration.
  kMigrationRace,
};

enum class AllocStage : uint8_t {
  kColored = 0,
  kWidened,
  kDefault,
  kScavenged,
  kFailed,
};

constexpr const char* to_string(AllocError e) {
  switch (e) {
    case AllocError::kOk: return "ok";
    case AllocError::kInvalidArgument: return "invalid-argument";
    case AllocError::kPoolExhausted: return "pool-exhausted";
    case AllocError::kOutOfMemory: return "out-of-memory";
    case AllocError::kHugeExhausted: return "huge-exhausted";
    case AllocError::kNodeOffline: return "node-offline";
    case AllocError::kEccUncorrected: return "ecc-uncorrected";
    case AllocError::kMigrationRace: return "migration-race";
  }
  return "?";
}

constexpr const char* to_string(AllocStage s) {
  switch (s) {
    case AllocStage::kColored: return "colored";
    case AllocStage::kWidened: return "widened";
    case AllocStage::kDefault: return "default";
    case AllocStage::kScavenged: return "scavenged";
    case AllocStage::kFailed: return "failed";
  }
  return "?";
}

}  // namespace tint::os
