// The capture-path microbenchmark kernel, compiled in its own translation
// unit on purpose: the timed region is a coroutine-heavy inner loop whose
// codegen (inlining, layout) must not drift as the driver TU
// (bench_perf_scaling.cpp) grows. Keeping it isolated makes its timing
// a property of the library, not of how big bench_perf_scaling.cpp
// happens to be this month.
#pragma once

#include <cstdint>
#include <string>

#include "pfsem/sim/engine.hpp"
#include "pfsem/trace/collector.hpp"

namespace pfsem_bench {

struct CaptureRun {
  double seconds = 0;
  std::string compact_bytes;
  std::uint64_t events = 0;
};

/// Adversarial delay(0)-heavy capture workload: `roots` coroutines (spread
/// over 64 collector ranks) each do `rounds` bursts of fairness
/// round-trips, almost all at the current timestamp — the pending-event
/// set stays ~`roots` deep, so the scheduler's heap pays O(log roots) with
/// cold cache lines on every event — and emit one pwrite record per burst
/// through the collector. Best of `reps` wall times.
CaptureRun run_capture(int roots, int rounds, int reps);

}  // namespace pfsem_bench
