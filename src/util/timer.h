// Wall-clock and CPU timers.
//
// The paper insists on "actual CPU time as an axis of comparison, as
// opposed to coarser-grain quanta such as 'number of starts'" (Sec. 3.2).
// Timer exposes wall, process-CPU and per-thread-CPU readings so harnesses
// can report whichever is appropriate.  Per-start costs in multistart
// harnesses use the *thread* CPU clock when starts run concurrently
// (process CPU would charge every start for all threads' work) and the
// process CPU clock in the serial run_multistart / run_multistart_budgeted
// loops, so an engine that fans a start out over its own pool
// (coarsen_threads / refine_threads > 1) is charged for its workers.
// Two cases remain inexact: parallel multistart over engines with their
// own pools still leaves those pools' workers out (under-reports), and a
// serial multistart sharing the process with other busy threads — e.g.
// concurrent vpartd jobs — is charged for their work too
// (over-reports).  Wall clock measures the harness itself (the quantity
// parallelism actually improves).
#pragma once

#include <chrono>
#include <cstdint>

namespace vlsipart {

/// Process CPU time in seconds (user+system), from clock().
double process_cpu_seconds();

/// CPU time consumed by the calling thread, in seconds.  Equals process
/// CPU time in a single-threaded process (modulo clock resolution).
double thread_cpu_seconds();

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { reset(); }
  // Timers measure for reports and benches; readings never feed back
  // into partitioning decisions.
  // det-lint: allow(wall-clock)
  void reset() { start_ = Clock::now(); }
  /// Elapsed seconds since construction or last reset().
  double elapsed() const {
    // det-lint: allow(wall-clock)
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Process-CPU stopwatch.
class CpuTimer {
 public:
  CpuTimer() { reset(); }
  void reset() { start_ = process_cpu_seconds(); }
  double elapsed() const { return process_cpu_seconds() - start_; }

 private:
  double start_ = 0.0;
};

/// Per-thread-CPU stopwatch.  Must be read on the thread that created it
/// (or last reset it).
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { reset(); }
  void reset() { start_ = thread_cpu_seconds(); }
  double elapsed() const { return thread_cpu_seconds() - start_; }

 private:
  double start_ = 0.0;
};

}  // namespace vlsipart
