// The benchmark's workloads.  Each builds its inputs from the run seed,
// measures for about Options::seconds, verifies every partition it gets
// back and returns its metrics: the end-to-end set in an untraced run,
// the per-layer set (plus trace.overhead_frac and trace.cut_match) in a
// traced run.
#pragma once

#include "e2ebench/bench.h"

namespace vlsipart::e2e {

/// ml-serial, ml-threads2 and flat-fm: library calls into part/ml and
/// part/core on generated ibm-class instances.
RunResult run_engine_workload(const Options& options);

/// vpartd-closed: an in-process PartitionService driven closed-loop by
/// two client connections.
RunResult run_service_workload(const Options& options);

}  // namespace vlsipart::e2e
