// Independent-start harness.
//
// Runs a Bipartitioner N times from independent seeds and records, per
// start, the cut and CPU time — the raw material for the paper's
// min/average tables (Tables 1-3) and for the BSF/Pareto reporting of
// Sec. 3.2.  Start i always uses base_rng.fork(i), so any individual
// start is reproducible in isolation.
//
// All three regimes accept a `num_threads` knob (default 1 = the
// historical serial path).  Starts are embarrassingly parallel — start i
// is a pure function of (problem, engine config, base_rng.fork(i)) — so
// the parallel paths return *bit-identical* results at any thread count:
//   * records land in starts[i] by start index, never by completion order;
//   * best-start selection is the feasible start with the lowest cut,
//     ties broken by the lowest start index (exactly the serial rule);
//   * the pruning threshold seen by start i is the best first-pass cut
//     over starts 0..i-1 (a prefix min, enforced by publication order),
//     not over "whatever happened to finish first";
//   * the budgeted regime admits starts by accumulated per-start CPU in
//     index order, so the admitted prefix does not depend on the thread
//     count (the prefix length still depends on measured CPU times, as it
//     always has in the serial path).
// Per-start cpu_seconds uses the process CPU clock when starts run one
// at a time in run_multistart / run_multistart_budgeted (so an engine's
// own pool workers are charged) and the *thread* CPU clock when starts
// run concurrently; wall_seconds is the harness wall-clock — the
// quantity parallelism improves.  See DESIGN.md
// ("Threading model") and src/util/timer.h.
#pragma once

#include <cstddef>
#include <vector>

#include "src/part/core/partitioner.h"
#include "src/util/stats.h"

namespace vlsipart {

struct StartRecord {
  Weight cut = 0;
  double cpu_seconds = 0.0;
  bool feasible = false;
};

struct MultistartResult {
  std::vector<StartRecord> starts;
  std::vector<PartId> best_parts;
  Weight best_cut = 0;
  /// Sum of per-start CPU seconds — the paper's CPU-time axis;
  /// invariant (up to timer noise) under the thread count only for
  /// engines without their own pool.  The serial loops charge process
  /// CPU and the parallel loops thread CPU, so an engine with
  /// coarsen_threads / refine_threads > 1 reports more CPU at 1 thread
  /// than at N (see src/util/timer.h).
  double total_cpu_seconds = 0.0;
  /// Wall-clock of the whole harness call; shrinks with more threads.
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;
  /// Gain-update work summed over all starts (run_multistart only; the
  /// pruned/budgeted regimes leave it zero).  Integer sums over a fixed
  /// start set, so thread-count-invariant like everything else here.
  UpdateWork update_work;

  Weight min_cut() const;
  double avg_cut() const;
  double avg_cpu_seconds() const;
  /// Retained sample of cuts for order-statistic math (BSF curves).
  Sample cut_sample() const;
  Sample time_sample() const;
};

/// Run `num_starts` independent starts on up to `num_threads` threads.
/// Each start's feasibility is audited with check_solution(); infeasible
/// results are recorded but never become best_parts.  num_threads <= 1
/// runs the serial path; > 1 requires partitioner.clone() (engines that
/// return nullptr fall back to serial).
MultistartResult run_multistart(const PartitionProblem& problem,
                                Bipartitioner& partitioner,
                                std::size_t num_starts, std::uint64_t seed,
                                std::size_t num_threads = 1);

/// Start pruning (Sec. 3.2): "pruning (early termination of starts that
/// appear unpromising relative to previous starts) can be applied".
/// A start is abandoned after its first FM pass if that pass's cut
/// exceeds `factor` times the best first-pass cut seen so far.
struct PruneConfig {
  double factor = 1.10;
};

struct PrunedMultistartResult {
  MultistartResult result;
  std::size_t pruned_starts = 0;
  /// CPU spent on starts that were pruned (the saved work is the
  /// difference against an unpruned run).
  double pruned_cpu_seconds = 0.0;
};

/// Pruned multistart of the flat FM engine.  Pruned starts are recorded
/// in result.starts with the cut they had when abandoned (marked
/// infeasible so they never become best_parts), mirroring how a
/// practical implementation would discard them.  In the parallel path
/// the "previous starts" a start is judged against are exactly starts
/// 0..i-1 (workers briefly wait for lower-index first passes to publish),
/// so the pruned set is thread-count-invariant.
PrunedMultistartResult run_multistart_pruned(const PartitionProblem& problem,
                                             const FmConfig& config,
                                             std::size_t num_starts,
                                             std::uint64_t seed,
                                             const PruneConfig& prune,
                                             std::size_t num_threads = 1);

/// Budgeted multistart — the paper's actual use model (Sec. 3.2): keep
/// launching independent starts while the consumed CPU stays below
/// `cpu_budget_seconds`; at least one start always runs.  This is the
/// regime behind the BSF curve's tau axis ("the solution cost that the
/// algorithm is expected to achieve in a multistart regime, versus the
/// given CPU time budget tau").  A cap of `max_starts` bounds the run on
/// very fast instances (0 = unbounded).  The parallel path runs starts
/// speculatively and then admits the minimal prefix whose accumulated
/// per-start CPU reaches the budget (or the max_starts cap); speculative
/// starts past the cutoff are discarded and charged to neither the
/// records nor total_cpu_seconds.  That is the serial rule's prefix for
/// engines without their own pool.  With one (coarsen_threads /
/// refine_threads > 1) the serial path charges process CPU and the
/// parallel path thread CPU, so the serial path reaches the budget after
/// fewer starts (see src/util/timer.h).
MultistartResult run_multistart_budgeted(const PartitionProblem& problem,
                                         Bipartitioner& partitioner,
                                         double cpu_budget_seconds,
                                         std::uint64_t seed,
                                         std::size_t max_starts = 0,
                                         std::size_t num_threads = 1);

}  // namespace vlsipart
