// Deterministic synchronous-round 2-way refinement.
//
// The serial FM engine (fm_refiner.h) is inherently sequential: every
// move depends on the gain-bucket state left by the previous one.  This
// engine trades that strict move order for rounds whose gather phases
// are independent per vertex, keeping the repo's determinism bar
// (DESIGN.md §7): results are a pure function of the problem and the
// starting assignment.  Each round:
//
//   1. FREEZE    — gains of all dirty vertices are recomputed from the
//                  current PartitionState into a flat snapshot;
//   2. PROPOSE   — the positive-gain movable vertices (or, from an
//                  infeasible projection, the overloaded side's
//                  vertices) are collected in ascending id order;
//   3. COMMIT    — the proposals are stably sorted by gain descending
//                  (ties stay in id order) and applied by a prefix
//                  scan: each legal move is applied through the
//                  PartitionState interleaved pin-count walk while the
//                  running (imbalance, cut) key is tracked, then the
//                  suffix beyond the best prefix is rolled back — moves
//                  the frozen gains mispredicted (conflicting neighbors)
//                  cost nothing;
//   4. REBUILD   — vertices whose gain the kept moves may have changed
//                  (all pins of nets incident to kept moves) are marked
//                  dirty for the next round's patch.
//
// Rounds repeat while the kept prefix strictly improves the
// (imbalance, cut) key.  FREEZE and PROPOSE read only the state and
// write only per-vertex slots, so they could be split into vertex-range
// shards without changing a result.  Every phase runs on the calling
// thread: on a 4-vCPU host, sharding them over a ThreadPool (two
// hand-offs per round) cost more CPU and wall time end to end than it
// saved (DESIGN.md §7.1).  refine_threads > 1 selects this engine; its
// value does not change the work or the result.
#pragma once

#include <span>
#include <vector>

#include "src/part/core/fm_config.h"
#include "src/part/core/fm_refiner.h"  // UpdateWork cost-model struct
#include "src/part/core/partition_state.h"
#include "src/util/rng.h"

namespace vlsipart {

class ThreadPool;

/// One candidate move from the frozen gain snapshot.
struct MoveProposal {
  VertexId v = kInvalidVertex;
  Gain gain = 0;
};

/// Outcome of one prefix-scan commit.
struct CommitOutcome {
  std::size_t applied = 0;           ///< moves applied before rollback
  std::size_t kept = 0;              ///< best-prefix length after rollback
  std::size_t rejected_balance = 0;  ///< proposals refused as illegal
  std::size_t rejected_other = 0;    ///< fixed vertices / duplicates
  Weight cut_before = 0;
  Weight cut_after = 0;
};

/// Deterministic prefix-scan commit: walk `proposals` in order, apply
/// every legal move (balance-legal, or strictly imbalance-reducing when
/// the state is infeasible) through state.move(), track the
/// (imbalance, cut) key after each applied move, then roll back to the
/// earliest best prefix.  The kept move ids land in `kept_moves` in
/// application order.  Proposals naming fixed vertices or a vertex
/// already moved this commit are skipped (counted in rejected_other), so
/// arbitrary — even adversarial — proposal lists are safe: the state
/// ends feasible-or-better with a never-worse (imbalance, cut) key.
/// Deterministic: the outcome is a pure function of `state` and the
/// proposal order (callers sort by gain desc, ties by ascending id).
/// `moved_scratch`, when provided, must be all-zero and sized to the
/// vertex count; it is returned all-zero (callers reuse it round to
/// round; without it the function allocates).
CommitOutcome commit_proposals(const PartitionProblem& problem,
                               PartitionState& state,
                               std::span<const MoveProposal> proposals,
                               std::vector<VertexId>& kept_moves,
                               std::vector<std::uint8_t>* moved_scratch =
                                   nullptr);

struct ParallelRoundStats {
  std::size_t proposals = 0;
  std::size_t applied = 0;
  std::size_t kept = 0;
  std::size_t rejected_balance = 0;
  std::size_t gains_recomputed = 0;
  Weight cut_before = 0;
  Weight cut_after = 0;
};

struct ParallelFmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  std::size_t rounds = 0;
  std::size_t total_moves = 0;  ///< kept moves summed over rounds
  std::vector<ParallelRoundStats> round_stats;
  /// Kept move ids per round, recorded only when FmConfig::record_trace
  /// is set — the parallel counterpart of FmResult::pass_traces and the
  /// raw material of the thread-invariance digests.
  std::vector<std::vector<VertexId>> round_traces;

  /// Gain-recompute work expressed in the serial refiner's cost model so
  /// multistart harnesses can aggregate either engine's counters.
  UpdateWork update_work() const {
    UpdateWork w;
    for (const ParallelRoundStats& s : round_stats) {
      w.nets_walked += s.gains_recomputed;
      w.nonzero_delta_updates += s.applied;
    }
    return w;
  }
};

class ParallelFmRefiner {
 public:
  /// The problem must outlive the refiner.  `pool` is unused (every
  /// round runs on the calling thread); it stays for source
  /// compatibility with existing callers and may be null.
  ParallelFmRefiner(const PartitionProblem& problem, FmConfig config,
                    ThreadPool* pool);

  /// Refine `state` (fully assigned) in place.  The Rng is part of the
  /// engine interface but never consumed: synchronous rounds make no
  /// randomized decisions, which keeps them deterministic.
  ParallelFmResult refine(PartitionState& state, Rng& rng);

  const FmConfig& config() const { return config_; }

 private:
  /// Recompute snapshot gains of dirty vertices, returning the number
  /// recomputed.
  std::size_t freeze_gains(const PartitionState& state);
  /// Collect this round's proposals into proposals_ (ascending id
  /// order, then a stable gain sort).
  void propose(const PartitionState& state);
  /// Mark every vertex whose gain a kept move may have changed.
  void mark_dirty(std::span<const VertexId> kept);

  Weight imbalance(Weight w0) const;

  const PartitionProblem* problem_;
  FmConfig config_;
  AuditConfig audit_;

  std::vector<Gain> gain_;            ///< frozen per-vertex gain snapshot
  std::vector<std::uint8_t> dirty_;   ///< gain_[v] needs a recompute
  std::vector<std::uint8_t> movable_; ///< not fixed, not oversized-excluded
  std::vector<MoveProposal> proposals_;
  std::vector<VertexId> kept_moves_;
  std::vector<std::uint8_t> moved_scratch_;
};

}  // namespace vlsipart
