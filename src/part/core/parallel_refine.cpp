#include "src/part/core/parallel_refine.h"

#include <algorithm>

#include "src/util/logging.h"

namespace vlsipart {

// hot-path: root
CommitOutcome commit_proposals(const PartitionProblem& problem,
                               PartitionState& state,
                               std::span<const MoveProposal> proposals,
                               std::vector<VertexId>& kept_moves,
                               std::vector<std::uint8_t>* moved_scratch) {
  const Hypergraph& g = *problem.graph;
  CommitOutcome out;
  out.cut_before = state.cut();
  kept_moves.clear();

  std::vector<std::uint8_t> local_moved;
  std::vector<std::uint8_t>& moved =
      moved_scratch != nullptr ? *moved_scratch : local_moved;
  if (moved.size() != g.num_vertices()) moved.assign(g.num_vertices(), 0);  // hot-path: allow(per-round reset of reused scratch)

  const BalanceConstraint& balance = problem.balance;
  auto imbalance_of = [&balance](Weight w0) -> Weight {
    if (w0 < balance.min_part()) return balance.min_part() - w0;
    if (w0 > balance.max_part()) return w0 - balance.max_part();
    return 0;
  };

  // Prefix scan: apply every legal move in proposal order, tracking the
  // (imbalance, cut) key after each one.  kept_moves doubles as the
  // applied-move log until the rollback truncates it to the best prefix.
  Weight best_imb = imbalance_of(state.part_weight(0));
  Weight best_cut = state.cut();
  std::size_t best_len = 0;
  for (const MoveProposal& p : proposals) {
    const VertexId v = p.v;
    if (v >= g.num_vertices() || problem.is_fixed(v) || moved[v] != 0) {
      ++out.rejected_other;
      continue;
    }
    const Weight w = g.vertex_weight(v);
    const Weight w0 = state.part_weight(0);
    const PartId from = state.part(v);
    bool legal = balance.move_legal(w0, w, from);
    if (!legal) {
      // Same recovery rule as the serial engine: from an infeasible
      // state, any move that strictly shrinks the violation is allowed.
      const Weight new_w0 = (from == 0) ? w0 - w : w0 + w;
      legal = imbalance_of(new_w0) < imbalance_of(w0);
    }
    if (!legal) {
      ++out.rejected_balance;
      continue;
    }
    state.move(v);
    moved[v] = 1;
    kept_moves.push_back(v);  // hot-path: allow(reused commit log, growth amortized)
    ++out.applied;
    const Weight imb = imbalance_of(state.part_weight(0));
    const Weight cut = state.cut();
    // Strictly-better keeps the earliest best prefix (BestChoice::kFirst
    // semantics), which also guarantees round-loop termination: a
    // non-empty kept prefix always strictly improves the key.
    if (imb < best_imb || (imb == best_imb && cut < best_cut)) {
      best_imb = imb;
      best_cut = cut;
      best_len = kept_moves.size();
    }
  }

  // Roll back the suffix beyond the best prefix (reverse order; each
  // rollback is just the opposite move).
  for (std::size_t i = kept_moves.size(); i > best_len; --i) {
    state.move(kept_moves[i - 1]);
  }
  for (const VertexId v : kept_moves) moved[v] = 0;  // scratch back to zero
  kept_moves.resize(best_len);  // hot-path: allow(shrink only, never reallocates)
  out.kept = best_len;
  out.cut_after = state.cut();
  return out;
}

ParallelFmRefiner::ParallelFmRefiner(const PartitionProblem& problem,
                                     FmConfig config, ThreadPool* /*pool*/)
    : problem_(&problem),
      config_(std::move(config)),
      audit_(AuditConfig::resolve(config_.audit)) {
  const Hypergraph& g = *problem_->graph;
  const std::size_t n = g.num_vertices();
  // 32-bit id contract: the VertexId sweep below cannot wrap.
  VP_CHECK(n <= kInvalidVertex, "vertex count " << n << " fits VertexId");
  gain_.assign(n, 0);
  dirty_.assign(n, 1);
  movable_.assign(n, 1);
  for (VertexId v = 0; v < n; ++v) {
    if (problem_->is_fixed(v)) {
      movable_[v] = 0;
    } else if (config_.exclude_oversized &&
               g.vertex_weight(v) > problem_->balance.window()) {
      // Corking fix (Sec. 2.3): a cell heavier than the balance window
      // can never legally move between two feasible solutions.
      movable_[v] = 0;
    }
  }
  moved_scratch_.assign(n, 0);
}

Weight ParallelFmRefiner::imbalance(Weight w0) const {
  const BalanceConstraint& b = problem_->balance;
  if (w0 < b.min_part()) return b.min_part() - w0;
  if (w0 > b.max_part()) return w0 - b.max_part();
  return 0;
}

// hot-path: root
std::size_t ParallelFmRefiner::freeze_gains(const PartitionState& state) {
  const std::size_t n = problem_->graph->num_vertices();
  std::size_t recomputed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (dirty_[v] == 0 || movable_[v] == 0) continue;
    gain_[v] = state.gain(static_cast<VertexId>(v));
    dirty_[v] = 0;
    ++recomputed;
  }
  return recomputed;
}

// hot-path: root
void ParallelFmRefiner::propose(const PartitionState& state) {
  const std::size_t n = problem_->graph->num_vertices();
  const Weight w0 = state.part_weight(0);
  const bool infeasible = imbalance(w0) > 0;
  // From an infeasible projection the positive-gain filter would starve
  // the recovery rule, so propose every vertex of the overloaded side
  // and let the commit's exact (imbalance, cut) key sort it out.
  const PartId overloaded =
      w0 > problem_->balance.max_part() ? PartId{0} : PartId{1};

  proposals_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (movable_[v] == 0) continue;
    const VertexId vid = static_cast<VertexId>(v);
    if (infeasible ? state.part(vid) != overloaded : gain_[v] <= 0) {
      continue;
    }
    proposals_.push_back(MoveProposal{vid, gain_[v]});  // hot-path: allow(reused proposal buffer, growth amortized)
  }
  // Collected in ascending id order, so a stable sort by gain
  // descending yields the (gain desc, id asc) commit order.
  std::stable_sort(proposals_.begin(), proposals_.end(),  // hot-path: allow(proposal order, once per round)
                   [](const MoveProposal& a, const MoveProposal& b) {
                     return a.gain > b.gain;
                   });
}

// hot-path: root
void ParallelFmRefiner::mark_dirty(std::span<const VertexId> kept) {
  const Hypergraph& g = *problem_->graph;
  for (const VertexId v : kept) {
    dirty_[v] = 1;  // covers degree-0 vertices too
    for (const EdgeId e : g.incident_edges(v)) {
      for (const VertexId u : g.pins(e)) dirty_[u] = 1;
    }
  }
}

ParallelFmResult ParallelFmRefiner::refine(PartitionState& state, Rng& rng) {
  (void)rng;  // part of the engine interface; rounds are randomness-free
  VP_CHECK(&state.graph() == problem_->graph,
           "ParallelFmRefiner: state bound to a different hypergraph");
  ParallelFmResult result;
  result.initial_cut = state.cut();

  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});

  const std::size_t max_rounds =
      config_.max_passes > 0 ? static_cast<std::size_t>(config_.max_passes)
                             : static_cast<std::size_t>(-1);
  while (result.rounds < max_rounds) {
    ParallelRoundStats stats;
    stats.cut_before = state.cut();
    stats.gains_recomputed = freeze_gains(state);
    propose(state);
    stats.proposals = proposals_.size();

    const CommitOutcome outcome =
        commit_proposals(*problem_, state, proposals_, kept_moves_,
                         &moved_scratch_);
    stats.applied = outcome.applied;
    stats.kept = outcome.kept;
    stats.rejected_balance = outcome.rejected_balance;
    stats.cut_after = outcome.cut_after;

    if (audit_.enabled()) state.audit();

    ++result.rounds;
    result.total_moves += outcome.kept;
    result.round_stats.push_back(stats);
    if (config_.record_trace) result.round_traces.push_back(kept_moves_);
    if (outcome.kept == 0) break;
    mark_dirty(kept_moves_);
  }

  result.final_cut = state.cut();
  return result;
}

}  // namespace vlsipart
