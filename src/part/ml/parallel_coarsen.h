// Deterministic sub-round heavy-edge coarsening.
//
// The serial coarsener (coarsen.h) grows clusters sequentially in a
// random visit order — each decision sees the clusters its predecessors
// formed, so it cannot be parallelized without changing results.  This
// coarsener keeps most of that "see the clustering so far" property
// while making every decision a pure function of the graph, after
// "Deterministic Parallel High-Quality Hypergraph Partitioning": a fixed
// integer hash of the vertex id assigns every vertex to one of 8
// sub-rounds, and the level runs the sub-rounds in order, each in two
// phases:
//
//   1. RATE — every still-unclustered member v of the sub-round
//      computes its preferred target: the highest heavy-edge rating
//      sum(w(e) / (|e|-1)) over shared nets no larger than
//      max_rated_net_size, ties to the lowest id, among targets that fit
//      max_cluster_weight (and, under respect_parts, share v's part).
//      Targets are rated against the clustering left by EARLIER
//      sub-rounds, which no member of this phase changes:
//        * kHeavyEdgeMatching rates still-free singletons;
//        * kFirstChoice rates any cluster formed so far.
//      Members are therefore independent of one another, so the phase
//      could be split across threads without changing a preference.
//   2. RESOLVE (ascending id) — preferences become clusters:
//        * kHeavyEdgeMatching: v pairs with its target if both are still
//          unmatched (the lower id leads);
//        * kFirstChoice: v, if it is still a singleton nobody joined in
//          this sub-round, joins the target's current cluster when the
//          cluster weight plus w(v) still fits the cap.
//
// Both phases and the contraction that ends the level run on the
// calling thread.  Rating and rewriting on a ThreadPool paid off only
// on levels of ~50k vertices and more, and not reliably, on a 4-vCPU
// host; it lost on smaller levels, and end to end the inline version
// used 31% less CPU and 13% less wall time (DESIGN.md §7.1).
// coarsen_threads > 1 selects this algorithm; its value does not change
// the work or the result.
//
// The result differs from the serial coarsener's (no random visit order)
// but matches its quality: ctest gates hold the coarsest level within
// 1.5x of the serial one for both schemes, and ML cuts over 10 seeds
// not significantly worse by a Mann-Whitney U test
// (ParallelCoarsen.CoarsestLevelWithinBoundOfSerial,
// ParallelCoarsen.MlCutNotSignificantlyWorseThanSerial).
// coarsen_threads=1 in MlConfig selects the serial path, > 1 this one.
#pragma once

#include "src/part/ml/coarsen.h"

namespace vlsipart {

class ThreadPool;

/// One sub-round clustering + contraction step; the deterministic
/// counterpart of coarsen_once (no Rng: nothing is randomized).
CoarsenLevel parallel_coarsen_once(const Hypergraph& h,
                                   const CoarsenConfig& config,
                                   const std::vector<PartId>& fixed,
                                   const std::vector<PartId>& parts,
                                   ContractionMemory* memory = nullptr);

/// Full hierarchy via parallel_coarsen_once; same stall/projection rules
/// as build_hierarchy.  `pool` is unused (every level runs on the
/// calling thread); it stays for source compatibility with existing
/// callers.
std::vector<CoarsenLevel> parallel_build_hierarchy(
    const Hypergraph& h, const CoarsenConfig& config,
    const std::vector<PartId>& fixed, const std::vector<PartId>& parts,
    ThreadPool* pool, ContractionMemory* memory = nullptr);

}  // namespace vlsipart
