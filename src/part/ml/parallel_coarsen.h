// Deterministic parallel heavy-edge coarsening.
//
// The serial coarsener (coarsen.h) grows clusters sequentially in a
// random visit order — each decision sees the clusters its predecessors
// formed, so it cannot be parallelized without changing results.  This
// coarsener keeps most of that "see the clustering so far" property
// while staying deterministic, after "Deterministic Parallel
// High-Quality Hypergraph Partitioning": a fixed integer hash of the
// vertex id assigns every vertex to one of 8 sub-rounds, and the level
// runs the sub-rounds in order, each in two phases with a barrier:
//
//   1. RATE (parallel) — every still-unclustered member v of the
//      sub-round computes its preferred target: the highest heavy-edge
//      rating sum(w(e) / (|e|-1)) over shared nets no larger than
//      max_rated_net_size, ties to the lowest id, among targets that fit
//      max_cluster_weight (and, under respect_parts, share v's part).
//      Targets are rated against the clustering left by EARLIER
//      sub-rounds, which is read-only during the phase:
//        * kHeavyEdgeMatching rates still-free singletons;
//        * kFirstChoice rates any cluster formed so far.
//      Vertex-range shards race on nothing, so the preferences are a
//      pure function of the graph and the clustering so far.
//   2. RESOLVE (serial, ascending id) — preferences become clusters:
//        * kHeavyEdgeMatching: v pairs with its target if both are still
//          unmatched (the lower id leads);
//        * kFirstChoice: v, if it is still a singleton nobody joined in
//          this sub-round, joins the target's current cluster when the
//          cluster weight plus w(v) still fits the cap.
//      Its order is fixed by vertex ids, not threads.
//
// The contraction that ends the level shards its per-net rewrite over
// the same pool (contract() in src/hypergraph/contraction.h); its
// renumbering and parallel-net merge stay serial.  A level uses the
// pool only when it has at least 2048 vertices (sub-rounds of about 256
// members); smaller levels run inline, because the pool hand-off would
// cost more than the work.  Per-shard rating scratch is allocated once
// per level.  None of these choices changes a result: the hierarchy is identical for every thread count and for a
// null pool (ParallelCoarsen.BitIdenticalAcrossThreadCounts checks
// 1/2/4/8 threads).
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
#include "src/util/thread_pool.h"

namespace vlsipart {

/// One parallel clustering + contraction step; the deterministic
/// counterpart of coarsen_once (no Rng: nothing is randomized).  `pool`
/// may be null (runs inline, same result).
CoarsenLevel parallel_coarsen_once(const Hypergraph& h,
                                   const CoarsenConfig& config,
                                   const std::vector<PartId>& fixed,
                                   const std::vector<PartId>& parts,
                                   ThreadPool* pool,
                                   ContractionMemory* memory = nullptr);

/// Full hierarchy via parallel_coarsen_once; same stall/projection rules
/// as build_hierarchy.
std::vector<CoarsenLevel> parallel_build_hierarchy(
    const Hypergraph& h, const CoarsenConfig& config,
    const std::vector<PartId>& fixed, const std::vector<PartId>& parts,
    ThreadPool* pool, ContractionMemory* memory = nullptr);

}  // namespace vlsipart
