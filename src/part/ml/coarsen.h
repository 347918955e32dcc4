// Multilevel coarsening: heavy-edge first-choice clustering.
//
// The "ML" engines of Table 1 and the hMetis-1.5 stand-in of Tables 4-5
// build a hierarchy of successively coarser hypergraphs [25][26].
// Vertices are visited in random order; each joins the neighboring
// cluster with the highest heavy-edge rating
//     rating(u, C) = sum over shared nets e of  w(e) / (|e| - 1)
// subject to a maximum cluster weight.  Fixed vertices are never
// clustered (they remain singletons so fixed constraints project
// losslessly through every level).
#pragma once

#include <vector>

#include "src/hypergraph/contraction.h"
#include "src/hypergraph/hypergraph.h"
#include "src/util/rng.h"

namespace vlsipart {

/// Clustering discipline for one coarsening level [25][26]:
///   kFirstChoice — a visited vertex may join an existing cluster of any
///     size (subject to the weight cap); aggressive, fewer levels.
///   kHeavyEdgeMatching — clusters are vertex *pairs* only (classic
///     matching); conservative, more levels.
enum class CoarsenScheme : std::uint8_t {
  kFirstChoice = 0,
  kHeavyEdgeMatching = 1,
};

struct CoarsenConfig {
  /// Matching is the default: on this testbed it consistently beats
  /// first-choice on cut (see bench_clustering) at ~2x the coarsening
  /// time — and Sec. 2.2 demands the strongest available testbed.
  CoarsenScheme scheme = CoarsenScheme::kHeavyEdgeMatching;
  /// Stop when the coarsest level has at most this many vertices.
  std::size_t coarsen_to = 120;
  /// Abort coarsening when a level shrinks by less than this factor.
  double min_reduction = 0.95;
  /// Clusters never exceed this weight (0 = derive from total weight).
  Weight max_cluster_weight = 0;
  /// Nets larger than this do not contribute to ratings (huge clock-
  /// class nets carry no clustering signal and are expensive to scan).
  std::size_t max_rated_net_size = 64;
  /// Worker threads for coarsening.  1 = the serial random-order
  /// coarsener below (bit-identical to historical behavior); > 1 selects
  /// the deterministic sub-round coarsener (parallel_coarsen.h): 8
  /// hash-assigned sub-rounds, each rated in parallel against the
  /// clustering so far and resolved in ascending id order, then a
  /// contraction with a sharded per-net rewrite (levels under 2048
  /// vertices run inline).  Its hierarchy is identical for every thread
  /// count, and ctest gates keep its coarsest level within 1.5x of the
  /// serial one and its ML cuts not significantly worse.
  std::size_t coarsen_threads = 1;
  /// If true, only merge vertices currently in the same part — the
  /// restricted coarsening used by V-cycling [25][26].  Not a CLI knob:
  /// vcycle() sets it internally when re-coarsening around an existing
  /// solution, and flipping it from a flag would silently build
  /// hierarchies inconsistent with that solution.
  // det-lint: allow(knob-completeness)
  bool respect_parts = false;
};

struct CoarsenLevel {
  Hypergraph coarse;
  std::vector<VertexId> fine_to_coarse;
};

/// One clustering + contraction step.  `fixed` (may be empty) marks
/// vertices that must stay singletons; `parts` is consulted only when
/// config.respect_parts is set.  `memory` (optional) supplies reusable
/// contraction scratch so repeated coarsening (V-cycles, multistart ML)
/// stays allocation-free.
CoarsenLevel coarsen_once(const Hypergraph& h, const CoarsenConfig& config,
                          const std::vector<PartId>& fixed,
                          const std::vector<PartId>& parts, Rng& rng,
                          ContractionMemory* memory = nullptr);

/// Full hierarchy: repeatedly coarsen until coarsen_to or stall.
/// levels[0] maps the input graph to levels[0].coarse, etc.
std::vector<CoarsenLevel> build_hierarchy(const Hypergraph& h,
                                          const CoarsenConfig& config,
                                          const std::vector<PartId>& fixed,
                                          const std::vector<PartId>& parts,
                                          Rng& rng,
                                          ContractionMemory* memory = nullptr);

/// Push fixed-vertex constraints one level down: a coarse vertex is fixed
/// to p iff it contains a fine vertex fixed to p (singletons by
/// construction, so no conflicts are possible).
std::vector<PartId> project_fixed(const std::vector<PartId>& fine_fixed,
                                  const std::vector<VertexId>& fine_to_coarse,
                                  std::size_t num_coarse);

}  // namespace vlsipart
