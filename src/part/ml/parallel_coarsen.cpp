#include "src/part/ml/parallel_coarsen.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace vlsipart {
namespace {

/// Sub-rounds per level.  More sub-rounds let later vertices see more
/// of the clustering (closer to the serial sweep) at the price of more
/// barriers; 8 already brings the coarsest level within a few percent
/// of the serial coarsener's.
constexpr std::size_t kSubRounds = 8;

/// Fixed sub-round of a vertex: a splitmix64 finalizer of the id, so
/// sub-rounds interleave across the id space (neighbors in the CSR
/// order rarely share one) and never depend on the thread count.
std::size_t sub_round_of(VertexId v) {
  std::uint64_t x = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % kSubRounds);
}

// Same derivation as the serial coarsener (coarsen.cpp): never below the
// largest single vertex, roughly total/coarsen_to otherwise.
Weight parallel_max_cluster_weight(const Hypergraph& h,
                                   const CoarsenConfig& config) {
  if (config.max_cluster_weight > 0) return config.max_cluster_weight;
  const Weight cap = std::max<Weight>(
      1, h.total_vertex_weight() /
             static_cast<Weight>(std::max<std::size_t>(config.coarsen_to, 32)));
  return std::max(cap, h.max_vertex_weight());
}

}  // namespace

CoarsenLevel parallel_coarsen_once(const Hypergraph& h,
                                   const CoarsenConfig& config,
                                   const std::vector<PartId>& fixed,
                                   const std::vector<PartId>& parts,
                                   ContractionMemory* memory) {
  const std::size_t n = h.num_vertices();
  const Weight max_cw = parallel_max_cluster_weight(h, config);
  const bool matching = config.scheme == CoarsenScheme::kHeavyEdgeMatching;

  auto is_fixed = [&fixed](VertexId v) {
    return !fixed.empty() && fixed[v] != kNoPart;
  };
  const bool check_parts = config.respect_parts && !parts.empty();

  // Bucket the ids by sub-round (counting sort, so every bucket lists
  // its members in ascending id order).
  std::vector<std::size_t> round_begin(kSubRounds + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    ++round_begin[sub_round_of(static_cast<VertexId>(v)) + 1];
  }
  std::partial_sum(round_begin.begin(), round_begin.end(),
                   round_begin.begin());
  std::vector<VertexId> members(n);
  {
    std::vector<std::size_t> cursor(round_begin.begin(),
                                    round_begin.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      members[cursor[sub_round_of(static_cast<VertexId>(v))]++] =
          static_cast<VertexId>(v);
    }
  }

  // The clustering so far.  cluster_of[] stays flat (every member points
  // at its leader): a vertex that joins is a singleton nobody joined, and
  // a leader that has been joined never joins anything itself.
  // clustered[v] marks a vertex that is no longer a free singleton.
  std::vector<VertexId> cluster_of(n);
  std::iota(cluster_of.begin(), cluster_of.end(), 0);
  std::vector<Weight> cluster_weight(n);
  for (std::size_t v = 0; v < n; ++v) {
    cluster_weight[v] = h.vertex_weight(static_cast<VertexId>(v));
  }
  std::vector<std::uint8_t> clustered(n, 0);

  // pref[i]: preferred target of the current sub-round's i-th member.
  std::vector<VertexId> pref(n, kInvalidVertex);
  // Scatter-accumulate scratch of the rating phase (all zero between
  // members).
  std::vector<double> rating(n, 0.0);
  std::vector<VertexId> touched;

  // RATE one member against the clustering left by earlier sub-rounds,
  // which stays fixed for the whole phase.  The accumulation order over
  // v's nets and pins is fixed by the CSR layout, so the scores — and
  // hence the choice — depend on nothing but the graph and that
  // clustering.
  auto rate = [&](VertexId v) {
    if (clustered[v] || is_fixed(v)) return kInvalidVertex;
    touched.clear();
    for (const EdgeId e : h.incident_edges(v)) {
      const std::size_t size = h.edge_size(e);
      if (size < 2 || size > config.max_rated_net_size) continue;
      const double score = static_cast<double>(h.edge_weight(e)) /
                           static_cast<double>(size - 1);
      for (const VertexId u : h.pins(e)) {
        if (u == v || is_fixed(u)) continue;
        // Matching pairs free singletons only; first-choice may join
        // any cluster formed so far.
        if (matching && clustered[u]) continue;
        if (check_parts && parts[u] != parts[v]) continue;
        const VertexId c = cluster_of[u];
        if (rating[c] == 0.0) touched.push_back(c);
        rating[c] += score;
      }
    }
    const Weight wv = h.vertex_weight(v);
    VertexId best = kInvalidVertex;
    double best_rating = 0.0;
    for (const VertexId c : touched) {
      // Highest rating among clusters that fit the cap; ties go to the
      // lowest id.
      if (cluster_weight[c] + wv <= max_cw &&
          (rating[c] > best_rating ||
           (rating[c] == best_rating && best != kInvalidVertex && c < best))) {
        best = c;
        best_rating = rating[c];
      }
    }
    for (const VertexId c : touched) rating[c] = 0.0;
    return best;
  };

  for (std::size_t r = 0; r < kSubRounds; ++r) {
    const VertexId* const round = members.data() + round_begin[r];
    const std::size_t round_size = round_begin[r + 1] - round_begin[r];
    // RATE every member before any resolves: a preference never sees
    // a cluster formed in its own sub-round.
    for (std::size_t i = 0; i < round_size; ++i) pref[i] = rate(round[i]);

    // RESOLVE in ascending id order, fixed by vertex ids.
    for (std::size_t i = 0; i < round_size; ++i) {
      const VertexId v = round[i];
      const VertexId target = pref[i];
      if (target == kInvalidVertex || clustered[v]) continue;
      if (matching) {
        // Pair with the preferred partner if an earlier member of this
        // sub-round has not taken it; the lower id leads.
        if (clustered[target]) continue;
        const VertexId leader = std::min(v, target);
        const VertexId other = std::max(v, target);
        cluster_of[other] = leader;
        cluster_weight[leader] += cluster_weight[other];
        clustered[leader] = 1;
        clustered[other] = 1;
      } else {
        // Join the target's cluster as it stands now (the target may
        // itself have joined one earlier in this sub-round; cluster_of[]
        // is flat, so one hop reaches the leader) if it still fits the
        // cap.
        const VertexId c = cluster_of[target];
        if (cluster_weight[c] + cluster_weight[v] > max_cw) continue;
        cluster_of[v] = c;
        cluster_weight[c] += cluster_weight[v];
        clustered[v] = 1;
        clustered[c] = 1;
      }
    }
  }

  ContractionResult contraction = contract(h, cluster_of, memory);
  CoarsenLevel level;
  level.coarse = std::move(contraction.coarse);
  level.fine_to_coarse = std::move(contraction.fine_to_coarse);
  return level;
}

std::vector<CoarsenLevel> parallel_build_hierarchy(
    const Hypergraph& h, const CoarsenConfig& config,
    const std::vector<PartId>& fixed, const std::vector<PartId>& parts,
    ThreadPool* /*pool*/, ContractionMemory* memory) {
  std::vector<CoarsenLevel> levels;
  const Hypergraph* current = &h;
  std::vector<PartId> current_fixed = fixed;
  std::vector<PartId> current_parts = parts;

  while (current->num_vertices() > config.coarsen_to) {
    CoarsenLevel level = parallel_coarsen_once(*current, config, current_fixed,
                                               current_parts, memory);
    const double reduction =
        static_cast<double>(level.coarse.num_vertices()) /
        static_cast<double>(current->num_vertices());
    if (reduction > config.min_reduction) break;  // stalled
    if (!current_fixed.empty()) {
      current_fixed = project_fixed(current_fixed, level.fine_to_coarse,
                                    level.coarse.num_vertices());
    }
    if (config.respect_parts && !current_parts.empty()) {
      std::vector<PartId> coarse_parts(level.coarse.num_vertices(), kNoPart);
      for (std::size_t v = 0; v < current_parts.size(); ++v) {
        coarse_parts[level.fine_to_coarse[v]] = current_parts[v];
      }
      current_parts = std::move(coarse_parts);
    }
    levels.push_back(std::move(level));
    current = &levels.back().coarse;
  }
  return levels;
}

}  // namespace vlsipart
