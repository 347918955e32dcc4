// Hypergraph contraction: collapse vertex clusters into coarse vertices.
//
// This is the workhorse of multilevel coarsening (Sec. 2.2's "ML" engines
// and the hMetis-like partitioner of Tables 4-5).  Given a cluster map
// (vertex -> cluster id), contraction:
//   * sums vertex weights per cluster,
//   * rewrites each net onto cluster ids, dropping nets that collapse to a
//     single cluster,
//   * merges parallel nets (identical pin sets) by summing their weights.
//
// The implementation is allocation-free when the caller threads a
// ContractionMemory through repeated calls (V-cycles, multistart ML):
// cluster renumbering uses a dense array (cluster ids are vertex ids, so
// they are bounded by num_vertices), rewritten nets live in one flat
// array indexed like the fine pins, and parallel-net detection uses a
// flat open-addressing table — no per-call unordered_map or per-net
// vector churn.  The per-net rewrite (map, sort, dedup, hash) is
// independent across nets and may be sharded over a ThreadPool; the
// renumbering and the merge stay serial and in net order, so the result
// is the same with or without a pool.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/util/thread_pool.h"

namespace vlsipart {

/// Reusable scratch buffers for contract().  All buffers grow to the
/// high-water mark of the instances seen and are reused across calls.
/// Not thread-safe: use one per thread (parallel ML multistart gives each
/// worker its own engine clone, hence its own memory).
struct ContractionMemory {
  /// cluster id -> dense coarse id (kInvalidVertex = unseen).
  std::vector<VertexId> renumber;
  std::vector<Weight> cluster_weight;
  /// Sorted, dedup'd coarse pins of every fine net, stored at the net's
  /// fine pin offset (only the first net_size[e] entries are live).
  std::vector<VertexId> net_pins;
  std::vector<std::uint32_t> net_size;
  std::vector<std::uint64_t> net_hash;
  /// A surviving net; its pins are net_pins[pins_begin, +pins_size).
  struct PendingNet {
    std::size_t pins_begin = 0;
    std::uint32_t pins_size = 0;
    Weight weight = 0;
  };
  std::vector<PendingNet> pending;
  /// Open-addressing (linear probing) table over `pending` indices used
  /// to find an identical surviving net; sized to a power of two with
  /// load factor <= 0.5.
  std::vector<std::uint32_t> slots;
};

struct ContractionResult {
  Hypergraph coarse;
  /// fine vertex -> coarse vertex (the normalized cluster map).
  std::vector<VertexId> fine_to_coarse;
  std::size_t num_coarse_vertices = 0;
  /// Nets dropped because all pins landed in one cluster.
  std::size_t nets_collapsed = 0;
  /// Nets merged into an identical surviving net.
  std::size_t nets_merged = 0;
};

/// Contract `h` according to `cluster_of` (size num_vertices; cluster ids
/// need not be dense — they are renumbered in first-appearance order, but
/// must be < num_vertices).  Edge weights of merged parallel nets are
/// summed so that coarse cut equals fine cut for any partition that
/// respects the clusters.  `memory` (optional) supplies reusable scratch;
/// passing nullptr uses call-local buffers.  `pool` (optional) shards the
/// per-net rewrite; the result does not depend on it.
ContractionResult contract(const Hypergraph& h,
                           const std::vector<VertexId>& cluster_of,
                           ContractionMemory* memory = nullptr,
                           ThreadPool* pool = nullptr);

/// Project a coarse 2-way assignment back onto the fine hypergraph.
std::vector<PartId> project_partition(
    const std::vector<VertexId>& fine_to_coarse,
    const std::vector<PartId>& coarse_parts);

}  // namespace vlsipart
