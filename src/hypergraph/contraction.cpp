#include "src/hypergraph/contraction.h"

#include <algorithm>
#include <limits>
#include <span>

#include "src/util/checked_narrow.h"
#include "src/util/logging.h"
#include "src/util/shard.h"

namespace vlsipart {
namespace {

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

// 64-bit FNV-1a over a pin sequence, used to bucket candidate parallel
// nets in the open-addressing table.
std::uint64_t hash_pins(std::span<const VertexId> pins) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const VertexId v : pins) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ContractionResult contract(const Hypergraph& h,
                           const std::vector<VertexId>& cluster_of,
                           ContractionMemory* memory, ThreadPool* pool) {
  VP_CHECK(cluster_of.size() == h.num_vertices(),
           "cluster map covers all vertices");

  ContractionMemory local;
  ContractionMemory& mem = memory != nullptr ? *memory : local;
  const std::size_t n = cluster_of.size();

  ContractionResult result;

  // Renumber cluster ids densely in order of first appearance so the
  // coarse vertex numbering is deterministic.  Cluster ids are vertex ids
  // (representatives), so a dense array replaces the historical hash map;
  // an out-of-range id is a hard error rather than a silently created
  // phantom coarse vertex.
  mem.renumber.assign(n, kInvalidVertex);
  result.fine_to_coarse.resize(n);
  VertexId next_coarse = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const VertexId c = cluster_of[v];
    VP_CHECK(c < n, "cluster id " << c << " of vertex " << v
                                  << " exceeds num_vertices " << n);
    if (mem.renumber[c] == kInvalidVertex) {
      mem.renumber[c] = next_coarse++;
    }
    result.fine_to_coarse[v] = mem.renumber[c];
  }
  const std::size_t nc = next_coarse;
  result.num_coarse_vertices = nc;

  HypergraphBuilder builder(nc);
  {
    mem.cluster_weight.assign(nc, 0);
    for (std::size_t v = 0; v < n; ++v) {
      mem.cluster_weight[result.fine_to_coarse[v]] +=
          h.vertex_weight(static_cast<VertexId>(v));
    }
    for (std::size_t c = 0; c < nc; ++c) {
      builder.set_vertex_weight(static_cast<VertexId>(c),
                                mem.cluster_weight[c]);
    }
  }

  // Rewrite each net onto coarse ids: its sorted, dedup'd coarse pins
  // land at the net's own fine pin offset in net_pins, so nets are
  // independent and `pool` may shard them; the output does not depend
  // on the sharding.
  const std::size_t m = h.num_edges();
  mem.net_pins.resize(h.num_pins());
  mem.net_size.resize(m);
  mem.net_hash.resize(m);
  const VertexId* const fine_pins = m > 0 ? h.pins(0).data() : nullptr;
  auto rewrite = [&](std::size_t begin, std::size_t end) {
    for (std::size_t e = begin; e < end; ++e) {
      const std::span<const VertexId> pins = h.pins(static_cast<EdgeId>(e));
      VertexId* const out = mem.net_pins.data() + (pins.data() - fine_pins);
      for (std::size_t i = 0; i < pins.size(); ++i) {
        out[i] = result.fine_to_coarse[pins[i]];
      }
      std::sort(out, out + pins.size());
      const std::size_t k =
          static_cast<std::size_t>(std::unique(out, out + pins.size()) - out);
      mem.net_size[e] = vp::checked_narrow<std::uint32_t>(k);
      mem.net_hash[e] = hash_pins({out, k});
    }
  };
  const std::size_t shards =
      pool != nullptr ? std::min(pool->num_threads(), m) : 1;
  if (shards > 1) {
    pool->parallel_for_dynamic(shards, [&](std::size_t shard) {
      const ShardRange r = shard_range(m, shards, shard);
      rewrite(r.begin, r.end);
    });
  } else {
    rewrite(0, m);
  }

  // Merge parallel nets (identical pin sets), in net order, via a flat
  // linear-probing table over the pending-net list.  At most one pending
  // net exists per distinct pin set at any time, so probing by exact pin
  // comparison reproduces the historical hash-map-of-lists merge exactly.
  VP_CHECK(m < kEmptySlot, "edge count fits table entries");
  std::size_t table_size = 16;
  while (table_size < 2 * m) table_size <<= 1;
  mem.slots.assign(table_size, kEmptySlot);
  const std::size_t mask = table_size - 1;
  mem.pending.clear();

  for (std::size_t e = 0; e < m; ++e) {
    const std::uint32_t size = mem.net_size[e];
    if (size < 2) {
      ++result.nets_collapsed;
      continue;
    }
    const std::size_t begin =
        static_cast<std::size_t>(h.pins(static_cast<EdgeId>(e)).data() -
                                 fine_pins);
    const VertexId* const pins = mem.net_pins.data() + begin;
    const Weight ew = h.edge_weight(static_cast<EdgeId>(e));
    std::size_t slot = static_cast<std::size_t>(mem.net_hash[e]) & mask;
    while (true) {
      const std::uint32_t idx = mem.slots[slot];
      if (idx == kEmptySlot) {
        // The pending-net count is bounded by the fine edge count, which
        // the id contract keeps below 2^32.
        mem.slots[slot] = vp::checked_narrow<std::uint32_t>(mem.pending.size());
        mem.pending.push_back({begin, size, ew});
        break;
      }
      ContractionMemory::PendingNet& net = mem.pending[idx];
      if (net.pins_size == size &&
          std::equal(pins, pins + size,
                     mem.net_pins.begin() +
                         static_cast<std::ptrdiff_t>(net.pins_begin))) {
        net.weight += ew;
        ++result.nets_merged;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }

  for (const ContractionMemory::PendingNet& net : mem.pending) {
    builder.add_edge(
        std::span<const VertexId>(mem.net_pins.data() + net.pins_begin,
                                  net.pins_size),
        net.weight);
  }
  result.coarse = builder.finalize(h.name() + ".coarse");
  return result;
}

std::vector<PartId> project_partition(
    const std::vector<VertexId>& fine_to_coarse,
    const std::vector<PartId>& coarse_parts) {
  std::vector<PartId> fine(fine_to_coarse.size(), kNoPart);
  for (std::size_t v = 0; v < fine_to_coarse.size(); ++v) {
    VP_CHECK(fine_to_coarse[v] < coarse_parts.size(),
             "coarse id in range during projection");
    fine[v] = coarse_parts[fine_to_coarse[v]];
  }
  return fine;
}

}  // namespace vlsipart
