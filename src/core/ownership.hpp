// Vertex -> computing-actor ownership map (message routing).
//
// The paper routes a message to "the computing actor that owns the
// destination" without fixing the map; the original implementation here
// used dst % num_computers. Modulo interleaves owners at single-vertex
// granularity, so concurrently-applying computers write *adjacent* slots
// of the value file and adjacent bytes of latest_column — one cache line
// (8 interleaved slot pairs, 64 latest-column bytes) is shared by every
// computer at once, and the apply plane ping-pongs lines between cores.
//
// Range ownership (the default, GPSA_ROUTING=range) derives contiguous
// per-computer vertex slices from the same Interval machinery the
// dispatchers partition with (§V.A), so each computer owns one contiguous
// run of the value file and of latest_column: no cross-computer line
// sharing, and batches radix-staged in ascending destination order
// (dispatcher.cpp) apply as near-sequential writes within the slice.
//
// GPSA_ROUTING=mod keeps the legacy interleaved map as the ablation
// baseline (bench_ablation_message_plane measures the two against each
// other). The cluster engine uses the same map for its per-node store
// placement, replacing its private Topology class.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "util/status.hpp"

namespace gpsa {

enum class MessageRouting : std::uint8_t { kMod, kRange };

const char* message_routing_name(MessageRouting routing);
Result<MessageRouting> parse_message_routing(std::string_view name);

/// Reads GPSA_ROUTING ("mod" | "range") when `requested` is unset;
/// defaults to kRange for unset or unrecognized values.
MessageRouting resolve_message_routing(std::optional<MessageRouting> requested);

class OwnerMap {
 public:
  /// Legacy interleaved map: owner_of(v) = v % parts.
  static OwnerMap make_mod(VertexId num_vertices, unsigned parts);

  /// Contiguous ranges split at `boundaries` = [0, b1, ..., num_vertices]
  /// (ascending, parts = boundaries.size() - 1, all >= 1 required).
  static OwnerMap make_range(std::vector<VertexId> boundaries);

  /// Ranges taken from interval partitions (make_intervals /
  /// make_intervals_from_degrees). The intervals cover [0, n) in order,
  /// so parts() == intervals.size() — possibly fewer than requested on
  /// tiny graphs, and the engine spawns exactly parts() computers.
  static OwnerMap make_range_from_intervals(
      const std::vector<Interval>& intervals);

  MessageRouting routing() const { return routing_; }
  unsigned parts() const { return parts_; }
  VertexId num_vertices() const { return num_vertices_; }

  unsigned owner_of(VertexId v) const {
    if (routing_ == MessageRouting::kMod) {
      return static_cast<unsigned>(v % parts_);
    }
    // Dispatchers call this once per generated message with skewed,
    // data-dependent destinations; a binary search here mispredicts its
    // way through the hot loop. The block table answers in one load for
    // any block that no boundary crosses, and the walk below advances at
    // most once per boundary inside v's block.
    unsigned owner = block_table_[v >> block_shift_];
    while (boundaries_[owner + 1] <= v) {
      ++owner;
    }
    return owner;
  }

  /// Dense position of v inside `owner`'s local slot range. Ascending in
  /// v within an owner for both routings (mod strides, range offsets), so
  /// the radix bins built over it stage batches in ascending-dst order.
  VertexId local_index(VertexId v, unsigned owner) const {
    if (routing_ == MessageRouting::kMod) {
      return v / parts_;
    }
    return v - boundaries_[owner];
  }

  /// Inverse of local_index: the vertex at dense position `local` of
  /// `owner`.
  VertexId vertex_at(VertexId local, unsigned owner) const {
    if (routing_ == MessageRouting::kMod) {
      return local * parts_ + owner;
    }
    return boundaries_[owner] + local;
  }

  /// Size of `owner`'s dense local range (== max local_index + 1).
  VertexId local_size(unsigned owner) const {
    if (routing_ == MessageRouting::kMod) {
      // Vertices owner, owner+parts, ...: ceil((n - owner) / parts).
      if (num_vertices_ <= owner) {
        return 0;
      }
      return (num_vertices_ - owner + parts_ - 1) / parts_;
    }
    return boundaries_[owner + 1] - boundaries_[owner];
  }

  /// Range routing only: the contiguous [begin, end) slice of `owner`.
  VertexId range_begin(unsigned owner) const { return boundaries_[owner]; }
  VertexId range_end(unsigned owner) const { return boundaries_[owner + 1]; }

 private:
  OwnerMap(MessageRouting routing, VertexId num_vertices, unsigned parts,
           std::vector<VertexId> boundaries);

  MessageRouting routing_ = MessageRouting::kRange;
  VertexId num_vertices_ = 0;
  unsigned parts_ = 1;
  /// Range routing: parts_ + 1 ascending entries, [0] == 0, back() == n.
  /// Mod routing: empty.
  std::vector<VertexId> boundaries_;
  /// Range routing: block_table_[v >> block_shift_] is the owner of the
  /// block's first vertex (at most ~4Ki entries; one L1/L2 line hit per
  /// owner_of). Mod routing: empty.
  std::vector<unsigned> block_table_;
  unsigned block_shift_ = 0;
};

}  // namespace gpsa
