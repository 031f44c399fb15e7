#pragma once

#include <vector>

#include "mesh/mesh_topology.hpp"
#include "net/deployment.hpp"

namespace wmsn::mesh {

/// Link-state routing over the mesh tier: every node knows the full (alive)
/// topology — realistic for an 802.11 mesh running OLSR-class routing —
/// and forwards along min-hop paths to the nearest base station.
/// Tables recompute whenever a node dies or recovers, which is the "its
/// neighbors simply find another route" self-healing of §2.1.
class MeshRoutingTable {
 public:
  explicit MeshRoutingTable(const MeshTopology& topology);

  /// Recomputes all routes considering only `alive` nodes.
  void recompute(const std::vector<bool>& alive);

  /// Next hop from `from` toward its nearest base station, or kNoMeshNode if
  /// partitioned.
  MeshNodeId nextHopToBase(MeshNodeId from) const;

  /// Hop count from `from` to its nearest base station (0 for a base
  /// station itself), or net::kUnreachableHops.
  std::uint32_t hopsToBase(MeshNodeId from) const;

  /// Next hop from `from` toward arbitrary node `to` (downstream commands,
  /// base → WMG). kNoMeshNode if unreachable.
  MeshNodeId nextHopToward(MeshNodeId from, MeshNodeId to) const;

 private:
  void bfsFrom(const std::vector<MeshNodeId>& sources,
               const std::vector<bool>& alive,
               std::vector<std::uint32_t>& dist,
               std::vector<MeshNodeId>& next) const;

  const MeshTopology& topology_;
  std::vector<bool> alive_;
  // Toward-base field: distance + next hop per node.
  std::vector<std::uint32_t> distToBase_;
  std::vector<MeshNodeId> nextToBase_;
};

}  // namespace wmsn::mesh
