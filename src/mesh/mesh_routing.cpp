#include "mesh/mesh_routing.hpp"

#include <deque>

#include "util/require.hpp"

namespace wmsn::mesh {

MeshRoutingTable::MeshRoutingTable(const MeshTopology& topology)
    : topology_(topology) {
  recompute(std::vector<bool>(topology.nodes.size(), true));
}

void MeshRoutingTable::bfsFrom(const std::vector<MeshNodeId>& sources,
                               const std::vector<bool>& alive,
                               std::vector<std::uint32_t>& dist,
                               std::vector<MeshNodeId>& next) const {
  const std::size_t n = topology_.nodes.size();
  dist.assign(n, net::kUnreachableHops);
  next.assign(n, kNoMeshNode);
  std::deque<MeshNodeId> frontier;
  for (MeshNodeId s : sources) {
    if (s < n && alive[s]) {
      dist[s] = 0;
      frontier.push_back(s);
    }
  }
  // BFS outward from the sources; next[v] points one hop back toward them.
  while (!frontier.empty()) {
    const MeshNodeId cur = frontier.front();
    frontier.pop_front();
    for (MeshNodeId v = 0; v < n; ++v) {
      if (!alive[v] || dist[v] != net::kUnreachableHops) continue;
      if (!topology_.linked(cur, v)) continue;
      dist[v] = dist[cur] + 1;
      next[v] = cur;
      frontier.push_back(v);
    }
  }
}

void MeshRoutingTable::recompute(const std::vector<bool>& alive) {
  WMSN_REQUIRE(alive.size() == topology_.nodes.size());
  alive_ = alive;
  bfsFrom(topology_.idsOf(MeshNodeKind::kBaseStation), alive, distToBase_,
          nextToBase_);
}

MeshNodeId MeshRoutingTable::nextHopToBase(MeshNodeId from) const {
  WMSN_REQUIRE(from < nextToBase_.size());
  return nextToBase_[from];
}

std::uint32_t MeshRoutingTable::hopsToBase(MeshNodeId from) const {
  WMSN_REQUIRE(from < distToBase_.size());
  return distToBase_[from];
}

MeshNodeId MeshRoutingTable::nextHopToward(MeshNodeId from,
                                           MeshNodeId to) const {
  WMSN_REQUIRE(from < topology_.nodes.size());
  WMSN_REQUIRE(to < topology_.nodes.size());
  // Per-destination BFS (downstream traffic is rare — commands only).
  std::vector<std::uint32_t> dist;
  std::vector<MeshNodeId> next;
  bfsFrom({to}, alive_, dist, next);
  return next[from];
}

}  // namespace wmsn::mesh
