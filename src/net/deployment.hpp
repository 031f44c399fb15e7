#pragma once

#include <cstdint>
#include <vector>

#include "net/geometry.hpp"
#include "util/random.hpp"

namespace wmsn::net {

/// A generated node placement: sensor positions plus candidate gateway
/// positions. Generators retry until the layout is connected under the given
/// radio range, so experiments never start from a partitioned network.
struct Deployment {
  std::vector<Point> sensors;
  std::vector<Point> gateways;
  double width = 0.0;
  double height = 0.0;
};

struct DeploymentParams {
  std::size_t sensorCount = 100;
  std::size_t gatewayCount = 3;
  double width = 200.0;
  double height = 200.0;
  double radioRange = 30.0;
  std::size_t maxAttempts = 200;  ///< connectivity retries before giving up
};

/// Uniform random sensors; gateways placed on a jittered sub-grid so they
/// start spread out (the deployment-model principle of §4.1).
Deployment uniformDeployment(const DeploymentParams& params, Rng& rng);

/// Regular grid of sensors (spacing chosen from the area), gateways spread.
/// Matches the paper's "nodes distributed evenly" SPR assumption (§5.2).
Deployment gridDeployment(const DeploymentParams& params, Rng& rng);

/// Gaussian clusters — the "unevenly distributed" case that motivates MLR
/// (§5.3: nodes on many shortest paths die first).
Deployment clusteredDeployment(const DeploymentParams& params,
                               std::size_t clusterCount, Rng& rng);

/// Candidate feasible places for MLR gateway deployment (§5.3): a jittered
/// grid of `count` positions covering the area.
std::vector<Point> feasiblePlaces(const DeploymentParams& params,
                                  std::size_t count, Rng& rng);

/// Hop count of a point no seed can reach (see hopCounts).
inline constexpr std::uint32_t kUnreachableHops = 0xffffffffu;

/// Multi-source BFS over the unit-disk graph on `points`: an edge joins a
/// and b iff distanceSq(a, b) <= range * range. Returns, per point, the
/// fewest hops from any of `seeds` (0 for a seed), or kUnreachableHops.
/// Neighbour candidates come from a sim::SpatialGrid, so the cost is O(n·k)
/// in the local density k, not O(n²). Every set-up connectivity question
/// (deployment, §4.1 placement, the mesh tier) is answered here.
std::vector<std::uint32_t> hopCounts(const std::vector<Point>& points,
                                     double range,
                                     const std::vector<std::size_t>& seeds);

/// True if every sensor can reach at least one gateway through hops of
/// length <= radioRange.
bool isConnected(const Deployment& deployment, double radioRange);

/// True if the sensor-only graph is one connected component. MLR deployments
/// need this: gateways move between rounds, so sensors must never depend on
/// a gateway as a relay between sensor clusters.
bool sensorsConnected(const std::vector<Point>& sensors, double radioRange);

/// True if every candidate place has at least one sensor within
/// `attachRange` — otherwise a gateway parked there is radio-isolated and
/// its move notifications can never enter the network.
bool placesAttached(const std::vector<Point>& places,
                    const std::vector<Point>& sensors, double attachRange);

}  // namespace wmsn::net
