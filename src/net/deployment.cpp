#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "sim/spatial_grid.hpp"
#include "util/require.hpp"

namespace wmsn::net {

namespace {

/// Spread `count` points on a jittered sub-grid covering the area.
std::vector<Point> spreadPoints(std::size_t count, double width, double height,
                                double jitterFraction, Rng& rng) {
  std::vector<Point> out;
  if (count == 0) return out;
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count) * width / height)));
  const std::size_t rows = (count + cols - 1) / cols;
  const double cellW = width / static_cast<double>(cols);
  const double cellH = height / static_cast<double>(rows);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t cx = i % cols;
    const std::size_t cy = i / cols;
    const double jx = rng.uniform(-jitterFraction, jitterFraction) * cellW;
    const double jy = rng.uniform(-jitterFraction, jitterFraction) * cellH;
    out.push_back(Point{
        std::clamp((static_cast<double>(cx) + 0.5) * cellW + jx, 0.0, width),
        std::clamp((static_cast<double>(cy) + 0.5) * cellH + jy, 0.0,
                   height)});
  }
  return out;
}

Deployment generateConnected(const DeploymentParams& params, Rng& rng,
                             const std::function<std::vector<Point>(Rng&)>&
                                 sensorGen) {
  for (std::size_t attempt = 0; attempt < params.maxAttempts; ++attempt) {
    Deployment d;
    d.width = params.width;
    d.height = params.height;
    d.sensors = sensorGen(rng);
    d.gateways =
        spreadPoints(params.gatewayCount, params.width, params.height,
                     0.25, rng);
    if (isConnected(d, params.radioRange)) return d;
  }
  throw PreconditionError(
      "could not generate a connected deployment; increase radio range, "
      "node count, or area density");
}

}  // namespace

std::vector<std::uint32_t> hopCounts(const std::vector<Point>& points,
                                     double range,
                                     const std::vector<std::size_t>& seeds) {
  WMSN_REQUIRE_MSG(range >= 0.0, "hop range must be non-negative");
  std::vector<std::uint32_t> hops(points.size(), kUnreachableHops);
  std::vector<std::uint32_t> frontier;
  for (const std::size_t s : seeds) {
    WMSN_REQUIRE(s < points.size());
    hops[s] = 0;
    frontier.push_back(static_cast<std::uint32_t>(s));
  }

  double extent = 0.0;
  for (const Point& p : points)
    extent = std::max({extent, std::abs(p.x), std::abs(p.y)});
  // The query reaches a hair past `range` so rounding in the cell arithmetic
  // can never drop a pair the exact predicate below links. Cells are at
  // least that wide, and widened until every cell coordinate fits the
  // grid's key; wider cells only add candidates (superset semantics).
  const double reach = range + (range + extent) * 1e-12;
  sim::SpatialGrid grid(std::max(
      {reach, extent * 0x1p-28, std::numeric_limits<double>::min()}));
  for (std::size_t i = 0; i < points.size(); ++i)
    grid.insert(static_cast<std::uint32_t>(i), points[i].x, points[i].y);

  const double r2 = range * range;
  std::vector<std::uint32_t> candidates;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::uint32_t cur = frontier[head];
    grid.query(points[cur].x, points[cur].y, reach, candidates);
    for (const std::uint32_t c : candidates) {
      if (hops[c] == kUnreachableHops &&
          distanceSq(points[cur], points[c]) <= r2) {
        hops[c] = hops[cur] + 1;
        frontier.push_back(c);
      }
    }
  }
  return hops;
}

bool isConnected(const Deployment& deployment, double radioRange) {
  const std::size_t s = deployment.sensors.size();
  std::vector<Point> points(deployment.sensors);
  points.insert(points.end(), deployment.gateways.begin(),
                deployment.gateways.end());
  std::vector<std::size_t> seeds(deployment.gateways.size());
  std::iota(seeds.begin(), seeds.end(), s);
  const auto hops = hopCounts(points, radioRange, seeds);
  return std::count(hops.begin(), hops.begin() + s, kUnreachableHops) == 0;
}

bool sensorsConnected(const std::vector<Point>& sensors, double radioRange) {
  if (sensors.empty()) return true;
  const auto hops = hopCounts(sensors, radioRange, {0});
  return std::count(hops.begin(), hops.end(), kUnreachableHops) == 0;
}

bool placesAttached(const std::vector<Point>& places,
                    const std::vector<Point>& sensors, double attachRange) {
  const double r2 = attachRange * attachRange;
  for (const Point& p : places) {
    bool attached = false;
    for (const Point& s : sensors) {
      if (distanceSq(p, s) <= r2) {
        attached = true;
        break;
      }
    }
    if (!attached) return false;
  }
  return true;
}

Deployment uniformDeployment(const DeploymentParams& params, Rng& rng) {
  return generateConnected(params, rng, [&params](Rng& r) {
    std::vector<Point> out;
    out.reserve(params.sensorCount);
    for (std::size_t i = 0; i < params.sensorCount; ++i)
      out.push_back(
          Point{r.uniform(0.0, params.width), r.uniform(0.0, params.height)});
    return out;
  });
}

Deployment gridDeployment(const DeploymentParams& params, Rng& rng) {
  return generateConnected(params, rng, [&params](Rng& r) {
    return spreadPoints(params.sensorCount, params.width, params.height, 0.05,
                        r);
  });
}

Deployment clusteredDeployment(const DeploymentParams& params,
                               std::size_t clusterCount, Rng& rng) {
  WMSN_REQUIRE(clusterCount >= 1);
  return generateConnected(params, rng, [&params, clusterCount](Rng& r) {
    // Cluster centres spread out; sensors normally distributed around them.
    const auto centres =
        spreadPoints(clusterCount, params.width, params.height, 0.2, r);
    const double sigma =
        std::min(params.width, params.height) /
        (3.0 * std::sqrt(static_cast<double>(clusterCount)));
    std::vector<Point> out;
    out.reserve(params.sensorCount);
    for (std::size_t i = 0; i < params.sensorCount; ++i) {
      const Point& c = centres[i % centres.size()];
      out.push_back(
          Point{std::clamp(r.normal(c.x, sigma), 0.0, params.width),
                std::clamp(r.normal(c.y, sigma), 0.0, params.height)});
    }
    return out;
  });
}

std::vector<Point> feasiblePlaces(const DeploymentParams& params,
                                  std::size_t count, Rng& rng) {
  return spreadPoints(count, params.width, params.height, 0.15, rng);
}

}  // namespace wmsn::net
