#include "core/placement.hpp"

#include <algorithm>
#include <limits>

#include "util/require.hpp"

namespace wmsn::core {

std::vector<std::uint32_t> hopField(const std::vector<net::Point>& sensors,
                                    const net::Point& place,
                                    double radioRange) {
  // The place joins the graph as the only seed and is dropped from the
  // result: sensors in its range are 1 hop out, and it never relays.
  std::vector<net::Point> points(sensors);
  points.push_back(place);
  auto hops = net::hopCounts(points, radioRange, {sensors.size()});
  hops.pop_back();
  return hops;
}

namespace {

double costOfMinField(const std::vector<std::uint32_t>& minField) {
  // Unreachable sensors dominate the objective so the planner always
  // prefers coverage over shaving hops.
  constexpr double kPenalty = 1e6;
  double cost = 0.0;
  for (std::uint32_t h : minField)
    cost += (h == net::kUnreachableHops) ? kPenalty : static_cast<double>(h);
  return cost;
}

/// The greedy §4.1 planner: each pick adds the unchosen place whose hop
/// field most lowers the cost (ties to the lowest index). The plan for m is
/// the prefix of the plan for m + 1, so one pass serves every m: after pick
/// number k, `onPick(k, cost)` sees the cost of the first k picks and returns
/// false to stop. Returns the picks made.
template <typename OnPick>
std::vector<std::size_t> greedyPlaces(const std::vector<net::Point>& sensors,
                                      const std::vector<net::Point>& places,
                                      std::size_t m, double radioRange,
                                      OnPick onPick) {
  // Precompute the hop field of every candidate place once.
  std::vector<std::vector<std::uint32_t>> fields;
  fields.reserve(places.size());
  for (const net::Point& p : places)
    fields.push_back(hopField(sensors, p, radioRange));

  std::vector<std::size_t> chosen;
  std::vector<std::uint32_t> minField(sensors.size(), net::kUnreachableHops);

  while (chosen.size() < m) {
    double bestCost = std::numeric_limits<double>::max();
    std::size_t bestPlace = places.size();
    for (std::size_t p = 0; p < places.size(); ++p) {
      if (std::find(chosen.begin(), chosen.end(), p) != chosen.end())
        continue;
      std::vector<std::uint32_t> candidate(minField);
      for (std::size_t s = 0; s < sensors.size(); ++s)
        candidate[s] = std::min(candidate[s], fields[p][s]);
      const double cost = costOfMinField(candidate);
      if (cost < bestCost) {
        bestCost = cost;
        bestPlace = p;
      }
    }
    WMSN_REQUIRE(bestPlace < places.size());
    chosen.push_back(bestPlace);
    for (std::size_t s = 0; s < sensors.size(); ++s)
      minField[s] = std::min(minField[s], fields[bestPlace][s]);
    if (!onPick(chosen.size(), bestCost)) break;
  }
  return chosen;
}

}  // namespace

std::vector<std::size_t> planGatewayPlaces(
    const std::vector<net::Point>& sensors,
    const std::vector<net::Point>& places, std::size_t m,
    double radioRange) {
  WMSN_REQUIRE(m >= 1 && m <= places.size());
  return greedyPlaces(sensors, places, m, radioRange,
                      [](std::size_t, double) { return true; });
}

double totalHopCost(const std::vector<net::Point>& sensors,
                    const std::vector<net::Point>& places,
                    const std::vector<std::size_t>& selection,
                    double radioRange) {
  std::vector<std::uint32_t> minField(sensors.size(), net::kUnreachableHops);
  for (std::size_t p : selection) {
    WMSN_REQUIRE(p < places.size());
    const auto field = hopField(sensors, places[p], radioRange);
    for (std::size_t s = 0; s < sensors.size(); ++s)
      minField[s] = std::min(minField[s], field[s]);
  }
  return costOfMinField(minField);
}

std::size_t estimateGatewayCount(const std::vector<net::Point>& sensors,
                                 const std::vector<net::Point>& places,
                                 double radioRange, double kneeFraction) {
  WMSN_REQUIRE(!places.empty());
  std::size_t estimate = places.size();
  double prevCost = std::numeric_limits<double>::max();
  greedyPlaces(sensors, places, places.size(), radioRange,
               [&](std::size_t m, double cost) {
                 if (m > 1 && prevCost > 0.0 &&
                     (prevCost - cost) / prevCost < kneeFraction) {
                   estimate = m - 1;  // the previous m was within the knee
                   return false;
                 }
                 prevCost = cost;
                 return true;
               });
  return estimate;
}

}  // namespace wmsn::core
