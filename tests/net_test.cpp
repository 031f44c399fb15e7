#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "core/placement.hpp"
#include "mesh/mesh_topology.hpp"
#include "net/deployment.hpp"
#include "net/mobility.hpp"
#include "net/sensor_network.hpp"
#include "obs/perf_stats.hpp"
#include "util/require.hpp"

namespace wmsn::net {
namespace {

// --- geometry / energy --------------------------------------------------------

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distanceSq({1, 1}, {1, 1}), 0.0);
}

TEST(Energy, CrossoverDistance) {
  EnergyParams p;
  const double d0 = p.crossoverDistance();
  EXPECT_NEAR(d0, std::sqrt(10e-12 / 0.0013e-12), 1e-6);
}

TEST(Energy, TxCostUsesFreeSpaceBelowCrossover) {
  EnergyParams p;
  const double d = p.crossoverDistance() / 2.0;
  const double expected =
      p.eElecJPerBit * 100 + p.eFsJPerBitM2 * d * d * 100;
  EXPECT_NEAR(p.txCost(100, d), expected, 1e-18);
}

TEST(Energy, TxCostUsesMultipathAboveCrossover) {
  EnergyParams p;
  const double d = p.crossoverDistance() * 2.0;
  const double expected =
      p.eElecJPerBit * 100 + p.eMpJPerBitM4 * d * d * d * d * 100;
  EXPECT_NEAR(p.txCost(100, d), expected, 1e-15);
}

TEST(Energy, RxCostIsElectronicsOnly) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.rxCost(1000), p.eElecJPerBit * 1000);
}

TEST(Battery, DrainsAndDies) {
  Battery b(1.0);
  EXPECT_TRUE(b.drawTx(0.4));
  EXPECT_TRUE(b.drawRx(0.4));
  EXPECT_FALSE(b.depleted());
  EXPECT_FALSE(b.drawCpu(0.3));  // this charge kills it
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remainingJ(), 0.0);
  EXPECT_DOUBLE_EQ(b.txJ(), 0.4);
  EXPECT_DOUBLE_EQ(b.rxJ(), 0.4);
  EXPECT_DOUBLE_EQ(b.cpuJ(), 0.3);
}

TEST(Battery, DeadBatteryAbsorbsNothing) {
  Battery b(0.1);
  b.drawTx(0.2);
  const double consumed = b.consumedJ();
  EXPECT_TRUE(b.drawTx(0.5));  // no-op on a dead node
  EXPECT_DOUBLE_EQ(b.consumedJ(), consumed);
}

TEST(Battery, InfiniteTracksConsumption) {
  Battery b = Battery::infinite();
  EXPECT_TRUE(b.drawTx(100.0));
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.txJ(), 100.0);
}

// --- radio -------------------------------------------------------------------

TEST(UnitDiskRadio, SharpCutoff) {
  UnitDiskRadio radio(10.0);
  EXPECT_TRUE(radio.linked({0, 0}, {10, 0}));
  EXPECT_FALSE(radio.linked({0, 0}, {10.01, 0}));
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {5, 0}), 1.0);
}

TEST(LogDistanceRadio, FringeDecays) {
  LogDistanceRadio radio(10.0, 20.0);
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {9, 0}), 1.0);
  const double mid = radio.deliveryProbability({0, 0}, {15, 0});
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
  EXPECT_DOUBLE_EQ(radio.deliveryProbability({0, 0}, {20, 0}), 0.0);
  EXPECT_TRUE(radio.linked({0, 0}, {19, 0}));
  EXPECT_FALSE(radio.linked({0, 0}, {21, 0}));
}

// --- SensorNetwork + Medium -----------------------------------------------------

struct NetFixture {
  sim::Simulator simulator;
  SensorNetwork network;

  explicit NetFixture(SensorNetworkParams params = {})
      : network(simulator, std::make_unique<UnitDiskRadio>(30.0), params) {}
};

SensorNetworkParams idealParams() {
  SensorNetworkParams p;
  p.mac = MacKind::kIdeal;
  p.medium.collisions = false;
  return p;
}

TEST(SensorNetwork, AddAndQueryNodes) {
  NetFixture f;
  const NodeId s0 = f.network.addSensor({0, 0});
  const NodeId s1 = f.network.addSensor({20, 0});
  const NodeId g0 = f.network.addGateway({40, 0});
  EXPECT_EQ(f.network.size(), 3u);
  EXPECT_FALSE(f.network.node(s0).isGateway());
  EXPECT_TRUE(f.network.node(g0).isGateway());
  EXPECT_EQ(f.network.neighborsOf(s0), (std::vector<NodeId>{s1}));
  EXPECT_EQ(f.network.neighborsOf(s1), (std::vector<NodeId>{s0, g0}));
  EXPECT_TRUE(f.network.allSensorsCovered());
}

TEST(SensorNetwork, BroadcastReachesNeighborsOnly) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId c = f.network.addSensor({100, 0});  // out of range
  int bGot = 0, cGot = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++bGot; });
  f.network.node(c).setReceiveHandler([&](const Packet&, NodeId) { ++cGot; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(bGot, 1);
  EXPECT_EQ(cGot, 0);
}

TEST(SensorNetwork, UnicastAddressingFiltersOthers) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  const NodeId c = f.network.addSensor({0, 10});  // in range, not addressed
  int bGot = 0, cGot = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++bGot; });
  f.network.node(c).setReceiveHandler([&](const Packet&, NodeId) { ++cGot; });

  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = b;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(bGot, 1);
  EXPECT_EQ(cGot, 0);
  // ...but c still paid RX energy: its radio had to decode the header.
  EXPECT_GT(f.network.node(c).battery().rxJ(), 0.0);
}

TEST(SensorNetwork, PromiscuousModeSeesForeignUnicast) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  const NodeId spy = f.network.addSensor({0, 10});
  int spyGot = 0;
  f.network.node(spy).setReceiveHandler(
      [&](const Packet&, NodeId) { ++spyGot; });
  f.network.medium().setPromiscuous(spy, true);

  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = b;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(spyGot, 1);
}

TEST(SensorNetwork, TxChargesSenderRxChargesListeners) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  const auto& ep = f.network.energyParams();
  EXPECT_NEAR(f.network.node(a).battery().txJ(),
              ep.txCost(Packet::kHeaderBytes * 8, 30.0), 1e-12);
  EXPECT_NEAR(f.network.node(b).battery().rxJ(),
              ep.rxCost(Packet::kHeaderBytes * 8), 1e-12);
}

TEST(SensorNetwork, NodeDiesWhenBatteryDrains) {
  SensorNetworkParams params = idealParams();
  params.energy.initialEnergyJ = 2e-5;  // ~3 transmissions' worth
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  for (int i = 0; i < 10; ++i) {
    Packet copy = pkt;
    copy.uid = 0;
    f.network.sendFrom(a, copy);
    f.simulator.run();
  }
  // The sender burnt through its battery and stopped transmitting; the
  // listener only paid RX for the frames that actually went out.
  EXPECT_FALSE(f.network.node(a).alive());
  EXPECT_TRUE(f.network.node(b).alive());
  EXPECT_TRUE(f.network.firstSensorDeathTime().has_value());
  EXPECT_EQ(f.network.aliveSensorCount(), 1u);
}

TEST(SensorNetwork, DeadNodeNeitherSendsNorReceives) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++got; });
  f.network.node(b).kill(f.simulator.now());

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(got, 0);

  f.network.node(a).kill(f.simulator.now());
  f.network.sendFrom(a, pkt);
  f.simulator.run();
  EXPECT_EQ(f.network.stats().framesByKind().count(PacketKind::kHello), 1u);
}

TEST(Medium, CollisionCorruptsOverlap) {
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;  // both transmit in the same instant
  params.medium.collisions = true;
  params.medium.unicastArq = false;
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId mid = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(mid).setReceiveHandler(
      [&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  Packet pkt2 = pkt;
  pkt2.uid = 0;
  f.network.sendFrom(b, pkt2);  // same tick → simultaneous start → jam
  f.simulator.run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(f.network.medium().framesCorrupted(), 1u);
}

TEST(Medium, CaptureEffectKeepsLockedFrame) {
  SensorNetworkParams params;
  params.mac = MacKind::kIdeal;
  params.medium.collisions = true;
  params.medium.unicastArq = false;
  NetFixture f(params);
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId b = f.network.addSensor({20, 0});
  const NodeId mid = f.network.addSensor({10, 0});
  int got = 0;
  f.network.node(mid).setReceiveHandler(
      [&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kHello;
  pkt.hopDst = kBroadcastId;
  f.network.sendFrom(a, pkt);
  // Second transmission starts 100 us later, mid-frame: the receiver stays
  // locked on the first frame and decodes it.
  f.simulator.schedule(sim::Time::microseconds(100), [&] {
    Packet late;
    late.kind = PacketKind::kHello;
    late.hopDst = kBroadcastId;
    f.network.sendFrom(b, late);
  });
  f.simulator.run();
  EXPECT_EQ(got, 1);
}

TEST(Medium, ArqRetransmitsThroughTransientLoss) {
  // Lossy fringe link: without ARQ most frames die; with ARQ nearly all
  // arrive.
  auto runWith = [](bool arq) {
    sim::Simulator simulator;
    SensorNetworkParams params;
    params.mac = MacKind::kIdeal;
    params.medium.unicastArq = arq;
    params.seed = 7;
    SensorNetwork network(simulator,
                          std::make_unique<LogDistanceRadio>(10.0, 30.0),
                          params);
    const NodeId a = network.addSensor({0, 0});
    const NodeId b = network.addSensor({15, 0});  // fringe: p ≈ 0.56 per try
    int got = 0;
    network.node(b).setReceiveHandler([&](const Packet&, NodeId) { ++got; });
    for (int i = 0; i < 50; ++i) {
      simulator.schedule(sim::Time::milliseconds(10 * (i + 1)), [&network, a, b] {
        Packet pkt;
        pkt.kind = PacketKind::kData;
        pkt.hopDst = b;
        network.sendFrom(a, pkt);
      });
    }
    simulator.run();
    return got;
  };
  const int withoutArq = runWith(false);
  const int withArq = runWith(true);
  EXPECT_GT(withArq, withoutArq);
  EXPECT_GE(withArq, 40);  // 4 tries at ~56% each ≈ 96%
}

TEST(Medium, ChannelBusyDuringTransmission) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  f.network.addSensor({10, 0});
  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.hopDst = kBroadcastId;
  pkt.payload.resize(100);
  f.network.sendFrom(a, pkt);
  EXPECT_TRUE(f.network.medium().channelBusy(a));
  f.simulator.run();
  EXPECT_FALSE(f.network.medium().channelBusy(a));
}

TEST(Medium, LongRangeBypassesRadioRange) {
  NetFixture f(idealParams());
  const NodeId a = f.network.addSensor({0, 0});
  const NodeId g = f.network.addGateway({500, 0});  // far outside 30 m
  int got = 0;
  f.network.node(g).setReceiveHandler([&](const Packet&, NodeId) { ++got; });

  Packet pkt;
  pkt.kind = PacketKind::kData;
  f.network.sendLongRangeFrom(a, g, pkt);
  f.simulator.run();
  EXPECT_EQ(got, 1);
  // Multipath amplifier at 500 m dominates the budget.
  const auto& ep = f.network.energyParams();
  EXPECT_NEAR(f.network.node(a).battery().txJ(),
              ep.txCost(Packet::kHeaderBytes * 8, 500.0), 1e-9);
}

// Heap allocations of one broadcast (transmit through the CSMA MAC, then
// every reception) from a sender to `receivers` listening neighbours. A
// warm-up broadcast first sizes the medium's and the MAC's slot tables and
// the event heap.
std::uint64_t broadcastAllocations(int receivers) {
  NetFixture f;
  const NodeId a = f.network.addSensor({0, 0});
  int got = 0;
  for (int i = 0; i < receivers; ++i) {
    const double angle = 2.0 * std::numbers::pi * i / receivers;
    const NodeId r = f.network.addSensor(
        {20.0 * std::cos(angle), 20.0 * std::sin(angle)});
    f.network.node(r).setReceiveHandler(
        [&got](const Packet&, NodeId) { ++got; });
  }
  auto hello = [] {
    Packet pkt;
    pkt.kind = PacketKind::kHello;
    pkt.hopDst = kBroadcastId;
    pkt.payload.resize(24);
    return pkt;
  };
  f.network.sendFrom(a, hello());
  f.simulator.run();

  Packet pkt = hello();
  obs::AllocationScope scope;
  f.network.sendFrom(a, std::move(pkt));
  f.simulator.run();
  EXPECT_EQ(got, 2 * receivers);
  EXPECT_TRUE(f.network.medium().idle());
  return scope.count();
}

TEST(Medium, BroadcastFanOutDoesNotAllocatePerReceiver) {
  // One shared frame per transmission; receptions and MAC attempts live in
  // slot tables and their events capture only a slot index.
  const std::uint64_t four = broadcastAllocations(4);
  const std::uint64_t many = broadcastAllocations(32);
  EXPECT_EQ(four, many);
  EXPECT_LE(many, 1u);  // the frame itself
}

TEST(Medium, IdleAfterArqAndCollisions) {
  // Every reception slot is freed and every frame handle released once the
  // simulator drains, through ARQ retransmissions and collisions alike.
  SensorNetworkParams params;
  params.seed = 11;
  sim::Simulator simulator;
  SensorNetwork network(simulator,
                        std::make_unique<LogDistanceRadio>(10.0, 30.0),
                        params);
  std::vector<NodeId> ids;
  for (int i = 0; i < 12; ++i)
    ids.push_back(network.addSensor({6.0 * (i % 4), 6.0 * (i / 4)}));
  for (const NodeId from : ids) {
    Packet data;
    data.kind = PacketKind::kData;
    data.hopDst = ids[(from + 5) % ids.size()];
    data.payload.resize(40);
    network.sendFrom(from, data);
    Packet hello;
    hello.kind = PacketKind::kHello;
    hello.hopDst = kBroadcastId;
    network.sendFrom(from, hello);
  }
  simulator.run();
  EXPECT_GT(network.medium().framesCorrupted(), 0u);
  EXPECT_GT(network.medium().arqRetransmissions(), 0u);
  EXPECT_TRUE(network.medium().idle());
}

TEST(SensorNetwork, GatewayRepositioning) {
  NetFixture f;
  const NodeId g = f.network.addGateway({0, 0});
  f.network.setGatewayPosition(g, {50, 50});
  EXPECT_EQ(f.network.node(g).position(), (Point{50, 50}));
  const NodeId s = f.network.addSensor({0, 0});
  EXPECT_THROW(f.network.setGatewayPosition(s, {1, 1}), PreconditionError);
}

// --- deployment ----------------------------------------------------------------

TEST(Deployment, UniformIsConnectedAndInBounds) {
  Rng rng(5);
  DeploymentParams p;
  p.sensorCount = 80;
  const Deployment d = uniformDeployment(p, rng);
  EXPECT_EQ(d.sensors.size(), 80u);
  EXPECT_EQ(d.gateways.size(), 3u);
  for (const Point& pt : d.sensors) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, p.width);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, p.height);
  }
  EXPECT_TRUE(isConnected(d, p.radioRange));
}

TEST(Deployment, GridAndClusteredConnected) {
  Rng rng(6);
  DeploymentParams p;
  p.sensorCount = 64;
  EXPECT_TRUE(isConnected(gridDeployment(p, rng), p.radioRange));
  // Clusters leave inter-cluster gaps; a wider radio is realistic there.
  p.radioRange = 45.0;
  EXPECT_TRUE(isConnected(clusteredDeployment(p, 4, rng), p.radioRange));
}

TEST(Deployment, DisconnectedDetected) {
  Deployment d;
  d.sensors = {{0, 0}, {100, 100}};
  d.gateways = {{5, 5}};
  EXPECT_FALSE(isConnected(d, 10.0));
  EXPECT_FALSE(sensorsConnected(d.sensors, 10.0));
  EXPECT_TRUE(sensorsConnected(d.sensors, 200.0));
}

TEST(Deployment, PlacesAttachedCheck) {
  const std::vector<Point> sensors = {{0, 0}, {10, 0}};
  EXPECT_TRUE(placesAttached({{5, 0}}, sensors, 6.0));
  EXPECT_FALSE(placesAttached({{50, 50}}, sensors, 6.0));
}

TEST(Deployment, ImpossibleLayoutThrows) {
  Rng rng(7);
  DeploymentParams p;
  p.sensorCount = 5;
  p.width = 10000.0;
  p.height = 10000.0;
  p.radioRange = 10.0;
  p.maxAttempts = 3;
  EXPECT_THROW(uniformDeployment(p, rng), PreconditionError);
}

// --- hop BFS -----------------------------------------------------------------

/// Brute-force reference for hopCounts: the all-pairs multi-source BFS over
/// the unit-disk graph that the set-up predicates ran before the grid.
std::vector<std::uint32_t> referenceHops(
    const std::vector<Point>& points, double range,
    const std::vector<std::size_t>& seeds) {
  std::vector<std::uint32_t> hops(points.size(), kUnreachableHops);
  std::vector<std::size_t> frontier;
  for (const std::size_t s : seeds) {
    if (hops[s] == 0) continue;
    hops[s] = 0;
    frontier.push_back(s);
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t cur = frontier[head];
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (hops[i] == kUnreachableHops &&
          distanceSq(points[cur], points[i]) <= range * range) {
        hops[i] = hops[cur] + 1;
        frontier.push_back(i);
      }
    }
  }
  return hops;
}

bool allReached(const std::vector<std::uint32_t>& hops, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    if (hops[i] == kUnreachableHops) return false;
  return true;
}

struct HopLayout {
  std::string name;
  std::vector<Point> points;
  std::vector<double> ranges;
};

/// Seeded uniform, regular-grid (negative coordinates, spacing exactly one
/// of the ranges, so many pairs sit exactly `range` apart) and clustered
/// layouts, plus a tiny range over a 10 km square.
std::vector<HopLayout> hopLayouts() {
  std::vector<HopLayout> out;
  Rng rng(17);
  HopLayout uniform{"uniform", {}, {0.0, 12.0, 25.0, 40.0, 1000.0}};
  for (int i = 0; i < 300; ++i)
    uniform.points.push_back(
        {rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  uniform.points.push_back(uniform.points[7]);  // coincident pair
  out.push_back(uniform);

  HopLayout grid{"grid", {}, {0.0, 9.99, 10.0, 14.2, 30.0}};
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 15; ++j)
      grid.points.push_back({-100.0 + 10.0 * i, -75.0 + 10.0 * j});
  out.push_back(grid);

  HopLayout clustered{"clustered", {}, {5.0, 18.0, 35.0, 90.0}};
  const Point centres[] = {{50, 50}, {250, 60}, {60, 240}, {230, 230}};
  for (int i = 0; i < 240; ++i) {
    const Point& c = centres[i % 4];
    clustered.points.push_back({rng.normal(c.x, 15.0), rng.normal(c.y, 15.0)});
  }
  out.push_back(clustered);

  // 2^-20 apart exactly, at a coordinate where that difference is exact.
  HopLayout wide{"wide", {}, {1e-6, 0x1p-20}};
  for (int i = 0; i < 200; ++i)
    wide.points.push_back({rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4)});
  wide.points.push_back({8192.0, 8192.0});
  wide.points.push_back({8192.0 + 0x1p-20, 8192.0});
  out.push_back(wide);
  return out;
}

std::vector<std::vector<std::size_t>> hopSeedSets(std::size_t n) {
  return {{}, {0}, {0, n / 2, n - 1}, {3, 3, n - 1, 3}};
}

/// Reference greedy §4.1 planner over reference hop fields: the selection
/// planGatewayPlaces must reproduce.
double referenceCost(const std::vector<std::uint32_t>& field) {
  double cost = 0.0;
  for (const std::uint32_t h : field)
    cost += h == kUnreachableHops ? 1e6 : static_cast<double>(h);
  return cost;
}

std::vector<std::uint32_t> referenceMin(
    const std::vector<std::vector<std::uint32_t>>& fields,
    const std::vector<std::size_t>& selection, std::size_t n) {
  std::vector<std::uint32_t> minField(n, kUnreachableHops);
  for (const std::size_t p : selection)
    for (std::size_t s = 0; s < n; ++s)
      minField[s] = std::min(minField[s], fields[p][s]);
  return minField;
}

std::vector<std::size_t> referencePlan(
    const std::vector<std::vector<std::uint32_t>>& fields, std::size_t m,
    std::size_t n) {
  std::vector<std::size_t> chosen;
  while (chosen.size() < m) {
    double bestCost = std::numeric_limits<double>::max();
    std::size_t best = fields.size();
    for (std::size_t p = 0; p < fields.size(); ++p) {
      if (std::find(chosen.begin(), chosen.end(), p) != chosen.end())
        continue;
      auto trial = chosen;
      trial.push_back(p);
      const double cost = referenceCost(referenceMin(fields, trial, n));
      if (cost < bestCost) {
        bestCost = cost;
        best = p;
      }
    }
    chosen.push_back(best);
  }
  return chosen;
}

TEST(HopCounts, MatchesBruteForceReference) {
  for (const HopLayout& layout : hopLayouts()) {
    for (const double range : layout.ranges) {
      for (const auto& seeds : hopSeedSets(layout.points.size())) {
        SCOPED_TRACE(layout.name + " range " + std::to_string(range) +
                     " seeds " + std::to_string(seeds.size()));
        EXPECT_EQ(hopCounts(layout.points, range, seeds),
                  referenceHops(layout.points, range, seeds));
      }
    }
  }
}

TEST(HopCounts, EdgeCases) {
  EXPECT_TRUE(hopCounts({}, 10.0, {}).empty());
  EXPECT_EQ(hopCounts({{1, 1}}, 10.0, {0}), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(hopCounts({{1, 1}}, 10.0, {}),
            (std::vector<std::uint32_t>{kUnreachableHops}));
  // Exactly `range` apart is linked: the predicate is <=, not <.
  EXPECT_EQ(hopCounts({{0, 0}, {30, 0}, {60, 0}}, 30.0, {0}),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(hopCounts({{0, 0}, {3, 4}}, 5.0, {1}),
            (std::vector<std::uint32_t>{1, 0}));
  // Coincident points link even at range 0; distinct ones do not.
  EXPECT_EQ(hopCounts({{2, 2}, {2, 2}, {2, 3}}, 0.0, {0}),
            (std::vector<std::uint32_t>{0, 1, kUnreachableHops}));
  EXPECT_EQ(hopCounts({{-50, -50}, {-40, -50}, {-40, -61}}, 10.0, {0}),
            (std::vector<std::uint32_t>{0, 1, kUnreachableHops}));
  EXPECT_THROW(hopCounts({{0, 0}}, 10.0, {1}), PreconditionError);
}

TEST(HopCounts, SetUpPredicatesMatchReference) {
  for (const HopLayout& layout : hopLayouts()) {
    const auto& sensors = layout.points;
    const std::size_t n = sensors.size();
    std::vector<Point> places;
    for (std::size_t k = 0; k < 6; ++k) {
      const Point& p = sensors[(k * 53) % n];
      places.push_back({p.x + 3.0, p.y - 2.0});
    }
    for (const double range : layout.ranges) {
      SCOPED_TRACE(layout.name + " range " + std::to_string(range));

      std::vector<std::vector<std::uint32_t>> fields;
      for (const Point& place : places) {
        auto withPlace = sensors;
        withPlace.push_back(place);
        auto field = referenceHops(withPlace, range, {n});
        field.pop_back();
        EXPECT_EQ(core::hopField(sensors, place, range), field);
        fields.push_back(std::move(field));
      }

      double prevCost = std::numeric_limits<double>::max();
      std::size_t knee = places.size();
      for (std::size_t m = 1; m <= places.size(); ++m) {
        const auto plan = referencePlan(fields, m, n);
        EXPECT_EQ(core::planGatewayPlaces(sensors, places, m, range), plan);
        const double cost = referenceCost(referenceMin(fields, plan, n));
        if (knee == places.size() && m > 1 && prevCost > 0.0 &&
            (prevCost - cost) / prevCost < 0.08)
          knee = m - 1;
        prevCost = cost;
      }
      EXPECT_EQ(core::estimateGatewayCount(sensors, places, range), knee);

      auto withGateways = sensors;
      withGateways.insert(withGateways.end(), places.begin(), places.end());
      std::vector<std::size_t> gatewaySeeds;
      for (std::size_t g = 0; g < places.size(); ++g)
        gatewaySeeds.push_back(n + g);
      const auto gatewayHops = referenceHops(withGateways, range, gatewaySeeds);
      EXPECT_EQ(isConnected(Deployment{sensors, places, 0.0, 0.0}, range),
                allReached(gatewayHops, n));
      EXPECT_EQ(sensorsConnected(sensors, range),
                allReached(referenceHops(sensors, range, {0}), n));

      // Mesh tier: every 7th point a base station, every 3rd a WMG.
      mesh::MeshTopology topo;
      topo.linkRange = range;
      std::vector<std::size_t> bases;
      for (std::size_t i = 0; i < n; ++i) {
        const auto kind = i % 7 == 0   ? mesh::MeshNodeKind::kBaseStation
                          : i % 3 == 0 ? mesh::MeshNodeKind::kWmg
                                       : mesh::MeshNodeKind::kWmr;
        if (kind == mesh::MeshNodeKind::kBaseStation) bases.push_back(i);
        topo.nodes.push_back({sensors[i], kind});
      }
      const auto meshHops = referenceHops(sensors, range, bases);
      bool wmgsReached = true;
      for (std::size_t i = 0; i < n; ++i)
        if (topo.nodes[i].kind == mesh::MeshNodeKind::kWmg &&
            meshHops[i] == kUnreachableHops)
          wmgsReached = false;
      EXPECT_EQ(topo.connected(), wmgsReached);
    }
  }
}

// --- mobility -----------------------------------------------------------------

TEST(Mobility, StaticScheduleNeverMoves) {
  StaticSchedule schedule({0, 1, 2}, 5);
  for (std::uint32_t r = 0; r < 10; ++r) {
    EXPECT_EQ(schedule.placeOf(0, r), 0u);
    EXPECT_EQ(schedule.placeOf(2, r), 2u);
    EXPECT_TRUE(schedule.movedGateways(r).empty());
  }
}

TEST(Mobility, ScriptedScheduleFollowsScript) {
  // Table 1's scenario: A,B,C → A,C,D → C,D,E  (places 0..4 = A..E).
  ScriptedSchedule schedule({{0, 1, 2}, {0, 3, 2}, {4, 3, 2}}, 5);
  EXPECT_EQ(schedule.placeOf(1, 0), 1u);
  EXPECT_EQ(schedule.placeOf(1, 1), 3u);  // B → D
  EXPECT_EQ(schedule.movedGateways(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(schedule.movedGateways(2), (std::vector<std::size_t>{0}));
  // Past the script's end the last round holds.
  EXPECT_EQ(schedule.placeOf(0, 9), 4u);
  EXPECT_TRUE(schedule.movedGateways(3).empty());
}

TEST(Mobility, RotatingRandomMovesOnePerRound) {
  RotatingRandomSchedule schedule(3, 6, 42);
  for (std::uint32_t r = 1; r <= 20; ++r) {
    const auto moved = schedule.movedGateways(r);
    EXPECT_LE(moved.size(), 1u);
    // No two gateways share a place.
    std::set<std::size_t> places;
    for (std::size_t g = 0; g < 3; ++g) places.insert(schedule.placeOf(g, r));
    EXPECT_EQ(places.size(), 3u);
  }
}

TEST(Mobility, RotatingRandomEventuallyVisitsAllPlaces) {
  RotatingRandomSchedule schedule(2, 4, 11);
  std::set<std::size_t> visited;
  for (std::uint32_t r = 0; r < 60; ++r)
    for (std::size_t g = 0; g < 2; ++g) visited.insert(schedule.placeOf(g, r));
  EXPECT_EQ(visited.size(), 4u);  // MLR table convergence precondition
}

TEST(Mobility, RandomAccessAfterAdvance) {
  RotatingRandomSchedule schedule(2, 5, 3);
  const auto late = schedule.placeOf(0, 10);
  EXPECT_EQ(schedule.placeOf(0, 10), late);  // history is stable
  (void)schedule.placeOf(1, 2);              // going back works
}

}  // namespace
}  // namespace wmsn::net
