#include <gtest/gtest.h>

#include "mesh/mesh_network.hpp"
#include "mesh/mesh_routing.hpp"
#include "mesh/mesh_topology.hpp"
#include "mesh/wmsn_stack.hpp"
#include "routing/mlr.hpp"
#include "routing/protocol.hpp"
#include "util/require.hpp"

namespace wmsn::mesh {
namespace {

/// Hand-built backhaul: two WMGs, a WMR chain, one base station.
///    WMG0(0,0) — WMR2(200,0) — WMR3(400,0) — BASE4(600,0)
///    WMG1(0,200) — WMR2? no: WMG1 links to WMR2 via 200√2 ≈ 283 > 250 —
///    give WMG1 its own relay WMR5(200,200) → WMR3.
MeshTopology testTopology() {
  MeshTopology topo;
  topo.linkRange = 250.0;
  topo.nodes = {
      {{0, 0}, MeshNodeKind::kWmg},      // 0
      {{0, 200}, MeshNodeKind::kWmg},    // 1
      {{200, 0}, MeshNodeKind::kWmr},    // 2
      {{400, 0}, MeshNodeKind::kWmr},    // 3
      {{600, 0}, MeshNodeKind::kBaseStation},  // 4
      {{200, 200}, MeshNodeKind::kWmr},  // 5 (links WMG1 → WMR2/WMR3? 5→3 is
                                         //    283: no; 5→2 is 200: yes)
  };
  return topo;
}

TEST(MeshTopology, LinksByRange) {
  const MeshTopology topo = testTopology();
  EXPECT_TRUE(topo.linked(0, 2));
  EXPECT_FALSE(topo.linked(0, 3));
  EXPECT_FALSE(topo.linked(0, 0));
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.idsOf(MeshNodeKind::kWmg).size(), 2u);
  EXPECT_EQ(topo.idsOf(MeshNodeKind::kBaseStation),
            (std::vector<MeshNodeId>{4}));
}

TEST(MeshTopology, GeneratorProducesConnectedLayout) {
  Rng rng(3);
  MeshTopologyParams params;
  params.wmrCount = 9;
  const auto topo = makeMeshTopology(
      params, {{100, 100}, {500, 500}, {900, 100}}, rng);
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.idsOf(MeshNodeKind::kWmg).size(), 3u);
}

TEST(MeshRouting, HopCountsTowardBase) {
  const MeshTopology topo = testTopology();
  MeshRoutingTable table(topo);
  EXPECT_EQ(table.hopsToBase(4), 0u);
  EXPECT_EQ(table.hopsToBase(3), 1u);
  EXPECT_EQ(table.hopsToBase(2), 2u);
  EXPECT_EQ(table.hopsToBase(0), 3u);
  EXPECT_EQ(table.hopsToBase(1), 4u);  // via 5 → 2 → 3 → 4
  EXPECT_EQ(table.nextHopToBase(3), 4u);
  EXPECT_EQ(table.nextHopToBase(0), 2u);
}

TEST(MeshRouting, RecomputeRoutesAroundDeadNode) {
  const MeshTopology topo = testTopology();
  MeshRoutingTable table(topo);
  std::vector<bool> alive(topo.nodes.size(), true);
  alive[2] = false;  // WMR2 dies: WMG0's only 200 m neighbour
  table.recompute(alive);
  EXPECT_EQ(table.hopsToBase(2), net::kUnreachableHops);
  EXPECT_EQ(table.hopsToBase(0), net::kUnreachableHops);
  EXPECT_EQ(table.hopsToBase(3), 1u);  // unaffected branch
}

TEST(MeshNetwork, DeliversToBaseWithLatency) {
  sim::Simulator simulator;
  MeshNetwork mesh(simulator, testTopology(), {}, Rng(1));
  int delivered = 0;
  std::uint32_t hops = 0;
  mesh.setBaseDelivery([&](const MeshMessage& msg, MeshNodeId base,
                           sim::Time) {
    ++delivered;
    hops = msg.hops;
    EXPECT_EQ(base, 4u);
  });
  mesh.inject(0, 101, 64);
  simulator.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(hops, 3u);
  EXPECT_EQ(mesh.delivered(), 1u);
  EXPECT_GT(mesh.latencyStats().mean(), 0.0);
}

TEST(MeshNetwork, SelfHealsAroundMidRouteFailure) {
  // Kill WMR3 (the only path for WMR2 → base is 2→3→4; after 3 dies, 2 has
  // no route — but WMG1's relay 5 doesn't help 2 either: 2→5→? 5 links only
  // to 1 and 2. So traffic from WMG0 is dropped). Verify the drop counter
  // AND that traffic before the failure got through.
  sim::Simulator simulator;
  MeshNetwork mesh(simulator, testTopology(), {}, Rng(1));
  mesh.inject(0, 1, 64);
  simulator.run();
  EXPECT_EQ(mesh.delivered(), 1u);
  mesh.setNodeAlive(3, false);
  mesh.inject(0, 2, 64);
  simulator.run();
  EXPECT_EQ(mesh.delivered(), 1u);
  EXPECT_EQ(mesh.dropped(), 1u);
  // Recovery: bring 3 back, traffic flows again.
  mesh.setNodeAlive(3, true);
  mesh.inject(0, 3, 64);
  simulator.run();
  EXPECT_EQ(mesh.delivered(), 2u);
  EXPECT_DOUBLE_EQ(mesh.deliveryRatio(), 2.0 / 3.0);
}

TEST(MeshNetwork, ReroutesMidFlightWhenNextHopDies) {
  // A message in flight re-decides at each hop: kill the old next hop while
  // the frame is in transit on the previous link.
  sim::Simulator simulator;
  MeshTopology topo = testTopology();
  // Add an alternative relay so a detour exists: WMR6 at (400, 200):
  // links to 5 (200), 3 (200), and base? (600-400, 0-200) = 283: no.
  topo.nodes.push_back(MeshNodeSpec{{400, 200}, MeshNodeKind::kWmr});
  MeshNetwork mesh(simulator, topo, {}, Rng(1));
  mesh.inject(1, 9, 64);  // WMG1 → 5 → 2 → 3 → 4
  // While the first hop is in the air, kill WMR2: the message should detour
  // 5 → 6 → 3 → 4.
  simulator.schedule(sim::Time::microseconds(400),
                     [&] { mesh.setNodeAlive(2, false); });
  simulator.run();
  EXPECT_EQ(mesh.delivered(), 1u);
}

TEST(MeshNetwork, LinkLossDropsProbabilistically) {
  sim::Simulator simulator;
  MeshParams params;
  params.linkLossProbability = 1.0;  // every hop fails
  MeshNetwork mesh(simulator, testTopology(), params, Rng(1));
  mesh.inject(0, 1, 64);
  simulator.run();
  EXPECT_EQ(mesh.delivered(), 0u);
  EXPECT_EQ(mesh.dropped(), 1u);
}

TEST(MeshNetwork, ForwardLoadTracked) {
  sim::Simulator simulator;
  MeshNetwork mesh(simulator, testTopology(), {}, Rng(1));
  for (int i = 0; i < 5; ++i) mesh.inject(0, 100 + i, 64);
  simulator.run();
  EXPECT_EQ(mesh.forwardLoad().at(2), 5u);
  EXPECT_EQ(mesh.forwardLoad().at(3), 5u);
}

// --- the full three-tier stack ---------------------------------------------------

TEST(WmsnStack, SensorReadingReachesBaseStation) {
  sim::Simulator simulator;

  // Sensor tier: 3 sensors in a line, 1 gateway.
  net::SensorNetworkParams netParams;
  netParams.mac = net::MacKind::kIdeal;
  netParams.medium.collisions = false;
  net::SensorNetwork sensorNet(
      simulator, std::make_unique<net::UnitDiskRadio>(25.0), netParams);
  for (int i = 0; i < 3; ++i)
    sensorNet.addSensor({20.0 * i, 0.0});
  routing::NetworkKnowledge knowledge;
  knowledge.feasiblePlaces = {{-20.0, 0.0}};
  knowledge.gatewayIds.push_back(sensorNet.addGateway({-20.0, 0.0}));
  routing::ProtocolStack stack(
      sensorNet, knowledge,
      [](net::SensorNetwork& n, net::NodeId id,
         const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::MlrRouting>(n, id, k);
      });
  stack.startAll();

  // Mesh tier sharing the same simulator.
  MeshNetwork mesh(simulator, testTopology(), {}, Rng(2));
  WmsnStack wmsn(mesh);
  wmsn.attach(sensorNet, {{knowledge.gatewayIds[0], MeshNodeId{0}}});

  stack.beginRound(0);
  dynamic_cast<routing::MlrRouting&>(stack.at(knowledge.gatewayIds[0]))
      .announceMove(0, routing::kNoPlace, 0);
  simulator.runUntil(sim::Time::seconds(1.0));

  stack.at(2).originate(Bytes(24, 7));
  simulator.runUntil(sim::Time::seconds(5.0));

  EXPECT_EQ(wmsn.readingsAtGateways(), 1u);
  EXPECT_EQ(wmsn.readingsAtBase(), 1u);
  EXPECT_EQ(wmsn.endToEndLatency().count(), 1u);
  EXPECT_GT(wmsn.endToEndLatency().mean(), 0.0);
}

TEST(WmsnStack, GatewayFailureKillsBothTiers) {
  sim::Simulator simulator;
  net::SensorNetworkParams netParams;
  netParams.mac = net::MacKind::kIdeal;
  netParams.medium.collisions = false;
  net::SensorNetwork sensorNet(
      simulator, std::make_unique<net::UnitDiskRadio>(25.0), netParams);
  sensorNet.addSensor({0.0, 0.0});
  routing::NetworkKnowledge knowledge;
  knowledge.feasiblePlaces = {{-20.0, 0.0}};
  knowledge.gatewayIds.push_back(sensorNet.addGateway({-20.0, 0.0}));
  routing::ProtocolStack stack(
      sensorNet, knowledge,
      [](net::SensorNetwork& n, net::NodeId id,
         const routing::NetworkKnowledge& k) {
        return std::make_unique<routing::MlrRouting>(n, id, k);
      });
  stack.startAll();

  MeshNetwork mesh(simulator, testTopology(), {}, Rng(2));
  WmsnStack wmsn(mesh);
  wmsn.attach(sensorNet, {{knowledge.gatewayIds[0], MeshNodeId{0}}});

  wmsn.setGatewayAlive(sensorNet, knowledge.gatewayIds[0], false);
  EXPECT_FALSE(sensorNet.node(knowledge.gatewayIds[0]).alive());
  EXPECT_FALSE(mesh.nodeAlive(0));

  stack.beginRound(0);
  stack.at(0).originate(Bytes(24, 7));
  simulator.runUntil(sim::Time::seconds(2.0));
  EXPECT_EQ(wmsn.readingsAtBase(), 0u);
}

TEST(WmsnStack, AttachValidatesMapping) {
  sim::Simulator simulator;
  net::SensorNetworkParams netParams;
  net::SensorNetwork sensorNet(
      simulator, std::make_unique<net::UnitDiskRadio>(25.0), netParams);
  const auto sensor = sensorNet.addSensor({0, 0});
  MeshNetwork mesh(simulator, testTopology(), {}, Rng(2));
  WmsnStack wmsn(mesh);
  // A sensor is not a gateway.
  EXPECT_THROW(wmsn.attach(sensorNet, {{sensor, MeshNodeId{0}}}),
               PreconditionError);
  // A WMR is not a WMG.
  const auto gw = sensorNet.addGateway({10, 0});
  EXPECT_THROW(wmsn.attach(sensorNet, {{gw, MeshNodeId{2}}}),
               PreconditionError);
}

}  // namespace
}  // namespace wmsn::mesh
