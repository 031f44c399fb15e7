#include "net/sensor_network.hpp"

#include <deque>

#include "obs/perf_stats.hpp"
#include "util/require.hpp"

namespace wmsn::net {

SensorNetwork::SensorNetwork(sim::Simulator& simulator,
                             std::unique_ptr<RadioModel> radio,
                             SensorNetworkParams params)
    : simulator_(simulator),
      radio_(std::move(radio)),
      params_(params),
      rng_(params.seed),
      // Grid cells sized to the radio's nominal range: a range query then
      // touches at most a 3×3 cell block (docs/KERNEL.md).
      block_(this->radio_->nominalRange()),
      tracer_(params.trace) {
  WMSN_REQUIRE(radio_ != nullptr);
  medium_ = std::make_unique<Medium>(simulator_, *radio_, params_.energy,
                                     *this, params_.medium, rng_.fork());
  medium_->setHotState(&block_);
  medium_->setTracer(&tracer_);
}

NodeId SensorNetwork::addNode(NodeKind kind, Point position) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  const NodeId slot = block_.add(position.x, position.y);
  WMSN_REQUIRE(slot == id);
  batteries_.push_back(
      (kind == NodeKind::kSensor || params_.gatewaysBatteryLimited)
          ? Battery(params_.energy.initialEnergyJ)
          : Battery::infinite());
  auto node =
      std::make_unique<Node>(id, kind, block_, batteries_, rng_.fork());
  // wmsn:fixed-draws — the MAC kind is an immutable scenario constant, so
  // every node forks the same number of child streams on replay.
  switch (params_.mac) {
    case MacKind::kIdeal:
      node->setMac(std::make_unique<IdealMac>(*medium_, id));
      break;
    case MacKind::kCsma:
      node->setMac(std::make_unique<CsmaMac>(
          *medium_, simulator_, macSlots_, id, rng_.fork(), params_.csma,
          params_.queue, &stats_, &tracer_));
      break;
  }
  nodes_.push_back(std::move(node));
  (kind == NodeKind::kSensor ? sensorIds_ : gatewayIds_).push_back(id);
  return id;
}

NodeId SensorNetwork::addSensor(Point position) {
  return addNode(NodeKind::kSensor, position);
}

NodeId SensorNetwork::addGateway(Point position) {
  return addNode(NodeKind::kGateway, position);
}

Node& SensorNetwork::node(NodeId id) {
  WMSN_REQUIRE(id < nodes_.size());
  return *nodes_[id];
}

const Node& SensorNetwork::node(NodeId id) const {
  WMSN_REQUIRE(id < nodes_.size());
  return *nodes_[id];
}

std::vector<NodeId> SensorNetwork::neighborsOf(NodeId id) const {
  WMSN_REQUIRE(id < nodes_.size());
  const Point here{block_.x(id), block_.y(id)};
  WMSN_PERF(kNeighborScans);
  block_.grid().query(here.x, here.y, radio_->nominalRange(), queryScratch_);
  WMSN_PERF(kGridQueries);
  WMSN_PERF(kPairsExamined, queryScratch_.size());
  std::vector<NodeId> out;
  for (const std::uint32_t other : queryScratch_) {
    if (other == id || !block_.alive(other)) continue;
    if (radio_->linked(here, Point{block_.x(other), block_.y(other)}))
      out.push_back(other);
  }
  return out;
}

bool SensorNetwork::allSensorsCovered() const {
  // BFS from all alive gateways simultaneously over alive nodes.
  std::vector<bool> reached(nodes_.size(), false);
  std::deque<NodeId> frontier;
  for (NodeId g : gatewayIds_) {
    if (nodes_[g]->alive()) {
      reached[g] = true;
      frontier.push_back(g);
    }
  }
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    for (NodeId nbr : neighborsOf(cur)) {
      if (!reached[nbr]) {
        reached[nbr] = true;
        frontier.push_back(nbr);
      }
    }
  }
  for (NodeId s : sensorIds_)
    if (nodes_[s]->alive() && !reached[s]) return false;
  return true;
}

std::size_t SensorNetwork::aliveSensorCount() const {
  std::size_t count = 0;
  for (NodeId s : sensorIds_)
    if (nodes_[s]->alive()) ++count;
  return count;
}

std::optional<sim::Time> SensorNetwork::firstSensorDeathTime() const {
  std::optional<sim::Time> first;
  for (NodeId s : sensorIds_) {
    const auto t = nodes_[s]->deathTime();
    if (t && (!first || *t < *first)) first = t;
  }
  return first;
}

void SensorNetwork::sendFrom(NodeId id, Packet packet) {
  Node& sender = node(id);
  if (!sender.alive()) return;
  WMSN_PERF(kFramesOffered);
  packet.hopSrc = id;
  if (packet.uid == 0) packet.uid = nextPacketUid();
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(&tracer_,
               packet.origin == id ? obs::TraceSpanKind::kEnqueue
                                   : obs::TraceSpanKind::kForward,
               simulator_.now().us, packet.uid, id, packet.hopDst,
               obs::TraceDropReason::kNone, packet.hops,
               static_cast<std::uint32_t>(packet.sizeBytes()));
  if (!frameObservers_.empty())
    frameObservers_.notify(packet, id, /*transmit=*/true);
  sender.mac().send(std::move(packet));
}

void SensorNetwork::sendLongRangeFrom(NodeId from, NodeId to, Packet packet) {
  if (!node(from).alive()) return;
  if (packet.uid == 0) packet.uid = nextPacketUid();
  medium_->transmitLongRange(from, to, std::move(packet));
}

void SensorNetwork::chargeCrypto(NodeId id, std::size_t bytes) {
  Node& n = node(id);
  if (!n.alive()) return;
  if (!n.battery().drawCpu(params_.energy.cpuCost(bytes))) handleDeath(id);
}

void SensorNetwork::setGatewayPosition(NodeId id, Point position) {
  Node& n = node(id);
  WMSN_REQUIRE_MSG(n.isGateway(), "only gateways move (§5.1)");
  n.setPosition(position);
}

void SensorNetwork::chargeTx(NodeId id, double joules) {
  if (!nodes_[id]->battery().drawTx(joules)) handleDeath(id);
}

void SensorNetwork::chargeRx(NodeId id, double joules) {
  if (!nodes_[id]->battery().drawRx(joules)) handleDeath(id);
}

void SensorNetwork::handleDeath(NodeId id) {
  nodes_[id]->kill(simulator_.now());
}

void SensorNetwork::deliverFrame(NodeId to, const Packet& packet,
                                 NodeId from) {
  WMSN_PERF(kFramesReceived);
  // One kRecv per decoded hop at the addressed receiver — the per-hop path
  // the trace analyzer reconstructs. Promiscuous/broadcast copies are not
  // path hops and stay untraced.
  if (packet.kind == PacketKind::kData && packet.hopDst == to)
    WMSN_TRACE(&tracer_, obs::TraceSpanKind::kRecv, simulator_.now().us,
               packet.uid, to, from, obs::TraceDropReason::kNone, packet.hops,
               static_cast<std::uint32_t>(packet.sizeBytes()));
  if (!frameObservers_.empty())
    frameObservers_.notify(packet, to, /*transmit=*/false);
  node(to).receive(packet, from);
}

void SensorNetwork::noteTransmit(PacketKind kind, std::size_t bytes) {
  stats_.onTransmit(kind, bytes);
}

}  // namespace wmsn::net
