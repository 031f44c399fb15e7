#include "net/medium.hpp"

#include <algorithm>

#include "obs/perf_stats.hpp"
#include "util/require.hpp"

namespace wmsn::net {

Medium::Medium(sim::Simulator& simulator, const RadioModel& radio,
               const EnergyParams& energy, MediumHost& host,
               MediumParams params, Rng rng)
    : simulator_(simulator),
      radio_(radio),
      energy_(energy),
      host_(host),
      params_(params),
      rng_(rng) {
  WMSN_REQUIRE(params_.bitrateBps > 0.0);
}

sim::Time Medium::airTime(const Packet& packet) const {
  const double seconds =
      static_cast<double>(packet.sizeBits()) / params_.bitrateBps;
  return sim::Time::microseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(seconds * 1e6)));
}

void Medium::setPromiscuous(NodeId id, bool enabled) {
  if (enabled)
    promiscuous_.insert(id);
  else
    promiscuous_.erase(id);
}

bool Medium::channelBusy(NodeId at) const {
  return at < busyUntil_.size() && simulator_.now() < busyUntil_[at];
}

fault::GilbertElliottChain& Medium::chainFor(NodeId rx) {
  auto it = linkChains_.find(rx);
  if (it == linkChains_.end()) {
    // Each receiver gets its own chain with its own RNG stream so the order
    // in which receivers first hear a frame cannot shift anyone's draws.
    const std::uint64_t seed =
        params_.linkLossSeed ^ (static_cast<std::uint64_t>(rx) * 0x9e3779b97f4a7c15ULL);
    it = linkChains_.emplace(rx, fault::GilbertElliottChain(params_.linkLoss, seed))
             .first;
  }
  return it->second;
}

bool Medium::idle() const {
  return freeSlots_.size() == slots_.size() &&
         std::all_of(slots_.begin(), slots_.end(),
                     [](const Reception& r) { return r.frame == nullptr; }) &&
         std::all_of(rxOngoing_.begin(), rxOngoing_.end(),
                     [](const auto& ongoing) { return ongoing.empty(); });
}

std::uint32_t Medium::acquireSlot() {
  if (freeSlots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = freeSlots_.back();
  freeSlots_.pop_back();
  return slot;
}

void Medium::transmit(NodeId from, Packet packet) {
  const std::uint32_t retries =
      (params_.unicastArq && packet.hopDst != kBroadcastId)
          ? params_.maxArqRetries
          : 0;
  // One immutable frame per transmission: every receiver and every ARQ
  // retransmission shares it.
  packet.hopSrc = from;
  transmitAttempt(std::make_shared<const Packet>(std::move(packet)), retries);
}

void Medium::transmitAttempt(const Frame& frame, std::uint32_t retriesLeft) {
  WMSN_REQUIRE_MSG(hot_ != nullptr, "Medium::setHotState not wired");
  const Packet& packet = *frame;
  const NodeId from = packet.hopSrc;
  if (!hot_->alive(from)) return;

  const sim::Time now = simulator_.now();
  const sim::Time end = now + airTime(packet);
  const Point srcPos{hot_->x(from), hot_->y(from)};
  const std::size_t bits = packet.sizeBits();

  ++framesTransmitted_;
  WMSN_PERF(kFramesTransmitted);
  host_.noteTransmit(packet.kind, packet.sizeBytes());
  // Fixed transmit power sized to the nominal range (§5.2: identical power).
  host_.chargeTx(from, energy_.txCost(bits, radio_.nominalRange()));
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(tracer_, obs::TraceSpanKind::kMacTx, now.us, packet.uid, from,
               packet.hopDst, obs::TraceDropReason::kNone, retriesLeft,
               static_cast<std::uint32_t>(packet.sizeBytes()));

  const std::size_t n = hot_->size();
  if (busyUntil_.size() < n) busyUntil_.resize(n, sim::Time{});
  if (rxOngoing_.size() < n) rxOngoing_.resize(n);

  // Candidate receivers from the spatial grid: everyone whose cell
  // intersects the transmit disk, ascending by id so draw order matches the
  // old 0..n-1 scan byte for byte.
  hot_->grid().query(srcPos.x, srcPos.y, radio_.nominalRange(), scratch_);
  WMSN_PERF(kGridQueries);
  WMSN_PERF(kPairsExamined, scratch_.size());
  for (const std::uint32_t rx : scratch_) {
    const Point rxPos{hot_->x(rx), hot_->y(rx)};
    if (!radio_.linked(srcPos, rxPos)) continue;
    // Every radio in range hears energy on the channel — including the
    // sender itself and nodes that are asleep, failed, or dead. Carrier
    // sense is about the channel, not about who can decode.
    if (busyUntil_[rx] < end) busyUntil_[rx] = end;
    if (rx == from || !hot_->listening(rx)) continue;

    auto& ongoing = rxOngoing_[rx];
    bool corrupted = false;
    if (params_.collisions) {
      for (const std::uint32_t other : ongoing) {
        Reception& o = slots_[other];
        // A reception that ends now is over; only its rx-end event, due at
        // this same instant, has yet to free it.
        if (o.end <= now) continue;
        // Receiver capture: the radio stays locked on the frame it started
        // decoding first; a later-arriving overlapping frame is lost, but
        // does not corrupt the locked one. Simultaneous starts jam both.
        if (o.start >= now) o.corrupted = true;
        corrupted = true;
      }
    }

    const double pDeliver = radio_.deliveryProbability(srcPos, rxPos);
    WMSN_PERF(kRngDraws);
    const bool channelOk = rng_.chance(pDeliver);
    // Bursty fault-injection loss rides on top of the distance-based channel
    // model. The chain draws from its own stream, so when the model is
    // disabled no draw happens and the run is byte-identical to a build
    // without it.
    const bool linkOk =
        !params_.linkLoss.enabled || !chainFor(rx).step();

    const std::uint32_t slot = acquireSlot();
    slots_[slot] = Reception{.start = now,
                             .end = end,
                             .frame = frame,
                             .receiver = rx,
                             .retriesLeft = retriesLeft,
                             .corrupted = corrupted,
                             .channelOk = channelOk,
                             .linkOk = linkOk,
                             .isArqTarget = packet.hopDst == rx};
    ongoing.push_back(slot);
    simulator_.scheduleAt(end, [this, slot] { endReception(slot); });
  }
}

void Medium::endReception(std::uint32_t slot) {
  // Copy the reception out and free its slot before anything else runs: the
  // receive handler below can start transmissions that grow the table.
  Reception& r = slots_[slot];
  const NodeId rxId = r.receiver;
  const bool corrupted = r.corrupted;
  const bool channelOk = r.channelOk;
  const bool linkOk = r.linkOk;
  const bool isArqTarget = r.isArqTarget;
  const std::uint32_t retriesLeft = r.retriesLeft;
  Frame frame = std::move(r.frame);
  auto& ongoing = rxOngoing_[rxId];
  const auto it = std::find(ongoing.begin(), ongoing.end(), slot);
  WMSN_INVARIANT_MSG(it != ongoing.end(),
                     "a reception stays on its receiver's list until rx-end");
  *it = ongoing.back();
  ongoing.pop_back();
  freeSlots_.push_back(slot);

  const Packet& packet = *frame;
  const NodeId from = packet.hopSrc;
  const bool rxAlive = hot_->listening(rxId);
  const bool decoded = rxAlive && !corrupted && channelOk && linkOk;
  if (rxAlive) {
    // The radio listened for the whole frame either way.
    host_.chargeRx(rxId, energy_.rxCost(packet.sizeBits()));
    if (corrupted) {
      ++framesCorrupted_;
      host_.noteCollision();
    }
    if (!corrupted && channelOk && !linkOk) ++framesLinkFaultDropped_;
  }

  // wmsn:fixed-draws — addressing, the ARQ budget and the decode outcome
  // are simulation state (the outcome's own draws happened at transmit).
  if (isArqTarget && retriesLeft > 0 && !decoded) {
    // 802.15.4 AUTO-ACK ARQ: no immediate ACK arrived — retransmit the same
    // frame after the turnaround plus a short random backoff.
    ++arqRetransmissions_;
    WMSN_PERF(kRngDraws);
    const sim::Time backoff =
        params_.arqTurnaround +
        sim::Time::microseconds(rng_.uniformInt(0, 1000));
    simulator_.schedule(backoff,
                        [this, frame = std::move(frame), retriesLeft] {
                          transmitAttempt(frame, retriesLeft - 1);
                        });
    return;
  }
  if (!decoded) {
    // Terminal link-layer loss at the addressed receiver (ARQ budget — if
    // any — is spent): attribute the hop's fate for the analyzer.
    if (isArqTarget && packet.kind == PacketKind::kData)
      WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop, simulator_.now().us,
                 packet.uid, rxId, from,
                 corrupted ? obs::TraceDropReason::kCollision
                           : obs::TraceDropReason::kLinkLoss,
                 packet.hops, static_cast<std::uint32_t>(packet.sizeBytes()));
    return;
  }

  if (isArqTarget && params_.unicastArq) {
    // Successful unicast: account the immediate-ACK exchange (the ACK
    // itself is modelled as reliable — it rides the SIFS turnaround).
    const std::size_t ackBits = params_.ackFrameBytes * 8;
    host_.chargeTx(rxId, energy_.txCost(ackBits, radio_.nominalRange()));
    host_.chargeRx(from, energy_.rxCost(ackBits));
  }

  if (packet.hopDst != kBroadcastId && packet.hopDst != rxId &&
      !promiscuous_.contains(rxId))
    return;
  host_.deliverFrame(rxId, packet, from);
}

void Medium::transmitLongRange(NodeId from, NodeId to, Packet packet) {
  WMSN_REQUIRE_MSG(hot_ != nullptr, "Medium::setHotState not wired");
  if (!hot_->alive(from)) return;
  const sim::Time end = simulator_.now() + airTime(packet);
  const double d = distance(Point{hot_->x(from), hot_->y(from)},
                            Point{hot_->x(to), hot_->y(to)});
  const std::size_t bits = packet.sizeBits();

  packet.hopSrc = from;
  packet.hopDst = to;
  ++framesTransmitted_;
  WMSN_PERF(kFramesTransmitted);
  host_.noteTransmit(packet.kind, packet.sizeBytes());
  host_.chargeTx(from, energy_.txCost(bits, d));

  // One receiver, so the frame moves into the event rather than into a
  // shared handle.
  simulator_.scheduleAt(end, [this, packet = std::move(packet)] {
    const NodeId to = packet.hopDst;
    if (!hot_->listening(to)) return;
    host_.chargeRx(to, energy_.rxCost(packet.sizeBits()));
    host_.deliverFrame(to, packet, packet.hopSrc);
  });
}

}  // namespace wmsn::net
