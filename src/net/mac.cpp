#include "net/mac.hpp"

#include <algorithm>

#include "obs/perf_stats.hpp"
#include "obs/profiler.hpp"
#include "util/invariants.hpp"
#include "util/require.hpp"

namespace wmsn::net {

std::string toString(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kDropTail: return "drop-tail";
    case QueuePolicy::kDropOldest: return "drop-oldest";
  }
  return "unknown";
}

std::uint32_t ContentionSlots::put(Packet packet) {
  if (free_.empty()) {
    packets_.push_back(std::move(packet));
    return static_cast<std::uint32_t>(packets_.size() - 1);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  packets_[slot] = std::move(packet);
  return slot;
}

Packet ContentionSlots::take(std::uint32_t slot) {
  Packet packet = std::move(packets_[slot]);
  packets_[slot] = Packet{};
  free_.push_back(slot);
  return packet;
}

CsmaMac::CsmaMac(Medium& medium, sim::Simulator& simulator,
                 ContentionSlots& slots, NodeId self, Rng rng,
                 CsmaParams params, QueueParams queue, TrafficStats* stats,
                 obs::PacketTracer* tracer)
    : medium_(medium),
      simulator_(simulator),
      slots_(slots),
      self_(self),
      rng_(rng),
      params_(params),
      queue_(queue),
      stats_(stats),
      tracer_(tracer) {}

void CsmaMac::send(Packet packet) {
  if (queue_.capacity == 0) {
    // Legacy discipline: every frame contends independently; nothing ever
    // waits behind another frame and nothing is dropped for buffer space.
    serve(std::move(packet));
    return;
  }
  if (!busy_) {
    busy_ = true;
    serve(std::move(packet));
    return;
  }
  if (waiting_.size() >= queue_.capacity) {
    ++queueDrops_;
    if (stats_) stats_->onQueueDrop(self_);
    // The victim is the newcomer under drop-tail, the stalest waiting frame
    // under drop-oldest.
    const Packet& victim =
        queue_.policy == QueuePolicy::kDropTail ? packet : waiting_.front();
    if (victim.kind == PacketKind::kData)
      WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop, simulator_.now().us,
                 victim.uid, self_, victim.hopDst,
                 obs::TraceDropReason::kQueueOverflow, victim.hops,
                 static_cast<std::uint32_t>(victim.sizeBytes()));
    if (queue_.policy == QueuePolicy::kDropTail) return;
    // Drop-oldest: the stalest waiting frame makes room for the newcomer
    // (sensing data ages fast; fresh readings matter more).
    waiting_.pop_front();
    waiting_.push_back(std::move(packet));
    WMSN_INVARIANT_MSG(
        inv::queueWithinCapacity(waiting_.size(), queue_.capacity),
        "finite MAC transmit queue depth never exceeds its capacity");
    return;  // depth unchanged — no integral update needed
  }
  noteDepthChange();
  waiting_.push_back(std::move(packet));
  peakDepth_ = std::max(peakDepth_, waiting_.size());
  WMSN_INVARIANT_MSG(
      inv::queueWithinCapacity(waiting_.size(), queue_.capacity) &&
          inv::queueWithinCapacity(peakDepth_, queue_.capacity),
      "finite MAC transmit queue depth never exceeds its capacity");
  if (stats_) stats_->onQueueDepth(self_, waiting_.size());
}

void CsmaMac::serve(Packet packet) {
  // Initial random jitter de-synchronises nodes that react to the same
  // broadcast (e.g. a flood) in the same event — otherwise they would all
  // sense an idle channel simultaneously and collide deterministically.
  WMSN_PERF(kRngDraws);
  const sim::Time jitter = sim::Time::microseconds(
      rng_.uniformInt(0, params_.backoffUnit.us * 8));
  const std::uint32_t slot = slots_.put(std::move(packet));
  simulator_.schedule(jitter, [this, slot] { attempt(slot, 0); });
}

void CsmaMac::attempt(std::uint32_t slot, std::uint32_t tries) {
  WMSN_PROFILE_PHASE(kMacContention);
  if (!medium_.channelBusy(self_)) {
    Packet packet = slots_.take(slot);
    const sim::Time air = medium_.airTime(packet);
    medium_.transmit(self_, std::move(packet));
    // With a finite queue the MAC is half-duplex: the next waiting frame
    // starts contending only after this one's air time elapses.
    if (queue_.capacity > 0)
      simulator_.schedule(air, [this] { serveNext(); });
    return;
  }
  const Packet& packet = slots_.at(slot);
  if (tries + 1 >= params_.maxAttempts) {
    ++drops_;
    if (stats_) stats_->onMacDrop();
    if (packet.kind == PacketKind::kData)
      WMSN_TRACE(tracer_, obs::TraceSpanKind::kDrop, simulator_.now().us,
                 packet.uid, self_, packet.hopDst,
                 obs::TraceDropReason::kMacExhausted, tries + 1,
                 static_cast<std::uint32_t>(packet.sizeBytes()));
    // Free the slot before serveNext, which may take one (and grow the
    // table under `packet`).
    slots_.take(slot);
    if (queue_.capacity > 0) serveNext();
    return;
  }
  if (packet.kind == PacketKind::kData)
    WMSN_TRACE(tracer_, obs::TraceSpanKind::kMacBackoff, simulator_.now().us,
               packet.uid, self_, packet.hopDst, obs::TraceDropReason::kNone,
               tries + 1, static_cast<std::uint32_t>(packet.sizeBytes()));
  WMSN_PERF(kMacBackoffs);
  WMSN_PERF(kRngDraws);
  const std::uint32_t be = std::min(params_.minBackoffExponent + tries,
                                    params_.maxBackoffExponent);
  const std::int64_t slots = rng_.uniformInt(1, (1 << be) - 1);
  simulator_.schedule(sim::Time::microseconds(slots * params_.backoffUnit.us),
                      [this, slot, tries] { attempt(slot, tries + 1); });
}

void CsmaMac::serveNext() {
  if (waiting_.empty()) {
    busy_ = false;
    return;
  }
  noteDepthChange();
  Packet next = std::move(waiting_.front());
  waiting_.pop_front();
  serve(std::move(next));
}

void CsmaMac::noteDepthChange() {
  const sim::Time now = simulator_.now();
  depthIntegral_ += static_cast<double>(waiting_.size()) *
                    (now - lastDepthChange_).seconds();
  lastDepthChange_ = now;
}

double CsmaMac::queueDepthIntegral(sim::Time now) const {
  return depthIntegral_ + static_cast<double>(waiting_.size()) *
                              (now - lastDepthChange_).seconds();
}

}  // namespace wmsn::net
