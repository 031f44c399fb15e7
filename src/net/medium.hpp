#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/gilbert_elliott.hpp"
#include "net/energy.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "obs/packet_trace.hpp"
#include "sim/node_state.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace wmsn::net {

/// What the medium reports back to the node population. Implemented by
/// SensorNetwork; keeps Medium free of ownership cycles. Positions and the
/// alive/listening flags are not asked of the host: the medium reads them
/// from the sim::NodeStateBlock wired in with Medium::setHotState.
class MediumHost {
 public:
  virtual ~MediumHost() = default;

  /// Energy charges; the host applies them to the node's battery and handles
  /// node death.
  virtual void chargeTx(NodeId id, double joules) = 0;
  virtual void chargeRx(NodeId id, double joules) = 0;

  /// A frame addressed to `to` (unicast match or broadcast) decoded
  /// successfully.
  virtual void deliverFrame(NodeId to, const Packet& packet, NodeId from) = 0;

  /// Traffic accounting hooks.
  virtual void noteTransmit(PacketKind kind, std::size_t bytes) = 0;
  virtual void noteCollision() = 0;
};

struct MediumParams {
  double bitrateBps = 250'000.0;  ///< 802.15.4 payload bitrate
  bool collisions = true;         ///< overlapping receptions corrupt frames
  /// 802.15.4 AUTO-ACK link-layer ARQ: unicast frames that the addressed
  /// receiver fails to decode are retransmitted (macMaxFrameRetries).
  bool unicastArq = true;
  std::uint32_t maxArqRetries = 3;
  sim::Time arqTurnaround = sim::Time::microseconds(864);  ///< ACK wait
  std::size_t ackFrameBytes = 11;  ///< immediate-ACK frame size
  /// Bursty link impairment (fault injection): each receiver runs its own
  /// Gilbert–Elliott chain, stepped once per short-range frame it hears.
  /// The chains draw from their own RNG streams (derived from
  /// `linkLossSeed`, not the medium's), so disabling the model reproduces
  /// the unimpaired run byte-for-byte.
  fault::GilbertElliottParams linkLoss;
  std::uint64_t linkLossSeed = 0;
};

/// Shared broadcast radio channel. Every frame physically reaches all alive
/// nodes within radio range of the sender: all of them pay RX energy (radios
/// must decode the header before filtering), all of them can collide, and
/// the host delivers the frame to those the addressing matches — which is
/// exactly what lets routing protocols overhear and adversaries eavesdrop.
///
/// In-range candidates come from the network's sim::SpatialGrid (wired in
/// via setHotState right after construction), so a transmission costs O(k)
/// in the local neighborhood instead of the O(n) all-nodes sweep it used to.
/// Carrier sense and collision state are per-node — a busy-until horizon and
/// a per-receiver reception list — so neither ever scans a global vector.
///
/// Each transmission becomes one immutable, reference-counted frame that all
/// of its receivers share; each reception is a slot in a medium-owned table
/// (docs/KERNEL.md, "Hot path"), so the fan-out allocates nothing per
/// receiver.
class Medium {
 public:
  Medium(sim::Simulator& simulator, const RadioModel& radio,
         const EnergyParams& energy, MediumHost& host, MediumParams params,
         Rng rng);

  /// Wires in the struct-of-arrays hot state (positions, alive/listening
  /// flags, spatial grid). Must be set before the first transmit;
  /// SensorNetwork does so in its constructor.
  void setHotState(const sim::NodeStateBlock* hot) { hot_ = hot; }

  /// Begin transmitting `packet` from node `from` at fixed power (nominal
  /// range). Delivery callbacks fire when the frame's air time elapses.
  /// Unicast frames get link-layer ARQ (see MediumParams::unicastArq).
  void transmit(NodeId from, Packet packet);

  /// Power-amplified point-to-point transmission over `distance` metres,
  /// bypassing the normal range limit — models LEACH's cluster-head → sink
  /// long-haul sends. No interference with the short-range channel.
  void transmitLongRange(NodeId from, NodeId to, Packet packet);

  /// Carrier sense: is any transmission in progress audible at `at`?
  bool channelBusy(NodeId at) const;

  /// Promiscuous mode: the node's radio delivers frames regardless of the
  /// link-layer destination. Honest sensor stacks never enable this; it is
  /// the eavesdropping primitive of the adversary models.
  void setPromiscuous(NodeId id, bool enabled);
  bool isPromiscuous(NodeId id) const { return promiscuous_.contains(id); }

  sim::Time airTime(const Packet& packet) const;

  /// Causal trace pipeline hookup (SensorNetwork wires its tracer in right
  /// after construction). nullptr disables medium-level span emission.
  void setTracer(obs::PacketTracer* tracer) { tracer_ = tracer; }

  std::uint64_t framesTransmitted() const { return framesTransmitted_; }
  std::uint64_t framesCorrupted() const { return framesCorrupted_; }
  std::uint64_t arqRetransmissions() const { return arqRetransmissions_; }
  /// Frames a receiver would have decoded but for Gilbert–Elliott loss.
  std::uint64_t framesLinkFaultDropped() const {
    return framesLinkFaultDropped_;
  }

  /// True when no reception is in flight: every slot is on the free list,
  /// no slot holds a frame handle, and no receiver lists an ongoing
  /// reception. Holds whenever the simulator's queue is empty.
  bool idle() const;

 private:
  using Frame = std::shared_ptr<const Packet>;

  /// One in-flight reception. Lives in `slots_` from the transmission that
  /// starts it until its rx-end event, which frees it.
  struct Reception {
    sim::Time start;
    sim::Time end;
    Frame frame;  ///< null while the slot is free
    NodeId receiver = kNoNode;
    std::uint32_t retriesLeft = 0;  ///< ARQ budget of the attempt
    bool corrupted = false;
    bool channelOk = false;  ///< distance-based delivery draw
    bool linkOk = false;     ///< Gilbert–Elliott chain step
    bool isArqTarget = false;
  };

  void transmitAttempt(const Frame& frame, std::uint32_t retriesLeft);
  void endReception(std::uint32_t slot);
  std::uint32_t acquireSlot();
  fault::GilbertElliottChain& chainFor(NodeId rx);

  sim::Simulator& simulator_;
  const RadioModel& radio_;
  const EnergyParams& energy_;
  MediumHost& host_;
  MediumParams params_;
  Rng rng_;
  obs::PacketTracer* tracer_ = nullptr;
  const sim::NodeStateBlock* hot_ = nullptr;

  /// Per-node carrier-sense horizon: the latest end time of any transmission
  /// whose sender was in range of this node when it keyed up. channelBusy is
  /// one array read; no transmission list is kept, let alone scanned.
  std::vector<sim::Time> busyUntil_;
  /// Reception slot table and its free list. Slot indices, never
  /// references, cross an event boundary: a receive handler can start new
  /// transmissions, and acquiring a slot can reallocate the table.
  std::vector<Reception> slots_;
  std::vector<std::uint32_t> freeSlots_;
  /// Per-receiver in-flight reception slots (collision bookkeeping). A slot
  /// leaves its receiver's list at its rx-end event.
  std::vector<std::vector<std::uint32_t>> rxOngoing_;
  /// Scratch for grid candidate queries — reused across transmissions.
  std::vector<std::uint32_t> scratch_;
  std::unordered_set<NodeId> promiscuous_;
  std::uint64_t framesTransmitted_ = 0;
  std::uint64_t framesCorrupted_ = 0;
  std::uint64_t arqRetransmissions_ = 0;
  std::unordered_map<NodeId, fault::GilbertElliottChain> linkChains_;
  std::uint64_t framesLinkFaultDropped_ = 0;
};

}  // namespace wmsn::net
