#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "routing/mlr.hpp"
#include "routing/secmlr.hpp"
#include "util/require.hpp"
#include "workload/workload.hpp"

namespace wmsn::core {

Experiment::Experiment(Scenario& scenario)
    : scenario_(scenario),
      trafficRng_(scenario.config.seed ^ 0x7aff1c),
      generator_(workload::makeGenerator(
          scenario.config.workload, scenario.config.width,
          scenario.config.height, scenario.config.seed ^ 0x3a11c0)) {
  const ScenarioConfig& cfg = scenario.config;
  if (cfg.faults.any()) {
    faultInjector_ = std::make_unique<fault::FaultInjector>(
        cfg.faults, scenario.network->sensorIds().size(),
        scenario.network->gatewayIds().size(), cfg.seed ^ 0xfa01);
    // An outage closes when round PDR climbs back to 90% of the pre-fault
    // baseline — service-level recovery, not hardware repair.
    recoveryTracker_ = std::make_unique<fault::RecoveryTracker>(
        0.9, cfg.roundDuration.seconds());
  }
}

void Experiment::applyFaults(std::uint32_t round) {
  Scenario& s = scenario_;
  newFailuresThisRound_ = 0;
  if (!faultInjector_) return;
  for (const fault::FaultEvent& e : faultInjector_->actionsAtRound(round)) {
    const auto& ids = e.target == fault::FaultTargetKind::kSensor
                          ? s.network->sensorIds()
                          : s.network->gatewayIds();
    const net::NodeId id = ids.at(e.ordinal);
    s.network->node(id).setFailed(!e.recover);
    if (e.recover) {
      // A repaired sensor rejoins with amnesia: whatever routes it held
      // before the crash went stale while it was dark.
      if (e.target == fault::FaultTargetKind::kSensor)
        s.stack->at(id).onTopologyChanged();
    } else {
      ++newFailuresThisRound_;
    }
  }
}

void Experiment::beginRound(std::uint32_t round) {
  Scenario& s = scenario_;
  const ScenarioConfig& cfg = s.config;

  // Fault injection happens at the boundary: the plan's crash/recover
  // actions first, then the legacy permanent gateway kills.
  applyFaults(round);
  for (const GatewayFailure& f : cfg.failures) {
    if (f.round != round) continue;
    const net::NodeId gw = s.network->gatewayIds().at(f.gatewayOrdinal);
    s.network->node(gw).kill(s.simulator.now());
    ++newFailuresThisRound_;
  }

  // §4.4 sleep scheduling: at epoch boundaries rotate the awake set and
  // force a full route rebuild over the new relay topology.
  bool sleepEpoch = false;
  if (cfg.sleep.enabled && round % std::max(1u, cfg.sleep.epochRounds) == 0) {
    const SleepAssignment assignment =
        applySleepSchedule(*s.network, cfg.radioRange);
    s.stack->topologyChangedAll();
    // Wire delegation: sleepers hand readings to their cell leader.
    for (net::NodeId sensor : s.network->sensorIds()) {
      if (auto* mlr =
              dynamic_cast<routing::MlrRouting*>(&s.stack->at(sensor)))
        mlr->setUplinkDelegate(std::nullopt);
    }
    for (const auto& [sleeper, leader] : assignment.delegations) {
      if (auto* mlr =
              dynamic_cast<routing::MlrRouting*>(&s.stack->at(sleeper)))
        mlr->setUplinkDelegate(leader);
    }
    sleepEpoch = true;
  }

  s.stack->beginRound(round);

  const bool placeBased = cfg.protocol == ProtocolKind::kMlr ||
                          cfg.protocol == ProtocolKind::kSecMlr;

  // Reposition gateways per the mobility schedule and let moved ones
  // announce (§5.3: "moved gateways notify all sensor nodes ... unmoved
  // gateways do not need to issue such a notification"). Round 0's initial
  // placement is announced by everyone. The rebuild ablation re-announces
  // everything each round.
  std::vector<std::size_t> announcers;
  if (round == 0) {
    for (std::size_t g = 0; g < s.network->gatewayIds().size(); ++g)
      announcers.push_back(g);
  } else {
    announcers = s.schedule->movedGateways(round);
    // Failover mode turns the announcement into a per-round heartbeat: a
    // gateway that falls silent ages out of the sensors' place tables.
    if (placeBased &&
        (cfg.mlr.rebuildEveryRound || sleepEpoch || cfg.mlr.failover)) {
      announcers.clear();
      for (std::size_t g = 0; g < s.network->gatewayIds().size(); ++g)
        announcers.push_back(g);
    }
  }

  for (std::size_t g = 0; g < s.network->gatewayIds().size(); ++g) {
    const net::NodeId gwId = s.network->gatewayIds()[g];
    const std::size_t place = s.schedule->placeOf(g, round);
    s.network->setGatewayPosition(gwId, s.feasiblePlaces.at(place));
  }

  if (placeBased) {
    for (std::size_t g : announcers) {
      const net::NodeId gwId = s.network->gatewayIds()[g];
      if (!s.network->node(gwId).alive()) continue;
      const std::uint16_t newPlace =
          static_cast<std::uint16_t>(s.schedule->placeOf(g, round));
      std::uint16_t prevPlace = routing::kNoPlace;
      if (round > 0) {
        const std::size_t prev = s.schedule->placeOf(g, round - 1);
        if (prev != newPlace)
          prevPlace = static_cast<std::uint16_t>(prev);
      }
      auto* mlr = dynamic_cast<routing::MlrRouting*>(&s.stack->at(gwId));
      WMSN_REQUIRE_MSG(mlr != nullptr,
                       "place-based protocol expected on gateways");
      mlr->announceMove(newPlace, prevPlace, round);
    }
  }
}

void Experiment::scheduleTraffic(std::uint32_t round, sim::Time roundStart) {
  Scenario& s = scenario_;
  const ScenarioConfig& cfg = s.config;

  if (generator_) {
    // Workload-engine path: the generator decides who sends when inside the
    // round's traffic window; the experiment just schedules the originates.
    std::vector<workload::SensorInfo> sensors;
    sensors.reserve(s.network->sensorIds().size());
    for (net::NodeId id : s.network->sensorIds())
      sensors.push_back({id, s.network->node(id).position()});
    // Same guard band as the legacy path's 0.9 factor below: the last slice
    // of the round is reserved for in-flight frames to land before the next
    // boundary's move floods. Without it, CBR tails still forwarding at the
    // boundary collide with the place announcements; sensors that miss the
    // flood black-hole to the vacated place for the whole round.
    const sim::Time windowStart = roundStart + cfg.trafficStart;
    const sim::Time windowEnd =
        windowStart + sim::Time::seconds(
                          (cfg.roundDuration - cfg.trafficStart).seconds() *
                          0.9);
    for (const workload::Arrival& a :
         generator_->arrivalsInWindow(round, windowStart, windowEnd,
                                      sensors)) {
      s.simulator.scheduleAt(
          a.at, [&s, sensor = a.sensor, bytes = cfg.readingBytes] {
            if (!s.network->node(sensor).alive()) return;
            s.stack->at(sensor).originate(Bytes(bytes, 0xab));
          });
    }
    return;
  }

  const double windowSeconds =
      (cfg.roundDuration - cfg.trafficStart).seconds() * 0.9;

  for (net::NodeId sensor : s.network->sensorIds()) {
    std::uint32_t packets = cfg.packetsPerSensorPerRound;
    // §4.2's burst scenario ("a forest fire occurs"): sensors near the
    // hotspot report much more often.
    if (cfg.hotspot.enabled && round >= cfg.hotspot.startRound) {
      const net::Point centre =
          s.feasiblePlaces.at(cfg.hotspot.placeOrdinal);
      if (net::distance(s.network->node(sensor).position(), centre) <=
          cfg.hotspot.radius)
        packets += cfg.hotspot.extraPacketsPerSensor;
    }
    for (std::uint32_t k = 0; k < packets; ++k) {
      const sim::Time at =
          roundStart + cfg.trafficStart +
          sim::Time::seconds(trafficRng_.uniform(0.0, windowSeconds));
      s.simulator.scheduleAt(at, [&s, sensor, bytes = cfg.readingBytes] {
        if (!s.network->node(sensor).alive()) return;
        s.stack->at(sensor).originate(Bytes(bytes, 0xab));
      });
    }
  }
}

RunResult Experiment::run() {
  Scenario& s = scenario_;
  const ScenarioConfig& cfg = s.config;

  if (cfg.obs.any() && !observations_) {
    observations_ = std::make_shared<RunObservations>();
    if (cfg.obs.timeseries) {
      observations_->timeseries = obs::TimeSeriesRecorder(
          s.network->gatewayIds().size(),
          obs::TimeSeriesRecorder::defaultDepthEdges(), cfg.faults.any());
      // Round sampling rides the same mux as user observers; the cursor is
      // owned by the lambda and lives as long as the experiment.
      auto cursor =
          std::make_shared<RoundCursor>(s.network->gatewayIds().size());
      roundObservers_.attach(
          "obs-timeseries", [this, cursor](std::uint32_t round) {
            observations_->timeseries.add(cursor->sample(
                scenario_, round,
                observations_->timeseries.queueDepthEdges()));
            scenario_.network->stats().markRound();
          });
    }
    observations_->profiled = cfg.obs.profile;
    observations_->perfCounted = cfg.obs.perf;
  }
  // Installs the phase profiler for this run only (thread-local, restored
  // on scope exit even if the run throws).
  obs::Profiler::Activation profiling(
      observations_ && observations_->profiled ? &observations_->profiler
                                               : nullptr);
  // Same activation model for the work-counter ledger: every WMSN_PERF site
  // reports into this run's PerfStats, or is a no-op when counting is off.
  const bool perfOn = observations_ && observations_->perfCounted;
  obs::PerfStats::Activation perfCounting(perfOn ? &observations_->perf
                                                 : nullptr);
  // Resource telemetry rides alongside the counters but stays strictly
  // separate from deterministic output: wall clock over the run loop
  // (steady_clock — diagnostic only) and the allocation window.
  std::optional<obs::AllocationScope> allocWindow;
  std::chrono::steady_clock::time_point wallStart{};
  if (perfOn) {
    allocWindow.emplace();
    wallStart = std::chrono::steady_clock::now();
  }

  s.stack->startAll();

  std::uint32_t completed = 0;
  for (std::uint32_t round = 0; round < cfg.rounds; ++round) {
    const sim::Time roundStart = s.simulator.now();
    beginRound(round);
    scheduleTraffic(round, roundStart);
    s.simulator.runUntil(roundStart + cfg.roundDuration);
    completed = round + 1;
    if (recoveryTracker_) {
      const net::TrafficStats& t = s.network->stats();
      recoveryTracker_->onRoundEnd(round, t.generated() - faultPrevGenerated_,
                                   t.delivered() - faultPrevDelivered_,
                                   newFailuresThisRound_);
      faultPrevGenerated_ = t.generated();
      faultPrevDelivered_ = t.delivered();
    }
    roundObservers_.notify(round);
    if (cfg.stopAtFirstDeath && s.network->firstSensorDeathTime()) break;
  }
  // Drain grace: let the final round's in-flight frames land (aggregation
  // protocols flush just past the boundary) so the last round is not
  // artificially penalised.
  s.simulator.runUntil(s.simulator.now() + cfg.drainGrace);
  // Every reception ends in an event, so an idle simulator means an empty
  // reception table with every frame handle released.
  WMSN_INVARIANT_MSG(
      s.simulator.queueSize() != 0 || s.network->medium().idle(),
      "an idle simulator leaves no reception slot or frame handle live");

  if (perfOn) {
    obs::ResourceTelemetry& tel = observations_->telemetry;
    tel.captured = true;
    tel.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count();
    tel.allocCount = allocWindow->count();
    tel.allocBytes = allocWindow->bytes();
    tel.peakRssKb = obs::currentPeakRssKb();
  }
  return collect(completed);
}

RunResult Experiment::collect(std::uint32_t roundsCompleted) {
  const Scenario& s = scenario_;
  RunResult r;
  r.protocol = toString(s.config.protocol);
  r.workload = workload::toString(s.config.workload.kind);
  r.roundsCompleted = roundsCompleted;

  if (const auto death = s.network->firstSensorDeathTime()) {
    r.firstDeathObserved = true;
    r.firstDeathSeconds = death->seconds();
    r.firstDeathRound = static_cast<std::uint32_t>(
        death->us / s.config.roundDuration.us);
  }
  r.aliveSensors = s.network->aliveSensorCount();

  const net::TrafficStats& t = s.network->stats();
  r.generated = t.generated();
  r.delivered = t.delivered();
  r.deliveryRatio = t.deliveryRatio();
  r.meanHops = t.hopStats().count() ? t.hopStats().mean() : 0.0;
  r.meanLatencyMs =
      t.latencyStats().count() ? t.latencyStats().mean() * 1e3 : 0.0;
  r.p95LatencyMs =
      t.latencyStats().count() ? t.latencyStats().percentile(95) * 1e3 : 0.0;
  r.controlFrames = t.controlFrames();
  r.dataFrames = t.dataFrames();
  r.controlBytes = t.controlBytes();
  r.dataBytes = t.dataBytes();
  r.collisions = t.collisions();
  r.duplicateDeliveries = t.duplicateDeliveries();
  r.perGatewayDeliveries = t.perGatewayDeliveries();

  r.macDrops = t.macDrops();
  r.queueDrops = t.queueDrops();
  const sim::Time endTime = s.simulator.now();
  double depthIntegral = 0.0;
  for (net::NodeId id = 0; id < s.network->size(); ++id) {
    const net::Mac& mac = s.network->node(id).mac();
    r.peakQueueDepth = std::max(r.peakQueueDepth, mac.peakQueueDepth());
    depthIntegral += mac.queueDepthIntegral(endTime);
  }
  if (endTime.us > 0 && s.network->size() > 0)
    r.meanQueueDepth =
        depthIntegral / endTime.seconds() /
        static_cast<double>(s.network->size());
  if (endTime.us > 0) {
    r.offeredPps = static_cast<double>(r.generated) / endTime.seconds();
    r.goodputPps = static_cast<double>(r.delivered) / endTime.seconds();
  }

  r.sensorEnergy = summarizeSensorEnergy(*s.network);
  r.gatewayEnergy = summarizeGatewayEnergy(*s.network);

  for (net::NodeId id = 0; id < s.network->size(); ++id) {
    if (const auto* sec = dynamic_cast<const routing::SecMlrRouting*>(
            &s.stack->at(id))) {
      r.rejectedMacs += sec->rejectedMacs();
      r.rejectedReplays += sec->rejectedReplays();
      r.rejectedTesla += sec->rejectedTesla();
    }
  }
  if (s.config.attack.kind != attacks::AttackKind::kNone)
    r.attackerStats =
        attacks::collectAttackerStats(*s.stack, s.config.attack);

  if (faultInjector_) {
    r.faults.sensorCrashes = faultInjector_->sensorCrashes();
    r.faults.sensorRecoveries = faultInjector_->sensorRecoveries();
    r.faults.gatewayFailures = faultInjector_->gatewayFailures();
    r.faults.gatewayRecoveries = faultInjector_->gatewayRecoveries();
    r.faults.failedSensorsAtEnd = s.network->failedSensorCount();
    r.faults.failedGatewaysAtEnd = s.network->failedGatewayCount();
  }
  if (s.config.faults.linkLoss.enabled)
    r.faults.linkFaultDrops = s.network->medium().framesLinkFaultDropped();
  if (recoveryTracker_) {
    r.faults.outageEpisodes = recoveryTracker_->episodes().size();
    r.faults.unrecoveredOutages = recoveryTracker_->unrecovered();
    r.faults.meanRecoveryLatencyS =
        recoveryTracker_->meanRecoveryLatencySeconds();
    r.faults.pdrDuringOutage = recoveryTracker_->pdrDuringOutage();
    r.faults.recoveryLatenciesS = recoveryTracker_->recoveryLatenciesSeconds();
  }

  r.eventsProcessed = s.simulator.eventsProcessed();

  if (observations_) {
    if (s.config.obs.traceSpans)
      observations_->trace = s.network->tracer()->log();
    if (s.config.obs.metrics) {
      fillRegistry(s, r, observations_->metrics);
      // Fault metrics only appear when a plan was active, so fault-free
      // metrics JSON stays byte-identical to older builds.
      if (s.config.faults.any())
        fillFaultMetrics(s, r, observations_->metrics);
    }
    if (observations_->perfCounted) {
      // Deterministic numerators for the telemetry's derived rates; copied
      // here so multi-seed merges can re-derive rates from sums.
      observations_->telemetry.rounds = roundsCompleted;
      observations_->telemetry.frames = r.controlFrames + r.dataFrames;
    }
    r.observations = observations_;
  }
  return r;
}

RunResult runScenario(const ScenarioConfig& config) {
  auto scenario = buildScenario(config);
  Experiment experiment(*scenario);
  return experiment.run();
}

}  // namespace wmsn::core
