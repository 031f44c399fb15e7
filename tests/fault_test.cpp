// Tests for wmsn::fault — plan parsing, the Gilbert–Elliott burst-loss
// chain, the deterministic injector, and the end-to-end guarantees the
// subsystem makes: byte-identical replay across thread counts, gateway
// failover that actually re-homes traffic, and loss that shows up in the
// fault counters without touching runs that never enabled it.

#include <gtest/gtest.h>

#include "core/wmsn.hpp"
#include "fault/gilbert_elliott.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "util/require.hpp"

namespace wmsn {
namespace {

// --- FaultPlan parsing --------------------------------------------------------

TEST(FaultPlan, ParsesEventsAndRecoveries) {
  const auto events = fault::parseFaultPlan("gw0@3,gw0+@6,s17@4");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].target, fault::FaultTargetKind::kGateway);
  EXPECT_EQ(events[0].ordinal, 0u);
  EXPECT_EQ(events[0].round, 3u);
  EXPECT_FALSE(events[0].recover);
  EXPECT_TRUE(events[1].recover);
  EXPECT_EQ(events[1].round, 6u);
  EXPECT_EQ(events[2].target, fault::FaultTargetKind::kSensor);
  EXPECT_EQ(events[2].ordinal, 17u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parseFaultPlan("x1@2"), PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan("gw@1"), PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan("s5"), PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan("s5@"), PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan(""), PreconditionError);
  // Stray commas are tolerated; the events still parse.
  EXPECT_EQ(fault::parseFaultPlan("gw1@2,,s0@1").size(), 2u);
}

TEST(FaultPlan, RejectsOutOfRangeIntegers) {
  // Ordinals and rounds are 32-bit; larger values are errors, never
  // truncated and never a non-PreconditionError exception.
  EXPECT_THROW(fault::parseFaultPlan("s99999999999999999999999@3"),
               PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan("s1@99999999999"), PreconditionError);
  EXPECT_THROW(fault::parseFaultPlan("gw4294967296@1"), PreconditionError);
  const auto edge = fault::parseFaultPlan("s4294967295@4294967295");
  ASSERT_EQ(edge.size(), 1u);
  EXPECT_EQ(edge[0].ordinal, 4294967295u);
  EXPECT_EQ(edge[0].round, 4294967295u);
  try {
    fault::parseFaultPlan("s1@99999999999");
    FAIL() << "an out-of-range round must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("round"), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, SteadyStateLossFormula) {
  fault::GilbertElliottParams ge;
  ge.pGoodToBad = 0.05;
  ge.pBadToGood = 0.2;
  EXPECT_NEAR(ge.steadyStateLoss(), 0.2, 1e-12);  // πB = 0.05/0.25
  ge.lossGood = 0.1;
  ge.lossBad = 0.5;
  EXPECT_NEAR(ge.steadyStateLoss(), 0.2 * 0.5 + 0.8 * 0.1, 1e-12);
}

// --- Gilbert–Elliott chain ----------------------------------------------------

TEST(GilbertElliott, EmpiricalLossMatchesSteadyState) {
  fault::GilbertElliottParams ge;
  ge.enabled = true;
  ge.pGoodToBad = 0.05;
  ge.pBadToGood = 0.2;
  fault::GilbertElliottChain chain(ge, 0xfa117);
  const int steps = 200000;
  int lost = 0;
  for (int i = 0; i < steps; ++i) lost += chain.step() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(lost) / steps, ge.steadyStateLoss(), 0.01);
}

TEST(GilbertElliott, LossComesInBursts) {
  // With lossBad=1/lossGood=0, every loss run has geometric length with
  // mean 1/pBadToGood — far longer than i.i.d. loss at the same rate.
  fault::GilbertElliottParams ge;
  ge.enabled = true;
  ge.pGoodToBad = 0.02;
  ge.pBadToGood = 0.2;
  fault::GilbertElliottChain chain(ge, 7);
  int losses = 0, runs = 0;
  bool inRun = false;
  for (int i = 0; i < 100000; ++i) {
    if (chain.step()) {
      ++losses;
      if (!inRun) ++runs;
      inRun = true;
    } else {
      inRun = false;
    }
  }
  ASSERT_GT(runs, 0);
  const double meanRunLength = static_cast<double>(losses) / runs;
  EXPECT_GT(meanRunLength, 2.0);  // i.i.d. at ~9% loss would give ~1.1
}

// --- FaultInjector ------------------------------------------------------------

TEST(FaultInjector, SameSeedReplaysIdentically) {
  fault::FaultPlan plan;
  plan.sensorMtbfRounds = 10;
  plan.sensorMttrRounds = 3;
  plan.gatewayMtbfRounds = 15;
  plan.gatewayMttrRounds = 5;
  plan.events.push_back({4, fault::FaultTargetKind::kGateway, 1, false});

  fault::FaultInjector a(plan, 20, 3, 42);
  fault::FaultInjector b(plan, 20, 3, 42);
  for (std::uint32_t round = 0; round < 50; ++round) {
    const auto ea = a.actionsAtRound(round);
    const auto eb = b.actionsAtRound(round);
    ASSERT_EQ(ea.size(), eb.size()) << "round " << round;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].target, eb[i].target);
      EXPECT_EQ(ea[i].ordinal, eb[i].ordinal);
      EXPECT_EQ(ea[i].recover, eb[i].recover);
    }
  }
  EXPECT_EQ(a.sensorCrashes(), b.sensorCrashes());
  EXPECT_EQ(a.gatewayFailures(), b.gatewayFailures());
  EXPECT_GT(a.sensorCrashes() + a.gatewayFailures(), 0u);
}

TEST(FaultInjector, FiltersNoOpTransitions) {
  fault::FaultPlan plan;
  plan.events.push_back({2, fault::FaultTargetKind::kGateway, 0, false});
  plan.events.push_back({3, fault::FaultTargetKind::kGateway, 0, false});
  plan.events.push_back({4, fault::FaultTargetKind::kSensor, 1, true});
  plan.events.push_back({5, fault::FaultTargetKind::kGateway, 0, true});
  fault::FaultInjector inj(plan, 4, 2, 1);
  EXPECT_TRUE(inj.actionsAtRound(0).empty());
  EXPECT_EQ(inj.actionsAtRound(2).size(), 1u);
  EXPECT_TRUE(inj.actionsAtRound(3).empty());  // gw0 already down
  EXPECT_TRUE(inj.actionsAtRound(4).empty());  // s1 was never failed
  EXPECT_EQ(inj.actionsAtRound(5).size(), 1u);
  EXPECT_EQ(inj.gatewayFailures(), 1u);
  EXPECT_EQ(inj.gatewayRecoveries(), 1u);
  EXPECT_EQ(inj.failedGateways(), 0u);
}

TEST(FaultInjector, RejectsOutOfRangeOrdinals) {
  fault::FaultPlan plan;
  plan.events.push_back({1, fault::FaultTargetKind::kGateway, 5, false});
  EXPECT_THROW(fault::FaultInjector(plan, 10, 3, 1), PreconditionError);
}

// --- RecoveryTracker ----------------------------------------------------------

TEST(RecoveryTracker, MeasuresLatencyAndOutagePdr) {
  fault::RecoveryTracker tracker(0.9, 20.0);
  tracker.onRoundEnd(0, 100, 100, 0);  // healthy baseline (PDR 1.0)
  tracker.onRoundEnd(1, 100, 98, 0);
  tracker.onRoundEnd(2, 100, 40, 1);  // failure hits, PDR collapses
  tracker.onRoundEnd(3, 100, 60, 0);
  tracker.onRoundEnd(4, 100, 95, 0);  // ≥ 0.9×baseline — recovered
  ASSERT_EQ(tracker.episodes().size(), 1u);
  const auto& e = tracker.episodes().front();
  EXPECT_TRUE(e.recovered);
  EXPECT_EQ(e.latencyRounds(), 2u);
  EXPECT_EQ(tracker.unrecovered(), 0u);
  EXPECT_NEAR(tracker.meanRecoveryLatencySeconds(), 40.0, 1e-9);
  EXPECT_NEAR(tracker.pdrDuringOutage(), 100.0 / 200.0, 1e-9);
}

TEST(RecoveryTracker, AbsorbedFailureRecoversInZeroRounds) {
  fault::RecoveryTracker tracker(0.9, 20.0);
  tracker.onRoundEnd(0, 100, 100, 0);
  tracker.onRoundEnd(1, 100, 99, 1);  // failover absorbs the hit same-round
  ASSERT_EQ(tracker.episodes().size(), 1u);
  EXPECT_TRUE(tracker.episodes().front().recovered);
  EXPECT_EQ(tracker.episodes().front().latencyRounds(), 0u);
}

// --- End-to-end ---------------------------------------------------------------

core::ScenarioConfig faultConfig() {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 3;
  cfg.rounds = 8;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 11;
  cfg.mlr.failover = true;
  cfg.faults.events.push_back(
      {3, fault::FaultTargetKind::kGateway, 0, false});
  cfg.faults.sensorMtbfRounds = 20;
  cfg.faults.sensorMttrRounds = 3;
  cfg.faults.linkLoss.enabled = true;
  cfg.faults.linkLoss.pGoodToBad = 0.02;
  cfg.obs.metrics = true;
  return cfg;
}

TEST(FaultExperiment, PlanReplaysIdenticallyAcrossThreadCounts) {
  std::vector<core::ScenarioConfig> configs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    configs.push_back(faultConfig());
    configs.back().seed = 11 + s;
  }
  const auto serial = core::runScenariosParallel(configs, 1);
  const auto parallel = core::runScenariosParallel(configs, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(core::summaryLine(serial[i]), core::summaryLine(parallel[i]));
    EXPECT_EQ(serial[i].delivered, parallel[i].delivered);
    EXPECT_EQ(serial[i].faults.sensorCrashes, parallel[i].faults.sensorCrashes);
    EXPECT_EQ(serial[i].faults.gatewayFailures,
              parallel[i].faults.gatewayFailures);
    EXPECT_EQ(serial[i].faults.linkFaultDrops,
              parallel[i].faults.linkFaultDrops);
    ASSERT_TRUE(serial[i].observations && parallel[i].observations);
    EXPECT_EQ(serial[i].observations->metrics.json(),
              parallel[i].observations->metrics.json());
  }
}

TEST(FaultExperiment, GatewayFailoverReHomesTraffic) {
  core::ScenarioConfig mlr;
  mlr.protocol = core::ProtocolKind::kMlr;
  mlr.sensorCount = 60;
  mlr.gatewayCount = 3;
  mlr.rounds = 10;
  mlr.packetsPerSensorPerRound = 2;
  mlr.seed = 5;
  mlr.mlr.failover = true;
  mlr.faults.events.push_back(
      {3, fault::FaultTargetKind::kGateway, 0, false});

  core::ScenarioConfig spr = mlr;
  spr.protocol = core::ProtocolKind::kSpr;
  spr.gatewayCount = 1;
  spr.mlr.failover = false;

  auto mlrScenario = core::buildScenario(mlr);
  const auto mlrResult = core::Experiment(*mlrScenario).run();
  auto sprScenario = core::buildScenario(spr);
  const auto sprResult = core::Experiment(*sprScenario).run();

  // The multi-gateway mesh must strictly beat the single sink once the
  // (only/first) gateway dies, and must re-home within the backoff bound.
  EXPECT_GT(mlrResult.deliveryRatio, sprResult.deliveryRatio);
  EXPECT_GT(mlrResult.deliveryRatio, 0.8);
  EXPECT_EQ(mlrResult.faults.gatewayFailures, 1u);
  EXPECT_EQ(mlrResult.faults.failedGatewaysAtEnd, 1u);
  ASSERT_GE(mlrResult.faults.outageEpisodes, 1u);
  EXPECT_EQ(mlrResult.faults.unrecoveredOutages, 0u);
  // staleAfterRounds=1 detection + one round of re-discovery: recovery must
  // land within two rounds of the crash.
  EXPECT_LE(mlrResult.faults.meanRecoveryLatencyS,
            2.0 * mlr.roundDuration.seconds());
}

TEST(FaultExperiment, BurstLossIsCountedAndHurtsPdr) {
  core::ScenarioConfig base;
  base.protocol = core::ProtocolKind::kMlr;
  base.sensorCount = 60;
  base.gatewayCount = 3;
  base.rounds = 6;
  base.packetsPerSensorPerRound = 2;
  base.seed = 9;

  core::ScenarioConfig lossy = base;
  lossy.mlr.failover = true;
  lossy.faults.linkLoss.enabled = true;  // ~17% steady-state loss
  lossy.faults.linkLoss.pGoodToBad = 0.05;

  auto baseScenario = core::buildScenario(base);
  const auto baseResult = core::Experiment(*baseScenario).run();
  auto lossyScenario = core::buildScenario(lossy);
  const auto lossyResult = core::Experiment(*lossyScenario).run();

  EXPECT_EQ(baseResult.faults.linkFaultDrops, 0u);
  EXPECT_GT(lossyResult.faults.linkFaultDrops, 0u);
  EXPECT_LE(lossyResult.deliveryRatio, baseResult.deliveryRatio);
}

TEST(FaultExperiment, EmptyPlanKeepsFaultMachineryDormant) {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 60;
  cfg.gatewayCount = 3;
  cfg.rounds = 5;
  cfg.seed = 3;
  cfg.obs.metrics = true;
  cfg.obs.timeseries = true;
  auto scenario = core::buildScenario(cfg);
  const auto result = core::Experiment(*scenario).run();
  EXPECT_EQ(result.faults.sensorCrashes, 0u);
  EXPECT_EQ(result.faults.gatewayFailures, 0u);
  EXPECT_EQ(result.faults.linkFaultDrops, 0u);
  EXPECT_EQ(result.faults.outageEpisodes, 0u);
  ASSERT_TRUE(result.observations);
  // No fault columns in the time series and no wmsn_fault_* metrics unless
  // a plan is active — output stays byte-identical to pre-fault builds.
  EXPECT_FALSE(result.observations->timeseries.faultColumns());
  EXPECT_EQ(result.observations->metrics.json().find("wmsn_fault_"),
            std::string::npos);
}

TEST(FaultExperiment, FaultColumnsAppearWhenPlanActive) {
  auto cfg = faultConfig();
  cfg.obs.timeseries = true;
  auto scenario = core::buildScenario(cfg);
  const auto result = core::Experiment(*scenario).run();
  ASSERT_TRUE(result.observations);
  EXPECT_TRUE(result.observations->timeseries.faultColumns());
  const std::string json = result.observations->metrics.json();
  EXPECT_NE(json.find("wmsn_fault_gateway_failures_total"), std::string::npos);
  EXPECT_NE(json.find("wmsn_fault_recovery_latency_s"), std::string::npos);
}

}  // namespace
}  // namespace wmsn
