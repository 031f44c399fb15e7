// Campaign orchestration: spec parsing and grid expansion, run-record and
// registry wire codecs, the resumable journal, paired-seed statistics, the
// deterministic artifact, and the fork pool driven end to end (worker-count
// independence, kill + resume, crash isolation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/pool.hpp"
#include "campaign/record.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/stats.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "obs/trace_analyze.hpp"
#include "util/random.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace wmsn;
using campaign::RunRecord;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + "wmsn_campaign_test_" + name;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

constexpr const char* kTinySpec =
    "name = tiny\n"
    "seed = 3\n"
    "repeats = 2\n"
    "sensors = 40\n"
    "area = 120\n"
    "gateways = 2\n"
    "places = 4\n"
    "rounds = 2\n"
    "packets = 1\n"
    "metrics = on\n"
    "\n"
    "[sweep]\n"
    "protocol = spr, mlr\n"
    "fault = baseline=none, gw-crash=gw0@1\n";

// --- seed derivation (the contract wmsn_cli --repeat and campaigns share) --

TEST(SeedDerivation, SequenceIsPinned) {
  // BENCH_* baselines and every journaled campaign depend on this exact
  // sequence; changing replicaSeed invalidates them all.
  EXPECT_EQ(replicaSeed(40, 0), 40u);
  EXPECT_EQ(replicaSeed(40, 4), 44u);
  const std::vector<std::uint64_t> expected{40, 41, 42, 43, 44};
  EXPECT_EQ(seedSequence(40, 5), expected);
}

TEST(SeedDerivation, ExpandSeedsMatchesSeedSequence) {
  core::ScenarioConfig cfg;
  cfg.seed = 7;
  const auto configs = core::expandSeeds(cfg, 3);
  ASSERT_EQ(configs.size(), 3u);
  const auto seeds = seedSequence(7, 3);
  for (std::size_t k = 0; k < configs.size(); ++k)
    EXPECT_EQ(configs[k].seed, seeds[k]);
}

// --- spec parsing ----------------------------------------------------------

TEST(CampaignSpec, ParsesCampaignKeysVariantsAndAxes) {
  const auto spec = campaign::parseSpec(
      "name = demo\n"
      "seed = 11\n"
      "repeats = 4\n"
      "compare = variant\n"
      "sensors = 80\n"
      "# a comment\n"
      "[variant a]\n"
      "protocol = spr\n"
      "[variant b]\n"
      "protocol = mlr\n"
      "gateways = 3\n"
      "[sweep]\n"
      "variant = a, b\n"
      "rate = slow=0.5, fast=2.0\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seedBase, 11u);
  EXPECT_EQ(spec.repeats, 4u);
  EXPECT_EQ(spec.compareKey, "variant");
  ASSERT_EQ(spec.base.size(), 1u);
  EXPECT_EQ(spec.base[0].first, "sensors");
  ASSERT_EQ(spec.variants.size(), 2u);
  ASSERT_NE(spec.findVariant("b"), nullptr);
  EXPECT_EQ(spec.findVariant("b")->size(), 2u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[1].values[0].label, "slow");
  EXPECT_EQ(spec.axes[1].values[0].value, "0.5");
  EXPECT_EQ(spec.axes[0].values[1].label, "b");  // bare item: label == value
}

TEST(CampaignSpec, CompareDefaultsToVariantThenProtocol) {
  const auto withVariant = campaign::parseSpec(
      "[variant a]\nprotocol = spr\n[sweep]\nvariant = a\nprotocol = spr\n");
  EXPECT_EQ(withVariant.compareKey, "variant");
  const auto withProtocol =
      campaign::parseSpec("[sweep]\nprotocol = spr, mlr\n");
  EXPECT_EQ(withProtocol.compareKey, "protocol");
}

TEST(CampaignSpec, RejectsMalformedInput) {
  EXPECT_THROW(campaign::parseSpec("sensors = 80\n"), PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep\nprotocol = spr\n"),
               PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep]\nprotocol = spr\nprotocol = mlr\n"),
               PreconditionError);
  EXPECT_THROW(campaign::parseSpec("not a key value line\n[sweep]\nx = 1\n"),
               PreconditionError);
  EXPECT_THROW(
      campaign::parseSpec("compare = rate\n[sweep]\nprotocol = spr\n"),
      PreconditionError);
  EXPECT_THROW(campaign::parseSpec("[sweep]\nprotocol = spr, spr\n"),
               PreconditionError);
  // Unknown setting keys surface at expansion time for axis values...
  const auto spec =
      campaign::parseSpec("[sweep]\nvariant = nosuch\nprotocol = spr\n");
  EXPECT_THROW(campaign::expand(spec), PreconditionError);
  // ...and unknown base keys at expansion too.
  EXPECT_THROW(
      campaign::expand(campaign::parseSpec("warp = 9\n[sweep]\nprotocol = spr\n")),
      PreconditionError);
}

TEST(CampaignSpec, TraceSampleMustKeepAtLeastOnePermille) {
  // Sampling is stored in whole permille: a fraction that rounds to 0 would
  // trace nothing, so it is rejected with the key named.
  core::ScenarioConfig cfg;
  try {
    campaign::applySetting(cfg, "trace-sample", "0.0004");
    FAIL() << "trace-sample 0.0004 rounds to 0 permille and must throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("trace-sample"), std::string::npos)
        << e.what();
  }
  campaign::applySetting(cfg, "trace-sample", "0.0005");
  EXPECT_EQ(cfg.obs.traceSamplePermille, 1u);
  campaign::applySetting(cfg, "trace-sample", "1");
  EXPECT_EQ(cfg.obs.traceSamplePermille, 1000u);
}

TEST(CampaignSpec, FingerprintTracksText) {
  const auto a = campaign::parseSpec("[sweep]\nprotocol = spr\n");
  const auto b = campaign::parseSpec("[sweep]\nprotocol = mlr\n");
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(),
            campaign::parseSpec("[sweep]\nprotocol = spr\n").fingerprint());
}

// --- expansion -------------------------------------------------------------

TEST(CampaignExpand, OrderIsAxesOuterSeedsInnermost) {
  const auto spec = campaign::parseSpec(kTinySpec);
  const auto plan = campaign::expand(spec);
  ASSERT_EQ(plan.size(), 8u);
  const std::vector<std::string> expected{
      "spr/baseline/s3", "spr/baseline/s4", "spr/gw-crash/s3",
      "spr/gw-crash/s4", "mlr/baseline/s3", "mlr/baseline/s4",
      "mlr/gw-crash/s3", "mlr/gw-crash/s4"};
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].id, expected[i]);
    EXPECT_EQ(plan[i].seed, seedSequence(3, 2)[plan[i].seedIndex]);
  }
  EXPECT_EQ(plan[0].config.sensorCount, 40u);
  EXPECT_EQ(plan[2].config.faults.events.size(), 1u);
  EXPECT_TRUE(plan[0].config.faults.events.empty());
  EXPECT_TRUE(plan[0].config.obs.metrics);
}

TEST(CampaignExpand, VariantBundlesApplyTheirSettings) {
  const auto spec = campaign::parseSpec(
      "sensors = 40\narea = 120\n"
      "[variant one]\nprotocol = spr\ngateways = 1\n"
      "[variant three]\nprotocol = mlr\ngateways = 3\nplaces = 6\n"
      "[sweep]\nvariant = one, three\n");
  const auto plan = campaign::expand(spec);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].config.gatewayCount, 1u);
  EXPECT_EQ(plan[1].config.gatewayCount, 3u);
  EXPECT_EQ(plan[1].config.protocol, core::ProtocolKind::kMlr);
}

TEST(CampaignSpec, SettingChoicesAreSortedAndAccepted) {
  for (const char* key :
       {"protocol", "attack", "deployment", "workload", "queue-policy"}) {
    const auto names = campaign::settingChoices(key);
    EXPECT_FALSE(names.empty()) << key;
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end())) << key;
    EXPECT_EQ(std::count(names.begin(), names.end(), "none"), 0) << key;
    for (const std::string& name : names) {
      core::ScenarioConfig cfg;
      EXPECT_NO_THROW(campaign::applySetting(cfg, key, name))
          << key << " = " << name;
    }
  }
  EXPECT_EQ(campaign::settingChoices("protocol").size(), 11u);
  EXPECT_EQ(campaign::settingChoices("attack").size(), 8u);
  EXPECT_THROW(campaign::settingChoices("sensors"), PreconditionError);
}

// --- record wire -----------------------------------------------------------

TEST(CampaignRecord, WireRoundTripsLosslessly) {
  RunRecord r;
  r.id = "mlr/gw-crash/s4";
  r.cell = "mlr/gw-crash";
  r.seed = 4;
  r.seedIndex = 1;
  r.pdr = 0.123456789012345;
  r.meanLatencyMs = 17.25;
  r.p95LatencyMs = 42.0;
  r.meanHops = 2.5;
  r.offeredPps = 8.0;
  r.goodputPps = 7.5;
  r.generated = 1000;
  r.delivered = 987;
  r.queueDrops = 3;
  r.macDrops = 1;
  r.collisions = 17;
  r.controlBytes = 123456;
  r.dataBytes = 654321;
  r.roundsCompleted = 12;
  r.firstDeathObserved = true;
  r.lifetimeS = 123.75;
  r.energyTotalJ = 1.0625;
  r.energyD2 = 1e-9;
  r.outageEpisodes = 2;
  r.meanRecoveryLatencyS = 20.5;
  r.pdrDuringOutage = 0.25;
  r.traceSpans = 4242;
  r.traceReadings = 120;
  r.traceReroutes = 7;
  r.traceDropEvents = 13;
  r.traceMeanPathHops = 2.125;
  r.perfCaptured = true;
  r.perfNodeSteps = 360;
  r.perfFramesTransmitted = 4100;
  r.perfPairsExamined = 164000;
  r.perfRngDraws = 9001;
  r.perfPeakRssKb = 5120;
  r.perfWallSeconds = 0.125;
  r.perfRoundsPerSec = 96.0;
  r.perfFramesPerSec = 32800.5;
  r.metricsWire = "wmsnmr1\x1e" "payload with \x1f and \x1d inside";

  const RunRecord back = campaign::decodeRecord(campaign::encodeRecord(r));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.cell, r.cell);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.seedIndex, r.seedIndex);
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.pdr, r.pdr);  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.energyD2, r.energyD2);  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.generated, r.generated);
  EXPECT_EQ(back.firstDeathObserved, r.firstDeathObserved);
  EXPECT_EQ(back.traceSpans, r.traceSpans);
  EXPECT_EQ(back.traceReadings, r.traceReadings);
  EXPECT_EQ(back.traceReroutes, r.traceReroutes);
  EXPECT_EQ(back.traceDropEvents, r.traceDropEvents);
  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.traceMeanPathHops, r.traceMeanPathHops);
  EXPECT_EQ(back.perfCaptured, r.perfCaptured);
  EXPECT_EQ(back.perfNodeSteps, r.perfNodeSteps);
  EXPECT_EQ(back.perfFramesTransmitted, r.perfFramesTransmitted);
  EXPECT_EQ(back.perfPairsExamined, r.perfPairsExamined);
  EXPECT_EQ(back.perfRngDraws, r.perfRngDraws);
  EXPECT_EQ(back.perfPeakRssKb, r.perfPeakRssKb);
  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.perfWallSeconds, r.perfWallSeconds);
  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.perfRoundsPerSec, r.perfRoundsPerSec);
  // wmsn-lint: allow(float-equality)
  EXPECT_EQ(back.perfFramesPerSec, r.perfFramesPerSec);
  EXPECT_EQ(back.metricsWire, r.metricsWire);
}

TEST(CampaignRecord, FailedRecordCarriesError) {
  const RunRecord r = campaign::makeFailedRecord("a/s1", "a", 1, 0, "boom");
  const RunRecord back = campaign::decodeRecord(campaign::encodeRecord(r));
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.error, "boom");
  EXPECT_TRUE(back.metricsWire.empty());
}

TEST(CampaignRecord, DecodeRejectsGarbage) {
  EXPECT_THROW(campaign::decodeRecord(""), PreconditionError);
  EXPECT_THROW(campaign::decodeRecord("not a record"), PreconditionError);
  const std::string line =
      campaign::encodeRecord(campaign::makeFailedRecord("a/s1", "a", 1, 0, ""));
  EXPECT_THROW(campaign::decodeRecord(line.substr(0, line.size() / 2)),
               PreconditionError);
}

// --- metrics registry wire -------------------------------------------------

TEST(CampaignRegistryWire, RoundTripPreservesJsonExactly) {
  obs::MetricsRegistry reg;
  reg.counter("wmsn_generated", {{"protocol", "mlr"}}).add(123);
  reg.gauge("wmsn_pdr").set(0.9876543210123);
  auto& h = reg.histogram("wmsn_latency_ms", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(55.0);
  h.observe(1e6);
  const obs::MetricsRegistry back =
      obs::MetricsRegistry::fromWire(reg.wire());
  EXPECT_EQ(back.json(), reg.json());
  EXPECT_EQ(obs::MetricsRegistry::fromWire(back.wire()).json(), reg.json());
}

TEST(CampaignRegistryWire, MergeAfterTransportMatchesDirectMerge) {
  obs::MetricsRegistry a;
  a.counter("c").add(1);
  a.histogram("h", {1.0, 2.0}).observe(1.5);
  obs::MetricsRegistry b;
  b.counter("c").add(2);
  b.histogram("h", {1.0, 2.0}).observe(5.0);

  obs::MetricsRegistry direct;
  direct.merge(a);
  direct.merge(b);
  obs::MetricsRegistry shipped;
  shipped.merge(obs::MetricsRegistry::fromWire(a.wire()));
  shipped.merge(obs::MetricsRegistry::fromWire(b.wire()));
  EXPECT_EQ(shipped.json(), direct.json());
}

// --- journal ---------------------------------------------------------------

TEST(CampaignJournal, AppendThenResumeRestoresRecords) {
  const std::string path = tmpPath("journal_roundtrip");
  {
    auto j = campaign::Journal::create(path, 42, 3);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
    RunRecord ok = campaign::makeFailedRecord("a/s2", "a", 2, 1, "");
    ok.status = RunRecord::Status::kOk;
    ok.pdr = 0.5;
    j.append(ok);
  }
  const auto j = campaign::Journal::resume(path, 42, 3);
  ASSERT_EQ(j.loaded().size(), 2u);
  EXPECT_FALSE(j.loaded().at("a/s1").ok());
  EXPECT_TRUE(j.loaded().at("a/s2").ok());
  EXPECT_EQ(j.loaded().at("a/s2").pdr, 0.5);  // wmsn-lint: allow(float-equality)
  std::remove(path.c_str());
}

TEST(CampaignJournal, ToleratesTornFinalLineOnly) {
  const std::string path = tmpPath("journal_torn");
  {
    auto j = campaign::Journal::create(path, 7, 2);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
  }
  // Simulate a kill mid-append: a half-written record with no newline.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << campaign::encodeRecord(
               campaign::makeFailedRecord("a/s2", "a", 2, 1, "y"))
               .substr(0, 10);
  }
  auto j = campaign::Journal::resume(path, 7, 2);
  EXPECT_EQ(j.loaded().size(), 1u);
  // The torn fragment was dropped on rewrite, so the re-append succeeds.
  j.append(campaign::makeFailedRecord("a/s2", "a", 2, 1, "y"));
  j.close();
  EXPECT_EQ(campaign::Journal::resume(path, 7, 2).loaded().size(), 2u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RejectsDuplicatesAndForeignSpecs) {
  const std::string path = tmpPath("journal_dupe");
  {
    auto j = campaign::Journal::create(path, 42, 3);
    j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x"));
    EXPECT_THROW(j.append(campaign::makeFailedRecord("a/s1", "a", 1, 0, "x")),
                 PreconditionError);
  }
  EXPECT_THROW(campaign::Journal::resume(path, 43, 3), PreconditionError);
  EXPECT_THROW(campaign::Journal::resume(path, 42, 4), PreconditionError);
  EXPECT_THROW(campaign::Journal::resume(tmpPath("journal_missing"), 42, 3),
               PreconditionError);
  std::remove(path.c_str());
}

// --- statistics ------------------------------------------------------------

TEST(CampaignStats, AggregateMatchesHandComputation) {
  const auto a = campaign::aggregate({2.0, 4.0, 4.0, 4.0, 6.0});
  EXPECT_EQ(a.n, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 4.0);
  EXPECT_NEAR(a.stddev, 1.4142135623730951, 1e-12);
  // t(df=4) = 2.776: ci95 = 2.776 * stddev / sqrt(5)
  EXPECT_NEAR(a.ci95, 2.776 * a.stddev / std::sqrt(5.0), 1e-12);
  EXPECT_DOUBLE_EQ(a.min, 2.0);
  EXPECT_DOUBLE_EQ(a.max, 6.0);
  EXPECT_EQ(campaign::aggregate({}).n, 0u);
  EXPECT_DOUBLE_EQ(campaign::aggregate({3.0}).ci95, 0.0);
}

TEST(CampaignStats, TCriticalTable) {
  EXPECT_DOUBLE_EQ(campaign::tCritical95(1), 12.706);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(4), 2.776);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(30), 2.042);
  EXPECT_DOUBLE_EQ(campaign::tCritical95(1000), 1.96);
}

TEST(CampaignStats, ExactSignTest) {
  // 5-0 split: 2 * (1/2)^5 = 0.0625.
  EXPECT_NEAR(campaign::signTestTwoSided(5, 0), 0.0625, 1e-15);
  // 4-1 split: 2 * (C(5,0)+C(5,1)) / 32 = 0.375.
  EXPECT_NEAR(campaign::signTestTwoSided(4, 1), 0.375, 1e-15);
  EXPECT_DOUBLE_EQ(campaign::signTestTwoSided(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(campaign::signTestTwoSided(0, 0), 1.0);
  // 9-1: 2 * (1 + 10) / 1024.
  EXPECT_NEAR(campaign::signTestTwoSided(9, 1), 22.0 / 1024.0, 1e-15);
}

// --- artifact determinism --------------------------------------------------

TEST(CampaignArtifact, IndependentOfRecordArrivalOrder) {
  const auto spec = campaign::parseSpec(kTinySpec);
  const auto plan = campaign::expand(spec);

  // Synthesize records (no simulation needed to test rendering).
  std::vector<RunRecord> recs;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    RunRecord r = campaign::makeFailedRecord(plan[i].id, plan[i].cell,
                                             plan[i].seed, plan[i].seedIndex,
                                             "");
    r.status = RunRecord::Status::kOk;
    r.pdr = 0.5 + 0.01 * static_cast<double>(i);
    r.meanLatencyMs = 10.0 + static_cast<double>(i);
    r.lifetimeS = 40.0;
    recs.push_back(r);
  }
  std::map<std::string, RunRecord> inOrder;
  for (const auto& r : recs) inOrder.emplace(r.id, r);

  // Deterministic reorder (reverse + rotate) — any permutation must render
  // the same artifact, since the map and the plan fix the iteration order.
  std::reverse(recs.begin(), recs.end());
  std::rotate(recs.begin(), recs.begin() + 3, recs.end());
  std::map<std::string, RunRecord> shuffled;
  for (const auto& r : recs) shuffled.emplace(r.id, r);

  const std::string a = campaign::renderArtifact(spec, plan, inOrder);
  const std::string b = campaign::renderArtifact(spec, plan, shuffled);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"wmsn-campaign-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"deltas\""), std::string::npos);

  // A missing run is a hard error, not a silent gap.
  std::map<std::string, RunRecord> incomplete = inOrder;
  incomplete.erase(plan[3].id);
  EXPECT_THROW(campaign::renderArtifact(spec, plan, incomplete),
               PreconditionError);
}

TEST(CampaignArtifact, FailedRunsExcludedFromAggregatesButCounted) {
  const auto spec = campaign::parseSpec(kTinySpec);
  const auto plan = campaign::expand(spec);
  std::map<std::string, RunRecord> records;
  for (const auto& run : plan) {
    RunRecord r = campaign::makeFailedRecord(run.id, run.cell, run.seed,
                                             run.seedIndex, "died");
    if (run.id != plan[0].id) {
      r.status = RunRecord::Status::kOk;
      r.error.clear();
      r.pdr = 0.75;
    }
    records.emplace(r.id, r);
  }
  const std::string json = campaign::renderArtifact(spec, plan, records);
  EXPECT_NE(json.find("\"runs_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"n_ok\": 1, \"n_failed\": 1"), std::string::npos);
}

/// The rows (header first) of a rendered TextTable, split into cells.
std::vector<std::vector<std::string>> tableRows(const std::string& table) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] != '|') continue;
    rows.emplace_back();
    std::istringstream parts(line.substr(1));
    for (std::string cell; std::getline(parts, cell, '|');)
      rows.back().push_back(cell.substr(1, cell.find_last_not_of(' ')));
  }
  return rows;
}

std::size_t columnOf(const std::vector<std::string>& header,
                     const std::string& name) {
  return static_cast<std::size_t>(
      std::find(header.begin(), header.end(), name) - header.begin());
}

TEST(CampaignArtifact, CellTableIsAViewOfTheArtifactCells) {
  // Two cells in plan order spr, mlr (not alphabetical); spr/s2 failed.
  const auto spec = campaign::parseSpec(
      "name = table\nseed = 1\nrepeats = 2\n[sweep]\nprotocol = spr, mlr\n");
  const auto plan = campaign::expand(spec);
  ASSERT_EQ(plan.size(), 4u);
  const double pdrs[] = {0.91234, 0.0, 0.5, 0.8};
  std::map<std::string, RunRecord> records;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    RunRecord r = campaign::makeFailedRecord(plan[i].id, plan[i].cell,
                                             plan[i].seed, plan[i].seedIndex,
                                             "died");
    if (i != 1) {
      r.status = RunRecord::Status::kOk;
      r.pdr = pdrs[i];
    }
    records.emplace(r.id, r);
  }
  const auto table = [&] {
    return tableRows(
        campaign::renderCellTable(campaign::summarizeCells(plan, records)));
  };

  const auto rows = table();
  ASSERT_EQ(rows.size(), 3u);  // header + one row per cell
  const auto& header = rows[0];
  EXPECT_EQ(rows[1][0], "spr");
  EXPECT_EQ(rows[2][0], "mlr");
  EXPECT_EQ(rows[1][columnOf(header, "ok")], "1");
  EXPECT_EQ(rows[1][columnOf(header, "failed")], "1");
  EXPECT_EQ(rows[2][columnOf(header, "failed")], "0");
  EXPECT_EQ(columnOf(header, "frames tx"), header.size());  // no perf run

  // Each PDR cell is the artifact's cells[].metrics.pdr.mean at 3 places.
  const std::string json = campaign::renderArtifact(spec, plan, records);
  const std::size_t pdrAt = columnOf(header, "PDR");
  for (std::size_t row = 1; row < rows.size(); ++row) {
    const std::size_t cellAt = json.find(
        "{\"cell\": \"" + rows[row][0] + "\"", json.find("\"cells\""));
    ASSERT_NE(cellAt, std::string::npos);
    const std::size_t meanAt =
        json.find("\"mean\": ", json.find("\"pdr\": {", cellAt)) + 8;
    EXPECT_EQ(rows[row][pdrAt],
              TextTable::num(std::stod(json.substr(meanAt)), 3));
  }
  EXPECT_EQ(rows[1][pdrAt], "0.912");
  EXPECT_EQ(rows[2][pdrAt], "0.650");

  // Perf columns appear once a cell captured perf; the other reads "-".
  for (std::size_t i = 2; i < plan.size(); ++i) {
    records.at(plan[i].id).perfCaptured = true;
    records.at(plan[i].id).perfFramesTransmitted = 1000 + 234 * (i - 2);
  }
  const auto perfRows = table();
  const std::size_t framesAt = columnOf(perfRows[0], "frames tx");
  ASSERT_LT(framesAt, perfRows[0].size());
  EXPECT_EQ(perfRows[1][framesAt], "-");
  EXPECT_EQ(perfRows[2][framesAt], "1117");
  EXPECT_EQ(campaign::renderArtifact(spec, plan, records)
                .find("\"perf_frames_transmitted\": {"),
            std::string::npos);  // the artifact never aggregates perf
}

// --- fork pool -------------------------------------------------------------

TEST(CampaignPool, RunsEveryJobOnceAnyWorkerCount) {
  for (const unsigned workers : {1u, 3u}) {
    std::vector<int> results(20, -1);
    const auto stats = campaign::runForkPool(
        20, workers,
        [](std::size_t i) { return std::to_string(i * i); },
        [&](std::size_t i, bool crashed, const std::string& payload,
            unsigned) {
          EXPECT_FALSE(crashed);
          results[i] = std::stoi(payload);
        });
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i], static_cast<int>(i * i));
    std::uint64_t total = 0;
    for (const auto c : stats.perWorkerCompleted) total += c;
    EXPECT_EQ(total, 20u);
  }
}

TEST(CampaignPool, CrashIsolatesToOneJob) {
  std::vector<int> ok(10, 0);
  int crashes = 0;
  const auto stats = campaign::runForkPool(
      10, 2,
      [](std::size_t i) -> std::string {
        if (i == 4) ::_exit(86);  // simulated segfault mid-job
        return "ok";
      },
      [&](std::size_t i, bool crashed, const std::string&, unsigned) {
        if (crashed) {
          EXPECT_EQ(i, 4u);
          ++crashes;
        } else {
          ok[i] = 1;
        }
      });
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(stats.crashes, 1u);
  for (std::size_t i = 0; i < ok.size(); ++i)
    EXPECT_EQ(ok[i], i == 4 ? 0 : 1) << i;
}

// --- end-to-end campaigns --------------------------------------------------

class CampaignEndToEnd : public ::testing::Test {
 protected:
  campaign::CampaignSpec spec_ = campaign::parseSpec(kTinySpec);

  campaign::CampaignOptions options(const std::string& tag) {
    campaign::CampaignOptions opts;
    opts.outPath = tmpPath(tag + ".json");
    opts.journalPath = tmpPath(tag + ".journal");
    opts.quiet = true;
    return opts;
  }

  void cleanup(const campaign::CampaignOptions& opts) {
    std::remove(opts.outPath.c_str());
    std::remove(opts.journalPath.c_str());
    if (!opts.metricsOutPath.empty())
      std::remove(opts.metricsOutPath.c_str());
  }
};

TEST_F(CampaignEndToEnd, ArtifactIsByteIdenticalAcrossWorkerCounts) {
  auto one = options("workers1");
  one.workers = 1;
  auto four = options("workers4");
  four.workers = 4;
  four.metricsOutPath = tmpPath("workers4_metrics.json");
  auto oneMetrics = options("workers1m");
  oneMetrics.workers = 1;
  oneMetrics.metricsOutPath = tmpPath("workers1_metrics.json");

  const auto r1 = campaign::runCampaign(spec_, one);
  const auto r4 = campaign::runCampaign(spec_, four);
  const auto r1m = campaign::runCampaign(spec_, oneMetrics);
  EXPECT_EQ(r1.runsExecuted, 8u);
  EXPECT_EQ(r4.runsExecuted, 8u);
  EXPECT_EQ(r1.runsFailed, 0u);
  EXPECT_EQ(readFile(one.outPath), readFile(four.outPath));
  EXPECT_EQ(readFile(one.outPath), readFile(oneMetrics.outPath));
  EXPECT_EQ(readFile(oneMetrics.metricsOutPath),
            readFile(four.metricsOutPath));
  cleanup(one);
  cleanup(four);
  cleanup(oneMetrics);
}

TEST_F(CampaignEndToEnd, StopAfterThenResumeMatchesUninterrupted) {
  auto full = options("full");
  full.workers = 2;
  campaign::runCampaign(spec_, full);

  auto interrupted = options("interrupted");
  interrupted.workers = 2;
  interrupted.stopAfter = 3;
  const auto stopped = campaign::runCampaign(spec_, interrupted);
  EXPECT_TRUE(stopped.stoppedEarly);
  EXPECT_EQ(stopped.runsExecuted, 3u);

  interrupted.stopAfter = 0;
  interrupted.resume = true;
  const auto resumed = campaign::runCampaign(spec_, interrupted);
  EXPECT_FALSE(resumed.stoppedEarly);
  EXPECT_EQ(resumed.runsFromJournal, 3u);
  EXPECT_EQ(resumed.runsExecuted, 5u);
  EXPECT_EQ(readFile(full.outPath), readFile(interrupted.outPath));
  cleanup(full);
  cleanup(interrupted);
}

// Tracing-enabled campaign: a `trace = on` spec whose per-run trace
// summaries land in the artifact, stay byte-identical across kill + resume,
// and whose crash-injected worker leaves a flight-recorder dump behind.
constexpr const char* kTracedSpec =
    "name = traced\n"
    "seed = 9\n"
    "repeats = 2\n"
    "sensors = 40\n"
    "area = 120\n"
    "gateways = 2\n"
    "places = 4\n"
    "rounds = 2\n"
    "packets = 1\n"
    "metrics = on\n"
    "trace = on\n"
    "\n"
    "[sweep]\n"
    "protocol = mlr, secmlr\n";

TEST_F(CampaignEndToEnd, TracedArtifactSurvivesKillAndResume) {
  const auto traced = campaign::parseSpec(kTracedSpec);
  auto full = options("traced_full");
  full.workers = 2;
  const auto complete = campaign::runCampaign(traced, full);
  EXPECT_EQ(complete.runsExecuted, 4u);
  EXPECT_EQ(complete.runsFailed, 0u);
  const std::string json = readFile(full.outPath);
  EXPECT_NE(json.find("\"trace_spans\":"), std::string::npos);
  EXPECT_NE(json.find("\"trace_mean_path_hops\":"), std::string::npos);

  auto interrupted = options("traced_cut");
  interrupted.workers = 2;
  interrupted.stopAfter = 2;
  const auto stopped = campaign::runCampaign(traced, interrupted);
  EXPECT_TRUE(stopped.stoppedEarly);
  interrupted.stopAfter = 0;
  interrupted.resume = true;
  const auto resumed = campaign::runCampaign(traced, interrupted);
  EXPECT_EQ(resumed.runsFromJournal, 2u);
  EXPECT_EQ(json, readFile(interrupted.outPath));
  cleanup(full);
  cleanup(interrupted);
}

TEST_F(CampaignEndToEnd, CrashedWorkerDumpsFlightRecorder) {
  const auto traced = campaign::parseSpec(kTracedSpec);
  auto opts = options("traced_crash");
  opts.workers = 2;
  opts.flightRecorderDir = testing::TempDir();
  const std::string dumpPath = opts.flightRecorderDir + "flight-mlr_s9.jsonl";
  std::remove(dumpPath.c_str());
  ::setenv(campaign::kCrashRunEnv, "mlr/s9", 1);
  const auto outcome = campaign::runCampaign(traced, opts);
  ::unsetenv(campaign::kCrashRunEnv);
  EXPECT_EQ(outcome.runsFailed, 1u);
  // The injected _exit(86) dumped the worker's flight ring post-mortem: the
  // file parses as trace JSONL (header line skipped) and names the cause.
  const std::string dump = readFile(dumpPath);
  EXPECT_NE(dump.find("campaign-crash-injected"), std::string::npos);
  EXPECT_NE(dump.find("flight-recorder"), std::string::npos);
  (void)obs::parseTraceJsonl(dump);  // must not throw
  std::remove(dumpPath.c_str());
  cleanup(opts);
}

TEST_F(CampaignEndToEnd, WorkerCrashRecordsFailureAndCompletes) {
  auto opts = options("crash");
  opts.workers = 2;
  opts.metricsOutPath = tmpPath("crash_metrics.json");
  ::setenv(campaign::kCrashRunEnv, "mlr/baseline/s3", 1);
  const auto outcome = campaign::runCampaign(spec_, opts);
  ::unsetenv(campaign::kCrashRunEnv);
  EXPECT_EQ(outcome.runsExecuted, 8u);
  EXPECT_EQ(outcome.runsFailed, 1u);
  EXPECT_GE(outcome.pool.crashes, 1u);
  const std::string json = readFile(opts.outPath);
  EXPECT_NE(json.find("\"runs_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("worker process died mid-run"), std::string::npos);
  // The merged registry still writes — failed runs contribute nothing, and
  // the campaign bookkeeping records the failure.
  const std::string metrics = readFile(opts.metricsOutPath);
  EXPECT_NE(metrics.find("wmsn_campaign_runs_failed"), std::string::npos);
  EXPECT_NE(metrics.find("wmsn_campaign_runs_total"), std::string::npos);
  cleanup(opts);
}

}  // namespace
