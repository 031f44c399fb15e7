// BURST — the event-front showcase of the workload engine: the burst
// generator sweeps a correlated report wave across the field (front speed
// 15 m/s, radius 60 m, one report per 0.4 s under the front, 0.02 pkt/s
// background), so the congestion is localised under the moving front. The
// campaign spec grammar has no keys for the front's shape, which is why this
// stays a binary; the capacity grid is campaigns/offered_load.spec.
//
//   ./bench_burst_front [--csv out.csv] [--threads n]
//
// --csv writes the three runs' per-round trajectories (one row per round,
// labelled protocol/burst/r0.02/s40), where the front's passage shows.

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace wmsn;
  const auto args = bench::parseArgs(argc, argv);
  bench::banner("BURST", "event-front burst showcase (workload engine)",
                "a correlated report wave congests only the sensors under "
                "the front; finite MAC queues localise the loss");

  std::vector<core::ScenarioConfig> configs;
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kSpr, core::ProtocolKind::kMlr,
        core::ProtocolKind::kSecMlr}) {
    core::ScenarioConfig cfg;
    cfg.protocol = protocol;
    cfg.sensorCount = 80;
    cfg.gatewayCount = 3;
    cfg.feasiblePlaceCount = 6;
    cfg.width = 200;
    cfg.height = 200;
    cfg.rounds = 6;
    cfg.workload.kind = workload::WorkloadKind::kBurst;
    cfg.workload.ratePerSensor = 0.02;
    cfg.workload.burst.backgroundRate = 0.02;
    cfg.workload.burst.frontSpeed = 15.0;
    cfg.workload.burst.radius = 60.0;
    cfg.workload.burst.reportInterval = 0.4;
    cfg.macQueue.capacity = 8;
    cfg.seed = 40;
    cfg.obs.timeseries = true;
    configs.push_back(cfg);
  }
  const auto runs = core::runScenariosParallel(configs, args.threads);

  TextTable table({"protocol", "offered pps", "goodput pps", "PDR",
                   "p95 lat ms", "queue drops", "peak queue"});
  std::optional<CsvWriter> series;
  for (const auto& r : runs) {
    table.addRow({r.protocol, TextTable::num(r.offeredPps, 1),
                  TextTable::num(r.goodputPps, 1),
                  TextTable::num(r.deliveryRatio, 3),
                  TextTable::num(r.p95LatencyMs, 1),
                  TextTable::num(static_cast<double>(r.queueDrops), 0),
                  TextTable::num(static_cast<double>(r.peakQueueDepth), 0)});
    const auto& ts = r.observations->timeseries;
    if (!series) series.emplace(ts.csvHeader());
    ts.appendCsv(*series, r.protocol + "/burst/r0.02/s40");
  }
  core::printSection(std::cout, "event-front burst showcase", table);
  bench::maybeWriteCsv(args, *series);
  return 0;
}
