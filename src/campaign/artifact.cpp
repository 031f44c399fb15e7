#include "campaign/artifact.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <tuple>

#include "campaign/stats.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace wmsn::campaign {

namespace {

/// Where a per-cell metric shows up besides the cell table.
enum class Use : std::uint8_t {
  kCell,   ///< artifact "cells" aggregates
  kDelta,  ///< cells, plus the paired-seed deltas (PDR / latency / lifetime)
  kPerf,   ///< table only, for cells that captured perf; never in the
           ///< artifact, so its bytes do not depend on `perf = on`
};

/// One per-cell metric: artifact name, per-run reader, cell-table column.
struct CellMetric {
  const char* name;
  double (*get)(const RunRecord&);
  const char* column;
  int precision;
  Use use;
};

double asDouble(std::uint64_t v) { return static_cast<double>(v); }

/// The per-cell aggregate metrics, in artifact (and table) order.
constexpr CellMetric kCellMetrics[] = {
    {"pdr", [](const RunRecord& r) { return r.pdr; }, "PDR", 3, Use::kDelta},
    {"mean_latency_ms", [](const RunRecord& r) { return r.meanLatencyMs; },
     "lat ms", 1, Use::kDelta},
    {"p95_latency_ms", [](const RunRecord& r) { return r.p95LatencyMs; },
     "p95 ms", 1, Use::kCell},
    {"mean_hops", [](const RunRecord& r) { return r.meanHops; }, "hops", 2,
     Use::kCell},
    {"goodput_pps", [](const RunRecord& r) { return r.goodputPps; },
     "goodput pps", 1, Use::kCell},
    {"lifetime_s", [](const RunRecord& r) { return r.lifetimeS; },
     "lifetime s", 1, Use::kDelta},
    {"energy_total_j", [](const RunRecord& r) { return r.energyTotalJ; },
     "energy J", 2, Use::kCell},
    {"pdr_during_outage", [](const RunRecord& r) { return r.pdrDuringOutage; },
     "outage PDR", 3, Use::kCell},
    {"perf_frames_transmitted",
     [](const RunRecord& r) { return asDouble(r.perfFramesTransmitted); },
     "frames tx", 0, Use::kPerf},
    {"perf_pairs_examined",
     [](const RunRecord& r) { return asDouble(r.perfPairsExamined); },
     "pairs examined", 0, Use::kPerf},
    {"perf_peak_rss_mb",
     [](const RunRecord& r) { return asDouble(r.perfPeakRssKb) / 1024.0; },
     "peak RSS MB", 1, Use::kPerf},
    {"perf_wall_seconds", [](const RunRecord& r) { return r.perfWallSeconds; },
     "wall s", 2, Use::kPerf},
};

void appendAggregate(std::ostream& os, const Aggregate& a) {
  os << "{\"n\": " << a.n << ", \"mean\": " << jsonNumber(a.mean)
     << ", \"stddev\": " << jsonNumber(a.stddev)
     << ", \"ci95\": " << jsonNumber(a.ci95)
     << ", \"min\": " << jsonNumber(a.min)
     << ", \"max\": " << jsonNumber(a.max) << "}";
}

void appendRun(std::ostream& os, const RunRecord& r) {
  os << "      {\"id\": \"" << jsonEscape(r.id) << "\", \"cell\": \""
     << jsonEscape(r.cell) << "\", \"seed\": " << r.seed
     << ", \"seed_index\": " << r.seedIndex << ", \"status\": \""
     << (r.ok() ? "ok" : "failed") << "\"";
  if (!r.ok()) {
    os << ", \"error\": \"" << jsonEscape(r.error) << "\"}";
    return;
  }
  os << ",\n       \"pdr\": " << jsonNumber(r.pdr)
     << ", \"mean_latency_ms\": " << jsonNumber(r.meanLatencyMs)
     << ", \"p95_latency_ms\": " << jsonNumber(r.p95LatencyMs)
     << ", \"mean_hops\": " << jsonNumber(r.meanHops)
     << ",\n       \"offered_pps\": " << jsonNumber(r.offeredPps)
     << ", \"goodput_pps\": " << jsonNumber(r.goodputPps)
     << ", \"generated\": " << r.generated
     << ", \"delivered\": " << r.delivered
     << ",\n       \"queue_drops\": " << r.queueDrops
     << ", \"mac_drops\": " << r.macDrops
     << ", \"collisions\": " << r.collisions
     << ", \"control_bytes\": " << r.controlBytes
     << ", \"data_bytes\": " << r.dataBytes
     << ",\n       \"rounds_completed\": " << r.roundsCompleted
     << ", \"first_death_observed\": "
     << (r.firstDeathObserved ? "true" : "false")
     << ", \"lifetime_s\": " << jsonNumber(r.lifetimeS)
     << ",\n       \"energy_total_j\": " << jsonNumber(r.energyTotalJ)
     << ", \"energy_d2\": " << jsonNumber(r.energyD2)
     << ",\n       \"outage_episodes\": " << r.outageEpisodes
     << ", \"mean_recovery_latency_s\": " << jsonNumber(r.meanRecoveryLatencyS)
     << ", \"pdr_during_outage\": " << jsonNumber(r.pdrDuringOutage);
  // Trace summary only when the spec traced the run, so untraced campaign
  // artifacts stay byte-identical to older builds.
  if (r.traceSpans > 0)
    os << ",\n       \"trace_spans\": " << r.traceSpans
       << ", \"trace_readings\": " << r.traceReadings
       << ", \"trace_reroutes\": " << r.traceReroutes
       << ", \"trace_drop_events\": " << r.traceDropEvents
       << ", \"trace_mean_path_hops\": " << jsonNumber(r.traceMeanPathHops);
  // Perf summary only when the spec counted the run, for the same
  // byte-compatibility reason. Deterministic work counters first, then the
  // machine-dependent telemetry (RSS, wall seconds, derived rates).
  if (r.perfCaptured)
    os << ",\n       \"perf_node_steps\": " << r.perfNodeSteps
       << ", \"perf_frames_transmitted\": " << r.perfFramesTransmitted
       << ", \"perf_pairs_examined\": " << r.perfPairsExamined
       << ", \"perf_rng_draws\": " << r.perfRngDraws
       << ",\n       \"perf_peak_rss_kb\": " << r.perfPeakRssKb
       << ", \"perf_wall_seconds\": " << jsonNumber(r.perfWallSeconds)
       << ", \"perf_rounds_per_sec\": " << jsonNumber(r.perfRoundsPerSec)
       << ", \"perf_frames_per_sec\": " << jsonNumber(r.perfFramesPerSec);
  os << "}";
}

int compareAxisIndex(const CampaignSpec& spec) {
  if (spec.compareKey.empty()) return -1;
  for (std::size_t i = 0; i < spec.axes.size(); ++i)
    if (spec.axes[i].key == spec.compareKey) return static_cast<int>(i);
  return -1;
}

}  // namespace

std::vector<CellSummary> summarizeCells(
    const std::vector<PlannedRun>& plan,
    const std::map<std::string, RunRecord>& records) {
  // Group by cell in plan (first-occurrence) order; each cell's ok runs stay
  // in seed-index (= plan) order.
  std::vector<CellSummary> cells;
  std::vector<std::vector<const RunRecord*>> okRuns;
  std::map<std::string, std::size_t> cellIndex;
  for (const PlannedRun& run : plan) {
    const auto it = records.find(run.id);
    WMSN_REQUIRE_MSG(it != records.end(),
                     "campaign artifact is missing run: " + run.id);
    const RunRecord& rec = it->second;
    auto [ci, inserted] = cellIndex.emplace(run.cell, cells.size());
    if (inserted) {
      cells.push_back(CellSummary{run.cell, run.axisLabels, 0, 0, false, {}});
      okRuns.emplace_back();
    }
    CellSummary& cell = cells[ci->second];
    if (rec.ok()) {
      okRuns[ci->second].push_back(&rec);
      cell.perfCaptured = cell.perfCaptured || rec.perfCaptured;
    } else {
      ++cell.nFailed;
    }
  }

  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellSummary& cell = cells[c];
    cell.nOk = okRuns[c].size();
    for (const CellMetric& m : kCellMetrics) {
      std::vector<double> samples;
      samples.reserve(okRuns[c].size());
      for (const RunRecord* r : okRuns[c]) samples.push_back(m.get(*r));
      cell.metrics.push_back(aggregate(samples));
    }
  }
  return cells;
}

std::string renderCellTable(const std::vector<CellSummary>& cells) {
  const bool anyPerf =
      std::any_of(cells.begin(), cells.end(),
                  [](const CellSummary& c) { return c.perfCaptured; });
  std::vector<std::string> header{"cell", "ok", "failed"};
  for (const CellMetric& m : kCellMetrics)
    if (m.use != Use::kPerf || anyPerf) header.emplace_back(m.column);
  TextTable table(std::move(header));
  for (const CellSummary& cell : cells) {
    std::vector<std::string> row{cell.name, TextTable::num(cell.nOk),
                                 TextTable::num(cell.nFailed)};
    for (std::size_t i = 0; i < std::size(kCellMetrics); ++i) {
      const CellMetric& m = kCellMetrics[i];
      const bool perf = m.use == Use::kPerf;
      if (perf && !anyPerf) continue;
      const bool shown = cell.nOk > 0 && (!perf || cell.perfCaptured);
      row.push_back(shown ? TextTable::num(cell.metrics[i].mean, m.precision)
                          : "-");
    }
    table.addRow(std::move(row));
  }
  return table.str();
}

std::string renderArtifact(const CampaignSpec& spec,
                           const std::vector<PlannedRun>& plan,
                           const std::map<std::string, RunRecord>& records) {
  const std::vector<CellSummary> cells = summarizeCells(plan, records);
  std::size_t failedTotal = 0;
  for (const CellSummary& cell : cells) failedTotal += cell.nFailed;

  // (context without the compare axis, compare label, seedIndex) -> record
  std::map<std::tuple<std::string, std::string, std::uint32_t>,
           const RunRecord*>
      byPair;
  std::vector<std::string> contexts;  // first-occurrence order
  const int compareAxis = compareAxisIndex(spec);
  if (compareAxis >= 0) {
    for (const PlannedRun& run : plan) {
      std::string context;
      for (std::size_t a = 0; a < run.axisLabels.size(); ++a) {
        if (static_cast<int>(a) == compareAxis) continue;
        if (!context.empty()) context += '/';
        context += run.axisLabels[a];
      }
      if (context.empty()) context = "-";
      const std::string& cmpLabel =
          run.axisLabels[static_cast<std::size_t>(compareAxis)];
      if (std::find(contexts.begin(), contexts.end(), context) ==
          contexts.end())
        contexts.push_back(context);
      byPair.emplace(std::make_tuple(context, cmpLabel, run.seedIndex),
                     &records.at(run.id));
    }
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"wmsn-campaign-v1\",\n";
  os << "  \"name\": \"" << jsonEscape(spec.name) << "\",\n";
  os << "  \"spec_fingerprint\": \"" << spec.fingerprint() << "\",\n";
  os << "  \"seed_base\": " << spec.seedBase << ",\n";
  os << "  \"repeats\": " << spec.repeats << ",\n";
  os << "  \"compare\": \"" << jsonEscape(spec.compareKey) << "\",\n";
  os << "  \"axes\": [";
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"key\": \"" << jsonEscape(spec.axes[i].key) << "\", \"labels\": [";
    for (std::size_t v = 0; v < spec.axes[i].values.size(); ++v) {
      if (v > 0) os << ", ";
      os << "\"" << jsonEscape(spec.axes[i].values[v].label) << "\"";
    }
    os << "]}";
  }
  os << "],\n";
  os << "  \"runs_total\": " << plan.size() << ",\n";
  os << "  \"runs_failed\": " << failedTotal << ",\n";

  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    appendRun(os, records.at(plan[i].id));
    os << (i + 1 < plan.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  os << "  \"cells\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellSummary& cell = cells[c];
    os << "      {\"cell\": \"" << jsonEscape(cell.name) << "\", \"labels\": {";
    for (std::size_t a = 0; a < spec.axes.size() && a < cell.labels.size();
         ++a) {
      if (a > 0) os << ", ";
      os << "\"" << jsonEscape(spec.axes[a].key) << "\": \""
         << jsonEscape(cell.labels[a]) << "\"";
    }
    os << "}, \"n_ok\": " << cell.nOk << ", \"n_failed\": " << cell.nFailed
       << ",\n       \"metrics\": {";
    bool firstMetric = true;
    for (std::size_t i = 0; i < std::size(kCellMetrics); ++i) {
      if (kCellMetrics[i].use == Use::kPerf) continue;
      if (!firstMetric) os << ", ";
      firstMetric = false;
      os << "\n        \"" << kCellMetrics[i].name << "\": ";
      appendAggregate(os, cell.metrics[i]);
    }
    os << "}}";
    os << (c + 1 < cells.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  // Paired-seed protocol-vs-protocol deltas along the compare axis: every
  // ordered pair (a earlier than b in axis declaration), paired by seed
  // index within each context (the other axes' labels), ok runs only.
  os << "  \"deltas\": [";
  bool firstDelta = true;
  if (compareAxis >= 0) {
    const Axis& axis = spec.axes[static_cast<std::size_t>(compareAxis)];
    for (const std::string& context : contexts) {
      for (std::size_t ia = 0; ia < axis.values.size(); ++ia) {
        for (std::size_t ib = ia + 1; ib < axis.values.size(); ++ib) {
          const std::string& la = axis.values[ia].label;
          const std::string& lb = axis.values[ib].label;
          // Collect seed-paired ok runs.
          std::vector<std::pair<const RunRecord*, const RunRecord*>> pairs;
          for (std::uint32_t s = 0; s < spec.repeats; ++s) {
            const auto pa = byPair.find(std::make_tuple(context, la, s));
            const auto pb = byPair.find(std::make_tuple(context, lb, s));
            if (pa == byPair.end() || pb == byPair.end()) continue;
            if (!pa->second->ok() || !pb->second->ok()) continue;
            pairs.emplace_back(pa->second, pb->second);
          }
          os << (firstDelta ? "\n" : ",\n");
          firstDelta = false;
          os << "      {\"axis\": \"" << jsonEscape(axis.key)
             << "\", \"context\": \"" << jsonEscape(context) << "\", \"a\": \""
             << jsonEscape(la) << "\", \"b\": \"" << jsonEscape(lb)
             << "\", \"pairs\": " << pairs.size() << ",\n       \"metrics\": {";
          bool firstMetric = true;
          for (const CellMetric& m : kCellMetrics) {
            if (m.use != Use::kDelta) continue;
            std::size_t pos = 0;
            std::size_t neg = 0;
            std::size_t ties = 0;
            double sum = 0.0;
            for (const auto& [ra, rb] : pairs) {
              const double d = m.get(*rb) - m.get(*ra);
              sum += d;
              if (d > 0.0)
                ++pos;
              else if (d < 0.0)
                ++neg;
              else
                ++ties;
            }
            const double meanDelta =
                pairs.empty() ? 0.0 : sum / static_cast<double>(pairs.size());
            if (!firstMetric) os << ", ";
            firstMetric = false;
            os << "\n        \"" << m.name
               << "\": {\"mean_delta\": " << jsonNumber(meanDelta)
               << ", \"positive\": " << pos << ", \"negative\": " << neg
               << ", \"ties\": " << ties
               << ", \"sign_p\": " << jsonNumber(signTestTwoSided(pos, neg))
               << "}";
          }
          os << "}}";
        }
      }
    }
  }
  os << (firstDelta ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace wmsn::campaign
