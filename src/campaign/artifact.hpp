#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/record.hpp"
#include "campaign/spec.hpp"
#include "campaign/stats.hpp"

namespace wmsn::campaign {

/// One cell of the campaign grid summarised over its runs. The artifact's
/// "cells" array and the end-of-campaign table are two views of it.
struct CellSummary {
  std::string name;
  std::vector<std::string> labels;  ///< one per axis, declaration order
  std::size_t nOk = 0;
  std::size_t nFailed = 0;
  bool perfCaptured = false;  ///< its ok runs carry the perf summary
  /// One aggregate per cell metric (artifact order), over the ok runs.
  std::vector<Aggregate> metrics;
};

/// Groups the records into cells in plan (first-occurrence) order and
/// aggregates every cell metric over each cell's ok runs. `records` must
/// hold one RunRecord per planned run.
std::vector<CellSummary> summarizeCells(
    const std::vector<PlannedRun>& plan,
    const std::map<std::string, RunRecord>& records);

/// Text view of the cell summaries: one row per cell with its ok and failed
/// counts and each metric's mean at table precision. Perf columns (frames
/// transmitted, pairs examined, peak RSS, wall time) appear only when some
/// cell captured perf, and read "-" in a cell that did not.
std::string renderCellTable(const std::vector<CellSummary>& cells);

/// Renders the campaign JSON artifact (schema "wmsn-campaign-v1", see
/// docs/METRICS.md). `records` must hold one RunRecord per planned run.
///
/// Determinism contract: output is a pure function of (spec, plan, records)
/// — iteration follows plan expansion order, numbers go through jsonNumber,
/// and nothing scheduling-dependent (worker count, completion order, steal
/// counts, timestamps) appears. This is what makes the artifact
/// byte-identical across --workers 1/4/16 and across kill + --resume.
std::string renderArtifact(const CampaignSpec& spec,
                           const std::vector<PlannedRun>& plan,
                           const std::map<std::string, RunRecord>& records);

}  // namespace wmsn::campaign
