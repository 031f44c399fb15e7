// OBSOVH — what observability costs. Runs the same MLR scenario with each
// instrumentation layer switched on in turn and reports wall-clock overhead
// against the bare run. The contract the subsystem is built around: a null
// (counting) trace sink must stay within ~5% of the uninstrumented run, so
// "how many frames flew" is always affordable; serialising sinks and the
// per-round sampler are allowed to cost more since they buffer real output.
//
//   ./bench_obs_overhead [--csv out.csv] [--reps n] [--check]
//
// --check enforces the observability budget and exits non-zero when it is
// blown: the null trace sink must stay within 2% of bare, and sampled span
// tracing (10% of readings retained) within 5%. The budget is evaluated on
// the min-of-reps numbers — the least-perturbed samples. Reps run
// round-robin (bare, then every variant, then the next rep), so bare and
// each variant see the same host drift.

#include <chrono>
#include <functional>

#include "bench_util.hpp"
#include "core/trace.hpp"

namespace {

using namespace wmsn;

core::ScenarioConfig baseConfig() {
  core::ScenarioConfig cfg;
  cfg.protocol = core::ProtocolKind::kMlr;
  cfg.sensorCount = 100;
  cfg.gatewayCount = 3;
  cfg.feasiblePlaceCount = 6;
  // Long enough that a bare rep takes a few hundred milliseconds: the 2%
  // bounds then sit well above the scheduler noise of a shared host, which
  // an 8-round (~20 ms) rep did not.
  cfg.rounds = 150;
  cfg.packetsPerSensorPerRound = 2;
  cfg.seed = 11;
  return cfg;
}

struct Variant {
  std::string name;
  std::function<core::ScenarioConfig()> config;
  /// Optional per-run hook attaching a trace sink; returns the logger so it
  /// lives for the duration of the run.
  obs::TraceFormat traceFormat = obs::TraceFormat::kNull;
  bool trace = false;
};

/// Wall seconds for one build+run, timing only the run itself.
double timeVariant(const Variant& v, std::uint64_t& events) {
  auto scenario = core::buildScenario(v.config());
  core::TraceLogger trace(v.traceFormat);
  if (v.trace) trace.attach(*scenario);
  core::Experiment experiment(*scenario);
  const auto start = std::chrono::steady_clock::now();
  const auto result = experiment.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  events = v.trace ? trace.rows() : result.eventsProcessed;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv);
  unsigned reps = 10;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--reps" && i + 1 < argc)
      reps = bench::parseUintFlag("--reps", argv[++i]);
    else if (std::string(argv[i]) == "--check")
      check = true;
  }
  if (reps == 0) reps = 1;

  bench::banner(
      "OBSOVH", "observability overhead (null sink, metrics, profiler)",
      "instrumentation must not distort the experiments it measures: the "
      "counting sink and disabled-profiler paths stay near the bare run");

  std::vector<Variant> variants;
  variants.push_back({"bare", baseConfig});
  variants.push_back({"null-trace-sink", baseConfig,
                      obs::TraceFormat::kNull, true});
  variants.push_back({"metrics", [] {
                        auto cfg = baseConfig();
                        cfg.obs.metrics = true;
                        return cfg;
                      }});
  variants.push_back({"metrics+timeseries", [] {
                        auto cfg = baseConfig();
                        cfg.obs.metrics = true;
                        cfg.obs.timeseries = true;
                        return cfg;
                      }});
  variants.push_back({"csv-trace-sink", baseConfig,
                      obs::TraceFormat::kCsv, true});
  variants.push_back({"jsonl-trace-sink", baseConfig,
                      obs::TraceFormat::kJsonl, true});
  variants.push_back({"trace-spans-full", [] {
                        auto cfg = baseConfig();
                        cfg.obs.traceSpans = true;
                        return cfg;
                      }});
  variants.push_back({"trace-spans-sampled", [] {
                        auto cfg = baseConfig();
                        cfg.obs.traceSpans = true;
                        cfg.obs.traceSamplePermille = 100;
                        return cfg;
                      }});
  variants.push_back({"profile", [] {
                        auto cfg = baseConfig();
                        cfg.obs.profile = true;
                        return cfg;
                      }});
  // The WMSN_PERF sites are always compiled in; "perf-disabled" re-measures
  // the bare configuration so the null-ledger path (one thread-local load
  // per site) is shown to sit inside run-to-run noise, and "perf-counters"
  // measures the armed ledger plus the allocation-counting window.
  variants.push_back({"perf-disabled", baseConfig});
  variants.push_back({"perf-counters", [] {
                        auto cfg = baseConfig();
                        cfg.obs.perf = true;
                        return cfg;
                      }});

  // Warm-up run so first-touch costs (page faults, allocator growth) do not
  // land on the bare baseline.
  {
    std::uint64_t ignore = 0;
    timeVariant(variants.front(), ignore);
  }

  // Round-robin schedule: every rep runs bare, then each variant, so bare
  // and every variant sample the same stretch of host drift. Each variant
  // keeps its best (minimum) rep — the least-perturbed sample.
  std::vector<double> best(variants.size(), 1e18);
  std::vector<std::uint64_t> events(variants.size(), 0);
  for (unsigned rep = 0; rep < reps; ++rep)
    for (std::size_t k = 0; k < variants.size(); ++k)
      best[k] = std::min(best[k], timeVariant(variants[k], events[k]));

  const double baseline = best.front();  // variants.front() is bare
  TextTable table({"variant", "events", "best ms", "overhead %"});
  CsvWriter csv({"variant", "events", "best_ms", "overhead_pct"});
  std::vector<std::pair<std::string, double>> overheads;
  for (std::size_t k = 0; k < variants.size(); ++k) {
    const std::string& name = variants[k].name;
    const double overheadPct =
        baseline > 0.0 ? (best[k] / baseline - 1.0) * 100.0 : 0.0;
    overheads.emplace_back(name, overheadPct);
    table.addRow({name, TextTable::num(events[k]),
                  TextTable::num(best[k] * 1e3, 2),
                  TextTable::num(overheadPct, 1)});
    csv.addRow({name, TextTable::num(events[k]),
                TextTable::num(best[k] * 1e3, 3),
                TextTable::num(overheadPct, 2)});
  }

  core::printSection(std::cout,
                     "wall-clock overhead vs bare run (min of " +
                         std::to_string(reps) + " reps)",
                     table);
  std::cout << "expected shape: null-trace-sink and profile within a few "
               "percent of bare; serialising sinks cost more because they "
               "buffer one row per frame event.\n";
  bench::maybeWriteCsv(args, csv);

  if (check) {
    // The obs budget the PR contract enforces in CI (min-of-reps):
    //   null-trace-sink   <= 2%  — counting frames is always affordable
    //   trace-spans-sampled <= 5% — head-sampled causal tracing stays cheap
    //   perf-disabled     <= 2%  — un-armed WMSN_PERF sites are noise
    //   perf-counters     <= 5%  — the armed ledger is one add per site
    const std::vector<std::pair<std::string, double>> budget = {
        {"null-trace-sink", 2.0},
        {"trace-spans-sampled", 5.0},
        {"perf-disabled", 2.0},
        {"perf-counters", 5.0},
    };
    bool ok = true;
    for (const auto& [name, limitPct] : budget) {
      double measured = 0.0;
      for (const auto& [vname, pct] : overheads)
        if (vname == name) measured = pct;
      const bool pass = measured <= limitPct;
      std::cout << "budget " << name << ": " << TextTable::num(measured, 1)
                << "% (limit " << TextTable::num(limitPct, 1) << "%) "
                << (pass ? "ok" : "EXCEEDED") << "\n";
      ok = ok && pass;
    }
    if (!ok) {
      std::cout << "observability budget exceeded\n";
      return 1;
    }
    std::cout << "observability budget ok\n";
  }
  return 0;
}
