// Benchmark workload driver. Runs one workload against the simulator's
// public API and prints its raw host-time samples, work counts and
// correctness digest as one JSON line; perfbench/run.py turns those into
// the reported metrics. Every timing here is host time (what the simulator
// costs to run); simulated quantities only enter the digest.
//
//   wmsn_perfbench --kind sim|campaign --spec FILE --seed N --seconds S
//                  --trace 0|1 --min-reps K --work-dir DIR --workers W

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "crypto/sha256.hpp"
#include "net/deployment.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace {

using namespace wmsn;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string kind;
  std::string spec;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t minReps = 1;
  std::string workDir;
  unsigned workers = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "wmsn_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--kind") a.kind = value;
    else if (key == "--spec") a.spec = value;
    else if (key == "--seed") {
      a.seed = std::stoull(value);
      haveSeed = true;
    } else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--min-reps") a.minReps = std::stoul(value);
    else if (key == "--work-dir") a.workDir = value;
    else if (key == "--workers") a.workers = static_cast<unsigned>(std::stoul(value));
    else usage("unknown flag " + key);
  }
  if (a.kind != "sim" && a.kind != "campaign") usage("--kind sim|campaign");
  if (a.spec.empty() || !haveSeed) usage("--spec and --seed are required");
  if (a.kind == "campaign" && a.workDir.empty())
    usage("campaign needs --work-dir");
  return a;
}

std::string hex(const crypto::Sha256::Digest& d) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : d) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// Canonical text of every deterministic RunResult field plus the medium's
/// counters. Floats are written as hex so the digest is bit-exact.
class DigestText {
 public:
  void u(const char* key, std::uint64_t v) {
    os_ << key << '=' << v << '\n';
  }
  void f(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    os_ << key << '=' << buf << '\n';
  }
  void s(const char* key, const std::string& v) {
    os_ << key << '=' << v << '\n';
  }
  std::string sha256() const { return hex(crypto::Sha256::hash(os_.str())); }

 private:
  std::ostringstream os_;
};

void digestEnergy(DigestText& d, const char* prefix,
                  const core::EnergySummary& e) {
  const std::string p = prefix;
  d.f((p + ".total").c_str(), e.totalJ);
  d.f((p + ".mean").c_str(), e.meanJ);
  d.f((p + ".d2").c_str(), e.varianceD2);
  d.f((p + ".stddev").c_str(), e.stddevJ);
  d.f((p + ".min").c_str(), e.minJ);
  d.f((p + ".max").c_str(), e.maxJ);
  d.f((p + ".jain").c_str(), e.jainFairness);
  d.f((p + ".tx").c_str(), e.txJ);
  d.f((p + ".rx").c_str(), e.rxJ);
  d.f((p + ".cpu").c_str(), e.cpuJ);
  for (const double j : e.perSensorJ) d.f((p + ".node").c_str(), j);
}

std::string simDigest(const core::RunResult& r, net::Medium& medium) {
  DigestText d;
  d.s("protocol", r.protocol);
  d.s("workload", r.workload);
  d.u("rounds", r.roundsCompleted);
  d.u("first_death_observed", r.firstDeathObserved ? 1 : 0);
  d.u("first_death_round", r.firstDeathRound);
  d.f("first_death_s", r.firstDeathSeconds);
  d.u("alive_sensors", r.aliveSensors);
  d.u("generated", r.generated);
  d.u("delivered", r.delivered);
  d.f("pdr", r.deliveryRatio);
  d.f("mean_hops", r.meanHops);
  d.f("mean_latency_ms", r.meanLatencyMs);
  d.f("p95_latency_ms", r.p95LatencyMs);
  d.u("control_frames", r.controlFrames);
  d.u("data_frames", r.dataFrames);
  d.u("control_bytes", r.controlBytes);
  d.u("data_bytes", r.dataBytes);
  d.u("collisions", r.collisions);
  d.u("duplicate_deliveries", r.duplicateDeliveries);
  for (const auto& [gw, n] : r.perGatewayDeliveries) {
    d.u("gateway", gw);
    d.u("gateway_delivered", n);
  }
  d.u("mac_drops", r.macDrops);
  d.u("queue_drops", r.queueDrops);
  d.u("peak_queue_depth", r.peakQueueDepth);
  d.f("mean_queue_depth", r.meanQueueDepth);
  d.f("offered_pps", r.offeredPps);
  d.f("goodput_pps", r.goodputPps);
  digestEnergy(d, "sensor_energy", r.sensorEnergy);
  digestEnergy(d, "gateway_energy", r.gatewayEnergy);
  d.u("rejected_macs", r.rejectedMacs);
  d.u("rejected_replays", r.rejectedReplays);
  d.u("rejected_tesla", r.rejectedTesla);
  d.u("attacker_dropped", r.attackerStats.framesDropped);
  d.u("attacker_forged", r.attackerStats.framesForged);
  d.u("attacker_replayed", r.attackerStats.framesReplayed);
  d.u("attacker_tunnelled", r.attackerStats.framesTunnelled);
  const core::FaultSummary& fs = r.faults;
  d.u("fault_sensor_crashes", fs.sensorCrashes);
  d.u("fault_sensor_recoveries", fs.sensorRecoveries);
  d.u("fault_gateway_failures", fs.gatewayFailures);
  d.u("fault_gateway_recoveries", fs.gatewayRecoveries);
  d.u("fault_link_drops", fs.linkFaultDrops);
  d.u("fault_outages", fs.outageEpisodes);
  d.f("fault_pdr_during_outage", fs.pdrDuringOutage);
  d.u("events", r.eventsProcessed);
  d.u("medium_tx", medium.framesTransmitted());
  d.u("medium_corrupted", medium.framesCorrupted());
  d.u("medium_arq_retx", medium.arqRetransmissions());
  d.u("medium_link_fault_dropped", medium.framesLinkFaultDropped());
  return d.sha256();
}

/// Peak resident set of this process image in KiB (VmHWM). Unlike
/// getrusage(RUSAGE_SELF), whose ru_maxrss survives execve, this starts
/// afresh in the exec'd driver, so the launcher's own RSS never shows.
std::uint64_t selfPeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  return 0;
}

/// Largest peak RSS among waited-for children (forked campaign workers).
std::uint64_t childrenPeakRssKb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// Minimal JSON object writer for the one result line.
class JsonLine {
 public:
  void uint(const std::string& key, std::uint64_t v) {
    sep();
    os_ << '"' << key << "\": " << v;
  }
  void str(const std::string& key, const std::string& v) {
    sep();
    os_ << '"' << key << "\": \"" << jsonEscape(v) << '"';
  }
  void nums(const std::string& key, const std::vector<double>& v) {
    sep();
    os_ << '"' << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      os_ << (i ? ", " : "") << jsonNumber(v[i]);
    os_ << ']';
  }
  void numRows(const std::string& key,
               const std::vector<std::vector<double>>& rows) {
    sep();
    os_ << '"' << key << "\": [";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      os_ << (r ? ", [" : "[");
      for (std::size_t i = 0; i < rows[r].size(); ++i)
        os_ << (i ? ", " : "") << jsonNumber(rows[r][i]);
      os_ << ']';
    }
    os_ << ']';
  }
  void strs(const std::string& key, const std::vector<std::string>& v) {
    sep();
    os_ << '"' << key << "\": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      os_ << (i ? ", " : "") << '"' << jsonEscape(v[i]) << '"';
    os_ << ']';
  }
  std::string done() const {
    std::string line = "{";
    line += os_.str();
    line += '}';
    return line;
  }

 private:
  void sep() {
    if (!first_) os_ << ", ";
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Repetition rule shared by both kinds: at least `minReps`, then keep going
/// while one more repetition of the last one's length still fits in the
/// time budget.
bool another(std::size_t reps, std::size_t minReps, double elapsed,
             double lastRep, double budget) {
  return reps < minReps || elapsed + lastRep <= budget;
}

// ---------------------------------------------------------------------------
// Simulation workloads: buildScenario (set-up) then Experiment::run (timed).

/// Work one repetition did, summed over the workload's planned runs. Every
/// count is deterministic, so any repetition's counts stand for all.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t controlFrames = 0;
  std::uint64_t dataFrames = 0;
  std::uint64_t collisions = 0;
  std::uint64_t macDrops = 0;
  std::uint64_t queueDrops = 0;
  std::uint64_t arqRetx = 0;
  std::uint64_t secmlrRejects = 0;
  // Traced runs only.
  obs::PerfStats perf;
  obs::Profiler profiler;
  std::uint64_t allocCount = 0;
  std::uint64_t allocBytes = 0;
  std::size_t queueDepthMax = 0;
  std::uint64_t framesObserved = 0;
  std::uint64_t roundsObserved = 0;
};

int runSim(const Args& a) {
  campaign::CampaignSpec spec = campaign::loadSpec(a.spec);
  spec.seedBase = a.seed;
  std::vector<campaign::PlannedRun> plan = campaign::expand(spec);
  for (campaign::PlannedRun& run : plan) {
    run.config.obs.profile = a.trace;
    run.config.obs.perf = a.trace;
  }

  // Timings per planned run (one sample per repetition), so each run's
  // median is taken over its own samples.
  std::vector<std::vector<double>> setupS(plan.size()), wallS(plan.size());
  std::vector<double> connectS, dispatchSelf, macSelf, routingSelf,
      cryptoSelf;
  std::vector<std::string> digests;
  std::uint64_t failedReps = 0;
  SimCounts counts;

  // One repetition runs every planned run in plan order: build (set-up),
  // run (timed), digest. The repetition's digest chains the run digests.
  auto repetition = [&] {
    SimCounts c;
    std::vector<double> setup, wall;
    double connect = 0.0;
    std::string runDigests;
    for (const campaign::PlannedRun& run : plan) {
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<core::Scenario> scenario =
          core::buildScenario(run.config);
      setup.push_back(since(t0));

      core::Experiment experiment(*scenario);
      const sim::Simulator& simulator = scenario->simulator;
      if (a.trace) {
        scenario->network->attachFrameObserver(
            "perfbench-frames",
            [&](const net::Packet&, net::NodeId, bool transmit) {
              if (transmit) ++c.framesObserved;
              c.queueDepthMax = std::max(c.queueDepthMax, simulator.queueSize());
            });
        experiment.addRoundObserver("perfbench-rounds",
                                    [&](std::uint32_t) { ++c.roundsObserved; });
      }

      const Clock::time_point t1 = Clock::now();
      const core::RunResult r = experiment.run();
      wall.push_back(since(t1));

      net::Medium& medium = scenario->network->medium();
      runDigests += simDigest(r, medium);
      c.events += r.eventsProcessed;
      c.controlFrames += r.controlFrames;
      c.dataFrames += r.dataFrames;
      c.collisions += r.collisions;
      c.macDrops += r.macDrops;
      c.queueDrops += r.queueDrops;
      c.arqRetx += medium.arqRetransmissions();
      c.secmlrRejects += r.rejectedMacs + r.rejectedReplays + r.rejectedTesla;
      if (!a.trace) continue;

      c.perf.merge(r.observations->perf);
      c.profiler.merge(r.observations->profiler);
      c.allocCount += r.observations->telemetry.allocCount;
      c.allocBytes += r.observations->telemetry.allocBytes;
      // The O(n^2) connectivity BFS inside buildScenario, timed on its own.
      std::vector<net::Point> sensors;
      for (const net::NodeId id : scenario->network->sensorIds())
        sensors.push_back(scenario->network->positionOf(id));
      const Clock::time_point tc = Clock::now();
      if (!net::sensorsConnected(sensors, run.config.radioRange))
        throw std::runtime_error("built deployment is not connected");
      connect += since(tc);
    }
    digests.push_back(hex(crypto::Sha256::hash(runDigests)));
    for (std::size_t k = 0; k < plan.size(); ++k) {
      setupS[k].push_back(setup[k]);
      wallS[k].push_back(wall[k]);
    }
    if (a.trace) {
      connectS.push_back(connect);
      const auto self = [&](obs::Phase phase) {
        return c.profiler.totals(phase).selfSeconds;
      };
      dispatchSelf.push_back(self(obs::Phase::kEventDispatch));
      macSelf.push_back(self(obs::Phase::kMacContention));
      routingSelf.push_back(self(obs::Phase::kRouteMaintenance));
      cryptoSelf.push_back(self(obs::Phase::kCrypto));
    }
    counts = std::move(c);
  };

  const Clock::time_point start = Clock::now();
  double lastRep = 0.0;
  while (another(digests.size(), a.minReps, since(start), lastRep,
                 a.seconds)) {
    const Clock::time_point repStart = Clock::now();
    try {
      repetition();
    } catch (const std::exception& e) {
      // Deterministic: the same inputs would throw again, so stop here.
      std::fprintf(stderr, "wmsn_perfbench: repetition failed: %s\n",
                   e.what());
      ++failedReps;
      break;
    }
    lastRep = since(repStart);
  }
  if (digests.empty()) return 1;

  JsonLine out;
  out.str("kind", "sim");
  out.str("compiler", __VERSION__);
  out.uint("seed", a.seed);
  out.uint("runs", plan.size());
  out.strs("digests", digests);
  out.uint("failed_reps", failedReps);
  out.numRows("setup_s", setupS);
  out.numRows("wall_s", wallS);
  out.uint("events", counts.events);
  out.uint("peak_rss_kb", selfPeakRssKb());
  out.uint("control_frames", counts.controlFrames);
  out.uint("data_frames", counts.dataFrames);
  out.uint("collisions", counts.collisions);
  out.uint("mac_drops", counts.macDrops);
  out.uint("queue_drops", counts.queueDrops);
  out.uint("arq_retx", counts.arqRetx);
  out.uint("secmlr_rejects", counts.secmlrRejects);
  if (a.trace) {
    for (std::size_t i = 0; i < obs::kPerfCounterCount; ++i) {
      const auto counter = static_cast<obs::PerfCounter>(i);
      out.uint(std::string("perf.") + obs::metricName(counter),
               counts.perf.value(counter));
    }
    out.uint("alloc_count", counts.allocCount);
    out.uint("alloc_bytes", counts.allocBytes);
    out.uint("crypto_calls", counts.profiler.totals(obs::Phase::kCrypto).calls);
    out.uint("queue_depth_max", counts.queueDepthMax);
    out.uint("frames_observed", counts.framesObserved);
    out.uint("rounds_observed", counts.roundsObserved);
    out.nums("connectivity_check_s", connectS);
    out.nums("dispatch_self_s", dispatchSelf);
    out.nums("mac_medium_self_s", macSelf);
    out.nums("maintenance_self_s", routingSelf);
    out.nums("crypto_self_s", cryptoSelf);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Campaign workload: loadSpec + expand (set-up) then runCampaign (timed).

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int runCampaignWorkload(const Args& a) {
  // Set-up takes well under a millisecond, so it repeats many times for a
  // steady median: 250 times before every campaign, so that its samples
  // span the whole run, as the campaign's own do.
  std::vector<double> planS;
  campaign::CampaignSpec spec;
  std::vector<campaign::PlannedRun> plan;
  auto setUp = [&] {
    for (int i = 0; i < 250; ++i) {
      const Clock::time_point t0 = Clock::now();
      spec = campaign::loadSpec(a.spec);
      spec.seedBase = a.seed;
      // The traced run turns perf counting on without touching the spec
      // text, so the spec fingerprint (and every artifact byte but the perf
      // fields) is unchanged.
      if (a.trace) spec.base.emplace_back("perf", "on");
      plan = campaign::expand(spec);
      planS.push_back(since(t0));
    }
  };
  setUp();

  campaign::CampaignOptions opts;
  opts.outPath = a.workDir + "/campaign-artifact.json";
  opts.journalPath = a.workDir + "/campaign.journal";
  opts.workers = a.workers;
  opts.quiet = true;

  // Per-run samples are grouped by the label on the spec's `fault` axis.
  std::size_t faultAxis = 0;
  while (faultAxis < spec.axes.size() && spec.axes[faultAxis].key != "fault")
    ++faultAxis;
  if (faultAxis == spec.axes.size())
    throw std::runtime_error("campaign spec has no fault axis");

  std::vector<double> wallS;
  std::vector<std::string> digests;
  std::vector<double> runS;
  std::vector<std::string> runScenario;
  std::uint64_t events = 0, runsFailed = 0, stolen = 0;
  std::size_t runs = 0;

  const Clock::time_point start = Clock::now();
  double lastRep = 0.0;
  while (another(digests.size(), a.minReps, since(start), lastRep,
                 a.seconds)) {
    if (!digests.empty()) setUp();
    const Clock::time_point repStart = Clock::now();
    const campaign::CampaignOutcome outcome = campaign::runCampaign(spec, opts);
    wallS.push_back(since(repStart));
    runs = outcome.runsTotal;
    runsFailed = outcome.runsFailed;
    stolen = outcome.pool.stolen;

    std::map<std::string, campaign::RunRecord> records =
        campaign::Journal::resume(opts.journalPath, spec.fingerprint(),
                                  plan.size())
            .loaded();
    events = 0;
    runS.clear();
    runScenario.clear();
    for (const campaign::PlannedRun& run : plan) {
      campaign::RunRecord& rec = records.at(run.id);
      if (!rec.metricsWire.empty()) {
        const obs::MetricsRegistry reg =
            obs::MetricsRegistry::fromWire(rec.metricsWire);
        const obs::Counter* c = reg.findCounter(
            "wmsn_events_processed_total",
            {{"protocol", core::toString(run.config.protocol)}});
        if (c != nullptr) events += c->value();
      }
      if (a.trace) {
        runS.push_back(rec.perfWallSeconds);
        runScenario.push_back(run.axisLabels[faultAxis]);
        rec.perfCaptured = false;
      }
    }
    // Traced: re-render without the perf fields, which must give the
    // untraced artifact byte for byte.
    const std::string artifact =
        a.trace ? campaign::renderArtifact(spec, plan, records)
                : readFile(opts.outPath);
    digests.push_back(hex(crypto::Sha256::hash(artifact)));
    lastRep = since(repStart);
  }

  JsonLine out;
  out.str("kind", "campaign");
  out.str("compiler", __VERSION__);
  out.uint("seed", a.seed);
  out.uint("workers", a.workers);
  out.strs("digests", digests);
  out.numRows("setup_s", {planS});
  out.numRows("wall_s", {wallS});
  out.uint("runs", runs);
  out.uint("runs_failed", runsFailed);
  out.uint("events", events);
  out.uint("peak_rss_kb", std::max(selfPeakRssKb(), childrenPeakRssKb()));
  out.uint("stolen", stolen);
  if (a.trace) {
    out.nums("run_s", runS);
    out.strs("run_scenario", runScenario);
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    return args.kind == "sim" ? runSim(args) : runCampaignWorkload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmsn_perfbench: %s\n", e.what());
    return 1;
  }
}
