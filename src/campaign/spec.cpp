#include "campaign/spec.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "util/parse.hpp"
#include "util/random.hpp"
#include "util/require.hpp"

namespace wmsn::campaign {

namespace {

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  const std::size_t last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(trim(s.substr(start)));
      return out;
    }
    out.push_back(trim(s.substr(start, pos - start)));
    start = pos + 1;
  }
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw PreconditionError("campaign spec line " + std::to_string(line) + ": " +
                          what);
}

std::string keyLabel(const std::string& key) {
  return "campaign key '" + key + "'";
}

bool parseSwitch(const std::string& key, const std::string& value) {
  if (value == "on" || value == "true") return true;
  if (value == "off" || value == "false") return false;
  throw PreconditionError("campaign key '" + key +
                          "': expected on/off, got '" + value + "'");
}

/// One accepted spelling of an enum-valued setting. The tables below are the
/// single vocabulary for these keys: applySetting looks values up in them and
/// settingChoices lists them (wmsn_cli --list).
template <typename Kind>
struct Choice {
  std::string_view name;  // a view, so a lookup compares lengths first
  Kind kind;
};

constexpr Choice<core::ProtocolKind> kProtocols[] = {
    {"flooding", core::ProtocolKind::kFlooding},
    {"gossip", core::ProtocolKind::kGossip},
    {"spin", core::ProtocolKind::kSpin},
    {"diffusion", core::ProtocolKind::kDiffusion},
    {"leach", core::ProtocolKind::kLeach},
    {"pegasis", core::ProtocolKind::kPegasis},
    {"teen", core::ProtocolKind::kTeen},
    {"single-sink", core::ProtocolKind::kSingleSink},
    {"spr", core::ProtocolKind::kSpr},
    {"mlr", core::ProtocolKind::kMlr},
    {"secmlr", core::ProtocolKind::kSecMlr},
};

constexpr Choice<attacks::AttackKind> kAttacks[] = {
    {"none", attacks::AttackKind::kNone},
    {"replay", attacks::AttackKind::kReplay},
    {"spoof", attacks::AttackKind::kSpoofMove},
    {"selective", attacks::AttackKind::kSelectiveForward},
    {"sinkhole", attacks::AttackKind::kSinkhole},
    {"hello-flood", attacks::AttackKind::kHelloFlood},
    {"sybil", attacks::AttackKind::kSybil},
    {"wormhole", attacks::AttackKind::kWormhole},
    {"ack-spoof", attacks::AttackKind::kAckSpoof},
};

constexpr Choice<core::DeploymentKind> kDeployments[] = {
    {"uniform", core::DeploymentKind::kUniform},
    {"grid", core::DeploymentKind::kGrid},
    {"clustered", core::DeploymentKind::kClustered},
};

constexpr Choice<workload::WorkloadKind> kWorkloads[] = {
    {"legacy", workload::WorkloadKind::kLegacyRounds},
    {"periodic", workload::WorkloadKind::kPeriodic},
    {"poisson", workload::WorkloadKind::kPoisson},
    {"burst", workload::WorkloadKind::kBurst},
};

constexpr Choice<net::QueuePolicy> kQueuePolicies[] = {
    {"drop-tail", net::QueuePolicy::kDropTail},
    {"drop-oldest", net::QueuePolicy::kDropOldest},
};

template <typename Kind, std::size_t N>
Kind lookup(const Choice<Kind> (&table)[N], const std::string& key,
            const std::string& value) {
  for (const Choice<Kind>& choice : table)
    if (value == choice.name) return choice.kind;
  throw PreconditionError(keyLabel(key) + ": unknown value '" + value + "'");
}

template <typename Kind, std::size_t N>
std::vector<std::string> names(const Choice<Kind> (&table)[N]) {
  std::vector<std::string> out;
  for (const Choice<Kind>& choice : table)
    if (choice.name != "none") out.emplace_back(choice.name);
  std::sort(out.begin(), out.end());
  return out;
}

/// Fault axis value: `none`, or ';'-joined tokens — scheduled events in the
/// --fault-plan grammar (gw0@3, s17+@5), `smtbf:N`/`smttr:N` sensor churn,
/// `gwmtbf:N`/`gwmttr:N` gateway churn, `loss:P` Gilbert–Elliott loss at
/// steady-state fraction P.
void applyFault(core::ScenarioConfig& cfg, const std::string& value) {
  cfg.faults = fault::FaultPlan{};
  if (value == "none") return;
  for (const std::string& token : splitList(value, ';')) {
    if (token.rfind("smtbf:", 0) == 0) {
      cfg.faults.sensorMtbfRounds = static_cast<std::uint32_t>(
          parseUint(keyLabel("fault"), token.substr(6)));
    } else if (token.rfind("smttr:", 0) == 0) {
      cfg.faults.sensorMttrRounds = static_cast<std::uint32_t>(
          parseUint(keyLabel("fault"), token.substr(6)));
    } else if (token.rfind("gwmtbf:", 0) == 0) {
      cfg.faults.gatewayMtbfRounds = static_cast<std::uint32_t>(
          parseUint(keyLabel("fault"), token.substr(7)));
    } else if (token.rfind("gwmttr:", 0) == 0) {
      cfg.faults.gatewayMttrRounds = static_cast<std::uint32_t>(
          parseUint(keyLabel("fault"), token.substr(7)));
    } else if (token.rfind("loss:", 0) == 0) {
      const double p = parseDouble(keyLabel("fault"), token.substr(5));
      if (!(p >= 0.0 && p < 1.0))
        throw PreconditionError(keyLabel("fault") +
                                ": loss fraction must be in [0,1)");
      if (p > 0.0) {
        cfg.faults.linkLoss.enabled = true;
        cfg.faults.linkLoss.pGoodToBad =
            cfg.faults.linkLoss.pBadToGood * p / (1.0 - p);
      }
    } else {
      const auto events = fault::parseFaultPlan(token);
      cfg.faults.events.insert(cfg.faults.events.end(), events.begin(),
                               events.end());
    }
  }
}

}  // namespace

void applySetting(core::ScenarioConfig& cfg, const std::string& key,
                  const std::string& value) {
  // A view compares lengths first, so each miss in this chain is cheap.
  const std::string_view k = key;
  if (k == "protocol") {
    cfg.protocol = lookup(kProtocols, key, value);
  } else if (k == "sensors") {
    cfg.sensorCount = parseUint(keyLabel(key), value);
  } else if (k == "gateways") {
    cfg.gatewayCount = parseUint(keyLabel(key), value);
  } else if (k == "places") {
    cfg.feasiblePlaceCount = parseUint(keyLabel(key), value);
  } else if (k == "clusters") {
    cfg.clusterCount = parseUint(keyLabel(key), value);
  } else if (k == "area") {
    cfg.width = cfg.height = parseDouble(keyLabel(key), value);
  } else if (k == "range") {
    cfg.radioRange = parseDouble(keyLabel(key), value);
  } else if (k == "rounds") {
    cfg.rounds = static_cast<std::uint32_t>(parseUint(keyLabel(key), value));
  } else if (k == "packets") {
    cfg.packetsPerSensorPerRound =
        static_cast<std::uint32_t>(parseUint(keyLabel(key), value));
  } else if (k == "reading-bytes") {
    cfg.readingBytes = parseUint(keyLabel(key), value);
  } else if (k == "deployment") {
    cfg.deployment = lookup(kDeployments, key, value);
  } else if (k == "workload") {
    cfg.workload.kind = lookup(kWorkloads, key, value);
  } else if (k == "rate") {
    cfg.workload.ratePerSensor = parseDouble(keyLabel(key), value);
    cfg.workload.burst.backgroundRate = cfg.workload.ratePerSensor;
  } else if (k == "queue") {
    cfg.macQueue.capacity = parseUint(keyLabel(key), value);
  } else if (k == "queue-policy") {
    cfg.macQueue.policy = lookup(kQueuePolicies, key, value);
  } else if (k == "static") {
    cfg.gatewaysMove = !parseSwitch(key, value);
  } else if (k == "plan") {
    cfg.planGatewayPlacement = parseSwitch(key, value);
  } else if (k == "sleep") {
    cfg.sleep.enabled = parseSwitch(key, value);
  } else if (k == "reliable") {
    cfg.mlr.reliableForwarding = parseSwitch(key, value);
  } else if (k == "lossy") {
    cfg.lossyRadio = parseSwitch(key, value);
  } else if (k == "failover") {
    // wmsn_cli's fault-run default: MLR/SecMLR heartbeat failover plus SPR
    // re-discovery backoff, or the legacy ablation when off.
    const bool on = parseSwitch(key, value);
    cfg.mlr.failover = on;
    if (on && cfg.spr.retryBackoff.us == 0)
      cfg.spr.retryBackoff = sim::Time::seconds(0.2);
  } else if (k == "metrics") {
    cfg.obs.metrics = parseSwitch(key, value);
  } else if (k == "perf") {
    cfg.obs.perf = parseSwitch(key, value);
  } else if (k == "trace") {
    cfg.obs.traceSpans = parseSwitch(key, value);
  } else if (k == "trace-sample") {
    const double f = parseDouble(keyLabel(key), value);
    if (!(f > 0.0 && f <= 1.0))
      throw PreconditionError(keyLabel(key) + ": fraction must be in (0,1]");
    const auto permille = static_cast<std::uint32_t>(f * 1000.0 + 0.5);
    // Sampling is kept in whole permille; a fraction that rounds to none
    // would trace nothing at all.
    if (permille == 0)
      throw PreconditionError(keyLabel(key) + ": fraction " + value +
                              " rounds to 0 permille; the smallest is 0.0005");
    cfg.obs.traceSamplePermille = permille;
  } else if (k == "attack") {
    cfg.attack.kind = lookup(kAttacks, key, value);
  } else if (k == "attackers") {
    cfg.attackerCount = parseUint(keyLabel(key), value);
  } else if (k == "fault") {
    applyFault(cfg, value);
  } else {
    throw PreconditionError("campaign spec: unknown setting key '" + key +
                            "'");
  }
}

std::vector<std::string> settingChoices(const std::string& key) {
  if (key == "protocol") return names(kProtocols);
  if (key == "attack") return names(kAttacks);
  if (key == "deployment") return names(kDeployments);
  if (key == "workload") return names(kWorkloads);
  if (key == "queue-policy") return names(kQueuePolicies);
  throw PreconditionError(keyLabel(key) + " takes no named values");
}

std::uint64_t CampaignSpec::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

const Settings* CampaignSpec::findVariant(const std::string& name) const {
  for (const auto& [variantName, settings] : variants)
    if (variantName == name) return &settings;
  return nullptr;
}

CampaignSpec parseSpec(const std::string& text) {
  CampaignSpec spec;
  spec.text = text;

  enum class Section { kBase, kVariant, kSweep };
  Section section = Section::kBase;
  Settings* variant = nullptr;

  std::istringstream in(text);
  std::string raw;
  std::size_t lineNo = 0;
  while (std::getline(in, raw)) {
    ++lineNo;
    const std::size_t hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') fail(lineNo, "unterminated section header");
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "sweep") {
        section = Section::kSweep;
        variant = nullptr;
        continue;
      }
      if (header.rfind("variant", 0) == 0) {
        const std::string name = trim(header.substr(7));
        if (name.empty()) fail(lineNo, "variant section needs a name");
        if (spec.findVariant(name))
          fail(lineNo, "duplicate variant '" + name + "'");
        spec.variants.emplace_back(name, Settings{});
        variant = &spec.variants.back().second;
        section = Section::kVariant;
        continue;
      }
      fail(lineNo, "unknown section '[" + header + "]'");
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail(lineNo, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineNo, "empty key");
    if (value.empty()) fail(lineNo, "empty value for key '" + key + "'");

    switch (section) {
      case Section::kBase:
        if (key == "name") {
          spec.name = value;
        } else if (key == "seed") {
          spec.seedBase = parseUint(keyLabel(key), value);
        } else if (key == "repeats") {
          spec.repeats =
              static_cast<std::uint32_t>(parseUint(keyLabel(key), value));
          if (spec.repeats == 0) fail(lineNo, "repeats must be >= 1");
        } else if (key == "compare") {
          spec.compareKey = value;
        } else {
          spec.base.emplace_back(key, value);
        }
        break;
      case Section::kVariant:
        variant->emplace_back(key, value);
        break;
      case Section::kSweep: {
        for (const Axis& axis : spec.axes)
          if (axis.key == key) fail(lineNo, "duplicate axis '" + key + "'");
        Axis axis;
        axis.key = key;
        std::set<std::string> labels;
        for (const std::string& item : splitList(value, ',')) {
          if (item.empty()) fail(lineNo, "empty item in axis '" + key + "'");
          AxisValue av;
          const std::size_t itemEq = item.find('=');
          if (itemEq == std::string::npos) {
            av.label = av.value = item;
          } else {
            av.label = trim(item.substr(0, itemEq));
            av.value = trim(item.substr(itemEq + 1));
            if (av.label.empty() || av.value.empty())
              fail(lineNo, "bad 'label=value' item in axis '" + key + "'");
          }
          if (av.label.find('/') != std::string::npos)
            fail(lineNo, "axis label '" + av.label + "' may not contain '/'");
          if (!labels.insert(av.label).second)
            fail(lineNo, "duplicate label '" + av.label + "' in axis '" + key +
                             "'");
          axis.values.push_back(std::move(av));
        }
        spec.axes.push_back(std::move(axis));
        break;
      }
    }
  }

  WMSN_REQUIRE_MSG(!spec.axes.empty(),
                   "campaign spec declares no [sweep] axes");
  if (spec.compareKey.empty()) {
    for (const char* candidate : {"variant", "protocol"})
      for (const Axis& axis : spec.axes)
        if (spec.compareKey.empty() && axis.key == candidate)
          spec.compareKey = candidate;
  } else {
    const bool known = std::any_of(
        spec.axes.begin(), spec.axes.end(),
        [&](const Axis& a) { return a.key == spec.compareKey; });
    WMSN_REQUIRE_MSG(known, "campaign 'compare' names unswept axis '" +
                                spec.compareKey + "'");
  }
  return spec;
}

CampaignSpec loadSpec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PreconditionError("cannot open campaign spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parseSpec(text.str());
}

std::vector<PlannedRun> expand(const CampaignSpec& spec) {
  const std::vector<std::uint64_t> seeds =
      seedSequence(spec.seedBase, spec.repeats);

  core::ScenarioConfig base;
  for (const auto& [key, value] : spec.base) applySetting(base, key, value);

  std::vector<PlannedRun> runs;
  std::set<std::string> seen;
  std::vector<std::size_t> odometer(spec.axes.size(), 0);
  while (true) {
    // Build this cell's config: base settings, then each axis value in
    // declaration order (a variant value expands to its settings bundle).
    core::ScenarioConfig cfg = base;
    std::vector<std::string> labels;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const Axis& axis = spec.axes[a];
      const AxisValue& av = axis.values[odometer[a]];
      labels.push_back(av.label);
      if (axis.key == "variant") {
        const Settings* settings = spec.findVariant(av.value);
        WMSN_REQUIRE_MSG(settings, "campaign sweep names unknown variant '" +
                                       av.value + "'");
        for (const auto& [key, value] : *settings)
          applySetting(cfg, key, value);
      } else {
        applySetting(cfg, axis.key, av.value);
      }
    }
    std::string cell;
    for (const std::string& label : labels) {
      if (!cell.empty()) cell += '/';
      cell += label;
    }
    for (std::uint32_t k = 0; k < spec.repeats; ++k) {
      PlannedRun run;
      run.cell = cell;
      run.axisLabels = labels;
      run.seedIndex = k;
      run.seed = seeds[k];
      run.id = cell + "/s" + std::to_string(run.seed);
      run.config = cfg;
      run.config.seed = run.seed;
      run.config.validate();
      WMSN_REQUIRE_MSG(seen.insert(run.id).second,
                       "campaign grid produced duplicate run id '" + run.id +
                           "'");
      runs.push_back(std::move(run));
    }

    // Advance the odometer, last axis fastest.
    std::size_t a = spec.axes.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < spec.axes[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return runs;
    }
  }
}

}  // namespace wmsn::campaign
