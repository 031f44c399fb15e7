#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"

namespace wmsn::campaign {

/// One point on a sweep axis: the short `label` names it in run IDs, cells
/// and the artifact; the `value` is what applySetting (or the variant
/// table) consumes.
struct AxisValue {
  std::string label;
  std::string value;
};

/// One declared sweep dimension, e.g. `variant = spr-m1, mlr-m3` or
/// `rate = 0.5, 1.0, 2.0`.
struct Axis {
  std::string key;
  std::vector<AxisValue> values;
};

/// A named settings bundle (`[variant NAME]` section): lets one axis sweep
/// heterogeneous protocol setups ("spr with m=1 and no failover" vs "mlr
/// with m=3") that no single scalar key could express.
using Settings = std::vector<std::pair<std::string, std::string>>;

/// A parsed campaign spec — the declarative description of a full
/// protocol × topology × workload × fault × seed grid. The TOML-lite
/// grammar (EXPERIMENTS.md "Campaign orchestration"):
///
///   # comment                    blank lines ignored
///   name = fault                 campaign-level keys: name, seed, repeats,
///   seed = 7                     compare
///   repeats = 5
///   rounds = 12                  any other top-level key=value is a base
///   sensors = 80                 ScenarioConfig setting (applySetting)
///
///   [variant spr-m1]             a named settings bundle
///   protocol = spr
///   gateways = 1
///
///   [sweep]                      axis declarations; expansion order is
///   variant = spr-m1, mlr-m3     declaration order, seeds innermost
///   fault = baseline=none, gw-crash=gw0@3
///
/// Axis items are `label=value` or a bare `value` (label == value). Fault
/// values join multiple tokens with ';' (e.g. `gw0@3;gw0+@6`).
struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t seedBase = 1;
  std::uint32_t repeats = 1;
  /// Axis whose values are compared pairwise in the paired-seed delta
  /// statistics. Empty = first of "variant"/"protocol" that is swept.
  std::string compareKey;

  Settings base;
  std::vector<std::pair<std::string, Settings>> variants;
  std::vector<Axis> axes;

  /// The raw spec text, kept for journal fingerprinting.
  std::string text;

  /// FNV-1a 64 over the raw text — a resume journal records it so `--resume`
  /// refuses to graft results from a different spec.
  std::uint64_t fingerprint() const;

  const Settings* findVariant(const std::string& name) const;
};

/// Parses the grammar above. Throws PreconditionError with the offending
/// line number on malformed input.
CampaignSpec parseSpec(const std::string& text);

/// Reads and parses a spec file. Throws on I/O failure.
CampaignSpec loadSpec(const std::string& path);

/// Applies one `key = value` setting to a scenario config: the only code
/// that turns a scenario name or value into ScenarioConfig fields. Shared by
/// spec base settings, variant bundles, axis values and wmsn_cli's scenario
/// flags (`--<key> <value>`) so every spelling of a knob behaves
/// identically. Throws PreconditionError naming the key on bad input.
void applySetting(core::ScenarioConfig& cfg, const std::string& key,
                  const std::string& value);

/// The names an enum-valued key (protocol, attack, deployment, workload,
/// queue-policy) accepts, sorted; `none`, the knob-off value, is left out.
/// Throws PreconditionError for any other key.
std::vector<std::string> settingChoices(const std::string& key);

/// One expanded grid point: a fully-built ScenarioConfig plus the identity
/// strings the journal, artifact and statistics key on.
struct PlannedRun {
  std::string id;    ///< "<cell>/s<seed>" — unique across the campaign
  std::string cell;  ///< axis labels joined with '/' (seed excluded)
  std::vector<std::string> axisLabels;  ///< one label per declared axis
  std::uint32_t seedIndex = 0;
  std::uint64_t seed = 0;
  core::ScenarioConfig config;
};

/// Expands the spec's full cartesian grid in deterministic order: axes in
/// declaration order (first axis slowest), seed replicas innermost, seeds
/// from wmsn::seedSequence(spec.seedBase, spec.repeats). Validates every
/// config and REQUIREs run-ID uniqueness.
std::vector<PlannedRun> expand(const CampaignSpec& spec);

}  // namespace wmsn::campaign
