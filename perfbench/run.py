#!/usr/bin/env python3
"""Benchmark entry point for the WMSN simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator libraries and the workload driver (perfbench/driver.cpp)
in a Release tree of the benchmark's own (build-perfbench/), runs the named
workload in a fresh driver process, checks its correctness digest, and prints
every metric with its unit and base. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the workload untraced and then traced and
reports the per-layer metrics. docs: perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-perfbench"
DRIVER = BUILD_DIR / "wmsn_perfbench"

# Campaign workers: fixed, not derived from the host, so a parent and a
# change measured on the same machine class run the same schedule.
CAMPAIGN_WORKERS = 4

# Each workload: the fewest repetitions an untraced run makes, driver kind
# (spec copy under perfbench/workloads/<name>.spec), default seed, and the
# correctness digest pinned at that seed. For campaign-fault the pin is the
# sha256 of the committed BENCH_fault.json.
WORKLOADS = {
    "kernel-large": {
        "min_reps": 2,
        "kind": "sim",
        "default_seed": 31,
        "pinned": "d5657e3debfb7404715ce8bb1a8d637c74472cde59020fe3f198f9f984ba82b4",
    },
    "secure-mobile": {
        "min_reps": 3,
        "kind": "sim",
        "default_seed": 5,
        "pinned": "cd94802837ba7b4f00bc5a4c83d5af8525ffa7cf53fc2a98698f7aba84cfce0e",
    },
    "campaign-fault": {
        "min_reps": 1,
        "kind": "campaign",
        "default_seed": 7,
        "pinned": "9a28eb0b6768abb657f124610adc5312d3d4008e68326ab14877c169c07b0529",
    },
}

FAULT_SCENARIOS = ["baseline", "gw-crash", "gw-churn", "sensor-churn", "burst-loss"]


class BenchError(Exception):
    """A failure that leaves no result to report."""


# --------------------------------------------------------------------------
# Statistics helpers (unit-tested in test_run.py).

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples, min_beyond=10):
    """Highest percentile in PERCENTILE_LADDER with at least `min_beyond`
    samples above it (nearest-rank). Returns (p, value, n) or None when the
    sample is too small for any of them."""
    n = len(samples)
    ordered = sorted(samples)
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1], n
    return None


def percentile_value(samples, p):
    """Nearest-rank percentile `p`, required to satisfy the tail rule."""
    tail = tail_percentile(samples)
    if tail is None or tail[0] < p:
        raise BenchError(f"{len(samples)} samples cannot support p{p:g}")
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100.0 * len(ordered)) - 1]


def ratio(numerator, denominator, base_unit):
    """A ratio with its base: (value, "over N <base_unit>"). A zero
    denominator gives 0 (nothing to divide) and says so in the base."""
    value = numerator / denominator if denominator else 0.0
    base = (f"{denominator:,}" if isinstance(denominator, int)
            else f"{denominator:,.6g}")
    return value, f"over {base} {base_unit}"


def sum_of_medians(rows):
    """A workload's time: the sum over its replicas of each replica's median
    over cycles (rows = one sample list per replica)."""
    return sum(statistics.median(row) for row in rows)


def rows_note(rows):
    if len(rows) == 1:
        return median_note(rows[0])
    return (f"sum over {len(rows)} replicas of each one's median; "
            + median_note(rows[0]).replace("median of", "per replica"))


def median_note(samples):
    tail = tail_percentile(samples)
    note = f"median of {len(samples)} samples"
    if tail is None:
        return note + "; no percentile has 10 samples beyond it"
    p, value, n = tail
    return note + f"; p{p:g} = {value:.6g} over {n} samples"


# --------------------------------------------------------------------------
# Build.


def run_checked(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs], "cmake build")
    if not DRIVER.is_file():
        raise BenchError(f"build produced no {DRIVER.name}")


def provenance(raw, seed, workers):
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
                                 "-Wall -Wextra -std=c++20") if f)
    return (f"compiler={raw['compiler']} build_type={build_type} "
            f"flags='{flags}' nproc={os.cpu_count()} seed={seed}"
            + (f" workers={workers}" if workers else ""))


# --------------------------------------------------------------------------
# Running the driver.


def run_driver(name, seed, seconds, trace, min_reps):
    spec = WORKLOADS[name]
    work_dir = BUILD_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--kind", spec["kind"],
           "--spec", str(BENCH_DIR / "workloads" / f"{name}.spec"),
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0", "--min-reps", str(min_reps),
           "--work-dir", str(work_dir), "--workers", str(CAMPAIGN_WORKERS)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"driver failed on {name} (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(name, seed, raw):
    """Correctness: (attempted, failed, notes). A simulation repetition
    fails if it threw or its digest differs from the pin (default seed) or
    from the run's first repetition; a campaign run fails if the campaign
    records it as failed, and every run fails if the artifact digest
    differs."""
    spec = WORKLOADS[name]
    digests = raw["digests"]
    expected = spec["pinned"] if seed == spec["default_seed"] else digests[0]
    mismatched = sum(1 for d in digests if d != expected)
    notes = [f"digest {digests[0]} "
             + ("(pinned, default seed)" if seed == spec["default_seed"]
                else "(held-out seed, not pinned)")]
    if spec["kind"] == "sim":
        attempted = len(digests) + raw["failed_reps"]
        failed = mismatched + raw["failed_reps"]
    else:
        runs = raw["runs"]
        attempted = runs * len(digests)
        failed = raw["runs_failed"] + runs * mismatched
    if mismatched:
        notes.append(f"DIGEST MISMATCH in {mismatched} of {len(digests)} "
                     f"repetitions (expected {expected})")
    return attempted, failed, notes


def end_to_end(name, raw):
    """The end-to-end metrics, each (name, value, unit, base)."""
    wall = sum_of_medians(raw["wall_s"])
    setup = sum_of_medians(raw["setup_s"])
    rows = [
        ("setup_s", setup, "s", rows_note(raw["setup_s"])),
        ("wall_s", wall, "s", rows_note(raw["wall_s"])),
    ]
    rows.append(("events_per_s", raw["events"] / wall, "1/s",
                 f"{raw['events']:,} simulated events / wall_s"))
    kind = "campaign" if WORKLOADS[name]["kind"] == "campaign" else "simulation"
    rows.append(("runs_per_s", raw["runs"] / wall, "1/s",
                 f"{raw['runs']} {kind} runs / wall_s"))
    rows.append(("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MiB",
                 "max(driver VmHWM, RUSAGE_CHILDREN ru_maxrss)" if
                 WORKLOADS[name]["kind"] == "campaign" else "driver VmHWM"))
    return rows


def per_layer_sim(untraced, traced, attempted, failed):
    frames = traced["perf.frames_transmitted"]
    events = traced["events"]
    wall = sum_of_medians(traced["wall_s"])
    rows = [
        ("core.build_s", sum_of_medians(traced["setup_s"]), "s",
         rows_note(traced["setup_s"])),
        ("net.connectivity_check_s",
         statistics.median(traced["connectivity_check_s"]), "s",
         "one net::sensorsConnected call on the built positions; "
         + median_note(traced["connectivity_check_s"])),
    ]

    def rate(metric, num, den, unit, base_unit):
        value, base = ratio(num, den, base_unit)
        rows.append((metric, value, unit, f"{num:,} {base}"))

    rate("core.allocs_per_frame", traced["alloc_count"], frames,
         "allocs/frame", "frames tx")
    rate("core.alloc_bytes_per_frame", traced["alloc_bytes"], frames,
         "B/frame", "frames tx")
    rows.append(("sim.events", events, "count", "RunResult::eventsProcessed"))
    rows.append(("sim.ns_per_event", wall * 1e9 / events, "ns",
                 f"traced wall {wall:.4f} s over {events:,} events"))
    rows.append(("sim.dispatch_self_s",
                 statistics.median(traced["dispatch_self_s"]), "s",
                 "profiler event-dispatch self time"))
    rows.append(("sim.queue_depth_max", traced["queue_depth_max"], "count",
                 f"Simulator::queueSize sampled at "
                 f"{traced['frames_observed']:,} frame hand-offs over "
                 f"{traced['rounds_observed']} rounds"))
    rows.append(("net.frames_tx", frames, "count", "PerfStats frames-transmitted"))
    rate("net.rx_per_tx", traced["perf.frames_received"], frames,
         "rx/frame", "frames tx")
    rate("net.pairs_per_frame", traced["perf.pairs_examined"], frames,
         "pairs/frame", "frames tx")
    rate("net.rng_draws_per_frame", traced["perf.rng_draws"], frames,
         "draws/frame", "frames tx")
    rate("net.rx_yield", traced["perf.frames_received"],
         traced["perf.pairs_examined"], "ratio", "pairs examined")
    rows.append(("net.mac_medium_self_s",
                 statistics.median(traced["mac_medium_self_s"]), "s",
                 "profiler mac-contention self time (includes medium fan-out)"))
    rate("net.mac_backoffs_per_frame", traced["perf.mac_backoffs"], frames,
         "backoffs/frame", "frames tx")
    for metric, key, base in (("net.mac_drops", "mac_drops", "RunResult"),
                              ("net.queue_drops", "queue_drops", "RunResult"),
                              ("net.arq_retx", "arq_retx",
                               "Medium::arqRetransmissions"),
                              ("net.collisions", "collisions", "RunResult")):
        rows.append((metric, traced[key], "count", base))
    rows.append(("routing.node_steps", traced["perf.node_steps"], "count",
                 "PerfStats node-steps"))
    rows.append(("routing.route_mutations", traced["perf.route_mutations"],
                 "count", "PerfStats route-mutations"))
    rows.append(("routing.maintenance_self_s",
                 statistics.median(traced["maintenance_self_s"]), "s",
                 "profiler route-maintenance self time"))
    for metric, key in (("routing.control_frames", "control_frames"),
                        ("routing.data_frames", "data_frames"),
                        ("routing.secmlr_rejects", "secmlr_rejects")):
        rows.append((metric, traced[key], "count", "RunResult"))
    calls = traced["crypto_calls"]
    crypto_self = statistics.median(traced["crypto_self_s"])
    rows.append(("crypto.calls", calls, "count", "profiler crypto scopes"))
    rows.append(("crypto.self_s", crypto_self, "s", "profiler crypto self time"))
    value, base = ratio(crypto_self * 1e9, calls, "crypto calls")
    rows.append(("crypto.ns_per_call", value, "ns", base))
    rows += common_layer(untraced, traced, attempted, failed)
    rows += not_measured(rows, "simulation workload")
    return rows


def per_layer_campaign(untraced, traced, attempted, failed):
    run_s = traced["run_s"]
    wall = sum_of_medians(traced["wall_s"])
    rows = [
        ("campaign.plan_s", sum_of_medians(traced["setup_s"]), "s",
         "loadSpec + expand; " + rows_note(traced["setup_s"])),
        ("campaign.run_s_p50", statistics.median(run_s), "s",
         f"round-loop perf_wall_seconds over {len(run_s)} runs"),
        ("campaign.run_s_p90", percentile_value(run_s, 90.0), "s",
         f"nearest rank over {len(run_s)} runs"),
    ]
    busy, base = ratio(sum(run_s), traced["workers"] * wall,
                       "worker-seconds")
    rows.append(("campaign.worker_busy_ratio", busy, "ratio",
                 f"{sum(run_s):.3f} s of run time {base}"))
    rows.append(("campaign.stolen", traced["stolen"], "count",
                 "PoolStats::stolen"))
    for scenario in FAULT_SCENARIOS:
        samples = [s for s, label in zip(run_s, traced["run_scenario"])
                   if label == scenario]
        if not samples:
            raise BenchError(f"no runs for fault scenario {scenario}")
        rows.append((f"fault.{scenario}.run_s_p50", statistics.median(samples),
                     "s", f"median of {len(samples)} runs"))
    rows += common_layer(untraced, traced, attempted, failed)
    rows += not_measured(rows, "campaign workload")
    return rows


def common_layer(untraced, traced, attempted, failed):
    ratio_value = (sum_of_medians(traced["wall_s"])
                   / sum_of_medians(untraced["wall_s"]))
    value, base = ratio(failed, attempted, "operations attempted")
    return [
        ("obs.traced_overhead_ratio", ratio_value, "ratio",
         "traced wall_s / untraced wall_s"),
        ("fail_ratio", value, "ratio", f"{failed} failed {base}"),
    ]


def not_measured(rows, why):
    """Every per-layer metric BENCHMARK.json declares is printed on every
    workload; the ones this workload family does not measure read 0."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    have = {row[0] for row in rows}
    return [(m["name"], 0, m["unit"], f"not measured on a {why}")
            for m in declared if m["name"] not in have]


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name = args.workload
    seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed

    try:
        build()
        if args.trace:
            # Half the budget each; one repetition minimum on both sides.
            untraced = run_driver(name, seed, args.seconds / 2, False, 1)
            traced = run_driver(name, seed, args.seconds / 2, True, 1)
            attempted, failed, notes = check(name, seed, untraced)
            t_att, t_failed, _ = check(name, seed, traced)
            attempted += t_att
            failed += t_failed
            if traced["digests"][0] != untraced["digests"][0]:
                notes.append("TRACED DIGEST DIFFERS from the untraced run")
                failed = min(attempted, failed + t_att)
            raw = traced
            layer = (per_layer_campaign if WORKLOADS[name]["kind"] == "campaign"
                     else per_layer_sim)
            rows = layer(untraced, traced, attempted, failed)
        else:
            raw = run_driver(name, seed, args.seconds, False,
                             WORKLOADS[name]["min_reps"])
            attempted, failed, notes = check(name, seed, raw)
            rows = end_to_end(name, raw)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    workers = CAMPAIGN_WORKERS if WORKLOADS[name]["kind"] == "campaign" else 0
    print(f"# {name}: {provenance(raw, seed, workers)}")
    for note in notes:
        print(f"# {note}")
    for metric, value, unit, base in rows:
        print(f"{metric} = {value:.6g} {unit}  ({base})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
