"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics tests are pure Python. The determinism tests build the
driver (build-perfbench/, as run.py does) and run it on the small specs in
perfbench/testdata/.
"""

import json
import subprocess
import unittest

import run

TESTDATA = run.BENCH_DIR / "testdata"


class TailPercentileTest(unittest.TestCase):
    def test_too_few_samples_gives_none(self):
        for n in (0, 1, 3, 10, 19):
            self.assertIsNone(run.tail_percentile(list(range(n))), n)

    def test_twenty_samples_support_only_the_median(self):
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (50.0, 10, 20))

    def test_hundred_samples_give_p90_with_ten_beyond(self):
        samples = [float(i) for i in range(100, 0, -1)]  # order must not matter
        p, value, n = run.tail_percentile(samples)
        self.assertEqual((p, value, n), (90.0, 90.0, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_thousand_samples_give_p99(self):
        self.assertEqual(run.tail_percentile(list(range(1, 1001)))[:2], (99.0, 990))

    def test_percentile_value_refuses_unsupported_percentiles(self):
        self.assertEqual(run.percentile_value(list(range(1, 101)), 90.0), 90)
        with self.assertRaises(run.BenchError):
            run.percentile_value(list(range(1, 100)), 90.0)

    def test_median_note_states_sample_count(self):
        self.assertIn("median of 3 samples", run.median_note([1.0, 2.0, 3.0]))
        self.assertIn("no percentile", run.median_note([1.0, 2.0, 3.0]))
        self.assertIn("p90 = 90 over 100 samples",
                      run.median_note(list(range(1, 101))))


class SumOfMediansTest(unittest.TestCase):
    def test_each_replica_contributes_its_own_median(self):
        self.assertEqual(run.sum_of_medians([[1.0, 9.0, 2.0], [5.0, 4.0, 100.0]]),
                         2.0 + 5.0)

    def test_note_states_replicas_and_samples(self):
        self.assertEqual(run.rows_note([[1.0, 2.0, 3.0]]),
                         run.median_note([1.0, 2.0, 3.0]))
        self.assertEqual(run.rows_note([[1.0, 3.0], [2.0, 4.0]]),
                         "sum over 2 replicas of each one's median; per replica "
                         "2 samples; no percentile has 10 samples beyond it")


class RatioTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        value, base = run.ratio(18_710_611, 439_932, "frames tx")
        self.assertAlmostEqual(value, 42.5307, places=4)
        self.assertEqual(base, "over 439,932 frames tx")

    def test_time_bases_are_rounded(self):
        self.assertEqual(run.ratio(41.7, 44.523608528, "worker-seconds")[1],
                         "over 44.5236 worker-seconds")

    def test_zero_base_gives_zero_and_says_so(self):
        self.assertEqual(run.ratio(0, 0, "crypto calls"), (0.0, "over 0 crypto calls"))

    def test_per_frame_rows_state_numerator_and_base(self):
        rows = run.per_layer_sim(_sim_raw(), _sim_raw(), 2, 0)
        by_name = {name: (value, base) for name, value, _, base in rows}
        self.assertEqual(by_name["core.allocs_per_frame"],
                         (4.0, "400 over 100 frames tx"))
        self.assertEqual(by_name["net.rx_yield"][1], "250 over 1,000 pairs examined")
        self.assertEqual(by_name["fail_ratio"], (0.0, "0 failed over 2 operations attempted"))

    def test_every_declared_metric_is_reported_once_with_its_unit(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
        end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        for rows in (run.per_layer_sim(_sim_raw(), _sim_raw(), 1, 0),
                     run.per_layer_campaign(_campaign_raw(), _campaign_raw(), 1, 0)):
            self.assertEqual(len(rows), len(per_layer))
            self.assertEqual({r[0]: r[2] for r in rows}, per_layer)
        for name, raw in (("secure-mobile", _sim_raw()),
                          ("campaign-fault", _campaign_raw())):
            raw.update(events=10, runs=4, peak_rss_kb=2048)
            rows = run.end_to_end(name, raw)
            self.assertEqual({r[0]: r[2] for r in rows}, end_to_end)
            self.assertTrue(all(r[1] > 0 for r in rows))


class CheckTest(unittest.TestCase):
    def test_default_seed_must_match_the_pin(self):
        raw = {"digests": ["x", "x"], "failed_reps": 0}
        attempted, failed, notes = run.check("secure-mobile", 5, raw)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertTrue(any("MISMATCH" in n for n in notes))

    def test_held_out_seed_requires_repetitions_to_agree(self):
        raw = {"digests": ["x", "y", "x"], "failed_reps": 0}
        self.assertEqual(run.check("secure-mobile", 6, raw)[:2], (3, 1))

    def test_a_thrown_repetition_counts_as_failed(self):
        raw = {"digests": ["x"], "failed_reps": 1}
        self.assertEqual(run.check("kernel-large", 6, raw)[:2], (2, 1))

    def test_campaign_failures_count_per_run(self):
        pin = run.WORKLOADS["campaign-fault"]["pinned"]
        raw = {"digests": [pin], "runs": 100, "runs_failed": 2}
        self.assertEqual(run.check("campaign-fault", 7, raw)[:2], (100, 2))
        raw = {"digests": ["other"], "runs": 100, "runs_failed": 0}
        self.assertEqual(run.check("campaign-fault", 7, raw)[:2], (100, 100))


class DeterminismTest(unittest.TestCase):
    """Same seed -> same digest; traced digest == untraced digest."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def driver(self, kind, spec, trace, min_reps=2):
        work = run.BUILD_DIR / "test-work"
        work.mkdir(parents=True, exist_ok=True)
        out = subprocess.run(
            [str(run.DRIVER), "--kind", kind, "--spec", str(TESTDATA / spec),
             "--seed", "11", "--seconds", "0", "--trace", str(trace),
             "--min-reps", str(min_reps), "--work-dir", str(work),
             "--workers", "2"],
            check=True, capture_output=True, text=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_simulation_digest_is_deterministic_and_untouched_by_tracing(self):
        first = self.driver("sim", "tiny-sim.spec", 0)
        second = self.driver("sim", "tiny-sim.spec", 0)
        traced = self.driver("sim", "tiny-sim.spec", 1)
        self.assertEqual(len(first["digests"]), 2)
        self.assertEqual([len(row) for row in first["wall_s"]], [2, 2])
        self.assertEqual(len(set(first["digests"] + second["digests"]
                                 + traced["digests"])), 1)
        self.assertEqual(first["runs"], 2)
        self.assertGreater(traced["perf.frames_transmitted"], 0)

    def test_campaign_digest_is_deterministic_and_untouched_by_tracing(self):
        first = self.driver("campaign", "tiny-campaign.spec", 0, 1)
        second = self.driver("campaign", "tiny-campaign.spec", 0, 1)
        traced = self.driver("campaign", "tiny-campaign.spec", 1, 1)
        self.assertEqual(first["digests"], second["digests"])
        self.assertEqual(first["digests"], traced["digests"])
        self.assertEqual((first["runs"], first["runs_failed"]), (4, 0))
        self.assertGreater(first["events"], 0)
        self.assertEqual(sorted(set(traced["run_scenario"])),
                         ["baseline", "burst-loss"])


def _sim_raw():
    raw = {key: 1 for key in (
        "events", "queue_depth_max", "frames_observed", "rounds_observed",
        "mac_drops",
        "queue_drops", "arq_retx", "collisions", "control_frames",
        "data_frames", "secmlr_rejects", "crypto_calls")}
    raw.update({f"perf.{key}": 1 for key in (
        "node_steps", "mac_backoffs", "rng_draws", "route_mutations")})
    raw.update({"perf.frames_transmitted": 100, "perf.frames_received": 250,
                "perf.pairs_examined": 1000, "alloc_count": 400,
                "alloc_bytes": 1000})
    for key in ("connectivity_check_s", "dispatch_self_s",
                "mac_medium_self_s", "maintenance_self_s", "crypto_self_s"):
        raw[key] = [1.0]
    raw["setup_s"] = raw["wall_s"] = [[1.0]]
    return raw


def _campaign_raw():
    return {"setup_s": [[0.001]], "wall_s": [[1.0]], "workers": 2, "stolen": 0,
            "run_s": [0.1] * 100,
            "run_scenario": [s for s in run.FAULT_SCENARIOS for _ in range(20)]}


if __name__ == "__main__":
    unittest.main()
