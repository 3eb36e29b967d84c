#!/usr/bin/env python3
"""Exit-code contract tests for scripts/bench_compare.py.

Runs the comparer as a subprocess (the way run_benches.sh and CI invoke
it) and pins down the three paths the regression gate depends on:
  * missing baseline file           -> exit 2 (usage/parse error)
  * bench present only in current   -> exit 0 ("new, no baseline" is fine)
  * >threshold regression           -> exit 1, offender named on stderr
plus the non-regression directions (improvements, sub-threshold drift,
higher-better vs lower-better field polarity) and the equality-gated
paths (boolean invariants, bit-exact *_digest identity, --equality-only).

Stdlib-only; invoked from ctest as `bench_compare_selftest`.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def run_compare(baseline, current, *extra):
    return subprocess.run(
        [sys.executable, SCRIPT, baseline, current, *extra],
        capture_output=True, text=True, check=False)


class BenchCompareExitCodes(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def test_missing_baseline_is_usage_error(self):
        current = self.path("current.jsonl")
        write_jsonl(current, [{"bench": "a", "lat_us": 1.0}])
        result = run_compare(self.path("does_not_exist.jsonl"), current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("cannot read", result.stderr)

    def test_malformed_baseline_is_usage_error(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        with open(baseline, "w", encoding="utf-8") as f:
            f.write("{not json\n")
        write_jsonl(current, [{"bench": "a", "lat_us": 1.0}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("bad JSON", result.stderr)

    def test_newly_added_bench_passes(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "old", "lat_us": 10.0}])
        write_jsonl(current, [{"bench": "old", "lat_us": 10.0},
                              {"bench": "brand_new", "lat_us": 500.0}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("new (no baseline)", result.stdout)

    def test_regression_beyond_threshold_fails(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "hot", "lat_us": 100.0}])
        write_jsonl(current, [{"bench": "hot", "lat_us": 120.0}])  # +20% latency
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("hot.lat_us", result.stderr)

    def test_drift_within_threshold_passes(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "hot", "lat_us": 100.0}])
        write_jsonl(current, [{"bench": "hot", "lat_us": 105.0}])  # +5% < 10%
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_throughput_fields_are_higher_better(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        # ops_per_s dropping 20% is a regression; rising 20% is not.
        write_jsonl(baseline, [{"bench": "tput", "msgs_per_s": 1000.0}])
        write_jsonl(current, [{"bench": "tput", "msgs_per_s": 800.0}])
        self.assertEqual(run_compare(baseline, current).returncode, 1)
        write_jsonl(current, [{"bench": "tput", "msgs_per_s": 1200.0}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)

    def test_goodput_fields_are_higher_better(self):
        # E18's writes per second and E13's delivered share: a 20% drop is
        # a regression, a 20% gain is not.
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        for field in ("goodput_calm_wps", "goodput_severe_wps", "goodput_clean",
                      "goodput_severe"):
            with self.subTest(field=field):
                write_jsonl(baseline, [{"bench": "apps", field: 2.5}])
                write_jsonl(current, [{"bench": "apps", field: 2.0}])
                result = run_compare(baseline, current)
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertIn(f"apps.{field}", result.stderr)
                write_jsonl(current, [{"bench": "apps", field: 3.0}])
                result = run_compare(baseline, current)
                self.assertEqual(result.returncode, 0, result.stderr)

    def test_custom_threshold_is_respected(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "hot", "lat_us": 100.0}])
        write_jsonl(current, [{"bench": "hot", "lat_us": 108.0}])  # +8%
        self.assertEqual(run_compare(baseline, current, "--threshold", "5").returncode, 1)
        self.assertEqual(run_compare(baseline, current, "--threshold", "10").returncode, 0)

    def test_bench_missing_from_current_is_reported_not_fatal(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "gone", "lat_us": 10.0},
                               {"bench": "kept", "lat_us": 10.0}])
        write_jsonl(current, [{"bench": "kept", "lat_us": 10.0}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("missing from current", result.stdout)

    # --- equality-gated (boolean/digest) fields ------------------------------

    def test_boolean_invariant_true_passes_false_fails(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "scale", "digest_match": True}])
        write_jsonl(current, [{"bench": "scale", "digest_match": True}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)
        write_jsonl(current, [{"bench": "scale", "digest_match": False}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("scale.digest_match", result.stderr)

    def test_boolean_false_fails_even_without_baseline(self):
        # Invariants are absolute, not relative to the baseline: a new
        # bench shipping digest_match=false must fail immediately.
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [])
        write_jsonl(current, [{"bench": "fresh", "deterministic": False}])
        self.assertEqual(run_compare(baseline, current).returncode, 1)
        write_jsonl(current, [{"bench": "fresh", "deterministic": True}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)

    def test_baseline_pinned_false_is_a_mode_flag_not_an_invariant(self):
        # "quick": false in the baseline describes the run mode; a current
        # run repeating false (or improving to true) must pass.
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "sim_engine", "quick": False}])
        write_jsonl(current, [{"bench": "sim_engine", "quick": False}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)
        write_jsonl(current, [{"bench": "sim_engine", "quick": True}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)

    def test_baseline_invariant_missing_from_current_fails(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "scale", "digest_match": True}])
        write_jsonl(current, [{"bench": "scale", "events_per_s": 1.0}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from current", result.stderr)

    def test_digest_identity_is_bit_exact(self):
        # These two values are equal as 64-bit floats; only an exact
        # integer comparison can tell them apart.
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "sim", "order_digest": 5278585168811376575}])
        write_jsonl(current, [{"bench": "sim", "order_digest": 5278585168811376574}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("digest mismatch", result.stderr)
        write_jsonl(current, [{"bench": "sim", "order_digest": 5278585168811376575}])
        self.assertEqual(run_compare(baseline, current).returncode, 0)

    def test_digest_is_identity_not_percentage(self):
        # A tiny numeric drift that any threshold would wave through must
        # still fail a digest field.
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "sim", "order_digest": 1000000}])
        write_jsonl(current, [{"bench": "sim", "order_digest": 1000001}])
        self.assertEqual(run_compare(baseline, current, "--threshold", "99").returncode, 1)

    def test_new_digest_without_baseline_passes(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        write_jsonl(baseline, [{"bench": "sim", "lat_us": 10.0}])
        write_jsonl(current, [{"bench": "sim", "lat_us": 10.0, "order_digest": 7}])
        result = run_compare(baseline, current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_equality_only_skips_numeric_but_keeps_gates(self):
        baseline, current = self.path("base.jsonl"), self.path("current.jsonl")
        # 10x latency regression + intact gates: --equality-only passes...
        write_jsonl(baseline, [{"bench": "hot", "lat_us": 10.0, "digest_match": True}])
        write_jsonl(current, [{"bench": "hot", "lat_us": 100.0, "digest_match": True}])
        self.assertEqual(run_compare(baseline, current, "--equality-only").returncode, 0)
        self.assertEqual(run_compare(baseline, current).returncode, 1)
        # ...but a broken invariant still fails in --equality-only mode.
        write_jsonl(current, [{"bench": "hot", "lat_us": 10.0, "digest_match": False}])
        self.assertEqual(run_compare(baseline, current, "--equality-only").returncode, 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
