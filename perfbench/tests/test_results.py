"""Tests of perfbench's own output handling: parsing a run's output, checking
the result line against BENCHMARK.json, and refusing comparisons across
machine fingerprints.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import results  # noqa: E402

SPEC = {
    "workloads": [
        {"name": "serve_open", "why": "Poisson arrivals at 520 jobs/s"},
        {"name": "serve_closed", "why": "closed loop"},
    ],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "core.apply.calls", "unit": "count",
                   "better": "higher"}],
}

FINGERPRINT = {"cpu_model": "x", "nproc": 4, "compiler": "GNU 12.2.0",
               "cxx_flags": "-O3", "build_type": "Release", "popbean_obs": "ON"}


def output(workload="serve_closed", wall=10.0, jobs=100.0, fingerprint=None,
           correct=True):
    result = {"correct": correct, "attempted": 1000, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "jobs_per_s": {"value": jobs, "unit": "1/s"}}}
    return "\n".join([
        f"workload {workload}, seed 1, 20 s, trace 0",
        "  some note",
        json.dumps({"fingerprint": fingerprint or FINGERPRINT}),
        json.dumps(result),
    ]) + "\n"


def parsed(*args, **kwargs):
    header, fingerprint, result = results.parse_output(output(*args, **kwargs))
    return results.workload_of(header), fingerprint, result


class ParseOutput(unittest.TestCase):
    def test_splits_header_fingerprint_and_result(self):
        header, fingerprint, result = results.parse_output(output())
        self.assertEqual(results.workload_of(header), "serve_closed")
        self.assertEqual(fingerprint["nproc"], 4)
        self.assertEqual(result["metrics"]["wall_s"]["value"], 10.0)

    def test_result_must_be_the_last_line(self):
        with self.assertRaises(results.OutputError):
            results.parse_output(output() + "trailing chatter\n")

    def test_result_keys_are_exact(self):
        text = output().replace('"failed": 0, ', "")
        with self.assertRaises(results.OutputError):
            results.parse_output(text)

    def test_result_matches_the_catalogue(self):
        _, _, result = results.parse_output(output())
        self.assertEqual(results.check_result(result, SPEC, trace=False), [])
        del result["metrics"]["jobs_per_s"]
        self.assertTrue(results.check_result(result, SPEC, trace=False))
        self.assertTrue(results.check_result(result, SPEC, trace=True))

    def test_wrong_unit_is_reported(self):
        _, _, result = results.parse_output(output())
        result["metrics"]["wall_s"]["unit"] = "ms"
        self.assertTrue(results.check_result(result, SPEC, trace=False))

    def test_rate_is_read_from_the_workload_why(self):
        self.assertEqual(results.open_loop_rate(SPEC), 520.0)
        with self.assertRaises(results.OutputError):
            results.open_loop_rate(SPEC, "serve_closed")


class Compare(unittest.TestCase):
    def test_refuses_different_fingerprints(self):
        other = dict(FINGERPRINT, nproc=8)
        with self.assertRaises(results.OutputError):
            compare.compare([parsed()], [parsed(fingerprint=other)], SPEC)

    def test_refuses_different_workloads(self):
        with self.assertRaises(results.OutputError):
            compare.compare([parsed()], [parsed(workload="serve_open")], SPEC)

    def test_flags_a_regression_beyond_the_bound(self):
        base = [parsed(wall=w) for w in (10.0, 10.1, 9.9, 10.0)]
        slower = [parsed(wall=w) for w in (12.0, 12.1, 11.9, 12.0)]
        same = [parsed(wall=w) for w in (10.2, 10.0, 9.8, 10.1)]
        _, regressed = compare.compare(base, slower, SPEC)
        self.assertTrue(regressed)
        _, regressed = compare.compare(base, same, SPEC)
        self.assertFalse(regressed)

    def test_higher_is_better_metrics_regress_downwards(self):
        base = [parsed(jobs=j) for j in (100.0, 101.0, 99.0)]
        fewer = [parsed(jobs=j) for j in (80.0, 81.0, 79.0)]
        lines, regressed = compare.compare(base, fewer, SPEC)
        self.assertTrue(regressed)
        self.assertTrue(any("jobs_per_s" in l and "REGRESSION" in l
                            for l in lines))

    def test_spread_is_interquartile_over_median(self):
        med, spread = compare.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        q1, _, q3 = __import__("statistics").quantiles([1, 2, 3, 4, 5], n=4)
        self.assertAlmostEqual(spread, (q3 - q1) / 3.0)


if __name__ == "__main__":
    unittest.main()
