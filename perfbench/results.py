"""Reading and checking perfbench output.

A run prints human-readable lines, then a fingerprint line, then the result
line (always last):

    workload fig3_paper, seed 1, 20 s, trace 0
    ...
    {"fingerprint": {"cpu_model": ..., "nproc": 4, ...}}
    {"correct": true, "attempted": 303, "failed": 0, "metrics": {...}}
"""

import json
import re
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class OutputError(ValueError):
    """The output of a run does not have the documented shape."""


def load_spec(root):
    """BENCHMARK.json at the root of a checkout."""
    with open(Path(root) / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def open_loop_rate(spec, workload="serve_open"):
    """The open-loop arrival rate, stated once in the workload's `why`."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"(\d+(?:\.\d+)?) jobs/s", entry["why"])
            if match:
                return float(match.group(1))
    raise OutputError(f"BENCHMARK.json states no 'N jobs/s' rate for {workload}")


def parse_output(text):
    """Splits one run's standard output into (header, fingerprint, result)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise OutputError("output has no fingerprint and result lines")
    try:
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[-2])["fingerprint"]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise OutputError(f"last two lines are not fingerprint + result: {e}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise OutputError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    header = lines[0] if lines[0].startswith("workload ") else ""
    return header, fingerprint, result


def workload_of(header):
    match = re.match(r"workload (\S+),", header)
    return match.group(1) if match else None


def check_result(result, spec, trace):
    """Checks the result line against BENCHMARK.json; returns a list of
    problems (empty when the line is well-formed)."""
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{name}: expected unit {unit}, got {entry}")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems
