#!/usr/bin/env python3
"""Compares two sets of perfbench runs of one workload.

    python3 perfbench/compare.py --base A1.out A2.out ... --new B1.out B2.out ...

Each file is the standard output of one `run.py` call. Prints, per metric,
each side's median and quartile spread and, for end-to-end metrics, whether
the new median is worse than the base by more than the metric's bound in
BENCHMARK.json. Refuses (exit 3) to compare runs whose machine fingerprints
or workloads differ; exits 1 when a bounded metric regressed.
"""

import argparse
import statistics
import sys
from pathlib import Path

import results


def load(paths):
    runs = []
    for path in paths:
        header, fingerprint, result = results.parse_output(
            Path(path).read_text(encoding="utf-8"))
        runs.append((results.workload_of(header), fingerprint, result))
    return runs


def spread(values):
    """Inter-quartile distance as a share of the median (0 for one value)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, abs(q3 - q1) / abs(med)


def compare(base, new, spec):
    """Returns (lines, regressed). Raises results.OutputError when the two
    sets may not be compared at all."""
    fingerprints = {repr(sorted(fp.items())) for _, fp, _ in base + new}
    if len(fingerprints) != 1:
        raise results.OutputError(
            "machine fingerprints differ; refusing to compare:\n  "
            + "\n  ".join(sorted(fingerprints)))
    workloads = {w for w, _, _ in base + new}
    if len(workloads) != 1:
        raise results.OutputError(f"runs of different workloads: {workloads}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"workload {workloads.pop()}: {len(base)} base, {len(new)} new runs"]
    regressed = False
    for name in base[0][2]["metrics"]:
        b_med, b_spread = spread([r["metrics"][name]["value"] for _, _, r in base])
        n_med, n_spread = spread([r["metrics"][name]["value"] for _, _, r in new])
        verdict = ""
        if name in bounds and b_med != 0:
            bound = bounds[name]
            change = (n_med - b_med) / abs(b_med)
            worse = change if bound["better"] == "lower" else -change
            if b_spread > bound["bound"]:
                verdict = "unresolved (base spread wider than bound)"
            elif worse > bound["bound"]:
                verdict = f"REGRESSION ({worse:+.1%} > {bound['bound']:.0%})"
                regressed = True
            else:
                verdict = f"ok ({-worse:+.1%} better)"
        lines.append(f"  {name:40s} base {b_med:.6g} (±{b_spread:.1%})  "
                     f"new {n_med:.6g} (±{n_spread:.1%})  {verdict}")
    return lines, regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default=str(Path(__file__).resolve().parent.parent
                                              / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = results.load_spec(Path(args.spec).parent)
    try:
        lines, regressed = compare(load(args.base), load(args.new), spec)
    except results.OutputError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
