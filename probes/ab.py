#!/usr/bin/env python3
"""Alternating parent/change runs of the pipeline benchmark, with a verdict per metric.

Run from anywhere in the repository:

    python3 probes/ab.py PARENT CHANGE [--pairs 10] [--seconds 45] [--workload all]

PARENT and CHANGE name commits. Each is exported with ``git archive`` into a
temporary directory, so neither the checkout nor ``.git`` changes. Then
``pipebench/run.py --workload W --seconds S`` runs in each tree, pair after
pair: the parent first in odd pairs, the change first in even pairs. Each
run's end-to-end metrics are printed as it ends. At the end, for each
workload and each end-to-end metric of the parent's ``BENCHMARK.json``, one
line gives both sides' medians and quartiles, the pairs the change won and
the ``verdict``. The exit code is 1 when a run's output checks fail or a
metric regressed, else 0.
"""

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # a gain needs the change to win at least this share of the pairs


def quartiles(values):
    """``(q1, q3)`` of ``values``, computed as ``pipebench/run.py`` computes them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Judge one metric from paired runs: ``parent[i]`` and ``change[i]`` ran in pair i.

    ``better`` is "lower" or "higher", and ``bound`` the share of the
    parent's median by which the change may be worse, as ``BENCHMARK.json``
    gives them. Returns each side's ``median`` and quartiles (``q1``,
    ``q3``), the change's ``wins`` (a tie counts for neither side) and the
    ``verdict``, the first of these that holds:

    - "gain": the change wins at least 9 in 10 of the pairs, and its median
      is better than the parent's by more than the parent's ``q3 - q1``;
    - "regression": the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    - "unresolved": on either side, ``q3 - q1`` is more than ``bound``
      times that side's median, so the runs cannot tell the bound apart;
    - "no worse".
    """
    if not parent or len(parent) != len(change):
        raise ValueError("verdict needs as many change runs as parent runs, at least one")
    sign = {"lower": 1, "higher": -1}[better]
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(values)
        sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ahead = sign * (sides["parent"]["median"] - sides["change"]["median"])
    spread = {side: s["q3"] - s["q1"] for side, s in sides.items()}
    if wins >= math.ceil(GAIN_SHARE * len(parent)) and ahead > spread["parent"]:
        outcome = "gain"
    elif -ahead > bound * abs(sides["parent"]["median"]):
        outcome = "regression"
    elif any(spread[side] > bound * abs(s["median"]) for side, s in sides.items()):
        outcome = "unresolved"
    else:
        outcome = "no worse"
    return {**sides, "wins": wins, "verdict": outcome}


def export(commit, dest):
    """Write the files of ``commit`` into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree, workload, seconds):
    """One ``pipebench/run.py`` run in ``tree``: ``(correct, {"workload.metric": value})``."""
    proc = subprocess.run([sys.executable, "pipebench/run.py", "--workload", workload,
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"error: pipebench/run.py in {tree} exited with {proc.returncode}:\n"
                 f"{proc.stderr[-3000:]}")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload != "all":  # run.py names one workload's metrics without the workload
        metrics = {f"{workload}.{name}": value for name, value in metrics.items()}
    return result["correct"], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit the change is measured against")
    parser.add_argument("change", help="the commit under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # on SIGTERM, unwind so that subprocess.run kills and reaps the running benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="cloneval-ab-") as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp) / side
            try:
                export(getattr(args, side), trees[side])
            except subprocess.CalledProcessError as exc:
                sys.exit(f"error: cannot export {side} {getattr(args, side)}: "
                         f"{exc.stderr.decode(errors='replace').strip()}")
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        runs = {"parent": [], "change": []}
        correct = True
        for pair in range(1, args.pairs + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                ok, metrics = run_bench(trees[side], args.workload, args.seconds)
                correct = correct and ok
                runs[side].append(metrics)
                print(f"pair {pair} {side}{'' if ok else ' (output checks FAILED)'}: "
                      + json.dumps(metrics, sort_keys=True), flush=True)

    regressed = False
    print(f"{args.pairs} pairs, parent {args.parent}, change {args.change}; "
          "median [q1, q3] per side")
    for key in sorted(runs["parent"][0]):
        workload, name = key.split(".", 1)
        metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
        if metric is None:
            continue
        result = verdict([r[key] for r in runs["parent"]], [r[key] for r in runs["change"]],
                         metric["better"], metric["bound"])
        regressed = regressed or result["verdict"] == "regression"
        parent, change = (f"{result[side]['median']:.4g} [{result[side]['q1']:.4g}, "
                          f"{result[side]['q3']:.4g}]" for side in ("parent", "change"))
        print(f"{workload:<12} {name:<12} parent {parent}  change {change}  "
              f"change wins {result['wins']}/{args.pairs}  {result['verdict']}")
    return 1 if regressed or not correct else 0


if __name__ == "__main__":
    sys.exit(main())
