#!/usr/bin/env python3
"""End-to-end benchmark of ``cloneval evaluate`` on seeded synthetic corpora.

Run from the repository root:

    python3 pipebench/run.py [--workload all|short16k|hires|long16k_w2]
                             [--seed N] [--seconds S] [--trace 0|1]

For each workload the benchmark writes a corpus made from ``--seed`` under
``.pipebench/``, then

* times ``cloneval.cli.main(["evaluate", ...])`` pass after pass for at least
  ``--seconds`` seconds (and at least three passes), each pass in a fresh
  process that runs only the evaluation, and reports the medians of
  ``ms_per_pair`` and of the processes' ``peak_rss_mb``;
* times ``setup_s`` in fresh interpreters before each pass: import,
  argument parsing, manifest load and pair discovery, up to the scoring of
  the first pair, and reports the median;
* checks the outputs (see ``gate``) outside the timed passes.

With ``--trace 1`` it alternates plain passes with passes whose calls into
cloneval's modules are wrapped in spans (see ``spans.py``) and reports the
per-layer metrics instead, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when an output check fails and 2 when the cloneval sources are missing.
"""

import os

# One BLAS thread per process, set before numpy loads here and inherited by
# every child, so the threads in use never exceed the worker count.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
# Children keep bytecode caches, as an installed package has them, so that
# setup_s times importing cloneval rather than compiling its sources.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench"

MIN_PASSES = 3
TRACED_MIN_PASSES = 1
SETUP_PROBES_PER_PASS = 2
MIN_SETUP_PROBES = 12
CHILD_TIMEOUT_S = 150
CROSS_RATE_FLOOR = 0.999
CROSS_RATE_METRICS = ("mel_spectrogram", "rms")


def evaluate_argv(info, out_dir, workers):
    argv = ["evaluate", "--reference-dir", info["ref_dir"], "--generated-dir", info["gen_dir"],
            "--output-dir", str(out_dir), "--workers", str(workers)]
    if info["manifests"]:
        return argv + ["--embeddings-ref", info["manifests"]["ref"],
                       "--embeddings-gen", info["manifests"]["gen"]]
    return argv + ["--no-embedding"]


def run_child(script, *args, timeout=CHILD_TIMEOUT_S):
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def probe_setup(argv):
    return json.loads(run_child("setup_probe.py", *argv, timeout=60))["setup_s"]


def gate(info, digests, workers1_digest, out_dir):
    """Output checks; returns a list of failures, empty when all hold."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"report bytes differ across passes ({len(set(digests))} variants)")
    if workers1_digest is not None and workers1_digest != digests[0]:
        problems.append("--workers 1 reports differ from the timed passes")

    with open(out_dir / "details.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    metrics = list(summary["overall"])
    if [r["pair_id"] for r in rows] != info["stems"]:
        problems.append(f"details.csv rows do not match the {len(info['stems'])} pairs "
                        f"({len(rows)} rows)")
    for row in rows:
        for m in metrics:
            value = float(row[m])
            if not (math.isfinite(value) and -1.0 <= value <= 1.0):
                problems.append(f"{row['pair_id']} {m} = {row[m]} is outside [-1, 1]")
    by_stem = {r["pair_id"]: r for r in rows}
    identity = by_stem.get(info["identity_stem"], {})
    wrong = [m for m in metrics if identity.get(m) != "1.000000"]
    if wrong:
        problems.append(f"identity pair does not score 1.000000 on {', '.join(wrong)}")
    if info["cross_rate_stem"]:
        cross = by_stem.get(info["cross_rate_stem"], {})
        for m in CROSS_RATE_METRICS:
            if not float(cross.get(m, "nan")) >= CROSS_RATE_FLOOR:
                problems.append(f"cross-rate pair scores {cross.get(m)} on {m}, "
                                f"below {CROSS_RATE_FLOOR}")
    return problems, len(summary["errors"])


def one_pass(plan):
    return json.loads(run_child("evaluate.py", json.dumps(plan)).splitlines()[-1])


def run_passes(plan, seconds, trace):
    """Passes until ``seconds`` have gone by and enough have been measured.

    A plain run probes the set-up time twice before each pass, so the set-up
    samples spread over the run as the passes do. A traced run alternates
    plain and traced passes, so the two medians give the tracing overhead
    under the same conditions. Returns (plain, traced, setup samples).
    """
    plain, traced, setup = [], [], []
    begin = perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            traced.append(one_pass(dict(plan, trace=1)))
        else:
            if not trace:
                setup += [probe_setup(plan["argv"]) for _ in range(SETUP_PROBES_PER_PASS)]
            plain.append(one_pass(plan))
        measured = len(traced) if trace else len(plain)
        if measured >= (TRACED_MIN_PASSES if trace else MIN_PASSES) and \
                perf_counter() - begin >= seconds:
            break
    while not trace and len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(plan["argv"]))
    return plain, traced, setup


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def median_by_key(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def run_workload(workload, seed, seconds, trace):
    from corpus import generate

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    info = generate(workload, seed, work / "corpus")
    out_dir = work / "out"
    argv = evaluate_argv(info, out_dir, workload.workers)
    plan = {"argv": argv, "out_dir": str(out_dir), "trace": 0, "pairs": workload.pairs,
            "audio_seconds": info["audio_seconds"], "spans_path": str(work / "spans.jsonl")}

    if not trace:
        probe_setup(argv)  # warm-up, not counted: writes the bytecode caches
    plain, traced, setup = run_passes(plan, seconds, trace)
    workers1_digest = None
    if workload.workers > 1:
        w1_dir = work / "out_w1"
        workers1_digest = one_pass(dict(plan, argv=evaluate_argv(info, w1_dir, 1),
                                        out_dir=str(w1_dir)))["digest"]
    passes = plain + traced
    problems, failed_pairs = gate(info, [p["digest"] for p in passes], workers1_digest, out_dir)
    attempted = workload.pairs * len(passes)
    failed = failed_pairs * len(passes)  # every pass writes the same reports

    per_pair = [1e3 * p["pass_s"] / workload.pairs for p in plain]
    q1, q3 = quartiles(per_pair)
    print(f"workload {workload.name}: {workload.pairs} pairs, {info['audio_seconds']:.1f} s of "
          f"input audio per pass, --workers {workload.workers}, seed {seed}")
    print(f"  ms_per_pair        {statistics.median(per_pair):10.3f} ms  "
          f"(median of {len(per_pair)} plain passes; q1 {q1:.3f}, q3 {q3:.3f})")
    print(f"  failed_pair_ratio  {failed / attempted:10.3f}     "
          f"({failed} of {attempted} pair evaluations)")
    if trace:
        layers = median_by_key([p["layers"] for p in traced])
        layers["trace.overhead_ratio"] = (statistics.median(p["pass_s"] for p in traced)
                                          / statistics.median(p["pass_s"] for p in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_units().items()}
        shares = sorted(median_by_key([p["wall_shares"] for p in traced]).items(),
                        key=lambda kv: -kv[1])
        print(f"  per layer, median of {len(traced)} traced passes; span time over "
              "cli.main time: " + ", ".join(f"{n} {share:.0%}" for n, share in shares[:8]))
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:12.4f} {metric['unit']}")
    else:
        metrics = {
            "ms_per_pair": {"value": statistics.median(per_pair), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"  peak_rss_mb        {metrics['peak_rss_mb']['value']:10.3f} MB  "
              f"(median over the {len(plain)} pass processes)")
        print(f"  setup_s            {metrics['setup_s']['value']:10.4f} s   "
              f"(median of {len(setup)} fresh interpreters)")
    print("  output checks: " + ("ok" if not problems else "FAILED"))
    for problem in problems:
        print(f"    {problem}")
    bench = {"workload": workload.name, "seed": seed, "trace": trace,
             "audio_seconds_per_pass": info["audio_seconds"], "metrics": metrics,
             "pass_s": [p["pass_s"] for p in plain],
             "traced_pass_s": [p["pass_s"] for p in traced], "setup_s": setup,
             "problems": problems, "kernels_use_numba": passes[0]["use_numba"]}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "bench": bench,
    }


def machine_metadata():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None):
    sys.path.insert(0, str(HERE))
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cloneval" / "__init__.py").is_file():
        print(f"error: cloneval sources not found under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    meta = machine_metadata()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
               for name in names}
    meta["kernels_use_numba"] = next(iter(results.values()))["bench"]["kernels_use_numba"]
    print("machine: " + json.dumps(meta))
    for name, res in results.items():
        (WORK / f"BENCH_{name}{'_trace' if args.trace else ''}.json").write_text(
            json.dumps({"machine": meta, **res["bench"]}, indent=1) + "\n")

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, res in results.items()
                   for metric, value in res["metrics"].items()}
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
