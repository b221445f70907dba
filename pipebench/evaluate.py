"""One timed evaluation pass, in a process of its own.

Usage: python3 evaluate.py PLAN_JSON

A user runs ``cloneval evaluate`` once per process, so each pass runs in a
fresh interpreter and pays what a first run pays (heap growth, first-touch
page faults), and its peak resident memory belongs to that evaluation alone.
Only ``cloneval.cli.main(["evaluate", ...])`` is inside the timer; importing
cloneval is what ``setup_probe.py`` measures. The last line of standard
output is the result as JSON.

Plan keys: ``argv`` (evaluate arguments), ``out_dir`` (their --output-dir),
``trace`` (0 or 1), and for a traced pass ``pairs``, ``audio_seconds`` and
``spans_path``.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cloneval import _kernels, cli, features, pipeline  # noqa: E402

from spans import Tracer  # noqa: E402


def report_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in ("details.csv", "summary.json"):
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def main(plan):
    tracer = None
    if plan["trace"]:
        tracer = Tracer({"cli": cli, "pipeline": pipeline, "features": features,
                         "_kernels": _kernels})
        with tracer.installed():
            start = perf_counter()
            code = tracer.root(cli.main, plan["argv"])
            elapsed = perf_counter() - start
    else:
        start = perf_counter()
        code = cli.main(plan["argv"])
        elapsed = perf_counter() - start
    if code != 0:
        sys.exit(f"cloneval evaluate exited with {code}")

    result = {
        "pass_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": report_digest(plan["out_dir"]),
        "use_numba": bool(_kernels.USE_NUMBA),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(plan["pairs"], plan["audio_seconds"])
        result["wall_shares"] = tracer.wall_shares()
        tracer.write(plan["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
