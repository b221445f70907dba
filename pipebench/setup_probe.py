"""Set-up time of one evaluate run, in a fresh interpreter.

Usage: python3 setup_probe.py EVALUATE_ARGS...

Times from before ``import cloneval`` until ``cloneval.cli`` has parsed its
arguments, loaded the embedding manifests and discovered the pairs, that is,
until it calls ``evaluate_corpus`` to score the first pair. The run stops
there and prints the seconds as JSON.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cloneval import cli  # noqa: E402


class Ready(Exception):
    pass


def stop_before_scoring(pairs, config, dump=None):
    raise Ready(perf_counter() - START)


if __name__ == "__main__":
    cli.evaluate_corpus = stop_before_scoring
    try:
        cli.main(sys.argv[1:])
    except Ready as ready:
        print(json.dumps({"setup_s": ready.args[0]}))
    else:
        sys.exit("evaluate finished without reaching evaluate_corpus")
