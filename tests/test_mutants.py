"""The mutation gate: every mutant in ``mutants.py`` fails the golden reports.

Each mutant is applied to a copy of ``src/`` in a temporary directory, and
``tests/test_golden.py::test_reports_match_golden`` runs in a child process
whose ``PYTHONPATH`` starts with the copy. The child must fail its test,
and it must have imported ``cloneval`` from the copy, not from the
checkout.

Tier-1 runs the ``TIER1`` mutants. ``python tests/test_mutants.py`` runs
every mutant through the same check and exits 1 if one survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import SRC
from mutants import MUTANTS, TIER1

TESTS = Path(__file__).resolve().parent
GOLDEN_TEST = TESTS / "test_golden.py"

# Prints where cloneval comes from, then runs pytest on the arguments.
_RUN = """
import sys
import cloneval
import pytest
print("cloneval from", cloneval.__file__, flush=True)
sys.exit(pytest.main(sys.argv[1:]))
"""


def check_mutant(name, workdir):
    """Apply mutant ``name`` to a copy of ``src/`` under ``workdir``; the golden reports must fail.

    Raises AssertionError otherwise, also under ``python -O``.
    """
    relative, old, new = MUTANTS[name]
    src = workdir / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / relative
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise AssertionError(f"{name}: {relative} holds the old text {text.count(old)} times")
    target.write_text(text.replace(old, new), encoding="utf-8")

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    argv = ["-q", "-x", "-p", "no:cacheprovider", f"--basetemp={workdir / 'run'}",
            f"{GOLDEN_TEST}::test_reports_match_golden"]
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=TESTS.parent, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    if not proc.stdout.startswith(f"cloneval from {src / 'cloneval' / '__init__.py'}\n"):
        raise AssertionError(output)
    # pytest exits 1 when a test failed, and with other codes when it could not run one
    if proc.returncode != 1:
        raise AssertionError(f"{name} survived the golden reports:\n{output[-3000:]}")


@pytest.mark.parametrize("name", sorted(TIER1))
def test_mutant_fails_the_golden_reports(name, tmp_path):
    check_mutant(name, tmp_path)


if __name__ == "__main__":
    survivors = []
    for name in sorted(MUTANTS):
        with tempfile.TemporaryDirectory() as workdir:
            try:
                check_mutant(name, Path(workdir))
            except AssertionError as exc:
                survivors.append(name)
                print(f"{name}: NOT CAUGHT\n{exc}", flush=True)
            else:
                print(f"{name}: caught", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    sys.exit(1 if survivors else 0)
