"""The mutation gate: every mutant in ``mutants.py`` fails each of its tests.

Each mutant is applied to a copy of ``src/`` in a temporary directory, and
its tests run in a child process whose ``PYTHONPATH`` starts with the copy.
Each of them must fail, and the child must have imported ``cloneval`` from
the copy, not from the checkout.

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

# Prints where cloneval comes from, then runs pytest on the arguments and
# prints the id of each test that fails.
_RUN = """
import sys
import cloneval
import pytest
print("cloneval from", cloneval.__file__, flush=True)

class Failed:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            print("\\nfailed:", report.nodeid, flush=True)  # after pytest's progress dots

sys.exit(pytest.main(sys.argv[1:], plugins=[Failed()]))
"""


def check_mutant(name, workdir):
    """Apply mutant ``name`` to a copy of ``src/`` under ``workdir``; each of its tests must fail.

    A parametrized test fails when one of its cases does. Raises
    AssertionError otherwise, also under ``python -O``.
    """
    relative, old, new, tests = MUTANTS[name]
    src = workdir / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / relative
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise AssertionError(f"{name}: {relative} holds the old text {text.count(old)} times")
    target.write_text(text.replace(old, new), encoding="utf-8")

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    argv = ["-q", "-p", "no:cacheprovider", f"--basetemp={workdir / 'run'}",
            *(str(TESTS / test) for test in tests)]
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=TESTS.parent, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    if not proc.stdout.startswith(f"cloneval from {src / 'cloneval' / '__init__.py'}\n"):
        raise AssertionError(output)
    failed = [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith("failed: ")]
    passed = [test for test in tests if not any(
        nodeid == f"tests/{test}" or nodeid.startswith(f"tests/{test}[") for nodeid in failed)]
    # pytest exits 1 when a test failed, and with other codes when it could not run one
    if proc.returncode != 1 or passed:
        raise AssertionError(f"{name} survived {passed or list(tests)}:\n{output[-3000:]}")


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
