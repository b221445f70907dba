"""The mutation gate: every mutant in ``mutants.py`` fails the golden reports.

Each mutant is applied to a copy of ``src/`` in a temporary directory, and
``tests/test_golden.py::test_reports_match_golden`` runs in a child process
whose ``PYTHONPATH`` starts with the copy. The child must fail its test,
and it must have imported ``cloneval`` from the copy, not from the
checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC
from mutants import MUTANTS

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


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fails_the_golden_reports(name, tmp_path):
    relative, old, new = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / relative
    text = target.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: {relative} holds the old text {text.count(old)} times"
    target.write_text(text.replace(old, new), encoding="utf-8")

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    argv = ["-q", "-x", "-p", "no:cacheprovider", f"--basetemp={tmp_path / 'run'}",
            f"{GOLDEN_TEST}::test_reports_match_golden"]
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=TESTS.parent, env=env,
                          capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"cloneval from {src / 'cloneval' / '__init__.py'}\n"), output
    # pytest exits 1 when a test failed, and with other codes when it could not run one
    assert proc.returncode == 1, f"{name} survived the golden reports:\n{output[-3000:]}"
