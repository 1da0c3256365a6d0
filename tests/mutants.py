"""Mutants that the test suite must kill, and their runner.

Each entry names a file, an exact old text, the new text that replaces it,
and the ids of the tests that must fail once it is applied (mutation
testing: DeMillo, Lipton and Sayward, IEEE Computer 1978).  The runner
first runs every named test on an unchanged copy of the tree, where each
must pass.  Then it applies each entry to a fresh temporary copy and runs
that entry's tests with `-x`; the entry is killed when a test fails, and
not when the tests cannot be collected.  An entry whose old text does not
occur exactly once in its file fails the run, so the code an entry mutates
cannot move away from it unseen: the change that moves it updates the
entry.

    python tests/mutants.py

Exit status 0 when every entry applies and is killed, and 1 otherwise.  It
uses the standard library only, besides the pytest that runs the tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "private-key-reader-takes-any-field",
        "src/rabinsig/keygen.py",
        '        padding = PaddingSet(padding.elements, roots=tuple(record.integer(f"u{i}_root") for i in range(1, 5)))\n'
        "    record.done()\n",
        '        padding = PaddingSet(padding.elements, roots=tuple(record.integer(f"u{i}_root") for i in range(1, 5)))\n'
        "    record.clear()\n",
        ("tests/test_keygen.py::test_an_earlier_file_is_refused_and_loads_signs_the_same_without_its_constant_lines",),
    ),
    Mutant(
        "verdict-without-range-rule",
        "src/rabinsig/schemes.py",
        "    if h is None or not _in_range(n, *components):\n",
        "    if h is None:\n",
        ("tests/test_schemes.py::TestFailedVerdictCounts::test_failing_branch",),
    ),
    Mutant(
        "prime-search-without-fermat-step",
        "src/rabinsig/keygen.py",
        "    if _modexp(2, n - 1, n) != 1:\n        return 0\n",
        "",
        ("tests/test_keygen.py::test_a_refused_candidate_takes_one_modexp_and_the_prime_three",),
    ),
    Mutant(
        "signer-releases-a-failed-signature",
        "src/rabinsig/schemes.py",
        "    if not report.valid:\n",
        "    if False:\n",
        ("tests/test_schemes.py::TestSignersCheckTheirOutput::test_a_fault_in_one_crt_half_is_withheld",),
    ),
)


def _copy() -> Path:
    tree = Path(tempfile.mkdtemp(prefix="mutant-")) / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutants) -> bool:
    """Whether every test passes unmutated, and every mutant applies once and is killed; each outcome is printed."""
    tree = _copy()
    try:
        if _pytest(tree, sorted({test for mutant in mutants for test in mutant.tests})):
            print("FAIL  the named tests do not pass on the unmutated tree")
            return False
    finally:
        shutil.rmtree(tree.parent)
    ok = True
    for mutant in mutants:
        started = time.perf_counter()
        tree = _copy()
        try:
            target = tree / mutant.path
            text = target.read_text()
            if (count := text.count(mutant.old)) != 1:
                print(f"FAIL  {mutant.name}: its old text occurs {count} times in {mutant.path}, not once")
                ok = False
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            code = _pytest(tree, mutant.tests)
        finally:
            shutil.rmtree(tree.parent)
        outcome = {0: "FAIL  survived", 1: "killed"}.get(code, f"FAIL  pytest exited {code}")
        print(f"{outcome}  {mutant.name}  {time.perf_counter() - started:.1f} s")
        ok &= code == 1
    return ok


if __name__ == "__main__":
    sys.exit(0 if run(MUTANTS) else 1)
