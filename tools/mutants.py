"""Mutation probe: does each one-site change to a module fail its tests?

    python tools/mutants.py src/reorderlab/oracle.py src/reorderlab/reconstruct.py
    python tools/mutants.py src/reorderlab/reconstruct.py --tests tests/test_reconstruct.py tests/test_oracle.py

Each mutant changes one site of the module's syntax tree: it flips one
comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``) or adds 1
to one integer constant.  It is written into a temporary copy of ``src`` and
``tests``, where the module's test files (``tests/test_<module>.py`` unless
``--tests`` names others) run with ``pytest -x``.  A mutant whose tests still
pass survived: the tests miss what that site does, or the change makes no
difference.  The working tree is only read.

Mutants are written with ``ast.unparse``, so the unparsed, unmutated module
must pass the same tests first.  Prints one line per mutant and a count per
module; exits 1 if any mutant survived, 2 if a module cannot be probed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
}


def _sites(tree: ast.AST, lines: list[str]) -> list[tuple[int, int, ast.expr, int | None]]:
    """(line, column, node, operator index or None for an int constant), in source order."""
    found: list[tuple[int, int, ast.expr, int | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    # the operator's own column, so the sites of a chained comparison differ
                    left = node.left if i == 0 else node.comparators[i - 1]
                    symbol = FLIPS[type(op)][1]
                    column = lines[left.end_lineno - 1].find(symbol, left.end_col_offset)
                    found.append((left.end_lineno, column + 1, node, i))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node.lineno, node.col_offset + 1, node, None))
    return sorted(found, key=lambda site: site[:2])


def mutants(source: str):
    """Yield (line, column, change, mutated source) for every site of ``source``."""
    lines = source.splitlines()
    for k in range(len(_sites(ast.parse(source), lines))):
        tree = ast.parse(source)
        line, column, node, i = _sites(tree, lines)[k]
        if i is None:
            change = f"{node.value} -> {node.value + 1}"
            node.value += 1
        else:
            flipped, old, new = FLIPS[type(node.ops[i])]
            change = f"{old} -> {new}"
            node.ops[i] = flipped()
        yield line, column, change, ast.unparse(tree)


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> str | None:
    """None if the tests pass in ``copy``, else the first failure pytest names."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return f"timeout after {timeout:.0f} s"
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return f"pytest exit {proc.returncode}"


def probe(copy: Path, module: Path, tests: list[str]) -> int:
    """Run every mutant of ``module``; returns the survivor count, or -1 if it cannot run."""
    target = copy / module
    source = target.read_text()
    name = module.name
    try:
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        failure = run_tests(copy, tests, timeout=None)
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        if failure is not None:
            print(f"{name}: the unmutated module fails its tests ({failure})")
            return -1
        killed = survived = 0
        for line, column, change, mutated in mutants(source):
            target.write_text(mutated)
            failure = run_tests(copy, tests, timeout)
            if failure is None:
                survived += 1
                print(f"survived {name}:{line}:{column} {change}", flush=True)
            else:
                killed += 1
                print(f"killed   {name}:{line}:{column} {change}  {failure}", flush=True)
        print(f"{name}: {killed + survived} mutants, {killed} killed, {survived} survived")
        return survived
    finally:
        target.write_text(source)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files under src/")
    parser.add_argument(
        "--tests", nargs="+", help="test files to run (default: tests/test_<module>.py)"
    )
    args = parser.parse_args(argv)
    jobs = []
    for path in args.modules:
        module = path.resolve()
        tests = args.tests or [f"tests/test_{module.stem}.py"]
        if not module.is_file() or not module.is_relative_to(ROOT / "src"):
            parser.error(f"not a module file under src/: {path}")
        if not all((ROOT / test).is_file() for test in tests):
            parser.error(f"no test files {tests} for {path}")
        jobs.append((module.relative_to(ROOT), tests))
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for module, tests in jobs:
            survived = probe(copy, module, tests)
            status = max(status, 2 if survived < 0 else int(survived > 0))
    return status


if __name__ == "__main__":
    sys.exit(main())
