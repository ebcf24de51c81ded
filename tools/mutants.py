"""Mutation probe: does each one-site change to a module fail its tests?

    python tools/mutants.py src/reorderlab/oracle.py src/reorderlab/reconstruct.py
    python tools/mutants.py src/reorderlab/reconstruct.py --tests tests/test_reconstruct.py tests/test_oracle.py

Each mutant changes one site of the module's syntax tree: it flips one
comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and
``is not``, ``in`` and ``not in``), flips one boolean operator (``and`` and
``or``; ``a and b and c`` is one operator), or adds 1 to one integer constant.
It is written into a temporary copy of ``src``, ``tests`` and ``perfbench``,
where the module's test files (``tests/test_<module>.py`` unless ``--tests``
names others) run with ``pytest -x``.  A mutant whose tests still pass
survived: the tests miss what that site does, or the change makes no
difference.  The working tree is only read.

``tools/known_survivors.txt`` lists the survivors already judged equivalent,
one per line: the module's file name, the mutated line's source text without
its indent, the change, and a one-line reason, separated by tabs.  An entry
covers every site of its change on that line.  A survivor it lists prints as
``known`` and does not count as a survivor.

Mutants are written with ``ast.unparse``, so the unparsed, unmutated module
must pass the same tests first.  Prints one line per mutant and a count per
module; exits 1 if any mutant survived that the list does not name, 2 if a
module cannot be probed.
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
KNOWN = ROOT / "tools" / "known_survivors.txt"
FLIPS = {
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Is: (ast.IsNot, "is", "is not"),
    ast.IsNot: (ast.Is, "is not", "is"),
    ast.In: (ast.NotIn, "in", "not in"),
    ast.NotIn: (ast.In, "not in", "in"),
}
BOOL_FLIPS = {ast.And: (ast.Or, "and", "or"), ast.Or: (ast.And, "or", "and")}


def _sites(tree: ast.AST, lines: list[str]) -> list[tuple[int, int, ast.expr, int | None]]:
    """(line, column, node, operator index or None), in source order.

    The index is None for an int constant and for a boolean operator, whose
    column is that of its first ``and`` or ``or``.
    """
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
        elif isinstance(node, ast.BoolOp):
            # the first operator's column: after the first operand, or before the second
            symbol, left, right = BOOL_FLIPS[type(node.op)][1], node.values[0], node.values[1]
            line = left.end_lineno
            column = lines[line - 1].find(symbol, left.end_col_offset)
            if column < 0:
                line = right.lineno
                column = lines[line - 1].rfind(symbol, 0, right.col_offset)
            found.append((line, column + 1, node, None))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node.lineno, node.col_offset + 1, node, None))
    return sorted(found, key=lambda site: site[:2])


def known_survivors() -> dict[tuple[str, str, str], str]:
    """The reason for each (module file name, stripped source line, change) in ``KNOWN``."""
    entries = {}
    for text in KNOWN.read_text().splitlines():
        if text.strip() and not text.startswith("#"):
            module, source, change, reason = text.split("\t")
            entries[module, source, change] = reason
    return entries


def mutants(source: str):
    """Yield (line, column, change, mutated source) for every site of ``source``."""
    lines = source.splitlines()
    for k in range(len(_sites(ast.parse(source), lines))):
        tree = ast.parse(source)
        line, column, node, i = _sites(tree, lines)[k]
        if isinstance(node, ast.BoolOp):
            flipped, old, new = BOOL_FLIPS[type(node.op)]
            change = f"{old} -> {new}"
            node.op = flipped()
        elif i is None:
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


def probe(copy: Path, module: Path, tests: list[str], known: dict) -> int:
    """Run every mutant of ``module``; returns the survivor count, or -1 if it cannot run."""
    target = copy / module
    source = target.read_text()
    lines = source.splitlines()
    name = module.name
    try:
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        failure = run_tests(copy, tests, timeout=None)
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        if failure is not None:
            print(f"{name}: the unmutated module fails its tests ({failure})")
            return -1
        killed = listed = survived = 0
        for line, column, change, mutated in mutants(source):
            target.write_text(mutated)
            failure = run_tests(copy, tests, timeout)
            reason = known.get((name, lines[line - 1].strip(), change))
            if failure is not None:
                killed += 1
                print(f"killed   {name}:{line}:{column} {change}  {failure}", flush=True)
            elif reason is not None:
                listed += 1
                print(f"known    {name}:{line}:{column} {change}  {reason}", flush=True)
            else:
                survived += 1
                print(f"survived {name}:{line}:{column} {change}", flush=True)
        total = killed + listed + survived
        print(f"{name}: {total} mutants, {killed} killed, {listed} known, {survived} survived")
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
    known, status = known_survivors(), 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests", "perfbench"):  # tests/test_cli.py reads perfbench's argvs
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for module, tests in jobs:
            survived = probe(copy, module, tests, known)
            status = max(status, 2 if survived < 0 else int(survived > 0))
    return status


if __name__ == "__main__":
    sys.exit(main())
