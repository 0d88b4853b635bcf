"""A small mutation tester for one function of ``src/hsdecomp``, built on the stdlib ``ast``.

Each mutant changes one site of the target function: a comparison (``<`` and ``<=``, ``>``
and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in`` swap), a boolean
operator (``and`` and ``or`` swap), a ``not`` (dropped), an arithmetic operator (``+`` and
``-``, ``*`` and ``/`` swap), a number (``n`` becomes ``n + 1``), ``True``/``False`` (swap), or
a statement that is an expression, a ``raise`` or an ``if`` (replaced by ``pass``; an ``if``
keeps its ``else`` branch). The module is rewritten with ``ast.unparse`` into a copy of
``src/`` in a new directory under ``--workdir`` (removed when the run ends), never in the
checkout, and the chosen tests run against it with ``-x``. A mutant that the chosen tests
let through is run again on the whole suite; what survives that is printed with its line,
for a reader to classify as equivalent or to kill with a new test.

It is not part of the test suite (pytest collects only ``test_*.py``); a run takes minutes.
Run from the root of the checkout, for example:

    python tests/mutate.py hsdecomp.forms:build_inner_product --tests tests/test_forms.py
    python tests/mutate.py hsdecomp.posdecomp:two_sum_pd --lines 324-327 --lines 338-339 \\
        --lines 353-354 --tests tests/test_posdecomp.py
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}


def _target(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for name in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


class _Mutator(ast.NodeTransformer):
    """Lists the mutable sites of the tree it visits, in a fixed order, and mutates site
    number ``chosen`` (none when it is None). ``lines``, if given, bounds the sites."""

    def __init__(self, lines: set[int] | None, chosen: int | None = None):
        self.lines, self.chosen, self.sites = lines, chosen, []

    def _site(self, node: ast.AST, description: str) -> bool:
        if self.lines is not None and node.lineno not in self.lines:
            return False
        self.sites.append(f"line {node.lineno}: {description}")
        return len(self.sites) - 1 == self.chosen

    def _swap(self, node, op):
        new = _SWAPS.get(type(op))
        if new is not None and self._site(node, f"{type(op).__name__} -> {new.__name__}"):
            return new()
        return op

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [self._swap(node, op) for op in node.ops]
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.op = self._swap(node, node.op)
        return node

    visit_BinOp = visit_BoolOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node):
        value = node.value
        if type(value) in (int, float, bool):
            new = (not value) if type(value) is bool else value + 1
            if self._site(node, f"{value!r} -> {new!r}"):
                node.value = new
        return node

    def _statement(self, node):
        self.generic_visit(node)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return node  # a docstring
        if self._site(node, f"drop {type(node).__name__}"):
            return node.orelse if isinstance(node, ast.If) and node.orelse else ast.Pass()
        return node

    visit_Expr = visit_Raise = visit_If = _statement


def _run(workdir: Path, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass against ``workdir/src``; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONWARNINGS="error")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("target", help="module:qualname, e.g. hsdecomp.forms:build_inner_product")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="directory for the mutants' copy of src/ (default: the system's temp)")
    ap.add_argument("--tests", nargs="+", default=["tests"], help="tests of the first pass")
    ap.add_argument("--lines", action="append", default=[],
                    help="mutate only sites on lines a-b of the module (repeatable)")
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per test run")
    args = ap.parse_args(argv)
    module, qualname = args.target.split(":")
    rel = Path("src", *module.split(".")).with_suffix(".py")
    lines = None
    for span in args.lines:
        lo, hi = map(int, span.split("-"))
        lines = (lines or set()) | set(range(lo, hi + 1))
    source = (ROOT / rel).read_text()
    sites = _Mutator(lines)
    sites.visit(_target(ast.parse(source), qualname))
    work = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.workdir))
    try:
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        out = work / rel
        out.write_text(ast.unparse(ast.parse(source)))
        if not _run(work, args.tests, args.timeout):
            print("the unmutated module fails the tests; nothing to measure", file=sys.stderr)
            return 2
        survivors = []
        for k, site in enumerate(sites.sites):
            tree = ast.parse(source)
            _Mutator(lines, k).visit(_target(tree, qualname))
            out.write_text(ast.unparse(ast.fix_missing_locations(tree)))
            survived = _run(work, args.tests, args.timeout) and _run(work, ["tests"],
                                                                      args.timeout)
            if survived:
                survivors.append(site)
            print(f"[{k + 1}/{len(sites.sites)}] {site}: {'SURVIVED' if survived else 'killed'}",
                  flush=True)
    finally:
        shutil.rmtree(work)
    print(f"{args.target}: killed {len(sites.sites) - len(survivors)} of {len(sites.sites)}")
    for site in survivors:
        print("  survivor", site)
    return 0


if __name__ == "__main__":
    sys.exit(main())
