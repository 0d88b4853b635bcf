"""A structured fuzzer of the CLI: every input gets exit 0, 1 or 2 and a typed report.

The seeds are every input fixture, every golden report and the output of one
``counterexample | pd-decompose`` chain. Each case feeds one seed, mutated or as it is, to
one of the 16 subcommands of ``cli._COMMANDS`` with random values of its flags (``--tol``,
``--zeta``, ``--t``, ``--variant``, ``--mirror``, ``--format``) and runs ``cli.main`` in
process. The mutations reach these extremes on purpose: nesting up to 100,000 deep, integer
literals over the interpreter's 4,300-digit limit, NaN and Infinity tokens, empty and
textually duplicated keys, lone surrogates (escaped and raw), a type swapped at each level,
dims at and beyond the Liouville size limit, every number of one matrix scaled by 10^k with
|k| up to 308, and a term repeated with its left factor doubled, so that ``reduce`` folds a
dependent family. A valid dim stays at 8 or less, so no case builds a large Liouville matrix.

For every case:
- the exit code is 0, 1 or 2;
- exit 1 or 2 prints a JSON object whose ``error`` has ``type`` and ``message``; exit 0 with
  ``--format json`` prints the command's report;
- no exception leaves ``cli.main``, stderr holds no traceback, and no warning is raised.

stdout is a strict UTF-8 stream, as a process's is, so a report that a process could not
write fails here too. The tier-1 test runs ``TIER1_COUNT`` cases from ``SEED``; a longer
budget runs as a script::

    PYTHONPATH=src python tests/test_fuzz_cli.py --count 3000
"""

import argparse
import contextlib
import copy
import io
import json
import random
import sys
import traceback
import warnings
from pathlib import Path

from hsdecomp.cli import _COMMANDS, main

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 28
TIER1_COUNT = 600

COMMANDS = list(_COMMANDS)
TOLS = ["0", "1", "-inf", "nan", "inf", "-1", "1e-300", "1e-15", "1e-9", "1e-3", "0.5"]
ZETAS = ["0.5", "3", "1,2", "0.25,0.25,0.25", "0", "nan", "inf", "1e308", "5e-324", "", "abc"]
TS = ["0.25", "0.1", "1e-6", "0.4999999", "0", "0.5", "-1", "nan", "-inf", "inf", "1e-300"]
DIMS = [0, -1, True, 2.0, 33, 10**6, 10**30, 1, 2, 3, 4, 8]
DEPTHS = [2, 30, 999, 1000, 5000, 100_000]
TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-0.0", "5e-324", "1" + "0" * 400,
          "9" * 4300, "9" * 4301, "-" + "1" * 5000]
SWAPS = [None, True, False, 0, -1, 2.5, "x", "", [], {}, [[1.0, 0.0]], {"": 0}]
SURROGATES = ["\ud800", "\udfff", "\udc80x"]
SCALES = [-308, -300, -150, -20, 20, 150, 300, 308]


def run(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` on ``stdin_text``, with every warning an
    error. An exception that leaves ``main`` propagates."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out.flush()
    finally:
        sys.stdin = stdin
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def seed_texts() -> list[str]:
    """The input fixtures, the golden reports and one counterexample | pd-decompose output."""
    paths = sorted(FIXTURES.glob("*.json")) + sorted((FIXTURES / "golden").glob("*.json"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    chain = ""
    for argv in (["counterexample", "--t", "0.1"], ["pd-decompose"]):
        code, chain, _ = run(argv, chain)
        assert code == 0, argv
    return texts + [chain]


def _nodes(x, path=()):
    """(path, value) of every node of a parsed JSON value, the root first."""
    yield path, x
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _is_matrix(x) -> bool:
    """Whether ``x`` is a non-empty list of non-empty rows of [re, im] number pairs."""
    return (isinstance(x, list) and bool(x) and all(isinstance(row, list) and row for row in x)
            and all(isinstance(e, list) and len(e) == 2 and all(type(v) in (int, float) for v in e)
                    for row in x for e in row))


def _scaled(x, c):
    """``x`` with every int and float in its nested lists times ``c``."""
    if type(x) in (int, float):
        return x * c
    if isinstance(x, list):
        return [_scaled(v, c) for v in x]
    return x


def _replace(root, path, value):
    """``root`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return root


class _Case:
    """One fuzz input under construction: a parsed value whose nodes may be placeholders
    for raw JSON text (tokens and duplicated keys that ``json.dumps`` cannot write)."""

    def __init__(self, rng: random.Random, value):
        self.rng, self.value, self.raw = rng, value, {}

    def splice(self, text: str) -> str:
        placeholder = f"\x00raw{len(self.raw)}\x00"
        self.raw[json.dumps(placeholder)] = text
        return placeholder

    def dumps(self, value, ensure_ascii=True) -> str:
        text = json.dumps(value, ensure_ascii=ensure_ascii)
        while any(p in text for p in self.raw):
            for placeholder, raw in self.raw.items():
                text = text.replace(placeholder, raw)
        return text

    def pick(self, want=lambda path, x: True):
        """A (path, value) node that ``want`` accepts: first a depth, uniformly, then a node
        at it, so that shallow levels are hit as often as leaves; None if none is accepted."""
        by_depth = {}
        for path, x in _nodes(self.value):
            if want(path, x):
                by_depth.setdefault(len(path), []).append((path, x))
        if not by_depth:
            return None
        return self.rng.choice(by_depth[self.rng.choice(sorted(by_depth))])

    def put(self, path, value) -> None:
        self.value = _replace(self.value, path, value)

    def swap_value(self, unlike=None):
        """A fresh copy of one of ``SWAPS``, of another type than ``unlike``."""
        return copy.deepcopy(self.rng.choice([v for v in SWAPS if type(v) is not type(unlike)]))

    # each mutation returns a short label of what it did
    def swap(self) -> str:
        path, x = self.pick()
        self.put(path, self.swap_value(x))
        return f"swap@{len(path)}"

    def token(self) -> str:
        node = self.pick(lambda p, x: type(x) in (int, float))
        path = node[0] if node else self.pick()[0]
        token = self.rng.choice(TOKENS)
        self.put(path, self.splice(token))
        return f"token {token[:12]}"

    def deep(self) -> str:
        path, _ = self.pick()
        n = self.rng.choice(DEPTHS)
        nest = ("[" * n + "]" * n) if self.rng.random() < 0.5 else ('{"a":' * n + "0" + "}" * n)
        self.put(path, self.splice(nest))
        return f"deep {n}"

    def dim(self) -> str:
        dim = self.rng.choice(DIMS)
        node = (self.pick(lambda p, x: isinstance(x, dict) and "dim" in x)
                or self.pick(lambda p, x: isinstance(x, dict)))
        if node is None:
            return self.swap()
        node[1]["dim"] = dim
        return f"dim {str(dim)[:12]}"

    def empty_key(self) -> str:
        node = self.pick(lambda p, x: isinstance(x, dict))
        if node is None:
            return self.swap()
        node[1][""] = self.swap_value()
        return "empty key"

    def duplicate_key(self) -> str:
        node = self.pick(lambda p, x: isinstance(x, dict) and x)
        if node is None:
            return self.swap()
        path, x = node
        entries = [f"{json.dumps(k)}: {self.dumps(v)}" for k, v in x.items()]
        key = self.rng.choice(list(x))
        again = x[key] if self.rng.random() < 0.5 else self.swap_value()
        entries.insert(self.rng.randrange(len(entries) + 1),
                       f"{json.dumps(key)}: {self.dumps(again)}")
        self.put(path, self.splice("{" + ", ".join(entries) + "}"))
        return f"duplicate {key[:12]!r}"

    def surrogate(self) -> str:
        mark = self.rng.choice(SURROGATES)
        node = self.pick(lambda p, x: isinstance(x, dict) and x)
        if node is not None and self.rng.random() < 0.5:  # in a key
            x = node[1]
            key = self.rng.choice(list(x))
            x[key + mark] = x.pop(key)
            return "surrogate key"
        path, x = self.pick()
        self.put(path, (x + mark) if isinstance(x, str) else mark)
        return "surrogate value"

    def drop(self) -> str:
        node = self.pick(lambda p, x: p)
        if node is None:
            return self.swap()
        path = node[0]
        parent = self.value
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return f"drop@{len(path)}"


    def scale(self) -> str:
        node = self.pick(lambda p, x: _is_matrix(x))
        if node is None:
            return self.swap()
        k = self.rng.choice(SCALES)
        self.put(node[0], _scaled(node[1], 10.0**k))
        return f"scale 1e{k}"

    def repeat(self) -> str:
        node = self.pick(lambda p, x: p and p[-1] == "terms" and isinstance(x, list)
                         and any(isinstance(t, dict) and "a" in t for t in x))
        if node is None:
            return self.swap()
        terms = node[1]
        term = copy.deepcopy(self.rng.choice([t for t in terms
                                              if isinstance(t, dict) and "a" in t]))
        term.pop("sign", None)  # a second negative term would be refused before any fold
        term["a"] = _scaled(term["a"], 2)
        terms.append(term)
        return "repeat"


MUTATIONS = ["swap", "token", "deep", "dim", "empty_key", "duplicate_key", "surrogate", "drop",
             "scale", "repeat", "truncate", None]


_FIELDS = {"apply": {"sum", "eta"}, "form-eval": {"sum", "eta", "tau"},
           "equiv": {"sum1", "sum2"}, "build-ip": {"dim", "a", "b"}}


def _fits(command: str, obj) -> bool:
    """Whether ``command`` reads ``obj``: the fields it needs, or else an operator."""
    if not isinstance(obj, dict):
        return False
    if command in _FIELDS:
        return _FIELDS[command] <= obj.keys()
    return {"dim", "terms"} <= obj.keys() or isinstance(obj.get("terms_out"), dict)


def _flags(rng: random.Random, command: str) -> list[str]:
    """Random values of the flags ``command`` takes, in a random order."""
    cmd = _COMMANDS[command]
    options = dict(cmd.options)
    groups = []
    if rng.random() < 0.3:
        groups.append(["--tol", rng.choice(TOLS)])
    if rng.random() < 0.3:
        groups.append(["--format", rng.choice(["json", "text"])])
    if "--zeta" in options and rng.random() < 0.5:
        groups.append(["--zeta", rng.choice(ZETAS)])
    if "--t" in options:
        groups.append(["--t", rng.choice(TS)])
    if "--variant" in options and rng.random() < 0.5:
        groups.append(["--variant", rng.choice(["left", "right"])])
    if cmd.mirror and rng.random() < 0.5:
        groups.append(["--mirror"])
    rng.shuffle(groups)
    return [word for group in groups for word in group]


def cases(count: int, seed: int = SEED):
    """``count`` cases (argv, stdin text, label). Case i runs command i mod 16 under the
    mutation (i // 16) mod len(MUTATIONS), so every command meets every mutation once in each
    16 len(MUTATIONS) cases; a case applies one to three mutations, the first that one."""
    rng = random.Random(seed)
    texts = seed_texts()
    fitting = {c: [t for t in texts if _fits(c, json.loads(t))] or texts for c in COMMANDS}
    for i in range(count):
        command = COMMANDS[i % len(COMMANDS)]
        first = MUTATIONS[(i // len(COMMANDS)) % len(MUTATIONS)]
        more = rng.randrange(3) if first else 0
        kinds = [first] + [rng.choice(MUTATIONS[:-1]) for _ in range(more)]
        source = fitting[command] if rng.random() < 0.8 else texts
        case = _Case(rng, json.loads(rng.choice(source)))
        labels = []
        truncate = False
        for kind in kinds:
            if kind == "truncate":
                truncate = True
            elif kind:
                labels.append(getattr(case, kind)())
        text = case.dumps(case.value, ensure_ascii=rng.random() < 0.7)
        if truncate:
            text = text[:rng.randrange(len(text) + 1)]
            labels.append("truncate")
        yield [command, *_flags(rng, command)], text, ", ".join(labels) or "as is"


def check(argv: list[str], text: str) -> str | None:
    """What is wrong with the outcome of one case, or None."""
    try:
        code, out, err = run(argv, text)
    except Exception:  # an exception leaving main is what the fuzzer looks for
        return "raised: " + traceback.format_exc(limit=-3)
    if "Traceback" in err:
        return f"traceback on stderr: {err[-400:]}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    try:
        report = json.loads(out) if code or "text" not in argv else None
    except ValueError:
        return f"exit {code}, stdout is not JSON: {out[:200]!r}"
    if code and not (isinstance(report, dict) and isinstance(report.get("error"), dict)
                     and {"type", "message"} <= report["error"].keys()):
        return f"exit {code} without an error object: {out[:200]!r}"
    if not code and report is not None and report.get("command") != argv[0]:
        return f"exit 0 without a report of {argv[0]}: {out[:200]!r}"
    return None


def fuzz(count: int, seed: int = SEED) -> list[str]:
    """The failures among ``count`` cases, each with what reproduces it."""
    failures = []
    for i, (argv, text, label) in enumerate(cases(count, seed)):
        problem = check(argv, text)
        if problem:
            failures.append(f"case {i} {argv} ({label}), input {text[:120]!r}: {problem}")
    return failures


# cases that escaped ``cli.main`` or gave a wrong report, each a typed error now: (argv, input
# fixture, exit code). zeta = 1e308 overflowed b_2 - zeta b_1 with a RuntimeWarning, an
# exception under PYTHONWARNINGS=error, before the finiteness check that refuses it. reduce
# folded 2 (1e308 I) into a right factor with a RuntimeWarning and then dropped the infinite
# factor, so it reported 0 terms with exit 0.
FINDINGS = [
    (["zeta-check", "--zeta", "1e308"], "scalar_zeta.json", 1),
    (["zeta-transform", "--zeta", "1e308"], "scalar_zeta.json", 1),
    (["reduce"], "reduce_fold_overflow.json", 2),
]


def test_findings_are_typed_errors():
    for argv, name, code in FINDINGS:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert check(argv, text) is None, argv
        assert run(argv, text)[0] == code, argv


def test_cli_fuzz():
    failures = fuzz(TIER1_COUNT)
    assert not failures, "\n".join(failures[:10])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fuzz the hsdecomp CLI in process.")
    parser.add_argument("--count", type=int, default=TIER1_COUNT)
    parser.add_argument("--seed", type=int, default=SEED)
    opts = parser.parse_args()
    found = fuzz(opts.count, opts.seed)
    print("\n".join(found))
    print(f"{opts.count} cases, {len(found)} failures")
    sys.exit(bool(found))
