"""Self-tests of the benchmark's checks.

    python3 -m pytest -q perfbench/selftest.py

They show that the oracles catch what they are meant to catch: a corrupted
decomposition, a bogus certificate, a CLI report with wrong bytes, an
invalid input that the library accepts. They also show that an expected refusal counts as a
success, that the exact counters repeat between two traced runs, and that
run.py refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import hsdecomp as hs  # noqa: E402
import items  # noqa: E402
from hsdecomp import cli  # noqa: E402
from hsdecomp import serialize as ser  # noqa: E402


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _first(workload, kind, seed=7):
    return next(raw for raw in gen.make_pool(workload, seed) if raw["kind"] == kind)


def _worker(workdir, pool, *extra):
    pool_path = workdir / "pool.json"
    pool_path.write_text(json.dumps(pool))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(pool_path),
                           str(workdir), *extra], capture_output=True, text=True, env=env,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _with_signed(out, terms):
    """The item's outputs with the decomposition replaced, its emitted payload
    and digest rebuilt to match, so that only the decomposition is wrong."""
    signed = hs.SignedLRSum(out["signed"].dim, tuple(terms))
    payload = dict(out["payload"], op=ser.operator_to_obj(signed))
    return dict(out, signed=signed, payload=payload, digest=ser.canonical_digest(payload))


def test_valid_decomposition_passes_and_corrupted_one_fails():
    raw = _first("pipeline-d8", "pipeline")
    out = items.run(hs, ser, raw, items.prepare(ser, raw), ".")
    items.check(raw, out)
    terms = list(out["signed"].terms)

    # a perturbed factor changes the operator
    t = terms[2]
    bad = terms[:2] + [hs.SignedTerm(t.sign, t.a, t.b + 1e-3 * hs.matrix_unit(t.b.shape[0], 1, 1))] + terms[3:]
    with pytest.raises(items.CheckFailed, match="backward error"):
        items.check(raw, _with_signed(out, bad))

    # negating both factors of a term keeps the operator but breaks a PD claim
    t = terms[1]
    bad = terms[:1] + [hs.SignedTerm(t.sign, -t.a, -t.b)] + terms[2:]
    with pytest.raises(items.CheckFailed, match="not PD"):
        items.check(raw, _with_signed(out, bad))


def test_bogus_certificate_is_caught():
    raw = _first("pipeline-d8", "pipeline")
    out = items.run(hs, ser, raw, items.prepare(ser, raw), ".")
    assert out["cert"] is None
    cert = hs.ZetaCertificate(tuple(1e6 for _ in out["signed"].terms[1:]))
    with pytest.raises(items.CheckFailed, match="certificate"):
        items.check(raw, dict(out, cert=cert, nonneg=out["signed"]))


def _cli(args, stdin: bytes) -> bytes:
    buf = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin.decode("utf-8"))
    try:
        with contextlib.redirect_stdout(buf):
            assert cli.main(args) == 0
    finally:
        sys.stdin = old
    return buf.getvalue().encode("utf-8")


def test_cli_report_with_wrong_bytes_is_caught():
    raw = {"kind": "chain-counterexample", "t": 0.125}
    stages, data = [], b""
    for args in items.chain_stages(raw):
        data = _cli(args, data)
        stages.append({"args": args, "code": 0, "stdout": data})
    expected = items.expected_reports(hs, ser, raw, raw["t"])
    items.check_chain(raw, stages, expected)

    bad = dict(stages[1])
    i = bad["stdout"].index(b'"inputs_digest": "') + len(b'"inputs_digest": "')
    flipped = b"0" if bad["stdout"][i:i + 1] != b"0" else b"1"
    bad["stdout"] = bad["stdout"][:i] + flipped + bad["stdout"][i + 1:]
    with pytest.raises(items.CheckFailed):
        items.check_chain(raw, [stages[0], bad, stages[2]], expected)


def test_expected_refusal_counts_as_success(workdir):
    r = _worker(workdir, [_first("forms-equiv", "forms-kernel")], "--items", "1")
    assert r["verdicts"] == ["pass"]


def test_accepted_invalid_input_is_wrong(workdir):
    valid = _first("forms-equiv", "forms")
    r = _worker(workdir, [dict(valid, kind="forms-kernel")], "--items", "1")
    assert r["verdicts"] == ["wrong"]


def test_traced_counts_repeat_exactly(workdir):
    pool = gen.make_pool("forms-equiv", 3)[:30]
    runs = [_worker(workdir, pool, "--items", "30", "--traced", "1")["trace"] for _ in range(2)]
    for key in ("calls", "linalg", "missing"):
        assert runs[0][key] == runs[1][key]
    assert {k: v[2] for k, v in runs[0]["spans"].items()} == {k: v[2] for k, v in runs[1]["spans"].items()}
    assert runs[0]["linalg"]["eigensolves"] > 0


def test_run_refuses_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "forms-equiv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
