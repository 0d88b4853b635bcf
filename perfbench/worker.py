"""One fresh interpreter that imports hsdecomp and runs a workload's items.

    python3 perfbench/worker.py probe POOL
    python3 perfbench/worker.py run POOL WORKDIR (--seconds S | --items N) [--traced 1]

``probe`` times ``import hsdecomp`` and the parse of the pool into library
objects, and exits. ``run`` runs the items as a closed loop with one client
(the next item starts when the previous one has finished), in whole passes
over the pool, checks every output, and prints one JSON object as its last
line, with each item's pool index, wall and CPU time and verdict. With ``--traced 1`` the
counters are installed before the import and spans after it; run.py reads
the end-to-end numbers only from untraced runs.

run.py starts this with OPENBLAS_NUM_THREADS=1 and PYTHONPATH pointing at
the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_hsdecomp():
    import hsdecomp

    if Path(hsdecomp.__file__).resolve().parent != SRC / "hsdecomp":
        raise SystemExit(f"hsdecomp imported from {hsdecomp.__file__}, not from {SRC}")
    return hsdecomp


def probe(pool_path: str) -> dict:
    t0 = time.perf_counter()
    _import_hsdecomp()
    t1 = time.perf_counter()
    from hsdecomp import serialize

    import items

    pool = json.loads(Path(pool_path).read_text())
    for raw in pool:
        items.prepare(serialize, raw)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1}


def _fingerprint(out) -> bytes:
    """Identical outputs for the same input get the same verdict."""
    import hashlib
    import pickle

    return hashlib.sha256(pickle.dumps(out, protocol=5)).digest()


def run(pool_path: str, workdir: str, seconds: float | None, n_items: int | None,
        traced: bool) -> dict:
    import resource

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_counters()
    hs = _import_hsdecomp()
    from hsdecomp import serialize as ser

    import items
    from calib import Calibration
    from oracles import canonical_bytes

    if tracer is not None:
        tracer.install_spans(hs)
    pool = json.loads(Path(pool_path).read_text())
    if tracer is not None:
        tracer.item = "setup"
    objs = [items.prepare(ser, raw) for raw in pool]
    if tracer is not None:
        tracer.item = None

    chain = pool[0]["kind"].startswith("chain-")
    if not chain:  # first-call costs (lazy imports, LAPACK set-up) stay out of the timing
        for kind in sorted({raw["kind"] for raw in pool}):
            k = next(i for i, raw in enumerate(pool) if raw["kind"] == kind)
            try:
                items.run(hs, ser, pool[k], objs[k], workdir)
            except hs.HsDecompError:
                pass

    # Outputs are kept once per distinct (input, output fingerprint), so the
    # worker's memory stops growing after the first pass over the pool.
    kept: dict = {}
    records = []  # (pool index, start, end, cpu s, output key or chain stages, exception)
    cal = Calibration()
    cal.measure(3)
    start = time.perf_counter()
    i = 0
    # a timed run ends on a whole pass over the pool, so every item repeats
    # equally often and run.py can take each item's median over its repeats
    while (i < n_items) if n_items is not None else (
            i % len(pool) or time.perf_counter() - start < seconds):
        k = i % len(pool)
        if tracer is not None:
            tracer.item = i
            span = tracer.open("bench.item")
        r0s, r0c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        a = time.perf_counter()
        try:
            out, raised = items.run(hs, ser, pool[k], objs[k], workdir), None
        except Exception as exc:  # the loop records every item's failure and goes on
            out, raised = None, exc
        b = time.perf_counter()
        r1s, r1c = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            tracer.close(span)
            tracer.item = None
        cpu = (r1s.ru_utime + r1s.ru_stime - r0s.ru_utime - r0s.ru_stime
               + r1c.ru_utime + r1c.ru_stime - r0c.ru_utime - r0c.ru_stime)
        if out is not None and not chain:
            key = (k, _fingerprint(out))
            kept.setdefault(key, out)
            out = key
        records.append((k, a, b, cpu, out, raised))
        i += 1
        cal.tick()
    cal.measure(3)
    ru = resource.getrusage(resource.RUSAGE_CHILDREN if chain else resource.RUSAGE_SELF)

    # ---- checks (untimed)
    verdicts, failures = [], {}
    cache: dict = {}
    refusal_ok: dict = {}
    expected: dict = {}
    backward_err_max = 0.0
    stats = {"searches": 0, "hits": 0, "shrinks": 0, "emit_bytes": 0,
             "process_s": 0.0, "handler_ms": 0.0}
    for k, _, _, _, out, raised in records:
        raw = pool[k]
        kind = raw["kind"]
        verdict, reason = "pass", None
        if raised is not None:
            name = type(raised).__name__
            if items.EXPECTED_REFUSAL.get(kind) == name:
                if k not in refusal_ok:
                    refusal_ok[k] = items.refusal_is_valid(raw)
                if not refusal_ok[k]:
                    verdict, reason = "wrong", f"{kind}: refused a valid input"
            elif isinstance(raised, hs.HsDecompError):
                verdict, reason = "fail", f"{kind}: {name}"
            else:
                verdict, reason = "wrong", f"{kind}: crashed with {name}: {raised}"
                print(f"item {k} ({kind}) crashed: {name}: {raised}", file=sys.stderr)
        elif chain:
            stages = out["stages"]
            stats["process_s"] += sum(s["wall_s"] for s in stages)
            if any(s["code"] != 0 for s in stages):
                verdict, reason = "fail", f"{kind}: exit code {stages[-1]['code']}"
            else:
                if k not in expected:
                    expected[k] = items.expected_reports(hs, ser, raw, objs[k])
                try:
                    stats["handler_ms"] += items.check_chain(raw, stages, expected[k])
                except items.CheckFailed as exc:
                    verdict, reason = "wrong", str(exc)
        else:
            result = kept[out]
            if out not in cache:
                emit = len(canonical_bytes(result["payload"])) if "payload" in result else 0
                try:
                    cache[out] = ("pass", None, items.check(raw, result), emit)
                except items.CheckFailed as exc:
                    cache[out] = ("wrong", f"{kind}: {exc}", 0.0, emit)
            verdict, reason, err, emit = cache[out]
            backward_err_max = max(backward_err_max, err)
            stats["emit_bytes"] += emit
            if result.get("searched"):
                stats["searches"] += 1
                stats["hits"] += result["cert"] is not None
            trace = result.get("trace")
            if trace is not None:
                stats["shrinks"] += sum(int(s.data.get("shrinks", 0)) for s in trace.steps)
        verdicts.append(verdict)
        if reason is not None:
            failures[reason] = failures.get(reason, 0) + 1

    # The set-up probes of run.py are scaled by the kernel over the whole run:
    # a process's start and import vary from process to process more than
    # with the kernel's time next to it. The CLI chains are not scaled at all:
    # from run to run their times followed the kernel in some sets of runs and
    # not in others, and unscaled they spread less.
    whole_run = cal.scale(start, time.perf_counter())
    result = {
        "items": len(records),
        "item_wall_s": sum(r[2] - r[1] for r in records),
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "index": [r[0] for r in records],
        "latency_ms": [(r[2] - r[1]) * 1000.0 for r in records],
        "cpu_ms": [r[3] * 1000.0 for r in records],
        "scale": [1.0 if chain else cal.scale(r[1], r[2]) for r in records],
        "run_scale": whole_run,
        "verdicts": verdicts,
        "failures": failures,
        "backward_err_max": backward_err_max,
        "stats": stats,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(len(records), len(pool))
    return result


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    if argv[0] == "probe":
        result = probe(argv[1])
    else:
        opts = dict(zip(argv[3::2], argv[4::2]))
        result = run(argv[1], argv[2],
                     float(opts["--seconds"]) if "--seconds" in opts else None,
                     int(opts["--items"]) if "--items" in opts else None,
                     opts.get("--traced") == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
