"""hsdecomp benchmark: one command prints every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from its ``src``).
``--trace 0`` runs the workload untraced as a closed loop for S seconds, in
whole passes over its pool, times ``setup_s`` in fresh interpreters before
and after it, and prints the end-to-end metrics, scaled by a calibration
kernel timed during the loop (``calib.py``). ``--trace 1`` runs a fixed number of items three times (untraced,
traced, untraced) and prints the per-layer metrics. Every output is checked
against the oracles in ``oracles.py``. The last line of stdout is the result
object; the lines before it are a readable table and the run record.

Workloads, metrics and their layers are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = "1"
SETUP_PROBES = 5  # fresh interpreters timed for setup_s; the median is reported
TRACE_PROBES = 3  # fresh interpreters timed for cli.import_ms in a traced run
# Items per pass of a --trace 1 run: fixed, so that the exact counters repeat.
TRACE_ITEMS = {"pipeline-d8": 16, "forms-equiv": 240, "cli-chain": 2}
RUN_BUDGET_S = 170  # the whole run, all workers included, ends within this

os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
os.environ["MKL_NUM_THREADS"] = BLAS_THREADS

sys.path.insert(0, str(HERE))
import gen  # noqa: E402  (after the BLAS pin, since it imports numpy)
from tracing import SPANS  # noqa: E402


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: list[str], cwd: Path, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON.

    The worker gets its own process group, so that on a timeout the CLI
    processes it started are killed with it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=cwd,
                            env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {args[0]} did not finish within the run budget")
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _percentile(values: list[float], pct: int) -> float:
    """Percentile with linear interpolation between closest ranks; a rank
    holding inf (a failed item) gives inf."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf") or lo == hi:
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _machine(seed: int, workload: str) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "client": "closed loop, 1 client, 1 worker process",
    }


def _git_commit() -> str | None:
    """HEAD of the checkout; None where the checkout is no git repository or git is absent."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _write_pool(workload: str, seed: int, workdir: Path) -> Path:
    pool = gen.make_pool(workload, seed)
    for raw in pool:
        if raw["kind"] == "chain-reduce":
            (workdir / raw["file"]).write_text(json.dumps(raw["op"]))
    path = workdir / "pool.json"
    path.write_text(json.dumps(pool))
    return path


def _outcome(runs: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed). An item fails when it raises an unexpected
    error, exits with a wrong code or fails an oracle check ("fail"/"wrong");
    the run is correct when no returned output was wrong."""
    verdicts = [v for r in runs for v in r["verdicts"]]
    return ("wrong" not in verdicts, len(verdicts), sum(v in ("fail", "wrong") for v in verdicts))


def _tally(verdicts: list[str]) -> dict:
    return {v: verdicts.count(v) for v in sorted(set(verdicts))}


def _per_item(r: dict) -> dict:
    """Each pool item's wall and CPU time (ms) scaled by the calibration (see
    calib.py), as medians over its repeats, and whether every repeat passed.

    A minimum over the repeats would pick the repeats whose kernel time
    happened to read high, so it would follow the kernel's noise."""
    reps: dict = {}
    for k, wall, cpu, scale, v in zip(r["index"], r["latency_ms"], r["cpu_ms"], r["scale"],
                                      r["verdicts"]):
        reps.setdefault(k, []).append((wall * scale, cpu * scale, v == "pass"))
    return {k: (statistics.median(w for w, _, _ in x), statistics.median(c for _, c, _ in x),
                all(ok for _, _, ok in x)) for k, x in reps.items()}


def end_to_end(pool: Path, workdir: Path, seconds: int,
               deadline: float) -> tuple[dict, dict, list[dict]]:
    # set-up is timed before and after the loop, so that one slow episode of
    # the machine cannot hold every probe
    half = SETUP_PROBES // 2
    probes = [_worker(["probe", str(pool)], workdir, deadline) for _ in range(half)]
    r = _worker(["run", str(pool), str(workdir), "--seconds", str(seconds)], workdir, deadline)
    probes += [_worker(["probe", str(pool)], workdir, deadline) for _ in range(SETUP_PROBES - half)]
    n = r["items"]
    per_item = _per_item(r)
    # a failed item misses any latency limit, so it ranks above every success
    lat = [w if ok else math.inf for w, _, ok in per_item.values()]
    metrics = {
        "setup_s": (statistics.median(p["import_s"] + p["parse_s"] for p in probes) * r["run_scale"], "s"),
        "ops_per_s": (1000.0 * sum(ok for _, _, ok in per_item.values())
                      / sum(w for w, _, _ in per_item.values()), "1/s"),
        "latency_p50_ms": (_percentile(lat, 50), "ms"),
        "latency_p90_ms": (_percentile(lat, 90), "ms"),
        "cpu_ms_per_op": (statistics.fmean(c for _, c, _ in per_item.values()), "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    record = {
        "samples": {"setup_s": len(probes), "latency": len(lat), "repeats": n // len(set(r["index"])),
                    "beyond_p90": sum(x > metrics["latency_p90_ms"][0] for x in lat)},
        "items": n,
        "verdicts": _tally(r["verdicts"]),
        "fail_ratio": _outcome([r])[2] / n,
        "failures": r["failures"],
        "item_wall_s": r["item_wall_s"],
        # unscaled counterparts of the metrics, and the whole run's scale
        "raw": {"setup_s": statistics.median(p["import_s"] + p["parse_s"] for p in probes),
                "ops_per_s": n / r["item_wall_s"],
                "latency_p50_ms": statistics.median(r["latency_ms"]),
                "cpu_ms_per_op": statistics.fmean(r["cpu_ms"])},
        "run_scale": r["run_scale"],
        "backward_err_max": r["backward_err_max"],
        "cert_hits": [r["stats"]["hits"], r["stats"]["searches"]],
    }
    return metrics, record, [r]


def _layer_metrics(t: dict, stats: dict, import_ms: float, untraced_wall: float,
                   traced_wall: float, backward_err_max: float) -> dict:
    n = t["items"]
    spans, setup_spans, missing = t["spans"], t["setup_spans"], set(t["missing"])

    def span(name, field):  # field 0: inclusive s, 1: self s, 2: count
        if name in missing:
            return None
        acc = spans.get(name)
        value = acc[field] if acc else 0
        return value / n if field == 2 else 1000.0 * value / n

    def total(names, field):
        parts = [span(x, field) for x in names]
        return None if None in parts else sum(parts)

    def calls(name):
        return None if name in missing else t["calls"].get(name, 0) / n

    layer_self = {layer: sum(v[1] for k, v in spans.items() if k.startswith(layer + "."))
                  for layer in SPANS}
    parse = setup_spans.get("serialize.obj_to_operator")
    m = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.process_ms": (1000.0 * stats["process_s"] / n, "ms"),
        "cli.handler_ms": (stats["handler_ms"] / n, "ms"),
        "cli.overhead_ms": ((1000.0 * stats["process_s"] - stats["handler_ms"]) / n, "ms"),
        "serialize.parse.ms": (None if "serialize.obj_to_operator" in missing else
                               1000.0 * parse[0] / t["inputs"] if parse else 0.0, "ms"),
        "serialize.emit.ms": (total(("serialize.operator_to_obj", "serialize.trace_to_obj",
                                     "serialize.canonical_digest"), 0), "ms"),
        "serialize.bytes_per_op": (stats["emit_bytes"] / n, "B"),
        "superop.to_liouville.ms": (span("superop.to_liouville", 0), "ms"),
        "superop.reduce_terms.ms": (span("superop.reduce_terms", 0), "ms"),
        "superop.selfadjoint_decompose.ms": (span("superop.selfadjoint_decompose", 0), "ms"),
        "core.classify_hermitian.calls": (span("core.classify_hermitian", 2), "count"),
        "core.classify_hermitian.ms": (span("core.classify_hermitian", 0), "ms"),
        "core.fix_phase.calls": (calls("core.fix_phase"), "count"),
        "pencil.pencil_eigh.calls": (span("pencil.pencil_eigh", 2), "count"),
        "pencil.pencil_eigh.ms": (span("pencil.pencil_eigh", 0), "ms"),
        "pencil.pencil_extremes.calls": (span("pencil.pencil_extremes", 2), "count"),
    }
    for fn in ("pd_decompose", "find_zeta_certificate", "zeta_check"):
        m[f"posdecomp.{fn}.self_ms"] = (span(f"posdecomp.{fn}", 1), "ms")
        m[f"posdecomp.{fn}.calls"] = (span(f"posdecomp.{fn}", 2), "count")
    for fn in ("build_inner_product", "classify_form", "equivalence_constants"):
        m[f"forms.{fn}.ms"] = (span(f"forms.{fn}", 0), "ms")
    for layer in SPANS:
        m[f"{layer}.self_ms"] = (1000.0 * layer_self[layer] / n, "ms")
    for kind in ("eigensolves", "svds"):
        m[f"linalg.{kind}_per_op"] = (t["linalg"].get(kind, 0) / n, "count")
    m["check.backward_err_max"] = (backward_err_max, "rel")
    m["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m


def per_layer(workload: str, pool: Path, workdir: Path,
              deadline: float) -> tuple[dict, dict, list[dict]]:
    n = str(TRACE_ITEMS[workload])
    probes = [_worker(["probe", str(pool)], workdir, deadline) for _ in range(TRACE_PROBES)]
    run = ["run", str(pool), str(workdir), "--items", n]
    # untraced, traced, untraced: the overhead ratio compares the traced pass
    # with the mean of the passes around it, which cancels a linear drift
    before = _worker(run, workdir, deadline)
    traced = _worker(run + ["--traced", "1"], workdir, deadline)
    after = _worker(run, workdir, deadline)
    passes = [before, traced, after]
    t = traced["trace"]
    metrics = _layer_metrics(
        t, traced["stats"], 1000.0 * statistics.median(p["import_s"] for p in probes),
        (before["item_wall_s"] + after["item_wall_s"]) / 2, traced["item_wall_s"],
        max(p["backward_err_max"] for p in passes))
    record = {
        "samples": {"items_per_pass": int(n), "passes": len(passes), "import_probes": len(probes)},
        "missing_spans": t["missing"],
        # exact counts of the traced pass, those without a per-layer metric included
        "linalg_counts": t["linalg"],
        "call_counts": dict(t["calls"], **{k: v[2] for k, v in t["spans"].items() if k != "bench.item"}),
        "cert_hits": [traced["stats"]["hits"], traced["stats"]["searches"]],
        "shrinks": traced["stats"]["shrinks"],
        "verdicts": _tally(traced["verdicts"]),
        "failures": traced["failures"],
    }
    return metrics, record, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "hsdecomp" / "__init__.py").is_file():
        print(f"error: no hsdecomp package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = _write_pool(args.workload, args.seed, workdir)
        if args.trace:
            metrics, record, runs = per_layer(args.workload, pool, workdir, deadline)
        else:
            metrics, record, runs = end_to_end(pool, workdir, args.seconds, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = _outcome(runs)
    # a non-finite value (a percentile that lands on failed items) has no JSON number
    metrics = {k: (v if v is None or math.isfinite(v) else None, u) for k, (v, u) in metrics.items()}
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:40s} {shown:>14s} {unit}")
    print("record " + json.dumps(dict(_machine(args.seed, args.workload), **record)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
