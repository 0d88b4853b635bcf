"""Workload items: how each kind drives hsdecomp, and how its outputs are checked.

``prepare`` turns a generated JSON item into library objects (set-up work),
``run`` performs the item through the public API or the CLI (timed work) and
``check`` judges the outputs with the oracles in :mod:`oracles` (untimed).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

import oracles as orc

TOL = 1e-9  # the library's default tolerance, used by every call here

# Kinds whose input is invalid by construction; the listed refusal is a success.
EXPECTED_REFUSAL = {"forms-kernel": "HypothesisViolatedError"}


class CheckFailed(Exception):
    """An output the library returned is wrong according to an oracle."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- set-up


def prepare(ser, raw):
    """Library objects for one item, built through ``serialize`` and the constructors."""
    kind = raw["kind"]
    if kind == "chain-counterexample":
        return raw["t"]
    if kind.startswith("forms"):
        d = raw["dim"]

        def family(f):
            return (
                [ser.rows_to_matrix(r, d) for r in f["a"]],
                [ser.rows_to_matrix(r, d) for r in f["b"]],
            )

        return (family(raw["fam1"]), family(raw["fam2"]),
                ser.rows_to_matrix(raw["eta"], d), ser.rows_to_matrix(raw["tau"], d))
    return ser.obj_to_operator(raw["op"])


# ------------------------------------------------------------------- run


def run(hs, ser, raw, obj, workdir) -> dict:
    """Perform one item; library errors propagate to the caller."""
    kind = raw["kind"]
    out: dict = {}
    if kind == "pipeline":
        reduced = hs.reduce_terms(obj, TOL)
        out.update(reduced=reduced,
                   report=hs.classify_superop(reduced, TOL),
                   selfadjoint=hs.selfadjoint_decompose(reduced, TOL))
        signed, trace = hs.pd_decompose(reduced, TOL)
        cert = hs.find_zeta_certificate(signed, TOL)
        out.update(signed=signed, trace=trace, searched=True, cert=cert)
        if cert is not None:
            out["nonneg"] = hs.zeta_transform(signed, cert, TOL)
        payload = {"op": ser.operator_to_obj(signed), "trace": ser.trace_to_obj(trace)}
        out.update(payload=payload, digest=ser.canonical_digest(payload))
    elif kind in ("forms", "forms-kernel"):
        (a1, b1), (a2, b2), eta, tau = obj
        phi1 = hs.build_inner_product(a1, b1, TOL)
        phi2 = hs.build_inner_product(a2, b2, TOL)
        out.update(
            class1=hs.classify_form(phi1, TOL),
            class2=hs.classify_form(phi2, TOL),
            equiv=hs.equivalence_constants(phi1, phi2, TOL),
            value1=hs.eval_form(phi1, eta, tau),
            value2=hs.eval_form(phi2, eta, tau),
        )
    elif kind.startswith("chain-"):
        out["stages"] = run_chain(raw, workdir)
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return out


def chain_stages(raw) -> list[list[str]]:
    first = (["counterexample", "--t", repr(raw["t"])] if raw["kind"] == "chain-counterexample"
             else ["reduce", "--in", raw["file"]])
    return [first, ["pd-decompose"], ["zeta-check"]]


def run_chain(raw, workdir) -> list[dict]:
    """Run the chain one process at a time, feeding each captured stdout to the next stage."""
    data = b""
    stages = []
    for args in chain_stages(raw):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hsdecomp", *args], input=data,
                              capture_output=True, cwd=workdir, timeout=120)
        stages.append({"args": args, "code": proc.returncode, "stdout": proc.stdout,
                       "wall_s": time.perf_counter() - t0})
        if proc.returncode != 0:
            break
        data = proc.stdout
    return stages


# ----------------------------------------------------------------- check


def _rewrite(ref, s, errs: list, label: str) -> None:
    """Record the rewrite's backward error; ``check`` judges them all at the end."""
    errs.append((orc.rel_err(orc.liouville_of(s), ref), label))


def _check_negative_leading(signed) -> None:
    terms = signed.terms
    _require(len(terms) >= 2 and terms[0].sign == -1, "pd_decompose: no negative leading term")
    _require(all(t.sign == 1 for t in terms[1:]), "pd_decompose: more than one negative term")
    _require(orc.is_pd(terms[0].a) and orc.is_pd(terms[1].a), "pd_decompose: a1/a2 not PD")
    _require(all(orc.is_psd(t.a) for t in terms[2:]), "pd_decompose: left factor not PSD")
    _require(all(orc.is_pd(t.b) for t in terms), "pd_decompose: right factor not PD")


def _check_certificate(out, ref, errs) -> None:
    cert, signed = out["cert"], out["signed"]
    if cert is None:
        return
    lead, rest = signed.terms[0], signed.terms[1:]
    _require(len(cert.zetas) == len(rest), "certificate: wrong length")
    _require(all(orc.is_pd(t.b - z * lead.b) for z, t in zip(cert.zetas, rest)),
             "certificate: some b_n - zeta_n b_1 is not PD")
    combined = -lead.a + sum(z * t.a for z, t in zip(cert.zetas, rest))
    _require(orc.is_psd(combined), "certificate: -a_1 + sum zeta_n a_n is not PSD")
    nonneg = out["nonneg"]
    _rewrite(ref, nonneg, errs, "zeta_transform")
    _require(all(orc.is_psd(t.a) and orc.is_pd(t.b) for t in nonneg.terms),
             "zeta_transform: factor classes do not hold")


def _check_decomposition(out, ref, errs) -> None:
    _rewrite(ref, out["signed"], errs, "pd_decompose")
    _check_negative_leading(out["signed"])
    _check_certificate(out, ref, errs)


def _check_pipeline(raw, out, errs) -> None:
    ref = orc.liouville_by_action(raw["op"]["dim"], orc.parse_terms(raw["op"]))
    _rewrite(ref, out["reduced"], errs, "reduce_terms")
    lam = orc.min_eig(ref)
    rep = out["report"]
    _require(lam > 0 and rep.kind.value == "PositiveDefinite", "classify_superop: wrong class")
    _require(abs(rep.lambda_min - lam) <= 1e-8 * np.linalg.norm(ref), "classify_superop: wrong lambda_min")
    _rewrite(ref, out["selfadjoint"], errs, "selfadjoint_decompose")
    _require(all(orc.is_hermitian(t.a) and orc.is_hermitian(t.b) for t in out["selfadjoint"].terms),
             "selfadjoint_decompose: factor not Hermitian")
    _check_decomposition(out, ref, errs)
    payload = out["payload"]
    emitted = orc.parse_terms(payload["op"])
    _require(len(emitted) == len(out["signed"].terms) and all(
        s == t.sign and np.array_equal(a, t.a) and np.array_equal(b, t.b)
        for (s, a, b), t in zip(emitted, out["signed"].terms)), "operator_to_obj: does not round-trip")
    _require(out["digest"] == orc.digest(payload), "canonical_digest: wrong digest")


def _check_forms(raw, out) -> None:
    d = raw["dim"]

    def liouville(f):
        return orc.liouville_by_action(
            d, [(1, orc.parse_rows(a), orc.parse_rows(b)) for a, b in zip(f["a"], f["b"])])

    m1, m2 = liouville(raw["fam1"]), liouville(raw["fam2"])
    for fc, m in ((out["class1"], m1), (out["class2"], m2)):
        lam = orc.min_eig(m)
        _require(lam > 0 and fc.kind.value == "DefiniteInnerProduct", "classify_form: wrong class")
        _require(abs(fc.lambda_min - lam) <= 1e-8 * np.linalg.norm(m), "classify_form: wrong lambda_min")
    lo, hi = orc.pencil_extremes(m2, m1)
    res = out["equiv"]
    _require(abs(res.c_lo - np.sqrt(lo)) <= 1e-6 * np.sqrt(lo), "equivalence_constants: c_lo")
    _require(abs(res.c_hi - np.sqrt(hi)) <= 1e-6 * np.sqrt(hi), "equivalence_constants: c_hi")
    for w, c in ((res.witness_lo, res.c_lo), (res.witness_hi, res.c_hi)):
        ratio = orc.sesquilinear(m2, w, w).real / orc.sesquilinear(m1, w, w).real
        _require(abs(np.sqrt(ratio) - c) <= 1e-6 * c, "equivalence_constants: witness does not attain")
    eta, tau = orc.parse_rows(raw["eta"]), orc.parse_rows(raw["tau"])
    for value, m in ((out["value1"], m1), (out["value2"], m2)):
        ref = orc.sesquilinear(m, eta, tau)
        scale = np.linalg.norm(m) * np.linalg.norm(eta) * np.linalg.norm(tau)
        _require(abs(value - ref) <= 1e-12 * scale, "eval_form: wrong value")


def check(raw, out) -> float:
    """Raise CheckFailed if a returned output is wrong; return the largest
    relative backward error of the item's rewrites (0.0 if it has none).
    Structural claims are checked first, the backward errors last, so a
    failed backward error means every other claim held."""
    kind = raw["kind"]
    errs: list[tuple[float, str]] = []
    if kind == "pipeline":
        _check_pipeline(raw, out, errs)
    elif kind == "forms":
        _check_forms(raw, out)
    elif kind in EXPECTED_REFUSAL:
        raise CheckFailed(f"{kind}: invalid input was accepted")
    else:
        raise ValueError(f"no check for item kind {kind!r}")
    worst, label = max(errs, default=(0.0, ""))
    _require(worst <= orc.BACKWARD_ERR_BOUND, f"{label}: backward error over the bound")
    return worst


def refusal_is_valid(raw) -> bool:
    """The oracle's own confirmation that an expected-refusal input is invalid:
    the second family's left factors share a kernel."""
    return not orc.stacked_rank_full([orc.parse_rows(a) for a in raw["fam2"]["a"]])


# ------------------------------------------------- expected CLI reports


def _report(command, digest, tolerances, *, terms_out=None, trace=None, result=None):
    """The CLI's report layout (key order matters for byte equality)."""
    return {"command": command, "inputs_digest": digest, "class": None, "lambda_min": None,
            "kernel_dim": None, "terms_out": terms_out, "trace": trace, "result": result,
            "tolerances": tolerances, "elapsed_ms": None}


def expected_reports(hs, ser, raw, obj) -> list[dict]:
    """The chain's three reports computed in-process through the library."""
    if raw["kind"] == "chain-counterexample":
        t = float(raw["t"])
        first = _report("counterexample", ser.canonical_digest({"t": t}), {"tol": TOL, "t": t},
                        terms_out=ser.operator_to_obj(hs.counterexample_superop(t)))
    else:
        reduced = hs.reduce_terms(obj, TOL)
        first = _report("reduce", ser.canonical_digest(ser.operator_to_obj(obj)), {"tol": TOL},
                        terms_out=ser.operator_to_obj(reduced), result={"term_count": len(reduced)})
    op = ser.obj_to_operator(first["terms_out"])
    signed, trace = hs.pd_decompose(op, TOL)
    second = _report("pd-decompose", ser.canonical_digest(ser.operator_to_obj(op)),
                     {"tol": TOL, "mirror": False},
                     terms_out=ser.operator_to_obj(signed), trace=ser.trace_to_obj(trace))
    signed = ser.obj_to_operator(second["terms_out"])
    cert = hs.find_zeta_certificate(signed, TOL)
    if cert is None:
        result = {"ok": False, "zetas": None, "b_margins": None, "a_margin": None, "searched": True}
        zeta = None
    else:
        res = hs.zeta_check(signed, cert, TOL)
        zeta = list(cert.zetas)
        result = {"ok": res.ok, "zetas": zeta, "b_margins": ser.jsonify(list(res.b_margins)),
                  "a_margin": ser.jsonify(res.a_margin), "searched": True}
    third = _report("zeta-check", ser.canonical_digest(ser.operator_to_obj(signed)),
                    {"tol": TOL, "mirror": False, "zeta": zeta}, result=result)
    return [first, second, third]


def check_chain(raw, stages, expected) -> float:
    """Each stage's stdout must equal the expected report byte for byte, apart
    from ``elapsed_ms``; the counterexample chain must end in an empty search.
    Returns the summed ``elapsed_ms`` of the stages."""
    handler_ms = 0.0
    for stage, exp in zip(stages, expected):
        try:
            elapsed = json.loads(stage["stdout"])["elapsed_ms"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"cli {stage['args'][0]}: not a report: {exc}") from exc
        want = (json.dumps(dict(exp, elapsed_ms=elapsed), indent=2, allow_nan=False) + "\n").encode("utf-8")
        _require(stage["stdout"] == want, f"cli {stage['args'][0]}: report bytes differ")
        handler_ms += elapsed
    if raw["kind"] == "chain-counterexample":
        result = json.loads(stages[-1]["stdout"])["result"]
        _require(result["ok"] is False and result["searched"] is True,
                 "cli zeta-check: counterexample search did not come back empty")
    return handler_ms
