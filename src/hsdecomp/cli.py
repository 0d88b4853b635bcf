"""Command-line surface.

Every public operation is reachable from exactly one subcommand. Input is
JSON on --in or stdin; output is a report object on --out or stdout.
Commands that consume an operator accept either a bare operator object or
a previous report whose ``terms_out`` carries one, so subcommands
compose with pipes::

    hsdecomp counterexample --t 0.25 | hsdecomp pd-decompose | hsdecomp zeta-check

Each subcommand is one entry of the ``_COMMANDS`` table: its handler and
the options it adds. A handler states only what it computes; ``_report``,
the one report builder, adds the command name, the layout and the
``tolerances``, and transposes a ``--mirror`` result back. ``main`` times
and renders every report and turns each failure into an error report.

Exit codes: 0 success; 1 input validation failure (schema, dimensions,
constructor hypotheses) with a machine-readable error object; 2 numerical
failure (a value-dependent precondition or margin search failed, or a
result beyond the float range). stderr carries human-readable diagnostics
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

from . import forms, posdecomp, superop
from .core import DEFAULT_TOL
from .exceptions import InputError, NumericalError
from .posdecomp import ZetaCertificate
from .serialize import (
    canonical_digest,
    jsonify,
    matrix_to_rows,
    obj_to_operator,
    operator_to_obj,
    rows_to_matrix,
    trace_to_obj,
)
from .superop import LRSum

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hsdecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", metavar="FILE", default=None)
        p.add_argument("--out", dest="outfile", metavar="FILE", default=None)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("json", "text"), default="json")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
        if cmd.mirror:
            p.add_argument("--mirror", action="store_true")
        else:
            p.set_defaults(mirror=False)
    return parser


def _read_input(args) -> object:
    if args.infile:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.infile}: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON input: {exc}") from exc


def _parse_operator(obj) -> LRSum:
    """An operator object, or a report whose ``terms_out`` carries one."""
    if isinstance(obj, dict) and "terms" in obj and "dim" in obj:
        return obj_to_operator(obj)
    if isinstance(obj, dict) and isinstance(obj.get("terms_out"), dict):
        return obj_to_operator(obj["terms_out"])
    raise InputError("input does not contain an operator (need dim/terms or terms_out)")


def _load_operator(args, fold: bool = True) -> tuple[LRSum, str]:
    """The input operator and the digest of it as given.

    With ``fold`` the signs are folded into the left factors; with
    ``--mirror`` the operator is then transposed (``_report`` transposes
    ``terms_out`` back).
    """
    op = _parse_operator(_read_input(args))
    digest = canonical_digest(operator_to_obj(op))
    if fold:
        op = op.as_lrsum()
    if args.mirror:
        op = superop.transpose_dual(op)
    return op, digest


def _read_fields(args, *keys: str) -> list:
    """The values of ``keys`` in the input, which must be an object holding them all."""
    obj = _read_input(args)
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        quoted = [f"'{k}'" for k in keys]
        listed = ", ".join(quoted[:-1]) + " and " + quoted[-1]
        raise InputError(f"{args.command} input must be an object with {listed}")
    return [obj[k] for k in keys]


def _certificate(args, signed: LRSum) -> ZetaCertificate | None:
    """The ``--zeta`` certificate, else the search's (None when it finds none)."""
    if args.zeta is None:
        return posdecomp.find_zeta_certificate(signed, args.tol)
    try:
        values = tuple(float(p) for p in args.zeta.split(","))
    except ValueError as exc:
        message = f"--zeta must be a comma-separated list of numbers: {args.zeta!r}"
        raise InputError(message) from exc
    return ZetaCertificate(values)


def _report(args, digest, *, cls=None, lambda_min=None, kernel_dim=None,
            terms_out=None, trace=None, result=None, **tolerances) -> dict:
    """The report of ``args.command``, in the one layout every command shares.

    Its ``tolerances`` are ``tol``, then ``mirror`` for a mirror command, then
    the keywords given. A mirror command's ``terms_out`` is transposed back.
    """
    tols = {"tol": args.tol}
    if _COMMANDS[args.command].mirror:
        tols["mirror"] = args.mirror
    tols.update(tolerances)
    if terms_out is not None and args.mirror:
        terms_out = superop.transpose_dual(terms_out)
    return {
        "command": args.command,
        "inputs_digest": digest,
        "class": cls,
        "lambda_min": jsonify(lambda_min),
        "kernel_dim": kernel_dim,
        "terms_out": None if terms_out is None else operator_to_obj(terms_out),
        "trace": trace,
        "result": result,
        "tolerances": tols,
        "elapsed_ms": None,
    }


def _cmd_classify(args):
    op, digest = _load_operator(args)
    rep = superop.classify_superop(op, args.tol)
    return _report(
        args, digest, cls=rep.kind.value, lambda_min=rep.lambda_min,
        kernel_dim=rep.kernel_dim, result={"witness": jsonify(rep.witness)},
    )


def _cmd_apply(args):
    sum_obj, eta_rows = _read_fields(args, "sum", "eta")
    op = _parse_operator(sum_obj).as_lrsum()
    eta = rows_to_matrix(eta_rows, op.dim, "eta")
    digest = canonical_digest({"sum": operator_to_obj(op), "eta": matrix_to_rows(eta)})
    out = superop.apply_superop(op, eta)
    return _report(args, digest, result={"eta_out": matrix_to_rows(out)})


def _cmd_liouville(args):
    op, digest = _load_operator(args)
    m = superop.to_liouville(op)
    return _report(args, digest, result={"matrix": matrix_to_rows(m)})


def _cmd_decompose_basis(args):
    op, digest = _load_operator(args)
    out = superop.from_liouville(superop.to_liouville(op), args.variant)
    return _report(args, digest, terms_out=out, result={"term_count": len(out)},
                   variant=args.variant)


def _rewrite(fn, args):
    """A command that only rewrites its input operator with ``fn(op, tol)``."""
    op, digest = _load_operator(args)
    out = fn(op, args.tol)
    return _report(args, digest, terms_out=out, result={"term_count": len(out)})


def _cmd_adjoint(args):
    op, digest = _load_operator(args)
    return _report(args, digest, terms_out=superop.adjoint(op))


def _decompose(fn, args):
    """A command that only decomposes its input operator: ``fn(op, tol) -> (out, trace)``."""
    op, digest = _load_operator(args)
    out, trace = fn(op, args.tol)
    return _report(args, digest, terms_out=out, trace=trace_to_obj(trace))


def _one_sum(s: LRSum, tol: float):
    if len(s) != 1:
        raise InputError(f"one-sum takes exactly one term, got {len(s)}")
    a_hat, b_hat, trace = posdecomp.one_sum_positive(s.terms[0].a, s.terms[0].b, tol)
    return LRSum.from_pairs([(a_hat, b_hat)], s.dim), trace


def _two_sum(s: LRSum, tol: float):
    if len(s) != 2:
        raise InputError(f"two-sum takes exactly two terms, got {len(s)}")
    (t1, t2) = s.terms
    return posdecomp.two_sum_pd(t1.a, t1.b, t2.a, t2.b, tol)


def _cmd_zeta_check(args):
    signed, digest = _load_operator(args, fold=False)
    cert = _certificate(args, signed)
    if cert is None:
        result = {"ok": False, "zetas": None, "b_margins": None,
                  "a_margin": None, "searched": True}
        return _report(args, digest, result=result, zeta=None)
    check = posdecomp.zeta_check(signed, cert, args.tol)
    result = {
        "ok": check.ok,
        "zetas": list(cert.zetas),
        "b_margins": jsonify(list(check.b_margins)),
        "a_margin": jsonify(check.a_margin),
        "searched": args.zeta is None,
    }
    return _report(args, digest, result=result, zeta=list(cert.zetas))


def _cmd_zeta_transform(args):
    signed, digest = _load_operator(args, fold=False)
    cert = _certificate(args, signed)
    if cert is None:
        raise NumericalError("no valid zeta certificate found by the search")
    out = posdecomp.zeta_transform(signed, cert, args.tol)
    zetas = list(cert.zetas)
    return _report(args, digest, terms_out=out, result={"zetas": zetas}, zeta=zetas)


def _cmd_counterexample(args):
    out = posdecomp.counterexample_superop(args.t)
    t = float(args.t)
    return _report(args, canonical_digest({"t": t}), terms_out=out, t=t)


def _cmd_build_ip(args):
    dim, a_rows, b_rows = _read_fields(args, "dim", "a", "b")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(a_rows, list) or not isinstance(b_rows, list):
        raise InputError("'a' and 'b' must be arrays of matrices")
    a_list = [rows_to_matrix(rows, dim, f"a[{i}]") for i, rows in enumerate(a_rows)]
    b_list = [rows_to_matrix(rows, dim, f"b[{i}]") for i, rows in enumerate(b_rows)]
    digest = canonical_digest({
        "dim": dim,
        "a": [matrix_to_rows(a) for a in a_list],
        "b": [matrix_to_rows(b) for b in b_list],
    })
    phi = forms.build_inner_product(a_list, b_list, args.tol)
    fc = forms.classify_form(phi, args.tol)
    return _report(args, digest, cls=fc.kind.value, lambda_min=fc.lambda_min, terms_out=phi.op)


def _cmd_form_eval(args):
    sum_obj, eta_rows, tau_rows = _read_fields(args, "sum", "eta", "tau")
    op = _parse_operator(sum_obj).as_lrsum()
    eta = rows_to_matrix(eta_rows, op.dim, "eta")
    tau = rows_to_matrix(tau_rows, op.dim, "tau")
    digest = canonical_digest({
        "sum": operator_to_obj(op),
        "eta": matrix_to_rows(eta),
        "tau": matrix_to_rows(tau),
    })
    value = forms.eval_form(forms.Form(op), eta, tau)
    return _report(args, digest, result={"value": jsonify(value)})


def _cmd_equiv(args):
    sum1, sum2 = _read_fields(args, "sum1", "sum2")
    op1, op2 = _parse_operator(sum1).as_lrsum(), _parse_operator(sum2).as_lrsum()
    digest = canonical_digest({"sum1": operator_to_obj(op1), "sum2": operator_to_obj(op2)})
    res = forms.equivalence_constants(forms.Form(op1), forms.Form(op2), args.tol)
    return _report(
        args, digest,
        result={
            "c_lo": res.c_lo,
            "c_hi": res.c_hi,
            "witness_lo": matrix_to_rows(res.witness_lo),
            "witness_hi": matrix_to_rows(res.witness_hi),
            "operator_norm_bounds": {"lo": res.c_lo, "hi": res.c_hi},
        },
    )


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], dict]
    options: tuple = ()  # (flag, add_argument keywords) beyond --in/--out/--tol/--format
    mirror: bool = False  # accepts --mirror: transpose the input and terms_out


_VARIANT = (("--variant", {"choices": ("left", "right"), "default": "left"}),)
_ZETA = (("--zeta", {"default": None, "metavar": "CSV"}),)
_T = (("--t", {"type": float, "required": True}),)

_COMMANDS = {
    "classify": _Command(_cmd_classify),
    "apply": _Command(_cmd_apply),
    "liouville": _Command(_cmd_liouville),
    "decompose-basis": _Command(_cmd_decompose_basis, _VARIANT),
    "decompose-selfadjoint": _Command(partial(_rewrite, superop.selfadjoint_decompose)),
    "reduce": _Command(partial(_rewrite, superop.reduce_terms)),
    "adjoint": _Command(_cmd_adjoint),
    "one-sum": _Command(partial(_decompose, _one_sum), mirror=True),
    "two-sum": _Command(partial(_decompose, _two_sum), mirror=True),
    "pd-decompose": _Command(partial(_decompose, posdecomp.pd_decompose), mirror=True),
    "zeta-check": _Command(_cmd_zeta_check, _ZETA, mirror=True),
    "zeta-transform": _Command(_cmd_zeta_transform, _ZETA, mirror=True),
    "counterexample": _Command(_cmd_counterexample, _T),
    "build-ip": _Command(_cmd_build_ip),
    "form-eval": _Command(_cmd_form_eval),
    "equiv": _Command(_cmd_equiv),
}


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _render_text(report: dict) -> str:
    color = _use_color()
    lines = []
    for key, value in report.items():
        if value is None and key != "elapsed_ms":
            continue
        if key == "terms_out" and isinstance(value, dict):
            lines.append(f"terms_out: {len(value['terms'])} terms (dim {value['dim']})")
        elif key == "trace" and isinstance(value, dict):
            names = ", ".join(s["name"] for s in value["steps"])
            lines.append(f"trace: {names}")
        elif key == "result" and isinstance(value, dict):
            for rk, rv in value.items():
                if isinstance(rv, list) and rv and isinstance(rv[0], list):
                    lines.append(f"result.{rk}: <matrix>")
                else:
                    lines.append(f"result.{rk}: {rv}")
        elif key == "class" and value is not None and color:
            lines.append(f"class: \x1b[1;32m{value}\x1b[0m")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _write(args, text: str) -> None:
    if not args.outfile:
        sys.stdout.write(text)
        return
    try:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.outfile}: {exc}") from exc


def _render(args, report: dict) -> str:
    """The report as ``--format`` asks; a report that holds inf or NaN is an error in either."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # an inf or NaN that a result overflowed to
        raise NumericalError(f"report is not finite: {exc}") from exc
    return _render_text(report) if args.format == "text" else text


def _emit_error(args, exc: Exception) -> None:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "index", None) is not None:
        error["index"] = exc.index
    text = json.dumps({"command": args.command, "error": error}, indent=2) + "\n"
    try:
        _write(args, text)
    except InputError:  # an --out that cannot be written takes no report, so stdout does
        sys.stdout.write(text)
    print(f"hsdecomp {args.command}: error: {exc}", file=sys.stderr)


def _glue_float_values(argv: list[str]) -> list[str]:
    """Write ``--tol -inf`` as ``--tol=-inf``, after any long option or abbreviation: argparse
    takes a dash-led word that is not a plain negative number, such as ``-inf``, for an option."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and prev != "--" and "=" not in prev and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_float_values(sys.argv[1:] if argv is None else argv))
    except InputError as exc:
        print(f"hsdecomp: error: {exc}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        if not args.tol > 0:
            raise InputError(f"tol must be positive, got {args.tol}")
        if args.tol == float("inf"):
            raise InputError(f"tol must be finite, got {args.tol}")
        report = _COMMANDS[args.command].handler(args)
        report["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        _write(args, _render(args, report))
    except InputError as exc:
        _emit_error(args, exc)
        return 1
    except NumericalError as exc:
        _emit_error(args, exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
