"""Golden-file tests for every CLI subcommand plus pipeline behavior."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsdecomp import LRSum, counterexample_superop, superop, to_liouville
from hsdecomp.cli import _COMMANDS, main
from hsdecomp.serialize import obj_to_operator, operator_to_obj
from helpers import psd_sum, rel_err

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(args, capsys, monkeypatch, stdin_text=None, expect=0):
    code, out, err = run_cli(args, stdin_text, capsys, monkeypatch)
    assert code == expect, f"exit {code}, stderr: {err}\nstdout: {out}"
    return json.loads(out)


def fixture(name):
    return str(FIXTURES / name)


def strip_elapsed(report):
    report = dict(report)
    report.pop("elapsed_ms", None)
    return report


def test_classify_identity(capsys, monkeypatch):
    rep = run_json(["classify", "--in", fixture("identity_d2.json")], capsys, monkeypatch)
    assert rep["command"] == "classify"
    assert rep["class"] == "PositiveDefinite"
    assert rep["lambda_min"] == pytest.approx(1.0)
    assert rep["kernel_dim"] == 0
    assert isinstance(rep["inputs_digest"], str) and len(rep["inputs_digest"]) == 64


def test_classify_report_fields_complete(capsys, monkeypatch):
    rep = run_json(["classify", "--in", fixture("identity_d2.json")], capsys, monkeypatch)
    assert list(rep.keys()) == [
        "command", "inputs_digest", "class", "lambda_min", "kernel_dim",
        "terms_out", "trace", "result", "tolerances", "elapsed_ms",
    ]


def test_apply(capsys, monkeypatch):
    rep = run_json(["apply", "--in", fixture("apply_input.json")], capsys, monkeypatch)
    eta_out = rep["result"]["eta_out"]
    assert eta_out[0][0] == [1.0, 0.0]
    assert eta_out[1][1] == [4.0, 0.0]


def test_liouville(capsys, monkeypatch):
    rep = run_json(["liouville", "--in", fixture("identity_d2.json")], capsys, monkeypatch)
    m = rep["result"]["matrix"]
    assert len(m) == 4
    assert m[0][0] == [1.0, 0.0] and m[0][1] == [0.0, 0.0]


@pytest.mark.parametrize("variant", ["left", "right"])
def test_decompose_basis(variant, capsys, monkeypatch):
    rep = run_json(
        ["decompose-basis", "--in", fixture("identity_d2.json"), "--variant", variant],
        capsys, monkeypatch,
    )
    assert rep["terms_out"]["dim"] == 2
    assert rep["result"]["term_count"] == 2


def test_decompose_selfadjoint(capsys, monkeypatch):
    rep = run_json(
        ["decompose-selfadjoint", "--in", fixture("identity_d2.json")], capsys, monkeypatch
    )
    assert rep["terms_out"]["terms"]


def test_decompose_selfadjoint_rejects(capsys, monkeypatch):
    code, out, err = run_cli(
        ["decompose-selfadjoint", "--in", fixture("nonselfadjoint_d2.json")],
        None, capsys, monkeypatch,
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotSelfadjointError"
    assert "error" in err


def test_reduce(capsys, monkeypatch):
    rep = run_json(["reduce", "--in", fixture("twosum_input.json")], capsys, monkeypatch)
    assert rep["result"]["term_count"] == 1  # (I,I) twice collapses


def test_adjoint(capsys, monkeypatch):
    rep = run_json(["adjoint", "--in", fixture("identity_d2.json")], capsys, monkeypatch)
    assert rep["terms_out"]["terms"][0]["a"][0][0] == [1.0, 0.0]


def test_one_sum(capsys, monkeypatch):
    rep = run_json(["one-sum", "--in", fixture("onesum_input.json")], capsys, monkeypatch)
    terms = rep["terms_out"]["terms"]
    assert len(terms) == 1
    assert terms[0]["a"][0][0] == [1.0, 0.0]
    assert any(s["name"] == "rescale" for s in rep["trace"]["steps"])


def test_two_sum(capsys, monkeypatch):
    rep = run_json(["two-sum", "--in", fixture("twosum_input.json")], capsys, monkeypatch)
    assert len(rep["terms_out"]["terms"]) == 2
    names = [s["name"] for s in rep["trace"]["steps"]]
    assert "right_pencil" in names


def test_classify_indefinite(capsys, monkeypatch):
    rep = run_json(["classify", "--in", fixture("indefinite_d2.json")], capsys, monkeypatch)
    assert rep["class"] == "Indefinite"


def test_two_sum_rejects_indefinite(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["two-sum", "--in", fixture("twosum_indefinite.json")], None, capsys, monkeypatch
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotPositiveDefiniteError"


def test_two_sum_wrong_arity(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["two-sum", "--in", fixture("identity_d2.json")], None, capsys, monkeypatch
    )
    assert code == 1
    assert "exactly two" in json.loads(out)["error"]["message"]


def test_pd_decompose(capsys, monkeypatch):
    rep = run_json(["pd-decompose", "--in", fixture("identity_d2.json")], capsys, monkeypatch)
    signs = [t["sign"] for t in rep["terms_out"]["terms"]]
    assert signs[0] == -1 and all(s == 1 for s in signs[1:])


def test_pd_decompose_mirror(capsys, monkeypatch):
    rep = run_json(
        ["pd-decompose", "--in", fixture("identity_d2.json"), "--mirror"],
        capsys, monkeypatch,
    )
    assert rep["tolerances"]["mirror"] is True
    assert rep["terms_out"]["terms"][0]["sign"] == -1


def test_zeta_check_explicit_false(capsys, monkeypatch):
    rep = run_json(
        ["zeta-check", "--in", fixture("scalar_zeta.json"), "--zeta", "3"],
        capsys, monkeypatch,
    )
    assert rep["result"]["ok"] is False
    assert rep["result"]["b_margins"][0] == pytest.approx(-1.0)


def test_zeta_check_explicit_true(capsys, monkeypatch):
    rep = run_json(
        ["zeta-check", "--in", fixture("scalar_zeta.json"), "--zeta", "0.5"],
        capsys, monkeypatch,
    )
    assert rep["result"]["ok"] is True
    assert rep["result"]["a_margin"] == pytest.approx(0.5)


def test_zeta_transform(capsys, monkeypatch):
    rep = run_json(
        ["zeta-transform", "--in", fixture("scalar_zeta.json"), "--zeta", "0.5"],
        capsys, monkeypatch,
    )
    terms = rep["terms_out"]["terms"]
    assert len(terms) == 2
    assert terms[0]["a"][0][0] == [0.5, 0.0]
    assert terms[1]["b"][0][0] == [1.5, 0.0]


def test_zeta_transform_invalid_certificate(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["zeta-transform", "--in", fixture("scalar_zeta.json"), "--zeta", "3"],
        None, capsys, monkeypatch,
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "CertificateInvalidError"


def test_zeta_check_infinite_zeta_is_input_error(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["zeta-check", "--in", fixture("golden/pd_decompose_counterexample.json"),
         "--zeta", "inf,1,1"],
        None, capsys, monkeypatch,
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert error["message"] == "zetas must be finite, got [inf, 1.0, 1.0]"


def test_zeta_search_on_lone_negative_term_is_input_error(capsys, monkeypatch):
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    text = json.dumps({"dim": 2, "terms": [{"sign": -1, "a": identity, "b": identity}]})
    code, out, _ = run_cli(["zeta-check"], text, capsys, monkeypatch)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "InputError",
        "message": "decomposition has only its negative term, no non-negative terms",
    }


def test_counterexample(capsys, monkeypatch):
    rep = run_json(["counterexample", "--t", "0.25"], capsys, monkeypatch)
    assert rep["terms_out"]["dim"] == 2
    assert len(rep["terms_out"]["terms"]) == 6


def test_counterexample_bad_t(capsys, monkeypatch):
    code, out, _ = run_cli(["counterexample", "--t", "0.7"], None, capsys, monkeypatch)
    assert code == 1


def test_build_ip(capsys, monkeypatch):
    rep = run_json(["build-ip", "--in", fixture("buildip_input.json")], capsys, monkeypatch)
    assert rep["class"] == "DefiniteInnerProduct"
    assert rep["terms_out"]["terms"]


def test_build_ip_rejects_kernel(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["build-ip", "--in", fixture("buildip_bad_kernel.json")], None, capsys, monkeypatch
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "HypothesisViolatedError"


def test_form_eval(capsys, monkeypatch):
    rep = run_json(["form-eval", "--in", fixture("formeval_input.json")], capsys, monkeypatch)
    # tr(eta* tau) = conj(2)*1 + conj(3)*1 = 5 for eta=[[1,2],[3,4]], tau=[[0,1],[1,0]]
    assert rep["result"]["value"] == [pytest.approx(5.0), pytest.approx(0.0)]


def test_equiv(capsys, monkeypatch):
    rep = run_json(["equiv", "--in", fixture("equiv_input.json")], capsys, monkeypatch)
    assert rep["result"]["c_lo"] == pytest.approx(2.0)
    assert rep["result"]["c_hi"] == pytest.approx(2.0)
    res = rep["result"]
    assert res["operator_norm_bounds"] == {"lo": res["c_lo"], "hi": res["c_hi"]}


def test_stdin_and_outfile(tmp_path, capsys, monkeypatch):
    text = (FIXTURES / "identity_d2.json").read_text()
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["classify", "--out", str(out_path)], text, capsys, monkeypatch
    )
    assert code == 0 and out == ""
    rep = json.loads(out_path.read_text())
    assert rep["class"] == "PositiveDefinite"


def test_invalid_json_input(capsys, monkeypatch):
    code, out, _ = run_cli(["classify"], "{not json", capsys, monkeypatch)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


def test_non_integer_sign_is_input_error(capsys, monkeypatch):
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    text = json.dumps({"dim": 2, "terms": [{"sign": True, "a": rows, "b": rows}]})
    code, out, _ = run_cli(["classify"], text, capsys, monkeypatch)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InputError"


def _operator_text(factor, r, c, raw):
    """A d = 2 classify input whose factor ``factor`` has ``raw`` (JSON text) at [r][c], or as row r."""
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad = [[list(e) for e in row] for row in rows]
    if c is None:
        bad[r] = "@"
    else:
        bad[r][c] = "@"
    term = {"a": rows, "b": rows, factor: bad}
    return json.dumps({"dim": 2, "terms": [term]}).replace('"@"', raw)


PAIRS = "entries must be [re, im] number pairs"


@pytest.mark.parametrize(
    "factor, r, c, raw, message",
    [
        ("a", 0, 1, "[true, 0.0]", f"term 0 'a'[0][1]: {PAIRS}"),
        ("a", 1, 0, '["1", 0.0]', f"term 0 'a'[1][0]: {PAIRS}"),
        ("b", 0, 0, "[null, 0.0]", f"term 0 'b'[0][0]: {PAIRS}"),
        ("a", 1, 1, "[Infinity, 0.0]", "term 0 'a'[1][1]: entries must be finite"),
        ("b", 1, 1, "[1.0]", f"term 0 'b'[1][1]: {PAIRS}"),
        ("a", 1, None, "[[0.0, 0.0]]", "term 0 'a': row 1 must have 2 entries"),
    ],
    ids=["bool", "string", "null", "infinity", "one-element", "short-row"],
)
def test_bad_entry_error_report(factor, r, c, raw, message, capsys, monkeypatch):
    code, out, _ = run_cli(["classify"], _operator_text(factor, r, c, raw), capsys, monkeypatch)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "InputError", "message": message}


def test_huge_integer_entry_is_input_error(capsys, monkeypatch):
    # a JSON integer beyond the float range parses as a Python int that float() cannot hold
    text = _operator_text("a", 0, 0, "[1" + "0" * 400 + ", 0]")
    code, out, _ = run_cli(["classify"], text, capsys, monkeypatch)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "InputError", "message": "term 0 'a'[0][0]: entries must be finite",
    }


def test_missing_operator_input(capsys, monkeypatch):
    code, out, _ = run_cli(["classify"], '{"foo": 1}', capsys, monkeypatch)
    assert code == 1


def test_unknown_flag_is_input_error(capsys, monkeypatch):
    code, _, err = run_cli(["classify", "--bogus"], "", capsys, monkeypatch)
    assert code == 1


def test_reports_accepted_downstream(capsys, monkeypatch):
    # classify accepts a previous report carrying terms_out
    rep1 = run_json(["counterexample", "--t", "0.25"], capsys, monkeypatch)
    rep2 = run_json(["classify"], capsys, monkeypatch, stdin_text=json.dumps(rep1))
    assert rep2["class"] == "PositiveDefinite"
    assert rep2["lambda_min"] == pytest.approx(0.25, abs=1e-9)


def test_text_format_and_no_color(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run_cli(
        ["classify", "--in", fixture("identity_d2.json"), "--format", "text"],
        None, capsys, monkeypatch,
    )
    assert code == 0
    assert "class: PositiveDefinite" in out
    assert "\x1b[" not in out


def test_byte_stability_modulo_elapsed(capsys, monkeypatch):
    reports = []
    for _ in range(2):
        rep = run_json(
            ["pd-decompose", "--in", fixture("identity_d2.json")], capsys, monkeypatch
        )
        reports.append(json.dumps(strip_elapsed(rep), sort_keys=True))
    assert reports[0] == reports[1]


def test_pipeline_subprocess():
    # -W error: a warning in any child (an overflow, say) fails the pipe, as in-process
    env = dict(os.environ)
    py = f"{sys.executable} -W error -m hsdecomp"
    code = subprocess.run(
        f"{py} counterexample --t 0.25 | {py} pd-decompose | {py} zeta-check",
        shell=True, capture_output=True, text=True, env=env,
    )
    assert code.returncode == 0
    assert code.stderr == ""
    rep = json.loads(code.stdout)
    assert rep["command"] == "zeta-check"
    assert rep["result"]["ok"] is False  # no certificate exists for this operator
    assert rep["result"]["searched"] is True


def test_pipeline_classify_subprocess():
    py = f"{sys.executable} -W error -m hsdecomp"
    code = subprocess.run(
        f"{py} counterexample --t 0.25 | {py} classify",
        shell=True, capture_output=True, text=True,
    )
    assert code.returncode == 0
    assert code.stderr == ""
    rep = json.loads(code.stdout)
    assert rep["class"] == "PositiveDefinite"
    assert abs(rep["lambda_min"] - 0.25) <= 1e-9


def test_import_loads_no_scipy():
    # checks which modules a fresh interpreter loads, not how long it takes
    code = subprocess.run(
        [sys.executable, "-c", "import sys, hsdecomp; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert code.returncode == 0, code.stderr
    assert code.stdout.strip() == "False"


@pytest.mark.parametrize("tol, message", [
    ("nan", "tol must be positive, got nan"),
    ("inf", "tol must be below 1, got inf"),
    ("0", "tol must be positive, got 0.0"),
    ("-1", "tol must be positive, got -1.0"),
])
def test_bad_tol_is_reported_as_input_error(tol, message):
    # counterexample never reads tol; the report must still be a JSON error, not a traceback
    code = subprocess.run(
        [sys.executable, "-m", "hsdecomp", "counterexample", "--t", "0.25", f"--tol={tol}"],
        capture_output=True, text=True,
    )
    assert code.returncode == 1
    assert json.loads(code.stdout)["error"] == {"type": "InputError", "message": message}
    assert "Traceback" not in code.stderr
    assert code.stderr == f"hsdecomp counterexample: error: {message}\n"


@pytest.mark.parametrize("spelling", [
    ["--tol=-inf"], ["--tol", "-inf"], ["--tol=-nan"], ["--tol", "-nan"],
    ["--to", "-inf"], ["--to", "-nan"],
], ids=["-inf-glued", "-inf-spaced", "-nan-glued", "-nan-spaced", "-inf-abbrev", "-nan-abbrev"])
def test_dash_led_tol_is_reported_in_either_spelling(spelling):
    # argparse alone reads a spaced -inf or -nan as an unknown option and writes no report
    code = subprocess.run(
        [sys.executable, "-m", "hsdecomp", "counterexample", "--t", "0.25", *spelling],
        capture_output=True, text=True,
    )
    message = "tol must be positive, got " + ("-inf" if "inf" in spelling[-1] else "nan")
    assert code.returncode == 1
    assert json.loads(code.stdout)["error"] == {"type": "InputError", "message": message}
    assert code.stderr == f"hsdecomp counterexample: error: {message}\n"


def test_classify_reports_a_norm_beyond_the_float_range(capsys, monkeypatch):
    """The Liouville matrix 1e308 I has finite entries and Frobenius norm 2e308: a result
    beyond the float range, so a numerical failure."""
    big = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    op = json.dumps({"dim": 2, "terms": [{"a": big, "b": eye}]})
    rep = run_json(["classify"], capsys, monkeypatch, stdin_text=op, expect=2)
    assert rep["error"] == {
        "type": "NumericalError", "message": "Liouville matrix exceeds the float range",
    }


def test_a_tol_of_1_is_refused_under_warnings_as_errors():
    """At tol 1 every threshold is at least ||L||_F, so reduce dropped every term and exited 0
    with term_count 0; it is refused before the input is read."""
    code = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsdecomp", "reduce", "--tol", "1"],
        input=json.dumps(operator_to_obj(counterexample_superop(0.25))),
        capture_output=True, text=True,
    )
    message = "tol must be below 1, got 1.0"
    assert code.returncode == 1
    assert json.loads(code.stdout)["error"] == {"type": "InputError", "message": message}
    assert code.stderr == f"hsdecomp reduce: error: {message}\n"


@pytest.mark.parametrize("tol", ["1", "1e10", "inf"])
def test_every_subcommand_refuses_a_tol_not_below_1(tol, capsys):
    for command in _COMMANDS:
        extra = ["--t", "0.25"] if command == "counterexample" else []
        code, out, err = run_cli([command, "--tol", tol, *extra], capsys=capsys)
        message = f"tol must be below 1, got {float(tol)}"
        assert code == 1, command
        assert json.loads(out)["error"] == {"type": "InputError", "message": message}, command
        assert err == f"hsdecomp {command}: error: {message}\n"


def test_classify_bad_tol_message(capsys, monkeypatch):
    rep = run_json(["classify", "--in", fixture("identity_d2.json"), "--tol", "-1"],
                   capsys, monkeypatch, expect=1)
    assert rep["error"] == {"type": "InputError", "message": "tol must be positive, got -1.0"}


@pytest.mark.parametrize("command, text, message", [
    ("apply", "{}", "apply input must be an object with 'sum' and 'eta'"),
    ("apply", "[]", "apply input must be an object with 'sum' and 'eta'"),
    ("form-eval", '{"sum": {}, "eta": []}',
     "form-eval input must be an object with 'sum', 'eta' and 'tau'"),
    ("equiv", '{"sum1": {}}', "equiv input must be an object with 'sum1' and 'sum2'"),
    ("build-ip", '{"a": [], "b": []}',
     "build-ip input must be an object with 'dim', 'a' and 'b'"),
    ("build-ip", '{"dim": 0, "a": [], "b": []}', "dim must be a positive integer, got 0"),
    ("build-ip", '{"dim": true, "a": [], "b": []}', "dim must be a positive integer, got True"),
    ("build-ip", '{"dim": 2, "a": {}, "b": []}', "'a' and 'b' must be arrays of matrices"),
], ids=["apply", "apply-array", "form-eval", "equiv", "build-ip", "build-ip-dim-0",
        "build-ip-dim-bool", "build-ip-a-not-array"])
def test_object_input_messages(command, text, message, capsys, monkeypatch):
    rep = run_json([command], capsys, monkeypatch, stdin_text=text, expect=1)
    assert rep == {"command": command, "error": {"type": "InputError", "message": message}}


def test_one_sum_wrong_arity(capsys, monkeypatch):
    rep = run_json(["one-sum", "--in", fixture("twosum_input.json")], capsys, monkeypatch,
                   expect=1)
    assert rep["error"] == {"type": "InputError",
                            "message": "one-sum takes exactly one term, got 2"}


def test_zeta_transform_search_miss_is_numerical_error(capsys, monkeypatch):
    rep = run_json(["zeta-transform", "--in", fixture("golden/pd_decompose_counterexample.json")],
                   capsys, monkeypatch, expect=2)
    assert rep == {"command": "zeta-transform", "error": {
        "type": "NumericalError", "message": "no valid zeta certificate found by the search"}}


# the options beyond --in/--out/--tol/--format that each subcommand declares
_EXTRA_OPTIONS = {
    "classify": set(), "apply": set(), "liouville": set(),
    "decompose-basis": {"--variant"}, "decompose-selfadjoint": set(), "reduce": set(),
    "adjoint": set(), "one-sum": {"--mirror"}, "two-sum": {"--mirror"},
    "pd-decompose": {"--mirror"}, "zeta-check": {"--zeta", "--mirror"},
    "zeta-transform": {"--zeta", "--mirror"}, "counterexample": {"--t"},
    "build-ip": set(), "form-eval": set(), "equiv": set(),
}


def test_subcommands_are_the_sixteen_named():
    assert list(_COMMANDS) == list(_EXTRA_OPTIONS)


@pytest.mark.parametrize("command", list(_EXTRA_OPTIONS))
def test_help_lists_the_declared_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--in", "--out", "--tol", "--format"):
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", out), flag
    listed = {f for f in ("--variant", "--zeta", "--t", "--mirror")
              if re.search(rf"(?<![\w-]){f}(?![\w-])", out)}
    assert listed == _EXTRA_OPTIONS[command]


_EYE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_HUGE = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
_NEAR_MAX = [[[1e308, 0.0], [1e308, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize("command, obj, extra", [
    # the Liouville matrix of (1e200 I, 1e200 I) is 1e400 I
    ("liouville", {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}, []),
    ("liouville", {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}, ["--format", "text"]),
    # tr(eta* tau) sums 1e308 * 1e308 twice
    ("form-eval", {"sum": {"dim": 2, "terms": [{"a": _EYE, "b": _EYE}]},
                   "eta": _NEAR_MAX, "tau": _NEAR_MAX}, []),
], ids=["liouville", "liouville-text", "form-eval"])
def test_report_beyond_the_float_range_is_numerical_error(command, obj, extra):
    # a child process: the overflow may also warn on stderr, which pytest would raise in-process
    code = subprocess.run(
        [sys.executable, "-m", "hsdecomp", command, *extra], input=json.dumps(obj),
        capture_output=True, text=True,
    )
    assert code.returncode == 2, code.stderr
    error = json.loads(code.stdout)["error"]
    assert error["type"] == "NumericalError"
    assert error["message"].startswith("report is not finite")
    assert "Traceback" not in code.stderr
    assert code.stderr.endswith(f"hsdecomp {command}: error: {error['message']}\n")


def test_liouville_overflow_under_warnings_as_errors():
    # the overflowing products of to_liouville must not warn: under -W error a warning would
    # end the process in a traceback before the report is checked
    obj = {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}
    code = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsdecomp", "liouville"], input=json.dumps(obj),
        capture_output=True, text=True,
    )
    assert code.returncode == 2, code.stderr
    error = json.loads(code.stdout)["error"]
    assert error["type"] == "NumericalError"
    assert code.stderr == f"hsdecomp liouville: error: {error['message']}\n"


@pytest.mark.parametrize("t, report", [("0.25", "success"), ("0.75", "error")])
def test_unwritable_out_is_input_error_on_stdout(t, report, tmp_path, capsys):
    """Neither a report nor an error report can go to an --out that cannot be written, so the
    error report goes to stdout."""
    out_path = tmp_path / "missing" / "x.json"
    code = main(["counterexample", "--t", t, "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    if report == "success":
        assert error["message"].startswith(f"cannot write {out_path}: ")
    else:
        assert error["message"] == "t must lie in (0, 1/2), got 0.75"
    assert err == f"hsdecomp counterexample: error: {error['message']}\n"
    assert not out_path.parent.exists()


@pytest.mark.parametrize("content, message", [
    ("[" * 100_000 + "]" * 100_000,
     "invalid JSON input: maximum recursion depth exceeded while decoding a JSON array"),
    ("1" * 4301, "invalid JSON input: Exceeds the limit (4300 digits) for integer string"),
    (b'{"dim": 2, "terms": []}\xff',
     "cannot read {}: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte"),
], ids=["nested-100000-deep", "int-of-4301-digits", "not-utf-8"])
def test_input_the_parser_cannot_decode_is_input_error(content, message, tmp_path, capsys):
    """json.loads raises RecursionError on deep nesting and ValueError past the interpreter's
    int digit limit, and reading a file that is not UTF-8 raises UnicodeDecodeError: each is
    an error report with exit 1, not a traceback."""
    path = tmp_path / "in.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code = main(["classify", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(message.format(path))
    assert err == f"hsdecomp classify: error: {error['message']}\n"


def test_stdin_that_is_not_utf_8_is_input_error(capsys, monkeypatch):
    """A UTF-8 locale decodes stdin strictly (the C locale escapes a bad byte, which the JSON
    parser then refuses)."""
    stdin = io.TextIOWrapper(io.BytesIO(b'{"dim": 2, "terms": []}\xff'), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["classify"])
    out, err = capsys.readouterr()
    assert code == 1
    message = ("cannot read stdin: 'utf-8' codec can't decode byte 0xff in position 23: "
               "invalid start byte")
    assert json.loads(out)["error"] == {"type": "InputError", "message": message}
    assert err == f"hsdecomp classify: error: {message}\n"


@pytest.mark.parametrize("command", ["classify", "pd-decompose", "decompose-selfadjoint"])
def test_overflowing_liouville_matrix_is_numerical_error_under_warnings_as_errors(command):
    # the Liouville matrix of (1e200 I, 1e200 I) is 1e400 I: every command that tests its
    # Hermiticity reports a result beyond the float range, a NumericalError (exit 2), without
    # a warning; the input's entries are all finite
    obj = {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}
    code = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsdecomp", command], input=json.dumps(obj),
        capture_output=True, text=True,
    )
    assert code.returncode == 2, code.stderr
    error = json.loads(code.stdout)["error"]
    assert error == {"type": "NumericalError",
                     "message": "Liouville matrix exceeds the float range"}
    assert "Traceback" not in code.stderr
    assert code.stderr == f"hsdecomp {command}: error: {error['message']}\n"


@pytest.mark.parametrize("variant", ["left", "right"])
def test_decompose_basis_reports_an_overflowing_liouville_matrix_as_numerical_error(
        variant, capsys, monkeypatch):
    """The Liouville matrix of (1e200 I, 1e200 I) is 1e400 I: decompose-basis read it as bad
    input ("liouville: entries must be finite", exit 1); it is a result beyond the float
    range, as classify and pd-decompose report it."""
    obj = {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}
    code, out, err = run_cli(["decompose-basis", "--variant", variant], json.dumps(obj),
                             capsys, monkeypatch)
    assert code == 2, err
    assert json.loads(out)["error"] == {"type": "NumericalError",
                                        "message": "Liouville matrix exceeds the float range"}
    assert err == "hsdecomp decompose-basis: error: Liouville matrix exceeds the float range\n"


@pytest.mark.parametrize("op", [
    counterexample_superop(0.25),  # a report below the write buffer: the flush fails
    psd_sum(np.random.default_rng(6), 8, 64),  # an 800 KB report: the write fails
], ids=["small", "d8"])
def test_a_closed_stdout_is_one_error_line_and_no_traceback(op):
    """The reader of stdout exits before the report is written (as in ``... | hsdecomp reduce
    --tol 1``): exit 1 with one line on stderr, and the interpreter's final flush, into
    os.devnull, raises nothing more."""
    child = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "hsdecomp", "reduce"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    child.stdout.close()  # before the child writes: it reads all of stdin first
    child.stdin.write(json.dumps(operator_to_obj(op)))
    child.stdin.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 1, err
    assert err == "hsdecomp reduce: error: cannot write stdout: [Errno 32] Broken pipe\n"


_HUGE_SUM = {"dim": 2, "terms": [{"a": _HUGE, "b": _HUGE}]}
_HUGE_SIGNED = {"dim": 2, "terms": [{"sign": -1, "a": _HUGE, "b": _HUGE},
                                    {"a": _HUGE, "b": _HUGE}]}


def _run_warnings_as_errors(command, obj):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "hsdecomp", command], input=json.dumps(obj),
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("command, obj, message", [
    # the images F(I) = 1e400 I and F(1e200 I) = 1e600 I overflow
    ("apply", {"sum": _HUGE_SUM, "eta": _EYE}, "report is not finite"),
    ("form-eval", {"sum": _HUGE_SUM, "eta": _HUGE, "tau": _HUGE}, "report is not finite"),
    # -F + F: no certificate exists, and the certificate search must say so without a warning
    ("zeta-transform", _HUGE_SIGNED, "no valid zeta certificate found by the search"),
], ids=["apply", "form-eval", "zeta-transform"])
def test_overflowing_operator_is_numerical_error_under_warnings_as_errors(command, obj, message):
    # F = (1e200 I, 1e200 I): an overflow inside a command must not warn, so under -W error
    # it ends in the error report, not in a traceback
    code = _run_warnings_as_errors(command, obj)
    assert code.returncode == 2, code.stderr
    error = json.loads(code.stdout)["error"]
    assert error["type"] == "NumericalError"
    assert error["message"].startswith(message)
    assert code.stderr == f"hsdecomp {command}: error: {error['message']}\n"


@pytest.mark.parametrize("command, obj, result", [
    # the one factor's norm, 1.4e200, has a square beyond the float range: the term is kept
    ("reduce", _HUGE_SUM, {"term_count": 1}),
    ("zeta-check", _HUGE_SIGNED, {"ok": False, "zetas": None, "b_margins": None,
                                  "a_margin": None, "searched": True}),
], ids=["reduce", "zeta-check"])
def test_overflowing_operator_is_reported_under_warnings_as_errors(command, obj, result):
    code = _run_warnings_as_errors(command, obj)
    assert code.returncode == 0, code.stderr
    assert code.stderr == ""
    assert json.loads(code.stdout)["result"] == result


def test_pd_decompose_where_the_squared_norms_overflow_under_warnings_as_errors():
    # each left factor times 1e155: an overflowed norm made every threshold infinite, so the
    # report dropped every off-diagonal block and exited 0 (a warning ended it under -W error)
    s = 1e155
    op = LRSum.from_pairs([(s * t.a, t.b) for t in psd_sum(np.random.default_rng(5), 3, 9)], 3)
    code = _run_warnings_as_errors("pd-decompose", operator_to_obj(op))
    assert code.returncode == 0, code.stderr
    assert code.stderr == ""
    out = obj_to_operator(json.loads(code.stdout)["terms_out"]).as_lrsum()
    assert len(out.terms) == 9
    assert rel_err(to_liouville(out) / s, to_liouville(op) / s) <= 1e-9


_LIOUVILLE_COMMANDS = ["classify", "liouville", "decompose-basis", "decompose-selfadjoint",
                       "pd-decompose", "equiv"]
# the limit + 1, and two dims no buffer could hold; no dim here builds a Liouville matrix
_OVERSIZE_DIMS = [superop._MAX_LIOUVILLE_DIM + 1, 100000, 10**30]


def _empty_sum_input(command, dim) -> str:
    op = {"dim": dim, "terms": []}
    return json.dumps({"sum1": op, "sum2": op} if command == "equiv" else op)


@pytest.mark.parametrize("dim", _OVERSIZE_DIMS, ids=["limit+1", "1e5", "1e30"])
@pytest.mark.parametrize("command", _LIOUVILLE_COMMANDS)
def test_a_dim_above_the_liouville_size_limit_is_input_error(command, dim, capsys, monkeypatch):
    """A dim whose Liouville matrix is above the size limit is refused before its buffers
    are allocated: an InputError object (exit 1) and one stderr line, where numpy's
    "array is too big" or "Maximum allowed dimension exceeded" ended in a traceback."""
    code, out, err = run_cli([command], _empty_sum_input(command, dim), capsys, monkeypatch)
    message = f"dim {dim} exceeds the Liouville size limit 32"
    assert code == 1, err
    assert json.loads(out)["error"] == {"type": "InputError", "message": message}
    assert err == f"hsdecomp {command}: error: {message}\n"


@pytest.mark.parametrize("dim", _OVERSIZE_DIMS, ids=["limit+1", "1e5", "1e30"])
@pytest.mark.parametrize("command", ["reduce", "adjoint"])
def test_commands_without_a_liouville_matrix_take_any_dim(command, dim, capsys, monkeypatch):
    rep = run_json([command], capsys, monkeypatch, stdin_text=_empty_sum_input(command, dim))
    assert rep["terms_out"] == {"dim": dim, "terms": []}
