"""Golden CLI reports, compared byte for byte apart from ``elapsed_ms``.

Each file in ``fixtures/golden/`` is the exact stdout of one CLI call, with
the value of ``elapsed_ms`` (the only field that changes between runs)
replaced by ``null``. An ``--in golden/NAME.json`` argument feeds an earlier
golden report to the next command, which reads its ``terms_out``, so the
cases below also cover pipes such as
``counterexample --t 0.25 | pd-decompose | zeta-check``.

The files are regenerated, only when a report is meant to change, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from hsdecomp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

# name -> (CLI arguments, expected exit code); a "*.json" argument is a path
# relative to fixtures/
CASES = {
    # every subcommand on its own fixture
    "classify_identity": (["classify", "--in", "identity_d2.json"], 0),
    "classify_indefinite": (["classify", "--in", "indefinite_d2.json"], 0),
    "apply": (["apply", "--in", "apply_input.json"], 0),
    "liouville": (["liouville", "--in", "identity_d2.json"], 0),
    "decompose_basis_left": (["decompose-basis", "--in", "identity_d2.json"], 0),
    "decompose_basis_right": (
        ["decompose-basis", "--in", "identity_d2.json", "--variant", "right"], 0),
    "decompose_selfadjoint": (["decompose-selfadjoint", "--in", "identity_d2.json"], 0),
    "decompose_selfadjoint_rejects": (
        ["decompose-selfadjoint", "--in", "nonselfadjoint_d2.json"], 2),
    "reduce": (["reduce", "--in", "twosum_input.json"], 0),
    "adjoint": (["adjoint", "--in", "identity_d2.json"], 0),
    "one_sum": (["one-sum", "--in", "onesum_input.json"], 0),
    "two_sum": (["two-sum", "--in", "twosum_input.json"], 0),
    "two_sum_rejects_indefinite": (["two-sum", "--in", "twosum_indefinite.json"], 2),
    "two_sum_wrong_arity": (["two-sum", "--in", "identity_d2.json"], 1),
    "pd_decompose": (["pd-decompose", "--in", "identity_d2.json"], 0),
    "zeta_check_true": (["zeta-check", "--in", "scalar_zeta.json", "--zeta", "0.5"], 0),
    "zeta_check_false": (["zeta-check", "--in", "scalar_zeta.json", "--zeta", "3"], 0),
    "zeta_check_searched": (["zeta-check", "--in", "scalar_zeta.json"], 0),
    "zeta_transform": (["zeta-transform", "--in", "scalar_zeta.json", "--zeta", "0.5"], 0),
    "zeta_transform_invalid": (
        ["zeta-transform", "--in", "scalar_zeta.json", "--zeta", "3"], 2),
    "counterexample": (["counterexample", "--t", "0.25"], 0),
    "counterexample_bad_t": (["counterexample", "--t", "0.7"], 1),
    "build_ip": (["build-ip", "--in", "buildip_input.json"], 0),
    "build_ip_rejects_kernel": (["build-ip", "--in", "buildip_bad_kernel.json"], 1),
    "form_eval": (["form-eval", "--in", "formeval_input.json"], 0),
    "equiv": (["equiv", "--in", "equiv_input.json"], 0),
    # --mirror on inputs with complex, non-symmetric factors
    "one_sum_mirror": (["one-sum", "--in", "complex_onesum_d2.json", "--mirror"], 0),
    "two_sum_mirror": (["two-sum", "--in", "complex_twosum_d2.json", "--mirror"], 0),
    "pd_decompose_mirror": (["pd-decompose", "--in", "complex_pd_d2.json", "--mirror"], 0),
    "zeta_check_mirror": (
        ["zeta-check", "--in", "golden/pd_decompose_mirror.json", "--mirror"], 0),
    "zeta_transform_mirror": (
        ["zeta-transform", "--in", "golden/pd_decompose_mirror.json", "--mirror"], 0),
    # counterexample --t 0.25 | pd-decompose | zeta-check, and other consumers
    # of the signed pd-decompose report
    "pd_decompose_counterexample": (
        ["pd-decompose", "--in", "golden/counterexample.json"], 0),
    "zeta_check_counterexample": (
        ["zeta-check", "--in", "golden/pd_decompose_counterexample.json"], 0),
    "classify_signed": (["classify", "--in", "golden/pd_decompose_counterexample.json"], 0),
    "liouville_signed": (["liouville", "--in", "golden/pd_decompose_counterexample.json"], 0),
    "adjoint_signed": (["adjoint", "--in", "golden/pd_decompose_counterexample.json"], 0),
    "reduce_signed": (["reduce", "--in", "golden/pd_decompose_counterexample.json"], 0),
    "decompose_selfadjoint_counterexample": (
        ["decompose-selfadjoint", "--in", "golden/counterexample.json"], 0),
    "decompose_basis_right_counterexample": (
        ["decompose-basis", "--in", "golden/counterexample.json", "--variant", "right"], 0),
}

_ELAPSED = re.compile(r'^  "elapsed_ms": .*$', re.MULTILINE)


def run_case(name: str) -> tuple[int, str]:
    """Exit code and stdout of one case, with elapsed_ms set to null."""
    args, _ = CASES[name]
    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, _ELAPSED.sub('  "elapsed_ms": null', out.getvalue())


@pytest.mark.parametrize("name", list(CASES))
def test_golden_report(name):
    code, out = run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (_, expected_code) in CASES.items():
        code, out = run_case(name)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
