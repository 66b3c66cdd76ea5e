"""Tests for the invariant verification suite itself."""

import numpy as np
import pytest

from conftest import numeric_platform
from energyfuse import cli, reliability, train, verify

NAN = float("nan")


def _nan_like_first(x, *args):
    return x * NAN


# each check whose per-case error is a float, the name it calls in verify's
# namespace, and a stand-in for that name which computes NaN
NAN_SUBJECTS = [
    ("check_two_form_identity", "hopfield_update", _nan_like_first),
    ("check_energy_softmax_identity", "energy_softmax_identity", lambda v: (NAN,) * 3),
    ("check_seg_nll_is_cross_entropy", "seg_nll", lambda *args: NAN),
    ("check_hopfield_gradient_fd", "central_differences", lambda f, x: x * NAN),
    ("check_end_to_end_gradients", "central_differences", lambda f, x: x * NAN),
    ("check_full_step_descent", "hopfield_energy", lambda *args: NAN),
    ("check_damped_descent_unit_norm", "hopfield_energy", lambda *args: NAN),
    ("check_retrieval_convergence", "hopfield_update", _nan_like_first),
    ("check_kl_nonnegative", "rfa_seg_loss", lambda *args: NAN),
    ("check_kl_zero_iff_equal", "rfa_seg_loss", lambda *args: NAN),
    ("check_teacher_gradient_zero", "rfa_dep_loss", lambda d, e, *args: (d + e) * NAN),
    ("check_berhu_continuity", "berhu_map", _nan_like_first),
]


def test_full_verification_passes():
    report = verify.run_verification()
    assert report.ok, "\n" + report.text()
    text = report.text()
    assert "all passing" in text
    assert text.count("PASS") == len(verify.ALL_CHECKS)


# What `energyfuse verify` prints: one line per check, then the verdict. The
# worst= values are last-bit quantities, so they hold on one numeric platform.
VERIFY_PRINTOUT = """\
PASS  hopfield-two-form-identity         worst=6.883e-15  tol=1.0e-12
PASS  free-energy-softmax-identity       worst=3.562e-15  tol=1.0e-12
PASS  seg-nll-equals-cross-entropy       worst=1.776e-15  tol=1.0e-12
PASS  hopfield-gradient-vs-fd            worst=3.809e-09  tol=1.0e-06
PASS  end-to-end-gradients-vs-fd         worst=2.397e-07  tol=1.0e-04
PASS  full-step-energy-descent           worst=-2.371e-02  tol=1.0e-10
PASS  damped-descent-unit-norm           worst=-1.575e-09  tol=1.0e-10
PASS  retrieval-convergence              worst=9.828e-07  tol=1.0e-06
PASS  mask-partition-exact               worst=0.000e+00  tol=0.0e+00
PASS  rfa-kl-nonnegative                 worst=0.000e+00  tol=1.0e-12
PASS  rfa-kl-zero-iff-equal              worst=5.154e-16  tol=1.0e-12
PASS  rfa-teacher-gradient-zero          worst=0.000e+00  tol=0.0e+00
PASS  degenerate-mask-finite             worst=0.000e+00  tol=0.0e+00
PASS  gamma-zero-bypass-bitwise          worst=0.000e+00  tol=0.0e+00
PASS  berhu-threshold-continuity         worst=2.000e-08  tol=1.0e-06
PASS  autodiff-composite-vs-fd           worst=4.818e-10  tol=1.0e-06
16 checks, all passing
"""


def test_cli_verify_prints_the_pinned_report(capsys):
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_PRINTOUT, numeric_platform()


def test_gradient_check_catches_a_broken_gradient(monkeypatch):
    # the suite must be a real detector: feed it a scaled gradient and
    # the finite-difference comparison has to fail
    right = verify.fusion.hopfield_gradient

    def wrong(x, nu):
        return 1.02 * right(x, nu)

    monkeypatch.setattr(verify.fusion, "hopfield_gradient", wrong)
    result = verify.check_hopfield_gradient_fd()
    assert not result.passed
    assert result.name == "hopfield-gradient-vs-fd"
    assert result.worst > result.tol


def test_end_to_end_check_catches_a_broken_production_gradient(monkeypatch):
    # the finite differences run verify's own frozen loss route, so scaling
    # the production depth distillation loss moves only the analytic side
    right = train.rfa_dep_loss

    def scaled(*args):
        return right(*args) * 1.001

    monkeypatch.setattr(train, "rfa_dep_loss", scaled)
    result = verify.check_end_to_end_gradients()
    assert not result.passed
    assert result.name == "end-to-end-gradients-vs-fd"
    assert result.worst > result.tol


def test_end_to_end_check_runs_the_training_threshold_rule(monkeypatch):
    # verify freezes the berHu thresholds objectives' rule gives at the
    # reference point, so a training threshold 1% off it moves only the
    # analytic side
    right = train.berhu_threshold

    def scaled(diff):
        return right(diff) * 1.01

    monkeypatch.setattr(train, "berhu_threshold", scaled)
    result = verify.check_end_to_end_gradients()
    assert not result.passed
    assert result.worst > result.tol


def test_energy_identity_check_reads_the_training_free_energy(monkeypatch):
    # the energy route is free_energy_map, the score training and evaluate
    # use, so a sign slip there fails the identity instead of passing beside it
    monkeypatch.setattr(reliability, "free_energy_map", lambda cols: cols.lse * 1.0)
    result = verify.check_energy_softmax_identity()
    assert not result.passed
    assert result.name == "free-energy-softmax-identity"


def test_gamma_zero_check_compares_bits_not_values(monkeypatch):
    # -0.0 == 0.0 as numbers, so only a bitwise comparison fails this pair
    monkeypatch.setattr(verify, "eb2f_apply", lambda *args: np.array([[1.0, -0.0]]))
    monkeypatch.setattr(verify, "fuse", lambda *args: np.array([[1.0, 0.0]]))
    result = verify.check_gamma_zero_bypass()
    assert not result.passed
    assert result.name == "gamma-zero-bypass-bitwise"


def test_report_text_flags_failures():
    bad = verify.CheckResult(name="x", worst=1.0, tol=1e-6, passed=False)
    good = verify.CheckResult(name="y", worst=0.0, tol=1e-6, passed=True)
    report = verify.Report(results=[good, bad])
    assert not report.ok
    assert "1 failing" in report.text()
    assert "FAIL" in report.text()


def test_check_results_report_finite_margins():
    result = verify.check_two_form_identity()
    assert result.passed
    assert np.isfinite(result.worst)
    assert result.worst < result.tol


@pytest.mark.parametrize(
    "check, name, nan", NAN_SUBJECTS, ids=[row[0] for row in NAN_SUBJECTS]
)
def test_a_nan_case_fails_its_check(monkeypatch, check, name, nan):
    # Python's max and min drop a NaN that comes second, so a worst case
    # taken with them read a NaN case as passing
    monkeypatch.setattr(verify, name, nan)
    result = getattr(verify, check)()
    assert not result.passed, result.line()
