"""Acceptance gate: every criterion runs at its pinned tolerances and
prints the line `eteleport verify` printed for it before the exact engine
was batched over parameter grids (tests/data/verify.txt, never regenerated
to make this test pass).  Its one declared re-record changed the last
digits of criteria 7, 8 and 10 when moments and the Fourier oracle stopped
using BLAS products, whose rounding depends on the host's BLAS kernel.

Every criterion returns `Check` records, and one rule decides them: a
check passes when `measured < bound`.  tests/data/verify_checks.tsv pins
every check at full precision, where the printed line shows three digits
or, for criteria 6 and 9, no measured value at all."""

import math
from pathlib import Path

import pytest

from eteleport import acceptance
from eteleport.acceptance import Check, Criterion

DATA = Path(__file__).resolve().parent / "data"
VERIFY_LINES = (DATA / "verify.txt").read_text().splitlines()
# number, name, repr(measured), repr(bound): one line per check of run_all()
VERIFY_CHECKS = [
    line.split("\t") for line in (DATA / "verify_checks.tsv").read_text().splitlines()
]


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda c: f"{c.number:02d}-{c.name}"
)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line)
    assert result.passed, result.line
    assert result.line == VERIFY_LINES[criterion.number - 1]
    names = [check.name for check in result.checks]
    assert len(set(names)) == len(names) >= 1


def test_every_check_keeps_its_measured_value_to_the_last_digit():
    checks = [
        [str(result.number), check.name, repr(check.measured), repr(check.bound)]
        for result in acceptance.run_all()
        for check in result.checks
    ]
    assert checks == VERIFY_CHECKS


def _stub(*checks, detail=None):
    return Criterion(3, "stub", lambda: (list(checks), detail)).run()


def test_a_check_passes_only_strictly_below_its_bound():
    assert Check("inside", 0.5, 1.0).passed
    assert not Check("at the bound", 1.0, 1.0).passed
    assert not Check("NaN", math.nan, 1.0).passed
    assert not _stub(Check("fine", 0.0, 1.0), Check("NaN", math.nan, 1.0)).passed


def test_a_criterion_without_checks_fails():
    result = _stub(detail="all good")
    assert not result.passed
    assert result.line == "FAIL  criterion  3  stub: returned no checks"


def test_pass_line_closes_each_run_of_equal_bounds():
    result = _stub(Check("a", 1e-13, 1e-12), Check("b", 2e-13, 1e-12), Check("c", 0.0, 1e-10))
    assert result.line == (
        "PASS  criterion  3  stub: a = 1.00e-13, b = 2.00e-13 (tol 1e-12), "
        "c = 0.00e+00 (tol 1e-10)"
    )
    assert _stub(Check("a", 0.0, 1.0), detail="own words").line.endswith("stub: own words")


def test_fail_line_names_exactly_the_failing_checks():
    result = _stub(
        Check("fine", 0.5, 1.0),
        Check("over", 2.0, 1.0),
        Check("NaN", math.nan, 1e-3),
        detail="never printed on a failure",
    )
    assert result.line == (
        "FAIL  criterion  3  stub: over = 2.00e+00 (tol 1e+00), NaN = nan (tol 1e-03)"
    )


def test_a_rejected_value_fails_its_criterion():
    def rejects():
        raise ValueError("sigma2 must be finite")

    result = Criterion(3, "stub", rejects).run()
    assert not result.passed and result.checks == ()
    assert result.line == "FAIL  criterion  3  stub: rejected a value: sigma2 must be finite"

