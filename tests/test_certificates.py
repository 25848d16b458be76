"""Whole-domain certificates of the exact observables.

Every exact observable is four real coefficients against
g = (|c0|^2, |c1|^2, Re c0* c1, Im c0* c1) of the input qubit c0|A'0> + c1|A'1>
(`protocol._table`).  g is ((1 + z)/2, (1 - z)/2, x/2, y/2) for the input's
Bloch vector (x, y, z), so a coefficient row that equals the paper's form
holds at every (R, phi) at once.  The forms are `Fraction` literals taken
from the paper's teleportation identity, not from the code: each paired
outcome has probability 1/16, and leaves Bob the input qubit (++ and --) or
sigma_z of it (+- and -+), the correction Alice announces; Bob's tomography
ratio reads sigma/16 over I/16.  So criteria 1, 2 and 5 hold on the whole
domain, not only on their grids.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from eteleport import protocol  # noqa: E402
from eteleport.protocol import PAIRED_OUTCOMES  # noqa: E402

ULPS = 8  # a few units in the last place of the entry, or of 1/16 below it

SIXTEENTH, EIGHTH = Fraction(1, 16), Fraction(1, 8)
IDENTITY = (SIXTEENTH, SIXTEENTH, 0, 0)  # |c0|^2 + |c1|^2, over 16
SIGMA = {  # c^dagger sigma c over 16: x/16, y/16, z/16 of the input
    "X": (0, 0, EIGHTH, 0),
    "Y": (0, 0, 0, EIGHTH),
    "Z": (SIXTEENTH, -SIXTEENTH, 0, 0),
}
# Bob's Bloch numerators p x, p y, p z after each paired outcome: the input's
# over 16, with x and y negated where sigma_z is still to be applied
SIGNS = {"++": 1, "--": 1, "+-": -1, "-+": -1}


def _negated(form, sign):
    return tuple(sign * c for c in form)


def _assert_form(got, want):
    """A row of four coefficients equals a form of exact fractions, each
    within ULPS of its own size (of 1/16 for a smaller or zero entry)."""
    assert len(got) == len(want) == 4
    for value, exact in zip(np.asarray(got).tolist(), want):
        scale = max(abs(float(exact)), float(SIXTEENTH))
        assert abs(Fraction(value) - Fraction(exact)) <= ULPS * Fraction(math.ulp(scale)), (
            got, want
        )


@pytest.mark.parametrize("row", range(len(PAIRED_OUTCOMES)), ids=[x.label for x in PAIRED_OUTCOMES])
def test_paired_rows_are_the_teleportation_identity(row):
    p, *numerators = protocol._table().paired[row]
    _assert_form(p, IDENTITY)
    sign = SIGNS[PAIRED_OUTCOMES[row].label]
    for got, axis in zip(numerators, "XYZ"):
        _assert_form(got, _negated(SIGMA[axis], 1 if axis == "Z" else sign))


@pytest.mark.parametrize("row, setting", enumerate(protocol.TOMO_SETTINGS))
def test_tomography_ratio_is_sigma_over_identity(row, setting):
    b0, b1, pair, a0m, a1m = protocol._table().moments[row, protocol._RATIO_ROWS]
    _assert_form(b0 - b1, SIGMA[setting])
    _assert_form(pair - a0m - a1m, IDENTITY)


def test_outcome_rows_are_diagonal_weights():
    # each click pattern's probability is a|c0|^2 + b|c1|^2, with a and b
    # among 0, 1/16, 1/8 and 1/4; the sixteen add up to |c0|^2 + |c1|^2
    allowed = (0, SIXTEENTH, EIGHTH, Fraction(1, 4))
    outcomes = protocol._table().outcomes
    assert outcomes.shape == (len(protocol.ALL_OUTCOMES), 4)
    for row in outcomes:
        weights = [min(allowed, key=lambda a: abs(Fraction(c) - a)) for c in row[:2].tolist()]
        _assert_form(row, (*weights, 0, 0))
    _assert_form(outcomes.sum(axis=0), (1, 1, 0, 0))
    for row, outcome in enumerate(protocol.ALL_OUTCOMES):
        if outcome.is_paired:
            _assert_form(outcomes[row], IDENTITY)


def test_raw_moment_coefficients_are_multiples_of_a_32nd():
    moments = protocol._table().moments
    assert moments.shape == (len(protocol.TOMO_SETTINGS), len(protocol._MOMENT_LABELS), 4)
    nearest = np.round(moments * 32.0) / 32.0
    assert np.max(np.abs(moments - nearest)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((0.0, -0.0, 1.0)) | st.floats(0.0, 1.0),
    st.sampled_from((0.0, -0.0)) | st.floats(-20.0, 20.0),
)
@example(0.3, 1.2)
def test_g_is_the_input_bloch_vector(R, phi):
    # the table's forms are the paper's only if g is ((1 + z)/2, (1 - z)/2,
    # x/2, y/2) of the input (x, y, z) = (2 sqrt(RD) sin phi,
    # -2 sqrt(RD) cos phi, R - D); the identity block evaluates to g itself
    g = protocol._observables(np.eye(4), R, phi)
    root = math.sqrt(R * (1.0 - R))
    want = (R, 1.0 - R, root * math.sin(phi), -root * math.cos(phi))
    assert np.max(np.abs(g - want)) <= 4e-16
