import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eteleport import leviton, protocol, scalar
from eteleport.leviton import (
    CorrelatorTable,
    bloch_from_correlators,
    finite_T_correlators,
    photoassist_amplitude,
    photoassist_spectrum_oracle,
    photoassist_weight_sum,
    reconstructed_bloch,
    reference_correlators,
    zero_T_correlators,
    zero_T_tables,
)
from eteleport.protocol import TeleportParams
from eteleport.scalar import (
    LevitonParams,
    SeriesConvergenceError,
    damped_average_fidelity,
    fidelity_curve,
    leviton_fidelity,
    thermal_factors,
)


# --- photoassisted amplitudes ---

def test_emission_amplitudes_vanish():
    assert photoassist_amplitude(-1, 0.05) == 0.0
    assert photoassist_amplitude(-7, 0.02) == 0.0


def test_zero_transfer_amplitude():
    for gamma in (0.02, 0.1):
        assert photoassist_amplitude(0, gamma) == pytest.approx(
            math.exp(-2.0 * math.pi * gamma), abs=1e-15
        )


def test_weight_sum_is_unity():
    for gamma in (0.02, 0.05, 0.1):
        assert photoassist_weight_sum(gamma) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-2, 50.0))
@example(1e-2)
@example(0.02)
@example(0.05)
@example(0.1)
@example(50.0)
def test_weight_sum_is_the_loop_over_public_amplitudes(gamma):
    # gamma is checked once, and every term has the bytes of the public
    # amplitude's, summed in the same order
    total = abs(photoassist_amplitude(0, gamma)) ** 2
    n = 1
    while True:
        term = abs(photoassist_amplitude(n, gamma)) ** 2
        total += term
        if term < 1e-16:
            break
        n += 1
    assert photoassist_weight_sum(gamma).hex() == total.hex()


def test_oracle_agrees_with_closed_form():
    n_values = [-2, 0, 1, 3, 10]
    oracle = photoassist_spectrum_oracle(n_values, 0.05)
    for n, value in zip(n_values, oracle):
        assert abs(value - photoassist_amplitude(n, 0.05)) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        LevitonParams(0.0, 1.0)
    with pytest.raises(ValueError):
        LevitonParams(0.05, -1.0)
    with pytest.raises(ValueError):
        photoassist_amplitude(1, -0.1)


# --- thermal factors ---

def test_cold_limit():
    # at tau = 0 both sums are the unit weight sum, which the closed-form
    # tail gives from n = 1 on, so it holds to rounding for every width
    for gamma in (scalar.GAMMA_MIN, 1e-3, 0.02, 0.05, 1.0, scalar.GAMMA_MAX):
        factors = thermal_factors(LevitonParams(gamma, 0.0))
        assert abs(factors.pair - 1.0) <= 1e-14
        assert abs(factors.triple - 1.0) <= 1e-14
        assert abs(factors.damping - 1.0) <= 1e-14


def test_hot_limit():
    factors = thermal_factors(LevitonParams(0.1, 10.0))
    assert factors.damping < 0.05
    # classical limit within 1e-2 needs a broad pulse; narrow pulses hold
    # their fidelity much longer
    assert abs(leviton_fidelity(LevitonParams(0.25, 10.0)) - 2.0 / 3.0) < 1e-2
    assert abs(leviton_fidelity(LevitonParams(0.02, 10.0)) - 2.0 / 3.0) > 5e-2


def test_narrow_pulses_hold_coherence_longer():
    narrow = thermal_factors(LevitonParams(0.02, 0.5)).damping
    broad = thermal_factors(LevitonParams(0.1, 0.5)).damping
    assert narrow > broad


def test_damping_monotone_in_temperature():
    for gamma in (0.02, 0.1):
        values = [
            thermal_factors(LevitonParams(gamma, tau)).damping
            for tau in np.linspace(0.0, 3.0, 25)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_factors_stay_in_unit_interval():
    for gamma in (0.02, 0.05, 0.1):
        for tau in (0.0, 0.2, 1.0, 5.0, 50.0):
            factors = thermal_factors(LevitonParams(gamma, tau))
            assert 0.0 < factors.pair <= 1.0 + 1e-12
            assert 0.0 < factors.triple <= 1.0 + 1e-12
            assert factors.damping <= 1.0 + 1e-9


def test_non_convergence_is_reported():
    # the tail starts at the harmonic 4 tau = 4000, past the cap of 500, and
    # at this tolerance the weights left never fall below the sums' share
    with pytest.raises(SeriesConvergenceError, match="not converged after 500 terms"):
        thermal_factors(LevitonParams(0.02, 1000.0, series_tol=1e-300))


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def _decimal_factors(gamma, tau):
    """Both thermal factors summed harmonic by harmonic in decimal arithmetic
    of 40 digits beyond the brackets' cancellation, coth built from exp,
    until the weights left (each bracket is at most 1) are below 1e-20 of
    the triple sum."""
    with decimal.localcontext() as ctx:
        # at n = 1, 1 - e^(-2x) loses log10(2 tau) digits and the triple
        # bracket's cancellation four times as many
        ctx.prec = 40 + 5 * max(0, math.ceil(math.log10(2.0 * tau))) if tau else 40
        g = 2 * _PI * decimal.Decimal(gamma)
        r = (-2 * g).exp()
        scale = (g.exp() - (-g).exp()) ** 2  # 4 sinh^2 g
        two_tau = 2 * decimal.Decimal(tau)
        t = (-1 / decimal.Decimal(tau)).exp() if tau else decimal.Decimal(0)  # e^(-2x) at n = 1
        left = scale * r / (1 - r) ** 2  # sum_{m > n} scale m r^m <= left (n + 1) r^n
        pair = triple = decimal.Decimal(0)
        r_n = t_n = decimal.Decimal(1)
        n = 0
        while True:
            n += 1
            r_n *= r
            t_n *= t
            weight = scale * n * r_n
            coth = (1 + t_n) / (1 - t_n)
            coth2 = coth * coth
            inv_x = two_tau / n
            pair += weight * (coth - inv_x)
            triple += weight * (coth2 + (coth2 - 1) / 2 - 3 * coth * inv_x / 2)
            if left * (n + 1) * r_n < decimal.Decimal("1e-20") * triple:
                return float(pair), float(triple)


@settings(max_examples=30, deadline=None)
@given(st.floats(scalar.GAMMA_MIN, scalar.GAMMA_MAX), st.floats(0.0, 10.0),
       st.sampled_from((1e-12, 1e-9)))
@example(scalar.GAMMA_MIN, 0.0, 1e-12)
@example(0.02, 0.5, 1e-300)  # the tail's k terms run until they underflow
@example(0.05, 40.0, 1e-12)  # the low harmonics take both brackets' series branches
@example(0.05, 1e25, 1e-12)  # the triple sum falls as 1/tau^2; the direct loop stops in the cap
def test_thermal_factors_match_a_decimal_oracle(gamma, tau, series_tol):
    # within 10 series_tol of the sums, and of their rounding where the
    # tolerance is below it
    factors = thermal_factors(LevitonParams(gamma, tau, series_tol))
    bound = 10.0 * max(series_tol, 1e-14)
    pair, triple = _decimal_factors(gamma, tau)
    assert abs(factors.pair - pair) <= bound * pair
    assert abs(factors.triple - triple) <= bound * triple


def _decimal_brackets(x):
    """The pair bracket coth x - 1/x and the triple bracket
    coth^2 + csch^2/2 - 3 coth/(2x) at the float x > 0, each with its
    leading Taylor term x/3 or 2x^2/15, in decimal arithmetic.  Below
    x = 1 they lose log10(1/x) digits in 1 - e^(-2x), and the triple four
    times as many in its cancellation; they lie below x/3 and 2x^2/15 by
    about x^2/15 and x^2/7 of those, so the precision is 40 digits beyond
    7 log10(1/x)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + 7 * max(0, math.ceil(-math.log10(x)))
        d = decimal.Decimal(x)
        t = (-2 * d).exp()
        coth = (1 + t) / (1 - t)
        pair = coth - 1 / d
        triple = coth * coth + (coth * coth - 1) / 2 - 3 * coth / (2 * d)
        return (pair, d / 3), (triple, 2 * d * d / 15)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1e4, exclude_min=True))
@example(5e-324)
@example(1e-25)
@example(0.05)
@example(0.25)
@example(2.0)
def test_brackets_lie_below_their_leading_terms(x):
    # the direct loop's stop bounds every later harmonic's brackets by
    # P(x) <= x/3 and T(x) <= 2x^2/15 (and by 1); both vanish at x = 0
    for bracket, leading in _decimal_brackets(x):
        assert 0 < bracket <= leading and bracket < 1


def test_numpy_scalar_parameters_are_stored_as_floats():
    # the series then runs in float arithmetic, with the values of the
    # same parameters given as Python floats
    taus = np.arange(0.0, 2.0, 0.25)
    fields = ("gamma", "tau", "series_tol")
    for gamma, tau in [(np.float64(0.05), t) for t in taus] + [(np.array(0.1), np.int64(1))]:
        given = LevitonParams(gamma, tau, np.float64(1e-12))
        plain = LevitonParams(float(gamma), float(tau), 1e-12)
        assert [type(getattr(given, f)) for f in fields] == [float] * 3
        factors = thermal_factors(given)
        assert factors == thermal_factors(plain)
        assert type(factors.damping) is float
    rows = fidelity_curve(np.array([0.02, 0.1]), taus)
    assert rows == fidelity_curve([0.02, 0.1], taus.tolist())
    assert all(type(row["q"]) is type(row["fidelity"]) is float for row in rows)


# --- correlator tables ---

def test_current_closed_forms():
    table = zero_T_correlators(0.3, 1.2, "Y")
    assert table.current("A0+") == pytest.approx(0.25 + 0.3 / 2.0, abs=1e-12)
    assert table.current("A1-") == pytest.approx(0.25 + 0.7 / 2.0, abs=1e-12)
    assert table.current("B0") == pytest.approx(0.5, abs=1e-12)


def test_triple_correlator_settings():
    R, phi = 0.3, 1.2
    root = math.sqrt(R * (1 - R))
    x = zero_T_correlators(R, phi, "X")
    assert x.triple("A0+", "A1+", "B0") == pytest.approx(
        root * math.sin(phi) / 16.0, abs=1e-12
    )
    y = zero_T_correlators(R, phi, "Y")
    assert y.triple("A0+", "A1+", "B0") == pytest.approx(
        -root * math.cos(phi) / 16.0, abs=1e-12
    )
    z = zero_T_correlators(R, phi, "Z")
    assert z.triple("A0+", "A1+", "B0") == pytest.approx(0.0, abs=1e-12)


def test_table_matches_reference_everywhere():
    for r in (0.2, 0.5, 0.8):
        for phi in (0.0, 2.1, 5.0):
            for setting in "XYZ":
                simulated = zero_T_correlators(r, phi, setting)
                reference = reference_correlators(r, phi, setting)
                assert simulated.max_deviation(reference) < 1e-10


def test_grid_tables_are_each_settings_own_moments():
    # one evaluation of the three settings' moments gives each row the bytes
    # of an evaluation of that setting's moments alone, and of the one-point
    # tables
    rs, phis = np.linspace(0.05, 0.95, 7), np.linspace(-3.0, 9.0, 7)
    tables = zero_T_tables(rs, phis)
    assert list(tables) == list(protocol.TOMO_SETTINGS)
    for row, (setting, table) in enumerate(tables.items()):
        assert table.setting == setting
        raw = protocol._observables(protocol._table().moments[row], rs, phis)
        alone = leviton._cumulants(raw)
        assert table.values.tobytes() == alone.tobytes()
        assert table.values.tobytes() == zero_T_correlators(rs, phis, setting).values.tobytes()
        for r, phi, values in zip(rs.tolist(), phis.tolist(), table.values):
            assert values.tobytes() == zero_T_correlators(r, phi, setting).values.tobytes()


def test_charge_sum_rule():
    table = zero_T_correlators(0.42, 0.9, "X")
    total = sum(table.current(label) for label in leviton.DETECTORS)
    assert total == pytest.approx(3.0, abs=1e-12)


def test_pair_lookup_is_order_insensitive():
    table = zero_T_correlators(0.3, 0.5, "Z")
    assert table.pair("A1+", "A0+") == table.pair("A0+", "A1+")


def test_table_key_validation():
    for reject in (
        lambda: CorrelatorTable("W", np.zeros(len(leviton.KEYS))),
        lambda: zero_T_correlators(0.3, 0.5, "W"),
        lambda: leviton.reference_correlators(0.3, 0.5, "x"),
    ):
        with pytest.raises(ValueError, match=r"setting must be one of \['X', 'Y', 'Z'\]"):
            reject()
    with pytest.raises(ValueError):
        CorrelatorTable("Z", np.zeros(len(leviton.KEYS) - 1))
    table = zero_T_correlators(0.3, 0.5, "Z")
    with pytest.raises(ValueError, match="read-only"):
        table.values[0] = 1.0


def test_finite_temperature_scaling():
    table = zero_T_correlators(0.3, 1.2, "X")
    unchanged = finite_T_correlators(table, 1.0, 1.0)
    assert table.max_deviation(unchanged) == 0.0
    scaled = finite_T_correlators(table, 0.5, 0.25)
    assert scaled.current("A0+") == table.current("A0+")
    assert scaled.pair("A0+", "A1+") == pytest.approx(
        0.5 * table.pair("A0+", "A1+"), abs=1e-15
    )
    assert scaled.triple("A0+", "A1+", "B0") == pytest.approx(
        0.25 * table.triple("A0+", "A1+", "B0"), abs=1e-15
    )
    with pytest.raises(ValueError):
        finite_T_correlators(table, 0.0, 1.0)
    with pytest.raises(ValueError):
        finite_T_correlators(table, 1.0, 1.5)


# --- Bloch reconstruction ---

def test_zero_temperature_reconstruction():
    params = TeleportParams(0.3, 1.2)
    tables = {s: zero_T_correlators(params.R, params.phi, s) for s in "XYZ"}
    bloch, norms = reconstructed_bloch(tables)
    assert np.max(np.abs(bloch - protocol.input_bloch(params))) < 1e-10
    for k in norms.values():
        assert k == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_reconstruction_agrees_with_occupation_tomography():
    # two independent routes to the same Bloch vector: correlator
    # assembly vs direct occupation-expectation tomography
    for r, phi in ((0.2, 0.4), (0.5, 2.5), (0.85, 5.1)):
        tables = {s: zero_T_correlators(r, phi, s) for s in "XYZ"}
        from_correlators, _ = reconstructed_bloch(tables)
        from_tomography = protocol.tomography_bloch(TeleportParams(r, phi))
        assert np.max(np.abs(from_correlators - from_tomography)) < 1e-10


def test_finite_temperature_reconstruction_damps_transverse():
    params = TeleportParams(0.3, 1.2)
    factors = thermal_factors(LevitonParams(0.05, 0.3))
    tables = {
        s: finite_T_correlators(
            zero_T_correlators(params.R, params.phi, s), factors.pair, factors.triple
        )
        for s in "XYZ"
    }
    bloch, norms = reconstructed_bloch(tables)
    reference = protocol.input_bloch(params)
    expected = np.array(
        [factors.damping * reference[0], factors.damping * reference[1], reference[2]]
    )
    assert np.max(np.abs(bloch - expected)) < 1e-10
    assert norms["X"] == pytest.approx(factors.pair / 16.0, abs=1e-12)


def test_degenerate_normalization_rejected():
    table = reference_correlators(0.3, 1.2, "Z")
    triples = [len(key) == 3 for key in leviton.KEYS]
    broken = CorrelatorTable("Z", np.where(triples, table.values, 0.0))
    with pytest.raises(ValueError):
        bloch_from_correlators(broken)
    # one NaN row of a grid fails the whole grid
    grid = CorrelatorTable("Z", [table.values, np.full(len(leviton.KEYS), np.nan)])
    with pytest.raises(ValueError):
        bloch_from_correlators(grid)


# --- fidelity curve ---

def test_fidelity_curve_shape():
    gammas = (0.02, 0.05, 0.1)
    taus = np.linspace(0.0, 2.0, 11)
    rows = fidelity_curve(gammas, taus)
    assert len(rows) == len(gammas) * len(taus)
    for gamma in gammas:
        fid = [row["fidelity"] for row in rows if row["gamma"] == gamma]
        assert fid[0] == pytest.approx(1.0, abs=1e-10)
        assert all(b <= a + 1e-12 for a, b in zip(fid, fid[1:]))
        assert all(2.0 / 3.0 < f <= 1.0 + 1e-12 for f in fid)
    by_tau = {}
    for row in rows:
        by_tau.setdefault(row["tau"], []).append(row["fidelity"])
    for tau, fids in by_tau.items():
        if tau > 0:
            # listed gammas ascend, so fidelity must descend
            assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


def _loop_curve(gammas, taus, series_tol):
    """The fidelity curve point by point, from the per-point series."""
    rows = []
    for gamma in gammas:
        for tau in taus:
            q = thermal_factors(LevitonParams(gamma, tau, series_tol)).damping
            rows.append({"gamma": float(gamma), "tau": float(tau), "q": q,
                         "fidelity": damped_average_fidelity(q)})
    return rows


CRITERION_9_TAUS = np.arange(0.0, 2.0 + 1e-9, 0.05).tolist()
# mostly valid points; a few that LevitonParams rejects, a subnormal tau
# (k / tau overflows to inf), taus so high that the series meets its term
# cap, and one whose pair sum underflows
curve_gammas = st.lists(st.floats(0.01, 2.0) | st.sampled_from((0.0, 60.0)), min_size=1, max_size=3)
curve_taus = st.lists(
    st.floats(0.0, 1e4) | st.sampled_from((0.0, 5e-324, 1e-300, 1e150, 1e308, -1.0, math.nan)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None, report_multiple_bugs=False)
@given(curve_gammas, curve_taus, st.sampled_from((1e-12, 1e-6, 1e-15)))
@example([0.02, 0.05, 0.1], CRITERION_9_TAUS, 1e-12)
@example([0.05], [0.0, 5e-324], 1e-12)
@example([0.02], [0.5], 1e-300)  # the tail's k terms run until they underflow
@example([0.05], [0.3, 1e308], 1e-12)  # the pair sum underflows
@example([0.02], [1000.0, -1.0], 1e-300)  # a rejected tau after a point that does not converge
@example([0.05], [1e150], 1e-12)  # a triple sum of about 1e-301, stopped by the brackets' bounds
@example([0.05], [1e200], 1e-12)  # the triple sum underflows to 0
@example([0.03], np.linspace(0.0, 2.0, 24).tolist(), 1e-12)
def test_fidelity_curve_equals_the_loop(gammas, taus, series_tol):
    try:
        want = _loop_curve(gammas, taus, series_tol)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            fidelity_curve(gammas, taus, series_tol)
        assert type(raised.value) is type(error)
        assert str(raised.value) == str(error)
    else:
        assert fidelity_curve(gammas, taus, series_tol) == want


def test_failing_fidelity_curve_stops_at_its_first_block(monkeypatch):
    # (0.02, 1000) meets the term cap at this tolerance: the grid raises the
    # loop's error there and evaluates no later point
    gammas, taus = [0.02, 0.05], [0.5, 1000.0, 1.0]
    calls = []
    factors = scalar.thermal_factors

    def counted(params):
        calls.append((params.gamma, params.tau))
        return factors(params)

    monkeypatch.setattr(scalar, "thermal_factors", counted)
    with pytest.raises(SeriesConvergenceError) as raised:
        fidelity_curve(gammas, taus, 1e-300)
    assert calls == [(0.02, 0.5), (0.02, 1000.0)]
    monkeypatch.undo()
    with pytest.raises(SeriesConvergenceError) as loop:
        _loop_curve(gammas, taus, 1e-300)
    assert str(raised.value) == str(loop.value)


def test_fidelity_curve_memory_stays_bounded():
    # one point at a time, so the peak is about the 100 rows returned
    tracemalloc.start()
    try:
        fidelity_curve([1e-3], np.linspace(0.0, 2.0, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
