import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eteleport import leviton, protocol
from eteleport.leviton import (
    CorrelatorTable,
    LevitonParams,
    SeriesConvergenceError,
    bloch_from_correlators,
    fidelity_curve,
    finite_T_correlators,
    leviton_fidelity,
    photoassist_amplitude,
    photoassist_spectrum_oracle,
    photoassist_weight_sum,
    reconstructed_bloch,
    reference_correlators,
    thermal_factors,
    zero_T_correlators,
    zero_T_tables,
)
from eteleport.protocol import TeleportParams, damped_average_fidelity


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
    factors = thermal_factors(LevitonParams(0.05, 0.0))
    assert factors.pair == pytest.approx(1.0, abs=1e-10)
    assert factors.triple == pytest.approx(1.0, abs=1e-10)
    assert factors.damping == pytest.approx(1.0, abs=1e-10)


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
    with pytest.raises(SeriesConvergenceError):
        # terms fall by exp(-4 pi gamma) each: about 2760 are needed, the cap is 500
        thermal_factors(LevitonParams(0.02, 0.5, series_tol=1e-300))


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
    # one moment call over the three settings' rows gives each row the bytes
    # of a moment call on that setting's row alone, and of the one-point tables
    rs, phis = np.linspace(0.05, 0.95, 7), np.linspace(-3.0, 9.0, 7)
    tables = zero_T_tables(rs, phis)
    assert list(tables) == list(protocol.TOMO_SETTINGS)
    amps = protocol.premeasurement_amplitudes("tomography", rs, phis)
    for row, (setting, table) in enumerate(tables.items()):
        assert table.setting == setting
        alone = leviton._zero_T_moments(amps[:, row, :])
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
# (n / 2 tau overflows to inf), one whose triple sum falls below its 1e-300
# floor and one whose pair sum underflows
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
@example([0.02], [0.5], 1e-300)  # the term cap
@example([0.05], [0.3, 1e308], 1e-12)  # the pair sum underflows
@example([0.02], [0.5, -1.0], 1e-300)  # a rejected tau after a point that does not converge
@example([0.05], [1e150], 1e-12)  # the triple sum under its 1e-300 floor
@example([0.03], np.linspace(0.0, 2.0, 24).tolist(), 1e-12)  # quiet runs across chunks of n
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
    # at this tolerance every cell of gamma = 1e-4 runs to its term cap, so
    # the first block of taus already holds the first failing point: the
    # grid raises the loop's error there and sums no second block
    taus = [k * 0.02 for k in range(101)]
    calls = []
    sum_block = leviton._sum_block

    def counted(*args):
        calls.append(len(args[1]))
        return sum_block(*args)

    monkeypatch.setattr(leviton, "_sum_block", counted)
    with pytest.raises(SeriesConvergenceError) as raised:
        fidelity_curve([1e-4], taus, 1e-300)
    assert calls == [leviton._GRID_TAUS]
    with pytest.raises(SeriesConvergenceError) as loop:
        _loop_curve([1e-4], taus, 1e-300)
    assert str(raised.value) == str(loop.value)


def test_fidelity_curve_memory_stays_bounded():
    # gamma = 1e-3 needs about 2200 terms per point, so one float64 (tau, n)
    # table of this grid takes about 1.7 MB; the pass builds none of them
    gamma, taus = 1e-3, np.linspace(0.0, 2.0, 100)
    table = taus.size * thermal_factors(LevitonParams(gamma, 2.0)).terms * 8
    tracemalloc.start()
    try:
        fidelity_curve([gamma], taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024 < table / 3
