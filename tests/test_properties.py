"""Invariants of the teleportation network, the Leviton drive and the
phase-damping fidelity over random parameters."""

import decimal
import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from eteleport import circuit, leviton, protocol, saw  # noqa: E402
from eteleport.acceptance import reference_network_matrix  # noqa: E402
from eteleport.fock import INPUT_MODES, FockState, create_sources, lift_amplitudes  # noqa: E402
from eteleport.protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, TeleportParams  # noqa: E402
from test_saw import launched_conditional  # noqa: E402

angle = st.floats(-2.0 * math.pi, 2.0 * math.pi)
unit = st.floats(0.0, 1.0)
arm_row = st.tuples(*[angle] * len(circuit.ARM_WIRES))
point = st.tuples(unit, angle, arm_row, unit, angle)
batch = st.lists(st.tuples(unit, angle, unit, angle), min_size=1, max_size=6)
signed_zero = st.sampled_from((0.0, -0.0))
scalar_point = st.tuples(signed_zero | unit, signed_zero | angle)


@settings(max_examples=50, deadline=None)
@given(point)
def test_network_invariants(point):
    R, phi, arms, Dp, theta = point
    params = TeleportParams(R, phi)
    arm_phases = dict(zip(circuit.ARM_WIRES, arms))
    sources = create_sources(INPUT_MODES, protocol.SOURCE_LABELS)
    full = circuit.teleport_network("tomography", R, phi, Dp, theta)
    for view in (
        circuit.teleport_network("preparation", R, phi),
        circuit.teleport_network("detection", R, phi, arm_phases=arm_phases),
        full,
    ):
        evolved = FockState(view.rows, 3, lift_amplitudes(view, sources))
        assert abs(evolved.norm() - 1.0) < 1e-12
    assert np.max(np.abs(full.matrix - reference_network_matrix(R, phi, Dp, theta))) < 1e-12

    state = protocol.run_premeasurement(params)
    probs = {x: protocol.povm_element(x).expectation(state) for x in ALL_OUTCOMES}
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    for x in PAIRED_OUTCOMES:
        assert abs(probs[x] - 1.0 / 16.0) < 1e-12

    p, qubit = launched_conditional(params, arm_phases)
    assert abs(p - 1.0 / 16.0) < 1e-12
    expected = saw.fixed_phase_state(params, saw.combined_phase(arm_phases))
    assert np.max(np.abs(qubit.rho - expected.rho)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((0.0, 1.0)) | unit, angle, st.lists(arm_row, min_size=1, max_size=4))
def test_sector_amplitudes_match_full_simulation(R, phi, rows):
    # R = 0 and R = 1 leave a single contributing three-particle configuration
    params = TeleportParams(R, phi)
    phis = [saw.combined_phase(dict(zip(circuit.ARM_WIRES, arms))) for arms in rows]
    run, trig = saw._conditional_amplitudes(params, np.array(phis))
    for (cos, sin), arms in zip(trig.T, rows):
        rho01 = (run.kc * cos + run.ks * sin) / run.p
        rho = np.array([[run.rho00, rho01], [np.conj(rho01), run.rho11]])
        arm_phases = dict(zip(circuit.ARM_WIRES, arms))
        slow_p, slow = launched_conditional(params, arm_phases)
        assert abs(run.p - slow_p) < 1e-12
        assert np.max(np.abs(rho - slow.rho)) < 1e-12


# arm phases up to 10 pi either way, signed zeros too, on some arms
wide_angle = signed_zero | st.floats(-10.0 * math.pi, 10.0 * math.pi)
wide_arm_dict = st.permutations(circuit.ARM_WIRES).flatmap(
    lambda order: st.lists(wide_angle, max_size=len(order)).map(
        lambda values: dict(zip(order, values))
    )
)


@settings(max_examples=100, deadline=None)
@given(signed_zero | st.sampled_from((0.0, 1.0)) | unit, wide_angle, wide_arm_dict)
@example(1.0, -0.0, {"A0": -0.0, "B1p": 10.0 * math.pi})
@example(-0.0, 0.0, dict(zip(circuit.ARM_WIRES, (10.0 * math.pi, -10.0 * math.pi) * 3)))
@example(0.3, 1.2, {})
def test_fixed_arm_phases_match_a_launch(R, phi, arms):
    # the run constants at one draw of the combined phase against the
    # detection stage launched with the arm phases
    params = TeleportParams(R, phi)
    p, qubit = protocol.conditional_with_arm_phases(params, arms)
    want_p, want = launched_conditional(params, arms)
    assert abs(p - want_p) <= 1e-12
    assert np.max(np.abs(qubit.rho - want.rho)) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 2.0))
def test_oracle_matches_closed_form_amplitudes(gamma):
    n_values = range(-5, 21)
    oracle = leviton.photoassist_spectrum_oracle(n_values, gamma)
    closed = np.array([leviton.photoassist_amplitude(n, gamma) for n in n_values])
    assert np.max(np.abs(oracle - closed)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.5), st.floats(0.0, 40.0))
def test_thermal_damping_and_fidelity_bounds(gamma, tau):
    # tau > 10 reaches the pair series branch (x = n / 2 tau < 0.05)
    params = leviton.LevitonParams(gamma, tau)
    assert 0.0 < leviton.thermal_factors(params).damping <= 1.0 + 1e-9
    assert 2.0 / 3.0 <= leviton.leviton_fidelity(params) <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 20.0))
def test_average_fidelity_bounds(sigma2):
    assert 2.0 / 3.0 <= saw.average_fidelity(sigma2) <= 1.0


def _lone_launch(stage, *parameters):
    """The stage's amplitudes at any (D', theta), from the network and the lift."""
    sources = create_sources(INPUT_MODES, protocol.SOURCE_LABELS)
    return lift_amplitudes(circuit.teleport_network(stage, *parameters), sources)


@settings(max_examples=50, deadline=None)
@given(batch)
def test_stacked_amplitudes_match_single_runs(points):
    R, phi, Dp, theta = map(np.array, zip(*points))
    stacked = _lone_launch("tomography", R, phi, Dp, theta)
    detection = protocol.premeasurement_amplitudes("detection", R, phi)
    at_settings = protocol.premeasurement_amplitudes("tomography", R, phi)
    for i, (r, p, dp, th) in enumerate(points):
        single = _lone_launch("tomography", r, p, dp, th)
        assert np.max(np.abs(stacked[i] - single)) <= 1e-15
        run = protocol.run_premeasurement(TeleportParams(r, p))
        assert np.max(np.abs(detection[i] - run.amps)) <= 1e-15
        single = protocol.premeasurement_amplitudes("tomography", r, p)
        assert np.max(np.abs(at_settings[i] - single)) <= 1e-15


@settings(max_examples=50, deadline=None)
@given(batch)
def test_stacked_network_matches_reference(points):
    stack = circuit.teleport_network("tomography", *map(np.array, zip(*points))).matrix
    for built, point in zip(stack, points):
        assert np.max(np.abs(built - reference_network_matrix(*point))) < 1e-12


def _fresh_launch(stage, R, phi):
    """A one-point call's amplitudes from a one-element grid, which is never
    memoised."""
    return protocol.premeasurement_amplitudes(stage, np.array([R]), np.array([phi]))[0]


@settings(max_examples=50, deadline=None)
@given(scalar_point)
def test_memoised_amplitudes_equal_a_fresh_launch(point):
    for stage in circuit.STAGES:
        fresh = _fresh_launch(stage, *point)
        for _ in range(2):  # the second call is served by the memo
            amps = protocol.premeasurement_amplitudes(stage, *point)
            assert amps.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                amps[0] = 1.0


def test_memo_keys_every_parameter():
    # the memo holds one point, the last one asked for, so a key that missed
    # a parameter would hand each point of a pair the other's amplitudes
    base = (0.3, 1.2)
    variants = [(0.6, 1.2), (0.3, 2.1)]
    for stage in circuit.STAGES:
        for variant in variants:
            for point in (base, variant, base, variant):
                amps = protocol.premeasurement_amplitudes(stage, *point)
                assert amps.tobytes() == _fresh_launch(stage, *point).tobytes()


def test_memo_keeps_no_rejected_point():
    protocol.premeasurement_amplitudes("detection", 0.3, 1.2)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"R must lie in \[0, 1\]"):
            protocol.premeasurement_amplitudes("detection", 1.5, 1.2)
        with pytest.raises(ValueError, match="stage"):
            protocol.premeasurement_amplitudes("later", 0.3, 1.2)


@settings(max_examples=50, deadline=None)
@given(signed_zero | unit, signed_zero | angle)
@example(0.3, -0.0)
def test_setting_rows_equal_a_launch_at_one_setting(R, phi):
    # the tomography stage is one evaluation at all three settings; each
    # row, of a one-point call and of a one-element grid, is the six-mode
    # launch at that setting alone, within 1e-15 (the linear form rounds
    # apart from a launch)
    rows = protocol.premeasurement_amplitudes("tomography", R, phi)
    fresh = _fresh_launch("tomography", R, phi)
    for axis, setting in enumerate(protocol.TOMO_SETTINGS.values()):
        want = _lone_launch("tomography", R, phi, *setting)
        for got in (rows[axis], fresh[axis]):
            assert np.max(np.abs(got - want)) <= 1e-15, axis


edge_unit = st.sampled_from((0.0, -0.0, 1.0)) | unit


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(edge_unit, signed_zero | angle), min_size=1, max_size=6))
@example([(1.0, -0.0), (0.0, 0.0), (-0.0, 1.2), (1.0, 0.3)])
def test_linear_form_equals_a_six_mode_launch(points):
    # every stage without arm phases, over a broadcast grid, over its
    # diagonal and at each point, against its six-mode network and the
    # determinant lift
    R, phi = map(np.array, zip(*points))
    diagonal = np.arange(len(points))
    for stage in circuit.STAGES:
        settings = protocol.TOMO_SETTINGS.values() if stage == "tomography" else [(1.0, 0.0)]
        launches = [_lone_launch(stage, R[:, None], phi[None, :], *s) for s in settings]
        want = np.stack(launches, axis=-2) if stage == "tomography" else launches[0]
        got = protocol.premeasurement_amplitudes(stage, R[:, None], phi[None, :])
        assert np.max(np.abs(got - want)) <= 1e-15, stage
        got = protocol.premeasurement_amplitudes(stage, R, phi)
        assert np.max(np.abs(got - want[diagonal, diagonal])) <= 1e-15, stage
        for i, (r, p) in enumerate(points):
            got = protocol.premeasurement_amplitudes(stage, r, p)
            assert np.max(np.abs(got - want[i, i])) <= 1e-15, stage


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(signed_zero | unit, signed_zero | angle), max_size=5))
def test_tomography_grid_rows_equal_one_point_rows(points):
    # the settings axis follows the points': (k,) R and phi give (k, 3) rows
    points = [(0.3, -0.0)] + points
    R, phi = map(np.array, zip(*points))
    grid = protocol.premeasurement_amplitudes("tomography", R, phi)
    assert grid.shape[:2] == (len(points), 3)
    for row, (r, p) in zip(grid, points):
        assert row.tobytes() == protocol.premeasurement_amplitudes("tomography", r, p).tobytes()


@settings(max_examples=50, deadline=None)
@given(signed_zero | unit, signed_zero | angle)
@example(0.3, -0.0)
def test_tomography_bloch_equals_its_grid_row(R, phi):
    single = protocol.tomography_bloch(TeleportParams(R, phi))
    assert single.tobytes() == protocol.tomography_bloch_grid(R, phi).tobytes()


@settings(max_examples=50, deadline=None)
@given(signed_zero | st.sampled_from((0.0, 1.0)) | unit, signed_zero | angle)
@example(1.0, -0.0)
@example(-0.0, 0.0)
def test_zero_T_correlators_equal_their_grid_row(R, phi):
    # a one-point table is a row of the three settings' moments kept with
    # the point's launch; a one-element grid takes the setting's row alone
    for setting in protocol.TOMO_SETTINGS:
        single = leviton.zero_T_correlators(R, phi, setting).values
        grid = leviton.zero_T_correlators(np.array([R]), np.array([phi]), setting).values
        assert single.tobytes() == grid[0].tobytes(), setting


# R at both ends and phi beyond [0, 2 pi), signed zeros too
stack_point = st.tuples(
    signed_zero | st.sampled_from((0.0, 1.0)) | unit, signed_zero | st.floats(-50.0, 50.0)
)


@settings(max_examples=50, deadline=None)
@given(st.lists(stack_point, min_size=1, max_size=6))
@example([(0.3, 1.2), (-0.0, 8.29174227940473), (1.0, -0.0)])
def test_stacked_bloch_rows_equal_one_point_states(points):
    # a row of the stack and the one-point state round alike, bit for bit
    amps = np.stack([protocol.premeasurement_amplitudes("detection", R, phi) for R, phi in points])
    for outcome in PAIRED_OUTCOMES:
        _, bloch = protocol.conditional_qubits(amps, outcome)
        assert bloch.shape == (len(points), 3)
        for (R, phi), row in zip(points, bloch):
            single = protocol.bob_conditional(TeleportParams(R, phi), outcome)
            assert row.tobytes() == single.bloch.tobytes()
            # a unit vector up to its rounding: at R = 1, |r| reads 1 + 2.2e-16
            assert math.hypot(*row) <= 1.0 + 1e-15


component = signed_zero | st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(component, component, component), st.booleans())
@example((0.0, -0.0, 1.0), False)
@example((-0.0, 0.0, -1.0), False)
@example((0.6, -0.0, 0.8), True)
@example((0.0, 0.0, 1.1930468129125085e-158), True)
@example((0.0, 5e-324, 5e-324), True)
def test_rho_of_a_bloch_vector_is_a_density_matrix(components, on_sphere):
    # the properties the density-matrix checks of the qubit state used to
    # enforce, now met by construction; the sphere itself too
    b = np.array(components)
    if on_sphere and 0.0 < np.max(np.abs(b)) < sys.float_info.min:
        # a subnormal norm rounds: hypot(5e-324, 5e-324) is 5e-324, so the
        # "unit" vector would be (0, 1, 1); scaling by 2**600 is exact
        b = b * 2.0**600
    # hypot scales before it squares: the squares of components near 1e-158
    # are subnormal, and a norm taken from them is off by up to 1e-8
    norm = math.hypot(*b.tolist())
    if norm > 1.0 or (on_sphere and norm > 0.0):
        b = b / norm
    rho = protocol.QubitState(b).rho
    assert rho[1, 0:1].tobytes() == rho[0, 1:2].conj().tobytes()
    assert abs(np.trace(rho) - 1.0) <= 1e-15
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
    back = np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])
    assert np.max(np.abs(back - b)) <= 1e-15
    # halving keeps every sign, so no signed zero of x or y moves
    assert np.array_equal(np.signbit(back[:2]), np.signbit(b[:2]))


def _direct_thermal_weights(x: float) -> tuple[float, float]:
    """coth(x) - 1/x and coth^2 + csch^2/2 - 3 coth/(2x), evaluated with 50
    significant digits so that their cancellation costs nothing."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = decimal.Decimal(x)
        e = (2 * d).exp()
        coth = (e + 1) / (e - 1)
        pair = coth - 1 / d
        triple = coth * coth + (coth * coth - 1) / 2 - 3 * coth / (2 * d)
        return float(pair), float(triple)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.2))
def test_thermal_weights_match_direct_forms(x):
    # both series branches (x < 0.05 and x < 0.25) and the direct pair form
    pair, triple = _direct_thermal_weights(x)
    got_pair, got_triple = leviton._thermal_brackets(x)
    assert abs(got_pair - pair) <= 1e-12 * pair
    assert abs(got_triple - triple) <= 1e-12 * triple


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 0.2), min_size=1, max_size=8))
def test_grid_thermal_weights_match_direct_forms(xs):
    # the same, through the array brackets of the fidelity-curve pass
    got_pairs, got_triples = leviton._grid_brackets(np.array(xs))
    for x, got_pair, got_triple in zip(xs, got_pairs.tolist(), got_triples.tolist()):
        pair, triple = _direct_thermal_weights(x)
        assert abs(got_pair - pair) <= 1e-12 * pair
        assert abs(got_triple - triple) <= 1e-12 * triple
