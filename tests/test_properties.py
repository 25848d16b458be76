"""Invariants of the teleportation network, the Leviton drive and the
phase-damping fidelity over random parameters."""

import decimal
import functools
import itertools
import math
import operator
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from eteleport import circuit, fock, leviton, protocol, saw, scalar  # noqa: E402
from eteleport.acceptance import reference_network_matrix  # noqa: E402
from eteleport.fock import (  # noqa: E402
    DETECTION_MODES,
    INPUT_MODES,
    OUTPUT_MODES,
    PREPARED_MODES,
    FockState,
    ModeRegistry,
    create_sources,
    lift_amplitudes,
)
from eteleport.protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, TeleportParams  # noqa: E402
from test_saw import PP, launched_conditional  # noqa: E402

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
    p, x, y, z = run
    s = saw._ARM_SIGN
    for (cos, sin), arms in zip(trig.T, rows):
        rho01 = complex(x * cos + s * y * sin, s * x * sin - y * cos) / 2.0
        rho = np.array([[(1.0 + z) / 2.0, rho01], [np.conj(rho01), (1.0 - z) / 2.0]])
        arm_phases = dict(zip(circuit.ARM_WIRES, arms))
        slow_p, slow = launched_conditional(params, arm_phases)
        assert abs(p - slow_p) < 1e-12
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


@settings(max_examples=100, deadline=None)
@given(signed_zero | st.sampled_from((0.0, 1.0)) | unit, wide_angle)
@example(0.3, 1.2)
@example(1.0, -0.0)
@example(0.0, 0.0)
def test_no_arm_phase_gives_the_point_conditional(R, phi):
    # at Phi = 0 the run's state is the point's ++ conditional, byte for
    # byte, signed zeros included (R = 0 or 1).  p is the ++ row of the coefficient table, within 2e-15 of
    # what the ++ element gives on the point's detection stage, the
    # amplitude route
    params = TeleportParams(R, phi)
    p, qubit = protocol.conditional_with_arm_phases(params, {})
    want = protocol.bob_conditional(params, PP)
    assert p == protocol._paired_point(R, phi, PAIRED_OUTCOMES.index(PP))[0]
    launched = protocol.POVMElement(PP).expectation(protocol.run_premeasurement(params))
    assert abs(p - launched) <= 2e-15
    assert qubit.bloch.tobytes() == want.bloch.tobytes()


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
    params = scalar.LevitonParams(gamma, tau)
    assert 0.0 < scalar.thermal_factors(params).damping <= 1.0 + 1e-9
    assert 2.0 / 3.0 <= scalar.leviton_fidelity(params) <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 20.0))
def test_average_fidelity_bounds(sigma2):
    assert 2.0 / 3.0 <= scalar.average_fidelity(sigma2) <= 1.0


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
    """A one-point call's amplitudes from a one-element grid."""
    return protocol.premeasurement_amplitudes(stage, np.array([R]), np.array([phi]))[0]


@settings(max_examples=50, deadline=None)
@given(scalar_point)
def test_memoised_amplitudes_equal_a_fresh_launch(point):
    # a one-point call, made twice, has the bytes of a one-element grid
    for stage in circuit.STAGES:
        fresh = _fresh_launch(stage, *point)
        for _ in range(2):
            amps = protocol.premeasurement_amplitudes(stage, *point)
            assert amps.tobytes() == fresh.tobytes()
    # and so has a call at one signed zero right after one at the other
    R, phi = point
    for zeros in ((0.0, -0.0), (-0.0, 0.0)):
        for pair in ([(z, phi) for z in zeros], [(R, z) for z in zeros]):
            for stage in circuit.STAGES:
                for signed in pair:
                    amps = protocol.premeasurement_amplitudes(stage, *signed)
                    assert amps.tobytes() == _fresh_launch(stage, *signed).tobytes()


def test_memo_keeps_no_rejected_point():
    # a rejected point or stage raises on every call, after a good point too
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(edge_unit, signed_zero | wide_angle), min_size=1, max_size=5))
@example([(0.0, -0.0), (1.0, -0.0), (0.3, 1.2), (-0.0, 8.29174227940473)])
@example([(4.388922768961347e-28, 0.0), (1.0 - 2.0**-53, 0.7)])
def test_table_route_matches_the_amplitude_route(points):
    # every block of the coefficient table against the observables taken
    # from the launched amplitudes: outcome probabilities, Bob's paired
    # conditionals, and each raw moment as a left-to-right sum of the
    # configurations' probabilities.  The routes agree within 2e-15 at
    # every R, down to an R whose amplitude sqrt(R)/4 on one of Bob's rails
    # lies far below 1e-14
    R, phi = map(np.array, zip(*points))
    table = protocol._table()
    amps = protocol.premeasurement_amplitudes("detection", R, phi)
    outcomes = protocol._observables(table.outcomes, R, phi)
    assert np.max(np.abs(outcomes - protocol.outcome_probabilities(amps))) <= 2e-15
    for row, outcome in enumerate(PAIRED_OUTCOMES):
        p, bloch = protocol.conditional_qubits(amps, outcome)
        observed = protocol._observables(table.paired[row], R, phi)
        assert np.max(np.abs(observed[:, 0] - p)) <= 2e-15
        assert np.max(np.abs(observed[:, 1:] / observed[:, :1] - bloch)) <= 2e-15
    probs = fock.probabilities(protocol.premeasurement_amplitudes("tomography", R, phi))
    moments = protocol._observables(table.moments, R, phi)
    configs = fock.combination_table(len(OUTPUT_MODES), 3)[1]
    for column, labels in enumerate(protocol._MOMENT_LABELS):
        mask = fock.occupations(OUTPUT_MODES, configs, labels).all(axis=1)
        for point, setting in itertools.product(range(len(points)), range(3)):
            want = functools.reduce(operator.add, probs[point, setting, mask].tolist(), 0.0)
            assert abs(moments[point, setting, column] - want) <= 2e-15, labels


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
@example([(4.490530341042323e-30, 0.0)])
def test_stacked_bloch_rows_equal_one_point_states(points):
    # a row of the table evaluated over the points and the one-point state
    # round alike, bit for bit; a row of the amplitude route's stack is
    # within 2e-15 of it (see the test above)
    R, phi = map(np.array, zip(*points))
    amps = np.stack([protocol.premeasurement_amplitudes("detection", r, p) for r, p in points])
    for row, outcome in enumerate(PAIRED_OUTCOMES):
        _, bloch = protocol.conditional_qubits(amps, outcome)
        assert bloch.shape == (len(points), 3)
        observed = protocol._observables(protocol._table().paired[row], R, phi)
        for point, stacked, (p, *numerators) in zip(points, bloch, observed.tolist()):
            single = protocol.bob_conditional(TeleportParams(*point), outcome)
            assert np.array([n / p for n in numerators]).tobytes() == single.bloch.tobytes()
            assert np.max(np.abs(stacked - single.bloch)) <= 2e-15
            # a unit vector up to its rounding: at R = 1, |r| reads 1 + 2.2e-16
            assert math.hypot(*stacked) <= 1.0 + 1e-15


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
    got_pair, got_triple = scalar._thermal_brackets(x)
    assert abs(got_pair - pair) <= 1e-12 * pair
    assert abs(got_triple - triple) <= 1e-12 * triple


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 1.0), st.just(0.0) | st.floats(0.05, 10.0))
def test_grid_thermal_weights_match_direct_forms(gamma, tau):
    # the closed-form tail against the direct forms summed harmonic by
    # harmonic from its first harmonic, 4 tau (x = n / 2 tau >= 2), on
    g = 2.0 * math.pi * gamma
    first = max(1, math.ceil(4.0 * tau))
    tail = itertools.islice(scalar._tail_terms(g, tau, first), 60)
    got_pair, got_triple = (math.fsum(terms) for terms in zip(*tail))
    pairs, triples = [], []
    n = first
    while n * math.exp(-2.0 * g * n) > 1e-18 * first * math.exp(-2.0 * g * first):
        weight = n * math.exp(-2.0 * g * n)
        pair, triple = _direct_thermal_weights(n / (2.0 * tau)) if tau else (1.0, 1.0)
        pairs.append(weight * pair)
        triples.append(weight * triple)
        n += 1
    pair, triple = math.fsum(pairs), math.fsum(triples)
    assert abs(got_pair - pair) <= 1e-12 * pair
    assert abs(got_triple - triple) <= 1e-12 * triple


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 1.0), st.integers(1, 40), st.floats(0.05, 10.0))
@example(0.02, 1, 10.0)  # both bounds take the moment sums, not the weight sum
def test_direct_rest_is_its_moment_sums(gamma, m, tau):
    # the bounds on the rest from harmonic m on are sum n^k r^n over n >= m
    # (k = 1, 2, 3; the last two over 6 tau and 30 tau^2), here summed term
    # by term, at head = r^(m-1) q, i.e. scale 1
    g = 2.0 * math.pi * gamma
    r, q = math.exp(-2.0 * g), 1.0 / math.expm1(2.0 * g)
    n = np.arange(m, m + 2000, dtype=float)
    sums = [math.fsum((n**k * r**n).tolist()) for k in (1, 2, 3)]
    want = (min(sums[0], sums[1] / (6.0 * tau)), min(sums[0], sums[2] / (30.0 * tau * tau)))
    got = scalar._direct_rest(r ** (m - 1) * q, m, q, tau)
    for value, reference in zip(got, want):
        assert abs(value - reference) <= 1e-12 * reference


# --- the left-to-right sum behind every printed probability ---

# signed zeros, subnormals, infinities, NaN and floats of any size: the
# values whose sums round or propagate apart in another order
edge = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.5e-308, math.inf, -math.inf))
real = edge | st.floats()


@st.composite
def sums(draw):
    """An array of 1 to 3 axes, real or complex, and what `mass` keeps of
    its last axis: everything, a mask (empty ones too) or an index table."""
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), draw(st.integers(0, 12)))
    kind = draw(st.sampled_from((float, complex)))
    element = real if kind is float else st.builds(complex, real, real)
    size = math.prod(shape)
    probs = np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=kind)
    columns, width = shape[-1], draw(st.integers(1, 4))
    flags = st.lists(st.booleans(), min_size=columns, max_size=columns)
    keeps = [st.just(slice(None)), flags.map(lambda kept: np.array(kept, dtype=bool))]
    if columns:
        row = st.lists(st.integers(0, columns - 1), min_size=width, max_size=width).map(sorted)
        keeps.append(st.lists(row, min_size=1, max_size=3).map(np.array))
    return probs.reshape(shape), draw(st.one_of(keeps))


def _left_to_right(probs, keep):
    """`mass` by its definition: the kept columns added one by one,
    starting from 0.0."""
    kept = probs[..., keep]
    if kept.ndim == 1:
        return functools.reduce(operator.add, kept.tolist(), 0.0)
    return functools.reduce(operator.add, np.moveaxis(kept, -1, 0), np.zeros(kept.shape[:-1]))


def _assert_same_sums(got, want):
    """Equal shape, dtype and values, NaN equal to NaN (its sign and payload
    may differ), and every zero of the same sign."""
    assert np.shape(got) == np.shape(want)
    assert np.result_type(got) == np.result_type(want)
    for part in (np.real, np.imag):
        a, b = np.asarray(part(got)), np.asarray(part(want))
        assert np.array_equal(a, b, equal_nan=True)
        assert (np.signbit(a) == np.signbit(b))[a == 0.0].all()


# one failure is reported, not a group of them, so a defect fails on an assert
@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
@given(sums())
# numpy's pairwise sum splits these columns into eight partial sums, which
# keep the ones that a left-to-right sum rounds away
@example((np.array([[1e16] + [1.0] * 15]), slice(None)))
# -0.0 terms alone sum to +0.0, as they do from a start of 0.0
@example((np.array([[-0.0, -0.0]]), slice(None)))
@example((np.array([complex(-0.0, -0.0)] * 3), np.array([[0, 1, 2]])))
# the two 1-D gathers: a mask, whose NaN and inf stay out of its sum, and an
# index table over a complex array, one sum per row
@example((np.array([math.nan, 0.25, -0.0, math.inf, 0.5]), np.array([0, 1, 1, 0, 1], dtype=bool)))
@example((np.array([1j, 2.0, -0.0 - 0.0j, 3.0 + 0.5j]), np.array([[0, 2], [1, 3], [3, 3]])))
# a square array, whose mask also fits its first axis: a gather of rows
# sums the wrong entries, and raises nothing
@example((np.array([[1.0, 2.0], [4.0, 8.0]]), np.array([True, False])))
@example((np.zeros((2, 3), dtype=complex), np.zeros(3, dtype=bool)))
def test_mass_adds_left_to_right(case):
    probs, keep = case
    with np.errstate(all="ignore"):  # inf - inf and overflow, in both sums
        _assert_same_sums(fock.mass(probs, keep), _left_to_right(probs, keep))


# --- the one unit-ball bound, for one vector and for a stack ---

_UNIT_BALL_BOUND = 1.0 + 2e-12


@st.composite
def bloch_vectors(draw):
    """Three components as drawn (NaN, infinities, signed zeros, subnormals
    and floats of any size among them), or scaled to a length within a few
    ulps of the unit-ball bound."""
    b = np.array(draw(st.tuples(real, real, real)))
    norm = math.hypot(*b.tolist())
    if draw(st.booleans()) and 0.0 < norm < math.inf:
        target = _UNIT_BALL_BOUND + draw(st.integers(-4, 4)) * math.ulp(_UNIT_BALL_BOUND)
        b = b / norm * target
    return b


def _accepted(check, b) -> bool:
    try:
        check(b)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(bloch_vectors())
@example(np.array([0.0, 0.0, _UNIT_BALL_BOUND]))
@example(np.array([0.0, -0.0, math.nextafter(_UNIT_BALL_BOUND, 2.0)]))
@example(np.array([-0.0, 5e-324, -1.0]))
@example(np.array([math.nan, 0.0, 0.0]))
@example(np.array([0.0, -math.inf, 0.0]))
def test_one_vector_unit_ball_matches_the_stack(b):
    # a QubitState checks its vector in Python floats, `conditional_qubits`
    # its rows as one array: the same bound and the same IEEE operations, so
    # a vector passes alone exactly when it passes as a row
    with np.errstate(all="ignore"):  # squares that overflow, in the stack
        stacked = _accepted(protocol._check_unit_ball, b[None])
    for given_as in (b, b.tolist()):
        assert _accepted(protocol.QubitState, given_as) == stacked
    if stacked:
        kept = protocol.QubitState(b).bloch
        assert kept.tobytes() == np.array(b, dtype=float).tobytes()  # signed zeros too


def _ratio_masks():
    """The tomography ratio's five masks over the output stage's sector,
    read from occupations: A0+ and A1+ with B0, with B1, alone, with A0-
    and with A1-."""
    configs = fock.combination_table(len(OUTPUT_MODES), 3)[1]
    extras = (("B0",), ("B1",), (), ("A0-",), ("A1-",))
    return [fock.occupations(OUTPUT_MODES, configs, ("A0+", "A1+") + x).all(axis=1) for x in extras]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=1).flatmap(
        lambda lead: st.lists(real, min_size=20 * math.prod(lead), max_size=20 * math.prod(lead))
        .map(lambda values: np.array(values).reshape((*lead, 20)))
    )
)
def test_mask_tables_sum_as_their_masks(probs):
    # one mass over a table is, row by row, the mass of the row's mask
    clicked = protocol._clicked
    tables = [
        (protocol._masses, protocol._outcome_table(), [clicked(x) for x in ALL_OUTCOMES]),
        (protocol._masses, protocol._padded_table(_ratio_masks()), _ratio_masks()),
        (
            fock.mass,
            np.array([protocol._bob_columns(x) for x in PAIRED_OUTCOMES]),
            [clicked(x) for x in PAIRED_OUTCOMES],
        ),
    ]
    with np.errstate(all="ignore"):
        for masses, table, masks in tables:
            got = masses(probs, table)
            assert got.shape == probs.shape[:-1] + (len(masks),)
            for row, mask in enumerate(masks):
                _assert_same_sums(got[..., row], fock.mass(probs, mask))


# --- the array passes behind verify's grid criteria ---

# signed zeros, subnormals, the largest floats and non-finite values, and
# floats of any size: |a|^2 must square libm's hypot of every one of them
square_edge = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e154, 1.7976931348623157e308, math.inf, math.nan)
)
amplitude = st.builds(complex, square_edge | st.floats(), square_edge | st.floats())


def _libm_hypot(a: complex) -> float:
    """libm's hypot of a complex's parts, through Python's abs of a finite one."""
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        # inf if a part is inf, else NaN, as C99 has it; abs would read a
        # stale errno here and raise after an earlier overflow
        return math.hypot(a.real, a.imag)
    try:
        return abs(a)
    except OverflowError:  # Python raises where hypot gives inf
        return math.inf


@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
@given(
    st.lists(st.integers(1, 3), max_size=2).flatmap(
        lambda shape: st.lists(amplitude, min_size=math.prod(shape), max_size=math.prod(shape))
        .map(lambda values: np.array(values).reshape(shape))
    )
)
# libm's pow rounds h ** 2 to 0.7162407488178585 here; h * h is 0.7162407488178584
@example(np.array([complex(0.5353090084702862, -0.6555036340619459)]))
# h overflows to inf, then a NaN part after it
@example(np.array([complex(1.7976931348623157e308, 1e308), complex(0.0, math.nan)]))
def test_probabilities_square_libm_hypot(amps):
    # h is Python's abs of a complex, libm's hypot, which np.hypot calls too;
    # math.hypot is not that function and differs from it in the last bit
    # for about one element in 200 of normal size
    want = []
    for a in amps.ravel().tolist():
        h = _libm_hypot(a)
        want.append(h * h)
    with np.errstate(over="ignore"):
        got = fock.probabilities(amps)
        # a real array is squared as a complex one with zero imaginary parts
        real = fock.probabilities(amps.real)
        _assert_same_sums(real, fock.probabilities(amps.real + 0j))
    # NaN compares equal to NaN: libm and numpy may give it another payload
    _assert_same_sums(got, np.array(want).reshape(amps.shape))


bloch_pair = st.tuples(
    st.tuples(component, component, component), st.tuples(component, component, component)
).filter(lambda pair: all(math.hypot(*r) <= 1.0 for r in pair))


@settings(max_examples=50, deadline=None)
@given(st.lists(bloch_pair, min_size=1, max_size=6))
@example([((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), ((-0.0, 0.0, 0.0), (0.0, -0.0, 0.0))])
def test_stacked_fidelities_equal_scalar_calls(pairs):
    # each row of a stacked call rounds as the scalar call of its two vectors,
    # which returns a Python float
    r, r_prime = (np.array(side) for side in zip(*pairs))
    stacked = protocol.jozsa_fidelity(r, r_prime)
    assert stacked.shape == (len(pairs),)
    for row, (a, b) in zip(stacked.tolist(), pairs):
        single = protocol.jozsa_fidelity(np.array(a), np.array(b))
        assert type(single) is float
        assert np.float64(row).tobytes() == np.float64(single).tobytes()
    broadcast = protocol.jozsa_fidelity(r, r_prime[0])
    assert broadcast.tobytes() == protocol.jozsa_fidelity(r, r_prime[:1]).tobytes()


@settings(max_examples=200, deadline=None)
@given(bloch_pair, st.booleans(), st.booleans())
@example(((0.768221994155545, 0.3908948981016021, -0.5069873236421362),) * 2, False, False)
@example(((0.768221994155545, 0.3908948981016021, -0.5069873236421362),
          (-0.768221994155545, -0.3908948981016021, 0.5069873236421362)), False, False)
def test_fidelity_lies_in_the_unit_interval(pair, on_sphere, alike):
    # a vector against itself has fidelity 1 up to rounding, which must not
    # carry it past 1, even for a unit vector whose squares add up to a
    # rounding above 1; and no pair of the unit ball falls below 0
    r, r_prime = (np.array(v) for v in pair)
    if on_sphere and r.any():
        r = r / math.hypot(*r)
    if alike:
        r_prime = r
    assert 0.0 <= protocol.jozsa_fidelity(r, r_prime) <= 1.0


reference_point = st.tuples(edge_unit, signed_zero | angle, edge_unit, signed_zero | angle)


@settings(max_examples=50, deadline=None)
@given(st.lists(reference_point, min_size=1, max_size=5))
@example([(0.0, -0.0, 1.0, 0.0), (1.0, 0.0, -0.0, -0.0), (-0.0, 2.0 * math.pi, 0.0, math.pi)])
# sqrt(D') sin(theta) underflows: a fused complex multiply would give -0.0
@example([(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.144338327935996e-285, 1.144338327935996e-285)])
def test_broadcast_references_equal_point_calls(points):
    # the literal matrix, the correlator tables and the input Bloch vectors
    # over a grid hold, point for point, the bytes of their one-point calls
    R, phi, Dp, theta = map(np.array, zip(*points))
    grid = reference_network_matrix(R[:, None], phi[None, :], Dp[:, None], theta[None, :])
    assert grid.shape == (len(points), len(points), 6, 6)
    blochs = protocol.input_bloch_grid(R[:, None], phi[None, :])
    tables = {s: leviton.reference_correlators(R[:, None], phi[None, :], s) for s in "XYZ"}
    for i, j in itertools.product(range(len(points)), repeat=2):
        r, p, dp, th = R[i].item(), phi[j].item(), Dp[i].item(), theta[j].item()
        assert grid[i, j].tobytes() == reference_network_matrix(r, p, dp, th).tobytes()
        params = TeleportParams(r, p)
        assert blochs[i, j].tobytes() == protocol.input_bloch(params).tobytes()
        for setting, table in tables.items():
            single = leviton.reference_correlators(r, p, setting).values
            assert table.values[i, j].tobytes() == single.tobytes(), setting


def _written_out_drq_checks(params):
    """`protocol.drq_projection_checks` built afresh at each call: the
    sector's masks from its configurations, and the Bell Gram matrix and
    Alice's six projected POVM elements at every point."""
    prepared = FockState(
        PREPARED_MODES, 3, protocol.premeasurement_amplitudes("preparation", params.R, params.phi)
    )
    _, configs = fock.combination_table(len(PREPARED_MODES), 3)
    occ = fock.occupations(PREPARED_MODES, configs, PREPARED_MODES.labels)
    dual = (occ[:, 0::2] + occ[:, 1::2] == 1).all(axis=1)

    def sector_weight(crossed):
        return prepared.mass(dual & ((occ[:, 0] != occ[:, 2]) == crossed))

    report = {
        "dual_rail_weight": prepared.mass(dual),
        "crossed_sector_weight": sector_weight(True),
        "aligned_sector_weight": sector_weight(False),
    }
    registry = ModeRegistry(("A0", "A1", "B0p", "B1p"))
    bells = protocol.bell_states(registry, ("A0", "A1"), ("B0p", "B1p"))
    basis = np.column_stack([state.amps for state in bells.values()])
    gram = basis.conj().T @ basis
    report["bell_gram_max_dev"] = float(np.max(np.abs(gram - np.eye(len(bells)))))
    for name, term in protocol.bell_decomposition_terms(params).items():
        literal = "_literal" if name in ("sigma_x", "i_sigma_y") else ""
        report[f"overlap_modulus_{name}{literal}"] = abs(term.overlap(prepared))
    elements, projector, bells_aa = protocol._povm_in_prepared_basis()
    psi_m, psi_p = bells_aa["psi-"], bells_aa["psi+"]
    phi_sum = bells_aa["phi+"] + bells_aa["phi-"]
    phi_diff = bells_aa["phi+"] - bells_aa["phi-"]
    targets = {
        "1010": psi_m, "0101": psi_m, "1001": psi_p, "0110": psi_p,
        "1100": phi_sum, "0011": phi_diff,
    }
    report["povm_dual_rail_max_dev"] = max(
        float(np.max(np.abs(projector @ elements[k] @ projector - 0.5 * np.outer(v, v.conj()))))
        for k, v in targets.items()
    )
    return report


@settings(max_examples=50, deadline=None)
@given(signed_zero | st.sampled_from((0.0, 1.0)) | unit, signed_zero | angle)
@example(0.5, 0.0)
@example(0.3, 1.2)
@example(0.8, 4.0)
@example(1.0, -0.0)
def test_drq_checks_equal_their_per_call_construction(R, phi):
    # the same keys in the same order, each value with the same bytes, the
    # parameter-free parts read from their once-per-process tables
    params = TeleportParams(R, phi)
    got = protocol.drq_projection_checks(params)
    want = _written_out_drq_checks(params)
    assert [(k, v.hex()) for k, v in got.items()] == [(k, v.hex()) for k, v in want.items()]


def _per_term_state(registry, terms):
    """`FockState.from_terms` reading each term's indices, configuration and
    reordering sign afresh."""
    amps, n = {}, None
    for coeff, labels in terms:
        idx = registry.indices(labels)
        if len(set(idx)) != len(idx):
            continue
        if n is None:
            n = len(idx)
        elif len(idx) != n:
            raise ValueError("terms with differing particle numbers")
        config = fock._config(idx)
        amps[config] = amps.get(config, 0.0) + coeff * fock._reorder_sign(idx)
    if n is None:
        raise ValueError("no terms given")
    _, sector = fock.combination_table(len(registry), n)
    return FockState(registry, n, [amps.get(c, 0.0) for c in sector.tolist()])


def _built(build, registry, terms):
    """A built state's registry, particle number and amplitude bytes, or the
    type and message of the error it raised."""
    try:
        state = build(registry, terms)
    except Exception as exc:  # compared, whatever it is
        return type(exc), str(exc)
    return state.registry, state.particle_number, state.amps.tobytes()


@st.composite
def creation_terms(draw):
    """A registry and (coefficient, labels) terms over it: labels repeat,
    an unknown label "zz" turns up now and then, and half the lists mix
    particle numbers."""
    registry = draw(st.sampled_from((ModeRegistry(("m0", "m1", "m2", "m3")), DETECTION_MODES)))
    label = st.sampled_from(registry.labels * 5 + ("zz",))
    n = draw(st.integers(0, 3))
    size = st.integers(0, 3) if draw(st.booleans()) else st.just(n)
    labels = size.flatmap(lambda k: st.lists(label, min_size=k, max_size=k))
    coeff = st.sampled_from((0j, 1e-15, -1e-15 + 0j)) | st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    return registry, draw(st.lists(st.tuples(coeff, labels), max_size=6))


@settings(max_examples=100, deadline=None)
@given(creation_terms())
@example((DETECTION_MODES, []))
@example((DETECTION_MODES, [(1.0, ["A0+", "A0+"]), (0.5, ["B1p", "A0-"]), (0.5, ["A0-", "B1p"])]))
@example((DETECTION_MODES, [(1.0, ["A0+", "zz"])]))
@example((DETECTION_MODES, [(1.0, ["A0+", "B0p"]), (1.0, ["A1+"])]))
@example((DETECTION_MODES, [(1.0, ["A0+", "A0+"]), (1.0, ["A1+"])]))
def test_from_terms_equals_the_per_term_path(case):
    # the same state, or the same error, as each term read afresh, on a
    # first call and on a second that reads the table
    registry, terms = case
    want = _built(_per_term_state, registry, terms)
    assert _built(FockState.from_terms, registry, terms) == want
    assert _built(FockState.from_terms, registry, terms) == want
