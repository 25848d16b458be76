import math

import numpy as np
import pytest

from eteleport import acceptance, circuit, fock, leviton, protocol
from eteleport.fock import DETECTION_MODES, combination_table
from eteleport.protocol import (
    ALL_OUTCOMES,
    PAIRED_OUTCOMES,
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    apply_feedforward,
    bob_conditional,
    drq_projection_checks,
    efficiency,
    input_bloch,
    povm_element,
    run_premeasurement,
    tomography_bloch,
)

PP = MeasurementOutcome.from_signs("+", "+")
PM = MeasurementOutcome.from_signs("+", "-")
MP = MeasurementOutcome.from_signs("-", "+")
MM = MeasurementOutcome.from_signs("-", "-")


# --- parameters and outcomes ---

def test_params_validation():
    with pytest.raises(ValueError):
        TeleportParams(1.2, 0.0)


def test_outcome_labels():
    assert PP.label == "++" and MM.label == "--"
    assert MeasurementOutcome((1, 1, 0, 0)).label == "1100"
    assert PP.is_paired and not MeasurementOutcome((1, 1, 0, 0)).is_paired


# --- premeasurement state ---

def test_branch_overlaps():
    for r, phi in ((0.5, 0.0), (0.3, 1.2)):
        params = TeleportParams(r, phi)
        state = run_premeasurement(params)
        t = protocol.teleporting_branch(params)
        rb = protocol.failing_branch(params)
        assert abs(t.norm() - 1.0) < 1e-12
        assert abs(rb.norm() - 1.0) < 1e-12
        assert abs(t.overlap(rb)) < 1e-12
        assert abs(t.overlap(state)) == pytest.approx(0.5, abs=1e-10)
        assert abs(rb.overlap(state)) == pytest.approx(math.sqrt(3) / 2, abs=1e-10)


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        protocol.premeasurement_amplitudes("later", 0.5, 0.0)


# --- POVM ---

def test_povm_weights_are_binary_and_complete():
    state = run_premeasurement(TeleportParams(0.42, 2.0))
    total = 0.0
    for outcome in ALL_OUTCOMES:
        element = povm_element(outcome)
        weights = element.clicked(state.registry, state.particle_number).astype(float)
        assert set(weights.tolist()) <= {0.0, 1.0}
        total += element.expectation(state)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert protocol.povm_completeness_defect() == 0.0


def test_povm_expectation_equals_bit_loop_reference():
    state = run_premeasurement(TeleportParams(0.42, 2.0))
    idx = state.registry.indices(protocol.DETECTOR_LABELS)
    configs = combination_table(len(state.registry), 3)[1].tolist()
    for outcome in ALL_OUTCOMES:
        total = 0.0
        for config, amp in zip(configs, state.amps.tolist()):
            if all((config >> i) & 1 == j for i, j in zip(idx, outcome.bits)):
                total += abs(amp) ** 2
        assert povm_element(outcome).expectation(state) == total


def test_povm_annihilates_wrong_click():
    element = povm_element(MeasurementOutcome((1, 0, 1, 0)))
    config = sum(1 << DETECTION_MODES.index(lab) for lab in ("A0+", "A0-", "A1+"))
    _, sector = combination_table(len(DETECTION_MODES), 3)
    assert not element.clicked(DETECTION_MODES, 3)[sector.tolist().index(config)]


# --- probabilities and conditioning ---

def test_nan_configuration_reaches_its_outcome_only():
    # each outcome adds only its own configurations: a NaN amplitude in one
    # configuration of the first row turns the outcome that keeps it into
    # NaN, and every other outcome, the second row and every paired
    # conditional that excludes it keep their finite-input bytes
    R, phi = np.array([0.3, 0.8]), np.array([1.2, -2.0])
    amps = protocol.premeasurement_amplitudes("detection", R, phi)
    probs = protocol.outcome_probabilities(amps)
    conditionals = {x: protocol.conditional_qubits(amps, x) for x in PAIRED_OUTCOMES}
    for config in range(amps.shape[-1]):
        broken = amps.copy()
        broken[0, config] = complex(math.nan, math.nan)
        hit = [protocol._clicked(x)[config] for x in ALL_OUTCOMES].index(True)
        got = protocol.outcome_probabilities(broken)
        assert math.isnan(got[0, hit])
        spared = np.ones(got.shape, dtype=bool)
        spared[0, hit] = False
        assert got[spared].tobytes() == probs[spared].tobytes()
        for outcome, finite in conditionals.items():
            if outcome != ALL_OUTCOMES[hit]:
                got = protocol.conditional_qubits(broken, outcome)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in finite]


def test_paired_probabilities_quarter_each():
    for r, phi in ((0.5, 0.0), (0.0, 0.3), (1.0, 2.0), (0.7, 5.5)):
        state = run_premeasurement(TeleportParams(r, phi))
        for outcome in PAIRED_OUTCOMES:
            assert povm_element(outcome).expectation(state) == pytest.approx(
                1.0 / 16.0, abs=1e-12
            )


def test_full_outcome_distribution():
    # weights of all sixteen click patterns, derived from the branch
    # amplitudes: each of the four groups (paired, all-at-Alice,
    # single-click, double-click-plus-Bob) carries total mass 1/4
    params = TeleportParams(0.37, 2.3)
    r, d = params.R, params.D
    state = run_premeasurement(params)
    expected = {
        (1, 0, 1, 0): 1 / 16, (0, 1, 0, 1): 1 / 16,
        (1, 0, 0, 1): 1 / 16, (0, 1, 1, 0): 1 / 16,
        (1, 1, 1, 0): r / 8, (1, 1, 0, 1): r / 8,
        (1, 0, 1, 1): d / 8, (0, 1, 1, 1): d / 8,
        (1, 0, 0, 0): r / 8, (0, 1, 0, 0): r / 8,
        (0, 0, 1, 0): d / 8, (0, 0, 0, 1): d / 8,
        (1, 1, 0, 0): r / 4, (0, 0, 1, 1): d / 4,
        (0, 0, 0, 0): 0.0, (1, 1, 1, 1): 0.0,
    }
    for bits, want in expected.items():
        got = povm_element(MeasurementOutcome(bits)).expectation(state)
        assert got == pytest.approx(want, abs=1e-12)


def test_conditional_state_matches_prepared_input():
    params = TeleportParams(0.3, 1.2)
    state = bob_conditional(params, PP)
    assert isinstance(state, QubitState)
    assert np.max(np.abs(state.bloch - input_bloch(params))) < 1e-10
    same = bob_conditional(params, MM)
    assert np.max(np.abs(same.rho - state.rho)) < 1e-10


def test_sign_flip_outcomes():
    params = TeleportParams(0.3, 1.2)
    reference = input_bloch(params)
    for outcome in (PM, MP):
        flipped = bob_conditional(params, outcome).bloch
        assert np.max(
            np.abs(flipped - np.array([-reference[0], -reference[1], reference[2]]))
        ) < 1e-10


def test_feedforward_restores_input():
    params = TeleportParams(0.61, 0.9)
    reference = input_bloch(params)
    for outcome in PAIRED_OUTCOMES:
        corrected = apply_feedforward(bob_conditional(params, outcome), outcome)
        assert np.max(np.abs(corrected.bloch - reference)) < 1e-10


def test_feedforward_negates_the_coherences_exactly():
    # at R = 1 the coherences are exact zeros: their signs flip too, so the
    # printed digits do not depend on how a matrix product adds zeros
    off_diagonal = np.array([[False, True], [True, False]])
    for params in (TeleportParams(0.61, 0.9), TeleportParams(1.0, 0.3)):
        for outcome in (PM, MP):
            state = bob_conditional(params, outcome)
            want = np.where(off_diagonal, np.negative(state.rho), state.rho)
            assert apply_feedforward(state, outcome).rho.tobytes() == want.tobytes()


def bob_occupations(params, bits):
    """Probability of a click pattern, and Bob's joint (n_B'0, n_B'1)
    occupations over the configurations it keeps with nonzero amplitude,
    each with its conditional probability."""
    state = run_premeasurement(params)
    clicked = povm_element(MeasurementOutcome(bits)).clicked(state.registry, 3)
    p = state.mass(clicked)
    kept = clicked & (state.amps != 0)
    configs = combination_table(len(state.registry), 3)[1]
    occ = fock.occupations(state.registry, configs[kept], ("B0p", "B1p"))
    dist = {}
    for key, q in zip(map(tuple, occ.tolist()), state.probabilities[kept].tolist()):
        dist[key] = dist.get(key, 0.0) + q / p
    return p, dist


def test_double_click_leaves_definite_mode():
    params = TeleportParams(0.3, 1.2)
    p, occupations = bob_occupations(params, (1, 1, 0, 0))
    # both A0 detectors firing routes the remaining electron to B'1,
    # with weight R/4
    assert p == pytest.approx(params.R / 4.0, abs=1e-12)
    assert set(occupations) == {(0, 1)}
    assert occupations[(0, 1)] == pytest.approx(1.0, abs=1e-12)


def test_three_clicks_leave_bob_empty():
    _, occupations = bob_occupations(TeleportParams(0.3, 1.2), (1, 1, 1, 0))
    assert set(occupations) == {(0, 0)}


def test_one_click_gives_bob_two_electrons():
    _, occupations = bob_occupations(TeleportParams(0.3, 1.2), (1, 0, 0, 0))
    assert set(occupations) == {(1, 1)}


def test_impossible_outcome_raises():
    params = TeleportParams(0.3, 1.2)
    for bits in ((0, 0, 0, 0), (1, 1, 1, 1)):
        with pytest.raises(ValueError):
            bob_conditional(params, MeasurementOutcome(bits))
    # possible, but not one click per pair: a failed run leaves Bob no qubit
    with pytest.raises(ValueError, match="does not leave Bob a qubit"):
        bob_conditional(params, MeasurementOutcome((1, 1, 0, 0)))


def test_conditional_errors_are_not_kept_with_the_point(monkeypatch):
    # rows whose ++ pattern has probability zero: ++ raises on every call,
    # and the other three outcomes keep the vectors of the physical rows
    params = TeleportParams(0.3, 1.2)
    want = {x: bob_conditional(params, x).bloch.tobytes() for x in PAIRED_OUTCOMES}
    rows = protocol._form_rows
    clicked = povm_element(PP).clicked(DETECTION_MODES, 3)

    def without_pp(stage):
        form = rows(stage).copy()
        form[:, protocol._Z_ROW, clicked] = 0.0
        return form

    monkeypatch.setattr(protocol, "_form_rows", without_pp)
    protocol._table.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ValueError, match=r"outcome \+\+ has probability zero"):
                bob_conditional(params, PP)
            with pytest.raises(ValueError, match="outcome 1100 does not leave Bob a qubit"):
                bob_conditional(params, MeasurementOutcome((1, 1, 0, 0)))
            for outcome in PAIRED_OUTCOMES:
                if outcome != PP:
                    assert bob_conditional(params, outcome).bloch.tobytes() == want[outcome]
    finally:
        protocol._table.cache_clear()


# --- efficiency ---

def test_efficiency_values():
    assert efficiency(True) == pytest.approx(0.25, abs=1e-12)
    assert efficiency(False) == pytest.approx(0.125, abs=1e-12)


def test_efficiency_parameter_independent():
    values_ff = []
    values_plain = []
    for r in np.linspace(0.0, 1.0, 5):
        for phi in np.linspace(0.0, 2 * math.pi, 5):
            params = TeleportParams(r, phi)
            values_ff.append(efficiency(True, params))
            values_plain.append(efficiency(False, params))
    assert max(values_ff) - min(values_ff) < 1e-12
    assert max(values_plain) - min(values_plain) < 1e-12


# --- tomography ---

def test_tomography_balanced_input():
    assert np.max(
        np.abs(tomography_bloch(TeleportParams(0.5, 0.0)) - np.array([0.0, -1.0, 0.0]))
    ) < 1e-10


def test_tomography_north_pole():
    for phi in (0.0, 1.0, 4.5):
        assert np.max(
            np.abs(tomography_bloch(TeleportParams(1.0, phi)) - np.array([0.0, 0.0, 1.0]))
        ) < 1e-10


def test_tomography_matches_closed_form():
    params = TeleportParams(0.3, 1.2)
    assert np.max(np.abs(tomography_bloch(params) - input_bloch(params))) < 1e-10


def test_tomography_matches_conditional_state():
    for r in (0.2, 0.5, 0.8):
        for phi in (0.4, 2.8):
            params = TeleportParams(r, phi)
            direct = bob_conditional(params, PP).bloch
            assert np.max(np.abs(tomography_bloch(params) - direct)) < 1e-10


# --- qubit state validation ---

def test_qubit_state_rejects_bad_matrices():
    # the builder takes a Bloch vector: three finite reals in the unit ball
    for bad in (
        [0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [[0.0, 0.0, 1.0]],
        [0.0, 0.0, 1j],
        np.zeros(3, dtype=complex),
        ["0", "0", "1"],
        "001",
        [math.nan, 0.0, 0.0],
        [0.0, 0.0, 1.0 + 1e-11],
        [0.6, 0.8, 1e-5],
        np.array([False, False, True]),
        [0.0, -math.inf, 0.0],
        None,
    ):
        with pytest.raises(ValueError):
            QubitState(bad)
    for edge in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.0, 0.8]):
        assert QubitState(edge).bloch.tolist() == edge


def test_qubit_state_holds_a_read_only_copy():
    given = np.array([0.6, 0.0, 0.8])
    state = QubitState(given)
    given[0] = 0.0
    assert state.bloch.tolist() == [0.6, 0.0, 0.8]
    with pytest.raises(ValueError):
        state.bloch[0] = 0.0


def test_bloch_of_pure_state():
    amps = np.zeros((1, 20), dtype=complex)
    amps[0, list(protocol._bob_columns(PP))] = 1.0
    _, bloch = protocol.conditional_qubits(amps, PP)
    assert np.max(np.abs(bloch[0] - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_input_qubit_matches_closed_form_bloch():
    for r, phi in ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.3, 4.4)):
        params = TeleportParams(r, phi)
        amps = np.zeros((1, 20), dtype=complex)
        amps[0, list(protocol._bob_columns(PP))] = protocol.input_amplitudes(params)
        (qubit,) = protocol.conditional_qubits(amps, PP)[1]
        assert np.max(np.abs(qubit - input_bloch(params))) < 1e-12


# --- dual-rail structure ---

def test_prepared_masks_partition_the_dual_rail_mask():
    # the crossed configurations (A' and A particles on opposite rails) and
    # the aligned ones (the same rail) split the dual-rail ones; both sectors
    # weigh 1/4 with the same bytes, so criterion 4 cannot tell them apart
    dual, crossed, aligned = protocol._prepared_masks()
    assert not (crossed & aligned).any()
    assert ((crossed | aligned) == dual).all()
    assert np.flatnonzero(crossed).tolist() == [7, 8, 11, 12]
    assert np.flatnonzero(aligned).tolist() == [5, 6, 13, 14]


def test_drq_projection_report():
    params = TeleportParams(0.3, 1.2)
    report = drq_projection_checks(params)
    quarter_turn = 1.0 / (2.0 * math.sqrt(2.0))
    assert report["dual_rail_weight"] == pytest.approx(0.5, abs=1e-12)
    assert report["crossed_sector_weight"] == pytest.approx(0.25, abs=1e-12)
    assert report["aligned_sector_weight"] == pytest.approx(0.25, abs=1e-12)
    assert report["bell_gram_max_dev"] < 1e-12
    assert report["overlap_modulus_identity"] == pytest.approx(quarter_turn, abs=1e-12)
    assert report["overlap_modulus_sigma_z"] == pytest.approx(quarter_turn, abs=1e-12)
    # literal aligned-rail products pick up occupation-ordering signs and
    # overlap with weight |R - D|/(2 sqrt 2) instead
    expected_literal = abs(params.R - params.D) * quarter_turn
    assert report["overlap_modulus_sigma_x_literal"] == pytest.approx(
        expected_literal, abs=1e-12
    )
    assert report["overlap_modulus_i_sigma_y_literal"] == pytest.approx(
        expected_literal, abs=1e-12
    )
    assert report["povm_dual_rail_max_dev"] < 1e-12
    # the parameter-free POVM basis is built once and shared read-only
    elements, projector, bells = protocol._povm_in_prepared_basis()
    assert protocol._povm_in_prepared_basis()[1] is projector
    for array in (*elements.values(), projector, *bells.values()):
        assert not array.flags.writeable


# --- one launch per network of a point, tables built once ---

def _exact_point(R, phi, arms):
    """One point through every exact route, in the order the exact-sweep
    benchmark operation takes them."""
    params = TeleportParams(R, phi)
    state = run_premeasurement(params)
    for outcome in ALL_OUTCOMES:
        povm_element(outcome).expectation(state)
    for outcome in PAIRED_OUTCOMES:
        apply_feedforward(bob_conditional(params, outcome), outcome)
    tomography_bloch(params)
    leviton.reconstructed_bloch({s: leviton.zero_T_correlators(R, phi, s) for s in "XYZ"})
    protocol.conditional_with_arm_phases(params, arms)


def _count_networks(monkeypatch) -> tuple[list, list]:
    """The descriptions composed and the determinant stacks taken from now on."""
    compose, calls = circuit.compose, []
    monkeypatch.setattr(circuit, "compose", lambda d: calls.append(d) or compose(d))
    det, dets = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(np.shape(a)) or det(a))
    return calls, dets


def test_exact_point_composes_no_network(monkeypatch):
    # the detection stage is the Z row of the tomography stage's linear
    # form, and every observable, the state with arm phases among them, is
    # read from the coefficient table built from the same rows: they come
    # from one network, composed on first use without a phase element, and
    # no point composes a network or takes a determinant after that
    calls, dets = _count_networks(monkeypatch)
    protocol._form_rows.cache_clear()
    protocol._table.cache_clear()
    arms = dict(zip(circuit.ARM_WIRES, (0.1, -0.2, 0.3, 0.4, -0.5, 0.6)))
    _exact_point(0.37, 2.9, arms)
    assert [d.elements[-1].kind for d in calls] == ["tomo"]
    assert all(element.kind != "phase" for d in calls for element in d.elements)
    built = len(dets)
    for R, phi in ((0.37, 2.9), (0.81, -1.3), (1.0, 0.0), (0.0, -0.0)):
        _exact_point(R, phi, arms)
    assert len(calls) == 1 and len(dets) == built


@pytest.mark.parametrize("number", [7, 8])
def test_correlator_criterion_composes_no_network(monkeypatch, number):
    # the 25-point grid at all three settings is the tomography stage's
    # linear form: once its rows exist, no network and no determinant
    protocol._form_rows("tomography")
    calls, dets = _count_networks(monkeypatch)
    assert acceptance.ALL_CRITERIA[number - 1].run().passed
    assert calls == [] and dets == []


def test_cached_tables_are_read_only():
    tables = [
        povm_element(PP).clicked(DETECTION_MODES, 3),
        protocol._outcome_table(),
        *protocol._table(),
        circuit._SYM_BLOCK,
        protocol._SETTINGS,
        protocol._form_rows("preparation"),
        protocol._form_rows("tomography"),
    ]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    first, again = (circuit.teleport_layers(0.3, 1.2, 0.5, 0.0, None) for _ in range(2))
    assert first["alice"] is again["alice"] and first["prep"][0] is again["prep"][0]
