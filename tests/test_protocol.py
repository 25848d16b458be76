import math

import numpy as np
import pytest

from eteleport import circuit, protocol
from eteleport.fock import DETECTION_MODES, OUTPUT_MODES, SingleParticleUnitary, lift_apply
from eteleport.protocol import (
    ALL_OUTCOMES,
    PAIRED_OUTCOMES,
    MeasurementOutcome,
    NonQubitReport,
    QubitState,
    TeleportParams,
    apply_feedforward,
    bob_conditional,
    drq_projection_checks,
    efficiency,
    input_bloch,
    outcome_probability,
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
    with pytest.raises(ValueError):
        TeleportParams(0.5, 0.0, setting="W")


def test_outcome_labels():
    assert PP.label == "++" and MM.label == "--"
    assert MeasurementOutcome((1, 1, 0, 0)).label == "1100"
    assert PP.is_paired and not MeasurementOutcome((1, 1, 0, 0)).is_paired


def test_setting_map():
    assert TeleportParams(0.5, 0.0, "X").tomo_transmission == 0.5
    assert TeleportParams(0.5, 0.0, "X").tomo_theta == pytest.approx(math.pi / 2)
    assert TeleportParams(0.5, 0.0, "Y").tomo_theta == 0.0
    assert TeleportParams(0.5, 0.0, "Z").tomo_transmission == 1.0


# --- premeasurement state ---

def test_branch_overlaps():
    for r, phi in ((0.5, 0.0), (0.3, 1.2)):
        params = TeleportParams(r, phi)
        state = run_premeasurement(params, "detection")
        t = protocol.teleporting_branch(params)
        rb = protocol.failing_branch(params)
        assert abs(t.norm() - 1.0) < 1e-12
        assert abs(rb.norm() - 1.0) < 1e-12
        assert abs(t.overlap(rb)) < 1e-12
        assert abs(t.overlap(state)) == pytest.approx(0.5, abs=1e-10)
        assert abs(rb.overlap(state)) == pytest.approx(math.sqrt(3) / 2, abs=1e-10)


def test_stage_consistency():
    params = TeleportParams(0.3, 1.2, "X")
    before = run_premeasurement(params, "detection")
    after = run_premeasurement(params, "tomography")
    block = circuit.element_matrix(
        circuit.tomo_splitter("x", "y", params.tomo_transmission, params.tomo_theta)
    )
    embedded = np.eye(6, dtype=complex)
    embedded[4:, 4:] = block
    lifted = lift_apply(
        SingleParticleUnitary(embedded, OUTPUT_MODES, DETECTION_MODES), before
    )
    for config in set(after.amplitudes) | set(lifted.amplitudes):
        assert abs(
            after.amplitudes.get(config, 0.0) - lifted.amplitudes.get(config, 0.0)
        ) < 1e-12


def test_unknown_stage_rejected():
    with pytest.raises(ValueError):
        run_premeasurement(TeleportParams(0.5, 0.0), "later")


# --- POVM ---

def test_povm_weights_are_binary_and_complete():
    state = run_premeasurement(TeleportParams(0.42, 2.0), "detection")
    total = 0.0
    for outcome in ALL_OUTCOMES:
        element = povm_element(outcome)
        for config in state.amplitudes:
            assert element.weight(config, state.registry) in (0.0, 1.0)
        total += element.expectation(state)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert protocol.povm_completeness_defect() == 0.0


def test_povm_expectation_equals_bit_loop_reference():
    state = run_premeasurement(TeleportParams(0.42, 2.0), "detection")
    idx = state.registry.indices(protocol.DETECTOR_LABELS)
    for outcome in ALL_OUTCOMES:
        total = 0.0
        for config, amp in state.amplitudes.items():
            if all((config >> i) & 1 == j for i, j in zip(idx, outcome.bits)):
                total += abs(amp) ** 2
        assert povm_element(outcome).expectation(state) == total


def test_povm_annihilates_wrong_click():
    element = povm_element(MeasurementOutcome((1, 0, 1, 0)))
    config = sum(1 << DETECTION_MODES.index(lab) for lab in ("A0+", "A0-", "A1+"))
    assert element.weight(config, DETECTION_MODES) == 0.0


# --- probabilities and conditioning ---

def test_paired_probabilities_quarter_each():
    for r, phi in ((0.5, 0.0), (0.0, 0.3), (1.0, 2.0), (0.7, 5.5)):
        params = TeleportParams(r, phi)
        for outcome in PAIRED_OUTCOMES:
            assert outcome_probability(params, outcome) == pytest.approx(
                1.0 / 16.0, abs=1e-12
            )


def test_full_outcome_distribution():
    # weights of all sixteen click patterns, derived from the branch
    # amplitudes: each of the four groups (paired, all-at-Alice,
    # single-click, double-click-plus-Bob) carries total mass 1/4
    params = TeleportParams(0.37, 2.3)
    r, d = params.R, params.D
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
        got = outcome_probability(params, MeasurementOutcome(bits))
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


def test_double_click_leaves_definite_mode():
    params = TeleportParams(0.3, 1.2)
    report = bob_conditional(params, MeasurementOutcome((1, 1, 0, 0)))
    assert isinstance(report, NonQubitReport)
    # both A0 detectors firing routes the remaining electron to B'1,
    # with weight R/4
    assert report.probability == pytest.approx(params.R / 4.0, abs=1e-12)
    assert set(report.occupations) == {(0, 1)}
    assert report.occupations[(0, 1)] == pytest.approx(1.0, abs=1e-12)


def test_three_clicks_leave_bob_empty():
    report = bob_conditional(TeleportParams(0.3, 1.2), MeasurementOutcome((1, 1, 1, 0)))
    assert isinstance(report, NonQubitReport)
    assert set(report.occupations) == {(0, 0)}


def test_one_click_gives_bob_two_electrons():
    report = bob_conditional(TeleportParams(0.3, 1.2), MeasurementOutcome((1, 0, 0, 0)))
    assert isinstance(report, NonQubitReport)
    assert set(report.occupations) == {(1, 1)}


def test_impossible_outcome_raises():
    with pytest.raises(ValueError):
        bob_conditional(TeleportParams(0.3, 1.2), MeasurementOutcome((0, 0, 0, 0)))
    with pytest.raises(ValueError):
        bob_conditional(TeleportParams(0.3, 1.2), MeasurementOutcome((1, 1, 1, 1)))


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
    with pytest.raises(ValueError):
        QubitState(np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        QubitState(np.array([[0.9, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        QubitState(np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_bloch_of_pure_state():
    state = QubitState.from_pure(1.0, 1.0)
    assert np.max(np.abs(state.bloch - np.array([1.0, 0.0, 0.0]))) < 1e-12


def test_input_qubit_matches_closed_form_bloch():
    for r, phi in ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.3, 4.4)):
        params = TeleportParams(r, phi)
        assert np.max(np.abs(protocol.input_qubit(params).bloch - input_bloch(params))) < 1e-12


# --- dual-rail structure ---

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
