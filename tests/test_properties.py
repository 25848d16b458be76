"""Invariants of the teleportation network, the Leviton drive and the
phase-damping fidelity over random parameters."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eteleport import circuit, leviton, protocol, saw  # noqa: E402
from eteleport.acceptance import reference_network_matrix  # noqa: E402
from eteleport.fock import INPUT_MODES, create_sources, lift_apply  # noqa: E402
from eteleport.protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, TeleportParams  # noqa: E402

angle = st.floats(-2.0 * math.pi, 2.0 * math.pi)
unit = st.floats(0.0, 1.0)
point = st.tuples(unit, angle, st.tuples(*[angle] * len(circuit.ARM_WIRES)), unit, angle)


@settings(max_examples=50, deadline=None)
@given(point)
def test_network_invariants(point):
    R, phi, arms, Dp, theta = point
    params = TeleportParams(R, phi)
    arm_phases = dict(zip(circuit.ARM_WIRES, arms))
    sources = create_sources(INPUT_MODES, protocol.SOURCE_LABELS)
    full = circuit.builtin_teleport_network(R, phi, Dp, theta)
    for view in (
        circuit.preparation_network(R, phi),
        circuit.detection_network(R, phi, arm_phases),
        full,
    ):
        assert abs(lift_apply(view, sources).norm() - 1.0) < 1e-12
    assert np.max(np.abs(full.matrix - reference_network_matrix(R, phi, Dp, theta))) < 1e-12

    state = protocol.run_premeasurement(params, "detection")
    probs = {x: protocol.povm_element(x).expectation(state) for x in ALL_OUTCOMES}
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    for x in PAIRED_OUTCOMES:
        assert abs(probs[x] - 1.0 / 16.0) < 1e-12

    p, qubit = protocol.conditional_with_arm_phases(params, arm_phases)
    assert abs(p - 1.0 / 16.0) < 1e-12
    expected = saw.fixed_phase_state(params, saw.combined_phase(arm_phases))
    assert np.max(np.abs(qubit.rho - expected.rho)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-3, 2.0))
def test_oracle_matches_closed_form_amplitudes(gamma):
    n_values = range(-5, 21)
    oracle = leviton.photoassist_spectrum_oracle(n_values, gamma)
    closed = np.array([leviton.photoassist_amplitude(n, gamma) for n in n_values])
    assert np.max(np.abs(oracle - closed)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.5), st.floats(0.0, 10.0))
def test_thermal_damping_and_fidelity_bounds(gamma, tau):
    params = leviton.LevitonParams(gamma, tau)
    assert 0.0 < leviton.thermal_factors(params).damping <= 1.0 + 1e-9
    assert 2.0 / 3.0 <= leviton.leviton_fidelity(params) <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 20.0))
def test_average_fidelity_bounds(sigma2):
    assert 2.0 / 3.0 <= saw.average_fidelity(sigma2) <= 1.0
