"""Invariants of the teleportation network over random parameters."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eteleport import circuit, protocol, saw  # noqa: E402
from eteleport.fock import INPUT_MODES, create_sources, lift_apply  # noqa: E402
from eteleport.protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, TeleportParams  # noqa: E402

angle = st.floats(-2.0 * math.pi, 2.0 * math.pi)
point = st.tuples(
    st.floats(0.0, 1.0), angle, st.tuples(*[angle] * len(circuit.ARM_WIRES))
)


@settings(max_examples=50, deadline=None)
@given(point)
def test_network_invariants(point):
    R, phi, arms = point
    params = TeleportParams(R, phi)
    arm_phases = dict(zip(circuit.ARM_WIRES, arms))
    sources = create_sources(INPUT_MODES, protocol.SOURCE_LABELS)
    for view in (
        circuit.preparation_network(R, phi),
        circuit.detection_network(R, phi, arm_phases),
        circuit.builtin_teleport_network(R, phi, 0.5, phi),
    ):
        assert abs(lift_apply(view, sources).norm() - 1.0) < 1e-12

    state = protocol.run_premeasurement(params, "detection")
    probs = {x: protocol.povm_element(x).expectation(state) for x in ALL_OUTCOMES}
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    for x in PAIRED_OUTCOMES:
        assert abs(probs[x] - 1.0 / 16.0) < 1e-12

    p, qubit = protocol.conditional_with_arm_phases(params, arm_phases)
    assert abs(p - 1.0 / 16.0) < 1e-12
    expected = saw.fixed_phase_state(params, saw.combined_phase(arm_phases))
    assert np.max(np.abs(qubit.rho - expected.rho)) < 1e-10
