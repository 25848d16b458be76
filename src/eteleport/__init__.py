"""On-demand teleportation of dual-rail single-electron qubits.

Sparse fermionic Fock simulation of the six-mode teleportation network,
the ideal protocol's probabilities and conditional states, Gaussian
phase-damping of the acoustically transported implementation, and the
finite-temperature correlator tomography of the periodically driven one.

Importing the package loads none of its modules (and not numpy): each
exported name is looked up in `_EXPORTS` and its module imported on
first use (PEP 562), so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "CircuitDescription": "circuit",
    "CircuitSyntaxError": "circuit",
    "ElementSpec": "circuit",
    "compose": "circuit",
    "element_matrix": "circuit",
    "format_circuit": "circuit",
    "parse_circuit": "circuit",
    "phase_shift": "circuit",
    "prep_splitter": "circuit",
    "sym_splitter": "circuit",
    "teleport_network": "circuit",
    "tomo_splitter": "circuit",
    "DETECTION_MODES": "fock",
    "INPUT_MODES": "fock",
    "OUTPUT_MODES": "fock",
    "PREPARED_MODES": "fock",
    "FockState": "fock",
    "ModeRegistry": "fock",
    "SingleParticleUnitary": "fock",
    "create_sources": "fock",
    "lift_matrix": "fock",
    "CorrelatorTable": "leviton",
    "bloch_from_correlators": "leviton",
    "finite_T_correlators": "leviton",
    "photoassist_amplitude": "leviton",
    "reconstructed_bloch": "leviton",
    "reference_correlators": "leviton",
    "zero_T_correlators": "leviton",
    "ALL_OUTCOMES": "protocol",
    "PAIRED_OUTCOMES": "protocol",
    "TOMO_SETTINGS": "protocol",
    "MeasurementOutcome": "protocol",
    "QubitState": "protocol",
    "TeleportParams": "protocol",
    "apply_feedforward": "protocol",
    "bob_conditional": "protocol",
    "drq_projection_checks": "protocol",
    "efficiency": "protocol",
    "input_bloch": "protocol",
    "jozsa_fidelity": "protocol",
    "povm_element": "protocol",
    "premeasurement_amplitudes": "protocol",
    "run_premeasurement": "protocol",
    "tomography_bloch": "protocol",
    "DephasingParams": "saw",
    "dephased_state_analytic": "saw",
    "dephased_state_montecarlo": "saw",
    "LevitonParams": "scalar",
    "SeriesConvergenceError": "scalar",
    "ThermalFactors": "scalar",
    "average_fidelity": "scalar",
    "fidelity_curve": "scalar",
    "leviton_fidelity": "scalar",
    "thermal_factors": "scalar",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # found directly from now on
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
