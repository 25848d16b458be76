"""On-demand teleportation of dual-rail single-electron qubits.

Sparse fermionic Fock simulation of the six-mode teleportation network,
the ideal protocol's probabilities and conditional states, Gaussian
phase-damping of the acoustically transported implementation, and the
finite-temperature correlator tomography of the periodically driven one.
"""

from .circuit import (
    CircuitDescription,
    CircuitSyntaxError,
    ElementSpec,
    compose,
    element_matrix,
    format_circuit,
    parse_circuit,
    phase_shift,
    prep_splitter,
    sym_splitter,
    teleport_network,
    tomo_splitter,
)
from .fock import (
    DETECTION_MODES,
    INPUT_MODES,
    OUTPUT_MODES,
    PREPARED_MODES,
    FockState,
    ModeRegistry,
    SingleParticleUnitary,
    create_sources,
    lift_matrix,
)
from .leviton import (
    CorrelatorTable,
    LevitonParams,
    SeriesConvergenceError,
    ThermalFactors,
    bloch_from_correlators,
    fidelity_curve,
    finite_T_correlators,
    leviton_fidelity,
    photoassist_amplitude,
    reconstructed_bloch,
    reference_correlators,
    thermal_factors,
    zero_T_correlators,
)
from .protocol import (
    ALL_OUTCOMES,
    PAIRED_OUTCOMES,
    TOMO_SETTINGS,
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    apply_feedforward,
    bob_conditional,
    drq_projection_checks,
    efficiency,
    input_bloch,
    povm_element,
    premeasurement_amplitudes,
    run_premeasurement,
    tomography_bloch,
)
from .saw import (
    DephasingParams,
    average_fidelity,
    dephased_state_analytic,
    dephased_state_montecarlo,
    jozsa_fidelity,
)

__version__ = "0.1.0"
