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
    builtin_teleport_description,
    builtin_teleport_network,
    compose,
    detection_network,
    element_matrix,
    format_circuit,
    parse_circuit,
    phase_shift,
    prep_splitter,
    preparation_network,
    sym_splitter,
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
    lift_apply,
    lift_matrix,
    occupation_moments,
    occupation_product_mean,
    project_number,
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
    NonQubitReport,
    QubitState,
    TeleportParams,
    apply_feedforward,
    bob_conditional,
    drq_projection_checks,
    efficiency,
    input_bloch,
    input_qubit,
    outcome_probability,
    povm_element,
    run_premeasurement,
    tomography_bloch,
)
from .saw import (
    DephasingParams,
    average_fidelity,
    average_fidelity_sampled,
    dephased_state_analytic,
    dephased_state_montecarlo,
    jozsa_fidelity,
)

__version__ = "0.1.0"
