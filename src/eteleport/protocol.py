"""Ideal teleportation run: preparation, detection, conditioning, tomography.

Three electrons enter the six-mode network; Alice's four detectors click,
and conditioning on one click per detector pair leaves Bob with a
dual-rail qubit in the (B'0, B'1) basis.  All probabilities and
conditional states are computed exactly from the Fock simulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import circuit
from .fock import (
    DETECTION_MODES,
    INPUT_MODES,
    PREPARED_MODES,
    FockState,
    ModeRegistry,
    SingleParticleUnitary,
    combination_table,
    create_sources,
    lift_apply,
    lift_matrix,
    occupation_product_mean,
    occupations,
)

SOURCE_LABELS = ("S_phi0", "S_phi1", "S_psi")
DETECTOR_LABELS = ("A0+", "A0-", "A1+", "A1-")

# Tomography axis -> (D', theta) of Bob's splitter.
TOMO_SETTINGS = {
    "X": (0.5, math.pi / 2.0),
    "Y": (0.5, 0.0),
    "Z": (1.0, 0.0),
}


@dataclass(frozen=True)
class TeleportParams:
    """Input-qubit preparation (R, phi) and Bob's tomography axis."""

    R: float
    phi: float
    setting: str = "Z"

    def __post_init__(self):
        if not 0.0 <= self.R <= 1.0:
            raise ValueError(f"reflection probability R must lie in [0, 1], got {self.R}")
        if not math.isfinite(self.phi):
            raise ValueError(f"input-qubit phase phi must be finite, got {self.phi}")
        if self.setting not in TOMO_SETTINGS:
            raise ValueError(f"tomography setting must be one of {sorted(TOMO_SETTINGS)}")

    @property
    def D(self) -> float:
        return 1.0 - self.R

    @property
    def tomo_transmission(self) -> float:
        return TOMO_SETTINGS[self.setting][0]

    @property
    def tomo_theta(self) -> float:
        return TOMO_SETTINGS[self.setting][1]


@dataclass(frozen=True)
class MeasurementOutcome:
    """Click pattern (j_A0+, j_A0-, j_A1+, j_A1-) of Alice's four detectors."""

    bits: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if len(self.bits) != 4 or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"outcome bits must be four 0/1 values, got {self.bits}")

    @classmethod
    def from_signs(cls, s0: str, s1: str) -> "MeasurementOutcome":
        """One click per detector pair: s_j says which A_j detector fired."""
        signs = {"+": (1, 0), "-": (0, 1)}
        if s0 not in signs or s1 not in signs:
            raise ValueError("signs must be '+' or '-'")
        return cls(signs[s0] + signs[s1])

    @property
    def is_paired(self) -> bool:
        """True when exactly one detector per pair clicked (teleporting pattern)."""
        b = self.bits
        return b[0] + b[1] == 1 and b[2] + b[3] == 1

    @property
    def label(self) -> str:
        if self.is_paired:
            return ("+" if self.bits[0] else "-") + ("+" if self.bits[2] else "-")
        return "".join(str(b) for b in self.bits)


ALL_OUTCOMES = tuple(
    MeasurementOutcome(bits) for bits in itertools.product((0, 1), repeat=4)
)
PAIRED_OUTCOMES = tuple(
    MeasurementOutcome.from_signs(s0, s1) for s0 in "+-" for s1 in "+-"
)
# Outcomes that keep the input state without correction vs. those needing
# the sigma_z feed-forward.
UNCORRECTED_OUTCOMES = (
    MeasurementOutcome.from_signs("+", "+"),
    MeasurementOutcome.from_signs("-", "-"),
)
CORRECTED_OUTCOMES = (
    MeasurementOutcome.from_signs("+", "-"),
    MeasurementOutcome.from_signs("-", "+"),
)

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Bob's 2x2 density matrix in the (B'0 occupied, B'1 occupied) basis."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho) - 1.0) > 1e-12:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
            raise ValueError("density matrix has a negative eigenvalue")
        if np.linalg.norm(self.bloch) > 1.0 + 1e-10:
            raise ValueError("Bloch vector leaves the unit ball")

    @classmethod
    def from_pure(cls, c0: complex, c1: complex) -> "QubitState":
        v = np.array([c0, c1], dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @property
    def bloch(self) -> np.ndarray:
        r = self.rho
        return np.array(
            [
                2.0 * r[0, 1].real,
                -2.0 * r[0, 1].imag,
                (r[0, 0] - r[1, 1]).real,
            ]
        )


@dataclass(frozen=True)
class NonQubitReport:
    """Conditioning result when Bob is not left with a dual-rail qubit.

    `occupations` maps Bob's joint (n_B'0, n_B'1) occupation to its
    conditional probability.
    """

    outcome: MeasurementOutcome
    probability: float
    occupations: dict[tuple[int, int], float]


def input_amplitudes(params: TeleportParams) -> tuple[complex, complex]:
    """Amplitudes (on A'0, on A'1) of the qubit the input splitter prepares."""
    return (
        1j * math.sqrt(params.R) * np.exp(-1j * params.phi),
        complex(math.sqrt(params.D)),
    )


def input_qubit(params: TeleportParams) -> QubitState:
    """The dual-rail qubit Alice is handed, as prepared by her splitter."""
    return QubitState.from_pure(*input_amplitudes(params))


def input_bloch(params: TeleportParams) -> np.ndarray:
    """Closed-form Bloch vector of the prepared input qubit."""
    root = 2.0 * math.sqrt(params.R * params.D)
    return np.array(
        [root * math.sin(params.phi), -root * math.cos(params.phi), params.R - params.D]
    )


def _launch(network: SingleParticleUnitary) -> FockState:
    """The three-source state sent through a network view."""
    return lift_apply(network, create_sources(INPUT_MODES, SOURCE_LABELS))


def run_premeasurement(params: TeleportParams, stage: str = "detection") -> FockState:
    """Evolve the three-source state up to the requested stage.

    stage "detection": Alice's detectors resolved, Bob's modes still
    (B'0, B'1).  stage "tomography": Bob's splitter applied with the
    params' setting, modes (B0, B1).
    """
    if stage == "detection":
        network = circuit.detection_network(params.R, params.phi)
    elif stage == "tomography":
        network = circuit.builtin_teleport_network(
            params.R, params.phi, params.tomo_transmission, params.tomo_theta
        )
    else:
        raise ValueError(f"stage must be 'detection' or 'tomography', got {stage!r}")
    return _launch(network)


@dataclass(frozen=True)
class POVMElement:
    """Diagonal projector weighting configurations by Alice's click pattern."""

    outcome: MeasurementOutcome

    def clicked(self, registry: ModeRegistry, configs: Sequence[int]) -> np.ndarray:
        """Which configurations show exactly this click pattern."""
        occ = occupations(registry, configs, DETECTOR_LABELS)
        return (occ == self.outcome.bits).all(axis=1)

    def weight(self, config: int, registry: ModeRegistry) -> float:
        return float(self.clicked(registry, [config])[0])

    def expectation(self, state: FockState) -> float:
        return state.mass(self.clicked(state.registry, state.configs))

    def condition(self, state: FockState) -> tuple[float, FockState]:
        """Outcome probability and the renormalized conditional state."""
        return state.select(self.clicked(state.registry, state.configs))


def povm_element(outcome: MeasurementOutcome) -> POVMElement:
    return POVMElement(outcome)


def povm_completeness_defect(
    registry: ModeRegistry = DETECTION_MODES, particle_number: int = 3
) -> float:
    """Max deviation of sum_X E(X) from the identity on the given sector."""
    _, configs = combination_table(len(registry), particle_number)
    total = sum(povm_element(x).clicked(registry, configs) for x in ALL_OUTCOMES)
    return float(np.max(np.abs(total - 1.0)))


def outcome_probability(params: TeleportParams, outcome: MeasurementOutcome) -> float:
    state = run_premeasurement(params, "detection")
    return povm_element(outcome).expectation(state)


def _conditional_from_state(
    state: FockState, outcome: MeasurementOutcome
) -> tuple[float, Union[QubitState, NonQubitReport]]:
    p, conditional = povm_element(outcome).condition(state)
    if p == 0.0:
        raise ValueError(f"outcome {outcome.label} has probability zero")
    if outcome.is_paired:
        clicks = tuple(label for label, j in zip(DETECTOR_LABELS, outcome.bits) if j)
        c0 = conditional.amplitude(clicks + ("B0p",))
        c1 = conditional.amplitude(clicks + ("B1p",))
        return p, QubitState.from_pure(c0, c1)
    occupations = conditional.occupation_distribution(("B0p", "B1p"))
    return p, NonQubitReport(outcome, p, occupations)


def bob_conditional(
    params: TeleportParams, outcome: MeasurementOutcome
) -> Union[QubitState, NonQubitReport]:
    """Bob's state conditioned on Alice's click pattern.

    The four one-click-per-pair outcomes leave Bob with a pure dual-rail
    qubit; every other pattern yields a NonQubitReport carrying Bob's
    conditional occupation distribution.
    """
    state = run_premeasurement(params, "detection")
    return _conditional_from_state(state, outcome)[1]


def conditional_with_arm_phases(
    params: TeleportParams, arm_phases: Mapping[str, float]
) -> tuple[float, QubitState]:
    """Probability and Bob's qubit for the ++ outcome with fixed arm phases."""
    state = _launch(circuit.detection_network(params.R, params.phi, arm_phases=arm_phases))
    return _conditional_from_state(state, MeasurementOutcome.from_signs("+", "+"))


def apply_feedforward(state: QubitState, outcome: MeasurementOutcome) -> QubitState:
    """Conditionally apply the sigma_z correction announced by Alice."""
    if outcome in CORRECTED_OUTCOMES:
        return QubitState(_SIGMA_Z @ state.rho @ _SIGMA_Z)
    return state


def efficiency(with_feedforward: bool, params: TeleportParams | None = None) -> float:
    """Probability mass of the outcomes that teleport, computed from the run."""
    params = params or TeleportParams(0.5, 0.0)
    state = run_premeasurement(params, "detection")
    outcomes = PAIRED_OUTCOMES if with_feedforward else UNCORRECTED_OUTCOMES
    return float(sum(povm_element(x).expectation(state) for x in outcomes))


def tomography_bloch(params: TeleportParams) -> np.ndarray:
    """Reconstruct Bob's ++-conditional Bloch vector from occupation averages.

    Each component divides <N_A0+ N_A1+ (N_B0 - N_B1)> at the matching
    tomography setting by <N_A0+ N_A1+ (1 - N_A0- - N_A1-)>, both exact
    expectations on the pre-measurement state.
    """
    components = []
    for axis in ("X", "Y", "Z"):
        state = run_premeasurement(replace(params, setting=axis), "tomography")
        numerator = occupation_product_mean(
            state, ("A0+", "A1+", "B0")
        ) - occupation_product_mean(state, ("A0+", "A1+", "B1"))
        denominator = (
            occupation_product_mean(state, ("A0+", "A1+"))
            - occupation_product_mean(state, ("A0+", "A1+", "A0-"))
            - occupation_product_mean(state, ("A0+", "A1+", "A1-"))
        )
        if denominator <= 0.0:
            raise ValueError("tomography denominator vanished")
        components.append(numerator / denominator)
    return np.array(components)


# ---------------------------------------------------------------------------
# Structural states and dual-rail checks
# ---------------------------------------------------------------------------

def teleporting_branch(params: TeleportParams) -> FockState:
    """Normalized component of the pre-measurement state that teleports."""
    a, b = input_amplitudes(params)
    half = 0.5
    terms = []
    for pair, pair_sign in ((("A0+", "A1+"), 1.0), (("A0-", "A1-"), 1.0)):
        terms.append((half * pair_sign * a, pair + ("B0p",)))
        terms.append((half * pair_sign * b, pair + ("B1p",)))
    for pair, pair_sign in ((("A0+", "A1-"), -1j), (("A0-", "A1+"), 1j)):
        terms.append((half * pair_sign * a, pair + ("B0p",)))
        terms.append((half * pair_sign * (-b), pair + ("B1p",)))
    return FockState.from_terms(DETECTION_MODES, terms)


def failing_branch(params: TeleportParams) -> FockState:
    """Normalized component orthogonal to the teleporting branch."""
    a, b = input_amplitudes(params)
    s2 = math.sqrt(2.0)
    terms = [
        (-a / s2 * 1j, ("A0+", "A0-", "A1+")),
        (-a / s2, ("A0+", "A0-", "A1-")),
        (b / s2 * 1j, ("A0+", "A1+", "A1-")),
        (b / s2, ("A0-", "A1+", "A1-")),
        (a / s2, ("A0+", "B0p", "B1p")),
        (a / s2 * 1j, ("A0-", "B0p", "B1p")),
        (b / s2, ("A1+", "B0p", "B1p")),
        (b / s2 * 1j, ("A1-", "B0p", "B1p")),
        (1j * a, ("A0+", "A0-", "B1p")),
        (-1j * b, ("A1+", "A1-", "B0p")),
    ]
    scaled = [(c / math.sqrt(3.0), labels) for c, labels in terms]
    return FockState.from_terms(DETECTION_MODES, scaled)


def bell_states(
    registry: ModeRegistry, pair_a: tuple[str, str], pair_b: tuple[str, str]
) -> dict[str, FockState]:
    """The four two-particle Bell states over two dual-rail pairs."""
    a0, a1 = pair_a
    b0, b1 = pair_b
    s = 1.0 / math.sqrt(2.0)
    return {
        "psi+": FockState.from_terms(registry, [(s, (a0, b1)), (s, (a1, b0))]),
        "psi-": FockState.from_terms(registry, [(s, (a0, b1)), (-s, (a1, b0))]),
        "phi+": FockState.from_terms(registry, [(s, (a0, b0)), (s, (a1, b1))]),
        "phi-": FockState.from_terms(registry, [(s, (a0, b0)), (-s, (a1, b1))]),
    }


def bell_decomposition_terms(params: TeleportParams) -> dict[str, FockState]:
    """The four products (Bell state at A'A) x (corrected qubit at B').

    Keys name the correction Bob would apply: identity, sigma_z, sigma_x,
    i_sigma_y.
    """
    a, b = input_amplitudes(params)
    s = 1.0 / math.sqrt(2.0)

    def build(first, second, sign, q0, q1):
        return FockState.from_terms(
            PREPARED_MODES,
            [
                (s * q0, first + ("B0p",)),
                (s * q1, first + ("B1p",)),
                (sign * s * q0, second + ("B0p",)),
                (sign * s * q1, second + ("B1p",)),
            ],
        )

    return {
        "identity": build(("A0p", "A1"), ("A1p", "A0"), -1.0, a, b),
        "sigma_z": build(("A0p", "A1"), ("A1p", "A0"), 1.0, a, -b),
        "sigma_x": build(("A0p", "A0"), ("A1p", "A1"), 1.0, b, a),
        "i_sigma_y": build(("A0p", "A0"), ("A1p", "A1"), -1.0, b, -a),
    }


def _dual_rail(state: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Occupations of the prepared stage's modes (three dual-rail pairs, rail 0
    first) and which configurations hold one particle per pair."""
    occ = occupations(state.registry, state.configs, PREPARED_MODES.labels)
    return occ, (occ[:, 0::2] + occ[:, 1::2] == 1).all(axis=1)


def dual_rail_weight(state: FockState) -> float:
    """Probability that each dual-rail pair of the prepared stage holds one particle."""
    return state.mass(_dual_rail(state)[1])


def _sector_weight(state: FockState, crossed: bool) -> float:
    """Weight of the dual-rail configurations with the A' and A particles
    on opposite rails (crossed) or the same rail (aligned)."""
    occ, dual = _dual_rail(state)
    return state.mass(dual & ((occ[:, 0] != occ[:, 2]) == crossed))


def _povm_in_prepared_basis(
    params: TeleportParams,
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, np.ndarray]]:
    """Alice's POVM elements conjugated back through her splitters.

    Works in the two-particle space of (A0p, A1p, A0, A1); returns the
    matrices for the six one-sided and paired click patterns, the
    projector onto the dual-rail (Bell) subspace, and the Bell states as
    vectors in the same basis.
    """
    wires = ("A0p", "A1p", "A0", "A1")
    registry = ModeRegistry(wires)
    layers = circuit.teleport_layers(
        params.R, params.phi, params.tomo_transmission, params.tomo_theta, None
    )
    alice = circuit.compose(circuit.CircuitDescription(wires, layers["alice"])).matrix
    detectors = ModeRegistry(circuit.stage_labels(wires, ("alice",)))
    configs, lifted = lift_matrix(SingleParticleUnitary(alice, detectors, registry), 2)
    elements: dict[str, np.ndarray] = {}
    for name in ("1010", "0101", "1001", "0110", "1100", "0011"):
        outcome = MeasurementOutcome([int(b) for b in name])
        weights = povm_element(outcome).clicked(detectors, configs).astype(float)
        elements[name] = lifted.conj().T @ np.diag(weights) @ lifted
    bells = bell_states(registry, ("A0p", "A1p"), ("A0", "A1"))
    vectors = {name: state.vector() for name, state in bells.items()}
    basis = np.column_stack(list(vectors.values()))
    return elements, basis @ basis.conj().T, vectors


def drq_projection_checks(params: TeleportParams | None = None) -> dict[str, float]:
    """Structural checks of the dual-rail decomposition and Alice's POVM.

    Expected values: dual_rail_weight = 1/2, split evenly between the
    crossed and aligned Bell sectors; overlap moduli 1/(2*sqrt(2)) for
    the crossed-sector decomposition terms; vanishing deviations for the
    Bell Gram matrix and the projected POVM identities.  The literal
    aligned-sector product states pick up occupation-ordering signs, so
    their overlap moduli come out |R - D|/(2*sqrt(2)) and are reported
    under explicit names rather than asserted equal to the crossed ones.
    """
    params = params or TeleportParams(0.3, 1.2)
    prepared = _launch(circuit.preparation_network(params.R, params.phi))

    report: dict[str, float] = {}
    report["dual_rail_weight"] = dual_rail_weight(prepared)
    report["crossed_sector_weight"] = _sector_weight(prepared, crossed=True)
    report["aligned_sector_weight"] = _sector_weight(prepared, crossed=False)

    bells = bell_states(
        ModeRegistry(("A0", "A1", "B0p", "B1p")), ("A0", "A1"), ("B0p", "B1p")
    )
    basis = np.column_stack([state.vector() for state in bells.values()])
    gram = basis.conj().T @ basis
    report["bell_gram_max_dev"] = float(np.max(np.abs(gram - np.eye(len(bells)))))

    terms = bell_decomposition_terms(params)
    report["overlap_modulus_identity"] = abs(terms["identity"].overlap(prepared))
    report["overlap_modulus_sigma_z"] = abs(terms["sigma_z"].overlap(prepared))
    report["overlap_modulus_sigma_x_literal"] = abs(terms["sigma_x"].overlap(prepared))
    report["overlap_modulus_i_sigma_y_literal"] = abs(
        terms["i_sigma_y"].overlap(prepared)
    )

    elements, projector, bells_aa = _povm_in_prepared_basis(params)
    psi_m, psi_p = bells_aa["psi-"], bells_aa["psi+"]
    phi_sum = bells_aa["phi+"] + bells_aa["phi-"]
    phi_diff = bells_aa["phi+"] - bells_aa["phi-"]
    # projected onto the Bell subspace, each element is half the projector
    # onto one Bell combination
    targets = {
        "1010": psi_m, "0101": psi_m, "1001": psi_p, "0110": psi_p,
        "1100": phi_sum, "0011": phi_diff,
    }
    dev = max(
        float(np.max(np.abs(projector @ elements[k] @ projector - 0.5 * np.outer(v, v.conj()))))
        for k, v in targets.items()
    )
    report["povm_dual_rail_max_dev"] = dev
    return report
