"""Ideal teleportation run: preparation, detection, conditioning, tomography.

Three electrons enter the six-mode network; Alice's four detectors click,
and conditioning on one click per detector pair leaves Bob with a
dual-rail qubit in the (B'0, B'1) basis.  All probabilities and
conditional states are computed exactly from the Fock simulation.
`premeasurement_amplitudes` is the one route from parameters to
amplitudes, at a grid of points or at one.  Only the S_psi electron passes
the input-qubit splitter and a Slater determinant is linear in each column,
so a stage is c0 * X + c1 * Y, two rows built once from the network.  Arm
phases reach Bob's state only through `saw.combined_phase`, so fixed arm
phases read the constants of a Monte Carlo run and launch no network.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import circuit
from .circuit import ArrayLike, _number_within
from .fock import (
    DETECTION_MODES,
    INPUT_MODES,
    OUTPUT_MODES,
    PREPARED_MODES,
    FockState,
    ModeRegistry,
    combination_table,
    create_sources,
    _pruned,
    lift_amplitudes,
    lift_matrix,
    mass,
    occupations,
    probabilities,
)

SOURCE_LABELS = ("S_phi0", "S_phi1", "S_psi")
DETECTOR_LABELS = ("A0+", "A0-", "A1+", "A1-")

# Tomography axis -> (D', theta) of Bob's splitter, in the order of Bloch
# components, which is the order of the tomography stage's rows.
TOMO_SETTINGS = {
    "X": (0.5, math.pi / 2.0),
    "Y": (0.5, 0.0),
    "Z": (1.0, 0.0),
}


@dataclass(frozen=True)
class TeleportParams:
    """Input-qubit preparation (R, phi)."""

    R: float
    phi: float

    def __post_init__(self):
        if not _number_within(self.R, 0.0, 1.0):
            raise ValueError(f"reflection probability R must lie in [0, 1], got {self.R!r}")
        if not _number_within(self.phi):
            raise ValueError(f"input-qubit phase phi must be finite, got {self.phi!r}")

    @property
    def D(self) -> float:
        return 1.0 - self.R


@dataclass(frozen=True)
class MeasurementOutcome:
    """Click pattern (j_A0+, j_A0-, j_A1+, j_A1-) of Alice's four detectors."""

    bits: tuple[int, int, int, int]

    def __post_init__(self):
        try:  # an integer, not a float or a string that converts to one
            bits = tuple(operator.index(b) for b in self.bits)
        except TypeError:
            bits = None
        if bits is None or len(bits) != 4 or any(b not in (0, 1) for b in bits):
            raise ValueError(f"outcome bits must be four 0/1 values, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_signs(cls, s0: str, s1: str) -> "MeasurementOutcome":
        """One click per detector pair: s_j says which A_j detector fired."""
        signs = {"+": (1, 0), "-": (0, 1)}
        if s0 not in ("+", "-") or s1 not in ("+", "-"):  # compared, never hashed
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

# The settings' (D', theta) columns.
_SETTINGS = np.array(list(TOMO_SETTINGS.values())).T
_SETTINGS.flags.writeable = False

# The tomography stage's row at Z (D' = 1, theta = 0), where Bob's splitter
# is the identity: the detection stage's amplitudes, byte for byte.
_Z_ROW = list(TOMO_SETTINGS).index("Z")

# One-point entries kept by `premeasurement_amplitudes`.  A point's run, its
# four conditionals, its Bloch vector and its correlator tables all read
# one entry, the three tomography settings, which keeps the results derived
# from them; its state with arm phases reads the preparation stage's, as a
# Monte Carlo run does.
_POINT_MEMO_SIZE = 1


@dataclass(frozen=True, eq=False)
class QubitState:
    """Bob's qubit as its Bloch vector, one read-only (3,) array, in the
    (B'0 occupied, B'1 occupied) basis."""

    bloch: np.ndarray

    def __post_init__(self):
        if np.shape(self.bloch) != (3,) or not circuit._all_within(self.bloch):
            raise ValueError(f"a Bloch vector is three finite reals, got {self.bloch!r}")
        bloch = np.array(self.bloch, dtype=float)
        _check_unit_ball(bloch)
        bloch.flags.writeable = False
        object.__setattr__(self, "bloch", bloch)

    @property
    def rho(self) -> np.ndarray:
        """The 2x2 density matrix; each entry halves a component exactly, so
        every signed zero of the vector keeps its sign."""
        x, y, z = self.bloch.tolist()
        coherence = complex(x / 2.0, -y / 2.0)
        return np.array([[0.5 + z / 2.0, coherence], [coherence.conjugate(), 0.5 - z / 2.0]])


def _check_unit_ball(bloch: np.ndarray) -> None:
    """Reject a Bloch vector, or any row of a (k, 3) stack, of length above
    1 + 2e-12: the bound of a Hermitian unit-trace 2x2 whose eigenvalues
    (1 +- |b|)/2 stay above -1e-12.  NaN fails too."""
    x, y, z = bloch.T
    if not (np.sqrt(x * x + y * y + z * z) <= 1.0 + 2e-12).all():
        raise ValueError("Bloch vector leaves the unit ball")


def _pure_blochs(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Bloch vector of c0|0> + c1|1>, normalised, for each pair (c0[i], c1[i])
    of amplitudes, shape (k, 3).

    The squared norm adds the squares in one fixed order, elementwise; a
    BLAS `dot` would round it by the host's kernel.
    """
    re0, im0, re1, im1 = c0.real, c0.imag, c1.real, c1.imag
    norm = np.sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))
    if not np.all((0.0 < norm) & (norm < math.inf)):  # NaN fails too
        raise ValueError("qubit amplitudes have no finite nonzero norm")
    v0, v1 = c0 / norm, c1 / norm
    coherence = v0 * v1.conj()
    z = (v0 * v0.conj() - v1 * v1.conj()).real
    return np.stack([2.0 * coherence.real, -2.0 * coherence.imag, z], axis=-1)


def input_amplitudes(params: TeleportParams) -> tuple[complex, complex]:
    """Amplitudes (on A'0, on A'1) of the qubit the input splitter prepares."""
    return (
        1j * math.sqrt(params.R) * np.exp(-1j * params.phi),
        complex(math.sqrt(params.D)),
    )


def input_bloch(params: TeleportParams) -> np.ndarray:
    """Closed-form Bloch vector of the prepared input qubit."""
    root = 2.0 * math.sqrt(params.R * params.D)
    return np.array(
        [root * math.sin(params.phi), -root * math.cos(params.phi), params.R - params.D]
    )


def jozsa_fidelity(r: np.ndarray, r_prime: np.ndarray) -> float:
    """Fidelity of two qubits from their Bloch vectors."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    # products summed left to right, not np.dot, whose rounding depends on
    # the host's BLAS kernel
    n1 = mass(r * r, slice(None))
    n2 = mass(r_prime * r_prime, slice(None))
    if not (n1 <= 1.0 + 1e-10 and n2 <= 1.0 + 1e-10):  # NaN fails too
        raise ValueError("Bloch vectors must lie in the unit ball")
    purity_term = math.sqrt(max(0.0, (1.0 - n1) * (1.0 - n2)))
    return 0.5 * (1.0 + mass(r * r_prime, slice(None)) + purity_term)


def damped_average_fidelity(q: float) -> float:
    """Fidelity averaged over all pure inputs when Bob's transverse Bloch
    components are damped by q: (2 + q)/3."""
    return (2.0 + q) / 3.0


def premeasurement_amplitudes(stage: str, R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """The three-source state evolved up to a stage of the network.

    Returns its amplitudes over the three-particle sector of the stage's
    modes (`circuit.STAGES`), in combination order; the tomography stage
    has one row per setting of Bob's splitter, in TOMO_SETTINGS order
    (X, Y, Z), shape (3, sector).  Array parameters broadcast together; the
    result then carries their shape in front, one row per grid point (see
    `_launch`).  A one-point call, every parameter a Python int or float,
    is memoised and returns a shared read-only array; its detection stage
    is the Z row of the point's tomography stage.
    """
    at_z = stage == "detection"
    entry = _memo_entry("tomography" if at_z else stage, R, phi)
    if entry is None:
        return _launch(stage, R, phi)
    return entry.amps[_Z_ROW] if at_z else entry.amps


def _memo_entry(stage: str, R: ArrayLike, phi: ArrayLike) -> _PointAmplitudes | None:
    """The memo entry of a one-point call, or None unless every parameter is
    a Python int or float (a bool is neither here: it is left to the launch
    to reject, and as a key it would equal 1 or 0)."""
    point = (R, phi)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in point):
        return None
    return _point_amplitudes(stage, R, phi, tuple(math.copysign(1.0, x) for x in point))


class _PointAmplitudes:
    """One point's read-only amplitudes and the results derived from them,
    each built on first use and kept with them; a build that raises keeps
    nothing."""

    def __init__(self, amps: np.ndarray):
        amps.flags.writeable = False
        self.amps = amps
        self._results: dict = {}

    def result(self, build):
        if build not in self._results:
            self._results[build] = build(self.amps)
        return self._results[build]


@functools.lru_cache(maxsize=_POINT_MEMO_SIZE)
def _point_amplitudes(stage: str, R: float, phi: float, signs: tuple) -> _PointAmplitudes:
    """One point's entry.  The key holds the parameters' signs, so -0.0 and
    0.0 differ.  (R, phi) are checked as a `TeleportParams` first, so a
    rejected point is reported by its value, not as the one-element array
    the tomography stage launches."""
    TeleportParams(R, phi)
    return _PointAmplitudes(_launch(stage, R, phi))


def _point_result(R: ArrayLike, phi: ArrayLike, build):
    """build(amps) of one point's tomography stage, shape (3, sector): kept
    in the point's memo entry for a one-point call, built afresh otherwise."""
    entry = _memo_entry("tomography", R, phi)
    if entry is None:
        return build(_launch("tomography", R, phi))
    return entry.result(build)


def _launch(stage: str, R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """The stage's amplitudes over a broadcast (R, phi) grid: the form
    c0 * X + c1 * Y of the module docstring, (c0, c1) the input splitter's
    S_psi column and (X, Y) the stage's `_form_rows`."""
    rows = _form_rows("tomography" if stage == "detection" else stage)
    x, y = rows[:, _Z_ROW] if stage == "detection" else rows
    s_psi = circuit.element_matrix(circuit.prep_splitter("A0p", "A1p", R, phi))[..., 0]
    axes = (Ellipsis,) + (None,) * x.ndim  # the rows' axes after the grid's
    return _pruned(s_psi[..., 0][axes] * x + s_psi[..., 1][axes] * y, _sources().norm())


@functools.lru_cache(maxsize=None)
def _form_rows(stage: str) -> np.ndarray:
    """The stage's rows X then Y, read-only, from one two-point launch: its
    S_psi column is (i, 0) at (R, phi) = (1, 0) and (0, 1) at (0, 0).  The
    tomography stage launches the three settings, their axis after the
    points'."""
    R, phi, transmission, theta = np.array([1.0, 0.0]), np.zeros(2), 1.0, 0.0
    if stage == "tomography":
        R, phi = R[:, None], phi[:, None]
        transmission, theta = _SETTINGS
    network = circuit.teleport_network(stage, R, phi, transmission, theta)
    rows = lift_amplitudes(network, _sources())
    rows[0] *= -1j  # exact: a swap of parts and a sign
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _sources() -> FockState:
    """The three-electron input state; parameter-free and immutable."""
    return create_sources(INPUT_MODES, SOURCE_LABELS)


def run_premeasurement(params: TeleportParams) -> FockState:
    """The three-source state at Alice's detectors, Bob's modes still
    (B'0, B'1)."""
    amps = premeasurement_amplitudes("detection", params.R, params.phi)
    return FockState(DETECTION_MODES, 3, amps)


@dataclass(frozen=True)
class POVMElement:
    """Diagonal projector weighting configurations by Alice's click pattern."""

    outcome: MeasurementOutcome

    @functools.lru_cache(maxsize=None)
    def clicked(self, registry: ModeRegistry, particle_number: int) -> np.ndarray:
        """Which configurations of a sector, in combination order, show
        exactly this click pattern; one shared read-only mask."""
        _, configs = combination_table(len(registry), particle_number)
        mask = (occupations(registry, configs, DETECTOR_LABELS) == self.outcome.bits).all(axis=1)
        mask.flags.writeable = False
        return mask

    def expectation(self, state: FockState) -> float:
        return state.mass(self.clicked(state.registry, state.particle_number))


def povm_element(outcome: MeasurementOutcome) -> POVMElement:
    return POVMElement(outcome)


def povm_completeness_defect() -> float:
    """Max deviation of sum_X E(X) from the identity on the detection
    stage's three-particle sector."""
    total = sum(_clicked(x) for x in ALL_OUTCOMES)
    return float(np.max(np.abs(total - 1.0)))


def outcome_probabilities(amps: np.ndarray) -> np.ndarray:
    """Probability of each click pattern of ALL_OUTCOMES for detection-stage
    amplitudes, shape (..., 16); each one is summed as
    POVMElement.expectation sums it."""
    probs = probabilities(amps)
    return np.stack([mass(probs, _clicked(x)) for x in ALL_OUTCOMES], axis=-1)


def conditional_qubits(
    amps: np.ndarray, outcome: MeasurementOutcome
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of a one-click-per-pair outcome and the Bloch vector of
    Bob's conditional qubit, shapes (k,) and (k, 3), for every row of a
    (k, sector) stack of detection-stage amplitudes."""
    _paired_row(outcome)
    p, bloch = _conditionals(amps, (outcome,))
    if (p == 0.0).any():
        raise ValueError(f"outcome {outcome.label} has probability zero")
    return p[:, 0], bloch[:, 0]


def _conditionals(
    amps: np.ndarray, outcomes: tuple[MeasurementOutcome, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of each one-click-per-pair outcome and Bob's conditional
    Bloch vector, shapes (..., n) and (..., n, 3), for detection-stage
    amplitudes of shape (..., sector), in one pass: one `probabilities`, a
    mass per outcome, one gather of Bob's columns, one `_pure_blochs` and
    one unit-ball check.  An outcome of probability zero gets NaN."""
    probs = probabilities(amps)
    p = np.stack([mass(probs, _clicked(x)) for x in outcomes], axis=-1)
    seen = p != 0.0
    pairs = amps[..., [_bob_columns(x) for x in outcomes]][seen]
    c0, c1 = (pairs * (1.0 / np.sqrt(p[seen]))[:, None]).T
    bloch = np.full(p.shape + (3,), math.nan)
    bloch[seen] = _pure_blochs(c0, c1)
    _check_unit_ball(bloch[seen])
    return p, bloch


def _paired_row(outcome: MeasurementOutcome) -> int:
    """A one-click-per-pair outcome's row of PAIRED_OUTCOMES; any other
    click pattern is a failed run, which leaves Bob no qubit."""
    if not outcome.is_paired:
        raise ValueError(f"outcome {outcome.label} does not leave Bob a qubit")
    return PAIRED_OUTCOMES.index(outcome)


def _clicked(outcome: MeasurementOutcome) -> np.ndarray:
    """The detection-stage configurations an outcome's element keeps."""
    return povm_element(outcome).clicked(DETECTION_MODES, 3)


def _bob_columns(outcome: MeasurementOutcome) -> np.ndarray:
    """The two configurations a paired outcome's element keeps: its clicks
    with Bob's particle on B'0, then on B'1, as combination order has them."""
    return np.flatnonzero(_clicked(outcome))


def bob_conditional(params: TeleportParams, outcome: MeasurementOutcome) -> QubitState:
    """Bob's qubit conditioned on a one-click-per-pair outcome of Alice.

    Only the four such outcomes (PAIRED_OUTCOMES) leave Bob a dual-rail
    qubit; every other click pattern is a failed run and raises a
    ValueError, as does an outcome of probability zero.  The four
    conditionals of a point come from one pass, kept with its stage.
    """
    row = _paired_row(outcome)
    p, bloch = _point_result(params.R, params.phi, _paired_conditionals)
    if p[row] == 0.0:
        raise ValueError(f"outcome {outcome.label} has probability zero")
    return QubitState(bloch[row])


def _paired_conditionals(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_conditionals` of the four PAIRED_OUTCOMES, read-only, from the Z
    row of a point's tomography stage."""
    p, bloch = _conditionals(amps[_Z_ROW], PAIRED_OUTCOMES)
    p.flags.writeable = bloch.flags.writeable = False
    return p, bloch


def conditional_with_arm_phases(
    params: TeleportParams, arm_phases: Mapping[str, float]
) -> tuple[float, QubitState]:
    """Probability and Bob's qubit for the ++ outcome with fixed arm phases:
    the constants of a Monte Carlo run at the one draw Phi of
    `saw.combined_phase`.  The arms and their phases pass the network's
    checks, and each phase must be one number, before anything is computed;
    no network with phase elements is launched."""
    from . import saw

    circuit._phase_layer(arm_phases)
    for arm, value in (arm_phases or {}).items():
        if not _number_within(value):  # the network's check takes a grid's array
            raise ValueError(f"arm phase {arm} must be finite and real, got {value!r}")
    phase = saw.combined_phase(arm_phases or {})
    run = saw._run_constants(params)
    return run.p, saw._run_state(run, math.cos(phase), math.sin(phase))


def apply_feedforward(state: QubitState, outcome: MeasurementOutcome) -> QubitState:
    """Conditionally apply the sigma_z correction announced by Alice."""
    if outcome in CORRECTED_OUTCOMES:
        # sigma_z rho sigma_z negates x and y: exact, zeros included
        return QubitState(state.bloch * (-1.0, -1.0, 1.0))
    return state


def efficiency(with_feedforward: bool, params: TeleportParams | None = None) -> float:
    """Probability mass of the outcomes that teleport, computed from the run."""
    state = run_premeasurement(params or TeleportParams(0.5, 0.0))
    outcomes = PAIRED_OUTCOMES if with_feedforward else UNCORRECTED_OUTCOMES
    return float(sum(povm_element(x).expectation(state) for x in outcomes))


def tomography_bloch(params: TeleportParams) -> np.ndarray:
    """Reconstruct Bob's ++-conditional Bloch vector from occupation averages.

    Each component divides <N_A0+ N_A1+ (N_B0 - N_B1)> at the matching
    tomography setting by <N_A0+ N_A1+ (1 - N_A0- - N_A1-)>, both exact
    expectations on the pre-measurement state.  The three settings are the
    rows of one memoised stage, shared with `leviton.zero_T_correlators`.
    """
    return tomography_bloch_grid(params.R, params.phi)


def tomography_bloch_grid(R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """`tomography_bloch` at every point of a broadcast (R, phi) grid,
    shape (..., 3), from one stage over the grid and the three settings."""
    return _tomography_components(premeasurement_amplitudes("tomography", R, phi))


@functools.lru_cache(maxsize=None)
def _product_masks() -> np.ndarray:
    """Which output configurations hold A0+ and A1+ with B0, with B1, alone,
    with A0- and with A1-, whose masses make the tomography ratio; read-only."""
    _, configs = combination_table(len(OUTPUT_MODES), 3)
    extras = (("B0",), ("B1",), (), ("A0-",), ("A1-",))
    labels = [("A0+", "A1+") + extra for extra in extras]
    masks = np.array([occupations(OUTPUT_MODES, configs, x).all(axis=1) for x in labels])
    masks.flags.writeable = False
    return masks


def _tomography_components(amps: np.ndarray) -> np.ndarray:
    """Bloch components from tomography-stage amplitudes of shape
    (..., 3, sector), one row per setting in X, Y, Z order."""
    probs = probabilities(amps)
    # <N_a N_b ...>: the mass of the configurations occupying every label
    b0, b1, pair, a0m, a1m = (mass(probs, mask) for mask in _product_masks())
    numerator = b0 - b1
    denominator = pair - a0m - a1m
    if not np.all(denominator > 0.0):  # NaN fails too
        raise ValueError("tomography denominator vanished")
    return numerator / denominator


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


@functools.lru_cache(maxsize=None)
def _povm_in_prepared_basis() -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, np.ndarray]]:
    """Alice's POVM elements conjugated back through her splitters.

    Works in the two-particle space of (A0p, A1p, A0, A1); returns the
    matrices for the six one-sided and paired click patterns, the
    projector onto the dual-rail (Bell) subspace, and the Bell states as
    vectors in the same basis.  Parameter-free, so built once and shared
    read-only.
    """
    alice = circuit.alice_splitters(("A0p", "A1p", "A0", "A1"))
    detectors, registry = alice.rows, alice.cols
    _, lifted = lift_matrix(alice, 2)
    elements: dict[str, np.ndarray] = {}
    for name in ("1010", "0101", "1001", "0110", "1100", "0011"):
        outcome = MeasurementOutcome([int(b) for b in name])
        weights = povm_element(outcome).clicked(detectors, 2).astype(float)
        elements[name] = lifted.conj().T @ np.diag(weights) @ lifted
    bells = bell_states(registry, ("A0p", "A1p"), ("A0", "A1"))
    vectors = {name: state.amps for name, state in bells.items()}
    basis = np.column_stack(list(vectors.values()))
    projector = basis @ basis.conj().T
    for array in (*elements.values(), projector):
        array.flags.writeable = False
    return elements, projector, vectors


def drq_projection_checks(params: TeleportParams) -> dict[str, float]:
    """Structural checks of the dual-rail decomposition and Alice's POVM.

    Expected values: dual_rail_weight = 1/2, split evenly between the
    crossed and aligned Bell sectors; overlap moduli 1/(2*sqrt(2)) for
    the crossed-sector decomposition terms; vanishing deviations for the
    Bell Gram matrix and the projected POVM identities.  The literal
    aligned-sector product states pick up occupation-ordering signs, so
    their overlap moduli come out |R - D|/(2*sqrt(2)) and are reported
    under explicit names rather than asserted equal to the crossed ones.
    """
    prepared = FockState(
        PREPARED_MODES, 3, premeasurement_amplitudes("preparation", params.R, params.phi)
    )

    report = {
        "dual_rail_weight": dual_rail_weight(prepared),
        "crossed_sector_weight": _sector_weight(prepared, crossed=True),
        "aligned_sector_weight": _sector_weight(prepared, crossed=False),
    }

    bells = bell_states(
        ModeRegistry(("A0", "A1", "B0p", "B1p")), ("A0", "A1"), ("B0p", "B1p")
    )
    basis = np.column_stack([state.amps for state in bells.values()])
    gram = basis.conj().T @ basis
    report["bell_gram_max_dev"] = float(np.max(np.abs(gram - np.eye(len(bells)))))

    for name, term in bell_decomposition_terms(params).items():
        literal = "_literal" if name in ("sigma_x", "i_sigma_y") else ""
        report[f"overlap_modulus_{name}{literal}"] = abs(term.overlap(prepared))

    elements, projector, bells_aa = _povm_in_prepared_basis()
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
