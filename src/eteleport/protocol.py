"""Ideal teleportation run: preparation, detection, conditioning, tomography.

Three electrons enter the six-mode network; Alice's four detectors click,
and conditioning on one click per detector pair leaves Bob with a
dual-rail qubit in the (B'0, B'1) basis.  All probabilities and
conditional states are computed exactly from the Fock simulation.
`premeasurement_amplitudes` is the one route from parameters to
amplitudes, at a grid of points or at one.  Only the S_psi electron passes
the input-qubit splitter and a Slater determinant is linear in each column,
so a stage is c0 * X + c1 * Y, two rows built once from the network.
So every exact observable is four real coefficients against
g = (|c0|^2, |c1|^2, Re c0* c1, Im c0* c1), which is ((1 + z)/2, (1 - z)/2,
x/2, y/2) of the input's Bloch vector: `_table` holds them, built once from
the rows, and `_observables` evaluates them at a grid of points or at one.
Arm phases reach Bob's state only through `saw.combined_phase`, which turns
his ++ qubit about z: fixed arm phases turn the point's ++ conditional, as
a Monte Carlo run does, and launch no network of their own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple

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
    _norm_checked,
    _unfused_product,
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

# Every occupation product of one to three output modes, in combination
# order: the rows of `_table().moments`.
_MOMENT_LABELS = tuple(
    labels for n in (1, 2, 3) for labels in itertools.combinations(OUTPUT_MODES.labels, n)
)
# The products whose masses make the tomography ratio: A0+ and A1+ with B0,
# with B1, alone, with A0- and with A1-.
_RATIO_ROWS = np.array([_MOMENT_LABELS.index(labels) for labels in (
    ("A0+", "A1+", "B0"), ("A0+", "A1+", "B1"), ("A0+", "A1+"),
    ("A0+", "A0-", "A1+"), ("A0+", "A1+", "A1-"),
)])


@dataclass(frozen=True, eq=False)
class QubitState:
    """Bob's qubit as its Bloch vector, one read-only (3,) array, in the
    (B'0 occupied, B'1 occupied) basis."""

    bloch: np.ndarray

    def __post_init__(self):
        # checked on its three values as Python floats: the same IEEE
        # operations as numpy's on a (3,) array, without its cost per call
        given = np.asarray(self.bloch)
        if given.shape != (3,) or given.dtype.kind not in "iuf":
            raise ValueError(f"a Bloch vector is three finite reals, got {self.bloch!r}")
        bloch = given.astype(float)
        _check_unit_ball(bloch.tolist())  # NaN and inf leave the ball
        bloch.flags.writeable = False
        object.__setattr__(self, "bloch", bloch)

    @property
    def rho(self) -> np.ndarray:
        """The 2x2 density matrix; each entry halves a component exactly, so
        every signed zero of the vector keeps its sign."""
        x, y, z = self.bloch.tolist()
        coherence = complex(x / 2.0, -y / 2.0)
        return np.array([[0.5 + z / 2.0, coherence], [coherence.conjugate(), 0.5 - z / 2.0]])


def _check_unit_ball(bloch: np.ndarray | list[float]) -> None:
    """Reject a Bloch vector given as a list of three floats, or any row of a
    (k, 3) stack, of length above 1 + 2e-12: the bound of a Hermitian
    unit-trace 2x2 whose eigenvalues (1 +- |b|)/2 stay above -1e-12.  NaN
    fails too.  Both paths square, add left to right and take a correctly
    rounded root, so a vector passes alone exactly when it passes as a row."""
    bound = 1.0 + 2e-12
    if isinstance(bloch, np.ndarray):
        x, y, z = bloch.T
        inside = (np.sqrt(x * x + y * y + z * z) <= bound).all()
    else:
        x, y, z = bloch
        inside = math.sqrt(x * x + y * y + z * z) <= bound
    if not inside:
        raise ValueError("Bloch vector leaves the unit ball")


def _pure_blochs(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Bloch vector of c0|0> + c1|1>, normalised, for each pair (c0[i], c1[i])
    of amplitudes, shape (k, 3).

    The squared norm adds the squares in one fixed order, elementwise; a
    BLAS `dot` would round it by the host's kernel.  The coherence v0 v1* is
    an unfused complex product and z its real products written out: numpy's
    SIMD complex multiply fuses them on hosts with FMA, where v0 v0* keeps
    an imaginary part of an ulp's rounding and z moves.
    """
    re0, im0, re1, im1 = c0.real, c0.imag, c1.real, c1.imag
    norm = np.sqrt((re0 * re0 + re1 * re1) + (im0 * im0 + im1 * im1))
    if not np.all((0.0 < norm) & (norm < math.inf)):  # NaN fails too
        raise ValueError("qubit amplitudes have no finite nonzero norm")
    v0, v1 = c0 / norm, c1 / norm
    coherence = _unfused_product(v0, v1.conj())
    z = (v0.real * v0.real + v0.imag * v0.imag) - (v1.real * v1.real + v1.imag * v1.imag)
    return np.stack([2.0 * coherence.real, -2.0 * coherence.imag, z], axis=-1)


def input_amplitudes(params: TeleportParams) -> tuple[complex, complex]:
    """Amplitudes (on A'0, on A'1) of the qubit the input splitter prepares."""
    return (
        1j * math.sqrt(params.R) * np.exp(-1j * params.phi),
        complex(math.sqrt(params.D)),
    )


def input_bloch(params: TeleportParams) -> np.ndarray:
    """Closed-form Bloch vector of the prepared input qubit."""
    return input_bloch_grid(params.R, params.phi)


def input_bloch_grid(R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """`input_bloch` at every point of a broadcast (R, phi) grid, shape (..., 3)."""
    R, phi = np.asarray(R, dtype=float), np.asarray(phi, dtype=float)
    D = 1.0 - R
    root = 2.0 * np.sqrt(R * D)
    components = np.broadcast_arrays(root * np.sin(phi), -root * np.cos(phi), R - D)
    return np.stack(components, axis=-1)


def jozsa_fidelity(r: np.ndarray, r_prime: np.ndarray) -> float | np.ndarray:
    """Fidelity of two qubits from their Bloch vectors: a float for two
    vectors, one per row for (..., 3) stacks, which broadcast together.

    (1 + r.r' + sqrt((1 - |r|^2)(1 - |r'|^2)))/2 as one less a quarter of
    |r - r'|^2 + (sqrt(a) - sqrt(b))^2, a = 1 - |r|^2 and b = 1 - |r'|^2
    clamped at 0: at most 1, and clamped at 0 for opposite unit vectors
    whose squares add up to a rounding above 1."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    # products summed left to right, not np.dot, whose rounding depends on
    # the host's BLAS kernel
    n1 = mass(r * r, slice(None))
    n2 = mass(r_prime * r_prime, slice(None))
    if not np.all((n1 <= 1.0 + 1e-10) & (n2 <= 1.0 + 1e-10)):  # NaN fails too
        raise ValueError("Bloch vectors must lie in the unit ball")
    gap = r - r_prime
    purity_gap = np.sqrt(np.maximum(0.0, 1.0 - n1)) - np.sqrt(np.maximum(0.0, 1.0 - n2))
    fidelity = np.maximum(0.0, 1.0 - (mass(gap * gap, slice(None)) + purity_gap * purity_gap) / 4.0)
    return fidelity if fidelity.ndim else float(fidelity)


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
    result then carries their shape in front, one row per grid point.
    Every call launches: observables are read from `_table`, not from
    amplitudes.

    The amplitudes are the form c0 * X + c1 * Y of the module docstring,
    (c0, c1) the input splitter's S_psi column and (X, Y) the stage's
    `_form_rows`.  Each product is unfused, so the bytes do not depend on
    numpy's SIMD dispatch.
    """
    rows = _form_rows("tomography" if stage == "detection" else stage)
    x, y = rows[:, _Z_ROW] if stage == "detection" else rows
    s_psi = circuit.element_matrix(circuit.prep_splitter("A0p", "A1p", R, phi))[..., 0]
    axes = (Ellipsis,) + (None,) * x.ndim  # the rows' axes after the grid's
    form = _unfused_product(s_psi[..., 0][axes], x) + _unfused_product(s_psi[..., 1][axes], y)
    return _norm_checked(form, _sources().norm())


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
    return _masses(probabilities(amps), _outcome_table())


def conditional_qubits(
    amps: np.ndarray, outcome: MeasurementOutcome
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of a one-click-per-pair outcome and the Bloch vector of
    Bob's conditional qubit, shapes (k,) and (k, 3), for every row of a
    (k, sector) stack of detection-stage amplitudes: the amplitude route,
    independent of `_table`."""
    _paired_row(outcome)
    return _conditionals(amps, outcome)


def _conditionals(amps: np.ndarray, outcome: MeasurementOutcome) -> tuple[np.ndarray, np.ndarray]:
    """`conditional_qubits` in one pass: one `probabilities`, one mass and
    one gather over the outcome's `_bob_columns`, one `_pure_blochs` and
    one unit-ball check; a row of probability zero raises."""
    columns = _bob_columns(outcome)
    p = mass(probabilities(amps), columns)
    if (p == 0.0).any():
        raise ValueError(f"outcome {outcome.label} has probability zero")
    c0, c1 = (amps[..., columns] * (1.0 / np.sqrt(p))[:, None]).T
    bloch = _pure_blochs(c0, c1)
    _check_unit_ball(bloch)
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


@functools.lru_cache(maxsize=None)
def _outcome_table() -> np.ndarray:
    """The `_padded_table` of the click masks of ALL_OUTCOMES."""
    return _padded_table([_clicked(x) for x in ALL_OUTCOMES])


def _padded_table(masks: list[np.ndarray]) -> np.ndarray:
    """Each mask's kept indices, ascending, one row per mask, padded with the
    index one past the masks' last column; read-only."""
    rows = [np.flatnonzero(mask) for mask in masks]
    table = np.full((len(rows), max(map(len, rows))), len(masks[0]))
    for row, kept in zip(table, rows):
        row[: len(kept)] = kept
    table.flags.writeable = False
    return table


def _masses(probs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """mass(probs, mask) of every mask of a `_padded_table`, shape (..., rows),
    in one sum: the pad index reads an appended 0.0, so each row adds the
    terms of its mask in the same order, and an excluded NaN or inf stays
    out, as it would not from a product with a 0/1 mask."""
    zero = np.zeros(probs.shape[:-1] + (1,))
    return mass(np.concatenate([probs, zero], axis=-1), table)


def _bob_columns(outcome: MeasurementOutcome) -> np.ndarray:
    """The two configurations a paired outcome's element keeps: its clicks
    with Bob's particle on B'0, then on B'1, as combination order has them."""
    return np.flatnonzero(_clicked(outcome))


def bob_conditional(params: TeleportParams, outcome: MeasurementOutcome) -> QubitState:
    """Bob's qubit conditioned on a one-click-per-pair outcome of Alice.

    Only the four such outcomes (PAIRED_OUTCOMES) leave Bob a dual-rail
    qubit; every other click pattern is a failed run and raises a
    ValueError, as does an outcome of probability zero.
    """
    return QubitState(_paired_point(params.R, params.phi, _paired_row(outcome))[1])


def _paired_point(R: float, phi: float, row: int) -> tuple[float, list[float]]:
    """p and Bob's Bloch vector, the numerators over p, for the paired
    outcome in a row of PAIRED_OUTCOMES at one point; p = 0 and a vector
    outside the unit ball raise."""
    p, *numerators = _observables(_table().paired[row], R, phi).tolist()
    if p == 0.0:
        raise ValueError(f"outcome {PAIRED_OUTCOMES[row].label} has probability zero")
    bloch = [n / p for n in numerators]
    _check_unit_ball(bloch)
    return p, bloch


def conditional_with_arm_phases(
    params: TeleportParams, arm_phases: Mapping[str, float]
) -> tuple[float, QubitState]:
    """Probability and Bob's qubit for the ++ outcome with fixed arm phases:
    the constants of a Monte Carlo run at the one draw Phi of
    `saw.combined_phase`.  Every arm must be known and its phase one finite
    real number, checked in one pass before anything is computed; no
    network with phase elements is launched."""
    from . import saw

    arm_phases = arm_phases or {}
    unknown = set(arm_phases) - set(circuit.ARM_WIRES)
    if unknown:
        raise ValueError(f"unknown dephasing arms {sorted(unknown)}")
    for arm, value in arm_phases.items():
        if not _number_within(value):
            # in the network's words, unless it is a grid's array, which the network takes
            name = f"arm phase {arm}" if circuit._all_within(value) else "value"
            raise ValueError(f"{name} must be finite and real, got {value!r}")
    phase = saw.combined_phase(arm_phases)
    run = saw._run_constants(params)
    return run.p, saw._run_state(run, math.cos(phase), math.sin(phase))


def apply_feedforward(state: QubitState, outcome: MeasurementOutcome) -> QubitState:
    """Conditionally apply the sigma_z correction announced by Alice."""
    if outcome in CORRECTED_OUTCOMES:
        # sigma_z rho sigma_z negates x and y: exact, zeros included
        return QubitState(state.bloch * (-1.0, -1.0, 1.0))
    return state


def efficiency(with_feedforward: bool, params: TeleportParams | None = None) -> float:
    """Probability mass of the outcomes that teleport, added left to right
    from the outcome rows of `_table`."""
    params = params or TeleportParams(0.5, 0.0)
    probs = _observables(_table().outcomes, params.R, params.phi).tolist()
    outcomes = PAIRED_OUTCOMES if with_feedforward else UNCORRECTED_OUTCOMES
    return sum((probs[ALL_OUTCOMES.index(x)] for x in outcomes), 0.0)


def tomography_bloch(params: TeleportParams) -> np.ndarray:
    """Reconstruct Bob's ++-conditional Bloch vector from occupation averages.

    Each component divides <N_A0+ N_A1+ (N_B0 - N_B1)> at the matching
    tomography setting by <N_A0+ N_A1+ (1 - N_A0- - N_A1-)>, both exact
    expectations on the pre-measurement state, read from the raw moments
    of `_table`.
    """
    return tomography_bloch_grid(params.R, params.phi)


def tomography_bloch_grid(R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """`tomography_bloch` at every point of a broadcast (R, phi) grid,
    shape (..., 3), one component per setting in X, Y, Z order."""
    moments = _observables(_table().moments[:, _RATIO_ROWS], R, phi)
    b0, b1, pair, a0m, a1m = (moments[..., k] for k in range(len(_RATIO_ROWS)))
    numerator = b0 - b1
    denominator = pair - a0m - a1m
    if not np.all(denominator > 0.0):  # NaN fails too
        raise ValueError("tomography denominator vanished")
    return numerator / denominator


class _Coefficients(NamedTuple):
    """Each exact observable as four real coefficients against g (see the
    module docstring), the last axis of every block."""

    outcomes: np.ndarray  # (16, 4): the probability of each of ALL_OUTCOMES
    paired: np.ndarray  # (4, 4, 4): per PAIRED_OUTCOMES, p then Bob's p x, p y, p z
    moments: np.ndarray  # (3, 41, 4): per setting, <product> of each of _MOMENT_LABELS


@functools.lru_cache(maxsize=None)
def _table() -> _Coefficients:
    """The coefficient table, read-only, from the tomography stage's rows.

    A configuration's probability has the coefficients `_gram` of its
    amplitude with itself; an outcome's probability and an occupation
    moment sum them over a 0/1 mask, left to right.  Bob's qubit after a
    paired outcome is his amplitudes (a0, a1) on B'0 and B'1: p is
    |a0|^2 + |a1|^2, p z is |a0|^2 - |a1|^2, and p (x - i y) is 2 a0 a1*.
    """
    x, y = _form_rows("tomography")
    per_config = _gram(x, y, x, y).real  # (3, sector, 4)
    at_z = np.moveaxis(per_config[_Z_ROW], -1, 0)
    outcomes = _masses(at_z, _outcome_table()).T
    paired = []
    for outcome in PAIRED_OUTCOMES:
        b0, b1 = _bob_columns(outcome)
        coherence = _gram(x[_Z_ROW, b0], y[_Z_ROW, b0], x[_Z_ROW, b1], y[_Z_ROW, b1])
        on_b0, on_b1 = per_config[_Z_ROW, b0], per_config[_Z_ROW, b1]
        paired.append([on_b0 + on_b1, 2.0 * coherence.real, -2.0 * coherence.imag, on_b0 - on_b1])
    _, configs = combination_table(len(OUTPUT_MODES), 3)
    products = [occupations(OUTPUT_MODES, configs, labels).all(axis=1) for labels in _MOMENT_LABELS]
    moments = _masses(np.moveaxis(per_config, -1, -2), _padded_table(products))
    table = _Coefficients(outcomes, np.array(paired), np.moveaxis(moments, -1, -2))
    for block in table:
        block.flags.writeable = False
    return table


def _gram(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """The coefficients against g of a b* for a = c0 xa + c1 ya and
    b = c0 xb + c1 yb, complex, shape (..., 4):
    a b* = g0 xa xb* + g1 ya yb* + g2 (xa yb* + ya xb*) + g3 i (ya xb* - xa yb*).
    Each product is unfused, so the table does not depend on numpy's SIMD
    dispatch."""
    cross, crossed = _unfused_product(xa, np.conj(yb)), _unfused_product(ya, np.conj(xb))
    first, second = _unfused_product(xa, np.conj(xb)), _unfused_product(ya, np.conj(yb))
    turned = _unfused_product(1j, crossed - cross)
    return np.stack([first, second, cross + crossed, turned], axis=-1)


def _observables(block: np.ndarray, R: ArrayLike, phi: ArrayLike) -> np.ndarray:
    """A block of `_table` evaluated at every point of a broadcast (R, phi)
    grid, shape grid + block.shape[:-1]: ((t0 g0 + t1 g1) + t2 g2) + t3 g3,
    with g from the input splitter's S_psi column (c0, c1) as written-out
    real products, so no complex multiply rounds it.  At one point g is
    taken on Python floats: the same IEEE products at a fraction of numpy's
    cost per call."""
    s_psi = circuit.element_matrix(circuit.prep_splitter("A0p", "A1p", R, phi))[..., 0]
    c0, c1 = s_psi.tolist() if s_psi.ndim == 1 else (s_psi[..., 0], s_psi[..., 1])
    re0, im0, re1, im1 = c0.real, c0.imag, c1.real, c1.imag
    g = (re0 * re0 + im0 * im0, re1 * re1 + im1 * im1, re0 * re1 + im0 * im1, re0 * im1 - im0 * re1)
    if s_psi.ndim > 1:
        axes = (Ellipsis,) + (None,) * (block.ndim - 1)  # the block's axes after the grid's
        g = tuple(part[axes] for part in g)
    t0, t1, t2, t3 = (block[..., k] for k in range(4))
    return ((t0 * g[0] + t1 * g[1]) + t2 * g[2]) + t3 * g[3]


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


@functools.lru_cache(maxsize=None)
def _prepared_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which configurations of the prepared stage's three-particle sector hold
    one particle per dual-rail pair (rail 0 first), and which of those put
    the A' and A particles on opposite rails (crossed) or the same rail
    (aligned); parameter-free, so built once and shared read-only."""
    _, configs = combination_table(len(PREPARED_MODES), 3)
    occ = occupations(PREPARED_MODES, configs, PREPARED_MODES.labels)
    dual = (occ[:, 0::2] + occ[:, 1::2] == 1).all(axis=1)
    crossed = occ[:, 0] != occ[:, 2]
    masks = (dual, dual & crossed, dual & ~crossed)
    for mask in masks:
        mask.flags.writeable = False
    return masks


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


@functools.lru_cache(maxsize=None)
def _bell_deviations() -> tuple[float, float]:
    """The Bell Gram matrix's largest deviation from the identity, and that of
    Alice's six projected POVM elements from half the projector onto their
    Bell combination; parameter-free, so evaluated once."""
    bells = bell_states(ModeRegistry(("A0", "A1", "B0p", "B1p")), ("A0", "A1"), ("B0p", "B1p"))
    basis = np.column_stack([state.amps for state in bells.values()])
    gram = basis.conj().T @ basis
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
    povm_dev = max(
        float(np.max(np.abs(projector @ elements[k] @ projector - 0.5 * np.outer(v, v.conj()))))
        for k, v in targets.items()
    )
    return float(np.max(np.abs(gram - np.eye(len(bells))))), povm_dev


def drq_projection_checks(params: TeleportParams) -> dict[str, float]:
    """Structural checks of the dual-rail decomposition and Alice's POVM.

    Expected values: dual_rail_weight = 1/2, split evenly between the
    crossed and aligned Bell sectors; overlap moduli 1/(2*sqrt(2)) for
    the crossed-sector decomposition terms; vanishing deviations for the
    Bell Gram matrix and the projected POVM identities (`_bell_deviations`,
    once per process).  The literal aligned-sector product states pick up
    occupation-ordering signs, so their overlap moduli come out
    |R - D|/(2*sqrt(2)), reported under explicit names, not as the crossed.
    """
    prepared = FockState(
        PREPARED_MODES, 3, premeasurement_amplitudes("preparation", params.R, params.phi)
    )
    dual, crossed, aligned = _prepared_masks()
    gram_dev, povm_dev = _bell_deviations()
    report = {
        "dual_rail_weight": prepared.mass(dual),
        "crossed_sector_weight": prepared.mass(crossed),
        "aligned_sector_weight": prepared.mass(aligned),
        "bell_gram_max_dev": gram_dev,
    }
    for name, term in bell_decomposition_terms(params).items():
        literal = "_literal" if name in ("sigma_x", "i_sigma_y") else ""
        report[f"overlap_modulus_{name}{literal}"] = abs(term.overlap(prepared))
    report["povm_dual_rail_max_dev"] = povm_dev
    return report
