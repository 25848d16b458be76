"""Fermionic Fock-space engine over named modes.

States carry a fixed particle number over a registry of named modes.
An occupation configuration is a bit field (bit i = occupation of the
mode at registry index i).  A state is one read-only complex vector over
its particle-number sector, in combination order, the layout in which
the lifts return amplitudes; its configurations are the sector's shared
row of `combination_table`.  `occupations` is the one primitive that
reads bits from configurations; projections, POVM weights and
occupation moments are all built on the 0/1 matrix it returns.  Basis
kets are defined by creating particles in ascending registry-index
order.  Single-particle unitaries lift to the many-body space with
determinant amplitudes; `lift_amplitudes` and `lift_matrix` share one
combination table per sector.  A unitary may hold a stack of
matrices, one per parameter point: `lift_amplitudes` then evolves a
state through all of them in one determinant launch, checking unitarity
and norm per point.  No printed probability comes from a BLAS product or
depends on numpy's SIMD dispatch (`probabilities`, `mass`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

NORM_TOL = 1e-10
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered, unique mode labels; index order fixes all sign conventions."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not all(isinstance(lab, str) for lab in labels):
            raise ValueError(f"mode labels must be strings, got {labels}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels in {labels}")
        object.__setattr__(self, "_indices", {lab: i for i, lab in enumerate(labels)})

    def index(self, label: str) -> int:
        try:
            return self._indices[label]
        except KeyError:
            raise ValueError(
                f"unknown mode label {label!r}; registry holds {self.labels}"
            ) from None

    def indices(self, labels: Iterable[str]) -> list[int]:
        return [self.index(lab) for lab in labels]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._indices

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)


# Canonical registries of the six-mode teleportation setup.  Input order
# alternates sources and grounded inputs; output order lists Alice's four
# detectors then Bob's two.  "p" marks primed modes (A0p reads "A0-prime").
INPUT_MODES = ModeRegistry(("S_phi0", "G_phi0", "S_phi1", "G_phi1", "S_psi", "G_psi"))
OUTPUT_MODES = ModeRegistry(("A0+", "A0-", "A1+", "A1-", "B0", "B1"))
# Same stage as OUTPUT_MODES but with Bob's tomography splitter not yet applied.
DETECTION_MODES = ModeRegistry(("A0+", "A0-", "A1+", "A1-", "B0p", "B1p"))
# Stage after the source splitters only.
PREPARED_MODES = ModeRegistry(("A0p", "A1p", "A0", "A1", "B0p", "B1p"))


def _config(indices: Iterable[int]) -> int:
    """Configuration with the given registry indices occupied."""
    return functools.reduce(operator.or_, (1 << i for i in indices), 0)


def occupations(
    registry: ModeRegistry, configs: Sequence[int] | np.ndarray, labels: Sequence[str]
) -> np.ndarray:
    """0/1 occupation matrix: entry [k, j] is the occupation of mode
    labels[j] in configs[k].

    This is the only place that reads bits from a configuration.
    """
    shifts = np.array(registry.indices(labels), dtype=np.int64)
    return (np.asarray(configs, dtype=np.int64)[:, None] >> shifts) & 1


@functools.lru_cache(maxsize=None)
def combination_table(n_modes: int, particle_number: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied-index rows and configurations of one sector, in combination
    order; one read-only table shared by states and both lifts."""
    combos = list(itertools.combinations(range(n_modes), particle_number))
    occupied = np.array(combos, dtype=np.int64).reshape(len(combos), particle_number)
    configs = np.array([_config(c) for c in combos], dtype=np.int64)
    occupied.flags.writeable = configs.flags.writeable = False
    return occupied, configs


def probabilities(amps: np.ndarray) -> np.ndarray:
    """|amplitude|^2 elementwise, for amplitude arrays of any shape."""
    # |a| by np.hypot, which calls libm's hypot as Python's abs of a complex
    # does, with or without numpy's SIMD dispatch; np.abs of a complex array
    # does not (its SIMD kernel differs in the last bit for about a third of
    # random elements), nor does math.hypot.  h * h is correctly rounded,
    # where h ** 2 goes through libm's pow.
    amps = np.asarray(amps)
    h = np.hypot(amps.real, amps.imag)
    return h * h


def mass(probs: np.ndarray, keep: np.ndarray | slice) -> np.ndarray | float:
    """Sum of probs[..., keep] over the last axis, one sum per leading index.

    `keep` may be an index table: each row of it is then summed on its own."""
    # added left to right, not pairwise, so printed results keep their digits:
    # accumulate is sequential by definition, and the trailing 0.0 is the
    # start of the sum, which turns a sum of -0.0 terms into +0.0.  A 1-D
    # array is gathered without the Ellipsis, the same elements in the same
    # order at a third to a sixth of numpy's cost per call
    kept = probs[keep] if probs.ndim == 1 else probs[..., keep]
    if kept.ndim == 1:
        return functools.reduce(operator.add, kept.tolist(), 0.0)
    if kept.shape[-1] == 0:
        return np.zeros(kept.shape[:-1])
    return np.add.accumulate(kept, axis=-1)[..., -1] + 0.0


def _unfused_product(a: np.ndarray | complex, b: np.ndarray | complex) -> np.ndarray:
    """a * b, complex, elementwise, each real product rounded on its own, as
    numpy's scalar loop rounds them (a real a is a + 0j): its SIMD complex
    multiply fuses them on hosts with FMA, so its bytes follow the host."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    real, imag = a.real * b.real, a.real * b.imag
    real -= a.imag * b.imag
    imag += a.imag * b.real
    product = np.empty(real.shape, dtype=complex)
    product.real, product.imag = real, imag
    return product


def _reorder_sign(indices: Sequence[int]) -> int:
    """Sign of the permutation that sorts a distinct index sequence ascending."""
    inversions = sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])
    return -1 if inversions % 2 else 1


@functools.lru_cache(maxsize=1024)
def _term(registry: ModeRegistry, labels: tuple[str, ...]) -> tuple[int, int, int] | None:
    """A creation-operator string's (particle count, configuration, reordering
    sign), or None when a label repeats; an unknown label raises at each call."""
    idx = registry.indices(labels)
    if len(set(idx)) != len(idx):
        return None
    return len(idx), _config(idx), _reorder_sign(idx)


@dataclass(frozen=True, eq=False, init=False)
class FockState:
    """Fixed-particle-number state stored as one read-only complex array.

    `amps` holds an amplitude for every configuration of the sector, in
    combination order, the sector's row of `combination_table`.
    """

    registry: ModeRegistry
    particle_number: int
    amps: np.ndarray

    def __init__(
        self, registry: ModeRegistry, particle_number: int, amps: np.ndarray | Sequence[complex]
    ):
        _, sector = combination_table(len(registry), particle_number)
        if np.shape(amps) != sector.shape:
            raise ValueError(
                f"expected a vector of {len(sector)} amplitudes, got shape {np.shape(amps)}"
            )
        amps = np.array(amps, dtype=complex)
        amps.flags.writeable = False  # probabilities are cached
        self.__dict__.update(registry=registry, particle_number=particle_number, amps=amps)

    @classmethod
    def from_terms(
        cls,
        registry: ModeRegistry,
        terms: Iterable[tuple[complex, Sequence[str]]],
    ) -> "FockState":
        """Build a state from creation-operator strings acting on the vacuum.

        Each term is (coefficient, labels) with labels in written operator
        order; the anticommutation sign from reordering into ascending
        registry order is applied automatically.  Terms with a repeated
        label vanish.
        """
        amps: dict[int, complex] = {}
        n = None
        for coeff, labels in terms:
            term = _term(registry, tuple(labels))
            if term is None:
                continue
            count, config, sign = term
            if n is None:
                n = count
            elif count != n:
                raise ValueError("terms with differing particle numbers")
            amps[config] = amps.get(config, 0.0) + coeff * sign
        if n is None:
            raise ValueError("no terms given")
        _, sector = combination_table(len(registry), n)
        return cls(registry, n, [amps.get(c, 0.0) for c in sector.tolist()])

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 of each configuration."""
        return probabilities(self.amps)

    def mass(self, keep: np.ndarray | slice) -> float:
        """Probability of the configurations flagged in `keep`."""
        return mass(self.probabilities, keep)

    def norm(self) -> float:
        return math.sqrt(self.mass(slice(None)))

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other>."""
        if self.registry != other.registry or self.particle_number != other.particle_number:
            raise ValueError("overlap requires matching registries and particle numbers")
        # scalar products added left to right over the sector: the order, and
        # the rounding, that printed overlaps were computed in
        pairs = zip(self.amps.tolist(), other.amps.tolist())
        return functools.reduce(operator.add, (a.conjugate() * b for a, b in pairs), 0j)


@dataclass(frozen=True, eq=False)
class SingleParticleUnitary:
    """M x M unitary with named output (rows) and input (cols) modes.

    `matrix` may be a stack (..., M, M) of unitaries sharing the
    registries, one per parameter point; each is checked.
    """

    matrix: np.ndarray
    rows: ModeRegistry
    cols: ModeRegistry

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape[-2:] != (len(self.rows), len(self.cols)) or len(self.rows) != len(self.cols):
            raise ValueError(f"matrix shape {m.shape} does not match the registries")
        gram = m.conj().swapaxes(-1, -2) @ m
        defect = np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1))
        if not (defect <= UNITARITY_TOL).all():  # NaN fails too
            raise ValueError(f"matrix is not unitary (defect {np.max(defect):.3e})")

    def relabel(
        self, rows: ModeRegistry, cols: ModeRegistry, order: Sequence[int]
    ) -> "SingleParticleUnitary":
        """The same map with output row k taken from row order[k] and the
        modes renamed to `rows` and `cols`.  Permuting the rows of a unitary
        keeps it unitary, so the view is not checked again."""
        if sorted(order) != list(range(len(self.rows))) or len(rows) != len(order):
            raise ValueError(f"{order} is not a permutation of {len(self.rows)} rows")
        if len(cols) != len(self.cols):
            raise ValueError(f"expected {len(self.cols)} input modes, got {len(cols)}")
        view = object.__new__(SingleParticleUnitary)
        view.__dict__.update(matrix=self.matrix[..., order, :], rows=rows, cols=cols)
        return view


def create_sources(registry: ModeRegistry, occupied_labels: Sequence[str]) -> FockState:
    """Product state with one particle in each listed mode, amplitude +1.

    The sign convention is fixed by creating particles in ascending
    registry-index order, so the amplitude is exactly 1 regardless of the
    order in which labels are listed.
    """
    idx = registry.indices(occupied_labels)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate source labels in {tuple(occupied_labels)}")
    _, sector = combination_table(len(registry), len(idx))
    return FockState(registry, len(idx), sector == _config(idx))


def _lifted(
    u: SingleParticleUnitary, particle_number: int, occupied: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sector configurations and det(u[rows=out, cols=in]) for every output
    configuration (rows) and every input occupied-index row (columns)."""
    combos, configs = combination_table(len(u.rows), particle_number)
    blocks = u.matrix[..., combos[:, None, :, None], occupied[None, :, None, :]]
    return configs, np.linalg.det(blocks)


def lift_amplitudes(u: SingleParticleUnitary, state: FockState) -> np.ndarray:
    """Evolve a state by the second-quantized lift of a single-particle
    unitary, or of every unitary of a stack in one determinant launch.

    The amplitude sent to an output configuration O from an input
    configuration I is det(u[rows=O, cols=I]) with both index sets sorted
    ascending, which is the free-fermion (Slater determinant) rule.
    Returns the amplitudes over u.rows' sector in combination order, shape
    (..., sector size) with the stack's shape leading, through `_norm_checked`.
    """
    if u.cols != state.registry:
        raise ValueError("unitary input registry does not match the state registry")
    occupied, _ = combination_table(len(state.registry), state.particle_number)
    support = np.flatnonzero(state.amps)  # a product state needs one column, not the sector
    _, dets = _lifted(u, state.particle_number, occupied[support])
    out = np.zeros(dets.shape[:-1], dtype=complex)
    for column, amp in enumerate(state.amps[support]):
        out += dets[..., column] * amp
    return _norm_checked(out, state.norm())


def _norm_checked(out: np.ndarray, norm: float) -> np.ndarray:
    """Evolved amplitudes (..., sector) as they are; raises unless every
    point keeps the norm."""
    norms = np.sqrt((np.abs(out) ** 2).sum(axis=-1))
    if not (np.abs(norms - norm) <= NORM_TOL).all():  # NaN fails too
        raise ValueError("lifted evolution failed to preserve the norm")
    return out


def lift_matrix(
    u: SingleParticleUnitary, particle_number: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense lift of a unitary onto the fixed-particle-number config basis.

    Returns the sector's configurations (combination order) shared by rows
    and columns, and the matrix L with L[out, in] = det(u[rows=out, cols=in]).
    """
    combos, _ = combination_table(len(u.cols), particle_number)
    return _lifted(u, particle_number, combos)
