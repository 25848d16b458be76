"""Fermionic Fock-space engine over named modes.

States carry a fixed particle number over a registry of named modes.
An occupation configuration is a bit field (bit i = occupation of the
mode at registry index i).  A state stores two matching arrays: its
configurations, in the combination order of its particle-number sector,
and their complex amplitudes.  `occupations` is the one primitive that
reads bits from configurations; projections, POVM weights and
occupation moments are all built on the 0/1 matrix it returns.  Basis
kets are defined by creating particles in ascending registry-index
order.  Single-particle unitaries lift to the many-body space with
determinant amplitudes; `lift_apply` and `lift_matrix` share one
combination table per sector.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-10
UNITARITY_TOL = 1e-12
PRUNE_TOL = 1e-14


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered, unique mode labels; index order fixes all sign conventions."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
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
    config = 0
    for i in indices:
        config |= 1 << i
    return config


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


def _reorder_sign(indices: Sequence[int]) -> int:
    """Sign of the permutation that sorts a distinct index sequence ascending."""
    inversions = 0
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            if indices[i] > indices[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


@dataclass(frozen=True, eq=False, init=False)
class FockState:
    """Fixed-particle-number state stored as two matching read-only arrays.

    `configs` (int64) lists the configurations in combination order and
    `amps` their complex amplitudes.  The constructor takes and validates
    a config -> amplitude mapping; `amplitudes` is a read-only view of it.
    """

    registry: ModeRegistry
    particle_number: int
    configs: np.ndarray
    amps: np.ndarray

    def __init__(
        self,
        registry: ModeRegistry,
        particle_number: int,
        amplitudes: Mapping[int, complex],
    ):
        _, sector = combination_table(len(registry), particle_number)
        configs = [c for c in sector.tolist() if c in amplitudes]
        if len(configs) != len(amplitudes):
            stray = min(set(amplitudes) - set(configs))
            raise ValueError(
                f"configuration {stray:#b} is not one of {particle_number} "
                f"particles in {len(registry)} modes"
            )
        amps = np.array([amplitudes[c] for c in configs], dtype=complex)
        configs = np.array(configs, dtype=np.int64)
        configs.flags.writeable = amps.flags.writeable = False  # probabilities are cached
        self.__dict__.update(
            registry=registry, particle_number=particle_number, configs=configs, amps=amps
        )

    @classmethod
    def from_terms(
        cls,
        registry: ModeRegistry,
        terms: Iterable[tuple[complex, Sequence[str]]],
        particle_number: int | None = None,
    ) -> "FockState":
        """Build a state from creation-operator strings acting on the vacuum.

        Each term is (coefficient, labels) with labels in written operator
        order; the anticommutation sign from reordering into ascending
        registry order is applied automatically.  Terms with a repeated
        label vanish.
        """
        amps: dict[int, complex] = {}
        n = particle_number
        for coeff, labels in terms:
            idx = registry.indices(labels)
            if len(set(idx)) != len(idx):
                continue
            if n is None:
                n = len(idx)
            elif len(idx) != n:
                raise ValueError("terms with differing particle numbers")
            config = _config(idx)
            amps[config] = amps.get(config, 0.0) + coeff * _reorder_sign(idx)
        if n is None:
            raise ValueError("no terms given")
        amps = {c: a for c, a in amps.items() if abs(a) > PRUNE_TOL}
        return cls(registry, n, amps)

    @property
    def amplitudes(self) -> Mapping[int, complex]:
        """Read-only view config -> amplitude, in combination order."""
        return MappingProxyType(dict(zip(self.configs.tolist(), self.amps.tolist())))

    @property
    def is_empty(self) -> bool:
        return not self.configs.size

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 of each configuration."""
        # scalar abs on purpose: numpy's vectorised complex abs can round the
        # last bit differently, and printed results are reproduced byte for byte
        return np.array([abs(a) ** 2 for a in self.amps.tolist()])

    def mass(self, keep: np.ndarray | slice) -> float:
        """Probability of the configurations flagged in `keep`."""
        # added left to right, not pairwise, so printed results keep their digits
        return functools.reduce(operator.add, self.probabilities[keep].tolist(), 0.0)

    def select(self, keep: np.ndarray) -> tuple[float, "FockState"]:
        """Probability of the flagged configurations and the renormalized
        state restricted to them; probability zero yields an empty state."""
        p = self.mass(keep)
        if p == 0.0:
            return 0.0, FockState(self.registry, self.particle_number, {})
        amps = self.amps[keep] * (1.0 / math.sqrt(p))
        kept = dict(zip(self.configs[keep].tolist(), amps))
        return p, FockState(self.registry, self.particle_number, kept)

    def norm(self) -> float:
        return math.sqrt(self.mass(slice(None)))

    def vector(self) -> np.ndarray:
        """Amplitudes over the whole sector, in combination order."""
        _, sector = combination_table(len(self.registry), self.particle_number)
        v = np.zeros(len(sector), dtype=complex)
        v[np.isin(sector, self.configs)] = self.amps  # both in combination order
        return v

    def overlap(self, other: "FockState") -> complex:
        """Inner product <self|other>."""
        if self.registry != other.registry or self.particle_number != other.particle_number:
            raise ValueError("overlap requires matching registries and particle numbers")
        mine = self.amplitudes
        # scalar products added left to right over other's configurations:
        # the order, and the rounding, that printed overlaps were computed in
        pairs = zip(other.configs.tolist(), other.amps.tolist())
        terms = [mine.get(c, 0j).conjugate() * a for c, a in pairs]
        return functools.reduce(operator.add, terms, 0j)

    def amplitude(self, occupied_labels: Iterable[str]) -> complex:
        hit = self.amps[self.configs == _config(self.registry.indices(occupied_labels))]
        return complex(hit[0]) if hit.size else 0j

    def occupation_distribution(
        self, labels: Sequence[str]
    ) -> dict[tuple[int, ...], float]:
        """Joint probability of occupations on the given modes."""
        occ = occupations(self.registry, self.configs, labels).tolist()
        dist: dict[tuple[int, ...], float] = {}
        for key, p in zip(map(tuple, occ), self.probabilities.tolist()):
            dist[key] = dist.get(key, 0.0) + p
        return dist


@dataclass(frozen=True, eq=False)
class SingleParticleUnitary:
    """M x M unitary with named output (rows) and input (cols) modes."""

    matrix: np.ndarray
    rows: ModeRegistry
    cols: ModeRegistry

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.rows), len(self.cols)) or len(self.rows) != len(self.cols):
            raise ValueError(f"matrix shape {m.shape} does not match the registries")
        defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if not defect <= UNITARITY_TOL:  # NaN fails too
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")

    @classmethod
    def identity(cls, registry: ModeRegistry) -> "SingleParticleUnitary":
        return cls(np.eye(len(registry), dtype=complex), registry, registry)

    def __matmul__(self, other: "SingleParticleUnitary") -> "SingleParticleUnitary":
        if self.cols != other.rows:
            raise ValueError("registry mismatch in composition")
        return SingleParticleUnitary(self.matrix @ other.matrix, self.rows, other.cols)


def create_sources(registry: ModeRegistry, occupied_labels: Sequence[str]) -> FockState:
    """Product state with one particle in each listed mode, amplitude +1.

    The sign convention is fixed by creating particles in ascending
    registry-index order, so the amplitude is exactly 1 regardless of the
    order in which labels are listed.
    """
    idx = registry.indices(occupied_labels)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate source labels in {tuple(occupied_labels)}")
    return FockState(registry, len(idx), {_config(idx): 1.0 + 0.0j})


def _lifted(
    u: SingleParticleUnitary, particle_number: int, occupied: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sector configurations and det(u[rows=out, cols=in]) for every output
    configuration (rows) and every input occupied-index row (columns)."""
    combos, configs = combination_table(len(u.rows), particle_number)
    blocks = u.matrix[combos[:, None, :, None], occupied[None, :, None, :]]
    return configs, np.linalg.det(blocks)


def lift_apply(u: SingleParticleUnitary, state: FockState) -> FockState:
    """Evolve a state by the second-quantized lift of a single-particle unitary.

    The amplitude sent to an output configuration O from an input
    configuration I is det(u[rows=O, cols=I]) with both index sets sorted
    ascending, which is the free-fermion (Slater determinant) rule.
    Particle number and norm are preserved.
    """
    if u.cols != state.registry:
        raise ValueError("unitary input registry does not match the state registry")
    n = state.particle_number
    occ = occupations(state.registry, state.configs, state.registry.labels)
    configs, dets = _lifted(u, n, np.nonzero(occ)[1].reshape(len(occ), n))
    out = np.zeros(len(configs), dtype=complex)
    for column, amp in zip(dets.T, state.amps):
        out += column * amp
    keep = np.abs(out) > PRUNE_TOL
    result = FockState(u.rows, n, dict(zip(configs[keep].tolist(), out[keep])))
    if not abs(result.norm() - state.norm()) <= NORM_TOL:  # NaN fails too
        raise ValueError("lifted evolution failed to preserve the norm")
    return result


def lift_matrix(
    u: SingleParticleUnitary, particle_number: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense lift of a unitary onto the fixed-particle-number config basis.

    Returns the sector's configurations (combination order) shared by rows
    and columns, and the matrix L with L[out, in] = det(u[rows=out, cols=in]).
    """
    combos, _ = combination_table(len(u.cols), particle_number)
    return _lifted(u, particle_number, combos)


def project_number(state: FockState, mode_label: str, n: int) -> tuple[float, FockState]:
    """Projective measurement of one mode's occupation.

    Returns (probability of outcome n, renormalized post-measurement
    state).  Probability zero yields an empty state.
    """
    if n not in (0, 1):
        raise ValueError(f"occupation outcome must be 0 or 1, got {n}")
    return state.select(occupations(state.registry, state.configs, (mode_label,))[:, 0] == n)


def occupation_moments(state: FockState, labels: Sequence[str]) -> float:
    """Mean (1 label) or central occupation moment (2 or 3 labels).

    Occupations are jointly diagonal in the configuration basis, so the
    moments are those of the classical distribution |amplitude|^2;
    the result is exact (no sampling).  Repeated labels are rejected
    because powers of an occupation obey a different cumulant algebra.
    """
    if not 1 <= len(labels) <= 3:
        raise ValueError("occupation_moments takes 1 to 3 mode labels")
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated mode label in {tuple(labels)}")
    occ = np.ascontiguousarray(
        occupations(state.registry, state.configs, labels).T, dtype=float
    )
    probs = state.probabilities
    means = occ @ probs
    if len(labels) == 1:
        return float(means[0])
    centered = occ - means[:, None]
    return float(np.prod(centered, axis=0) @ probs)


def occupation_product_mean(state: FockState, labels: Sequence[str]) -> float:
    """Exact expectation of a product of occupation numbers, <N_a N_b ...>."""
    if len(set(labels)) != len(labels):
        raise ValueError(f"repeated mode label in {tuple(labels)}")
    return state.mass(occupations(state.registry, state.configs, labels).all(axis=1))
