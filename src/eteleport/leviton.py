"""Periodically driven implementation: photoassisted amplitudes, thermal
factors, zero-frequency correlator tables, and Bloch reconstruction.

Internal units set e = hbar = period = 1, so currents are pure numbers
in units of e/T, pair correlators e^2/T, triple correlators e^3/T.
The single-period three-electron model supplies the zero-temperature
correlators through exact occupation cumulants; temperature enters only
through the multiplicative factors F and A on the second- and
third-order correlators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import protocol
from .fock import occupation_moments
from .protocol import TeleportParams
from .saw import damped_average_fidelity

DETECTORS = ("A0+", "A0-", "A1+", "A1-", "B0", "B1")

CURRENT_KEYS = tuple((label,) for label in DETECTORS)
PAIR_KEYS = (
    ("A0+", "A1+"),
    ("A0+", "A1-"),
    ("A0-", "A1+"),
    ("A0-", "A1-"),
    ("A0+", "B0"),
    ("A1+", "B1"),
    ("A0+", "A0-"),
    ("A1+", "A1-"),
    ("A0+", "B1"),
    ("A1+", "B0"),
)
TRIPLE_KEYS = (
    ("A0+", "A1+", "B0"),
    ("A0+", "A1+", "B1"),
    ("A0+", "A0-", "A1+"),
    ("A0+", "A1+", "A1-"),
)


class SeriesConvergenceError(RuntimeError):
    """A thermal-factor series failed to converge within the term cap."""


@dataclass(frozen=True)
class LevitonParams:
    """Dimensionless pulse width gamma = width/period and temperature
    tau = k_B T / (hbar * drive frequency), plus series controls."""

    gamma: float
    tau: float
    series_tol: float = 1e-12
    max_terms: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"pulse width gamma must be positive and finite, got {self.gamma}")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"temperature tau must be non-negative and finite, got {self.tau}")
        if not 0.0 < self.series_tol < math.inf:
            raise ValueError(f"series_tol must be positive and finite, got {self.series_tol}")

    @property
    def term_cap(self) -> int:
        if self.max_terms is not None:
            return self.max_terms
        return max(200, math.ceil(10.0 / self.gamma))


def photoassist_amplitude(n: int, gamma: float) -> complex:
    """Amplitude for absorbing n drive quanta from the Lorentzian pulse train.

    Zero for emission (n < 0); exp(-2*pi*gamma) at n = 0; the absorption
    amplitudes decay geometrically.
    """
    if gamma <= 0.0:
        raise ValueError("pulse width gamma must be positive")
    g = 2.0 * math.pi * gamma
    if n < 0:
        return 0.0 + 0.0j
    if n == 0:
        return complex(math.exp(-g))
    return complex(-2.0 * math.exp(-n * g) * math.sinh(g))


def photoassist_spectrum_oracle(n_values: Sequence[int], gamma: float) -> np.ndarray:
    """Fourier-integral oracle for the photoassisted amplitudes.

    Integrates exp(2 pi i n t) f(t) over one period, where f is the exact
    phase factor of the periodic Lorentzian train, sin pi(t + i gamma) /
    sin pi(t - i gamma) (Keeling, Klich & Levitov, PRL 97, 116403, 2006),
    evaluated as (q z - 1)/(z - q) with z = exp(2 pi i t), q = exp(-2 pi gamma).
    """
    if gamma <= 0.0:
        raise ValueError("pulse width gamma must be positive")
    n_values = np.asarray(list(n_values), dtype=int)
    n_abs_max = int(np.max(np.abs(n_values))) if n_values.size else 0
    # periodic midpoint rule: geometric accuracy once the grid outruns the
    # slowest decay exp(-2*pi*gamma*k)
    n_grid = 64
    while 2.0 * math.pi * gamma * (n_grid - n_abs_max) < 34.0:
        n_grid *= 2
    t = (np.arange(n_grid) + 0.5) / n_grid
    z = np.exp(2j * np.pi * t)
    q = math.exp(-2.0 * math.pi * gamma)
    phase_factor = (q * z - 1.0) / (z - q)
    return np.exp(2j * np.pi * np.outer(n_values, t)) @ phase_factor / n_grid


def photoassist_weight_sum(gamma: float, tol: float = 1e-16) -> float:
    """Numeric sum of |amplitude|^2 over all n; unitarity demands 1."""
    total = abs(photoassist_amplitude(0, gamma)) ** 2
    n = 1
    while True:
        term = abs(photoassist_amplitude(n, gamma)) ** 2
        total += term
        if term < tol:
            return total
        n += 1


def _coth_minus_inv(x: float) -> float:
    """Temperature weight of one harmonic in the pair-correlator factor:
    coth(x) - 1/x, with a series branch near zero."""
    if x < 0.05:
        x2 = x * x
        return x * (1.0 / 3.0 - x2 / 45.0 + 2.0 * x2 * x2 / 945.0)
    return 1.0 / math.tanh(x) - 1.0 / x


def _triple_bracket(x: float) -> float:
    """Temperature weight of one harmonic in the triple-correlator factor.

    coth^2 + csch^2/2 - (3/2x) coth, with a series branch where the
    direct form cancels catastrophically.
    """
    if x < 0.05:
        x2 = x * x
        return x2 * (2.0 / 15.0 - x2 * 2.0 / 105.0 + x2 * x2 * 4.0 / 1575.0)
    coth = 1.0 / math.tanh(x)
    csch2 = 0.0 if x > 350.0 else 1.0 / math.sinh(x) ** 2
    return coth * coth + 0.5 * csch2 - 1.5 * coth / x


@dataclass(frozen=True)
class ThermalFactors:
    pair: float  # multiplies second-order correlators
    triple: float  # multiplies third-order correlators
    damping: float  # their ratio, the Bloch transverse damping
    terms: int


def thermal_factors(params: LevitonParams) -> ThermalFactors:
    """Sum the harmonic series for the two correlator suppression factors.

    Terms are added until they fall below series_tol relative to the
    running sums (three consecutive times) or the cap is hit, which
    raises instead of silently truncating.  At tau = 0 both brackets
    are exactly 1 and the sums reduce to the unit weight sum.
    """
    g = 2.0 * math.pi * params.gamma
    pair_sum = 0.0
    triple_sum = 0.0
    quiet = 0
    n = 0
    while n < params.term_cap:
        n += 1
        weight = n * 4.0 * math.exp(-2.0 * g * n) * math.sinh(g) ** 2
        if params.tau == 0.0:
            pair_term, triple_term = weight, weight
        else:
            x = n / (2.0 * params.tau)
            pair_term = weight * _coth_minus_inv(x)
            triple_term = weight * _triple_bracket(x)
        pair_sum += pair_term
        triple_sum += triple_term
        if abs(pair_term) <= params.series_tol * abs(pair_sum) and abs(
            triple_term
        ) <= params.series_tol * max(abs(triple_sum), 1e-300):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise SeriesConvergenceError(
            f"thermal series not converged after {params.term_cap} terms "
            f"(gamma={params.gamma}, tau={params.tau})"
        )
    if not pair_sum > 0.0:  # sinh(2*pi*gamma)**2 underflows for tiny gamma
        raise SeriesConvergenceError(f"thermal pair sum underflowed to 0 at gamma={params.gamma}")
    damping = triple_sum / pair_sum
    if damping > 1.0 + 1e-9:
        raise RuntimeError(f"correlator damping ratio exceeded 1: {damping}")
    return ThermalFactors(pair_sum, triple_sum, damping, n)


# ---------------------------------------------------------------------------
# Correlator tables
# ---------------------------------------------------------------------------

def _canon(labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(labels))


@dataclass(frozen=True)
class CorrelatorTable:
    """Zero-frequency current observables keyed by detector tuple.

    Kinds: "I" (mean current, e/T), "P" (pair correlator, e^2/T),
    "Q" (triple correlator, e^3/T); numeric values are stored with
    e = T = 1.
    """

    setting: str
    entries: dict[tuple[str, tuple[str, ...]], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.setting not in protocol.TOMO_SETTINGS:
            raise ValueError(f"setting must be one of {sorted(protocol.TOMO_SETTINGS)}")
        for (kind, labels), _ in self.entries.items():
            arity = {"I": 1, "P": 2, "Q": 3}.get(kind)
            if arity is None or len(labels) != arity:
                raise ValueError(f"bad table key {(kind, labels)}")
            for label in labels:
                if label not in DETECTORS:
                    raise ValueError(f"unknown detector {label!r}")

    def current(self, a: str) -> float:
        return self.entries[("I", (a,))]

    def pair(self, a: str, b: str) -> float:
        return self.entries[("P", _canon((a, b)))]

    def triple(self, a: str, b: str, c: str) -> float:
        return self.entries[("Q", _canon((a, b, c)))]

    def scaled(self, pair_factor: float, triple_factor: float) -> "CorrelatorTable":
        scale = {"I": 1.0, "P": pair_factor, "Q": triple_factor}
        return CorrelatorTable(
            self.setting,
            {key: value * scale[key[0]] for key, value in self.entries.items()},
        )

    def max_deviation(self, other: "CorrelatorTable") -> float:
        if set(self.entries) != set(other.entries):
            raise ValueError("tables hold different keys")
        return max(
            abs(self.entries[k] - other.entries[k]) for k in self.entries
        )


def zero_T_correlators(R: float, phi: float, setting: str) -> CorrelatorTable:
    """All needed currents and cumulants from the Fock model at T = 0.

    One period injects the three-electron state; the excess-electron
    correspondence turns occupation mean/central moments directly into
    I, P, Q values.
    """
    state = protocol.run_premeasurement(TeleportParams(R, phi, setting), "tomography")
    entries: dict[tuple[str, tuple[str, ...]], float] = {}
    for key in CURRENT_KEYS:
        entries[("I", _canon(key))] = occupation_moments(state, key)
    for key in PAIR_KEYS:
        entries[("P", _canon(key))] = occupation_moments(state, key)
    for key in TRIPLE_KEYS:
        entries[("Q", _canon(key))] = occupation_moments(state, key)
    return CorrelatorTable(setting, entries)


def reference_correlators(R: float, phi: float, setting: str) -> CorrelatorTable:
    """Closed-form zero-temperature table for the same keys."""
    if setting not in protocol.TOMO_SETTINGS:
        raise ValueError(f"setting must be one of {sorted(protocol.TOMO_SETTINGS)}")
    D = 1.0 - R
    identity_setting = setting == "Z"  # D' = 1: Bob's splitter is the identity
    root = math.sqrt(R * D)
    q_b0 = {
        "X": root * math.sin(phi) / 16.0,
        "Y": -root * math.cos(phi) / 16.0,
        "Z": 0.0,
    }[setting]
    entries: dict[tuple[str, tuple[str, ...]], float] = {}
    entries[("I", ("A0+",))] = 0.25 + R / 2.0
    entries[("I", ("A0-",))] = 0.25 + R / 2.0
    entries[("I", ("A1+",))] = 0.25 + D / 2.0
    entries[("I", ("A1-",))] = 0.25 + D / 2.0
    entries[("I", ("B0",))] = 0.5
    entries[("I", ("B1",))] = 0.5
    for pair in (("A0+", "A1+"), ("A0+", "A1-"), ("A0-", "A1+"), ("A0-", "A1-")):
        entries[("P", _canon(pair))] = -R * D / 4.0
    cross = -0.125 if identity_setting else -0.0625
    entries[("P", _canon(("A0+", "B0")))] = cross
    entries[("P", _canon(("A1+", "B1")))] = cross
    same_arm = -(0.0625 - R * D / 4.0)
    entries[("P", _canon(("A0+", "A0-")))] = same_arm
    entries[("P", _canon(("A1+", "A1-")))] = same_arm
    anti = 0.0 if identity_setting else -0.0625
    entries[("P", _canon(("A0+", "B1")))] = anti
    entries[("P", _canon(("A1+", "B0")))] = anti
    entries[("Q", _canon(("A0+", "A1+", "B0")))] = q_b0
    entries[("Q", _canon(("A0+", "A1+", "B1")))] = -q_b0
    entries[("Q", _canon(("A0+", "A0-", "A1+")))] = R * D * (R - D) / 8.0
    entries[("Q", _canon(("A0+", "A1+", "A1-")))] = R * D * (D - R) / 8.0
    return CorrelatorTable(setting, entries)


def finite_T_correlators(
    table: CorrelatorTable, pair_factor: float, triple_factor: float
) -> CorrelatorTable:
    """Scale the table to finite temperature: I unchanged, P and Q damped."""
    for name, value in (("pair", pair_factor), ("triple", triple_factor)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} factor must lie in (0, 1], got {value}")
    return table.scaled(pair_factor, triple_factor)


def bloch_from_correlators(table: CorrelatorTable) -> tuple[float, float]:
    """Assemble one Bloch component and the normalization from a table.

    The component measured is the one selected by the table's setting.
    Returns (component, K) where K is the ++ click probability, 1/16 at
    zero temperature.
    """
    i_a0p = table.current("A0+")
    i_a1p = table.current("A1+")
    i_a0m = table.current("A0-")
    i_a1m = table.current("A1-")
    i_b0 = table.current("B0")
    i_b1 = table.current("B1")
    j = (
        (table.triple("A0+", "A1+", "B0") - table.triple("A0+", "A1+", "B1"))
        + table.pair("A0+", "A1+") * (i_b0 - i_b1)
        + i_a1p * (table.pair("A0+", "B0") - table.pair("A0+", "B1"))
        + i_a0p * (table.pair("A1+", "B0") - table.pair("A1+", "B1"))
        + i_a0p * i_a1p * (i_b0 - i_b1)
    )
    k = (
        i_a0p * i_a1p * (1.0 - (i_a0m + i_a1m))
        - i_a0p * (table.pair("A0-", "A1+") + table.pair("A1+", "A1-"))
        - i_a1p * (table.pair("A0+", "A0-") + table.pair("A0+", "A1-"))
        - (table.triple("A0+", "A1+", "A0-") + table.triple("A0+", "A1+", "A1-"))
    )
    if k <= 0.0:
        raise ValueError(f"degenerate normalization K = {k}")
    return j / k, k


def reconstructed_bloch(
    tables: dict[str, CorrelatorTable]
) -> tuple[np.ndarray, dict[str, float]]:
    """Full Bloch vector from one table per tomography axis."""
    components = []
    norms = {}
    for axis in ("X", "Y", "Z"):
        value, k = bloch_from_correlators(tables[axis])
        components.append(value)
        norms[axis] = k
    return np.array(components), norms


def leviton_fidelity(params: LevitonParams) -> float:
    """Input-averaged teleportation fidelity at the given width and temperature."""
    return damped_average_fidelity(thermal_factors(params).damping)


def fidelity_curve(
    gammas: Sequence[float], taus: Sequence[float], series_tol: float = 1e-12
) -> list[dict[str, float]]:
    """Fidelity dataset over a (gamma, tau) grid, ordered by (gamma, tau)."""
    rows = []
    for gamma in gammas:
        for tau in taus:
            factors = thermal_factors(LevitonParams(gamma, tau, series_tol))
            rows.append(
                {
                    "gamma": float(gamma),
                    "tau": float(tau),
                    "q": factors.damping,
                    "fidelity": damped_average_fidelity(factors.damping),
                }
            )
    return rows
