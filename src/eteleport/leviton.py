"""Periodically driven implementation: photoassisted amplitudes,
zero-frequency correlator tables, and Bloch reconstruction.

Internal units set e = hbar = period = 1, so currents are pure numbers
in units of e/T, pair correlators e^2/T, triple correlators e^3/T.
The single-period three-electron model supplies the zero-temperature
correlators through exact occupation cumulants; temperature enters only
through the multiplicative factors F and A on the second- and
third-order correlators, which `scalar.thermal_factors` sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import protocol, scalar
from .circuit import ArrayLike
from .fock import OUTPUT_MODES, _unfused_product, mass
from .scalar import _check_gamma, _integer, _number_within

# the thermal series is `scalar`'s; perfbench's exact_sweep still reads
# these two as this module's names
LevitonParams = scalar.LevitonParams
thermal_factors = scalar.thermal_factors

DETECTORS = OUTPUT_MODES.labels

# Correlator table columns, in the order tables are printed, each label
# tuple sorted; the kind of a column is its number of labels.
KEYS = (
    # currents I
    ("A0+",), ("A0-",), ("A1+",), ("A1-",), ("B0",), ("B1",),
    # pair correlators P
    ("A0+", "A0-"), ("A0+", "A1+"), ("A0+", "A1-"), ("A0+", "B0"), ("A0+", "B1"),
    ("A0-", "A1+"), ("A0-", "A1-"), ("A1+", "A1-"), ("A1+", "B0"), ("A1+", "B1"),
    # triple correlators Q
    ("A0+", "A0-", "A1+"), ("A0+", "A1+", "A1-"), ("A0+", "A1+", "B0"), ("A0+", "A1+", "B1"),
)
CURRENTS = slice(0, len(DETECTORS))
# every order of each key's labels, so a read sorts nothing
_COLUMNS = {
    labels: column
    for column, key in enumerate(KEYS)
    for labels in itertools.permutations(key)
}
# each column's kind, 0 for I, 1 for P and 2 for Q: its entry of a
# (1, pair factor, triple factor) row
_KINDS = np.array([len(key) - 1 for key in KEYS])
_KINDS.flags.writeable = False


# The raw moments the cumulants read, rows of `protocol._table().moments`:
# <a> of each I; <ab>, <a>, <b> of each P; and <abc>, <ab>, <c>, <ac>, <b>,
# <bc>, <a> of each Q, as the parts of each key of that kind.  KEYS lists
# every I, then every P, then every Q; the factors are gathered at once.
_FACTORS = [
    [protocol._MOMENT_LABELS.index(key[part]) for key in KEYS if len(key) == n]
    for n, parts in (
        (1, [slice(None)]),
        (2, [slice(None), slice(1), slice(1, 2)]),
        (3, [slice(None), slice(2), slice(2, 3), slice(0, 3, 2), slice(1, 2), slice(1, 3),
             slice(1)]),
    )
    for part in parts
]
_CUMULANT_ROWS = np.concatenate(_FACTORS)
_SPANS = [
    slice(end - len(rows), end)
    for end, rows in zip(itertools.accumulate(map(len, _FACTORS)), _FACTORS)
]


def photoassist_amplitude(n: int, gamma: float) -> complex:
    """Amplitude for absorbing n drive quanta from the Lorentzian pulse train.

    Zero for emission (n < 0); exp(-2*pi*gamma) at n = 0; the absorption
    amplitudes decay geometrically.
    """
    n = _integer(n, "photon number n")
    _check_gamma(gamma)
    return _amplitude(n, 2.0 * math.pi * gamma)


def _amplitude(n: int, g: float) -> complex:
    """`photoassist_amplitude` at a checked n and g = 2 pi gamma."""
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
    _check_gamma(gamma)
    n_values = np.array([_integer(n, "photon number n") for n in n_values], dtype=int)
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
    wave = np.exp(2j * np.pi * np.outer(n_values, t))
    # each complex product unfused, then added left to right over the grid:
    # a BLAS product rounds as the host's BLAS kernel does, and numpy's
    # complex multiply fuses on hosts with FMA
    return mass(_unfused_product(wave, phase_factor), slice(None)) / n_grid


def photoassist_weight_sum(gamma: float) -> float:
    """Numeric sum of |amplitude|^2 over all n, up to the first term below
    1e-16; unitarity demands 1.  gamma is checked once, not per term."""
    _check_gamma(gamma)
    g = 2.0 * math.pi * gamma
    total = abs(_amplitude(0, g)) ** 2
    n = 1
    while True:
        term = abs(_amplitude(n, g)) ** 2
        total += term
        if term < 1e-16:
            return total
        n += 1


# ---------------------------------------------------------------------------
# Correlator tables
# ---------------------------------------------------------------------------

def _setting_row(setting: str) -> int:
    """A tomography setting's row of the tomography stage; rejects any other."""
    settings = list(protocol.TOMO_SETTINGS)
    if setting not in settings:  # compared, never hashed
        raise ValueError(f"setting must be one of {sorted(settings)}")
    return settings.index(setting)


@dataclass(frozen=True, eq=False)
class CorrelatorTable:
    """Zero-frequency current observables, one column per entry of `KEYS`.

    Kinds: "I" (mean current, e/T), "P" (pair correlator, e^2/T),
    "Q" (triple correlator, e^3/T); numeric values are stored with
    e = T = 1.  `values` is one read-only (..., len(KEYS)) array, one row
    per point of a parameter grid.
    """

    setting: str
    values: np.ndarray

    def __post_init__(self):
        _setting_row(self.setting)
        values = np.array(self.values, dtype=float)
        if values.shape[-1:] != (len(KEYS),):
            raise ValueError(f"expected {len(KEYS)} values per row, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _column(self, labels: tuple[str, ...]) -> np.ndarray:
        return self.values[..., _COLUMNS[labels]]

    def current(self, a: str) -> np.ndarray:
        return self._column((a,))

    def pair(self, a: str, b: str) -> np.ndarray:
        return self._column((a, b))

    def triple(self, a: str, b: str, c: str) -> np.ndarray:
        return self._column((a, b, c))

    def max_deviation(self, other: "CorrelatorTable") -> float:
        return float(np.max(np.abs(self.values - other.values)))


def zero_T_correlators(R: ArrayLike, phi: ArrayLike, setting: str) -> CorrelatorTable:
    """All needed currents and cumulants from the Fock model at T = 0, one row
    per point of a broadcast (R, phi) grid: the setting's row of
    `zero_T_tables`.

    One period injects the three-electron state; the excess-electron
    correspondence turns occupation means and cumulants directly into I, P, Q.
    """
    row = _setting_row(setting)
    raw = protocol._observables(protocol._table().moments[row], R, phi)
    return CorrelatorTable(setting, _cumulants(raw))


def zero_T_tables(R: ArrayLike, phi: ArrayLike) -> dict[str, CorrelatorTable]:
    """`zero_T_correlators` at every tomography setting, keyed X, Y, Z, from
    one evaluation of the three settings' raw moments over the grid."""
    cumulants = _cumulants(protocol._observables(protocol._table().moments, R, phi))
    return {
        setting: CorrelatorTable(setting, cumulants[..., row, :])
        for row, setting in enumerate(protocol.TOMO_SETTINGS)
    }


def _cumulants(raw: np.ndarray) -> np.ndarray:
    """The columns of `KEYS` from raw occupation moments (..., 41) in the
    rows of `protocol._table().moments`: the mean of each I, and the joint
    cumulants <ab> - <a><b> of each P and
    <abc> - ((<ab><c> + <ac><b>) + <bc><a>) + 2<a><b><c> of each Q."""
    moments = raw[..., _CUMULANT_ROWS]
    means, ab, a, b, abc, ab_, c, ac, b_, bc, a_ = (moments[..., span] for span in _SPANS)
    pairs = ab - a * b
    triples = abc - ((ab_ * c + ac * b_) + bc * a_) + 2.0 * (a_ * b_ * c)
    return np.concatenate([means, pairs, triples], axis=-1)


def reference_correlators(R: ArrayLike, phi: ArrayLike, setting: str) -> CorrelatorTable:
    """Closed-form zero-temperature table for the same keys, one row per
    point of a broadcast (R, phi) grid."""
    _setting_row(setting)
    R, phi = np.broadcast_arrays(np.asarray(R, dtype=float), np.asarray(phi, dtype=float))
    D = 1.0 - R
    identity_setting = setting == "Z"  # D' = 1: Bob's splitter is the identity
    root = np.sqrt(R * D)
    if setting == "X":
        q_b0 = root * np.sin(phi) / 16.0
    elif setting == "Y":
        q_b0 = -root * np.cos(phi) / 16.0
    else:
        q_b0 = np.zeros_like(R)
    entries: dict[tuple[str, ...], ArrayLike] = {}
    entries[("A0+",)] = 0.25 + R / 2.0
    entries[("A0-",)] = 0.25 + R / 2.0
    entries[("A1+",)] = 0.25 + D / 2.0
    entries[("A1-",)] = 0.25 + D / 2.0
    entries[("B0",)] = 0.5
    entries[("B1",)] = 0.5
    for pair in (("A0+", "A1+"), ("A0+", "A1-"), ("A0-", "A1+"), ("A0-", "A1-")):
        entries[pair] = -R * D / 4.0
    cross = -0.125 if identity_setting else -0.0625
    entries[("A0+", "B0")] = cross
    entries[("A1+", "B1")] = cross
    same_arm = -(0.0625 - R * D / 4.0)
    entries[("A0+", "A0-")] = same_arm
    entries[("A1+", "A1-")] = same_arm
    anti = 0.0 if identity_setting else -0.0625
    entries[("A0+", "B1")] = anti
    entries[("A1+", "B0")] = anti
    entries[("A0+", "A1+", "B0")] = q_b0
    entries[("A0+", "A1+", "B1")] = -q_b0
    entries[("A0+", "A0-", "A1+")] = R * D * (R - D) / 8.0
    entries[("A0+", "A1+", "A1-")] = R * D * (D - R) / 8.0
    values = np.empty(R.shape + (len(KEYS),))
    for column, key in enumerate(KEYS):
        values[..., column] = entries[key]
    return CorrelatorTable(setting, values)


def finite_T_correlators(
    table: CorrelatorTable, pair_factor: float, triple_factor: float
) -> CorrelatorTable:
    """Scale the table to finite temperature: I unchanged, P and Q damped."""
    for name, value in (("pair", pair_factor), ("triple", triple_factor)):
        if not (_number_within(value, 0.0, 1.0) and value > 0.0):
            raise ValueError(f"{name} factor must lie in (0, 1], got {value}")
    factors = np.array((1.0, pair_factor, triple_factor))[_KINDS]
    return CorrelatorTable(table.setting, table.values * factors)


def bloch_from_correlators(table: CorrelatorTable) -> tuple[np.ndarray, np.ndarray]:
    """Assemble one Bloch component and the normalization from a table,
    for every row of it.

    The component measured is the one selected by the table's setting.
    Returns (component, K) where K is the ++ click probability, 1/16 at
    zero temperature.
    """
    i_a0p, i_a0m, i_a1p, i_a1m, i_b0, i_b1 = (table.current(d) for d in DETECTORS)
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
    if not np.all(k > 0.0):  # NaN fails too
        raise ValueError(f"degenerate normalization K = {np.min(k)}")
    return j / k, k


def reconstructed_bloch(
    tables: dict[str, CorrelatorTable]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Full Bloch vector from one table per tomography axis, (..., 3) for
    tables of (..., len(KEYS)) rows.  One `bloch_from_correlators` call
    assembles the three tables stacked (..., 3, len(KEYS)); it reads only
    the values, so the stack carries X's setting label."""
    axes = tuple(protocol.TOMO_SETTINGS)
    stack = np.stack([tables[axis].values for axis in axes], axis=-2)
    components, k = bloch_from_correlators(CorrelatorTable(axes[0], stack))
    return components, {axis: k[..., row] for row, axis in enumerate(axes)}
