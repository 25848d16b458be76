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

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import protocol
from .circuit import ArrayLike, _integer, _number_within
from .fock import OUTPUT_MODES, _unfused_product, mass
from .protocol import damped_average_fidelity

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


GAMMA_MIN = 1e-4
# exp(-2 pi gamma) < 1e-136 here, and sinh(2 pi gamma)^2 in the thermal
# weights overflows from gamma = 57
GAMMA_MAX = 50.0


class SeriesConvergenceError(ValueError):
    """The thermal-factor series gave no usable factors: it did not converge
    within the term cap, its pair sum underflowed, or the damping ratio
    exceeded 1.  A ValueError, like every rejected input."""


@dataclass(frozen=True)
class LevitonParams:
    """Dimensionless pulse width gamma = width/period and temperature
    tau = k_B T / (hbar * drive frequency), plus the series tolerance."""

    gamma: float
    tau: float
    series_tol: float = 1e-12

    def __post_init__(self):
        _check_gamma(self.gamma)
        if not _number_within(self.tau, 0.0):
            raise ValueError(f"temperature tau must be non-negative and finite, got {self.tau!r}")
        if not (_number_within(self.series_tol) and self.series_tol > 0.0):
            raise ValueError(f"series_tol must be positive and finite, got {self.series_tol!r}")
        # as Python floats: given numpy scalars (an np.arange grid), the
        # thermal series would run in numpy-scalar arithmetic, the same
        # values in about 1.6 times the time
        for name in ("gamma", "tau", "series_tol"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def term_cap(self) -> int:
        return max(200, math.ceil(10.0 / self.gamma))


def _check_gamma(gamma: float) -> None:
    # the oracle's grid grows as 1/gamma, as do the thermal series' direct
    # terms once 4 tau exceeds about 2/gamma, so very narrow pulses are
    # refused (and very wide ones, whose weights overflow)
    if not _number_within(gamma, GAMMA_MIN, GAMMA_MAX):  # NaN fails too
        raise ValueError(
            f"pulse width gamma must be positive and finite, in [{GAMMA_MIN:g}, {GAMMA_MAX:g}],"
            f" got {gamma!r}"
        )


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


# Taylor coefficients in x^2: coth(x) - 1/x = x * sum_k c_k x^(2k), and the
# triple bracket = x^2 * sum_k c_k x^(2k).  Truncation error relative to the
# function is below 1e-14 under each switch point.
_PAIR_SERIES = (1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0)
_TRIPLE_SERIES = (
    2.0 / 15.0,
    -2.0 / 105.0,
    4.0 / 1575.0,
    -2.0 / 6237.0,
    2764.0 / 70945875.0,
    -4.0 / 868725.0,
    28936.0 / 54273594375.0,
)


def _even_series(coefficients: Sequence[float], x2: float) -> float:
    """sum_k c_k x2^k by Horner's rule."""
    total = 0.0
    for c in reversed(coefficients):
        total = total * x2 + c
    return total


def _thermal_brackets(x: float) -> tuple[float, float]:
    """Both temperature weights of one harmonic, for x < 2 (the harmonics
    below the closed-form tail): the pair weight coth(x) - 1/x and the
    triple weight coth^2 + csch^2/2 - (3/2x) coth, from one tanh.

    Each direct form cancels as x falls, so each has its own series branch:
    x < 0.05 for the pair and x < 1/4 for the triple, whose relative error
    grows as x^-4 below x = 1 and reaches 1e-12 near its switch.  x = 1/4
    is the smallest x of a tau <= 2 sweep, so those stay direct.
    """
    x2 = x * x
    if x < 0.05:
        pair = x * _even_series(_PAIR_SERIES, x2)
    else:
        coth = 1.0 / math.tanh(x)
        pair = coth - 1.0 / x
    if x < 0.25:
        return pair, x2 * _even_series(_TRIPLE_SERIES, x2)
    s = math.sinh(x)
    return pair, coth * coth + 0.5 / (s * s) - 1.5 * coth / x


@dataclass(frozen=True)
class ThermalFactors:
    pair: float  # multiplies second-order correlators
    triple: float  # multiplies third-order correlators
    damping: float  # their ratio, the Bloch transverse damping
    terms: int


def thermal_factors(params: LevitonParams) -> ThermalFactors:
    """Sum the harmonic series for the two correlator suppression factors.

    Harmonic n has the weight 4 n sinh^2(g) e^(-2gn), g = 2 pi gamma, times
    its temperature brackets at x = n / 2 tau.  Below the harmonic
    N = ceil(4 tau) (x < 2) the terms are added one by one, and they stop
    early once a bound on what every later harmonic adds (`_direct_rest`)
    falls below series_tol of each sum.
    From N on the rest is closed-form (`_tail_terms`), added until its
    terms fall below series_tol of the sums.  At tau = 0 both brackets are
    exactly 1 and the tail from n = 1 is the unit weight sum.  A series that
    needs more terms than the cap raises instead of truncating.
    """
    g = 2.0 * math.pi * params.gamma
    s = math.sinh(g)
    scale = 4.0 * s * s
    tau, tol, cap = params.tau, params.series_tol, params.term_cap
    q = 1.0 / math.expm1(2.0 * g)  # r / (1 - r) for r = e^(-2g)
    # the tail's first harmonic; one past the cap stands for any later one
    first = max(1, math.ceil(min(4.0 * tau, cap + 1.0)))
    pair_sum = triple_sum = 0.0
    for n in range(1, first):
        decay = math.exp(-2.0 * g * n)
        pair_bracket, triple_bracket = _thermal_brackets(n / (2.0 * tau))
        weight = n * scale * decay
        pair_sum += weight * pair_bracket
        triple_sum += weight * triple_bracket
        pair_rest, triple_rest = _direct_rest(scale * decay * q, n + 1, q, tau)
        if pair_rest <= tol * pair_sum and triple_rest <= tol * triple_sum:
            return ThermalFactors(pair_sum, triple_sum, _damping(tau, pair_sum, triple_sum), n)
    if first > cap:
        _damping(tau, pair_sum, triple_sum)  # a pair sum that underflowed is the cause
        raise _not_converged(params)
    pair_tail = triple_tail = 0.0
    for terms, (pair_term, triple_term) in enumerate(_tail_terms(g, tau, first), first - 1):
        if terms > cap:
            raise _not_converged(params)
        pair_term, triple_term = scale * pair_term, scale * triple_term
        pair_tail += pair_term
        triple_tail += triple_term
        if pair_term <= tol * (pair_sum + pair_tail) and (
            triple_term <= tol * (triple_sum + triple_tail)
        ):
            break
    pair_sum += pair_tail
    triple_sum += triple_tail
    return ThermalFactors(pair_sum, triple_sum, _damping(tau, pair_sum, triple_sum), terms)


def _direct_rest(head: float, m: int, q: float, tau: float) -> tuple[float, float]:
    """Bounds on what the harmonics from m on add to the pair and the triple
    sum, given head = scale r^(m-1) q.

    Each bracket is at most 1, and below its leading Taylor term: the pair
    bracket P(x) <= x/3 and the triple bracket T(x) <= 2x^2/15, at
    x = n / 2 tau.  So the rests are at most scale sum n^k r^n over n >= m,
    for k = 1, 2 and 3, of which the last two are divided by 6 tau and
    30 tau^2; the triple sum falls as 1/tau^2, and only the second bounds
    keep up with it at large tau.  The sums are head times the moments
    E (m + J)^k of a geometric J with mean q = r / (1 - r): m + q,
    m^2 + 2mq + q + 2q^2, and m^3 + 3m^2 q + 3m(q + 2q^2) + q + 6q^2 + 6q^3.
    """
    q2 = q * q
    weights = head * (m + q)
    pair = head * (m * m + 2.0 * m * q + q + 2.0 * q2) / (6.0 * tau)
    cubic = m * m * m + 3.0 * m * m * q + 3.0 * m * (q + 2.0 * q2) + q + 6.0 * q2 + 6.0 * q2 * q
    triple = head * cubic / (30.0 * tau * tau)
    return min(weights, pair), min(weights, triple)


def _tail_terms(g: float, tau: float, first: int) -> Iterator[tuple[float, float]]:
    """The sums over n >= first of n e^(-2gn) times the pair and the triple
    bracket at x = n / 2 tau >= 2, split by powers of e^(-2x): yields the
    (pair, triple) term of k = 0, 1, 2, ..., each closed-form, and only
    k = 0 at tau = 0.

    coth x = 1 + 2 sum_k e^(-2kx) and csch^2 x = 4 sum_k k e^(-2kx), so each
    k reduces to sums of r^n and n r^n over n >= first, with r = e^(-a),
    a = 2g + k / tau: S0 = r^first / (1 - r) and S1 = S0 (first + q), with
    q = r / (1 - r).  Every term is positive, and each is about e^(-4) of
    the one before, as x >= 2.
    """
    k, a = 0, 2.0 * g
    while True:
        q = 1.0 / math.expm1(a) if a < 700.0 else 0.0  # below 1e-304 from there
        s0 = math.exp(-first * a) * (1.0 + q)
        if k == 0:  # the 1 of coth and coth^2, less the 1/x terms
            yield s0 * (first - 2.0 * tau + q), s0 * (first - 3.0 * tau + q)
            if tau == 0.0:
                return
        else:
            yield 2.0 * s0 * (first + q), 6.0 * s0 * (k * (first + q) - tau)
        k += 1
        a = 2.0 * g + k / tau


def _not_converged(params: LevitonParams) -> SeriesConvergenceError:
    return SeriesConvergenceError(
        f"thermal series not converged after {params.term_cap} terms "
        f"(gamma={params.gamma}, tau={params.tau})"
    )


def _damping(tau: float, pair_sum: float, triple_sum: float) -> float:
    """The damping ratio of a converged series' sums, checked."""
    if not pair_sum > 0.0:  # the pair weights underflow once tau nears the float limit
        raise SeriesConvergenceError(f"thermal pair sum underflowed to 0 at tau={tau}")
    damping = triple_sum / pair_sum
    if damping > 1.0 + 1e-9:
        raise SeriesConvergenceError(f"correlator damping ratio exceeded 1: {damping}")
    return damping


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


def leviton_fidelity(params: LevitonParams) -> float:
    """Input-averaged teleportation fidelity at the given width and temperature."""
    return damped_average_fidelity(thermal_factors(params).damping)


def fidelity_curve(
    gammas: Sequence[float], taus: Sequence[float], series_tol: float = 1e-12
) -> list[dict[str, float]]:
    """Fidelity dataset over a (gamma, tau) grid, ordered by (gamma, tau),
    one checked `LevitonParams` and one `thermal_factors` call per point.
    A grid with a failing point raises that point's error, and no later
    point is evaluated."""
    taus = list(taus)
    rows = []
    for gamma in gammas:
        for tau in taus:
            params = LevitonParams(gamma, tau, series_tol)
            q = thermal_factors(params).damping
            fidelity = damped_average_fidelity(q)
            rows.append({"gamma": params.gamma, "tau": params.tau, "q": q, "fidelity": fidelity})
    return rows
