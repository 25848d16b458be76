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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import protocol
from .circuit import ArrayLike, _integer, _number_within
from .fock import OUTPUT_MODES, mass, occupation_moments
from .protocol import damped_average_fidelity

DETECTORS = ("A0+", "A0-", "A1+", "A1-", "B0", "B1")

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
_COLUMNS = {key: column for column, key in enumerate(KEYS)}


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
    # the thermal series sums about 2/gamma terms and the oracle's grid grows
    # as 1/gamma, so very narrow pulses are refused (and very wide ones, whose
    # weights overflow)
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
    # each complex product written out in real arithmetic, then added left
    # to right over the grid: a BLAS product rounds as the host's BLAS
    # kernel does, and numpy's complex multiply fuses on hosts with FMA
    real = wave.real * phase_factor.real - wave.imag * phase_factor.imag
    imag = wave.real * phase_factor.imag + wave.imag * phase_factor.real
    return mass(real + 1j * imag, slice(None)) / n_grid


def photoassist_weight_sum(gamma: float) -> float:
    """Numeric sum of |amplitude|^2 over all n, up to the first term below
    1e-16; unitarity demands 1."""
    total = abs(photoassist_amplitude(0, gamma)) ** 2
    n = 1
    while True:
        term = abs(photoassist_amplitude(n, gamma)) ** 2
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


def _coth_minus_inv(x: float, coth: float) -> float:
    """Temperature weight of one harmonic in the pair-correlator factor,
    coth(x) - 1/x, from x = 0.05 on, given coth(x)."""
    return coth - 1.0 / x


def _triple_bracket(x: float, coth: float) -> float:
    """Temperature weight of one harmonic in the triple-correlator factor,
    coth^2 + csch^2/2 - (3/2x) coth, from x = 0.05 on, given coth(x).

    The direct form cancels catastrophically: its relative error grows as
    x^-4 below x = 1 and reaches 1e-12 near its switch, so a series
    branch runs below it.  That switch sits at x = 1/4, the smallest x of
    a tau <= 2 sweep, so those stay direct.
    """
    if x < 0.25:
        x2 = x * x
        return x2 * _even_series(_TRIPLE_SERIES, x2)
    csch2 = 0.0 if x > 350.0 else 1.0 / math.sinh(x) ** 2
    return coth * coth + 0.5 * csch2 - 1.5 * coth / x


def _thermal_brackets(x: float) -> tuple[float, float]:
    """Both temperature weights of one harmonic (pair, triple) from one
    tanh, with a series branch for both below x = 0.05."""
    if x < 0.05:
        x2 = x * x
        return x * _even_series(_PAIR_SERIES, x2), x2 * _even_series(_TRIPLE_SERIES, x2)
    coth = 1.0 / math.tanh(x)
    return _coth_minus_inv(x, coth), _triple_bracket(x, coth)


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
    sinh2 = math.sinh(g) ** 2
    tau, tol, cap = params.tau, params.series_tol, params.term_cap
    pair_sum = triple_sum = 0.0
    quiet = n = 0
    while n < cap:
        n += 1
        weight = n * 4.0 * math.exp(-2.0 * g * n) * sinh2
        if tau == 0.0:
            pair_term, triple_term = weight, weight
        else:
            pair_bracket, triple_bracket = _thermal_brackets(n / (2.0 * tau))
            pair_term = weight * pair_bracket
            triple_term = weight * triple_bracket
        pair_sum += pair_term
        triple_sum += triple_term
        if abs(pair_term) <= tol * abs(pair_sum) and abs(triple_term) <= tol * max(
            abs(triple_sum), 1e-300
        ):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise _not_converged(params)
    return ThermalFactors(pair_sum, triple_sum, _damping(params.tau, pair_sum, triple_sum), n)


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
        return self.values[..., _COLUMNS[tuple(sorted(labels))]]

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
    `zero_T_tables`.  At one point the three settings' moments are kept with
    the point's stage, which `protocol.tomography_bloch` and the point's run
    and conditionals read too.

    One period injects the three-electron state; the excess-electron
    correspondence turns occupation mean/central moments directly into I, P, Q.
    """
    row = _setting_row(setting)
    return CorrelatorTable(setting, protocol._point_result(R, phi, _zero_T_moments)[..., row, :])


def zero_T_tables(R: ArrayLike, phi: ArrayLike) -> dict[str, CorrelatorTable]:
    """`zero_T_correlators` at every tomography setting, keyed X, Y, Z, from
    one tomography stage over the grid and three settings and one moment call."""
    moments = protocol._point_result(R, phi, _zero_T_moments)
    return {
        setting: CorrelatorTable(setting, moments[..., row, :])
        for row, setting in enumerate(protocol.TOMO_SETTINGS)
    }


def _zero_T_moments(amps: np.ndarray) -> np.ndarray:
    """The moments of `KEYS` for tomography-stage amplitudes (..., sector)."""
    return occupation_moments(OUTPUT_MODES, 3, amps, KEYS)


def reference_correlators(R: float, phi: float, setting: str) -> CorrelatorTable:
    """Closed-form zero-temperature table for the same keys."""
    _setting_row(setting)
    D = 1.0 - R
    identity_setting = setting == "Z"  # D' = 1: Bob's splitter is the identity
    root = math.sqrt(R * D)
    q_b0 = {
        "X": root * math.sin(phi) / 16.0,
        "Y": -root * math.cos(phi) / 16.0,
        "Z": 0.0,
    }[setting]
    entries: dict[tuple[str, ...], float] = {}
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
    return CorrelatorTable(setting, [entries[key] for key in KEYS])


def finite_T_correlators(
    table: CorrelatorTable, pair_factor: float, triple_factor: float
) -> CorrelatorTable:
    """Scale the table to finite temperature: I unchanged, P and Q damped."""
    for name, value in (("pair", pair_factor), ("triple", triple_factor)):
        if not (_number_within(value, 0.0, 1.0) and value > 0.0):
            raise ValueError(f"{name} factor must lie in (0, 1], got {value}")
    factors = np.array([(1.0, pair_factor, triple_factor)[len(key) - 1] for key in KEYS])
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
    tables of (..., len(KEYS)) rows."""
    pairs = {axis: bloch_from_correlators(tables[axis]) for axis in ("X", "Y", "Z")}
    return np.stack([v for v, _ in pairs.values()], axis=-1), {a: k for a, (_, k) in pairs.items()}


def leviton_fidelity(params: LevitonParams) -> float:
    """Input-averaged teleportation fidelity at the given width and temperature."""
    return damped_average_fidelity(thermal_factors(params).damping)


def fidelity_curve(
    gammas: Sequence[float], taus: Sequence[float], series_tol: float = 1e-12
) -> list[dict[str, float]]:
    """Fidelity dataset over a (gamma, tau) grid, ordered by (gamma, tau).

    Each point is checked as a `LevitonParams`, and its q is
    `thermal_factors(...).damping` to the last bit, from one array pass over
    the grid (`_grid_damping`).  A grid with a failing point raises the
    error of its first failing point in (gamma, tau) order.
    """
    gammas, taus = list(gammas), list(taus)
    if not (gammas and taus):
        return []
    row: list[LevitonParams] = []
    column: list[LevitonParams] = []
    error = None
    # a point fails when its gamma, its tau or the tolerance does, so the
    # first failing point lies in the first row or the first column, and the
    # points before it are the checked first column against the checked
    # first row
    try:
        for tau in taus:
            row.append(LevitonParams(gammas[0], tau, series_tol))
        for gamma in gammas[1:]:
            column.append(LevitonParams(gamma, taus[0], series_tol))
    except ValueError as rejected:
        error = rejected
    widths = row[:1] + column
    checked_taus = [point.tau for point in row]
    qs = _grid_damping(widths, checked_taus)
    if error is not None:
        raise error
    return [
        {"gamma": width.gamma, "tau": tau, "q": q, "fidelity": damped_average_fidelity(q)}
        for width, width_qs in zip(widths, qs)
        for tau, q in zip(checked_taus, width_qs)
    ]


# `_sum_block` takes at most this many taus at a time, and each of its
# (tau, n) arrays holds at most this many cells, so the peak memory of a
# fidelity curve grows with neither its grid nor its number of terms
_GRID_TAUS = 64
_GRID_CELLS = 2048


def _grid_damping(widths: list[LevitonParams], taus: list[float]) -> list[list[float]]:
    """`thermal_factors(LevitonParams(w.gamma, tau, w.series_tol)).damping`
    for each width w and each tau, one list per width, from `_sum_block`
    over blocks of taus; raises the error of the first failing point in
    (gamma, tau) order.  The first width's points come before every other
    width's, so each block's are checked as soon as it is summed, and a
    failing one stops the grid there."""
    shape = (len(widths), len(taus))
    pair, triple = np.zeros(shape), np.zeros(shape)
    converged = np.zeros(shape, dtype=bool)
    first_qs = []
    for start in range(0, len(taus), _GRID_TAUS):
        block = slice(start, start + _GRID_TAUS)
        _sum_block(widths, taus[block], pair[:, block], triple[:, block], converged[:, block])
        first_qs += _checked_dampings(
            widths[0], taus[block], pair[0, block], triple[0, block], converged[0, block]
        )
    return [first_qs] + [
        _checked_dampings(width, taus, *cells)
        for width, *cells in zip(widths[1:], pair[1:], triple[1:], converged[1:])
    ]


def _checked_dampings(
    width: LevitonParams, taus: list[float], pair: np.ndarray, triple: np.ndarray, stops: np.ndarray
) -> list[float]:
    """One width's damping ratios from its cells' sums, in tau order; a cell
    that did not stop before its term cap raises as `thermal_factors` does."""
    qs = []
    cells = zip(taus, pair.tolist(), triple.tolist(), stops.tolist())
    for tau, pair_sum, triple_sum, stopped in cells:
        if not stopped:
            raise _not_converged(LevitonParams(width.gamma, tau, width.series_tol))
        qs.append(_damping(tau, pair_sum, triple_sum))
    return qs


def _sum_block(
    widths: list[LevitonParams],
    taus: list[float],
    pair: np.ndarray,
    triple: np.ndarray,
    converged: np.ndarray,
) -> None:
    """Run the series of each (width, tau) cell as `thermal_factors` runs
    it, and write its sums, and whether it stopped before its term cap, into
    the (widths, taus) arrays pair, triple and converged.

    Every cell adds the loop's terms left to right (`np.cumsum`) and stops
    where the loop stops.  The terms come in chunks of n: each chunk's
    brackets serve every width, and each width's weights serve every tau.
    """
    tol = widths[0].series_tol
    with np.errstate(over="ignore"):  # 2 tau overflows to inf, as the loop's float does
        two_tau = 2.0 * np.array(taus)
    summing = np.ones(pair.shape, dtype=bool)
    quiet = np.zeros(pair.shape, dtype=int)  # quiet terms in a row, counted up to 2
    done = 0
    while summing.any():
        needed = summing.any(axis=0)
        bracket_row = np.cumsum(needed) - 1
        cap = max(w.term_cap for w, cells in zip(widths, summing) if cells.any())
        chunk = min(max(1, _GRID_CELLS // int(np.count_nonzero(needed))), cap - done)
        n = np.arange(done + 1, done + chunk + 1, dtype=float)
        rows = two_tau[needed, None]
        # x stays infinite at tau = 0, where both brackets are exactly 1 and
        # so each term is its weight, as in the loop; a subnormal tau
        # overflows n / (2 tau) to inf, as the loop's float does
        with np.errstate(over="ignore"):
            x = np.divide(n, rows, out=np.full((rows.size, chunk), np.inf), where=rows > 0.0)
        pair_brackets, triple_brackets = _grid_brackets(x)
        for i, width in enumerate(widths):
            cells = np.flatnonzero(summing[i])
            if not cells.size:
                continue
            m = min(chunk, width.term_cap - done)
            g = 2.0 * math.pi * width.gamma
            exps = np.fromiter(map(math.exp, ((-2.0 * g) * n[:m]).tolist()), float, m)
            weight = n[:m] * 4.0 * exps * math.sinh(g) ** 2
            brackets = bracket_row[cells]
            pair_terms = weight * pair_brackets[brackets, :m]
            triple_terms = weight * triple_brackets[brackets, :m]
            # each running sum starts from the cell's sum so far
            pair_sums = np.cumsum(np.concatenate((pair[i, cells, None], pair_terms), 1), 1)[:, 1:]
            triple_sums = np.cumsum(
                np.concatenate((triple[i, cells, None], triple_terms), 1), 1
            )[:, 1:]
            # calm[:, 2 + k] is term k's quiet test; the two columns before
            # it carry the quiet run of the chunks before
            calm = np.empty((cells.size, m + 2), dtype=bool)
            calm[:, 0] = quiet[i, cells] >= 2
            calm[:, 1] = quiet[i, cells] >= 1
            calm[:, 2:] = (np.abs(pair_terms) <= tol * np.abs(pair_sums)) & (
                np.abs(triple_terms) <= tol * np.maximum(np.abs(triple_sums), 1e-300)
            )
            third = calm[:, :-2] & calm[:, 1:-1] & calm[:, 2:]  # the third quiet term in a row
            stopped = third.any(axis=1)
            last = np.where(stopped, third.argmax(axis=1), m - 1)
            pair[i, cells] = pair_sums[np.arange(cells.size), last]
            triple[i, cells] = triple_sums[np.arange(cells.size), last]
            quiet[i, cells] = np.where(calm[:, -1], np.where(calm[:, -2], 2, 1), 0)
            converged[i, cells[stopped]] = True
            summing[i, cells[stopped]] = False
            if done + m == width.term_cap:
                summing[i, cells] = False
        done += chunk


def _grid_brackets(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_thermal_brackets` of every element of x, to the last bit.

    Each x >= 0.05 takes one `math.tanh`, and each 0.25 <= x <= 350 one
    `math.sinh`: numpy's own transcendental functions round differently
    and depend on its SIMD dispatch.  The rest is the loop's elementwise
    arithmetic, in its order.
    """
    pair, triple = np.empty_like(x), np.empty_like(x)
    series = x < 0.05
    x_series = x[series]
    x2 = x_series * x_series
    pair[series] = x_series * _even_series(_PAIR_SERIES, x2)
    triple[series] = x2 * _even_series(_TRIPLE_SERIES, x2)
    direct = ~series
    x_direct = x[direct]
    coth = 1.0 / np.fromiter(map(math.tanh, x_direct.tolist()), float, x_direct.size)
    pair[direct] = _coth_minus_inv(x_direct, coth)
    # the triple bracket's own series below x = 0.25, as in `_triple_bracket`
    bracket = np.empty_like(x_direct)
    low = x_direct < 0.25
    x2 = x_direct[low] * x_direct[low]
    bracket[low] = x2 * _even_series(_TRIPLE_SERIES, x2)
    high = ~low
    x_high, coth = x_direct[high], coth[high]
    csch2 = np.zeros_like(x_high)
    curved = x_high <= 350.0
    csch2[curved] = [1.0 / math.sinh(v) ** 2 for v in x_high[curved].tolist()]
    bracket[high] = coth * coth + 0.5 * csch2 - 1.5 * coth / x_high
    triple[direct] = bracket
    return pair, triple
