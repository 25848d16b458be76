"""The paper's two environmental fidelity laws as scalar closed forms, and
the input checks the whole package shares.

Surface acoustic waves: Gaussian arm-phase noise of total variance sigma^2
damps Bob's transverse Bloch components by exp(-sigma^2/2), and the
fidelity averaged over pure inputs is (2 + exp(-sigma^2/2))/3
(`average_fidelity`, sampled by `sampled_fidelity`).  Lorentzian pulses:
temperature damps them by the ratio of two harmonic sums, the thermal
factors of the third- and second-order correlators (`thermal_factors`),
and the fidelity is (2 + ratio)/3 (`leviton_fidelity`, `fidelity_curve`).

No six-mode Fock space enters either law, so this module imports only the
standard library: numpy is imported by the checks' array branch and by
`sampled_fidelity`'s draws, when they run, and `eteleport saw` and
`eteleport leviton` load no other module of the package.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


def _all_within(
    v: float | np.ndarray, lo: float = -sys.float_info.max, hi: float = sys.float_info.max
) -> bool:
    """Whether a real number, or every value of a real array, lies in
    [lo, hi], by default the finite floats; NaN never does, nor a boolean,
    a string, None or a complex value."""
    if isinstance(v, (int, float)):  # the common case, kept off numpy
        return not isinstance(v, bool) and lo <= v <= hi
    import numpy as np

    values = np.asarray(v)
    if values.dtype.kind not in "iuf":
        return False
    # as float64: casting the bounds to a narrower float would overflow
    values = values.astype(float, copy=False)
    return bool(((values >= lo) & (values <= hi)).all())


def _number_within(v: float, *bounds: float) -> bool:
    """`_all_within` for one real number; an array of them is none."""
    if isinstance(v, (int, float)):  # the common case, kept off np.ndim
        return _all_within(v, *bounds)
    import numpy as np

    return np.ndim(v) == 0 and _all_within(v, *bounds)


def _integer(value: int, name: str, least: float = -math.inf) -> int:
    """The value as an int, at least `least`; anything else (None too) is a ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def damped_average_fidelity(q: float) -> float:
    """Fidelity averaged over all pure inputs when Bob's transverse Bloch
    components are damped by q: (2 + q)/3."""
    return (2.0 + q) / 3.0


def _damping(sigma2: float) -> float:
    """Coherence factor exp(-sigma2/2) of a total arm-phase variance."""
    if not _number_within(sigma2, 0.0):
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")
    return math.exp(-sigma2 / 2.0)


def average_fidelity(sigma2: float) -> float:
    """Teleportation fidelity averaged over all pure input states."""
    return damped_average_fidelity(_damping(sigma2))


def sampled_fidelity(
    sigma2_values: Iterable[float], n_states: int, seed: int
) -> list[tuple[float, float]]:
    """The fidelity averaged over n_states uniformly drawn pure inputs and its
    standard error, one (mean, stderr) pair per sigma2.

    The damped output shrinks an input's transverse components by
    q = exp(-sigma2/2), so a pure input's fidelity depends only on its z^2,
    and for a uniform direction |z| is uniform on [0, 1) (Archimedes): each
    state is one uniform draw u with z^2 = u^2, shared by every sigma2.
    The fidelity 0.5 * (1 + q) + 0.5 * (1 - q) * u^2 is affine in u^2, so
    every sigma2's mean and spread follow from one mean and one standard
    deviation (ddof 1) of u^2.
    n_states must be an integer of at least 2 (a spread needs two samples).
    """
    n_states = _integer(n_states, "n_states", 2)
    dampings = [_damping(sigma2) for sigma2 in sigma2_values]
    import numpy as np

    axial = np.random.default_rng(_integer(seed, "seed", 0)).random(n_states)
    axial *= axial
    mean, std = float(axial.mean()), float(axial.std(ddof=1))
    return [
        (0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std / math.sqrt(n_states))
        for q in dampings
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
            return ThermalFactors(
                pair_sum, triple_sum, _damping_ratio(tau, pair_sum, triple_sum), n
            )
    if first > cap:
        _damping_ratio(tau, pair_sum, triple_sum)  # a pair sum that underflowed is the cause
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
    return ThermalFactors(pair_sum, triple_sum, _damping_ratio(tau, pair_sum, triple_sum), terms)


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


def _damping_ratio(tau: float, pair_sum: float, triple_sum: float) -> float:
    """The damping ratio of a converged series' sums, checked."""
    if not pair_sum > 0.0:  # the pair weights underflow once tau nears the float limit
        raise SeriesConvergenceError(f"thermal pair sum underflowed to 0 at tau={tau}")
    damping = triple_sum / pair_sum
    if damping > 1.0 + 1e-9:
        raise SeriesConvergenceError(f"correlator damping ratio exceeded 1: {damping}")
    return damping


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
