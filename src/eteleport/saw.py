"""Gaussian phase noise on the six interferometer arms and its fidelity cost.

Random phases drawn once per run on the arms between the two splitter
layers damp the transverse Bloch components of Bob's conditional state by
exp(-sigma^2/2), where sigma^2 is the summed per-arm variance.  Bob's state
sees the arm phases only through `combined_phase`, which for independent
Gaussian arms is one Gaussian of variance sigma^2: the Monte Carlo route
draws that combination once per run and averages conditional states; the
analytic route applies the damping.  Every state here is a `QubitState`
built from its Bloch vector: the analytic and fixed-phase states take the
input's closed form with the phase moved and x, y damped, the Monte Carlo
state takes the run's constants and the mean cos and sin of its draws, and
`protocol.conditional_with_arm_phases` takes them at one fixed draw.

Each ++ conditional amplitude comes from one configuration of the prepared
stage, so the drawn phase Phi turns Bob's ++ qubit about z: its click
probability p and Bloch vector (x, y, z) at Phi = 0, read from the ++ row
of `protocol._table`, are constants of a run, and the coherence turns as
rho01(Phi) = rho01(0) * (cos(Phi) + i s sin(Phi)) for one sign s of the
network.  A run is those constants and one cos and one sin per
draw; the click probabilities draw nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import circuit, fock, protocol
from .circuit import ARM_WIRES, _integer, _number_within
from .protocol import (
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    damped_average_fidelity,
    povm_element,
)


@dataclass(frozen=True)
class DephasingParams:
    """Per-arm phase variances, ordered as ARM_WIRES."""

    variances: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if np.ndim(self.variances) != 1 or len(self.variances) != len(ARM_WIRES):
            raise ValueError(f"need one variance per arm {ARM_WIRES}, got {self.variances!r}")
        if not all(_number_within(v, 0.0) for v in self.variances):
            raise ValueError(
                f"variances must be finite and non-negative, got {self.variances!r}"
            )
        object.__setattr__(self, "variances", tuple(float(v) for v in self.variances))

    @classmethod
    def from_total(cls, sigma2: float) -> "DephasingParams":
        """Split a total variance evenly over the six arms."""
        return cls((sigma2 / 6.0,) * 6)


def combined_phase(arm_phases: dict[str, float]) -> float:
    """The single phase combination Bob's conditional state depends on."""
    p = {arm: arm_phases.get(arm, 0.0) for arm in ARM_WIRES}
    return p["A0p"] + p["A1"] + p["B0p"] - (p["A1p"] + p["A0"] + p["B1p"])


def _damping(sigma2: float) -> float:
    """Coherence factor exp(-sigma2/2) of a total arm-phase variance."""
    if not _number_within(sigma2, 0.0):
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")
    return math.exp(-sigma2 / 2.0)


def _coherent_state(params: TeleportParams, phase: float, damping: float) -> QubitState:
    """The input qubit's Bloch vector with the phase at `phase` and the
    transverse components scaled by `damping`."""
    root = 2.0 * math.sqrt(params.R * params.D) * damping
    return QubitState([root * math.sin(phase), -root * math.cos(phase), params.R - params.D])


def dephased_state_analytic(params: TeleportParams, sigma2: float) -> QubitState:
    """Bob's ++-conditional state after Gaussian phase averaging.

    Populations stay (R, D); the coherence picks up exp(-sigma2/2).
    """
    return _coherent_state(params, params.phi, _damping(sigma2))


def fixed_phase_state(params: TeleportParams, phi_prime: float) -> QubitState:
    """Bob's ++-conditional state for one frozen value of the arm-phase combination."""
    return _coherent_state(params, params.phi + phi_prime, 1.0)


def _sample_phases(deph: DephasingParams, n_samples: int, seed: int) -> np.ndarray:
    """One value of `combined_phase` per run: a standard normal of one
    seeded stream, scaled by the square root of the summed arm variances.

    Runs are drawn in order from a single generator, so the n samples of
    a run are the first n values of any longer run with the same seed.
    """
    draws = np.random.default_rng(seed).standard_normal(n_samples)
    draws *= math.sqrt(math.fsum(deph.variances))
    # the loc of rng.normal(0.0, scale): turns the -0.0 of a zero variance
    # into 0.0, so the values are bit for bit those of that call
    draws += 0.0
    return draws


# each arm's coefficient, +1 or -1, in `combined_phase`, ordered as ARM_WIRES
_PHASE_WEIGHTS = tuple(int(combined_phase({arm: 1.0})) for arm in ARM_WIRES)

# the ++ outcome's row of the paired conditionals, ordered as PAIRED_OUTCOMES
_PP_ROW = protocol.PAIRED_OUTCOMES.index(MeasurementOutcome.from_signs("+", "+"))


def _alice_clicks() -> tuple[np.ndarray, np.ndarray]:
    """The two ++ rows of Alice's lifted splitters over the prepared stage's
    three-particle sector, (A0+, A1+, B'0) then (A0+, A1+, B'1), and which
    arms each configuration of that sector occupies; parameter-free, read
    once per process by `_arm_sign`."""
    alice = circuit.alice_splitters(ARM_WIRES)
    configs, lifted = fock.lift_matrix(alice, 3)
    clicked = povm_element(MeasurementOutcome.from_signs("+", "+")).clicked(alice.rows, 3)
    return lifted[clicked], fock.occupations(alice.cols, configs, ARM_WIRES).astype(bool)


@functools.lru_cache(maxsize=None)
def _arm_sign() -> int:
    """The sign s of rho01(Phi) = rho01(0) * (cos(Phi) + i s sin(Phi)), from
    the network alone, once.  The arm phases are diagonal in the prepared
    stage's sector, so by Cauchy-Binet the ++ amplitudes alpha, beta (to
    B'0, B'1) sum c_S * exp(-i * the phases on S's arms) over the
    configurations S where Alice's row and the stage's rows X or Y are
    non-zero.  Alice's splitters do not touch B'0 and B'1, so each has one S
    (any other count is a ValueError), and beta's arms less alpha's must be
    s * `_PHASE_WEIGHTS` (anything else is a ValueError)."""
    rows, arms = _alice_clicks()
    prepared = (protocol._form_rows("preparation") != 0).any(axis=0)
    occupied = []
    for row in rows:
        configs = np.flatnonzero((row != 0) & prepared)
        if len(configs) != 1:
            raise ValueError(f"an amplitude has {len(configs)} contributing configurations")
        occupied.append(arms[configs[0]])
    moved = occupied[1].astype(int) - occupied[0]
    if np.array_equal(-moved, _PHASE_WEIGHTS):
        return -1
    if not np.array_equal(moved, _PHASE_WEIGHTS):
        raise ValueError(f"arms {moved} do not move by the combined phase {_PHASE_WEIGHTS}")
    return 1


class _Run(NamedTuple):
    """Bob's ++-conditional qubit over a run of draws Phi of `combined_phase`:
    the click probability p, the Bloch vector (x, y, z) at Phi = 0 and the
    sign s of `_arm_sign`."""

    p: float
    x: float
    y: float
    z: float
    s: int


def _run_constants(params: TeleportParams) -> _Run:
    """The constants of a run: the point's ++ click probability and Bloch
    vector, and the network's sign."""
    p, bloch = protocol._paired_point(params.R, params.phi, _PP_ROW)
    return _Run(p, *bloch, _arm_sign())


def _conditional_amplitudes(
    params: TeleportParams, draws: np.ndarray
) -> tuple[_Run, np.ndarray]:
    """The run constants, and the cos and sin of each drawn value of
    `combined_phase` as the two rows of one allocation."""
    run = _run_constants(params)
    trig = np.empty((2, len(draws)))
    np.cos(draws, out=trig[0])
    np.sin(draws, out=trig[1])
    return run, trig


def _drawn_run(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> tuple[_Run, np.ndarray]:
    """One seeded run: its constants, and the cos and sin of its draws."""
    n_samples, seed = _integer(n_samples, "n_samples", 1), _integer(seed, "seed", 0)
    return _conditional_amplitudes(params, _sample_phases(deph, n_samples, seed))


def montecarlo_click_probabilities(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample ++ probability (1/16 under any phase noise) of the run of
    `montecarlo_entries`; a constant of the run, so nothing is drawn and
    the column is a read-only view of one value."""
    n_samples = _integer(n_samples, "n_samples", 1)
    _integer(seed, "seed", 0)
    return np.broadcast_to(_run_constants(params).p, n_samples)


def montecarlo_entries(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample, Bob's ++-conditional rho00, rho11 and rho01 (rho10 is its
    conjugate); the populations (1 + z)/2 and (1 - z)/2 are constants of
    the run, read-only views of one value each.

    rho01 is ((x cos + s y sin) + i (s x sin - y cos)) / 2, built in place:
    the real part holds y cos until the imaginary part is done, and then
    the run's sin is scaled in place, so a call holds four columns at most:
    the run's cos and sin and rho01's two parts.
    """
    run, (cos, sin) = _drawn_run(params, deph, n_samples, seed)
    n = len(cos)
    rho01 = np.empty(n, dtype=complex)
    re, im = rho01.real, rho01.imag
    np.multiply(sin, run.s * run.x, out=im)
    np.multiply(cos, run.y, out=re)
    im -= re
    im /= 2.0
    sin *= run.s * run.y
    np.multiply(cos, run.x, out=re)
    re += sin
    re /= 2.0
    rho00, rho11 = (1.0 + run.z) / 2.0, (1.0 - run.z) / 2.0
    return np.broadcast_to(rho00, n), np.broadcast_to(rho11, n), rho01


def dephased_state_montecarlo(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> QubitState:
    """Average of the ++-conditional state over sampled arm phases, from the
    run's constants and the mean cos and sin of its draws.

    Deterministic for a given seed; converges to the analytic state at
    the usual 1/sqrt(n) Monte Carlo rate.
    """
    run, trig = _drawn_run(params, deph, n_samples, seed)
    return _run_state(run, *trig.mean(axis=1).tolist())


def _montecarlo_spread(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> tuple[QubitState, float, float]:
    """The state of `dephased_state_montecarlo`, and the standard deviations
    (ddof 1) of Re rho01 and Im rho01 over the same run, from the run's
    cos and sin alone: no rho01 column.

    Re rho01 = (x cos + s y sin) / 2 and Im rho01 = (s x sin - y cos) / 2
    are linear in a draw's cos and sin, so with the centred sums S_cc, S_ss
    and S_cs of the run, 4 (n - 1) Var(Re) = x^2 S_cc + y^2 S_ss + 2 s x y
    S_cs and 4 (n - 1) Var(Im) = x^2 S_ss + y^2 S_cc - 2 s x y S_cs.  cos
    and sin are centred and squared in the run's own buffer, so the product
    for S_cs is the one other n-length array; every sum is `np.add.reduce`,
    whose pairwise order no BLAS kernel sets.  A variance that rounds below
    zero reads 0.  n_samples must be an integer of at least 2.
    """
    n_samples = _integer(n_samples, "n_samples", 2)
    run, trig = _drawn_run(params, deph, n_samples, seed)
    means = trig.mean(axis=1).tolist()
    state = _run_state(run, *means)
    for row, mean in zip(trig, means):
        row -= mean
    s_cs = float(np.add.reduce(np.multiply(*trig)))
    np.square(trig, out=trig)
    s_cc, s_ss = (float(np.add.reduce(row)) for row in trig)
    _, x, y, _, s = run
    cross, scale = 2.0 * s * x * y * s_cs, 4.0 * (n_samples - 1)
    var_re = (x * x * s_cc + y * y * s_ss + cross) / scale
    var_im = (x * x * s_ss + y * y * s_cc - cross) / scale
    return state, math.sqrt(max(var_re, 0.0)), math.sqrt(max(var_im, 0.0))


def _run_state(run: _Run, cos: float, sin: float) -> QubitState:
    """Bob's ++-conditional state from a run's constants and a cos and sin
    of Phi, the means over the run's draws or one fixed draw's: (x, y)
    turned about z.  Phi = 0 leaves them unturned, since adding s y sin
    and subtracting s x sin would change the sign of a zero x or y."""
    _, x, y, z, s = run
    if cos == 1.0 and sin == 0.0:
        return QubitState([x, y, z])
    return QubitState([x * cos + s * y * sin, y * cos - s * x * sin, z])


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
    every sigma2's mean and spread follow from one `_mean_std` of u^2.
    n_states must be an integer of at least 2 (a spread needs two samples).
    """
    n_states = _integer(n_states, "n_states", 2)
    dampings = [_damping(sigma2) for sigma2 in sigma2_values]
    axial = np.random.default_rng(_integer(seed, "seed", 0)).random(n_states)
    axial *= axial
    mean, std = _mean_std(axial)
    return [
        (0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std / math.sqrt(n_states))
        for q in dampings
    ]


def _mean_std(x: np.ndarray) -> tuple[float, float]:
    """The mean and standard deviation (ddof 1) of a sample of n >= 2 from
    one sum and one deviation buffer; bit for bit `x.mean()` and
    `x.std(ddof=1)`, which reduce x, then x less that mean squared, with
    the same ufuncs."""
    n = len(x)
    mean = float(np.add.reduce(x)) / n
    deviations = np.subtract(x, mean)
    np.square(deviations, out=deviations)
    return mean, math.sqrt(float(np.add.reduce(deviations)) / (n - 1))
