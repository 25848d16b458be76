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
rho01(Phi) = rho01(0) * (cos(Phi) + i s sin(Phi)) with s = `_ARM_SIGN`.
A run is those constants and one cos and one sin per draw; the click
probabilities draw nothing.  A run of n draws is the first n of any
longer run with the same seed, and so is its click column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import protocol
from .circuit import ARM_WIRES, _integer, _number_within
from .protocol import (
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    damped_average_fidelity,
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


# the ++ outcome's row of the paired conditionals, ordered as PAIRED_OUTCOMES
_PP_ROW = protocol.PAIRED_OUTCOMES.index(MeasurementOutcome.from_signs("+", "+"))

# the sign s of rho01(Phi) = rho01(0) * (cos(Phi) + i s sin(Phi)) in the
# network of `circuit.teleport_layers`: Bob's ++ amplitude to B'0 comes from
# the one configuration on the arms of `combined_phase`'s + terms, his
# amplitude to B'1 from the one on the arms of its - terms, and each picks
# up exp(-i * the phases on its arms), so rho01 turns by exp(-i Phi)
_ARM_SIGN = -1


class _Run(NamedTuple):
    """Bob's ++-conditional qubit over a run of draws Phi of `combined_phase`:
    the click probability p and the Bloch vector (x, y, z) at Phi = 0."""

    p: float
    x: float
    y: float
    z: float


def _run_constants(params: TeleportParams) -> _Run:
    """The constants of a run: the point's ++ click probability and Bloch
    vector."""
    p, bloch = protocol._paired_point(params.R, params.phi, _PP_ROW)
    return _Run(p, *bloch)


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
    """Per-sample ++ probability (1/16 under any phase noise) of a seeded
    run; a constant of the run, so nothing is drawn and the column is a
    read-only view of one value."""
    n_samples = _integer(n_samples, "n_samples", 1)
    _integer(seed, "seed", 0)
    return np.broadcast_to(_run_constants(params).p, n_samples)


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
    S_cs and 4 (n - 1) Var(Im) = x^2 S_ss + y^2 S_cc - 2 s x y S_cs.  The
    spreads, of degree 1 in (x, y), are formed at (x, y)/r and scaled by
    r = hypot(x, y) last, so no square of a tiny x or y underflows.  cos
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
    r = math.hypot(run.x, run.y) or 1.0  # 1 where x = y = 0, so both spreads read 0
    x, y = run.x / r, run.y / r
    cross, scale = 2.0 * _ARM_SIGN * x * y * s_cs, 4.0 * (n_samples - 1)
    var_re = (x * x * s_cc + y * y * s_ss + cross) / scale
    var_im = (x * x * s_ss + y * y * s_cc - cross) / scale
    return state, r * math.sqrt(max(var_re, 0.0)), r * math.sqrt(max(var_im, 0.0))


def _run_state(run: _Run, cos: float, sin: float) -> QubitState:
    """Bob's ++-conditional state from a run's constants and a cos and sin
    of Phi, the means over the run's draws or one fixed draw's: (x, y)
    turned about z.  Phi = 0 leaves them unturned, since adding s y sin
    and subtracting s x sin would change the sign of a zero x or y."""
    _, x, y, z = run
    if cos == 1.0 and sin == 0.0:
        return QubitState([x, y, z])
    return QubitState([x * cos + _ARM_SIGN * y * sin, y * cos - _ARM_SIGN * x * sin, z])


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
    axial = np.random.default_rng(_integer(seed, "seed", 0)).random(n_states)
    axial *= axial
    mean, std = float(axial.mean()), float(axial.std(ddof=1))
    return [
        (0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std / math.sqrt(n_states))
        for q in dampings
    ]
