"""Gaussian phase noise on the six interferometer arms and its fidelity cost.

Random phases drawn once per run on the arms between the two splitter
layers damp the transverse Bloch components of Bob's conditional state by
exp(-sigma^2/2), where sigma^2 is the summed per-arm variance.  Bob's state
sees the arm phases only through `combined_phase`, which for independent
Gaussian arms is one Gaussian of variance sigma^2: the Monte Carlo route
draws that combination once per run (shared by its state and clicks) and
averages conditional states; the analytic route applies the damping.

A Monte Carlo run is real arithmetic.  Each per-draw quantity (|alpha|^2,
|beta|^2, Re and Im of alpha * conj(beta), and p) is k0 + kc * cos(Phi) +
ks * sin(Phi) with constant coefficients, so a run holds those coefficients
and one cos and one sin per draw, both in one allocation.  Entries, click
probabilities and means are evaluated over blocks of `_BLOCK` draws in
reused buffers of at most three rows (96 KB, under malloc's default 128 KB
mmap threshold, so they are not mapped and faulted in anew on each call);
each value is elementwise, so it does not depend on where a block ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import circuit, fock
from .circuit import ARM_WIRES, _number_within
from .protocol import (
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    povm_element,
    premeasurement_amplitudes,
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
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be finite and non-negative, got {sigma2}")
    return math.exp(-sigma2 / 2.0)


def _coherent_state(params: TeleportParams, phase: float, damping: float) -> QubitState:
    """Populations (R, D) with the input coherence at `phase`, scaled by `damping`."""
    r, d = params.R, params.D
    coherence = 1j * math.sqrt(r * d) * np.exp(-1j * phase) * damping
    return QubitState(np.array([[r, coherence], [np.conj(coherence), d]], dtype=complex))


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


@functools.lru_cache(maxsize=None)
def _alice_clicks() -> tuple[np.ndarray, np.ndarray]:
    """The two ++ rows of Alice's lifted splitters over the prepared stage's
    three-particle sector, (A0+, A1+, B'0) then (A0+, A1+, B'1), and which
    arms each configuration of that sector occupies.  Parameter-free, so
    built once and shared read-only."""
    alice = circuit.alice_splitters(ARM_WIRES)
    configs, lifted = fock.lift_matrix(alice, 3)
    clicked = povm_element(MeasurementOutcome.from_signs("+", "+")).clicked(alice.rows, 3)
    rows = lifted[clicked]
    arms = fock.occupations(alice.cols, configs, ARM_WIRES).astype(bool)
    rows.flags.writeable = arms.flags.writeable = False
    return rows, arms


class _Run(NamedTuple):
    """One seeded run of the ++ conditional amplitudes alpha, beta (to B'0,
    B'1).  Each row of `forms` is (k0, kc, ks) of one per-draw real quantity
    k0 + kc * cos(Phi) + ks * sin(Phi): |alpha|^2, |beta|^2, Re and Im of
    alpha * conj(beta), then p = |alpha|^2 + |beta|^2.  `cos` and `sin`
    hold those of each draw Phi of `combined_phase`."""

    forms: tuple[tuple[float, float, float], ...]
    cos: np.ndarray
    sin: np.ndarray


def _product_form(x: tuple, y: tuple, sign: int) -> tuple[complex, complex, complex]:
    """x * conj(y) for x = x0 + x1 e and y = y0 + y1 e, e = exp(-i sign Phi),
    as the complex coefficients of 1, cos(Phi) and sin(Phi) (|e| = 1)."""
    (x0, x1), (y0, y1) = x, (y[0].conjugate(), y[1].conjugate())
    return x0 * y0 + x1 * y1, x1 * y0 + x0 * y1, 1j * sign * (x0 * y1 - x1 * y0)


def _conditional_amplitudes(params: TeleportParams, draws: np.ndarray) -> _Run:
    """The ++ conditional amplitudes (to B'0, B'1) per drawn value of
    `combined_phase`, as the real per-draw forms of a `_Run`.

    The arm phases are diagonal in the three-particle occupation basis of
    the prepared stage, so by Cauchy-Binet each amplitude is a sum over
    configurations S of c_S * exp(-i * sum of the phases on S's arms), with
    c_S = <A0+ A1+ B'b| lift(alice) |S> <S| lift(prep) |sources>.  At most
    two configurations have c_S != 0.  The first one's phase is factored
    out (every caller reads only |alpha|^2, |beta|^2 and alpha * conj(beta)).
    Each further one's arm occupations minus the first's must be
    s * `_PHASE_WEIGHTS` for one sign s (anything else is a ValueError), so
    its relative phase is s * combined_phase: alpha = a0 + a1 e and
    beta = b0 + b1 e with e = exp(-i s Phi).  Those products are then
    constant coefficients of 1, cos(Phi) and sin(Phi), and a draw costs one
    cos and one sin.
    """
    rows, arms = _alice_clicks()
    coeffs = rows * premeasurement_amplitudes("preparation", params.R, params.phi)
    keep = coeffs.any(axis=0)
    (c0, on0), *rest = zip(coeffs[:, keep].T.tolist(), arms[keep])
    # occupations are 0 or 1, so every further configuration moves by the same sign
    c1, sign = (0j, 0j), 1
    for c, on in rest:
        moved = on.astype(int) - on0
        if np.array_equal(moved, _PHASE_WEIGHTS):
            sign = 1
        elif np.array_equal(-moved, _PHASE_WEIGHTS):
            sign = -1
        else:
            raise ValueError(f"arms {moved} do not move by the combined phase {_PHASE_WEIGHTS}")
        c1 = (c1[0] + c[0], c1[1] + c[1])
    alpha, beta = zip(c0, c1)
    squares = [tuple(k.real for k in _product_form(x, x, sign)) for x in (alpha, beta)]
    cross = _product_form(alpha, beta, sign)
    forms = (
        *squares,
        tuple(k.real for k in cross),
        tuple(k.imag for k in cross),
        tuple(a + b for a, b in zip(*squares)),
    )
    trig = np.empty((2, len(draws)))  # the run's cos and sin in one allocation
    np.cos(draws, out=trig[0])
    np.sin(draws, out=trig[1])
    return _Run(forms, *trig)


def _integer(value: int, name: str, least: float = -math.inf) -> int:
    """The value as an int, at least `least`; anything else (None too) is a ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


_handoff: dict[tuple, _Run] = {}  # at most one run


def _run_amplitudes(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> _Run:
    """One seeded run, its arrays read-only.  The first of two calls with
    the same arguments draws the run and holds it, the second takes it; the
    key holds the signs of R, phi and the variances, so -0.0 and 0.0 differ."""
    n_samples, seed = _integer(n_samples, "n_samples", 1), _integer(seed, "seed")
    signs = tuple(math.copysign(1.0, x) for x in (params.R, params.phi, *deph.variances))
    key = (params, deph, n_samples, seed, signs)
    held = _handoff.pop(key, None)
    if held is None:
        _handoff.clear()
        held = _conditional_amplitudes(params, _sample_phases(deph, n_samples, seed))
        held.cos.flags.writeable = held.sin.flags.writeable = False
        _handoff[key] = held
    return held


_BLOCK = 4096  # draws per block, so that a block's real buffers stay in cache


def _blocks(n: int) -> Iterator[slice]:
    return (slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _evaluate(form: tuple[float, float, float], cos, sin, out, spare) -> np.ndarray | float:
    """k0 + kc * cos + ks * sin into `out`, zero terms skipped; `spare` is
    scratch of the same length.  A form without a cos or a sin term is its
    k0, returned as a float and written nowhere."""
    k0, kc, ks = form
    terms = [(k, trig) for k, trig in ((kc, cos), (ks, sin)) if k]
    if not terms:
        return k0
    (k, trig), *more = terms
    np.multiply(trig, k, out=out)
    for k, trig in more:
        out += np.multiply(trig, k, out=spare)
    if k0:
        out += k0
    return out


def _entries(run: _Run, block: slice, outs, spare: np.ndarray) -> Iterator[np.ndarray]:
    """Bob's rho00, rho11, Re rho01 and Im rho01 of the draws in `block`,
    each written into the next of `outs` as it is yielded; `spare` is two
    rows of scratch."""
    cos, sin = run.cos[block], run.sin[block]
    *entries, p = run.forms
    p = _evaluate(p, cos, sin, spare[0], spare[1])
    for form, out in zip(entries, outs):
        yield np.divide(_evaluate(form, cos, sin, out, spare[1]), p, out=out)


def montecarlo_click_probabilities(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample ++ probability (1/16 under any phase noise) of the run
    shared with `montecarlo_entries`."""
    run = _run_amplitudes(params, deph, n_samples, seed)
    n = len(run.cos)
    p, spare = np.empty(n), np.empty(min(n, _BLOCK))
    for block in _blocks(n):
        out = p[block]
        out[...] = _evaluate(run.forms[-1], run.cos[block], run.sin[block], out, spare[: len(out)])
    return p


def montecarlo_entries(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per sample, Bob's ++-conditional rho00, rho11 and rho01 (rho10 is its
    conjugate), from the run shared with `montecarlo_click_probabilities`."""
    run = _run_amplitudes(params, deph, n_samples, seed)
    n = len(run.cos)
    rho00, rho11, rho01 = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    spare = np.empty((2, min(n, _BLOCK)))
    for block in _blocks(n):
        outs = (rho00[block], rho11[block], rho01.real[block], rho01.imag[block])
        for _ in _entries(run, block, outs, spare[:, : block.stop - block.start]):
            pass
    return rho00, rho11, rho01


def dephased_state_montecarlo(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> QubitState:
    """Average of the ++-conditional state over sampled arm phases, summed
    block by block from the run shared with `montecarlo_click_probabilities`.

    Deterministic for a given seed; converges to the analytic state at
    the usual 1/sqrt(n) Monte Carlo rate.
    """
    run = _run_amplitudes(params, deph, n_samples, seed)
    n = len(run.cos)
    # one row for each entry in turn and two of scratch: 96 KB at most, under
    # malloc's default mmap threshold, so no call maps and faults in new pages
    buffers, totals = np.empty((3, min(n, _BLOCK))), np.zeros(4)
    for block in _blocks(n):
        used = buffers[:, : block.stop - block.start]
        entries = _entries(run, block, itertools.repeat(used[0]), used[1:])
        totals += [entry.sum() for entry in entries]
    rho00, rho11, re01, im01 = (totals / n).tolist()
    rho01 = complex(re01, im01)
    rho = np.array([[rho00, rho01], [rho01.conjugate(), rho11]])
    return QubitState(rho / (rho00 + rho11))


def jozsa_fidelity(r: np.ndarray, r_prime: np.ndarray) -> float:
    """Fidelity of two qubits from their Bloch vectors."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    # products summed left to right, not np.dot, whose rounding depends on
    # the host's BLAS kernel
    n1 = fock.mass(r * r, slice(None))
    n2 = fock.mass(r_prime * r_prime, slice(None))
    if not (n1 <= 1.0 + 1e-10 and n2 <= 1.0 + 1e-10):  # NaN fails too
        raise ValueError("Bloch vectors must lie in the unit ball")
    purity_term = math.sqrt(max(0.0, (1.0 - n1) * (1.0 - n2)))
    return 0.5 * (1.0 + fock.mass(r * r_prime, slice(None)) + purity_term)


def damped_average_fidelity(q: float) -> float:
    """Fidelity averaged over all pure inputs when Bob's transverse Bloch
    components are damped by q: (2 + q)/3."""
    return (2.0 + q) / 3.0


def average_fidelity(sigma2: float) -> float:
    """Teleportation fidelity averaged over all pure input states."""
    return damped_average_fidelity(_damping(sigma2))


def fidelity_samples(
    sigma2_values: Iterable[float], n_states: int, seed: int
) -> Iterator[np.ndarray]:
    """Per-state fidelities for uniformly drawn pure inputs, one row per sigma2.

    Inputs are n_states uniform directions on the Bloch sphere, drawn once
    and shared by every row; the damped output shrinks their transverse
    components by exp(-sigma2/2).  Rows are made as they are read.
    """
    n_states = _integer(n_states, "n_states", 1)
    dampings = [_damping(sigma2) for sigma2 in sigma2_values]
    v = np.random.default_rng(_integer(seed, "seed")).normal(size=(n_states, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    transverse = v[:, 0] ** 2 + v[:, 1] ** 2
    axial = v[:, 2] ** 2
    # pure inputs: the joint-purity term of the fidelity vanishes
    return (0.5 * (1.0 + (damping * transverse + axial)) for damping in dampings)
