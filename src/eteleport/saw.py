"""Gaussian phase noise on the six interferometer arms and its fidelity cost.

Random phases drawn once per run on the arms between the two splitter
layers damp the transverse Bloch components of Bob's conditional state by
exp(-sigma^2/2), where sigma^2 is the summed per-arm variance.  The Monte
Carlo route samples arm phases and averages conditional states; the
analytic route applies the damping factor directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit, fock
from .circuit import ARM_WIRES
from .fock import PREPARED_MODES
from .protocol import SOURCE_LABELS, MeasurementOutcome, QubitState, TeleportParams, povm_element


@dataclass(frozen=True)
class DephasingParams:
    """Per-arm phase variances, ordered as ARM_WIRES."""

    variances: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "variances", tuple(float(v) for v in self.variances))
        if len(self.variances) != len(ARM_WIRES):
            raise ValueError(f"need one variance per arm {ARM_WIRES}")
        if not all(0.0 <= v < math.inf for v in self.variances):
            raise ValueError(f"variances must be finite and non-negative, got {self.variances}")

    @classmethod
    def from_total(cls, sigma2: float) -> "DephasingParams":
        """Split a total variance evenly over the six arms."""
        return cls((sigma2 / 6.0,) * 6)

    @classmethod
    def single_arm(cls, sigma2: float, arm: str) -> "DephasingParams":
        v = [0.0] * len(ARM_WIRES)
        v[ARM_WIRES.index(arm)] = sigma2
        return cls(tuple(v))

    @property
    def total(self) -> float:
        return sum(self.variances)


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
    """One Gaussian draw per arm per run, rows of one seeded stream.

    Runs are drawn in order from a single generator, so the n samples of
    a run are the first n rows of any longer run with the same seed.
    """
    scales = np.sqrt(np.array(deph.variances))
    return np.random.default_rng(seed).normal(0.0, scales, size=(n_samples, len(ARM_WIRES)))


def _conditional_amplitudes(
    params: TeleportParams, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ++ conditional amplitudes (to B'0, B'1) per phase draw.

    The arm phases are diagonal in the three-particle occupation basis of
    the prepared stage, so by Cauchy-Binet each amplitude is a sum over
    configurations S of c_S * exp(-i * sum of the phases on S's arms), with
    c_S = <A0+ A1+ B'b| lift(alice) |S> <S| lift(prep) |sources>.  At most
    two configurations have c_S != 0; their terms are added elementwise.
    """
    layers = circuit.teleport_layers(params.R, params.phi, 1.0, 0.0, None)
    alice = circuit.compose(circuit.CircuitDescription(ARM_WIRES, layers["alice"])).matrix
    detectors = fock.ModeRegistry(circuit.stage_labels(ARM_WIRES, ("alice",)))
    lift = fock.SingleParticleUnitary(alice, detectors, PREPARED_MODES)
    configs, lifted = fock.lift_matrix(lift, 3)
    sources = fock.create_sources(fock.INPUT_MODES, SOURCE_LABELS)
    prepared = fock.lift_apply(circuit.preparation_network(params.R, params.phi), sources)
    # the two ++ rows, (A0+, A1+, B'0) then (A0+, A1+, B'1) in combination order
    clicked = povm_element(MeasurementOutcome.from_signs("+", "+")).clicked(detectors, configs)
    coeffs = lifted[clicked] * prepared.vector()
    keep = coeffs.any(axis=0)
    arms = fock.occupations(PREPARED_MODES, configs[keep], ARM_WIRES).astype(bool)
    terms = (
        c[:, None] * np.exp(-1j * draws[:, on].sum(axis=1))
        for c, on in zip(coeffs[:, keep].T, arms)
    )
    alpha, beta = sum(terms)
    return alpha, beta


def montecarlo_click_probabilities(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> np.ndarray:
    """Per-sample ++ probability; phase noise must leave it at 1/16."""
    draws = _sample_phases(deph, n_samples, seed)
    alpha, beta = _conditional_amplitudes(params, draws)
    return np.abs(alpha) ** 2 + np.abs(beta) ** 2


def montecarlo_conditional_states(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> np.ndarray:
    """Stack of Bob's ++-conditional density matrices, one per sample."""
    draws = _sample_phases(deph, n_samples, seed)
    alpha, beta = _conditional_amplitudes(params, draws)
    p = np.abs(alpha) ** 2 + np.abs(beta) ** 2
    rho = np.empty((n_samples, 2, 2), dtype=complex)
    rho[:, 0, 0] = np.abs(alpha) ** 2 / p
    rho[:, 1, 1] = np.abs(beta) ** 2 / p
    rho[:, 0, 1] = alpha * np.conj(beta) / p
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    return rho


def dephased_state_montecarlo(
    params: TeleportParams, deph: DephasingParams, n_samples: int, seed: int
) -> QubitState:
    """Average of the ++-conditional state over sampled arm phases.

    Deterministic for a given seed; converges to the analytic state at
    the usual 1/sqrt(n) Monte Carlo rate.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rho = montecarlo_conditional_states(params, deph, n_samples, seed).mean(axis=0)
    # guard tiny asymmetries so the result is an exact density matrix
    rho = 0.5 * (rho + rho.conj().T)
    return QubitState(rho / np.trace(rho).real)


def jozsa_fidelity(r: np.ndarray, r_prime: np.ndarray) -> float:
    """Fidelity of two qubits from their Bloch vectors."""
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    n1 = np.dot(r, r)
    n2 = np.dot(r_prime, r_prime)
    if n1 > 1.0 + 1e-10 or n2 > 1.0 + 1e-10:
        raise ValueError("Bloch vectors must lie in the unit ball")
    purity_term = math.sqrt(max(0.0, (1.0 - n1) * (1.0 - n2)))
    return 0.5 * (1.0 + float(np.dot(r, r_prime)) + purity_term)


def state_fidelity(params: TeleportParams, sigma2: float) -> float:
    """Closed-form fidelity between the prepared state and its damped copy."""
    r, d = params.R, params.D
    return 0.5 * (1.0 + 4.0 * _damping(sigma2) * r * d + (r - d) ** 2)


def damped_average_fidelity(q: float) -> float:
    """Fidelity averaged over all pure inputs when Bob's transverse Bloch
    components are damped by q: (2 + q)/3."""
    return (2.0 + q) / 3.0


def average_fidelity(sigma2: float) -> float:
    """Teleportation fidelity averaged over all pure input states."""
    return damped_average_fidelity(_damping(sigma2))


def fidelity_samples(sigma2: float, n_states: int, seed: int) -> np.ndarray:
    """Per-state fidelities for uniformly drawn pure inputs.

    Inputs are uniform directions on the Bloch sphere; the damped output
    shrinks the transverse components by exp(-sigma2/2).
    """
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    damping = _damping(sigma2)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_states, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    dot = damping * (v[:, 0] ** 2 + v[:, 1] ** 2) + v[:, 2] ** 2
    # pure inputs: the joint-purity term of the fidelity vanishes
    return 0.5 * (1.0 + dot)
