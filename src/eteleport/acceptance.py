"""Acceptance suite: one callable per criterion, each with pinned tolerances.

Both the test suite and the command-line `verify` subcommand run these;
every criterion reports a single pass/fail line.  Reference values that
must stay independent of the implementation (the hard-coded network
matrix, the closed-form correlator table) live here or in the modules'
`reference_*` helpers and are never computed through the code paths they
check.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit, leviton, protocol, saw
from .protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, MeasurementOutcome, TeleportParams


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    func: Callable[[], tuple[bool, str]]

    def run(self) -> CriterionResult:
        passed, detail = self.func()
        return CriterionResult(self.number, self.name, passed, detail)


def reference_network_matrix(
    R: float, phi: float, Dp: float, theta: float
) -> np.ndarray:
    """Hard-coded transcription of the full six-mode scattering matrix.

    Kept independent of the circuit builder on purpose; acceptance
    compares the two entrywise.
    """
    D = 1.0 - R
    Rp = 1.0 - Dp
    s = 1.0 / math.sqrt(2.0)
    ep = np.exp(-1j * phi)
    et = np.exp(-1j * theta)
    rR, rD = math.sqrt(R), math.sqrt(D)
    rRp, rDp = math.sqrt(Rp), math.sqrt(Dp)
    return (
        np.array(
            [
                [-s, 1j * s, 0, 0, 1j * rR * ep, rD * ep],
                [1j * s, s, 0, 0, -rR * ep, 1j * rD * ep],
                [0, 0, -s, 1j * s, rD, 1j * rR],
                [0, 0, 1j * s, s, 1j * rD, -rR],
                [rDp * et, 1j * rDp * et, -1j * rRp, rRp, 0, 0],
                [-1j * rRp * et, rRp * et, rDp, 1j * rDp, 0, 0],
            ],
            dtype=complex,
        )
        / math.sqrt(2.0)
    )


_GRID_R = np.linspace(0.0, 1.0, 10)
_GRID_PHI = np.linspace(0.0, 2.0 * math.pi, 10)


def _criterion_outcome_probabilities() -> tuple[bool, str]:
    tol = 1e-12
    worst_paired = 0.0
    worst_total = 0.0
    for r in _GRID_R:
        for phi in _GRID_PHI:
            params = TeleportParams(r, phi)
            state = protocol.run_premeasurement(params, "detection")
            probs = {
                x: protocol.povm_element(x).expectation(state) for x in ALL_OUTCOMES
            }
            for x in PAIRED_OUTCOMES:
                worst_paired = max(worst_paired, abs(probs[x] - 1.0 / 16.0))
            worst_total = max(worst_total, abs(sum(probs.values()) - 1.0))
    ok = worst_paired < tol and worst_total < tol
    return ok, (
        f"max |p(s0,s1) - 1/16| = {worst_paired:.2e}, "
        f"max |sum p - 1| = {worst_total:.2e} (tol {tol:.0e})"
    )


def _criterion_teleportation_identity() -> tuple[bool, str]:
    tol = 1e-10
    pp = MeasurementOutcome.from_signs("+", "+")
    pm = MeasurementOutcome.from_signs("+", "-")
    worst_fid = 0.0
    worst_flip = 0.0
    for r in _GRID_R:
        for phi in _GRID_PHI:
            params = TeleportParams(r, phi)
            reference = protocol.input_bloch(params)
            got = protocol.bob_conditional(params, pp)
            worst_fid = max(
                worst_fid, abs(saw.jozsa_fidelity(got.bloch, reference) - 1.0)
            )
            flipped = protocol.bob_conditional(params, pm).bloch
            expected = np.array([-reference[0], -reference[1], reference[2]])
            worst_flip = max(worst_flip, float(np.max(np.abs(flipped - expected))))
    ok = worst_fid < tol and worst_flip < tol
    return ok, (
        f"max |fidelity - 1| = {worst_fid:.2e}, "
        f"max sign-flip deviation = {worst_flip:.2e} (tol {tol:.0e})"
    )


def _criterion_efficiency() -> tuple[bool, str]:
    tol = 1e-12
    with_ff = protocol.efficiency(True)
    without_ff = protocol.efficiency(False)
    ok = abs(with_ff - 0.25) < tol and abs(without_ff - 0.125) < tol
    return ok, (
        f"with feed-forward {with_ff!r}, without {without_ff!r} "
        f"(targets 0.25 / 0.125, tol {tol:.0e})"
    )


def _criterion_dual_rail_structure() -> tuple[bool, str]:
    tol_weight = 1e-12
    tol_overlap = 1e-10
    worst_weight = 0.0
    worst_t = 0.0
    worst_r = 0.0
    for r, phi in ((0.5, 0.0), (0.3, 1.2), (0.8, 4.0)):
        params = TeleportParams(r, phi)
        report = protocol.drq_projection_checks(params)
        worst_weight = max(worst_weight, abs(report["dual_rail_weight"] - 0.5))
        before = protocol.run_premeasurement(params, "detection")
        t_overlap = abs(protocol.teleporting_branch(params).overlap(before))
        r_overlap = abs(protocol.failing_branch(params).overlap(before))
        worst_t = max(worst_t, abs(t_overlap - 0.5))
        worst_r = max(worst_r, abs(r_overlap - math.sqrt(3.0) / 2.0))
    ok = worst_weight < tol_weight and worst_t < tol_overlap and worst_r < tol_overlap
    return ok, (
        f"|weight - 1/2| = {worst_weight:.2e}, |<T|Psi>| dev = {worst_t:.2e}, "
        f"|<R|Psi>| dev = {worst_r:.2e} (tols {tol_weight:.0e}/{tol_overlap:.0e})"
    )


def _criterion_tomography_equivalence() -> tuple[bool, str]:
    tol = 1e-10
    pp = MeasurementOutcome.from_signs("+", "+")
    worst = 0.0
    for r in _GRID_R:
        for phi in _GRID_PHI:
            params = TeleportParams(r, phi)
            reconstructed = protocol.tomography_bloch(params)
            direct = protocol.bob_conditional(params, pp).bloch
            worst = max(worst, float(np.max(np.abs(reconstructed - direct))))
    return worst < tol, f"max componentwise deviation = {worst:.2e} (tol {tol:.0e})"


def _criterion_saw_fidelity_law() -> tuple[bool, str]:
    n_states = 100_000
    sigma2_values = (0.0, 0.5, 1.0, 2.0, 2.0 * math.log(2.0))
    failures = []
    worst_sigma = 0.0
    for sigma2 in sigma2_values:
        samples = saw.fidelity_samples(sigma2, n_states, seed=20260809)
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(n_states))
        gap = abs(mean - saw.average_fidelity(sigma2))
        worst_sigma = max(worst_sigma, gap / stderr if stderr else 0.0)
        if gap > 3.0 * stderr + 1e-12:
            failures.append(f"sigma2={sigma2:.3f} gap {gap:.2e} > 3*{stderr:.2e}")
    halving = abs(saw.average_fidelity(2.0 * math.log(2.0)) - 5.0 / 6.0)
    if halving > 1e-12:
        failures.append(f"analytic value at 2 ln 2 off by {halving:.2e}")

    params = TeleportParams(0.3, 1.2)
    deph = saw.DephasingParams.from_total(1.0)
    stack = saw.montecarlo_conditional_states(params, deph, n_states, seed=77)
    mc_mean = stack.mean(axis=0)
    analytic = saw.dephased_state_analytic(params, 1.0).rho
    # constant-per-sample entries (the populations) have zero sampling
    # variance; the floor covers their accumulated roundoff only
    for part in (np.real, np.imag):
        se = part(stack).std(axis=0, ddof=1) / math.sqrt(n_states)
        gap = np.abs(part(mc_mean) - part(analytic))
        if np.any(gap > 3.0 * se + 1e-10):
            failures.append(f"MC density matrix off by {np.max(gap):.2e}")
            break
    if failures:
        return False, "; ".join(failures)
    return True, (
        f"sampled averages within {worst_sigma:.2f} standard errors at n = {n_states}; "
        f"MC density matrix within 3 standard errors"
    )


def _criterion_correlator_table() -> tuple[bool, str]:
    tol_table = 1e-10
    tol_sum = 1e-12
    worst_table = 0.0
    worst_sum = 0.0
    for r in np.linspace(0.1, 0.9, 5):
        for phi in np.linspace(0.0, 2.0 * math.pi, 5):
            for setting in ("X", "Y", "Z"):
                simulated = leviton.zero_T_correlators(r, phi, setting)
                reference = leviton.reference_correlators(r, phi, setting)
                worst_table = max(worst_table, simulated.max_deviation(reference))
                charge = sum(
                    simulated.current(label) for label in leviton.DETECTORS
                )
                worst_sum = max(worst_sum, abs(charge - 3.0))
    ok = worst_table < tol_table and worst_sum < tol_sum
    return ok, (
        f"max table deviation = {worst_table:.2e} (tol {tol_table:.0e}), "
        f"max |sum I - 3| = {worst_sum:.2e} (tol {tol_sum:.0e})"
    )


def _criterion_correlator_reconstruction() -> tuple[bool, str]:
    tol_k = 1e-12
    tol_r = 1e-10
    worst_k = 0.0
    worst_zero = 0.0
    worst_finite = 0.0
    factors = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.3))
    for r in np.linspace(0.1, 0.9, 5):
        for phi in np.linspace(0.0, 2.0 * math.pi, 5):
            tables = {s: leviton.zero_T_correlators(r, phi, s) for s in "XYZ"}
            bloch, norms = leviton.reconstructed_bloch(tables)
            worst_k = max(worst_k, max(abs(k - 1.0 / 16.0) for k in norms.values()))
            reference = protocol.input_bloch(TeleportParams(r, phi))
            worst_zero = max(worst_zero, float(np.max(np.abs(bloch - reference))))
            scaled = {
                s: leviton.finite_T_correlators(tables[s], factors.pair, factors.triple)
                for s in "XYZ"
            }
            bloch_t, _ = leviton.reconstructed_bloch(scaled)
            expected = np.array(
                [
                    factors.damping * reference[0],
                    factors.damping * reference[1],
                    reference[2],
                ]
            )
            worst_finite = max(worst_finite, float(np.max(np.abs(bloch_t - expected))))
    ok = worst_k < tol_k and worst_zero < tol_r and worst_finite < tol_r
    return ok, (
        f"max |K - 1/16| = {worst_k:.2e} (tol {tol_k:.0e}), zero-T Bloch dev = "
        f"{worst_zero:.2e}, damped Bloch dev = {worst_finite:.2e} (tol {tol_r:.0e})"
    )


def _criterion_thermal_limits() -> tuple[bool, str]:
    tol_unit = 1e-10
    failures = []
    cold = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.0))
    if abs(cold.pair - 1.0) > tol_unit or abs(cold.triple - 1.0) > tol_unit:
        failures.append(
            f"zero-temperature factors ({cold.pair!r}, {cold.triple!r}) != 1"
        )
    # classical limit, checked for a broad pulse where tau = 10 is deep in
    # the high-temperature regime (narrow pulses approach 2/3 more slowly)
    hot = leviton.leviton_fidelity(leviton.LevitonParams(0.25, 10.0))
    if abs(hot - 2.0 / 3.0) > 1e-2:
        failures.append(f"fidelity at tau=10 is {hot:.4f}, not within 1e-2 of 2/3")
    gammas = (0.02, 0.05, 0.1)
    taus = np.arange(0.0, 2.0 + 1e-9, 0.05)
    curve = leviton.fidelity_curve(gammas, taus)
    fid = {
        g: np.array([row["fidelity"] for row in curve if row["gamma"] == g])
        for g in gammas
    }
    for g in gammas:
        if np.any(np.diff(fid[g]) > 1e-12):
            failures.append(f"fidelity not non-increasing in tau at gamma={g}")
        if np.any(fid[g] <= 2.0 / 3.0) or np.any(fid[g] > 1.0 + 1e-12):
            failures.append(f"fidelity leaves (2/3, 1] at gamma={g}")
    for narrow, broad in zip(gammas, gammas[1:]):
        if np.any(fid[narrow][1:] < fid[broad][1:] - 1e-12):
            failures.append(f"ordering violated between gamma={narrow} and {broad}")
    if failures:
        return False, "; ".join(failures)
    return True, (
        f"cold factors at 1 within {tol_unit:.0e}; fidelity(tau=10, broad pulse) = "
        f"{hot:.4f}; curve monotone, bounded, and width-ordered on the grid"
    )


def _criterion_photoassisted_amplitudes() -> tuple[bool, str]:
    tol_oracle = 1e-12
    tol_sum = 1e-10
    n_values = list(range(-5, 21))
    worst = 0.0
    worst_sum = 0.0
    for gamma in (0.02, 0.05, 0.1):
        oracle = leviton.photoassist_spectrum_oracle(n_values, gamma)
        closed = np.array(
            [leviton.photoassist_amplitude(n, gamma) for n in n_values]
        )
        worst = max(worst, float(np.max(np.abs(oracle - closed))))
        worst_sum = max(worst_sum, abs(leviton.photoassist_weight_sum(gamma) - 1.0))
    ok = worst < tol_oracle and worst_sum < tol_sum
    return ok, (
        f"max |closed - oracle| = {worst:.2e} (tol {tol_oracle:.0e}), "
        f"max |sum - 1| = {worst_sum:.2e} (tol {tol_sum:.0e})"
    )


def _criterion_structural() -> tuple[bool, str]:
    tol = 1e-12
    worst_matrix = 0.0
    for r in np.linspace(0.0, 1.0, 5):
        for phi in np.linspace(0.0, 2.0 * math.pi, 5):
            for dp in np.linspace(0.0, 1.0, 3):
                for theta in np.linspace(0.0, math.pi, 3):
                    built = circuit.builtin_teleport_network(r, phi, dp, theta).matrix
                    literal = reference_network_matrix(r, phi, dp, theta)
                    worst_matrix = max(
                        worst_matrix, float(np.max(np.abs(built - literal)))
                    )
    povm_defect = protocol.povm_completeness_defect()
    roundtrip_ok = True
    corpus = []
    data_dir = importlib.resources.files("eteleport").joinpath("data")
    for entry in sorted(data_dir.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".ckt"):
            corpus.append(entry.name)
            first = circuit.parse_circuit(entry.read_text())
            second = circuit.parse_circuit(circuit.format_circuit(first))
            if first != second:
                roundtrip_ok = False
    ok = worst_matrix < tol and povm_defect < tol and roundtrip_ok and corpus
    return bool(ok), (
        f"max network deviation = {worst_matrix:.2e} (tol {tol:.0e}), POVM identity "
        f"defect = {povm_defect:.2e}, parser round-trip on {len(corpus)} files "
        f"{'ok' if roundtrip_ok else 'FAILED'}"
    )


ALL_CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "outcome probabilities", _criterion_outcome_probabilities),
    Criterion(2, "teleportation identity", _criterion_teleportation_identity),
    Criterion(3, "efficiency", _criterion_efficiency),
    Criterion(4, "dual-rail structure", _criterion_dual_rail_structure),
    Criterion(5, "tomography equivalence", _criterion_tomography_equivalence),
    Criterion(6, "phase-damping fidelity law", _criterion_saw_fidelity_law),
    Criterion(7, "correlator table", _criterion_correlator_table),
    Criterion(8, "Bloch reconstruction from correlators", _criterion_correlator_reconstruction),
    Criterion(9, "thermal limits and fidelity curves", _criterion_thermal_limits),
    Criterion(10, "photoassisted amplitudes", _criterion_photoassisted_amplitudes),
    Criterion(11, "structural checks", _criterion_structural),
)


def run_all(printer: Callable[[str], None] | None = None) -> list[CriterionResult]:
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion.run()
        results.append(result)
        if printer is not None:
            printer(result.line)
    return results
