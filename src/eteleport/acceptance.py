"""Acceptance suite: one callable per criterion, each with pinned tolerances.

Both the test suite and the command-line `verify` subcommand run these;
every criterion reports a single pass/fail line.  Reference values that
must stay independent of the implementation (the hard-coded network
matrix, the closed-form correlator table) live here or in the modules'
`reference_*` helpers and are never computed through the code paths they
check.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit, fock, leviton, protocol, saw
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
        try:
            passed, detail = self.func()
        except ValueError as exc:  # a rejected value (NaN, no norm, ...) fails the check
            passed, detail = False, f"rejected a value: {exc}"
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


def _grid(*axes: np.ndarray) -> list[np.ndarray]:
    """Every combination of the axes' values, flattened with the last axis
    varying fastest (the order of nested loops over them)."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _criterion_outcome_probabilities() -> tuple[bool, str]:
    tol = 1e-12
    amps = protocol.premeasurement_amplitudes("detection", *_grid(_GRID_R, _GRID_PHI))
    probs = protocol.outcome_probabilities(amps)
    paired = [ALL_OUTCOMES.index(x) for x in PAIRED_OUTCOMES]
    worst_paired = float(np.max(np.abs(probs[:, paired] - 1.0 / 16.0)))
    # each point's total added left to right over the outcomes
    total = functools.reduce(operator.add, probs.T)
    worst_total = float(np.max(np.abs(total - 1.0)))
    ok = worst_paired < tol and worst_total < tol
    return ok, (
        f"max |p(s0,s1) - 1/16| = {worst_paired:.2e}, "
        f"max |sum p - 1| = {worst_total:.2e} (tol {tol:.0e})"
    )


def _criterion_teleportation_identity() -> tuple[bool, str]:
    tol = 1e-10
    rs, phis = _grid(_GRID_R, _GRID_PHI)
    amps = protocol.premeasurement_amplitudes("detection", rs, phis)
    _, got = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "+"))
    _, flipped = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "-"))
    fid_gaps, flip_gaps = [], []
    for r, phi, qubit, flip in zip(rs, phis, got, flipped):
        reference = protocol.input_bloch(TeleportParams(r, phi))
        fid_gaps.append(abs(saw.jozsa_fidelity(qubit.bloch, reference) - 1.0))
        expected = np.array([-reference[0], -reference[1], reference[2]])
        flip_gaps.append(np.max(np.abs(flip.bloch - expected)))
    worst_fid = float(np.max(fid_gaps))
    worst_flip = float(np.max(flip_gaps))
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
    weight_gaps, t_gaps, r_gaps = [], [], []
    for r, phi in ((0.5, 0.0), (0.3, 1.2), (0.8, 4.0)):
        params = TeleportParams(r, phi)
        report = protocol.drq_projection_checks(params)
        weight_gaps.append(abs(report["dual_rail_weight"] - 0.5))
        before = protocol.run_premeasurement(params)
        t_overlap = abs(protocol.teleporting_branch(params).overlap(before))
        r_overlap = abs(protocol.failing_branch(params).overlap(before))
        t_gaps.append(abs(t_overlap - 0.5))
        r_gaps.append(abs(r_overlap - math.sqrt(3.0) / 2.0))
    worst_weight = float(np.max(weight_gaps))
    worst_t = float(np.max(t_gaps))
    worst_r = float(np.max(r_gaps))
    ok = worst_weight < tol_weight and worst_t < tol_overlap and worst_r < tol_overlap
    return ok, (
        f"|weight - 1/2| = {worst_weight:.2e}, |<T|Psi>| dev = {worst_t:.2e}, "
        f"|<R|Psi>| dev = {worst_r:.2e} (tols {tol_weight:.0e}/{tol_overlap:.0e})"
    )


def _criterion_tomography_equivalence() -> tuple[bool, str]:
    tol = 1e-10
    rs, phis = _grid(_GRID_R, _GRID_PHI)
    reconstructed = protocol.tomography_bloch_grid(rs, phis)
    amps = protocol.premeasurement_amplitudes("detection", rs, phis)
    _, direct = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "+"))
    direct_bloch = np.array([qubit.bloch for qubit in direct])
    worst = float(np.max(np.abs(reconstructed - direct_bloch)))
    return worst < tol, f"max componentwise deviation = {worst:.2e} (tol {tol:.0e})"


def _criterion_saw_fidelity_law() -> tuple[bool, str]:
    n_states = 100_000
    sigma2_values = (0.0, 0.5, 1.0, 2.0, 2.0 * math.log(2.0))
    failures = []
    z_scores = []
    # each check written `not x <= bound`, so that NaN fails it
    rows = saw.fidelity_samples(sigma2_values, n_states, seed=20260809)
    for sigma2, samples in zip(sigma2_values, rows):
        mean = float(samples.mean())
        stderr = float(samples.std(ddof=1) / math.sqrt(n_states))
        gap = abs(mean - saw.average_fidelity(sigma2))
        z_scores.append(gap / stderr if stderr else 0.0)
        if not gap <= 3.0 * stderr + 1e-12:
            failures.append(f"sigma2={sigma2:.3f} gap {gap:.2e} > 3*{stderr:.2e}")
    worst_sigma = float(np.max(z_scores))
    halving = abs(saw.average_fidelity(2.0 * math.log(2.0)) - 5.0 / 6.0)
    if not halving <= 1e-12:
        failures.append(f"analytic value at 2 ln 2 off by {halving:.2e}")

    params = TeleportParams(0.3, 1.2)
    deph = saw.DephasingParams.from_total(1.0)
    rho00, rho11, rho01 = saw.montecarlo_entries(params, deph, n_states, seed=77)
    analytic = saw.dephased_state_analytic(params, 1.0).rho
    # Re rho00, Re rho11, Re rho01 and Im rho01: the diagonal is real and
    # rho10 repeats rho01.  Constant-per-sample entries (the populations)
    # have zero sampling variance; the floor covers their roundoff only.
    checks = (
        (rho00, analytic[0, 0].real),
        (rho11, analytic[1, 1].real),
        (rho01.real, analytic[0, 1].real),
        (rho01.imag, analytic[0, 1].imag),
    )
    gaps = [abs(float(x.mean()) - want) for x, want in checks]
    bounds = [3.0 * (float(x.std(ddof=1)) / math.sqrt(n_states)) + 1e-10 for x, _ in checks]
    if not all(gap <= bound for gap, bound in zip(gaps, bounds)):
        failures.append(f"MC density matrix off by {np.max(gaps):.2e}")
    clicks = saw.montecarlo_click_probabilities(params, deph, n_states, seed=77)  # same run
    click_gap = float(np.max(np.abs(clicks - 1.0 / 16.0)))
    if not click_gap <= 1e-12:
        failures.append(f"MC p(++) off 1/16 by {click_gap:.2e}")
    if failures:
        return False, "; ".join(failures)
    return True, (
        f"sampled averages within {worst_sigma:.2f} standard errors at n = {n_states}; "
        f"MC density matrix within 3 standard errors"
    )


_CORRELATOR_R = np.linspace(0.1, 0.9, 5)
_CORRELATOR_PHI = np.linspace(0.0, 2.0 * math.pi, 5)


def _criterion_correlator_table() -> tuple[bool, str]:
    tol_table = 1e-10
    tol_sum = 1e-12
    rs, phis = _grid(_CORRELATOR_R, _CORRELATOR_PHI)
    table_gaps, sum_gaps = [], []
    for setting in ("X", "Y", "Z"):
        simulated = leviton.zero_T_correlator_grid(rs, phis, setting)
        references = [leviton.reference_correlators(r, phi, setting) for r, phi in zip(rs, phis)]
        reference = leviton.CorrelatorTable(setting, [table.values for table in references])
        table_gaps.append(simulated.max_deviation(reference))
        charge = fock.mass(simulated.values, leviton.CURRENTS)
        sum_gaps.append(np.max(np.abs(charge - 3.0)))
    worst_table = float(np.max(table_gaps))
    worst_sum = float(np.max(sum_gaps))
    ok = worst_table < tol_table and worst_sum < tol_sum
    return ok, (
        f"max table deviation = {worst_table:.2e} (tol {tol_table:.0e}), "
        f"max |sum I - 3| = {worst_sum:.2e} (tol {tol_sum:.0e})"
    )


def _criterion_correlator_reconstruction() -> tuple[bool, str]:
    tol_k = 1e-12
    tol_r = 1e-10
    factors = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.3))
    rs, phis = _grid(_CORRELATOR_R, _CORRELATOR_PHI)
    tables = {s: leviton.zero_T_correlator_grid(rs, phis, s) for s in "XYZ"}
    bloch, norms = leviton.reconstructed_bloch(tables)
    scaled = {
        s: leviton.finite_T_correlators(table, factors.pair, factors.triple)
        for s, table in tables.items()
    }
    bloch_t, _ = leviton.reconstructed_bloch(scaled)
    reference = np.array(
        [protocol.input_bloch(TeleportParams(r, phi)) for r, phi in zip(rs, phis)]
    )
    expected = reference * np.array([factors.damping, factors.damping, 1.0])
    worst_k = float(np.max(np.abs(np.array(list(norms.values())) - 1.0 / 16.0)))
    worst_zero = float(np.max(np.abs(bloch - reference)))
    worst_finite = float(np.max(np.abs(bloch_t - expected)))
    ok = worst_k < tol_k and worst_zero < tol_r and worst_finite < tol_r
    return ok, (
        f"max |K - 1/16| = {worst_k:.2e} (tol {tol_k:.0e}), zero-T Bloch dev = "
        f"{worst_zero:.2e}, damped Bloch dev = {worst_finite:.2e} (tol {tol_r:.0e})"
    )


def _criterion_thermal_limits() -> tuple[bool, str]:
    tol_unit = 1e-10
    failures = []
    # each check written `not x <= bound`, so that NaN fails it
    cold = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.0))
    if not (abs(cold.pair - 1.0) <= tol_unit and abs(cold.triple - 1.0) <= tol_unit):
        failures.append(
            f"zero-temperature factors ({cold.pair!r}, {cold.triple!r}) != 1"
        )
    # classical limit, checked for a broad pulse where tau = 10 is deep in
    # the high-temperature regime (narrow pulses approach 2/3 more slowly)
    hot = leviton.leviton_fidelity(leviton.LevitonParams(0.25, 10.0))
    if not abs(hot - 2.0 / 3.0) <= 1e-2:
        failures.append(f"fidelity at tau=10 is {hot:.4f}, not within 1e-2 of 2/3")
    gammas = (0.02, 0.05, 0.1)
    taus = np.arange(0.0, 2.0 + 1e-9, 0.05)
    curve = leviton.fidelity_curve(gammas, taus)
    fid = {
        g: np.array([row["fidelity"] for row in curve if row["gamma"] == g])
        for g in gammas
    }
    for g in gammas:
        if not np.all(np.diff(fid[g]) <= 1e-12):
            failures.append(f"fidelity not non-increasing in tau at gamma={g}")
        if not np.all((fid[g] > 2.0 / 3.0) & (fid[g] <= 1.0 + 1e-12)):
            failures.append(f"fidelity leaves (2/3, 1] at gamma={g}")
    for narrow, broad in zip(gammas, gammas[1:]):
        if not np.all(fid[narrow][1:] >= fid[broad][1:] - 1e-12):
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
    gaps, sum_gaps = [], []
    for gamma in (0.02, 0.05, 0.1):
        oracle = leviton.photoassist_spectrum_oracle(n_values, gamma)
        closed = np.array(
            [leviton.photoassist_amplitude(n, gamma) for n in n_values]
        )
        gaps.append(np.max(np.abs(oracle - closed)))
        sum_gaps.append(abs(leviton.photoassist_weight_sum(gamma) - 1.0))
    worst = float(np.max(gaps))
    worst_sum = float(np.max(sum_gaps))
    ok = worst < tol_oracle and worst_sum < tol_sum
    return ok, (
        f"max |closed - oracle| = {worst:.2e} (tol {tol_oracle:.0e}), "
        f"max |sum - 1| = {worst_sum:.2e} (tol {tol_sum:.0e})"
    )


def _criterion_structural() -> tuple[bool, str]:
    tol = 1e-12
    points = _grid(
        np.linspace(0.0, 1.0, 5),
        np.linspace(0.0, 2.0 * math.pi, 5),
        np.linspace(0.0, 1.0, 3),
        np.linspace(0.0, math.pi, 3),
    )
    built = circuit.teleport_network("tomography", *points).matrix
    literal = np.array([reference_network_matrix(*point) for point in zip(*points)])
    worst_matrix = float(np.max(np.abs(built - literal)))
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
