"""Acceptance suite: one callable per criterion, each with pinned tolerances.

Both the test suite and the command-line `verify` subcommand run these;
every criterion returns `Check` records and reports a single pass/fail
line.  Reference values that must stay independent of the implementation
(the hard-coded network matrix, the closed-form correlator table) live
here or in the modules' `reference_*` helpers and are never computed
through the code paths they check.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import circuit, fock, leviton, protocol, saw
from .circuit import ArrayLike
from .protocol import ALL_OUTCOMES, PAIRED_OUTCOMES, MeasurementOutcome, TeleportParams


@dataclass(frozen=True)
class Check:
    """One gated quantity; it passes when `measured < bound` (NaN never does)."""

    name: str
    measured: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.measured < self.bound


def _render(checks: Sequence[Check]) -> str:
    """`name = measured` per check, each run of equal bounds closed by its tolerance."""
    parts = []
    for check, following in zip(checks, [*checks[1:], None]):
        part = f"{check.name} = {check.measured:.2e}"
        if following is None or following.bound != check.bound:
            part += f" (tol {check.bound:.0e})"
        parts.append(part)
    return ", ".join(parts)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    checks: tuple[Check, ...]
    detail: str | None  # the PASS text where it is not `_render(checks)`

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(check.passed for check in self.checks)

    @property
    def line(self) -> str:
        if self.passed:
            status, text = "PASS", self.detail or _render(self.checks)
        else:
            status = "FAIL"
            text = _render([check for check in self.checks if not check.passed]) or self.detail
        return f"{status}  criterion {self.number:2d}  {self.name}: {text}"


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    func: Callable[[], tuple[Sequence[Check], str | None]]

    def run(self) -> CriterionResult:
        try:
            checks, detail = self.func()
        except ValueError as exc:  # a rejected value (NaN, no norm, ...) fails the criterion
            return CriterionResult(self.number, self.name, (), f"rejected a value: {exc}")
        if not checks:
            detail = "returned no checks"
        return CriterionResult(self.number, self.name, tuple(checks), detail)


def reference_network_matrix(
    R: ArrayLike, phi: ArrayLike, Dp: ArrayLike, theta: ArrayLike
) -> np.ndarray:
    """Hard-coded transcription of the full six-mode scattering matrix,
    shape (..., 6, 6) over the broadcast parameters.

    Kept independent of the circuit builder on purpose; acceptance
    compares the two entrywise.
    """
    params = (np.asarray(x, dtype=float) for x in (R, phi, Dp, theta))
    R, phi, Dp, theta = np.broadcast_arrays(*params)
    D = 1.0 - R
    Rp = 1.0 - Dp
    s = 1.0 / math.sqrt(2.0)
    ep = np.exp(-1j * phi)
    et = np.exp(-1j * theta)
    rR, rD = np.sqrt(R), np.sqrt(D)
    rRp, rDp = np.sqrt(Rp), np.sqrt(Dp)
    times = fock._unfused_product
    rows = [
        [-s, 1j * s, 0, 0, times(1j * rR, ep), times(rD, ep)],
        [1j * s, s, 0, 0, times(-rR, ep), times(1j * rD, ep)],
        [0, 0, -s, 1j * s, rD, 1j * rR],
        [0, 0, 1j * s, s, 1j * rD, -rR],
        [times(rDp, et), times(1j * rDp, et), -1j * rRp, rRp, 0, 0],
        [times(-1j * rRp, et), times(rRp, et), rDp, 1j * rDp, 0, 0],
    ]
    matrix = np.empty(R.shape + (6, 6), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            matrix[..., i, j] = entry
    return matrix / math.sqrt(2.0)


_GRID_R = np.linspace(0.0, 1.0, 10)
_GRID_PHI = np.linspace(0.0, 2.0 * math.pi, 10)


def _grid(*axes: np.ndarray) -> list[np.ndarray]:
    """Every combination of the axes' values, flattened with the last axis
    varying fastest (the order of nested loops over them)."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _criterion_outcome_probabilities() -> tuple[list[Check], str | None]:
    amps = protocol.premeasurement_amplitudes("detection", *_grid(_GRID_R, _GRID_PHI))
    probs = protocol.outcome_probabilities(amps)
    paired = [ALL_OUTCOMES.index(x) for x in PAIRED_OUTCOMES]
    worst_paired = float(np.max(np.abs(probs[:, paired] - 1.0 / 16.0)))
    # each point's total added left to right over the outcomes
    total = functools.reduce(operator.add, probs.T)
    worst_total = float(np.max(np.abs(total - 1.0)))
    return [
        Check("max |p(s0,s1) - 1/16|", worst_paired, 1e-12),
        Check("max |sum p - 1|", worst_total, 1e-12),
    ], None


def _criterion_teleportation_identity() -> tuple[list[Check], str | None]:
    rs, phis = _grid(_GRID_R, _GRID_PHI)
    amps = protocol.premeasurement_amplitudes("detection", rs, phis)
    _, got = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "+"))
    _, flipped = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "-"))
    reference = protocol.input_bloch_grid(rs, phis)
    fid_gap = np.max(np.abs(protocol.jozsa_fidelity(got, reference) - 1.0))
    # the feed-forward's sigma_z negates x and y
    flip_gap = np.max(np.abs(flipped - reference * (-1.0, -1.0, 1.0)))
    return [
        Check("max |fidelity - 1|", float(fid_gap), 1e-10),
        Check("max sign-flip deviation", float(flip_gap), 1e-10),
    ], None


def _criterion_efficiency() -> tuple[list[Check], str | None]:
    tol = 1e-12
    with_ff = protocol.efficiency(True)
    without_ff = protocol.efficiency(False)
    return [
        Check("|efficiency with feed-forward - 1/4|", abs(with_ff - 0.25), tol),
        Check("|efficiency without feed-forward - 1/8|", abs(without_ff - 0.125), tol),
    ], (
        f"with feed-forward {with_ff!r}, without {without_ff!r} "
        f"(targets 0.25 / 0.125, tol {tol:.0e})"
    )


def _criterion_dual_rail_structure() -> tuple[list[Check], str | None]:
    tol_report = 1e-12
    tol_overlap = 1e-10
    quarter_turn = 1.0 / (2.0 * math.sqrt(2.0))
    gaps = []
    for r, phi in ((0.5, 0.0), (0.3, 1.2), (0.8, 4.0)):
        params = TeleportParams(r, phi)
        # literal aligned-rail products pick up occupation-ordering signs
        literal = abs(params.R - params.D) * quarter_turn
        expected = dict(
            dual_rail_weight=0.5, crossed_sector_weight=0.25, aligned_sector_weight=0.25,
            bell_gram_max_dev=0.0, povm_dual_rail_max_dev=0.0,
            overlap_modulus_identity=quarter_turn, overlap_modulus_sigma_z=quarter_turn,
            overlap_modulus_sigma_x_literal=literal, overlap_modulus_i_sigma_y_literal=literal,
            teleporting_overlap=0.5, failing_overlap=math.sqrt(3.0) / 2.0,
        )
        measured = protocol.drq_projection_checks(params)
        before = protocol.run_premeasurement(params)
        measured["teleporting_overlap"] = abs(protocol.teleporting_branch(params).overlap(before))
        measured["failing_overlap"] = abs(protocol.failing_branch(params).overlap(before))
        gaps.append([abs(measured[key] - want) for key, want in expected.items()])
    worst = np.max(gaps, axis=0)
    bounds = [tol_report] * (len(expected) - 2) + [tol_overlap] * 2
    return [Check(f"{key} dev", float(w), b) for key, w, b in zip(expected, worst, bounds)], (
        f"|weight - 1/2| = {worst[0]:.2e}, |<T|Psi>| dev = {worst[-2]:.2e}, "
        f"|<R|Psi>| dev = {worst[-1]:.2e} (tols {tol_report:.0e}/{tol_overlap:.0e})"
    )


def _criterion_tomography_equivalence() -> tuple[list[Check], str | None]:
    rs, phis = _grid(_GRID_R, _GRID_PHI)
    reconstructed = protocol.tomography_bloch_grid(rs, phis)
    amps = protocol.premeasurement_amplitudes("detection", rs, phis)
    _, direct = protocol.conditional_qubits(amps, MeasurementOutcome.from_signs("+", "+"))
    worst = float(np.max(np.abs(reconstructed - direct)))
    return [Check("max componentwise deviation", worst, 1e-10)], None


def _criterion_saw_fidelity_law() -> tuple[list[Check], str | None]:
    n_states = 100_000
    sigma2_values = (0.0, 0.5, 1.0, 2.0, 2.0 * math.log(2.0))
    checks, z_scores = [], []
    moments = saw.sampled_fidelity(sigma2_values, n_states, seed=20260809)
    for sigma2, (mean, stderr) in zip(sigma2_values, moments):
        gap = abs(mean - saw.average_fidelity(sigma2))
        z_scores.append(gap / stderr if stderr else 0.0)
        checks.append(Check(f"sigma2={sigma2:.3f} fidelity gap", gap, 3.0 * stderr + 1e-12))
    halving = abs(saw.average_fidelity(2.0 * math.log(2.0)) - 5.0 / 6.0)
    checks.append(Check("|analytic fidelity at 2 ln 2 - 5/6|", halving, 1e-12))

    params = TeleportParams(0.3, 1.2)
    deph = saw.DephasingParams.from_total(1.0)
    state, std_re, std_im = saw._montecarlo_spread(params, deph, n_states, seed=77)
    averaged = state.rho.tolist()
    analytic = saw.dephased_state_analytic(params, 1.0).rho.tolist()
    # The diagonal is real and rho10 repeats rho01.  The populations are constants
    # of the run, with no sampling variance: their bound is the roundoff floor alone.
    entries = {
        "Re rho00": (averaged[0][0].real, analytic[0][0].real, 0.0),
        "Re rho11": (averaged[1][1].real, analytic[1][1].real, 0.0),
        "Re rho01": (averaged[0][1].real, analytic[0][1].real, std_re),
        "Im rho01": (averaged[0][1].imag, analytic[0][1].imag, std_im),
    }
    for name, (mean, want, std) in entries.items():
        spread = 3.0 * (std / math.sqrt(n_states))
        checks.append(Check(f"MC {name} gap", abs(mean - want), spread + 1e-10))
    clicks = saw.montecarlo_click_probabilities(params, deph, n_states, seed=77)  # same run
    # c - 1/16 rounds monotonically in c, so the largest |c - 1/16| is at an extreme
    click_gap = max(abs(float(c) - 1.0 / 16.0) for c in (clicks.max(), clicks.min()))
    checks.append(Check("MC max |p(++) - 1/16|", click_gap, 1e-12))
    return checks, (
        f"sampled averages within {float(np.max(z_scores)):.2f} standard errors at n = "
        f"{n_states}; MC density matrix within 3 standard errors"
    )


_CORRELATOR_R = np.linspace(0.1, 0.9, 5)
_CORRELATOR_PHI = np.linspace(0.0, 2.0 * math.pi, 5)


def _criterion_correlator_table() -> tuple[list[Check], str | None]:
    rs, phis = _grid(_CORRELATOR_R, _CORRELATOR_PHI)
    table_gaps, sum_gaps = [], []
    for setting, simulated in leviton.zero_T_tables(rs, phis).items():
        reference = leviton.reference_correlators(rs, phis, setting)
        table_gaps.append(simulated.max_deviation(reference))
        charge = fock.mass(simulated.values, leviton.CURRENTS)
        sum_gaps.append(np.max(np.abs(charge - 3.0)))
    return [
        Check("max table deviation", float(np.max(table_gaps)), 1e-10),
        Check("max |sum I - 3|", float(np.max(sum_gaps)), 1e-12),
    ], None


def _criterion_correlator_reconstruction() -> tuple[list[Check], str | None]:
    factors = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.3))
    rs, phis = _grid(_CORRELATOR_R, _CORRELATOR_PHI)
    tables = leviton.zero_T_tables(rs, phis)
    bloch, norms = leviton.reconstructed_bloch(tables)
    pair, triple = factors.pair, factors.triple
    scaled = {s: leviton.finite_T_correlators(t, pair, triple) for s, t in tables.items()}
    bloch_t, _ = leviton.reconstructed_bloch(scaled)
    reference = protocol.input_bloch_grid(rs, phis)
    expected = reference * np.array([factors.damping, factors.damping, 1.0])
    worst_k = float(np.max(np.abs(np.array(list(norms.values())) - 1.0 / 16.0)))
    return [
        Check("max |K - 1/16|", worst_k, 1e-12),
        Check("zero-T Bloch dev", float(np.max(np.abs(bloch - reference))), 1e-10),
        Check("damped Bloch dev", float(np.max(np.abs(bloch_t - expected))), 1e-10),
    ], None


def _criterion_thermal_limits() -> tuple[list[Check], str | None]:
    tol_unit = 1e-10
    cold = leviton.thermal_factors(leviton.LevitonParams(0.05, 0.0))
    # classical limit, checked for a broad pulse where tau = 10 is deep in
    # the high-temperature regime (narrow pulses approach 2/3 more slowly)
    hot = leviton.leviton_fidelity(leviton.LevitonParams(0.25, 10.0))
    gammas = (0.02, 0.05, 0.1)
    taus = np.arange(0.0, 2.0 + 1e-9, 0.05)
    curve = leviton.fidelity_curve(gammas, taus)  # ordered by (gamma, tau)
    fid = np.array([row["fidelity"] for row in curve]).reshape(len(gammas), len(taus))
    return [
        Check("|cold pair factor - 1|", abs(cold.pair - 1.0), tol_unit),
        Check("|cold triple factor - 1|", abs(cold.triple - 1.0), tol_unit),
        Check("|fidelity(tau=10, broad pulse) - 2/3|", abs(hot - 2.0 / 3.0), 1e-2),
        Check("max fidelity rise in tau", float(np.max(np.diff(fid, axis=1))), 1e-12),
        Check("2/3 - min fidelity", 2.0 / 3.0 - float(np.min(fid)), 0.0),
        Check("max fidelity - 1", float(np.max(fid)) - 1.0, 1e-12),
        # rows run from narrow to broad pulses; a broader pulse never gains
        Check("max broader-pulse fidelity gain", float(np.max(fid[1:, 1:] - fid[:-1, 1:])), 1e-12),
    ], (
        f"cold factors at 1 within {tol_unit:.0e}; fidelity(tau=10, broad pulse) = "
        f"{hot:.4f}; curve monotone, bounded, and width-ordered on the grid"
    )


def _criterion_photoassisted_amplitudes() -> tuple[list[Check], str | None]:
    n_values = list(range(-5, 21))
    gaps, sum_gaps = [], []
    for gamma in (0.02, 0.05, 0.1):
        oracle = leviton.photoassist_spectrum_oracle(n_values, gamma)
        closed = np.array([leviton.photoassist_amplitude(n, gamma) for n in n_values])
        gaps.append(np.max(np.abs(oracle - closed)))
        sum_gaps.append(abs(leviton.photoassist_weight_sum(gamma) - 1.0))
    return [
        Check("max |closed - oracle|", float(np.max(gaps)), 1e-12),
        Check("max |sum - 1|", float(np.max(sum_gaps)), 1e-10),
    ], None


def _criterion_structural() -> tuple[list[Check], str | None]:
    tol = 1e-12
    points = _grid(
        np.linspace(0.0, 1.0, 5),
        np.linspace(0.0, 2.0 * math.pi, 5),
        np.linspace(0.0, 1.0, 3),
        np.linspace(0.0, math.pi, 3),
    )
    built = circuit.teleport_network("tomography", *points).matrix
    literal = reference_network_matrix(*points)
    worst_matrix = float(np.max(np.abs(built - literal)))
    povm_defect = protocol.povm_completeness_defect()
    data_dir = importlib.resources.files("eteleport").joinpath("data")
    corpus = sorted(entry.name for entry in data_dir.iterdir() if entry.name.endswith(".ckt"))
    if not corpus:
        raise ValueError("no .ckt file to round-trip through the parser")
    mismatches = 0
    for name in corpus:
        first = circuit.parse_circuit(data_dir.joinpath(name).read_text())
        mismatches += first != circuit.parse_circuit(circuit.format_circuit(first))
    return [
        Check("max network deviation", worst_matrix, tol),
        Check("POVM identity defect", povm_defect, tol),
        Check("parser round-trip mismatches", mismatches, 1),
    ], (
        f"max network deviation = {worst_matrix:.2e} (tol {tol:.0e}), POVM identity "
        f"defect = {povm_defect:.2e}, parser round-trip on {len(corpus)} files ok"
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
