"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs one operation
per input (closed loop, one caller), and checks the operation's outputs
against the repository's independent references.  ``check`` returns how
many of the operation's ``units`` failed; a failed unit never counts as a
fast operation.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import speed

from eteleport import acceptance, circuit, leviton, protocol, saw

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json")) as _handle:
    SPEC = json.load(_handle)


class SeededStream:
    """Inputs drawn chunk by chunk from one generator seeded with the workload seed.

    Input i is the same for a given seed however many inputs a run uses.
    """

    def __init__(self, seed: int, chunk: int, draw) -> None:
        self._rng = np.random.default_rng(seed)
        self._chunk = chunk
        self._draw = draw
        self._items: list = []
        self._grow()

    def _grow(self) -> None:
        self._items.extend(self._draw(self._rng, self._chunk))

    def __getitem__(self, i: int):
        while i >= len(self._items):
            self._grow()
        return self._items[i]


class Same:
    """The one input of a workload whose every operation is the same."""

    def __init__(self, value) -> None:
        self.value = value

    def __getitem__(self, i: int):
        return self.value


def _uniform(rng, bounds, size):
    return rng.uniform(bounds[0], bounds[1], size)


class Workload:
    """Defaults: one unit checked and one item counted per operation, no
    warm-up, and the peak RSS of this process."""

    warmup_ops = 0
    units = 1
    items = 1

    def peak_rss_kb(self, inputs) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    units = len(acceptance.ALL_CRITERIA)
    items = units

    def build(self, seed: int, workdir: str):
        return Same(None)

    def run(self, inp, recorder=None):
        return acceptance.run_all()

    def check(self, inp, results) -> int:
        return sum(not r.passed for r in results) + max(0, self.units - len(results))


# ---------------------------------------------------------------------------
# exact_sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPoint:
    R: float
    phi: float
    gamma: float
    tau: float
    arms: tuple[float, ...]


def _input_bloch(R: float, phi: float) -> np.ndarray:
    root = 2.0 * math.sqrt(R * (1.0 - R))
    return np.array([root * math.sin(phi), -root * math.cos(phi), 2.0 * R - 1.0])


def _fidelity(r: np.ndarray, s: np.ndarray) -> float:
    mixed = max(0.0, (1.0 - float(r @ r)) * (1.0 - float(s @ s)))
    return 0.5 * (1.0 + float(r @ s) + math.sqrt(mixed))


class ExactSweep(Workload):
    name = "exact_sweep"
    spec = SPEC["workloads"]["exact_sweep"]
    warmup_ops = spec["warmup_ops"]

    def build(self, seed: int, workdir: str):
        ranges = self.spec["ranges"]
        n_arms = len(circuit.ARM_WIRES)

        def draw(rng, n):
            R = _uniform(rng, ranges["R"], n)
            phi = _uniform(rng, ranges["phi"], n)
            gamma = _uniform(rng, ranges["gamma"], n)
            tau = _uniform(rng, ranges["tau"], n)
            arms = _uniform(rng, ranges["arm_phase"], (n, n_arms))
            return [
                ExactPoint(float(R[k]), float(phi[k]), float(gamma[k]), float(tau[k]),
                           tuple(float(a) for a in arms[k]))
                for k in range(n)
            ]

        return SeededStream(seed, self.spec["chunk"], draw)

    def run(self, p: ExactPoint, recorder=None):
        params = protocol.TeleportParams(p.R, p.phi)
        state = protocol.run_premeasurement(params)
        probs = {x: protocol.povm_element(x).expectation(state) for x in protocol.ALL_OUTCOMES}
        corrected = [
            protocol.apply_feedforward(protocol.bob_conditional(params, x), x)
            for x in protocol.PAIRED_OUTCOMES
        ]
        tomo = protocol.tomography_bloch(params)
        tables = {s: leviton.zero_T_correlators(p.R, p.phi, s) for s in "XYZ"}
        factors = leviton.thermal_factors(leviton.LevitonParams(p.gamma, p.tau))
        scaled = {
            s: leviton.finite_T_correlators(t, factors.pair, factors.triple)
            for s, t in tables.items()
        }
        bloch_t, _ = leviton.reconstructed_bloch(scaled)
        arms = dict(zip(circuit.ARM_WIRES, p.arms))
        slow = protocol.conditional_with_arm_phases(params, arms)
        return probs, corrected, tomo, tables, factors, bloch_t, arms, slow

    def check(self, p: ExactPoint, out) -> int:
        probs, corrected, tomo, tables, factors, bloch_t, arms, (p_slow, q_slow) = out
        reference = _input_bloch(p.R, p.phi)
        paired = [probs[x] for x in protocol.PAIRED_OUTCOMES]
        damped = reference * np.array([factors.damping, factors.damping, 1.0])
        expected_slow = saw.fixed_phase_state(
            protocol.TeleportParams(p.R, p.phi), saw.combined_phase(arms)
        )
        ok = (
            len(probs) == 16
            and all(abs(q - 1.0 / 16.0) <= 1e-12 for q in paired)
            and abs(sum(probs.values()) - 1.0) <= 1e-12
            and all(abs(_fidelity(q.bloch, reference) - 1.0) <= 1e-10 for q in corrected)
            and float(np.max(np.abs(tomo - reference))) <= 1e-10
            and all(
                tables[s].max_deviation(leviton.reference_correlators(p.R, p.phi, s)) <= 1e-10
                for s in "XYZ"
            )
            and float(np.max(np.abs(bloch_t - damped))) <= 1e-10
            and abs(p_slow - 1.0 / 16.0) <= 1e-12
            and float(np.max(np.abs(q_slow.rho - expected_slow.rho))) <= 1e-10
        )
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# mc_dephasing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCCall:
    R: float
    phi: float
    variances: tuple[float, ...]
    seed: int


class MCDephasing(Workload):
    name = "mc_dephasing"
    spec = SPEC["workloads"]["mc_dephasing"]
    n_samples = spec["n_samples"]
    items = 2 * n_samples

    def build(self, seed: int, workdir: str):
        ranges = self.spec["ranges"]
        n_arms = len(circuit.ARM_WIRES)

        def draw(rng, n):
            R = _uniform(rng, ranges["R"], n)
            phi = _uniform(rng, ranges["phi"], n)
            total = _uniform(rng, ranges["sigma2_total"], n)
            share = rng.random((n, n_arms))
            share /= share.sum(axis=1, keepdims=True)
            lo, hi = ranges["mc_seed"]
            seeds = rng.integers(lo, hi, n, endpoint=True)
            return [
                MCCall(float(R[k]), float(phi[k]),
                       tuple(float(v) for v in total[k] * share[k]), int(seeds[k]))
                for k in range(n)
            ]

        return SeededStream(seed, self.spec["chunk"], draw)

    def run(self, c: MCCall, recorder=None):
        params = protocol.TeleportParams(c.R, c.phi)
        deph = saw.DephasingParams(c.variances)
        state = saw.dephased_state_montecarlo(params, deph, self.n_samples, c.seed)
        clicks = saw.montecarlo_click_probabilities(params, deph, self.n_samples, c.seed)
        return state, clicks

    def check(self, c: MCCall, out) -> int:
        state, clicks = out
        n = self.n_samples
        sigma2 = math.fsum(c.variances)
        analytic = saw.dephased_state_analytic(protocol.TeleportParams(c.R, c.phi), sigma2)
        damping = math.exp(-sigma2 / 2.0)
        # per draw the coherence is c0 * exp(-i Phi) with Phi ~ N(0, sigma2);
        # these are the variances of cos Phi and sin Phi
        var_cos = max(0.0, 0.5 * (1.0 + math.exp(-2.0 * sigma2)) - math.exp(-sigma2))
        var_sin = max(0.0, 0.5 * (1.0 - math.exp(-2.0 * sigma2)))
        z = complex(state.rho[0, 1]) / (complex(analytic.rho[0, 1]) / damping)
        ok = (
            len(clicks) == n
            and float(np.max(np.abs(clicks - 1.0 / 16.0))) <= 1e-12
            and abs(z.real - damping) <= 6.0 * math.sqrt(var_cos / n) + 1e-9
            and abs(z.imag) <= 6.0 * math.sqrt(var_sin / n) + 1e-9
        )
        return 0 if ok else 1


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------


class CliInputs:
    """Commands, child environment and the run's reference outputs."""

    def __init__(self, commands: dict[str, list[str]], env: dict[str, str], workdir: str):
        self.commands = commands
        self.env = env
        self.workdir = workdir
        self.reference: dict[str, bytes] = {}
        self.peak_rss_kb = 0


def _spawn(argv: list[str], env: dict[str, str], workdir: str, name: str):
    """Run one child to completion; return (exit code, output bytes).

    The output is stdout, stderr and the file named by --output, if any.
    """
    out_path = os.path.join(workdir, f"{name}.out")
    err_path = os.path.join(workdir, f"{name}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err, speed.held():
        code = subprocess.run(argv, stdout=out, stderr=err, env=env, timeout=120).returncode
    paths = [out_path, err_path]
    if "--output" in argv:
        paths.append(argv[argv.index("--output") + 1])
    produced = []
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                produced.append(handle.read())
    return code, b"\0".join(produced)


def _read_report(path: str) -> dict:
    if not os.path.exists(path):
        return {"peak_rss_kb": 0, "spans": []}
    with open(path) as handle:
        return json.load(handle)


class CliReadme(Workload):
    name = "cli_readme"
    spec = SPEC["workloads"]["cli_readme"]
    units = len(spec["commands"])
    items = units
    child = os.path.join(HERE, "cli_child.py")

    def build(self, seed: int, workdir: str):
        commands = {
            name: [a.replace("{tmp}", workdir) for a in argv]
            for name, argv in self.spec["commands"].items()
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["ETELEPORT_SEED"] = str(seed)
        return Same(CliInputs(commands, env, workdir))

    def run(self, inp: CliInputs, recorder=None):
        results = {}
        for name, argv in inp.commands.items():
            report = os.path.join(inp.workdir, f"{name}.report.json")
            if os.path.exists(report):
                os.remove(report)
            command = [sys.executable, self.child, report, "0" if recorder is None else "1", *argv]
            if recorder is None:
                code, produced = _spawn(command, inp.env, inp.workdir, name)
            else:
                parent = len(recorder.spans)
                code, produced = recorder.span(
                    f"cli.{name}", _spawn, command, inp.env, inp.workdir, name
                )
            done = _read_report(report)
            if recorder is not None:
                recorder.adopt(done["spans"], parent)
            results[name] = (code, done["peak_rss_kb"], produced)
        return results

    def check(self, inp: CliInputs, results) -> int:
        failed = 0
        for name in inp.commands:
            code, rss_kb, produced = results[name]
            inp.peak_rss_kb = max(inp.peak_rss_kb, rss_kb)
            reference = inp.reference.setdefault(name, produced)
            if code != 0 or produced != reference:
                failed += 1
        return failed

    def peak_rss_kb(self, inputs) -> int:
        return inputs[0].peak_rss_kb


WORKLOADS = {w.name: w for w in (Verify(), ExactSweep(), MCDephasing(), CliReadme())}
