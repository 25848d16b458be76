"""The README's example commands and `verify` reproduce their recorded outputs
byte for byte, in this process and in every environment of ENVIRONMENTS.

The files under tests/data/ were written by the CLI before the Fock engine
and the network builder were restructured; they are never regenerated to
make this test pass.  One declared re-record rewrote correlators.csv
(and verify.txt) once, when moments and the Fourier oracle stopped using
BLAS products, whose last digits depend on the host's BLAS kernel.
Another rewrote saw.csv and line 6 of verify.txt when the sampled input
states became one uniform draw each (a declared random-stream change).
ideal_off_readme.json pins `ideal` at a point away from the README
arguments, recorded when Bob's conditional states stopped taking their
norm from a BLAS product; every x86-64 OpenBLAS kernel prints it.
correlators_off_readme.json pins the tomography stage at the same point,
recorded when that stage became one launch at the three settings.
ideal_north_pole.csv pins `ideal` at R = 1, where the feed-forward's
corrected outcomes print the signed zeros -0.0 in bloch_x and bloch_y;
recorded while Bob's qubit was still stored as a density matrix, and
re-recorded once when Bob's Bloch components became unfused real products:
bloch_z of -+ and +- went 0.9999999999999999 -> 1.0, the digits that hosts
without FMA had printed all along.  One declared re-record moved last digits
and signed zeros of ideal.txt, ideal.json, ideal_off_readme.json,
ideal_north_pole.csv, correlators.csv and its stderr,
correlators_off_readme.json and verify.txt, when every exact observable
came to be read from one coefficient table in the input qubit and the
fidelity of two Bloch vectors became one less a quarter of a sum of
squares, which never exceeds 1.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eteleport import cli, leviton, protocol

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

# (arguments, recorded stdout, recorded stderr or None): every golden, each
# checked in process and in every environment of ENVIRONMENTS
CASES = [
    (("verify",), "verify.txt", None),
    (("ideal", "--R", "0.3", "--phi", "1.2"), "ideal.txt", None),
    (("ideal", "--R", "0.3", "--phi", "1.2", "--format", "json"), "ideal.json", None),
    (
        ("ideal", "--R", "0.12428327649956394", "--phi", "8.29174227940473", "--format", "json"),
        "ideal_off_readme.json",
        None,
    ),
    (("ideal", "--R", "1.0", "--phi", "0.3", "--format", "csv"), "ideal_north_pole.csv", None),
    (("correlators", "--R", "0.5", "--phi", "0.7"), "correlators.csv", "correlators.stderr"),
    (
        (
            "correlators", "--R", "0.12428327649956394", "--phi", "8.29174227940473",
            "--format", "json",
        ),
        "correlators_off_readme.json",
        "correlators_off_readme.stderr",
    ),
    (("leviton", "--gamma", "0.02,0.05,0.1", "--tau", "0:2:0.05"), "leviton.csv", None),
    (
        ("saw", "--sigma2", "0:2:0.25", "--n-states", "100000", "--seed", "12345"),
        "saw.csv",
        None,
    ),
    (("circuit-check", "src/eteleport/data/teleport.ckt"), "circuit_check.txt", None),
]


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """`cli.main(argv)` in this process, from the repo root (circuit-check
    echoes its path as given): the exit code, stdout and stderr."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def recorded(name: str | None) -> str:
    """A golden's text, read as bytes since the CSV writer ends rows with
    CRLF; no file is an empty stream."""
    return (DATA / name).read_bytes().decode() if name else ""


@pytest.mark.parametrize("argv, out_file, err_file", CASES, ids=[c[1] for c in CASES])
def test_readme_output_is_byte_identical(argv, out_file, err_file):
    assert run(argv) == (0, recorded(out_file), recorded(err_file))


def bloch_sweep() -> bytes:
    """Over a seeded sweep of 2000 (R, phi) points, as raw float64 bytes:
    Bob's conditional Bloch stacks for the four paired outcomes, the
    tomography Bloch vectors and the zero-temperature correlator tables at
    the three settings; then the same from the one-point calls at 200 of
    the points."""
    rng = np.random.default_rng(20261018)
    R = rng.random(2000)
    phi = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 2000)
    amps = protocol.premeasurement_amplitudes("detection", R, phi)
    stacks = [protocol.conditional_qubits(amps, x)[1] for x in protocol.PAIRED_OUTCOMES]
    stacks.append(protocol.tomography_bloch_grid(R, phi))
    stacks += [leviton.zero_T_correlators(R, phi, s).values for s in protocol.TOMO_SETTINGS]
    for r, p in zip(R[::10].tolist(), phi[::10].tolist()):
        params = protocol.TeleportParams(r, p)
        stacks += [protocol.bob_conditional(params, x).bloch for x in protocol.PAIRED_OUTCOMES]
        stacks.append(protocol.tomography_bloch(params))
        stacks += [leviton.zero_T_correlators(r, p, s).values for s in protocol.TOMO_SETTINGS]
    return b"".join(stack.tobytes() for stack in stacks)


def tomography_digest() -> str:
    """SHA-256 of the tomography stage's amplitudes over 2000 seeded (R, phi)
    points: the X row's are complex products, which numpy's SIMD complex
    multiply would fuse on hosts with FMA."""
    rng = np.random.default_rng(20261020)
    R, phi = rng.random(2000), rng.uniform(-10.0, 10.0, 2000)
    amps = protocol.premeasurement_amplitudes("tomography", R, phi)
    return hashlib.sha256(amps.tobytes()).hexdigest()


def dispatched_groups() -> str:
    """numpy's dispatched SIMD groups that this host has, space-separated:
    the groups NPY_DISABLE_CPU_FEATURES may name."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(group for group in __cpu_dispatch__ if __cpu_features__.get(group))


# A circuit whose printed unitarity defect differed between OpenBLAS's
# SkylakeX and Prescott kernels while it came from a BLAS product.
PROBE_CIRCUIT = """modes a b c d e f
prep d e R=0.4275923056694029 phi=-2.6019396147249187
phase c value=-2.803262043908447
prep f b R=0.08185501079576984 phi=-2.7965123403612457
"""

ENVIRONMENTS = {
    "OPENBLAS_CORETYPE=Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy dispatch off": {"NPY_DISABLE_CPU_FEATURES": dispatched_groups()},
}
"""The variables of each environment a child process runs the goldens in;
every other variable, the BLAS kernel included, is this process's.

Prescott is OpenBLAS' oldest x86-64 kernel, so any x86-64 host runs it.

The other child disables every SIMD group numpy dispatches to on this
host (a group the host lacks is never dispatched to).  No printed byte
depends on numpy's dispatch: the thermal series behind the fidelity curve
is scalar Python arithmetic and libm calls; every exact observable is read
from one coefficient table, built once from the stages' rows with unfused
complex products and left-to-right sums (np.add.accumulate), and evaluated
at a point as real products added in a fixed order; the amplitude route's
|amplitude|^2 squares libm's hypot (np.hypot, never np.abs of a complex),
its Bloch components are real products that no fused complex multiply
rounds, and its sums run left to right; the saw rows' fidelities are built
in place, and their means and spreads come from one sum and one deviation
buffer (saw._mean_std).
"""


def _unrecorded(probe: str) -> dict:
    """The checks with no golden file, as this process makes them: the
    circuit check of the probe file, and the SHA-256 of `bloch_sweep()`
    and of the tomography stage."""
    return {
        "probe": list(run(("circuit-check", probe))),
        "bloch_sweep": hashlib.sha256(bloch_sweep()).hexdigest(),
        "tomography_digest": tomography_digest(),
    }


def environment_report(probe: str) -> str:
    """What a child prints, as JSON: `run` of every row of CASES, keyed by
    its stdout file, and `_unrecorded(probe)`."""
    report = {out_file: list(run(argv)) for argv, out_file, _ in CASES}
    return json.dumps(report | _unrecorded(probe))


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels"
)
def test_output_does_not_depend_on_the_environment(tmp_path):
    # one child per environment, started at once; each runs every check in
    # process, and must print this process's report with the goldens as
    # recorded
    probe = tmp_path / "probe.ckt"
    probe.write_text(PROBE_CIRCUIT)
    path = [str(REPO / "src"), str(REPO / "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = "import sys, test_golden as g; sys.stdout.write(g.environment_report(sys.argv[1]))"
    children = {
        name: subprocess.Popen(
            [sys.executable, "-W", "error", "-c", script, str(probe)],
            cwd=REPO, env=env | variables, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for name, variables in ENVIRONMENTS.items()
    }
    try:
        want = {out: [0, recorded(out), recorded(err)] for _, out, err in CASES}
        want |= _unrecorded(str(probe))
        # the children are held to this process's probe check, so it must
        # pass here: a rejected probe would print the same error everywhere
        code, _, err = want["probe"]
        assert code == 0 and err == "", err
        for name, child in children.items():
            out, err = child.communicate(timeout=60)
            assert child.returncode == 0 and err == b"", (name, err.decode())
            report = json.loads(out)
            for check, value in want.items():
                assert report[check] == value, f"{name}: {check}"
    finally:
        for child in children.values():
            child.kill()
            child.wait()
            # a failed assert leaves the other child's pipes open, and its
            # ResourceWarnings would fail whichever test collects them
            child.stdout.close()
            child.stderr.close()
