"""The goldens: each README example command and `verify`, with the files its
output was recorded in, the runner that reproduces them in this process,
and the report a child process prints in each environment of ENVIRONMENTS.

Nothing here imports pytest, so an environment child starts with numpy
and the package alone; `test_golden` holds the tests that read the table.
"""

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

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
rounds, and its sums run left to right; the saw rows' means and standard
errors are Python float arithmetic on numpy's mean() and std(ddof=1) of
the squared draws, whose sums are np.add.reduce over the draws and over
one buffer of squared deviations.
"""


def unrecorded(probe: str) -> dict:
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
    its stdout file, and `unrecorded(probe)`."""
    report = {out_file: list(run(argv)) for argv, out_file, _ in CASES}
    return json.dumps(report | unrecorded(probe))
