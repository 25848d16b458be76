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
squares, which never exceeds 1.  One declared re-record moved saw.csv
alone, each value by one ulp, when every sigma2's sampled fidelity came
to be read from one mean and one spread of the squared draws (the
fidelity is affine in them): fidelity_sampled at sigma2 0.25
0.9608775220157878 -> 0.9608775220157879, 0.5 0.9263520563732868 ->
0.9263520563732869, 0.75 0.8958834398834886 -> 0.8958834398834887, 1.0
0.8689949802052039 -> 0.8689949802052038, 1.5 0.8243252443708148 ->
0.8243252443708147; stderr at 0.75 0.00014799382084750357 ->
0.0001479938208475036, 1.0 0.00018621373399139104 ->
0.00018621373399139106.

The table itself, its runner and the environment children's report live
in golden_table, which does not import pytest.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

from golden_table import CASES, ENVIRONMENTS, PROBE_CIRCUIT, REPO, recorded, run, unrecorded


@pytest.mark.parametrize("argv, out_file, err_file", CASES, ids=[c[1] for c in CASES])
def test_readme_output_is_byte_identical(argv, out_file, err_file):
    assert run(argv) == (0, recorded(out_file), recorded(err_file))


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
    script = "import sys, golden_table as g; sys.stdout.write(g.environment_report(sys.argv[1]))"
    children = {
        name: subprocess.Popen(
            [sys.executable, "-W", "error", "-c", script, str(probe)],
            cwd=REPO, env=env | variables, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for name, variables in ENVIRONMENTS.items()
    }
    try:
        want = {out: [0, recorded(out), recorded(err)] for _, out, err in CASES}
        want |= unrecorded(str(probe))
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
