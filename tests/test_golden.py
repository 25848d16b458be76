"""The README's example commands reproduce their recorded outputs byte for byte.

The files under tests/data/ were written by the CLI before the Fock engine
and the network builder were restructured; they are never regenerated to
make this test pass.
"""

from pathlib import Path

import pytest

from eteleport import cli

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"

CASES = [
    (("ideal", "--R", "0.3", "--phi", "1.2"), "ideal.txt", None),
    (("ideal", "--R", "0.3", "--phi", "1.2", "--format", "json"), "ideal.json", None),
    (("correlators", "--R", "0.5", "--phi", "0.7"), "correlators.csv", "correlators.stderr"),
    (("leviton", "--gamma", "0.02,0.05,0.1", "--tau", "0:2:0.05"), "leviton.csv", None),
    (
        ("saw", "--sigma2", "0:2:0.25", "--n-states", "100000", "--seed", "12345"),
        "saw.csv",
        None,
    ),
    (("circuit-check", "src/eteleport/data/teleport.ckt"), "circuit_check.txt", None),
]


@pytest.mark.parametrize("argv, out_file, err_file", CASES, ids=[c[1] for c in CASES])
def test_readme_output_is_byte_identical(argv, out_file, err_file, capsys, monkeypatch):
    monkeypatch.chdir(REPO)  # circuit-check echoes the path as given
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    # read as bytes: the CSV writer ends rows with \r\n
    assert captured.out == (DATA / out_file).read_bytes().decode()
    expected_err = (DATA / err_file).read_bytes().decode() if err_file else ""
    assert captured.err == expected_err
