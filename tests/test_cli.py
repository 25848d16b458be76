import csv
import io
import json
from pathlib import Path

import pytest

from eteleport import acceptance, cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- grid parsing ---

def test_parse_grid_range():
    assert cli.parse_grid("0:2:0.5") == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])


def test_parse_grid_endpoint_within_half_step():
    assert cli.parse_grid("0:1.99:0.5")[-1] == pytest.approx(2.0)
    assert len(cli.parse_grid("0:1.99:0.5")) == 5


def test_parse_grid_list():
    assert cli.parse_grid("0.02,0.05,0.1") == [0.02, 0.05, 0.1]


def test_parse_grid_errors():
    for bad, message in (("1:2", "start:stop:step"), ("0:1:-0.5", "step must be positive"),
                         ("a,b", "non-numeric value"), ("", "empty value list"),
                         ("1:x:0.1", "non-numeric grid bound"), ("1:0:0.1", "empty grid '1:0")):
        with pytest.raises(cli.UsageError, match=message):
            cli.parse_grid(bad)


def test_parse_grid_caps_the_point_count():
    assert len(cli.parse_grid("0:99999:1")) == 100_000
    # refused before the list is built: 100 001 points, and 10^12 + 1
    for too_many in ("0:100000:1", "0:1e12:1"):
        with pytest.raises(cli.UsageError, match="more than 100000 points"):
            cli.parse_grid(too_many)


# --- ideal ---

def test_ideal_text_report(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ideal", "--R", "0.5", "--phi", "0")
    assert code == 0
    assert "p(++) = 0.0625" in out
    assert "efficiency with_feedforward = 0.25" in out
    assert "efficiency without_feedforward = 0.125" in out
    # written to a file, the report has the bytes it prints
    path = tmp_path / "ideal.txt"
    argv = ("ideal", "--R", "0.3", "--phi", "1.2", "--output", str(path))
    assert run_cli(capsys, *argv) == (0, "", "")
    assert path.read_bytes() == (Path(__file__).parent / "data" / "ideal.txt").read_bytes()


def test_ideal_json_fidelity_field(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--R", "0.3", "--phi", "1.2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    pp = next(r for r in rows if r["record"] == "outcome" and r["key"] == "++")
    assert pp["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert pp["probability"] == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_ideal_north_pole_bloch(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--R", "1.0", "--phi", "0",
                           "--format", "json")
    assert code == 0
    pp = next(r for r in json.loads(out)
              if r["record"] == "outcome" and r["key"] == "++")
    assert pp["bloch_x"] == pytest.approx(0.0, abs=1e-12)
    assert pp["bloch_y"] == pytest.approx(0.0, abs=1e-12)
    assert pp["bloch_z"] == pytest.approx(1.0, abs=1e-12)


def test_ideal_csv_and_json_carry_identical_numbers(capsys):
    _, csv_text, _ = run_cli(capsys, "ideal", "--R", "0.3", "--phi", "1.2",
                             "--format", "csv")
    _, json_text, _ = run_cli(capsys, "ideal", "--R", "0.3", "--phi", "1.2",
                              "--format", "json")
    numeric = ("probability", "bloch_x", "bloch_y", "bloch_z", "fidelity")
    csv_numbers = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        for field in numeric:
            if row[field] != "":
                csv_numbers.append(float(row[field]))
    json_numbers = []
    for row in json.loads(json_text):
        for field in numeric:
            if row[field] is not None:
                json_numbers.append(row[field])
    assert sorted(csv_numbers) == sorted(json_numbers)


def test_ideal_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "ideal", "--R", "1.5")
    assert code == 2
    assert "error" in err


# --- saw ---

def test_saw_zero_noise_row(capsys):
    code, out, _ = run_cli(capsys, "saw", "--sigma2", "0", "--n-states", "1000")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert float(row["fidelity_analytic"]) == 1.0
    assert float(row["fidelity_sampled"]) == 1.0


def test_saw_outputs_are_reproducible(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        code, _, _ = run_cli(
            capsys, "saw", "--sigma2", "0.5,1", "--n-states", "2000",
            "--seed", seed, "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_saw_seed_from_environment(capsys, tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.csv"
    run_cli(capsys, "saw", "--sigma2", "1", "--n-states", "500",
            "--seed", "4242", "--output", str(explicit))
    monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
    env_based = tmp_path / "env.csv"
    run_cli(capsys, "saw", "--sigma2", "1", "--n-states", "500",
            "--output", str(env_based))
    assert explicit.read_bytes() == env_based.read_bytes()
    monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
    message = f"error: {cli.SEED_ENV_VAR} must be an integer, got 'abc'\n"
    assert run_cli(capsys, "saw", "--n-states", "10") == (2, "", message)


def test_saw_rejects_a_negative_seed(capsys, monkeypatch):
    # in the library's words, from the option and from the environment
    message = "error: seed must be at least 0, got -1\n"
    assert run_cli(capsys, "saw", "--n-states", "10", "--seed", "-1") == (2, "", message)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    assert run_cli(capsys, "saw", "--n-states", "10") == (2, "", message)


def test_saw_rejects_negative_variance(capsys):
    code, _, err = run_cli(capsys, "saw", "--sigma2", "-1")
    assert code == 2
    assert "sigma2" in err


# --- leviton ---

def test_leviton_fidelity_columns_non_increasing(capsys):
    code, out, _ = run_cli(capsys, "leviton", "--gamma", "0.05,0.1",
                           "--tau", "0:1:0.25")
    assert code == 0
    columns = {}
    for row in csv.DictReader(io.StringIO(out)):
        columns.setdefault(row["gamma"], []).append(float(row["fidelity"]))
    assert set(columns) == {"0.05", "0.1"}
    for fid in columns.values():
        assert all(b <= a + 1e-12 for a, b in zip(fid, fid[1:]))


def test_leviton_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "leviton", "--gamma", "0.05", "--tau", "0,1",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_leviton_rejects_bad_gamma(capsys):
    code, _, _ = run_cli(capsys, "leviton", "--gamma", "0,-1")
    assert code == 2


# --- correlators ---

def test_correlators_summary_line(capsys):
    code, out, err = run_cli(capsys, "correlators", "--R", "0.5", "--phi", "0.7")
    assert code == 0
    assert "max deviation < 1e-10" in err
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert len(rows) == 3 * 20
    assert all(float(r["abs_error"]) < 1e-10 for r in rows)
    assert any("[e^3/T]" in r["quantity"] for r in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--R", "2"), "reflection probability R must lie in [0, 1], got 2.0"),
        (("--phi", "inf"), "input-qubit phase phi must be finite, got inf"),
    ],
    ids=["R=2", "phi=inf"],
)
def test_correlators_names_the_rejected_value(capsys, argv, message):
    # the value as `ideal` reports it, not the one-element array the
    # tomography stage launches
    code, out, err = run_cli(capsys, "correlators", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# --- circuit-check ---

def test_circuit_check_reports_unitarity(capsys, tmp_path):
    path = tmp_path / "ok.ckt"
    path.write_text("modes a b\nsym a b\nphase a value=0.3\n")
    code, out, _ = run_cli(capsys, "circuit-check", str(path))
    assert code == 0
    assert "2 modes, 2 elements" in out
    assert "unitarity defect" in out


SHIPPED_CIRCUITS = sorted((Path(cli.__file__).parent / "data").glob("*.ckt"))


@pytest.mark.parametrize("path", SHIPPED_CIRCUITS, ids=lambda path: path.name)
def test_circuit_check_passes_every_shipped_circuit(capsys, path):
    code, out, _ = run_cli(capsys, "circuit-check", str(path))
    assert code == 0
    assert float(out.rsplit("unitarity defect", 1)[1]) < 1e-12


def test_circuit_check_reports_syntax_position(capsys, tmp_path):
    path = tmp_path / "bad.ckt"
    path.write_text("modes a b\nsym a q\n")
    code, _, err = run_cli(capsys, "circuit-check", str(path))
    assert code == 2
    assert "line 2" in err


def test_circuit_check_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "circuit-check", str(tmp_path / "none.ckt"))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("text", ["Unable to allocate 7.45 GiB for an array", ""])
def test_a_failed_allocation_is_an_input_error(capsys, monkeypatch, text):
    # one error line and exit 2, never a traceback (the draw raises, nothing
    # is allocated); a bare MemoryError reads "out of memory"
    def no_memory(seed):
        raise MemoryError(text)

    monkeypatch.setattr("numpy.random.default_rng", no_memory)
    argv = ("saw", "--sigma2", "0", "--n-states", "1000000000")
    assert run_cli(capsys, *argv) == (2, "", f"error: {text or 'out of memory'}\n")


# --- verify ---

def _stub_criterion(number, name, passed):
    check = acceptance.Check("stubbed gap", 0.0 if passed else 2.0, 1.0)
    return acceptance.Criterion(number, name, lambda: ([check], None))


def test_verify_reports_each_criterion(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA",
        (_stub_criterion(1, "alpha", True), _stub_criterion(2, "beta", True)),
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS  criterion  1  alpha" in out
    assert "2/2 criteria passed" in out


def test_verify_fails_on_any_criterion(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA",
        (_stub_criterion(1, "alpha", True), _stub_criterion(2, "beta", False)),
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL  criterion  2  beta" in out
