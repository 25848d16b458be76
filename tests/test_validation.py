"""Non-finite and out-of-range input: rejected at construction, and on the
command line with exit code 2 and a one-line message."""

import math

import numpy as np
import pytest

from eteleport import cli
from eteleport.circuit import ElementSpec, PHASE_SHIFT, PREP_SPLITTER
from eteleport.fock import ModeRegistry, SingleParticleUnitary
from eteleport.leviton import LevitonParams
from eteleport.protocol import TeleportParams
from eteleport.saw import DephasingParams

NAN, INF = math.nan, math.inf
ONE_MODE = ModeRegistry(("a",))


NON_FINITE = {
    "R=nan": lambda: TeleportParams(NAN, 0.0),
    "phi=inf": lambda: TeleportParams(0.5, INF),
    "phi=nan": lambda: TeleportParams(0.5, NAN),
    "gamma=inf": lambda: LevitonParams(INF, 0.1),
    "gamma=nan": lambda: LevitonParams(NAN, 0.1),
    "tau=inf": lambda: LevitonParams(0.05, INF),
    "tau=nan": lambda: LevitonParams(0.05, NAN),
    "series_tol=nan": lambda: LevitonParams(0.05, 0.1, series_tol=NAN),
    "variance=nan": lambda: DephasingParams((NAN, 0.0, 0.0, 0.0, 0.0, 0.0)),
    "variance=inf": lambda: DephasingParams((0.0, 0.0, 0.0, 0.0, 0.0, INF)),
    "prep phi=nan": lambda: ElementSpec(PREP_SPLITTER, ("a", "b"), reflection=0.3, phi=NAN),
    "phase value=inf": lambda: ElementSpec(PHASE_SHIFT, ("a",), value=INF),
    "unitary nan": lambda: SingleParticleUnitary(np.array([[NAN]]), ONE_MODE, ONE_MODE),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_constructor_rejects_non_finite(build):
    with pytest.raises(ValueError):
        build()


BAD_ARGUMENTS = [
    ("leviton", "--tau", "inf"),
    ("leviton", "--tau", "nan"),
    ("leviton", "--gamma", "inf"),
    ("leviton", "--tau", "0:inf:0.5"),
    ("saw", "--sigma2", "nan"),
    ("saw", "--n-states", "0"),
    ("saw", "--n-states", "1"),
    ("ideal", "--phi", "inf"),
    ("ideal", "--R", "nan"),
    ("correlators", "--phi", "nan"),
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_cli_rejects_bad_input_with_one_line(argv, capsys):
    assert cli.main(list(argv)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["prep a b R=0.3 phi=nan", "phase a value=inf"])
def test_circuit_check_rejects_non_finite_parameters(line, tmp_path, capsys):
    path = tmp_path / "bad.ckt"
    path.write_text(f"modes a b\n{line}\n")
    assert cli.main(["circuit-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "line 2" in captured.err
