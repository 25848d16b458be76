"""Non-finite and out-of-range input: rejected at construction, and on the
command line with exit code 2 and a one-line message."""

import math
import re

import numpy as np
import pytest

from eteleport import circuit, cli, leviton, protocol, saw
from eteleport.circuit import ElementSpec, prep_splitter
from eteleport.fock import ModeRegistry, SingleParticleUnitary
from eteleport.leviton import LevitonParams
from eteleport.protocol import (
    MeasurementOutcome,
    QubitState,
    TeleportParams,
    conditional_qubits,
    jozsa_fidelity,
)
from eteleport.saw import DephasingParams

NAN, INF = math.nan, math.inf
ONE_MODE = ModeRegistry(("a",))
PP = MeasurementOutcome.from_signs("+", "+")


NON_FINITE = {
    "R=nan": lambda: TeleportParams(NAN, 0.0),
    "phi=inf": lambda: TeleportParams(0.5, INF),
    "phi=nan": lambda: TeleportParams(0.5, NAN),
    "gamma=inf": lambda: LevitonParams(INF, 0.1),
    "gamma=nan": lambda: LevitonParams(NAN, 0.1),
    "gamma=100": lambda: LevitonParams(100, 0.1),
    "tau=inf": lambda: LevitonParams(0.05, INF),
    "tau=nan": lambda: LevitonParams(0.05, NAN),
    "series_tol=nan": lambda: LevitonParams(0.05, 0.1, series_tol=NAN),
    "variance=nan": lambda: DephasingParams((NAN, 0.0, 0.0, 0.0, 0.0, 0.0)),
    "variance=inf": lambda: DephasingParams((0.0, 0.0, 0.0, 0.0, 0.0, INF)),
    'variance "0.1"': lambda: DephasingParams(("0.1", 0.0, 0.0, 0.0, 0.0, 0.0)),
    "variance None": lambda: DephasingParams((None, 0.0, 0.0, 0.0, 0.0, 0.0)),
    "variances bare number": lambda: DephasingParams(0.5),
    "variances None": lambda: DephasingParams(None),
    "variances five": lambda: DephasingParams((0.1,) * 5),
    "prep phi=nan": lambda: ElementSpec("prep", ("a", "b"), (0.3, NAN)),
    "phase value=inf": lambda: ElementSpec("phase", ("a",), (INF,)),
    "unitary nan": lambda: SingleParticleUnitary(np.array([[NAN]]), ONE_MODE, ONE_MODE),
    "unitary stack nan": lambda: SingleParticleUnitary(
        np.array([[[1.0]], [[NAN]]]), ONE_MODE, ONE_MODE
    ),
    "prep reflection grid nan": lambda: ElementSpec(
        "prep", ("a", "b"), (np.array([0.3, NAN]), 0.0)
    ),
    "qubit rho nan": lambda: QubitState([NAN, NAN, NAN]),
    "qubit rho one nan": lambda: QubitState([NAN, 0.0, 0.0]),
    "qubit pure nan": lambda: conditional_qubits(np.full((1, 20), NAN, dtype=complex), PP),
    "qubit pure zero": lambda: conditional_qubits(np.zeros((1, 20), dtype=complex), PP),
    "outcome bit 1.5": lambda: MeasurementOutcome((1.5, 0, 0, 0)),
    "outcome bit inf": lambda: MeasurementOutcome((INF, 0, 0, 0)),
    'outcome bit "1"': lambda: MeasurementOutcome(("1", 0, 0, 0)),
    "outcome bits None": lambda: MeasurementOutcome(None),
    'outcome signs ["+"]': lambda: MeasurementOutcome.from_signs(["+"], "+"),
    'correlator setting ["X"]': lambda: leviton.CorrelatorTable(["X"], np.zeros(20)),
    'zero-T setting ["X"]': lambda: leviton.zero_T_correlators(0.3, 1.0, ["X"]),
    'mode label ["a"]': lambda: ModeRegistry((["a"], "b")),
    'R "0.5"': lambda: TeleportParams("0.5", 0.0),
    "R None": lambda: TeleportParams(None, 0.0),
    "R array": lambda: TeleportParams(np.array([0.3, 0.4]), 0.0),
    'gamma "0.1"': lambda: LevitonParams("0.1", 0.1),
    "tau None": lambda: LevitonParams(0.1, None),
    'prep R "0.3"': lambda: ElementSpec("prep", ("a", "b"), ("0.3", 0.0)),
    "prep R complex": lambda: ElementSpec("prep", ("a", "b"), (0.3 + 0j, 0.0)),
    "R True, phi False": lambda: TeleportParams(True, False),
    "qubit bloch booleans": lambda: QubitState([True, False, False]),
    "variances booleans": lambda: DephasingParams((True,) * 6),
    "tau False": lambda: LevitonParams(0.05, False),
    "prep R boolean array": lambda: prep_splitter("a", "b", np.array([True]), 0.0),
    "jozsa bloch nan": lambda: jozsa_fidelity([NAN, 0, 0], [0, 0, 1]),
    "jozsa second bloch nan": lambda: jozsa_fidelity([0, 0, 1], [NAN, 0, 0]),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_constructor_rejects_non_finite(build):
    with pytest.raises(ValueError):
        build()


# arms a fixed-phase state rejects -> the words of its error
BAD_ARMS = {
    "unknown arm": ({"Q7": 0.1}, "unknown dephasing arms ['Q7']"),
    "inf": ({"A0": INF}, "value must be finite and real, got inf"),
    "nan": ({"B1p": NAN}, "value must be finite and real, got nan"),
    "complex": ({"A0": 0.1j}, "value must be finite and real, got 0.1j"),
    "bool": ({"A0": True}, "value must be finite and real, got True"),
    "string": ({"A0": "0.1"}, "value must be finite and real, got '0.1'"),
    "None": ({"A0": None}, "value must be finite and real, got None"),
    # finite reals, as a grid launch takes them, but not one phase
    "array": ({"A0": np.array([0.1, 0.2])}, "arm phase A0 must be finite and real, got array("),
}


@pytest.mark.parametrize("arms, words", BAD_ARMS.values(), ids=BAD_ARMS.keys())
def test_fixed_arm_phases_rejected_before_any_launch(monkeypatch, arms, words):
    # with no stage rows and no coefficient table, a check made after the
    # state would compose the tomography stage's network
    protocol._form_rows.cache_clear()
    protocol._table.cache_clear()
    compose, calls = circuit.compose, []
    monkeypatch.setattr(circuit, "compose", lambda d: calls.append(d) or compose(d))
    with pytest.raises(ValueError, match=re.escape(words)):
        protocol.conditional_with_arm_phases(TeleportParams(0.3, 1.2), {"A1": 0.2, **arms})
    assert calls == []


@pytest.mark.parametrize("stage", ["detection", "tomography"])
def test_arm_phase_reported_as_given(stage):
    # the six-mode network with phase elements, the tests' reference for
    # fixed arm phases, prints the value at either stage
    with pytest.raises(ValueError, match=r"value must be finite and real, got inf$"):
        circuit.teleport_network(stage, 0.3, 1.2, arm_phases={"A0": INF})


SIGMA2_FUNCTIONS = {
    "average_fidelity": saw.average_fidelity,
    "dephased_state_analytic": lambda s: saw.dephased_state_analytic(TeleportParams(0.3, 1.2), s),
    "sampled_fidelity": lambda s: saw.sampled_fidelity([0.5, s], 10, seed=0),
}


@pytest.mark.parametrize("sigma2", [NAN, INF, -1.0, "1", None, 1j])
@pytest.mark.parametrize("call", SIGMA2_FUNCTIONS.values(), ids=SIGMA2_FUNCTIONS.keys())
def test_sigma2_must_be_finite_and_non_negative(call, sigma2):
    with pytest.raises(ValueError, match="sigma2 must be finite and non-negative"):
        call(sigma2)


@pytest.mark.parametrize("factor", [NAN, 0.0, 1.5, "0.5", None, 0.5j], ids=repr)
@pytest.mark.parametrize("name", ["pair", "triple"])
def test_finite_T_factors_must_lie_in_unit_interval(name, factor):
    factors = {"pair_factor": 0.5, "triple_factor": 0.5, f"{name}_factor": factor}
    table = leviton.zero_T_correlators(0.3, 1.2, "X")
    with pytest.raises(ValueError, match=f"{name} factor must lie in"):
        leviton.finite_T_correlators(table, **factors)


NEGATIVE_SEED_CALLS = {
    "montecarlo_click_probabilities": saw.montecarlo_click_probabilities,
    "dephased_state_montecarlo": saw.dephased_state_montecarlo,
    "sampled_fidelity": lambda params, deph, n, seed: saw.sampled_fidelity([1.0], n, seed),
}


@pytest.mark.parametrize("call", NEGATIVE_SEED_CALLS.values(), ids=NEGATIVE_SEED_CALLS.keys())
def test_seed_must_be_non_negative(call):
    # one seed contract for every entry point of a run and the sampled
    # fidelities, in the library's words rather than numpy's
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        call(TeleportParams(0.3, 1.2), DephasingParams.from_total(1.0), 5, -1)


GAMMA_FUNCTIONS = {
    "photoassist_amplitude": lambda g: leviton.photoassist_amplitude(1, g),
    "photoassist_spectrum_oracle": lambda g: leviton.photoassist_spectrum_oracle([0, 1], g),
    "photoassist_weight_sum": leviton.photoassist_weight_sum,
}


# 1e-5 and 9.9e-5 lie under GAMMA_MIN, where the oracle's grid grows as 1/gamma
@pytest.mark.parametrize(
    "gamma", [NAN, INF, 0.0, -1.0, 100.0, "0.1", None, 0.1j, 1e-5, 9.9e-5], ids=repr
)
@pytest.mark.parametrize("call", GAMMA_FUNCTIONS.values(), ids=GAMMA_FUNCTIONS.keys())
def test_photoassist_gamma_must_be_positive_and_finite(call, gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        call(gamma)


def test_photoassist_accepts_gamma_min():
    for call in GAMMA_FUNCTIONS.values():
        assert np.all(np.isfinite(call(leviton.GAMMA_MIN)))


PHOTON_NUMBER_FUNCTIONS = {
    "photoassist_amplitude": lambda n: leviton.photoassist_amplitude(n, 0.1),
    "photoassist_spectrum_oracle": lambda n: leviton.photoassist_spectrum_oracle([0, n], 0.1),
}


@pytest.mark.parametrize("n", [1.5, "1", None], ids=repr)
@pytest.mark.parametrize(
    "call", PHOTON_NUMBER_FUNCTIONS.values(), ids=PHOTON_NUMBER_FUNCTIONS.keys()
)
def test_photon_number_must_be_an_integer(call, n):
    # an int, not a float or a string that converts to one
    with pytest.raises(ValueError, match="photon number n must be an integer"):
        call(n)


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
    ("correlators", "--tolerance", "nan"),
    ("correlators", "--tolerance", "-1"),
    ("leviton", "--gamma", "1e-300", "--tau", "0"),
    ("leviton", "--gamma", "1e-7", "--tau", "0"),
    # sinh(2 pi gamma)^2 in the thermal weights overflows from gamma = 57
    ("leviton", "--gamma", "100", "--tau", "0"),
    # (stop - start) / step overflows to inf: no finite number of points
    ("leviton", "--tau=-1e308:1e308:1e-300"),
    ("saw", "--sigma2=0:1e308:1e-300"),
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_cli_rejects_bad_input_with_one_line(argv, capsys):
    assert cli.main(list(argv)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# A rejected element line -> the words of its error, the file's own names.
BAD_ELEMENTS = {
    "prep a b R=0.3 phi=nan": "phi must be finite",
    "phase a value=inf": "value must be finite",
    "prep a b R=1.5 phi=0": "R must lie in [0, 1]",
    "tomo a b Dp=2 theta=0": "Dp must lie in [0, 1]",
    "sym a a": "sym requires 2 distinct mode(s)",
}


@pytest.mark.parametrize("line", BAD_ELEMENTS)
def test_circuit_check_rejects_non_finite_parameters(line, tmp_path, capsys):
    path = tmp_path / "bad.ckt"
    path.write_text(f"modes a b\n{line}\n")
    assert cli.main(["circuit-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "line 2" in captured.err
    assert BAD_ELEMENTS[line] in captured.err
