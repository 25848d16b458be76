"""Seeded defects, each applied with monkeypatch and run only against the
criterion or test that must catch it.

This is mutation testing (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) without a mutation tool: a row whose
target still passes under its defect marks a blind spot of the suite.  The
NaN rows check that a non-finite result fails its criterion instead of
slipping through a `max(worst, x)` or an `x > bound` comparison.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import test_circuit
import test_fock
import test_leviton
import test_properties
import test_protocol
import test_saw
from eteleport import acceptance, circuit, fock, leviton, protocol, saw
from eteleport.fock import DETECTION_MODES, FockState
from eteleport.protocol import MeasurementOutcome


@pytest.fixture(autouse=True)
def _no_kept_stage():
    """Every row starts and ends without stage rows or a memo entry, so none
    built under one row's defect serves another row or a later test."""
    clears = (protocol._form_rows.cache_clear, protocol._point_amplitudes.cache_clear)
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


def _criterion(number):
    def target():
        result = acceptance.ALL_CRITERIA[number - 1].run()
        assert result.passed, result.line

    return target


def _replace(owner, name, stand_in):
    def apply(monkeypatch):
        monkeypatch.setattr(owner, name, stand_in)

    return apply


def _halved(owner, name):
    """Every coefficient of a series table halved."""
    return _replace(owner, name, tuple(0.5 * c for c in getattr(owner, name)))


def _draws_mapped(transform):
    """The Monte Carlo amplitudes fed transformed draws of the combined phase."""

    def apply(monkeypatch):
        amplitudes = saw._conditional_amplitudes

        def mapped(params, draws):
            return amplitudes(params, transform(draws))

        monkeypatch.setattr(saw, "_conditional_amplitudes", mapped)

    return apply


def _run_sine_flipped(monkeypatch):
    # the run's coherence turns the wrong way with the combined phase
    constants = saw._run_constants

    def flipped(params):
        run = constants(params)
        return run._replace(ks=-run.ks)

    monkeypatch.setattr(saw, "_run_constants", flipped)


def _pp_reads_a0_minus(monkeypatch):
    # the ++ element reads A0- in place of A0+, i.e. it keeps the -+ pattern
    clicked = protocol.POVMElement.clicked
    pp, mp = MeasurementOutcome.from_signs("+", "+"), MeasurementOutcome.from_signs("-", "+")

    def misread(self, registry, configs):
        return clicked(protocol.POVMElement(mp) if self.outcome == pp else self, registry, configs)

    monkeypatch.setattr(protocol.POVMElement, "clicked", misread)


def _prep_parameters_swapped(monkeypatch):
    # element_matrix reads prep's (R, phi) as (phi, R); an R past 1 gives
    # NaN entries, whose numpy warning the suite would turn into an error
    matrix = circuit.element_matrix

    def swapped(element):
        if element.kind != "prep":
            return matrix(element)
        with np.errstate(invalid="ignore"):
            return matrix(SimpleNamespace(kind="prep", params=element.params[::-1]))

    monkeypatch.setattr(circuit, "element_matrix", swapped)


def _form_rows_swapped(monkeypatch):
    # the input qubit's rows trade places: X (on A'0) is read as Y (on A'1)
    rows = protocol._form_rows
    monkeypatch.setattr(protocol, "_form_rows", lambda stage: rows(stage)[::-1])


def _memo_key_drops_phi(monkeypatch):
    launch = protocol._point_amplitudes.__wrapped__
    memo = {}

    def keyed_without_phi(stage, R, phi, *rest):
        key = (stage, R, *rest)
        if key not in memo:
            memo[key] = launch(stage, R, phi, *rest)
        return memo[key]

    monkeypatch.setattr(protocol, "_point_amplitudes", keyed_without_phi)


def _grid_brackets_shifted(monkeypatch):
    # each tau of the fidelity-curve pass reads its neighbour's brackets
    brackets = leviton._grid_brackets

    def shifted(x):
        return tuple(np.roll(b, 1, axis=0) for b in brackets(x))

    monkeypatch.setattr(leviton, "_grid_brackets", shifted)


def _nan_state(params):
    return FockState(DETECTION_MODES, 3, np.full(20, np.nan, dtype=complex))


def _series_fails(params):
    raise leviton.SeriesConvergenceError("thermal series not converged")


MUTANTS = [
    pytest.param(
        _replace(fock, "_reorder_sign", lambda indices: 1),
        test_fock.test_from_terms_reordering_sign,
        id="reorder-sign-always-one",
    ),
    pytest.param(
        _draws_mapped(np.negative),
        test_saw.test_fast_path_matches_full_simulation,
        id="mc-phase-sign-flipped",
    ),
    pytest.param(
        _run_sine_flipped,
        test_properties.test_fixed_arm_phases_match_a_launch,
        id="fixed-draw-sine-flipped",
    ),
    pytest.param(
        # the fixed draw sees no arm phase; the six-mode reference still does
        _replace(saw, "combined_phase", lambda arm_phases: 0.0),
        test_properties.test_fixed_arm_phases_match_a_launch,
        id="arm-phases-ignored",
    ),
    pytest.param(
        # the spread of one arm of six, not of their combination: the
        # fidelity law of criterion 6 must see it
        _draws_mapped(lambda draws: draws / np.sqrt(6.0)),
        _criterion(6),
        id="mc-variance-of-mean",
    ),
    pytest.param(
        _replace(protocol, "CORRECTED_OUTCOMES", ()),
        test_protocol.test_feedforward_restores_input,
        id="feedforward-never-applied",
    ),
    pytest.param(
        _replace(circuit, "_PROBABILITIES", ()),
        test_circuit.test_element_parameter_validation,
        id="element-table-without-unit-bound",
    ),
    pytest.param(_prep_parameters_swapped, _criterion(11), id="prep-parameters-swapped-crit11"),
    pytest.param(
        _form_rows_swapped,
        test_properties.test_linear_form_equals_a_six_mode_launch,
        id="form-rows-swapped",
    ),
    pytest.param(_pp_reads_a0_minus, _criterion(2), id="pp-reads-a0-minus-crit02"),
    pytest.param(_pp_reads_a0_minus, _criterion(5), id="pp-reads-a0-minus-crit05"),
    pytest.param(
        _memo_key_drops_phi,
        test_properties.test_memo_keys_every_parameter,
        id="memo-key-drops-phi",
    ),
    pytest.param(
        _replace(protocol, "teleporting_branch", _nan_state),
        _criterion(4),
        id="nan-overlap-crit04",
    ),
    pytest.param(
        _replace(
            saw,
            "fidelity_samples",
            lambda sigma2_values, n_states, seed: (np.full(n_states, np.nan) for _ in sigma2_values),
        ),
        _criterion(6),
        id="nan-fidelity-samples-crit06",
    ),
    pytest.param(
        _replace(
            saw,
            "montecarlo_entries",
            lambda params, deph, n_samples, seed: (np.full(n_samples, np.nan),) * 3,
        ),
        _criterion(6),
        id="nan-montecarlo-stack-crit06",
    ),
    pytest.param(
        _halved(leviton, "_PAIR_SERIES"),
        test_properties.test_thermal_weights_match_direct_forms,
        id="pair-series-halved",
    ),
    pytest.param(
        _halved(leviton, "_TRIPLE_SERIES"),
        test_properties.test_thermal_weights_match_direct_forms,
        id="triple-series-halved",
    ),
    pytest.param(
        _halved(leviton, "_PAIR_SERIES"),
        test_properties.test_grid_thermal_weights_match_direct_forms,
        id="pair-series-halved-grid",
    ),
    pytest.param(
        _halved(leviton, "_TRIPLE_SERIES"),
        test_properties.test_grid_thermal_weights_match_direct_forms,
        id="triple-series-halved-grid",
    ),
    pytest.param(
        _grid_brackets_shifted,
        test_leviton.test_fidelity_curve_equals_the_loop,
        id="grid-brackets-of-neighbouring-tau",
    ),
    pytest.param(
        _replace(leviton, "thermal_factors", _series_fails),
        _criterion(8),
        id="series-error-crit08",
    ),
    pytest.param(
        _replace(
            leviton,
            "fidelity_curve",
            lambda gammas, taus: [
                {"gamma": g, "tau": t, "fidelity": math.nan} for g in gammas for t in taus
            ],
        ),
        _criterion(9),
        id="nan-fidelity-curve-crit09",
    ),
    pytest.param(
        _replace(
            leviton,
            "photoassist_spectrum_oracle",
            lambda n_values, gamma: np.full(len(n_values), np.nan),
        ),
        _criterion(10),
        id="nan-oracle-crit10",
    ),
]


@pytest.mark.parametrize("defect, target", MUTANTS)
def test_defect_fails_its_target(monkeypatch, defect, target):
    defect(monkeypatch)
    # a target fails on an assert, or on a pytest.raises that saw no error
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        target()
