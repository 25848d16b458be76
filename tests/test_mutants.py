"""Seeded defects, each applied with monkeypatch and run only against the
criterion or test that must catch it.

This is mutation testing (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) without a mutation tool: a row whose
target still passes under its defect marks a blind spot of the suite.  The
NaN rows check that a non-finite result fails its criterion instead of
slipping through a `max(worst, x)` or an `x > bound` comparison.
"""

import importlib
import math
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, settings

import golden_table
import test_certificates
import test_circuit
import test_fock
import test_golden
import test_leviton
import test_properties
import test_protocol
import test_saw
import eteleport
from eteleport import acceptance, circuit, fock, leviton, protocol, saw
from eteleport.fock import DETECTION_MODES, FockState
from eteleport.protocol import MeasurementOutcome


def _package_caches():
    """Every `functools.lru_cache` of the package: module-level functions and
    the methods of its classes."""
    modules = [
        importlib.import_module(f"eteleport.{info.name}")
        for info in pkgutil.iter_modules(eteleport.__path__)
    ]
    owners = modules + [
        value for module in modules for value in vars(module).values() if isinstance(value, type)
    ]
    caches = (value for owner in owners for value in vars(owner).values())
    return list(dict.fromkeys(c for c in caches if callable(getattr(c, "cache_clear", None))))


_CACHES = _package_caches()


@pytest.fixture(autouse=True)
def _no_kept_stage():
    """Every row starts and ends with every cache of the package empty, so
    no table built under one row's defect serves another row or a later
    test."""
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()


def _criterion(number):
    def target():
        result = acceptance.ALL_CRITERIA[number - 1].run()
        assert result.passed, result.line

    return target


def _golden(out_file):
    """`test_golden`'s byte-identity test of one golden of `golden_table.CASES`."""
    argv, _, err_file = next(case for case in golden_table.CASES if case[1] == out_file)
    return lambda: test_golden.test_readme_output_is_byte_identical(argv, out_file, err_file)


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


def _fixed_draw_sine_flipped(monkeypatch):
    # the state at a draw turns the wrong way with the combined phase
    state = saw._run_state
    monkeypatch.setattr(saw, "_run_state", lambda run, cos, sin: state(run, cos, -sin))


def _spread_cross_term_flipped(monkeypatch):
    # the S_cs term of the spreads enters Var(Re) with -2 s x y and Var(Im)
    # with +2 s x y, the signs of the other part
    def flipped(params, deph, n_samples, seed):
        run, trig = saw._drawn_run(params, deph, n_samples, seed)
        means = trig.mean(axis=1).tolist()
        centred = trig - np.array(means)[:, None]
        s_cs = float(np.add.reduce(centred[0] * centred[1]))
        s_cc, s_ss = (float(np.add.reduce(row * row)) for row in centred)
        _, x, y, _ = run
        cross, scale = -2.0 * saw._ARM_SIGN * x * y * s_cs, 4.0 * (n_samples - 1)
        var_re = (x * x * s_cc + y * y * s_ss + cross) / scale
        var_im = (x * x * s_ss + y * y * s_cc - cross) / scale
        state = saw._run_state(run, *means)
        return state, math.sqrt(max(var_re, 0.0)), math.sqrt(max(var_im, 0.0))

    monkeypatch.setattr(saw, "_montecarlo_spread", flipped)


def _affine_weights_swapped(monkeypatch):
    # the sampled fidelity's constant 0.5 (1 + q) and its weight of the mean
    # u^2, 0.5 (1 - q), trade places
    def swapped(sigma2_values, n_states, seed):
        axial = np.random.default_rng(seed).random(n_states)
        axial *= axial
        mean, std = float(axial.mean()), float(axial.std(ddof=1))
        return [
            (0.5 * (1.0 - q) + 0.5 * (1.0 + q) * mean, 0.5 * (1.0 + q) * std / math.sqrt(n_states))
            for q in map(saw._damping, sigma2_values)
        ]

    monkeypatch.setattr(saw, "sampled_fidelity", swapped)


def _spread_ddof_zero(monkeypatch):
    # the sample spread of u^2 divided by n, not n - 1
    def ddof_zero(sigma2_values, n_states, seed):
        axial = np.random.default_rng(seed).random(n_states)
        axial *= axial
        mean, std = float(axial.mean()), float(axial.std())
        return [
            (0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std / math.sqrt(n_states))
            for q in map(saw._damping, sigma2_values)
        ]

    monkeypatch.setattr(saw, "sampled_fidelity", ddof_zero)


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


def _coherence_entries_swapped(monkeypatch):
    # g's Re c0* c1 and Im c0* c1 trade places: the same as every block's
    # last two coefficients trading places
    observables = protocol._observables

    def swapped(block, R, phi):
        return observables(block[..., [0, 1, 3, 2]], R, phi)

    monkeypatch.setattr(protocol, "_observables", swapped)


def _triple_product_term_dropped(monkeypatch):
    # each Q column loses the 2 <a><b><c> of its joint cumulant
    cumulants = leviton._cumulants

    def dropped(raw):
        values = cumulants(raw).copy()
        a, b, c = (raw[..., leviton._FACTORS[i]] for i in (10, 8, 6))
        values[..., -c.shape[-1]:] -= 2.0 * (a * b * c)
        return values

    monkeypatch.setattr(leviton, "_cumulants", dropped)


def _mass_summed_pairwise(monkeypatch):
    # an N-D sum in numpy's pairwise order, not left to right
    left_to_right = fock.mass

    def pairwise(probs, keep):
        kept = probs[..., keep]
        return left_to_right(probs, keep) if kept.ndim == 1 else kept.sum(axis=-1)

    monkeypatch.setattr(fock, "mass", pairwise)


def _mass_gathers_first_axis(monkeypatch):
    # an N-D array gathered as probs[keep], the 1-D path, which indexes its
    # first axis, not its last
    left_to_right = fock.mass
    monkeypatch.setattr(fock, "mass", lambda probs, keep: left_to_right(probs[keep], slice(None)))


def _one_vector_bound_loosened(monkeypatch):
    # one vector is held to 1 + 2e-11, ten times the bound; a stack keeps it
    check = protocol._check_unit_ball

    def loosened(bloch):
        if isinstance(bloch, np.ndarray):
            return check(bloch)
        x, y, z = bloch
        if not math.sqrt(x * x + y * y + z * z) <= 1.0 + 2e-11:
            raise ValueError("Bloch vector leaves the unit ball")

    monkeypatch.setattr(protocol, "_check_unit_ball", loosened)


def _mask_table_multiplied(monkeypatch):
    # each table row's mass as a product with its 0/1 mask, not a gather: a
    # NaN of an excluded configuration turns every mass into NaN
    def multiplied(probs, table):
        masks = np.zeros((len(table), probs.shape[-1] + 1))
        masks[np.arange(len(table))[:, None], table] = 1.0
        return fock.mass(probs[..., None, :] * masks[:, :-1], slice(None))

    monkeypatch.setattr(protocol, "_masses", multiplied)


def _tail_one_harmonic_late(monkeypatch):
    # the closed-form tail starts one harmonic after the last direct term
    terms = leviton._tail_terms
    monkeypatch.setattr(leviton, "_tail_terms", lambda g, tau, first: terms(g, tau, first + 1))


def _probabilities_unsquared(monkeypatch):
    # |a| in place of |a|^2: the kernel's h * h read as h
    def unsquared(amps):
        amps = np.asarray(amps)
        return np.hypot(amps.real, amps.imag)

    monkeypatch.setattr(fock, "probabilities", unsquared)


def _pure_blochs_imaginary_flipped(monkeypatch):
    # the coherence's imaginary part turns the other way: Bob's y flips
    pure = protocol._pure_blochs
    monkeypatch.setattr(protocol, "_pure_blochs", lambda c0, c1: pure(c0.conj(), c1.conj()))


def _reference_entry_changed(monkeypatch):
    # one constant entry of the literal matrix, 1j/2 at (2, 3), flips sign
    reference = acceptance.reference_network_matrix

    def changed(*params):
        matrix = reference(*params)
        matrix[..., 2, 3] *= -1.0
        return matrix

    monkeypatch.setattr(acceptance, "reference_network_matrix", changed)


def _nan_state(params):
    return FockState(DETECTION_MODES, 3, np.full(20, np.nan, dtype=complex))


def _bell_sign_flipped(monkeypatch):
    # psi- built with psi+'s sign: the Bell Gram deviation and the projected
    # POVM, both evaluated once per process, must still see it
    bell_states = protocol.bell_states

    def flipped(registry, pair_a, pair_b):
        states = bell_states(registry, pair_a, pair_b)
        return {**states, "psi-": states["psi+"]}

    monkeypatch.setattr(protocol, "bell_states", flipped)


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
    # saw.csv's stderr moves
    pytest.param(_spread_ddof_zero, _golden("saw.csv"), id="mean-std-ddof-zero"),
    pytest.param(
        _fixed_draw_sine_flipped,
        test_properties.test_fixed_arm_phases_match_a_launch,
        id="fixed-draw-sine-flipped",
    ),
    pytest.param(
        # the coherence turns the other way with the combined phase
        _replace(saw, "_ARM_SIGN", -saw._ARM_SIGN),
        test_properties.test_fixed_arm_phases_match_a_launch,
        id="sign-flipped",
    ),
    pytest.param(
        # the run's constants from the +- conditional, whose x and y want
        # the feed-forward; the -- row has the ++ row's bytes at every point
        _replace(saw, "_PP_ROW", protocol.PAIRED_OUTCOMES.index(MeasurementOutcome((1, 0, 0, 1)))),
        test_properties.test_no_arm_phase_gives_the_point_conditional,
        id="run-reads-the-plus-minus-row",
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
    # the coefficient table is built from the same rows
    pytest.param(_form_rows_swapped, _criterion(8), id="form-rows-swapped-crit08"),
    pytest.param(
        _coherence_entries_swapped,
        test_certificates.test_g_is_the_input_bloch_vector,
        id="coherence-entries-swapped",
    ),
    pytest.param(
        _triple_product_term_dropped, _criterion(7), id="triple-product-term-dropped-crit07"
    ),
    pytest.param(_pp_reads_a0_minus, _criterion(2), id="pp-reads-a0-minus-crit02"),
    pytest.param(_pp_reads_a0_minus, _criterion(5), id="pp-reads-a0-minus-crit05"),
    pytest.param(
        _mass_summed_pairwise,
        test_properties.test_mass_adds_left_to_right,
        id="mass-summed-pairwise",
    ),
    pytest.param(
        _mass_gathers_first_axis,
        test_properties.test_mass_adds_left_to_right,
        id="mass-gathers-first-axis",
    ),
    pytest.param(
        _one_vector_bound_loosened,
        test_properties.test_one_vector_unit_ball_matches_the_stack,
        id="one-vector-bound-loosened",
    ),
    pytest.param(
        _mask_table_multiplied,
        test_protocol.test_nan_configuration_reaches_its_outcome_only,
        id="mask-table-multiplied",
    ),
    pytest.param(
        _probabilities_unsquared,
        test_properties.test_probabilities_square_libm_hypot,
        id="probabilities-unsquared",
    ),
    pytest.param(
        _pure_blochs_imaginary_flipped, _criterion(2), id="pure-bloch-imaginary-flipped-crit02"
    ),
    pytest.param(_reference_entry_changed, _criterion(11), id="reference-entry-changed-crit11"),
    pytest.param(
        _replace(protocol, "teleporting_branch", _nan_state),
        _criterion(4),
        id="nan-overlap-crit04",
    ),
    pytest.param(_bell_sign_flipped, _criterion(4), id="bell-sign-flipped-crit04"),
    pytest.param(
        _replace(
            saw,
            "sampled_fidelity",
            lambda sigma2_values, n_states, seed: [(math.nan, math.nan) for _ in sigma2_values],
        ),
        _criterion(6),
        id="nan-fidelity-samples-crit06",
    ),
    pytest.param(_affine_weights_swapped, _criterion(6), id="affine-weights-swapped-crit06"),
    pytest.param(
        _replace(
            saw,
            "_drawn_run",
            lambda params, deph, n_samples, seed: (
                saw._run_constants(params),
                np.full((2, n_samples), np.nan),
            ),
        ),
        _criterion(6),
        id="nan-montecarlo-stack-crit06",
    ),
    pytest.param(
        _spread_cross_term_flipped,
        test_saw.test_montecarlo_spread_is_the_columns_mean_std,
        id="spread-cross-term-flipped",
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
        test_leviton.test_thermal_factors_match_a_decimal_oracle,
        id="pair-series-halved-grid",
    ),
    pytest.param(
        _halved(leviton, "_TRIPLE_SERIES"),
        test_properties.test_thermal_weights_match_direct_forms,
        id="triple-series-halved-grid",
    ),
    pytest.param(
        _tail_one_harmonic_late,
        test_leviton.test_thermal_factors_match_a_decimal_oracle,
        id="tail-one-harmonic-late",
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
    # a property target runs its explicit, stored and generated examples,
    # but does not shrink the failure it finds: a row asks only whether it
    # fails.  Hypothesis reads a test's settings from this attribute on
    # each call
    given_settings = getattr(target, "_hypothesis_internal_use_settings", None)
    if given_settings is not None:
        phases = (Phase.explicit, Phase.reuse, Phase.generate)
        monkeypatch.setattr(
            target, "_hypothesis_internal_use_settings", settings(given_settings, phases=phases)
        )
    defect(monkeypatch)
    # a target fails on an assert, or on a pytest.raises that saw no error
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        target()
