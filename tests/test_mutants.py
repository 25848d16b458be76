"""Seeded defects, each applied with monkeypatch and run only against the
criterion or test that must catch it.

This is mutation testing (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) without a mutation tool: a row whose
target still passes under its defect marks a blind spot of the suite.

A row is one edit of the library's own source (`EDITS`, applied by
`_edited`) unless it models a non-finite result, a constant, a table or a
different algorithm.  A library change that moves an edited text fails its
row, where a stale copy of the function would still pass, and each edit
row's unedited source passes its target, so the row fails by its edit
alone.  Each row of `STAND_INS` stays a stand-in for one of these reasons:
- the six NaN or failed-series rows: a non-finite result or a failed series
  must fail its criterion, not slip through `max(worst, x)` or `x > bound`;
- the `_replace` constants and the `_halved` series tables;
- `mask-table-multiplied`, a product with 0/1 masks: another algorithm;
- `prep-parameters-swapped-crit11`: the edit `r, phi = values` ->
  `phi, r = values` gives NaN with numpy's invalid-value warning, which the
  suite turns into an error that is not a `ValueError` and would escape
  criterion 11, so the swapped element runs under `np.errstate`.
"""

import __future__
import importlib
import inspect
import math
import pkgutil
import textwrap
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
from eteleport import acceptance, circuit, fock, leviton, protocol, saw, scalar
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


def _edited(owner, name, old, new):
    """The current source of the function or method `owner.name`, with `old`,
    which must occur in it exactly once, replaced by `new`; defined again
    against its module's live globals, so its decorators apply again, and
    patched under the same owner and name."""

    def apply(monkeypatch):
        function = inspect.unwrap(vars(owner)[name])
        source = textwrap.dedent(inspect.getsource(function))
        count = source.count(old)
        assert count == 1, f"{owner.__name__}.{name}: {old!r} occurs {count} times, not once"
        flags = __future__.annotations.compiler_flag  # as every module of the package
        code = compile(source.replace(old, new), f"<edited {name}>", "exec", flags)
        namespace = {}
        exec(code, function.__globals__, namespace)
        monkeypatch.setattr(owner, name, namespace[name])

    return apply


def _replace(owner, name, stand_in):
    def apply(monkeypatch):
        monkeypatch.setattr(owner, name, stand_in)

    return apply


def _halved(owner, name):
    """Every coefficient of a series table halved."""
    return _replace(owner, name, tuple(0.5 * c for c in getattr(owner, name)))


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


def _mask_table_multiplied(monkeypatch):
    # each table row's mass as a product with its 0/1 mask, not a gather: a
    # NaN of an excluded configuration turns every mass into NaN
    def multiplied(probs, table):
        masks = np.zeros((len(table), probs.shape[-1] + 1))
        masks[np.arange(len(table))[:, None], table] = 1.0
        return fock.mass(probs[..., None, :] * masks[:, :-1], slice(None))

    monkeypatch.setattr(protocol, "_masses", multiplied)


def _series_fails(params):
    raise scalar.SeriesConvergenceError("thermal series not converged")


# edits of more than one row: the Monte Carlo amplitudes fed transformed
# draws; the input qubit's rows trading places, X (on A'0) read as Y (on
# A'1); the ++ element reading A0- in place of A0+ (the -+ pattern)
_DRAWS = (saw, "_conditional_amplitudes", "trig = np.empty(")
_ROWS_SWAPPED = (protocol, "_form_rows", "return rows", "return rows[::-1]")
_PP_READS_MP = (
    protocol.POVMElement, "clicked", "self.outcome.bits)",
    "(self.outcome.bits if self.outcome.bits != (1, 0, 1, 0) else (0, 1, 1, 0)))",
)

# (owner, name, old, new, target): each row's defect as one edit
EDITS = [
    pytest.param(
        *_DRAWS, "draws, trig = -draws, np.empty(",
        test_saw.test_fast_path_matches_full_simulation, id="mc-phase-sign-flipped",
    ),
    pytest.param(
        # one arm's spread of six, not their combination's: criterion 6 must see it
        *_DRAWS, "draws, trig = draws / np.sqrt(6.0), np.empty(",
        _criterion(6), id="mc-variance-of-mean",
    ),
    pytest.param(
        # the sample spread of u^2 divided by n, not n - 1: saw.csv's stderr moves
        scalar, "sampled_fidelity", "axial.std(ddof=1)", "axial.std()",
        _golden("saw.csv"), id="mean-std-ddof-zero",
    ),
    pytest.param(
        # the constant 0.5 (1 + q) and the weight 0.5 (1 - q) of the mean u^2 trade places
        scalar, "sampled_fidelity",
        "(0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std",
        "(0.5 * (1.0 - q) + 0.5 * (1.0 + q) * mean, 0.5 * (1.0 + q) * std",
        _criterion(6), id="affine-weights-swapped-crit06",
    ),
    pytest.param(
        # the state at a draw turns the wrong way with the combined phase
        saw, "_run_state",
        "[x * cos + _ARM_SIGN * y * sin, y * cos - _ARM_SIGN * x * sin, z]",
        "[x * cos - _ARM_SIGN * y * sin, y * cos + _ARM_SIGN * x * sin, z]",
        test_properties.test_fixed_arm_phases_match_a_launch, id="fixed-draw-sine-flipped",
    ),
    pytest.param(
        saw, "_montecarlo_spread", "cross, scale = 2.0 *", "cross, scale = -2.0 *",
        test_saw.test_montecarlo_spread_is_the_columns_mean_std, id="spread-cross-term-flipped",
    ),
    pytest.param(
        *_ROWS_SWAPPED,
        test_properties.test_linear_form_equals_a_six_mode_launch, id="form-rows-swapped",
    ),
    # the coefficient table is built from the same rows
    pytest.param(*_ROWS_SWAPPED, _criterion(8), id="form-rows-swapped-crit08"),
    pytest.param(
        # every block's last two coefficients trade places, as if g's Re and Im c0* c1 did
        protocol, "_observables", "t0, t1, t2, t3 =", "t0, t1, t3, t2 =",
        test_certificates.test_g_is_the_input_bloch_vector, id="coherence-entries-swapped",
    ),
    pytest.param(*_PP_READS_MP, _criterion(2), id="pp-reads-a0-minus-crit02"),
    pytest.param(*_PP_READS_MP, _criterion(5), id="pp-reads-a0-minus-crit05"),
    pytest.param(
        # the coherence's imaginary part turns the other way: Bob's y flips
        protocol, "_pure_blochs", "-2.0 * coherence.imag", "2.0 * coherence.imag",
        _criterion(2), id="pure-bloch-imaginary-flipped-crit02",
    ),
    pytest.param(
        # one vector is held to 1 + 2e-11, ten times the bound; a stack keeps it
        protocol, "_check_unit_ball",
        "inside = math.sqrt(x * x + y * y + z * z) <= bound",
        "inside = math.sqrt(x * x + y * y + z * z) <= 1.0 + 2e-11",
        test_properties.test_one_vector_unit_ball_matches_the_stack,
        id="one-vector-bound-loosened",
    ),
    pytest.param(
        # psi- built with psi+'s sign: the Bell Gram deviation and the
        # projected POVM, both evaluated once per process, must still see it
        protocol, "bell_states", "(-s, (a1, b0))", "(s, (a1, b0))",
        _criterion(4), id="bell-sign-flipped-crit04",
    ),
    pytest.param(
        # the aligned sector's mask is the crossed one: criterion 4 weighs
        # both at 1/4 with the same bytes, so only the masks' test sees it
        protocol, "_prepared_masks", "dual & ~crossed", "dual & crossed",
        test_protocol.test_prepared_masks_partition_the_dual_rail_mask,
        id="aligned-mask-is-crossed",
    ),
    pytest.param(
        # one constant entry of the literal matrix, 1j/2 at (2, 3), flips sign
        acceptance, "reference_network_matrix",
        "[0, 0, -s, 1j * s, rD, 1j * rR]", "[0, 0, -s, -1j * s, rD, 1j * rR]",
        _criterion(11), id="reference-entry-changed-crit11",
    ),
    pytest.param(
        fock, "probabilities", "return h * h", "return h",
        test_properties.test_probabilities_square_libm_hypot, id="probabilities-unsquared",
    ),
    pytest.param(
        # an N-D sum in numpy's pairwise order, not left to right
        fock, "mass", "np.add.accumulate(kept, axis=-1)[..., -1] + 0.0", "kept.sum(axis=-1)",
        test_properties.test_mass_adds_left_to_right, id="mass-summed-pairwise",
    ),
    pytest.param(
        # an N-D array gathered by the 1-D path, probs[keep]: its first axis, not its last
        fock, "mass", "probs[keep] if probs.ndim == 1 else probs[..., keep]", "probs[keep]",
        test_properties.test_mass_adds_left_to_right, id="mass-gathers-first-axis",
    ),
    pytest.param(
        leviton, "_cumulants", " + 2.0 * (a_ * b_ * c)", "",
        _criterion(7), id="triple-product-term-dropped-crit07",
    ),
    pytest.param(
        # the damping ratio reads 1e-10 high, inside `_damping_ratio`'s 1e-9
        # allowance: only the curve's `max fidelity - 1` check sees it
        scalar, "_damping_ratio", "/ pair_sum", "/ pair_sum * (1.0 + 1e-10)",
        _criterion(9), id="damping-above-one-crit09",
    ),
    pytest.param(
        # the pair rest's bound takes m^2 + 2mq - q + 2q^2, 2q below E (m + J)^2
        scalar, "_direct_rest", "2.0 * m * q + q + 2.0 * q2", "2.0 * m * q - q + 2.0 * q2",
        test_properties.test_direct_rest_is_its_moment_sums, id="pair-rest-moment-lowered",
    ),
    pytest.param(
        # the closed-form tail starts one harmonic after the last direct term
        scalar, "_tail_terms", "k, a = 0, 2.0 * g", "k, a, first = 0, 2.0 * g, first + 1",
        test_leviton.test_thermal_factors_match_a_decimal_oracle, id="tail-one-harmonic-late",
    ),
]

STAND_INS = [
    pytest.param(
        _replace(fock, "_reorder_sign", lambda indices: 1),
        test_fock.test_from_terms_reordering_sign, id="reorder-sign-always-one",
    ),
    pytest.param(
        # the coherence turns the other way with the combined phase
        _replace(saw, "_ARM_SIGN", -saw._ARM_SIGN),
        test_properties.test_fixed_arm_phases_match_a_launch, id="sign-flipped",
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
        test_properties.test_fixed_arm_phases_match_a_launch, id="arm-phases-ignored",
    ),
    pytest.param(
        _replace(protocol, "CORRECTED_OUTCOMES", ()),
        test_protocol.test_feedforward_restores_input, id="feedforward-never-applied",
    ),
    pytest.param(
        _replace(circuit, "_PROBABILITIES", ()),
        test_circuit.test_element_parameter_validation, id="element-table-without-unit-bound",
    ),
    pytest.param(_prep_parameters_swapped, _criterion(11), id="prep-parameters-swapped-crit11"),
    pytest.param(
        _mask_table_multiplied,
        test_protocol.test_nan_configuration_reaches_its_outcome_only, id="mask-table-multiplied",
    ),
    pytest.param(
        _replace(protocol, "teleporting_branch", lambda params: FockState(
            DETECTION_MODES, 3, np.full(20, np.nan, dtype=complex)
        )),
        _criterion(4), id="nan-overlap-crit04",
    ),
    pytest.param(
        _replace(scalar, "sampled_fidelity", lambda sigma2_values, n_states, seed: [
            (math.nan, math.nan) for _ in sigma2_values
        ]),
        _criterion(6), id="nan-fidelity-samples-crit06",
    ),
    pytest.param(
        _replace(saw, "_drawn_run", lambda params, deph, n_samples, seed: (
            saw._run_constants(params), np.full((2, n_samples), np.nan)
        )),
        _criterion(6), id="nan-montecarlo-stack-crit06",
    ),
    pytest.param(
        _halved(scalar, "_PAIR_SERIES"),
        test_properties.test_thermal_weights_match_direct_forms, id="pair-series-halved",
    ),
    pytest.param(
        _halved(scalar, "_TRIPLE_SERIES"),
        test_properties.test_thermal_weights_match_direct_forms, id="triple-series-halved",
    ),
    pytest.param(
        _halved(scalar, "_PAIR_SERIES"),
        test_leviton.test_thermal_factors_match_a_decimal_oracle, id="pair-series-halved-grid",
    ),
    pytest.param(
        _halved(scalar, "_TRIPLE_SERIES"),
        test_leviton.test_thermal_factors_match_a_decimal_oracle, id="triple-series-halved-grid",
    ),
    pytest.param(
        _replace(scalar, "thermal_factors", _series_fails),
        _criterion(8), id="series-error-crit08",
    ),
    pytest.param(
        _replace(scalar, "fidelity_curve", lambda gammas, taus: [
            {"gamma": g, "tau": t, "fidelity": math.nan} for g in gammas for t in taus
        ]),
        _criterion(9), id="nan-fidelity-curve-crit09",
    ),
    pytest.param(
        _replace(leviton, "photoassist_spectrum_oracle", lambda n_values, gamma: (
            np.full(len(n_values), np.nan)
        )),
        _criterion(10), id="nan-oracle-crit10",
    ),
]

MUTANTS = [
    pytest.param(_edited(*row.values[:4]), row.values[4], id=row.id) for row in EDITS
] + STAND_INS


def _phases(monkeypatch, target, *phases):
    """A property target runs only these phases (Hypothesis reads a test's
    settings from this attribute on each call)."""
    given_settings = getattr(target, "_hypothesis_internal_use_settings", None)
    if given_settings is not None:
        monkeypatch.setattr(
            target, "_hypothesis_internal_use_settings", settings(given_settings, phases=phases)
        )


@pytest.mark.parametrize("defect, target", MUTANTS)
def test_defect_fails_its_target(monkeypatch, defect, target):
    # a property target runs its explicit, stored and generated examples but
    # does not shrink a failure it finds: a row asks only whether it fails
    _phases(monkeypatch, target, Phase.explicit, Phase.reuse, Phase.generate)
    defect(monkeypatch)
    # a target fails on an assert, or on a pytest.raises that saw no error
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        target()


@pytest.mark.parametrize("owner, name, old, new, target", EDITS)
def test_unedited_source_passes_its_target(monkeypatch, owner, name, old, new, target):
    # the same helper with `old` left as it is passes: a property target its
    # explicit examples, a criterion or a golden as a whole
    _phases(monkeypatch, target, Phase.explicit)
    _edited(owner, name, old, old)(monkeypatch)
    target()
