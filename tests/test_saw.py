import math

import numpy as np
import pytest

from eteleport import protocol, saw
from eteleport.protocol import MeasurementOutcome, TeleportParams
from eteleport.saw import (
    ARM_WIRES,
    DephasingParams,
    average_fidelity,
    average_fidelity_sampled,
    combined_phase,
    dephased_state_analytic,
    dephased_state_montecarlo,
    fidelity_samples,
    jozsa_fidelity,
)

PP = MeasurementOutcome.from_signs("+", "+")
PARAMS = TeleportParams(0.3, 1.2)


# --- analytic dephasing ---

def test_no_noise_matches_conditional_state():
    analytic = dephased_state_analytic(PARAMS, 0.0)
    direct = protocol.bob_conditional(PARAMS, PP)
    assert np.max(np.abs(analytic.rho - direct.rho)) < 1e-12


def test_strong_noise_kills_coherence():
    rho = dephased_state_analytic(PARAMS, 1e3).rho
    assert abs(rho[0, 1]) < 1e-200
    assert rho[0, 0] == pytest.approx(PARAMS.R, abs=1e-12)
    assert rho[1, 1] == pytest.approx(PARAMS.D, abs=1e-12)


def test_two_log_two_halves_the_coherence():
    bare = dephased_state_analytic(PARAMS, 0.0).rho[0, 1]
    damped = dephased_state_analytic(PARAMS, 2.0 * math.log(2.0)).rho[0, 1]
    assert abs(damped - 0.5 * bare) < 1e-12


def test_populations_do_not_depend_on_noise():
    for sigma2 in (0.0, 0.3, 2.0, 50.0):
        rho = dephased_state_analytic(PARAMS, sigma2).rho
        assert rho[0, 0] == pytest.approx(PARAMS.R, abs=1e-15)


# --- dephasing parameters ---

def test_dephasing_params():
    deph = DephasingParams.from_total(1.2)
    assert deph.total == pytest.approx(1.2, abs=1e-15)
    single = DephasingParams.single_arm(0.5, "A1")
    assert single.total == 0.5
    with pytest.raises(ValueError):
        DephasingParams((-0.1,) * 6)


def test_combined_phase_combination():
    phases = dict(zip(ARM_WIRES, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
    # positive arms A0p, A1, B0p; negative arms A1p, A0, B1p
    expected = 0.1 + 0.4 + 0.5 - (0.2 + 0.3 + 0.6)
    assert combined_phase(phases) == pytest.approx(expected, abs=1e-15)


# --- fixed-phase runs ---

def test_fixed_phases_reproduce_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(5):
        draws = dict(zip(ARM_WIRES, rng.normal(0.0, 0.8, 6)))
        prob, state = protocol.conditional_with_arm_phases(PARAMS, draws)
        assert prob == pytest.approx(1.0 / 16.0, abs=1e-12)
        expected = saw.fixed_phase_state(PARAMS, combined_phase(draws))
        assert np.max(np.abs(state.rho - expected.rho)) < 1e-12


# --- Monte Carlo ---

def test_zero_variance_equals_analytic_for_any_seed():
    deph = DephasingParams((0.0,) * 6)
    for seed in (0, 1, 999):
        mc = dephased_state_montecarlo(PARAMS, deph, 10, seed)
        assert np.max(np.abs(mc.rho - dephased_state_analytic(PARAMS, 0.0).rho)) < 1e-12


def test_fast_path_matches_full_simulation():
    deph = DephasingParams.from_total(0.9)
    stack = saw.montecarlo_conditional_states(PARAMS, deph, 30, seed=11)
    scales = np.sqrt(np.array(deph.variances))
    for i in range(30):
        rng = np.random.default_rng(np.random.SeedSequence((11, i)))
        draws = dict(zip(ARM_WIRES, rng.normal(0.0, scales)))
        _, slow = protocol.conditional_with_arm_phases(PARAMS, draws)
        assert np.max(np.abs(stack[i] - slow.rho)) < 1e-12


def test_click_probability_unaffected_by_noise():
    deph = DephasingParams.from_total(1.0)
    probs = saw.montecarlo_click_probabilities(PARAMS, deph, 1000, seed=5)
    assert np.max(np.abs(probs - 1.0 / 16.0)) < 1e-12


def test_montecarlo_converges_to_analytic():
    n = 20_000
    deph = DephasingParams.from_total(1.0)
    stack = saw.montecarlo_conditional_states(PARAMS, deph, n, seed=42)
    coherence = stack[:, 0, 1]
    target = dephased_state_analytic(PARAMS, 1.0).rho[0, 1]
    for part in (np.real, np.imag):
        se = part(coherence).std(ddof=1) / math.sqrt(n)
        assert abs(part(coherence.mean()) - part(target)) < 3.0 * se + 1e-12


def test_only_total_variance_matters():
    n = 20_000
    even = DephasingParams.from_total(1.0)
    lopsided = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.0))
    a = saw.montecarlo_conditional_states(PARAMS, even, n, seed=1)[:, 0, 1]
    b = saw.montecarlo_conditional_states(PARAMS, lopsided, n, seed=2)[:, 0, 1]
    for part in (np.real, np.imag):
        se = math.hypot(
            part(a).std(ddof=1) / math.sqrt(n), part(b).std(ddof=1) / math.sqrt(n)
        )
        assert abs(part(a.mean()) - part(b.mean())) < 3.0 * se


def test_montecarlo_is_deterministic_per_seed():
    deph = DephasingParams.from_total(0.5)
    first = dephased_state_montecarlo(PARAMS, deph, 200, seed=9)
    second = dephased_state_montecarlo(PARAMS, deph, 200, seed=9)
    assert np.array_equal(first.rho, second.rho)
    different = dephased_state_montecarlo(PARAMS, deph, 200, seed=10)
    assert np.max(np.abs(different.rho - first.rho)) > 1e-6


def test_montecarlo_prefix_is_the_shorter_run():
    # sample i depends on (seed, i) only, so a run is a prefix of any longer one
    deph = DephasingParams.from_total(1.0)
    full = saw.montecarlo_conditional_states(PARAMS, deph, 300, seed=4)
    for k in (1, 7, 128):
        prefix = saw.montecarlo_conditional_states(PARAMS, deph, k, seed=4)
        assert np.array_equal(full[:k], prefix)


def test_montecarlo_rejects_empty_sample():
    with pytest.raises(ValueError):
        dephased_state_montecarlo(PARAMS, DephasingParams.from_total(1.0), 0, seed=1)


# --- fidelities ---

def test_jozsa_identical_pure_states():
    r = np.array([0.0, -1.0, 0.0])
    assert jozsa_fidelity(r, r) == pytest.approx(1.0, abs=1e-15)


def test_jozsa_orthogonal_pure_states():
    r = np.array([0.0, 0.0, 1.0])
    assert jozsa_fidelity(r, -r) == pytest.approx(0.0, abs=1e-15)


def test_jozsa_damped_transverse_state():
    r = np.array([0.0, -1.0, 0.0])
    damped = np.array([0.0, -math.exp(-0.5), 0.0])
    assert jozsa_fidelity(r, damped) == pytest.approx(
        0.5 * (1.0 + math.exp(-0.5)), abs=1e-15
    )


def test_jozsa_rejects_outside_ball():
    with pytest.raises(ValueError):
        jozsa_fidelity(np.array([1.1, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))


def test_average_fidelity_limits():
    assert average_fidelity(0.0) == 1.0
    assert average_fidelity(2.0 * math.log(2.0)) == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert average_fidelity(1e6) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_average_fidelity_monotone_and_bounded():
    grid = np.linspace(0.0, 20.0, 200)
    values = [average_fidelity(s) for s in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(2.0 / 3.0 < v <= 1.0 for v in values)


def test_state_fidelity_formula_matches_jozsa_path():
    for r in (0.1, 0.5, 0.9):
        for phi in (0.0, 1.3, 4.0):
            for sigma2 in (0.0, 0.7, 3.0):
                params = TeleportParams(r, phi)
                direct = saw.state_fidelity(params, sigma2)
                reference = protocol.input_bloch(params)
                damped = dephased_state_analytic(params, sigma2).bloch
                assert direct == pytest.approx(
                    jozsa_fidelity(reference, damped), abs=1e-12
                )


def test_sampled_average_agrees_with_closed_form():
    n = 20_000
    for sigma2 in (0.5, 2.0):
        samples = fidelity_samples(sigma2, n, seed=3)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - average_fidelity(sigma2)) < 3.0 * se
    assert average_fidelity_sampled(0.0, 100, seed=0) == 1.0
