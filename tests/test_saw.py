import hashlib
import math

import numpy as np
import pytest

from eteleport import circuit, fock, protocol, saw
from eteleport.protocol import MeasurementOutcome, TeleportParams, jozsa_fidelity
from eteleport.saw import (
    ARM_WIRES,
    DephasingParams,
    average_fidelity,
    combined_phase,
    dephased_state_analytic,
    dephased_state_montecarlo,
    fidelity_samples,
)

PP = MeasurementOutcome.from_signs("+", "+")
PARAMS = TeleportParams(0.3, 1.2)


def launched_conditional(params, arm_phases):
    """The ++ probability and Bob's qubit from one explicit launch of the
    detection stage with arm phases: the six-mode network and its lift,
    independent of the run constants `conditional_with_arm_phases` reads."""
    network = circuit.teleport_network("detection", params.R, params.phi, arm_phases=arm_phases)
    sources = fock.create_sources(fock.INPUT_MODES, protocol.SOURCE_LABELS)
    amps = fock.lift_amplitudes(network, sources)
    (p,), (bloch,) = protocol.conditional_qubits(amps[None], PP)
    return float(p), protocol.QubitState(bloch)


def montecarlo_states(params, deph, n_samples, seed):
    """Bob's ++-conditional density matrix per sample, from the entries."""
    rho00, rho11, rho01 = saw.montecarlo_entries(params, deph, n_samples, seed)
    return np.moveaxis(np.array([[rho00, rho01], [np.conj(rho01), rho11]]), -1, 0)


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
    assert sum(deph.variances) == pytest.approx(1.2, abs=1e-15)
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
        prob, state = launched_conditional(PARAMS, draws)
        assert prob == pytest.approx(1.0 / 16.0, abs=1e-12)
        expected = saw.fixed_phase_state(PARAMS, combined_phase(draws))
        assert np.max(np.abs(state.rho - expected.rho)) < 1e-12


# --- Monte Carlo ---

def test_zero_variance_equals_analytic_for_any_seed():
    deph = DephasingParams((0.0,) * 6)
    for seed in (0, 1, 999):
        mc = dephased_state_montecarlo(PARAMS, deph, 10, seed)
        assert np.max(np.abs(mc.rho - dephased_state_analytic(PARAMS, 0.0).rho)) < 1e-12


def test_arm_phase_stream_is_pinned():
    # SHA-256 of the little-endian draws of combined_phase, one per run, as
    # rng.normal(0.0, sqrt(fsum(variances)), n) draws them
    deph = DephasingParams((0.4, 0.0, 0.1, 0.0, 0.25, 1.5))
    pinned = {
        7: "06aab03aa13f1d6b922dcc1431817d1aa1324e2eeb827304d8fd1810e1871c84",
        20260809: "68957e9892160ead6a9c6fecca3dfee553ad04fdd50084654ca31386e79caa3b",
    }
    scale = math.sqrt(math.fsum(deph.variances))
    for seed, digest in pinned.items():
        draws = saw._sample_phases(deph, 1000, seed)
        assert draws.shape == (1000,)
        assert hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == digest
        assert draws.tobytes() == np.random.default_rng(seed).normal(0.0, scale, 1000).tobytes()
    # zero variances give +0.0, never -0.0
    assert saw._sample_phases(DephasingParams((0.0,) * 6), 50, 3).tobytes() == bytes(8 * 50)


def test_fast_path_matches_full_simulation():
    deph = DephasingParams.from_total(0.9)
    stack = montecarlo_states(PARAMS, deph, 30, seed=11)
    # the combined phase of each run, drawn here without saw, spread over
    # the six arms at random so that combined_phase gives it back
    phis = np.random.default_rng(11).standard_normal(30) * math.sqrt(math.fsum(deph.variances))
    rng = np.random.default_rng(12)
    for i, phi in enumerate(phis):
        arms = dict(zip(ARM_WIRES, rng.normal(0.0, 1.0, 6)))
        arm = ARM_WIRES[rng.integers(6)]
        arms[arm] += combined_phase({arm: 1.0}) * (phi - combined_phase(arms))
        assert combined_phase(arms) == pytest.approx(phi, abs=1e-14)
        _, slow = launched_conditional(PARAMS, arms)
        assert np.max(np.abs(stack[i] - slow.rho)) < 1e-12


def test_amplitudes_reject_configurations_off_the_combined_phase(monkeypatch):
    # the second contributing configuration of 0 < R < 1 must move exactly
    # the arms of combined_phase; with any other arm set the one-draw
    # reduction does not hold
    rows, arms = saw._alice_clicks()
    for arm in range(len(ARM_WIRES)):
        moved = arms.copy()
        moved[:, arm] = ~moved[:, arm]
        monkeypatch.setattr(saw, "_alice_clicks", lambda: (rows, moved))
        with pytest.raises(ValueError, match="combined phase"):
            saw._conditional_amplitudes(PARAMS, np.zeros(3))


def test_either_contributing_configuration_may_come_first(monkeypatch):
    # the sector's configurations in reverse order: the other one's phase is
    # factored out, and the further one moves by the opposite sign
    deph = DephasingParams.from_total(0.9)
    want = saw.montecarlo_entries(PARAMS, deph, 300, 2)
    rows, arms = saw._alice_clicks()
    amplitudes = saw.premeasurement_amplitudes
    monkeypatch.setattr(saw, "_alice_clicks", lambda: (rows[:, ::-1], arms[::-1]))
    monkeypatch.setattr(saw, "premeasurement_amplitudes", lambda *a: amplitudes(*a)[::-1])
    got = saw.montecarlo_entries(PARAMS, deph, 300, 2)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-12


def test_click_probability_unaffected_by_noise():
    deph = DephasingParams.from_total(1.0)
    probs = saw.montecarlo_click_probabilities(PARAMS, deph, 1000, seed=5)
    assert np.max(np.abs(probs - 1.0 / 16.0)) < 1e-12


def test_montecarlo_converges_to_analytic():
    n = 20_000
    deph = DephasingParams.from_total(1.0)
    _, _, coherence = saw.montecarlo_entries(PARAMS, deph, n, seed=42)
    target = dephased_state_analytic(PARAMS, 1.0).rho[0, 1]
    for part in (np.real, np.imag):
        se = part(coherence).std(ddof=1) / math.sqrt(n)
        assert abs(part(coherence.mean()) - part(target)) < 3.0 * se + 1e-12


def test_only_total_variance_matters():
    # two splits with the same exact sum (dyadic variances) give the same run
    lopsided = DephasingParams((0.5, 0.0, 0.25, 0.0, 0.25, 0.0))
    spread = DephasingParams((0.125, 0.125, 0.25, 0.25, 0.125, 0.125))
    assert math.fsum(lopsided.variances) == math.fsum(spread.variances) == 1.0
    a = _bytes(saw.montecarlo_entries(PARAMS, lopsided, 2000, 1))
    b = _bytes(saw.montecarlo_entries(PARAMS, spread, 2000, 1))
    assert a == b


def test_montecarlo_is_deterministic_per_seed():
    deph = DephasingParams.from_total(0.5)
    first = dephased_state_montecarlo(PARAMS, deph, 200, seed=9)
    second = dephased_state_montecarlo(PARAMS, deph, 200, seed=9)
    assert np.array_equal(first.rho, second.rho)
    different = dephased_state_montecarlo(PARAMS, deph, 200, seed=10)
    assert np.max(np.abs(different.rho - first.rho)) > 1e-6


def test_montecarlo_prefix_is_the_shorter_run():
    # rows come in order from one seeded stream, so a run is a prefix of any
    # longer one, byte for byte, at any count
    deph = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.3))
    full = _run_arrays(deph, 300)
    for n in (1, 7, 128):
        for whole, part in zip(full, _run_arrays(deph, n)):
            assert len(part) == n and whole[:n].tobytes() == part.tobytes()


def _run_arrays(deph, count):
    """The entries and the clicks of the run of seed 8."""
    entries = saw.montecarlo_entries(PARAMS, deph, count, 8)
    return (*entries, saw.montecarlo_click_probabilities(PARAMS, deph, count, 8))


def _mix_rows(monkeypatch):
    """Alice's two ++ rows mixed, so that each amplitude has two
    contributing configurations; not a physical network."""
    rows, arms = saw._alice_clicks()
    mixed = np.array([[1.0, 0.5j], [0.3, 1.0]]) @ rows
    monkeypatch.setattr(saw, "_alice_clicks", lambda: (mixed, arms))


# counts either side of 4096 and of 8192, against a run longer than three times 4096
BLOCK_EDGES = (4095, 4096, 4097, 8195)


@pytest.mark.parametrize("mixed", [False, True], ids=["network", "mixed-rows"])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_prefix_is_the_shorter_run_across_blocks(monkeypatch, n, mixed):
    deph = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.3))
    if mixed:
        # populations constant over a run need one configuration per amplitude
        _mix_rows(monkeypatch)
        for entry in (saw.montecarlo_entries, saw.montecarlo_click_probabilities):
            with pytest.raises(ValueError, match="contributing configurations"):
                entry(PARAMS, deph, n, 8)
        return
    for whole, part in zip(_run_arrays(deph, 12293), _run_arrays(deph, n)):
        assert len(part) == n and whole[:n].tobytes() == part.tobytes()


def test_forms_match_complex_amplitudes_for_any_coefficients():
    deph = DephasingParams.from_total(1.3)
    n = 4103
    rows, arms = saw._alice_clicks()
    # the whole combined phase on one arm of weight +1, every configuration's own phase kept
    on = arms[:, saw._PHASE_WEIGHTS.index(1)]
    phases = np.exp(-1j * np.outer(saw._sample_phases(deph, n, 5), on))
    cases = (PARAMS, TeleportParams(0.0, 0.4), TeleportParams(1.0, 2.0), TeleportParams(0.8, -2.5))
    for params in cases:
        coeffs = rows * protocol.premeasurement_amplitudes("preparation", params.R, params.phi)
        alpha, beta = (phases @ c for c in coeffs)
        p = abs(alpha) ** 2 + abs(beta) ** 2
        clicks = saw.montecarlo_click_probabilities(params, deph, n, 5)
        # one configuration per amplitude: p is a constant of the run
        assert np.ptp(clicks) == 0.0
        assert np.max(np.abs(clicks - p)) < 1e-12
        entries = saw.montecarlo_entries(params, deph, n, 5)
        wanted = (abs(alpha) ** 2, abs(beta) ** 2, alpha * np.conj(beta))
        for got, want in zip(entries, wanted):
            assert np.max(np.abs(got - want / p)) < 1e-12
        rho00, rho11, rho01 = (x.mean() for x in entries)
        mean = np.array([[rho00, rho01], [np.conj(rho01), rho11]]) / (rho00 + rho11)
        averaged = dephased_state_montecarlo(params, deph, n, 5)
        assert np.max(np.abs(averaged.rho - mean)) < 1e-14


def test_averaged_state_is_the_mean_of_the_stack():
    deph = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.0))
    for params in (PARAMS, TeleportParams(0.0, 0.4), TeleportParams(1.0, 2.0)):
        stack = montecarlo_states(params, deph, 500, seed=3)
        mean = stack.mean(axis=0)
        averaged = dephased_state_montecarlo(params, deph, 500, seed=3)
        assert np.max(np.abs(averaged.rho - mean / np.trace(mean).real)) < 1e-14


def _bytes(out):
    """The bytes of a result, signed zeros included."""
    if isinstance(out, saw.QubitState):
        return out.rho.tobytes()
    if isinstance(out, tuple):
        return tuple(_bytes(x) for x in out)
    return np.asarray(out).tobytes()


RUN_ENTRY_POINTS = (
    saw.montecarlo_entries,
    saw.montecarlo_click_probabilities,
    dephased_state_montecarlo,
)


def fidelity_samples_of_run(params, deph, n_states, seed):
    """`fidelity_samples` called with a run's count and seed."""
    return fidelity_samples([sum(deph.variances)], n_states, seed)


BAD_RUNS = {  # (n_samples, seed)
    "n-0": (0, 1),
    "n-minus-3": (-3, 1),
    "n-float": (2.5, 1),
    "n-str": ("3", 1),
    "n-None": (None, 1),
    "seed-None": (5, None),
    "seed-float": (5, 1.5),
    "seed-list": (5, [1, 2]),
}


@pytest.mark.parametrize("n_samples, seed", BAD_RUNS.values(), ids=BAD_RUNS)
@pytest.mark.parametrize(
    "entry", RUN_ENTRY_POINTS + (fidelity_samples_of_run,), ids=lambda entry: entry.__name__
)
def test_montecarlo_rejects_empty_sample(entry, n_samples, seed):
    # one contract for the three entry points of a run and the sampled
    # fidelities: an integer count of at least 1, an integer seed
    with pytest.raises(ValueError):
        entry(PARAMS, DephasingParams.from_total(1.0), n_samples, seed)


@pytest.mark.parametrize("entry", RUN_ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_montecarlo_takes_numpy_integer_seeds(entry):
    deph = DephasingParams.from_total(1.0)
    want = _bytes(entry(PARAMS, deph, 20, 9))
    assert _bytes(entry(PARAMS, deph, 20, np.int64(9))) == want


@pytest.mark.parametrize("entry", RUN_ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_mixed_rows_are_rejected_by_every_entry_point(monkeypatch, entry):
    # populations constant over a run need one configuration per amplitude
    _mix_rows(monkeypatch)
    with pytest.raises(ValueError, match="contributing configurations"):
        entry(PARAMS, DephasingParams.from_total(1.3), 50, 5)


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


def test_sampled_average_agrees_with_closed_form():
    n = 20_000
    for sigma2, samples in zip((0.5, 2.0), fidelity_samples((0.5, 2.0), n, seed=3)):
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - average_fidelity(sigma2)) < 3.0 * se
    assert next(fidelity_samples([0.0], 100, seed=0)).mean() == 1.0


def test_sampled_rows_share_one_direction_draw():
    grid = (0.0, 0.3, 2.0)
    for sigma2, row in zip(grid, fidelity_samples(grid, 500, seed=8)):
        assert np.array_equal(row, next(fidelity_samples([sigma2], 500, seed=8)))


def test_sampled_fidelity_rejects_empty_sample():
    with pytest.raises(ValueError):
        fidelity_samples([1.0], 0, seed=0)


@pytest.mark.parametrize("seed", [None, 1.5, [1, 2]], ids=["None", "float", "list"])
def test_sampled_fidelity_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        fidelity_samples([1.0], 5, seed)
    numpy_seeded = next(fidelity_samples([1.0], 5, np.int64(4)))
    assert np.array_equal(numpy_seeded, next(fidelity_samples([1.0], 5, 4)))
