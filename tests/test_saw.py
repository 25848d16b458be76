import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eteleport import acceptance, protocol, saw
from eteleport.protocol import MeasurementOutcome, TeleportParams, jozsa_fidelity
from eteleport.saw import (
    ARM_WIRES,
    DephasingParams,
    combined_phase,
    dephased_state_analytic,
    dephased_state_montecarlo,
)
from eteleport.scalar import average_fidelity, sampled_fidelity

PP = MeasurementOutcome.from_signs("+", "+")
PARAMS = TeleportParams(0.3, 1.2)


def run_states(run, trig):
    """Bob's ++-conditional density matrix per draw, written out from a
    run's constants and the cos and sin rows of its draws."""
    rho00, rho11, rho01 = _entries(run, *trig)
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


def test_click_probability_unaffected_by_noise():
    deph = DephasingParams.from_total(1.0)
    probs = saw.montecarlo_click_probabilities(PARAMS, deph, 1000, seed=5)
    assert np.max(np.abs(probs - 1.0 / 16.0)) < 1e-12


def test_montecarlo_converges_to_analytic():
    n = 20_000
    deph = DephasingParams.from_total(1.0)
    _, _, coherence = _full_array_entries(PARAMS, deph, n, seed=42)
    target = dephased_state_analytic(PARAMS, 1.0).rho[0, 1]
    for part in (np.real, np.imag):
        se = part(coherence).std(ddof=1) / math.sqrt(n)
        assert abs(part(coherence.mean()) - part(target)) < 3.0 * se + 1e-12


def test_only_total_variance_matters():
    # two splits with the same exact sum (dyadic variances) give the same run
    lopsided = DephasingParams((0.5, 0.0, 0.25, 0.0, 0.25, 0.0))
    spread = DephasingParams((0.125, 0.125, 0.25, 0.25, 0.125, 0.125))
    assert math.fsum(lopsided.variances) == math.fsum(spread.variances) == 1.0
    a = _bytes(saw._drawn_run(PARAMS, lopsided, 2000, 1)[1])
    b = _bytes(saw._drawn_run(PARAMS, spread, 2000, 1)[1])
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
    """The cos and sin of the draws and the clicks of the run of seed 8."""
    _, (cos, sin) = saw._drawn_run(PARAMS, deph, count, 8)
    return cos, sin, saw.montecarlo_click_probabilities(PARAMS, deph, count, 8)


# counts either side of 4096 and of 8192, against a run longer than three times 4096
BLOCK_EDGES = (4095, 4096, 4097, 8195)


@pytest.mark.parametrize("n", BLOCK_EDGES, ids=lambda n: f"{n}-network")
def test_prefix_is_the_shorter_run_across_blocks(n):
    deph = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.3))
    for whole, part in zip(_run_arrays(deph, 12293), _run_arrays(deph, n)):
        assert len(part) == n and whole[:n].tobytes() == part.tobytes()


def test_averaged_state_is_the_mean_of_the_stack():
    deph = DephasingParams((0.7, 0.0, 0.1, 0.0, 0.2, 0.0))
    for params in (PARAMS, TeleportParams(0.0, 0.4), TeleportParams(1.0, 2.0)):
        stack = run_states(*saw._drawn_run(params, deph, 500, 3))
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
    saw.montecarlo_click_probabilities,
    dephased_state_montecarlo,
)


def sampled_fidelity_of_run(params, deph, n_states, seed):
    """`sampled_fidelity` called with a run's count and seed."""
    return sampled_fidelity([sum(deph.variances)], n_states, seed)


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
    "entry", RUN_ENTRY_POINTS + (sampled_fidelity_of_run,), ids=lambda entry: entry.__name__
)
def test_montecarlo_rejects_empty_sample(entry, n_samples, seed):
    # one contract for the two entry points of a run and the sampled
    # fidelities: an integer count of at least 1 (2 for the fidelities,
    # see test_sampled_fidelity_rejects_empty_sample), an integer seed
    with pytest.raises(ValueError):
        entry(PARAMS, DephasingParams.from_total(1.0), n_samples, seed)


@pytest.mark.parametrize("entry", RUN_ENTRY_POINTS, ids=lambda entry: entry.__name__)
def test_montecarlo_takes_numpy_integer_seeds(entry):
    deph = DephasingParams.from_total(1.0)
    want = _bytes(entry(PARAMS, deph, 20, 9))
    assert _bytes(entry(PARAMS, deph, 20, np.int64(9))) == want


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
    for sigma2, (mean, se) in zip((0.5, 2.0), sampled_fidelity((0.5, 2.0), 20_000, seed=3)):
        assert abs(mean - average_fidelity(sigma2)) < 3.0 * se
    assert sampled_fidelity([0.0], 100, seed=0) == [(1.0, 0.0)]


def test_sampled_rows_share_one_direction_draw():
    # each sigma2 equals its own one-sigma2 call, bit for bit
    grid = (0.0, 0.3, 2.0)
    for sigma2, pair in zip(grid, sampled_fidelity(grid, 500, seed=8)):
        assert _bytes(pair) == _bytes(sampled_fidelity([sigma2], 500, seed=8)[0])


def test_sampled_fidelity_rejects_empty_sample(monkeypatch):
    # a spread needs two samples; rejected before anything is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    for n_states in (0, 1):
        with pytest.raises(ValueError, match="n_states must be at least 2"):
            sampled_fidelity([1.0], n_states, seed=0)


@pytest.mark.parametrize("seed", [None, 1.5, [1, 2]], ids=["None", "float", "list"])
def test_sampled_fidelity_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        sampled_fidelity([1.0], 5, seed)
    with pytest.raises(ValueError, match="n_states must be at least 2"):
        sampled_fidelity([1.0], 1, seed)
    numpy_seeded = sampled_fidelity([1.0], 5, np.int64(4))
    assert _bytes(numpy_seeded) == _bytes(sampled_fidelity([1.0], 5, 4))


# --- memory and bytes of the Monte Carlo routes ---

def _entries(run, cos, sin):
    """rho00, rho11 and rho01 as full arrays, written out as (1 + z)/2,
    (1 - z)/2 and ((x cos + s y sin) + i (s x sin - y cos)) / 2 from a
    run's constants and the cos and sin of its draws, s = `_ARM_SIGN`."""
    _, x, y, z = run
    s, n = saw._ARM_SIGN, len(cos)
    rho01 = np.empty(n, dtype=complex)
    rho01.real = (x * cos + s * y * sin) / 2.0
    rho01.imag = (s * x * sin - y * cos) / 2.0
    return np.full(n, (1.0 + z) / 2.0), np.full(n, (1.0 - z) / 2.0), rho01


def _full_array_entries(params, deph, n, seed, run=None):
    """The entries of the run of seed, from its draws and numpy's cos and
    sin of them, at the point's run constants or at the given ones."""
    draws = saw._sample_phases(deph, n, seed)
    run = saw._run_constants(params) if run is None else run
    return _entries(run, np.cos(draws), np.sin(draws))


def _per_state_fidelities(sigma2_values, n, seed):
    """Each drawn input's fidelity, 0.5 * (1 + (q (1 - u^2) + u^2)), one row
    per sigma2."""
    u = np.random.default_rng(seed).random(n)
    axial = u * u
    transverse = 1.0 - axial
    dampings = [math.exp(-sigma2 / 2.0) for sigma2 in sigma2_values]
    return tuple(0.5 * (1.0 + (damping * transverse + axial)) for damping in dampings)


def _written_out_sampled_fidelity(sigma2_values, n, seed):
    """(mean, stderr) per sigma2, written out as the affine law over numpy's
    mean() and std(ddof=1) of u^2."""
    u = np.random.default_rng(seed).random(n)
    axial = u * u
    mean, std = float(axial.mean()), float(axial.std(ddof=1))
    return [
        (0.5 * (1.0 + q) + 0.5 * (1.0 - q) * mean, 0.5 * (1.0 - q) * std / math.sqrt(n))
        for q in (math.exp(-sigma2 / 2.0) for sigma2 in sigma2_values)
    ]


R_VALUES = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
SIGMA2_VALUES = st.just(0.0) | st.floats(0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(
    R_VALUES,
    st.floats(-10.0, 10.0),
    st.lists(SIGMA2_VALUES, min_size=6, max_size=6),
    st.integers(1, 3000),
    st.integers(0, 2**32),
)
@example(0.3, 1.2, [1.0 / 6.0] * 6, 2000, 77)
@example(0.0, 0.4, [0.0] * 6, 50, 1)
@example(1.0, 2.0, [0.5] * 6, 8195, 12345)
def test_montecarlo_routes_equal_the_written_out_expressions(R, phi, variances, n, seed):
    # every Monte Carlo entry point and the sampled fidelities (of at least
    # two states), byte for byte, against the full-array expressions
    params, deph = TeleportParams(R, phi), DephasingParams(variances)
    clicks = saw.montecarlo_click_probabilities(params, deph, n, seed)
    assert _bytes(clicks) == _bytes(np.full(n, saw._run_constants(params).p))
    draws = saw._sample_phases(deph, n, seed)
    trig = np.array([np.cos(draws), np.sin(draws)])
    state = saw._run_state(saw._run_constants(params), *trig.mean(axis=1).tolist())
    assert _bytes(dephased_state_montecarlo(params, deph, n, seed)) == _bytes(state)
    sigma2_values = [math.fsum(variances), 0.0, 2.0 * math.log(2.0)]
    n_states = max(n, 2)
    want = _written_out_sampled_fidelity(sigma2_values, n_states, seed)
    assert _bytes(sampled_fidelity(sigma2_values, n_states, seed)) == _bytes(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 200_000), st.integers(0, 2**32), st.lists(SIGMA2_VALUES, min_size=1))
@example(2, 0, [1.0])
@example(3, 1, [0.0, 0.5])
@example(17, 2, [2.0])
@example(1000, 3, [1e-6])
@example(100_000, 12345, [0.0, 0.25, 2.0])
@example(123_457, 4, [5.0])
def test_sampled_fidelity_is_numpys_mean_and_std_bit_for_bit(n, seed, sigma2_values):
    # the spread formed in the draws' own buffer is numpy's std(ddof=1), and
    # the mean its mean(), so every row is the written-out law's bytes
    want = _written_out_sampled_fidelity(sigma2_values, n, seed)
    assert _bytes(sampled_fidelity(sigma2_values, n, seed)) == _bytes(want)


# `_montecarlo_spread` forms each spread at the unit vector (x, y)/r and
# scales it by r = hypot(x, y) last, so the spreads are compared over r, as
# variances, against the column built at the unit vector: against s + ref,
# s = sqrt(Var cos + Var sin) / 2 the largest spread either part can have at
# r = 1 (s < 1).  Each of the moments' three terms and centred sums rounds
# relative to its size, and the terms add up to at most s^2 <= s; each
# sample of the column rounds by an ulp or so of 1, which moves its variance
# by about ref ulps.  Near zero spread only the first survives: with a
# variance of 1e-300 the column's samples round to one value (ref = 0)
# while the moments see the draws' sin.  The largest
# |(std/r)^2 - ref^2| / (s + ref) over 23 000 random runs (n = 2 to 30 000;
# variances 0, 1e-300, 1e-32 to 1e-16 and up to 5; R uniform, subnormal,
# 1e-300, 1e-200 and within 1e-16 to 0.1 of 1) was 1.27 ulps of 1.0; the
# bound is twice that, rounded up to whole ulps.  At (x, y) itself, the
# squares of a subnormal R's x and y (about 1e-162) would underflow, and a
# bound r (s + ref) with them.
SPREAD_TOL = 3.0 * 2.0**-52
SPREAD_SIGMA2 = st.sampled_from((0.0, 1e-300)) | st.floats(0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(
    R_VALUES,
    st.floats(-10.0, 10.0),
    st.lists(SPREAD_SIGMA2, min_size=6, max_size=6),
    st.integers(2, 30_000),
    st.integers(0, 2**32),
)
@example(0.3, 1.2, [1.0 / 6.0] * 6, 30_000, 77)
@example(0.3, 1.2, [1e-300] * 6, 2, 0)
@example(0.7, 4.0, [0.0, 1e-300, 0.0, 1e-300, 0.0, 1.0], 3, 5)
@example(1.0, 2.0, [0.0] * 6, 8195, 12345)
# subnormal R, where x and y are about 1e-162 and 1e-156
@example(5e-324, 0.0, [0.0] * 5 + [1.0], 4, 1)
@example(2.225073858507e-311, 0.0, [0.0] * 5 + [1.0], 2, 0)
def test_montecarlo_spread_is_the_columns_mean_std(R, phi, variances, n, seed):
    # criterion 6's state is the averaged state's bytes, and its spreads
    # are r times numpy's std(ddof=1) of the rho01 column written out at
    # the unit vector
    params, deph = TeleportParams(R, phi), DephasingParams(variances)
    state, std_re, std_im = saw._montecarlo_spread(params, deph, n, seed)
    assert _bytes(state) == _bytes(dephased_state_montecarlo(params, deph, n, seed))
    run, trig = saw._drawn_run(params, deph, n, seed)
    r = math.hypot(run.x, run.y) or 1.0
    unit = run._replace(x=run.x / r, y=run.y / r)
    rho01 = _full_array_entries(params, deph, n, seed, unit)[2]
    s = math.sqrt(float(np.add.reduce(trig.var(axis=1, ddof=1)))) / 2.0
    for std, part in ((std_re, rho01.real), (std_im, rho01.imag)):
        ref, unit_std = float(part.std(ddof=1)), std / r
        assert abs(unit_std * unit_std - ref * ref) <= SPREAD_TOL * (s + ref)


def test_montecarlo_spread_needs_two_samples(monkeypatch):
    # a spread needs two samples; rejected before anything is drawn
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        saw._montecarlo_spread(PARAMS, DephasingParams.from_total(1.0), 1, 0)


# Per-state rows near 1 round to an ulp of [0.5, 1) (1.1e-16) before numpy
# sums them, while the affine law rounds once per sigma2: 4.44e-16 and
# 8.3e-17 at most over 15 000 random draws of n (2 to 30 000), five to
# seven sigma2 (0, 1e-12 and 1e-6 among them) and seed; each bound is
# twice that.
MEAN_TOL, STDERR_TOL = 8.9e-16, 1.7e-16


@settings(max_examples=100, deadline=None)
@given(
    st.lists(SIGMA2_VALUES, min_size=2, max_size=4).map(lambda s: [0.0, 1e-12, 1e-6, *s]),
    st.integers(2, 30_000),
    st.integers(0, 2**32),
)
@example([0.0, 1e-12, 1e-6, 1.0, 2.0 * math.log(2.0)], 2, 0)
@example([0.0, 1e-12, 1e-6, 0.5, 5.0], 30_000, 20260809)
def test_sampled_fidelity_is_the_rows_mean_and_stderr(sigma2_values, n, seed):
    # the affine law in u^2 against numpy's mean and std(ddof=1) / sqrt(n)
    # of each drawn input's own fidelity
    rows = _per_state_fidelities(sigma2_values, n, seed)
    for (mean, stderr), row in zip(sampled_fidelity(sigma2_values, n, seed), rows):
        assert abs(mean - row.mean()) <= MEAN_TOL
        assert abs(stderr - row.std(ddof=1) / math.sqrt(n)) <= STDERR_TOL


@pytest.mark.parametrize("params", [PARAMS, TeleportParams(0.0, 0.4), TeleportParams(1.0, 2.0)])
def test_constant_columns_are_read_only_views(params):
    deph = DephasingParams.from_total(1.0)
    clicks = saw.montecarlo_click_probabilities(params, deph, 300, 4)
    assert not clicks.flags.writeable
    assert clicks.tobytes() == np.full(300, saw._run_constants(params).p).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        clicks[0] = 0.5


def _traced_peak(call):
    """The tracemalloc peak of one call, after one untraced warm-up call
    has built the package's caches; numpy reports its data buffers."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_fidelity_holds_one_array_of_draws():
    # 100 000 draws are 0.8 MB; their spread is formed in their own buffer,
    # where numpy's std(ddof=1) would allocate a second one
    assert _traced_peak(lambda: sampled_fidelity([0.0, 0.5], 100_000, 12345)) <= 1_000_000


def test_montecarlo_memory_stays_at_four_columns():
    # four 100 000-sample float64 columns are 3.2 MB; criterion 6 keeps
    # three alive at once: the run's cos and sin, and their product or the
    # draws.  Its constant columns are views, and it builds no rho01
    criterion = acceptance.ALL_CRITERIA[5]
    assert criterion.number == 6
    assert _traced_peak(criterion.run) <= 2_500_000
