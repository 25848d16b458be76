import itertools
import math

import numpy as np
import pytest

from eteleport.fock import (
    DETECTION_MODES,
    INPUT_MODES,
    FockState,
    ModeRegistry,
    SingleParticleUnitary,
    create_sources,
    lift_apply,
    lift_matrix,
    occupation_moments,
    occupation_product_mean,
    occupations,
    project_number,
)
from eteleport import circuit, protocol
from eteleport.protocol import TeleportParams


def random_unitary(m, rng):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(registry, n, rng):
    m = len(registry)
    amps = {}
    for combo in itertools.combinations(range(m), n):
        c = 0
        for i in combo:
            c |= 1 << i
        amps[c] = rng.normal() + 1j * rng.normal()
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return FockState(registry, n, {c: a / norm for c, a in amps.items()})


def small_registry(m):
    return ModeRegistry(tuple(f"m{i}" for i in range(m)))


# --- registries ---

def test_registry_rejects_duplicates():
    with pytest.raises(ValueError):
        ModeRegistry(("a", "b", "a"))


def test_registry_unknown_label():
    reg = small_registry(3)
    with pytest.raises(ValueError):
        reg.index("nope")


# --- create_sources ---

def test_three_sources():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi"))
    assert state.particle_number == 3
    assert len(state.amplitudes) == 1
    assert state.amplitude(("S_phi0", "S_phi1", "S_psi")) == 1.0


def test_vacuum_state():
    state = create_sources(INPUT_MODES, ())
    assert state.particle_number == 0
    assert state.amplitudes == {0: 1.0}


def test_duplicate_source_rejected():
    with pytest.raises(ValueError):
        create_sources(INPUT_MODES, ("S_phi0", "S_phi0"))


def test_unknown_source_rejected():
    with pytest.raises(ValueError):
        create_sources(INPUT_MODES, ("S_phi0", "bogus"))


# --- from_terms sign conventions ---

def test_from_terms_reordering_sign():
    reg = small_registry(2)
    direct = FockState.from_terms(reg, [(1.0, ("m0", "m1"))])
    swapped = FockState.from_terms(reg, [(1.0, ("m1", "m0"))])
    assert direct.amplitude(("m0", "m1")) == 1.0
    assert swapped.amplitude(("m0", "m1")) == -1.0


def test_from_terms_drops_excluded_term():
    reg = small_registry(2)
    state = FockState.from_terms(reg, [(1.0, ("m0", "m0")), (1.0, ("m0", "m1"))])
    assert state.amplitude(("m0", "m1")) == 1.0
    assert len(state.amplitudes) == 1


# --- lift_apply ---

def test_identity_returns_input_exactly():
    rng = np.random.default_rng(1)
    state = random_state(small_registry(5), 2, rng)
    evolved = lift_apply(SingleParticleUnitary.identity(state.registry), state)
    assert set(evolved.amplitudes) == set(state.amplitudes)
    for config, amp in state.amplitudes.items():
        assert evolved.amplitudes[config] == amp


def test_two_mode_splitter_amplitudes():
    reg = small_registry(2)
    block = circuit.element_matrix(circuit.sym_splitter("m0", "m1"))
    u = SingleParticleUnitary(block, reg, reg)
    out = lift_apply(u, create_sources(reg, ("m0",)))
    assert out.amplitude(("m0",)) == pytest.approx(1j / math.sqrt(2))
    assert out.amplitude(("m1",)) == pytest.approx(1 / math.sqrt(2))


def test_teleport_network_overlap_with_teleporting_branch():
    # half the amplitude squared ends up in the branch that teleports
    network = circuit.detection_network(0.5, 0.0)
    state = lift_apply(network, create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi")))
    branch = protocol.teleporting_branch(TeleportParams(0.5, 0.0))
    assert abs(branch.overlap(state)) ** 2 == pytest.approx(0.25, abs=1e-12)


def test_norm_preserved_random_unitaries():
    rng = np.random.default_rng(7)
    reg = small_registry(6)
    for _ in range(20):
        u = SingleParticleUnitary(random_unitary(6, rng), reg, reg)
        state = random_state(reg, 3, rng)
        evolved = lift_apply(u, state)
        assert abs(evolved.norm() - 1.0) < 1e-10


def test_composition_matches_matrix_product():
    rng = np.random.default_rng(8)
    for m, n in ((4, 2), (6, 3), (5, 1)):
        reg = small_registry(m)
        u1 = SingleParticleUnitary(random_unitary(m, rng), reg, reg)
        u2 = SingleParticleUnitary(random_unitary(m, rng), reg, reg)
        state = random_state(reg, n, rng)
        step = lift_apply(u2, lift_apply(u1, state))
        combined = lift_apply(u2 @ u1, state)
        for config in set(step.amplitudes) | set(combined.amplitudes):
            a = step.amplitudes.get(config, 0.0)
            b = combined.amplitudes.get(config, 0.0)
            assert abs(a - b) < 1e-10


def test_particle_number_and_exclusion_invariants():
    rng = np.random.default_rng(9)
    reg = small_registry(6)
    state = random_state(reg, 3, rng)
    for _ in range(5):
        u = SingleParticleUnitary(random_unitary(6, rng), reg, reg)
        state = lift_apply(u, state)
        assert state.particle_number == 3
        for config in state.amplitudes:
            assert config.bit_count() == 3


def test_rejects_non_unitary():
    reg = small_registry(2)
    with pytest.raises(ValueError):
        SingleParticleUnitary(np.array([[1.0, 0.0], [0.1, 1.0]]), reg, reg)


def test_rejects_registry_mismatch():
    rng = np.random.default_rng(10)
    u = SingleParticleUnitary(random_unitary(3, rng), small_registry(3), small_registry(3))
    other = random_state(ModeRegistry(("x0", "x1", "x2")), 1, rng)
    with pytest.raises(ValueError):
        lift_apply(u, other)


# --- brute-force first-quantized oracle ---

def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def first_quantized_evolution(matrix, state):
    """Dense antisymmetrized tensor evolution; independent of lift_apply."""
    m = len(state.registry)
    n = state.particle_number
    psi = np.zeros((m,) * n, dtype=complex)
    for config, amp in state.amplitudes.items():
        occ = [i for i in range(m) if (config >> i) & 1]
        for perm in itertools.permutations(range(n)):
            idx = tuple(occ[p] for p in perm)
            psi[idx] += amp * _perm_sign(perm) / math.sqrt(math.factorial(n))
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(matrix, psi, axes=(1, axis)), 0, axis)
    out = {}
    for combo in itertools.combinations(range(m), n):
        a = psi[combo] * math.sqrt(math.factorial(n))
        if abs(a) > 1e-12:
            c = 0
            for i in combo:
                c |= 1 << i
            out[c] = a
    return out


def test_lift_agrees_with_first_quantized_oracle():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4):
        for n in (1, 2):
            if n > m:
                continue
            reg = small_registry(m)
            u = SingleParticleUnitary(random_unitary(m, rng), reg, reg)
            state = random_state(reg, n, rng)
            fast = lift_apply(u, state)
            dense = first_quantized_evolution(u.matrix, state)
            for config in set(fast.amplitudes) | set(dense):
                a = fast.amplitudes.get(config, 0.0)
                b = dense.get(config, 0.0)
                assert abs(a - b) < 1e-10


def test_lift_matrix_is_unitary():
    rng = np.random.default_rng(12)
    reg = small_registry(4)
    u = SingleParticleUnitary(random_unitary(4, rng), reg, reg)
    _, lifted = lift_matrix(u, 2)
    assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(6))) < 1e-12


# --- project_number ---

def test_project_definite_occupation():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi"))
    p, post = project_number(state, "S_psi", 1)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert post.amplitudes == state.amplitudes


def test_chained_projections_give_joint_probability():
    network = circuit.builtin_teleport_network(0.5, 0.0, 1.0, 0.0)
    state = lift_apply(network, create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi")))
    joint = 1.0
    for label, n in (("A0+", 1), ("A1+", 1), ("A0-", 0), ("A1-", 0)):
        p, state = project_number(state, label, n)
        joint *= p
    assert joint == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_project_vacuum_is_empty():
    vacuum = create_sources(INPUT_MODES, ())
    p, post = project_number(vacuum, "S_psi", 1)
    assert p == 0.0
    assert post.is_empty


def test_project_rejects_bad_outcome():
    state = create_sources(INPUT_MODES, ("S_psi",))
    with pytest.raises(ValueError):
        project_number(state, "S_psi", 2)


# --- occupation moments ---

def tomography_state(R, phi, setting):
    return protocol.run_premeasurement(TeleportParams(R, phi, setting), "tomography")


def test_mean_occupation_at_bob():
    for setting in ("X", "Y", "Z"):
        state = tomography_state(0.37, 0.9, setting)
        assert occupation_moments(state, ("B0",)) == pytest.approx(0.5, abs=1e-12)


def test_pair_central_moment():
    state = tomography_state(0.5, 0.0, "Z")
    value = occupation_moments(state, ("A0+", "A1+"))
    assert value == pytest.approx(-1.0 / 16.0, abs=1e-12)
    state = tomography_state(0.3, 1.1, "Y")
    assert occupation_moments(state, ("A0+", "A1+")) == pytest.approx(
        -0.3 * 0.7 / 4.0, abs=1e-12
    )


def test_third_central_moment_of_deterministic_mode_vanishes():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi"))
    assert occupation_moments(state, ("S_phi0", "S_phi1", "S_psi")) == pytest.approx(
        0.0, abs=1e-15
    )


def test_repeated_label_rejected():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1"))
    with pytest.raises(ValueError):
        occupation_moments(state, ("S_phi0", "S_phi0"))
    with pytest.raises(ValueError):
        occupation_product_mean(state, ("S_phi0", "S_phi0"))


def test_occupation_product_mean():
    state = tomography_state(0.5, 0.0, "Z")
    pp = occupation_product_mean(state, ("A0+", "A1+", "B0"))
    pm = occupation_product_mean(state, ("A0+", "A1+", "B1"))
    # the two terms split the ++ outcome mass between Bob's detectors
    assert pp + pm == pytest.approx(1.0 / 16.0, abs=1e-12)


# --- array routes against the bit loops they replaced ---

def test_occupations_match_bit_loop():
    reg = small_registry(6)
    state = random_state(reg, 3, np.random.default_rng(13))
    labels = ("m4", "m0", "m2")
    expected = [[(c >> reg.index(lab)) & 1 for lab in labels] for c in state.amplitudes]
    assert occupations(reg, state.configs, labels).tolist() == expected


def test_projection_and_product_mean_equal_loop_references():
    # same arithmetic in the same order, so the results are equal, not close
    state = tomography_state(0.37, 1.3, "X")
    i, j = state.registry.indices(("A0+", "B1"))
    both, p = 0.0, 0.0
    for c, a in state.amplitudes.items():
        if (c >> i) & 1 and (c >> j) & 1:
            both += abs(a) ** 2
        if not (c >> i) & 1:
            p += abs(a) ** 2
    assert occupation_product_mean(state, ("A0+", "B1")) == both
    got_p, post = project_number(state, "A0+", 0)
    assert got_p == p
    scale = 1.0 / math.sqrt(p)
    kept = {c: a * scale for c, a in state.amplitudes.items() if not (c >> i) & 1}
    assert dict(post.amplitudes) == kept


def test_overlap_requires_matching_spaces():
    a = create_sources(INPUT_MODES, ("S_phi0",))
    b = create_sources(DETECTION_MODES, ("A0+",))
    with pytest.raises(ValueError):
        a.overlap(b)
