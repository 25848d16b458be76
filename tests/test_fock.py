import itertools
import math

import numpy as np
import pytest

from eteleport.fock import (
    DETECTION_MODES,
    INPUT_MODES,
    OUTPUT_MODES,
    FockState,
    ModeRegistry,
    SingleParticleUnitary,
    combination_table,
    create_sources,
    lift_amplitudes,
    lift_matrix,
    mass,
    occupations,
)
from eteleport import circuit, protocol
from eteleport.protocol import TeleportParams


def random_unitary(m, rng):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(registry, n, rng):
    size = math.comb(len(registry), n)
    amps = np.array([rng.normal() + 1j * rng.normal() for _ in range(size)])
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.tolist()))
    return FockState(registry, n, amps / norm)


def small_registry(m):
    return ModeRegistry(tuple(f"m{i}" for i in range(m)))


def _configs(state):
    """The state's sector configurations, in combination order."""
    return combination_table(len(state.registry), state.particle_number)[1]


def amplitude(state, occupied_labels):
    """The amplitude of the configuration occupying exactly these modes."""
    config = sum(1 << i for i in state.registry.indices(occupied_labels))
    (column,) = np.flatnonzero(_configs(state) == config)
    return state.amps[column]


def lift(u, state):
    """The state evolved by the lift of one unitary."""
    return FockState(u.rows, state.particle_number, lift_amplitudes(u, state))


def moment(state, labels):
    """The mean (one label) or central moment (two or three) of the modes'
    occupations, each sum over the configurations added left to right."""
    occ = occupations(state.registry, _configs(state), labels)
    means = [state.mass(column.astype(bool)) for column in occ.T]
    if len(labels) == 1:
        return means[0]
    return mass(state.probabilities * np.prod(occ - means, axis=1), slice(None))


def project(state, label, n):
    """Probability that a mode holds n particles, and the renormalized state
    restricted to it; probability zero yields the zero state."""
    keep = occupations(state.registry, _configs(state), (label,))[:, 0] == n
    p = state.mass(keep)
    scale = 1.0 / math.sqrt(p) if p else 0.0
    kept = np.where(keep, state.amps * scale, 0)
    return p, FockState(state.registry, state.particle_number, kept)


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
    assert np.count_nonzero(state.amps) == 1
    assert amplitude(state, ("S_phi0", "S_phi1", "S_psi")) == 1.0


def test_vacuum_state():
    state = create_sources(INPUT_MODES, ())
    assert state.particle_number == 0
    assert _configs(state).tolist() == [0] and state.amps.tolist() == [1.0]


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
    assert amplitude(direct, ("m0", "m1")) == 1.0
    assert amplitude(swapped, ("m0", "m1")) == -1.0


def test_from_terms_drops_excluded_term():
    reg = small_registry(2)
    state = FockState.from_terms(reg, [(1.0, ("m0", "m0")), (1.0, ("m0", "m1"))])
    assert amplitude(state, ("m0", "m1")) == 1.0
    assert np.count_nonzero(state.amps) == 1


def test_from_terms_keeps_tiny_coefficients():
    # no amplitude is cut for being small: a 1e-15 term keeps its value, and
    # so do the teleporting branch's B'0 amplitudes, 0.5 sqrt(R) at R = 1e-30
    reg = small_registry(2)
    state = FockState.from_terms(reg, [(1.0, ("m0",)), (1e-15, ("m1",))])
    assert amplitude(state, ("m1",)) == 1e-15
    params = TeleportParams(1e-30, 0.3)
    branch = protocol.teleporting_branch(params)
    a = protocol.input_amplitudes(params)[0]
    for pair in (("A0+", "A1+"), ("A0-", "A1-"), ("A0+", "A1-"), ("A0-", "A1+")):
        assert abs(amplitude(branch, pair + ("B0p",))) == abs(0.5 * a) > 0.0


# --- lift_amplitudes ---

def test_identity_returns_input_exactly():
    rng = np.random.default_rng(1)
    state = random_state(small_registry(5), 2, rng)
    identity = SingleParticleUnitary(np.eye(5), state.registry, state.registry)
    evolved = lift(identity, state)
    assert np.array_equal(evolved.amps, state.amps)


def test_two_mode_splitter_amplitudes():
    reg = small_registry(2)
    block = circuit.element_matrix(circuit.sym_splitter("m0", "m1"))
    u = SingleParticleUnitary(block, reg, reg)
    out = lift(u, create_sources(reg, ("m0",)))
    assert amplitude(out, ("m0",)) == pytest.approx(1j / math.sqrt(2))
    assert amplitude(out, ("m1",)) == pytest.approx(1 / math.sqrt(2))


def test_teleport_network_overlap_with_teleporting_branch():
    # half the amplitude squared ends up in the branch that teleports
    network = circuit.teleport_network("detection", 0.5, 0.0)
    state = lift(network, create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi")))
    branch = protocol.teleporting_branch(TeleportParams(0.5, 0.0))
    assert abs(branch.overlap(state)) ** 2 == pytest.approx(0.25, abs=1e-12)


def test_norm_preserved_random_unitaries():
    rng = np.random.default_rng(7)
    reg = small_registry(6)
    for _ in range(20):
        u = SingleParticleUnitary(random_unitary(6, rng), reg, reg)
        state = random_state(reg, 3, rng)
        evolved = lift(u, state)
        assert abs(evolved.norm() - 1.0) < 1e-10


def test_composition_matches_matrix_product():
    rng = np.random.default_rng(8)
    for m, n in ((4, 2), (6, 3), (5, 1)):
        reg = small_registry(m)
        u1 = SingleParticleUnitary(random_unitary(m, rng), reg, reg)
        u2 = SingleParticleUnitary(random_unitary(m, rng), reg, reg)
        state = random_state(reg, n, rng)
        step = lift(u2, lift(u1, state))
        combined = lift(SingleParticleUnitary(u2.matrix @ u1.matrix, reg, reg), state)
        assert np.max(np.abs(step.amps - combined.amps)) < 1e-10


def test_particle_number_and_exclusion_invariants():
    rng = np.random.default_rng(9)
    reg = small_registry(6)
    state = random_state(reg, 3, rng)
    for _ in range(5):
        u = SingleParticleUnitary(random_unitary(6, rng), reg, reg)
        state = lift(u, state)
        assert state.particle_number == 3 and state.amps.shape == (20,)
        for config in _configs(state)[state.amps != 0].tolist():
            assert config.bit_count() == 3


def test_rejects_non_unitary():
    reg = small_registry(2)
    with pytest.raises(ValueError):
        SingleParticleUnitary(np.array([[1.0, 0.0], [0.1, 1.0]]), reg, reg)


def test_relabel_takes_only_a_row_permutation():
    reg = small_registry(3)
    u = SingleParticleUnitary(random_unitary(3, np.random.default_rng(11)), reg, reg)
    rows, cols = ModeRegistry(("x0", "x1", "x2")), ModeRegistry(("y0", "y1", "y2"))
    view = u.relabel(rows, cols, [2, 0, 1])
    assert np.array_equal(view.matrix, u.matrix[[2, 0, 1]])
    assert (view.rows, view.cols) == (rows, cols)
    for order in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="permutation"):
            u.relabel(ModeRegistry(tuple(f"x{i}" for i in range(len(order)))), cols, order)
    with pytest.raises(ValueError, match="input modes"):
        u.relabel(rows, small_registry(2), [0, 1, 2])


def test_rejects_registry_mismatch():
    rng = np.random.default_rng(10)
    u = SingleParticleUnitary(random_unitary(3, rng), small_registry(3), small_registry(3))
    other = random_state(ModeRegistry(("x0", "x1", "x2")), 1, rng)
    with pytest.raises(ValueError):
        lift_amplitudes(u, other)


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
    """Dense antisymmetrized tensor evolution; independent of lift_amplitudes."""
    m = len(state.registry)
    n = state.particle_number
    psi = np.zeros((m,) * n, dtype=complex)
    for config, amp in zip(_configs(state).tolist(), state.amps.tolist()):
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
            fast = lift(u, state)
            dense = first_quantized_evolution(u.matrix, state)
            assert set(dense) <= set(_configs(fast).tolist())
            for config, a in zip(_configs(fast).tolist(), fast.amps.tolist()):
                assert abs(a - dense.get(config, 0.0)) < 1e-10


def test_lift_matrix_is_unitary():
    rng = np.random.default_rng(12)
    reg = small_registry(4)
    u = SingleParticleUnitary(random_unitary(4, rng), reg, reg)
    _, lifted = lift_matrix(u, 2)
    assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(6))) < 1e-12


# --- selection ---

def test_project_definite_occupation():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi"))
    p, post = project(state, "S_psi", 1)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(post.amps, state.amps)


def test_chained_projections_give_joint_probability():
    network = circuit.teleport_network("tomography", 0.5, 0.0, 1.0, 0.0)
    state = lift(network, create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi")))
    joint = 1.0
    for label, n in (("A0+", 1), ("A1+", 1), ("A0-", 0), ("A1-", 0)):
        p, state = project(state, label, n)
        joint *= p
    assert joint == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_project_vacuum_is_empty():
    vacuum = create_sources(INPUT_MODES, ())
    p, post = project(vacuum, "S_psi", 1)
    assert p == 0.0
    assert not post.amps.any()


# --- occupation moments ---

def tomography_state(R, phi, setting):
    # the tomography stage has one row per setting, in TOMO_SETTINGS order
    amps = protocol.premeasurement_amplitudes("tomography", R, phi)
    amps = amps[list(protocol.TOMO_SETTINGS).index(setting)]
    return FockState(OUTPUT_MODES, 3, amps)


def test_mean_occupation_at_bob():
    for setting in ("X", "Y", "Z"):
        state = tomography_state(0.37, 0.9, setting)
        assert moment(state, ("B0",)) == pytest.approx(0.5, abs=1e-12)


def test_pair_central_moment():
    state = tomography_state(0.5, 0.0, "Z")
    value = moment(state, ("A0+", "A1+"))
    assert value == pytest.approx(-1.0 / 16.0, abs=1e-12)
    state = tomography_state(0.3, 1.1, "Y")
    assert moment(state, ("A0+", "A1+")) == pytest.approx(
        -0.3 * 0.7 / 4.0, abs=1e-12
    )


def test_third_central_moment_of_deterministic_mode_vanishes():
    state = create_sources(INPUT_MODES, ("S_phi0", "S_phi1", "S_psi"))
    assert moment(state, ("S_phi0", "S_phi1", "S_psi")) == pytest.approx(
        0.0, abs=1e-15
    )


MOMENT_KEYS = (("A0+",), ("B1",), ("A0+", "A1-"), ("A1+", "B0"), ("A0+", "A1+", "B1"))


def _moment_block(setting):
    """The raw moments of MOMENT_KEYS at a setting, rows of the coefficient table."""
    rows = [protocol._MOMENT_LABELS.index(labels) for labels in MOMENT_KEYS]
    return protocol._table().moments[list(protocol.TOMO_SETTINGS).index(setting), rows]


# --- array routes against the bit loops they replaced ---

def test_occupations_match_bit_loop():
    reg = small_registry(6)
    state = random_state(reg, 3, np.random.default_rng(13))
    labels = ("m4", "m0", "m2")
    expected = [[(c >> reg.index(lab)) & 1 for lab in labels] for c in _configs(state).tolist()]
    assert occupations(reg, _configs(state), labels).tolist() == expected


def test_projection_and_product_mean_equal_loop_references():
    # same arithmetic in the same order, so the results are equal, not close
    state = tomography_state(0.37, 1.3, "X")
    i, j = state.registry.indices(("A0+", "B1"))
    both, p = 0.0, 0.0
    pairs = list(zip(_configs(state).tolist(), state.amps.tolist()))
    for c, a in pairs:
        if (c >> i) & 1 and (c >> j) & 1:
            both += abs(a) ** 2
        if not (c >> i) & 1:
            p += abs(a) ** 2
    occ = occupations(state.registry, _configs(state), ("A0+", "B1"))
    assert state.mass(occ.all(axis=1)) == both
    got_p, post = project(state, "A0+", 0)
    assert got_p == p
    scale = 1.0 / math.sqrt(p)
    kept = [0j if (c >> i) & 1 else a * scale for c, a in pairs]
    assert post.amps.tolist() == kept


def test_moments_equal_left_to_right_loop_bitwise():
    # same arithmetic in the same order, so the results are equal, not close:
    # each configuration's coefficients against g = (|c0|^2, |c1|^2,
    # Re c0* c1, Im c0* c1) from its amplitudes x, y on the input qubit's two
    # rails, summed over the product's configurations, then taken against g
    setting = list(protocol.TOMO_SETTINGS).index("Y")
    x, y = (rows[setting].tolist() for rows in protocol._form_rows("tomography"))
    column = circuit.element_matrix(circuit.prep_splitter("A0p", "A1p", 0.37, 1.3))[:, 0]
    (re0, im0), (re1, im1) = ((c.real, c.imag) for c in column.tolist())
    g = (re0 * re0 + im0 * im0, re1 * re1 + im1 * im1, re0 * re1 + im0 * im1, re0 * im1 - im0 * re1)
    _, configs = combination_table(len(OUTPUT_MODES), 3)
    expected = []
    for labels in MOMENT_KEYS:
        shifts = OUTPUT_MODES.indices(labels)
        t = [0.0] * 4
        for c, a, b in zip(configs.tolist(), x, y):
            if not all((c >> i) & 1 for i in shifts):
                continue
            ar, ai, br, bi = a.real, a.imag, b.real, b.imag
            # x y* and y x*, each product rounded on its own
            cross = (ar * br - ai * -bi, ar * -bi + ai * br)
            crossed = (br * ar - bi * -ai, br * -ai + bi * ar)
            turned = 0.0 * (crossed[0] - cross[0]) - 1.0 * (crossed[1] - cross[1])
            terms = (ar * ar - ai * -ai, br * br - bi * -bi, cross[0] + crossed[0], turned)
            t = [total + term for total, term in zip(t, terms)]
        expected.append(((t[0] * g[0] + t[1] * g[1]) + t[2] * g[2]) + t[3] * g[3])
    assert protocol._observables(_moment_block("Y"), 0.37, 1.3).tolist() == expected


def test_state_holds_the_given_vector():
    reg = small_registry(4)
    rng = np.random.default_rng(14)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = FockState(reg, 2, v)
    assert state.amps.tobytes() == v.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        state.amps[0] = 0.0
    assert v.flags.writeable  # the caller's array is copied, not frozen
    for wrong in (v[:5], np.append(v, 0.0), v.reshape(2, 3)):
        with pytest.raises(ValueError, match="expected a vector of 6 amplitudes"):
            FockState(reg, 2, wrong)


def test_overlap_requires_matching_spaces():
    a = create_sources(INPUT_MODES, ("S_phi0",))
    b = create_sources(DETECTION_MODES, ("A0+",))
    with pytest.raises(ValueError):
        a.overlap(b)
