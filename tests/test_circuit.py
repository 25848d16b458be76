import math

import numpy as np
import pytest

from eteleport.acceptance import reference_network_matrix
from eteleport.circuit import (
    CircuitDescription,
    CircuitSyntaxError,
    ElementSpec,
    compose,
    element_matrix,
    format_circuit,
    parse_circuit,
    phase_shift,
    prep_splitter,
    sym_splitter,
    teleport_network,
    tomo_splitter,
)

SQRT2 = math.sqrt(2.0)


# --- element matrices ---

def test_symmetric_splitter_matrix():
    m = element_matrix(sym_splitter("a", "b"))
    assert np.allclose(m, np.array([[1j, 1], [1, 1j]]) / SQRT2, atol=1e-15)


def test_prep_splitter_full_reflection():
    m = element_matrix(prep_splitter("a", "b", 1.0, 0.0))
    assert np.allclose(m, np.array([[1j, 0], [0, 1j]]), atol=1e-15)


def test_prep_splitter_general_entries():
    m = element_matrix(prep_splitter("a", "b", 0.3, 1.2))
    ep = np.exp(-1.2j)
    assert m[0, 0] == pytest.approx(1j * math.sqrt(0.3) * ep)
    assert m[0, 1] == pytest.approx(math.sqrt(0.7) * ep)
    assert m[1, 0] == pytest.approx(math.sqrt(0.7))
    assert m[1, 1] == pytest.approx(1j * math.sqrt(0.3))


def test_tomo_splitter_identity_setting():
    m = element_matrix(tomo_splitter("a", "b", 1.0, 0.0))
    assert np.allclose(m, np.eye(2), atol=1e-15)


def test_phase_shift_convention():
    m = element_matrix(phase_shift("a", 0.4))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(np.exp(-0.4j))


def test_elements_unitary_over_many_draws():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(250):
        for e in (
            sym_splitter("a", "b"),
            prep_splitter("a", "b", rng.uniform(), rng.uniform(0, 2 * math.pi)),
            tomo_splitter("a", "b", rng.uniform(), rng.uniform(0, 2 * math.pi)),
            phase_shift("a", rng.uniform(-10, 10)),
        ):
            m = element_matrix(e)
            worst = max(worst, np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    assert worst < 1e-12


def test_element_parameter_validation():
    with pytest.raises(ValueError):
        prep_splitter("a", "b", 1.5, 0.0)
    with pytest.raises(ValueError):
        tomo_splitter("a", "b", -0.1, 0.0)
    with pytest.raises(ValueError):
        sym_splitter("a", "a")
    # a kind and a parameter count the parser never passes on
    with pytest.raises(ValueError, match="unknown element kind 'split'"):
        ElementSpec("split", ("a", "b"))
    with pytest.raises(ValueError, match=r"prep takes parameters \('R', 'phi'\), got 1"):
        ElementSpec("prep", ("a", "b"), (0.5,))


# --- composition ---

def test_compose_empty_is_identity():
    u = compose(CircuitDescription(("a", "b", "c"), ()))
    assert np.array_equal(u.matrix, np.eye(3))


def test_compose_two_symmetric_splitters():
    desc = CircuitDescription(
        ("a", "b", "c"), (sym_splitter("a", "b"), sym_splitter("a", "b"))
    )
    u = compose(desc).matrix
    # hand product of the 2x2 form with itself: an i-weighted swap
    expected = np.eye(3, dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.0
    expected[0, 1] = expected[1, 0] = 1j
    assert np.max(np.abs(u - expected)) < 1e-15


def test_compose_rejects_undeclared_mode():
    with pytest.raises(ValueError):
        CircuitDescription(("a", "b"), (sym_splitter("a", "z"),))


def test_untouched_modes_pass_through():
    desc = CircuitDescription(("a", "b", "c"), (sym_splitter("a", "b"),))
    u = compose(desc).matrix
    assert u[2, 2] == 1.0
    assert np.all(u[2, :2] == 0.0) and np.all(u[:2, 2] == 0.0)


# --- built-in network ---

def test_builtin_entry_checks():
    R, phi, Dp, theta = 0.3, 1.2, 0.6, 0.4
    u = teleport_network("tomography", R, phi, Dp, theta).matrix
    assert u[0, 4] == pytest.approx(1j * math.sqrt(R) * np.exp(-1j * phi) / SQRT2)
    assert u[4, 0] == pytest.approx(math.sqrt(Dp) * np.exp(-1j * theta) / SQRT2)


def test_builtin_unitary_for_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = teleport_network(
            "tomography",
            rng.uniform(), rng.uniform(0, 2 * math.pi),
            rng.uniform(), rng.uniform(0, 2 * math.pi),
        ).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12


def test_builtin_matches_reference_transcription():
    for R in (0.0, 0.3, 1.0):
        for phi in (0.0, 2.2):
            for Dp, theta in ((0.5, math.pi / 2), (0.5, 0.0), (1.0, 0.0), (0.2, 1.0)):
                built = teleport_network("tomography", R, phi, Dp, theta).matrix
                assert np.max(np.abs(built - reference_network_matrix(R, phi, Dp, theta))) < 1e-12


def test_unknown_arm_phase_rejected():
    with pytest.raises(ValueError):
        teleport_network("detection", 0.5, 0.0, arm_phases={"Q7": 0.1})


# --- parser ---

def test_smallest_program():
    desc = parse_circuit("modes a b\nsym a b\n")
    assert desc.modes == ("a", "b")
    assert desc.elements == (sym_splitter("a", "b"),)


def test_prep_field_mapping():
    desc = parse_circuit("modes a b\nprep a b R=0.5 phi=1.5708\n")
    (e,) = desc.elements
    R, phi = e.params
    assert e.kind == "prep" and R == 0.5
    assert phi == pytest.approx(math.pi / 2, abs=1e-4)


def test_comments_and_blank_lines():
    text = "# header\n\nmodes a b  # trailing\n\nsym a b\n# done\n"
    desc = parse_circuit(text)
    assert len(desc.elements) == 1


def test_roundtrip_is_identity():
    text = (
        "modes A0 B0p A1 B1p A0p A1p\n"
        "sym A0 B0p\n"
        "prep A0p A1p R=0.123456789012345 phi=-2.5\n"
        "phase A0 value=1e-3\n"
        "tomo B0p B1p Dp=0.5 theta=0.7853981633974483\n"
    )
    first = parse_circuit(text)
    assert parse_circuit(format_circuit(first)) == first


def test_roundtrip_keeps_numpy_float_parameters():
    # a grid loop hands out numpy scalars; they format as plain floats
    values = np.linspace(0.1, 0.3, 3)
    desc = CircuitDescription(
        ("a", "b"),
        (prep_splitter("a", "b", values[2], values[0]), phase_shift("b", np.float64(-0.0))),
    )
    text = format_circuit(desc)
    assert "np." not in text
    again = parse_circuit(text)
    assert again == desc
    assert [float(v).hex() for e in again.elements for v in e.params] == [
        float(v).hex() for e in desc.elements for v in e.params
    ]


def test_error_positions():
    for text, (line, col, message) in {
        "modes a b\nsplit a b\n": (2, 1, "unknown element kind 'split'"),
        "modes a b\nsym a z\n": (2, 7, "undeclared mode 'z'"),
        "modes a b\nprep a b R=0.5 phi=abc\n": (2, 20, "invalid number in 'phi=abc'"),
        "sym a b\n": (1, 1, "element before the modes declaration"),
        "modes\n": (1, 1, "modes declaration lists no modes"),
        "modes a 1b\n": (1, 9, "invalid mode label '1b'"),
        "modes a b a\n": (1, 1, "duplicate mode label"),
        "# no modes line\n": (1, 1, "missing modes declaration"),
    }.items():
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"line {line}, col {col}: {message}"


def test_parameter_out_of_range_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("modes a b\nprep a b R=1.5 phi=0\n")


def test_duplicate_modes_declaration_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("modes a b\nmodes c d\n")


def test_wrong_parameter_keyword_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("modes a b\ntomo a b R=0.5 theta=0\n")


def test_wrong_argument_count_rejected():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("modes a b\nsym a\n")
