"""Scattering elements, M-mode networks, and a small circuit text format.

Elements are 2x2 beamsplitters (or single-mode phase shifts) applied in
order to the rows of the modes they touch, starting from the M x M
identity.  Element parameters may be arrays, one value per point of a
parameter grid: the network is then a stack (..., M, M) built by the same
products.  Phases follow the e^{-i*angle} convention used by the tunable
splitters, so a `phase` element with value v scatters a mode through
e^{-i v}.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .fock import (
    DETECTION_MODES,
    INPUT_MODES,
    OUTPUT_MODES,
    PREPARED_MODES,
    ModeRegistry,
    SingleParticleUnitary,
)
from .scalar import _all_within

# A parameter: a float, or an array of them, one per point of a grid.
ArrayLike = float | np.ndarray

# Each element's circuit-file keyword -> (number of modes, parameter names
# in file order); the keyword and these names are an element's only names,
# and the table drives ElementSpec's checks, the parser, the formatter and
# element_matrix.
_ELEMENT_PARAMS = {
    "sym": (2, ()),
    "prep": (2, ("R", "phi")),
    "tomo": (2, ("Dp", "theta")),
    "phase": (1, ("value",)),
}
# The parameters that are probabilities, one per complementary pair (R with
# D = 1-R, D' with R' = 1-D'); the others are angles in radians.
_PROBABILITIES = ("R", "Dp")


@dataclass(frozen=True)
class ElementSpec:
    """One network element: its keyword, target mode(s), and its parameters
    in the keyword's order (`sym`: none; `prep`: R, phi; `tomo`: Dp,
    theta; `phase`: value).

    A parameter may be an array of values, one per grid point, for a stack
    of networks; only specs with float parameters compare equal and format
    as text.
    """

    kind: str
    modes: tuple[str, ...]
    params: tuple[ArrayLike, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "params", tuple(self.params))
        if self.kind not in _ELEMENT_PARAMS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        n_modes, names = _ELEMENT_PARAMS[self.kind]
        if len(self.modes) != n_modes or len(set(self.modes)) != n_modes:
            raise ValueError(f"{self.kind} requires {n_modes} distinct mode(s)")
        if len(self.params) != len(names):
            raise ValueError(f"{self.kind} takes parameters {names}, got {len(self.params)}")
        for name, v in zip(names, self.params):
            if not _all_within(v):
                raise ValueError(f"{name} must be finite and real, got {v!r}")
            if name in _PROBABILITIES and not _all_within(v, 0.0, 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def sym_splitter(a: str, b: str) -> ElementSpec:
    return ElementSpec("sym", (a, b))


def prep_splitter(a: str, b: str, reflection: ArrayLike, phi: ArrayLike) -> ElementSpec:
    return ElementSpec("prep", (a, b), (reflection, phi))


def tomo_splitter(a: str, b: str, transmission: ArrayLike, theta: ArrayLike) -> ElementSpec:
    return ElementSpec("tomo", (a, b), (transmission, theta))


def phase_shift(a: str, value: ArrayLike) -> ElementSpec:
    return ElementSpec("phase", (a,), (value,))


def _stack2x2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] for every point of the entries' broadcast shape."""
    shape = np.broadcast(a, b, c, d).shape
    if not shape:  # one point: a literal is cheaper than four strided writes
        return np.array([[a, b], [c, d]], dtype=complex)
    block = np.empty(shape + (2, 2), dtype=complex)
    block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1] = a, b, c, d
    return block


# the symmetric splitter's block, built once
_SYM_BLOCK = np.array([[1j, 1.0], [1.0, 1j]], dtype=complex) / math.sqrt(2.0)
_SYM_BLOCK.flags.writeable = False


def element_matrix(element: ElementSpec) -> np.ndarray:
    """Scattering matrix of one element: 2x2 for splitters, 1x1 for phases,
    stacked over the shape of array parameters."""
    if element.kind == "sym":
        return _SYM_BLOCK
    values = [np.asarray(v, dtype=float) for v in element.params]
    if element.kind == "prep":
        r, phi = values
        ep = np.exp(-1j * phi)
        isr, sd = 1j * np.sqrt(r), np.sqrt(1.0 - r)
        return _stack2x2(isr * ep, sd * ep, sd, isr)
    if element.kind == "tomo":
        dp, theta = values
        et = np.exp(-1j * theta)
        sd, isr = np.sqrt(dp), -1j * np.sqrt(1.0 - dp)
        return _stack2x2(sd * et, isr, isr * et, sd)
    (value,) = values
    return np.exp(-1j * value)[..., None, None]


@dataclass(frozen=True)
class CircuitDescription:
    """Declared mode order plus elements in application order."""

    modes: tuple[str, ...]
    elements: tuple[ElementSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "elements", tuple(self.elements))
        registry = ModeRegistry(self.modes)  # checks uniqueness
        for element in self.elements:
            for mode in element.modes:
                if mode not in registry:
                    raise ValueError(f"element references undeclared mode {mode!r}")


def compose(description: CircuitDescription) -> SingleParticleUnitary:
    """The network of a description over its declared modes; a stack of
    networks, one per grid point, when element parameters are arrays.

    Each element, in application order, replaces the rows of its modes by
    its block times those rows; modes untouched by any element pass
    through as identity.
    """
    registry = ModeRegistry(description.modes)
    blocks = [element_matrix(element) for element in description.elements]
    shape = ()
    for block in blocks:
        if block.shape[:-2] != shape:
            shape = np.broadcast_shapes(shape, block.shape[:-2])
    m = len(registry)
    total = np.empty(shape + (m, m), dtype=complex)
    total[...] = np.eye(m)
    # products added term by term rather than by a BLAS matrix product:
    # cheap for stacks, and these roundings are what verify prints
    for element, block in zip(description.elements, blocks):
        b = block[..., None]  # each entry broadcast along a row
        if len(element.modes) == 1:
            i = registry.index(element.modes[0])
            total[..., i, :] = b[..., 0, 0, :] * total[..., i, :]
            continue
        i, j = registry.indices(element.modes)
        r0, r1 = total[..., i, :].copy(), total[..., j, :].copy()
        total[..., i, :] = b[..., 0, 0, :] * r0 + b[..., 0, 1, :] * r1
        total[..., j, :] = b[..., 1, 0, :] * r0 + b[..., 1, 1, :] * r1
    return SingleParticleUnitary(total, registry, registry)


# ---------------------------------------------------------------------------
# Built-in teleportation network
# ---------------------------------------------------------------------------

# Wire names carry the meaning each line has between the source splitters
# and Alice's; wire order matches INPUT_MODES, so column k of every network
# view is fed by input mode k.
TELEPORT_WIRES = ("A0", "B0p", "A1", "B1p", "A0p", "A1p")

# Dephasing arms, i.e. the wires between the source splitters and Alice's.
ARM_WIRES = ("A0p", "A1p", "A0", "A1", "B0p", "B1p")

# The parameter-free elements, built and checked once: the two symmetric
# source splitters and Alice's two splitters.
_SOURCE_SPLITTERS = (sym_splitter("A0", "B0p"), sym_splitter("A1", "B1p"))
_ALICE_SPLITTERS = (sym_splitter("A0", "A0p"), sym_splitter("A1", "A1p"))

# The detector each wire ends on once the named layer has been applied;
# wires a layer does not end keep their name.
_LAYER_OUTPUTS = {
    "alice": {"A0": "A0+", "A0p": "A0-", "A1": "A1+", "A1p": "A1-"},
    "tomo": {"B0p": "B0", "B1p": "B1"},
}


def teleport_layers(
    reflection: ArrayLike,
    phi: ArrayLike,
    transmission: ArrayLike,
    theta: ArrayLike,
    arm_phases: Mapping[str, ArrayLike] | None,
) -> dict[str, tuple[ElementSpec, ...]]:
    """The teleportation network, defined once, as named layers in
    application order.

    prep: the two symmetric source splitters and the input-qubit splitter;
    phase: one phase shift per arm listed in `arm_phases` (possibly none),
    in ARM_WIRES order; alice: her two Bell-measurement splitters; tomo:
    Bob's splitter.  An unknown arm, or a phase that is not finite and
    real, is a ValueError.
    """
    arm_phases = arm_phases or {}
    unknown = set(arm_phases) - set(ARM_WIRES)
    if unknown:
        raise ValueError(f"unknown dephasing arms {sorted(unknown)}")
    return {
        "prep": _SOURCE_SPLITTERS + (prep_splitter("A0p", "A1p", reflection, phi),),
        "phase": tuple(phase_shift(a, arm_phases[a]) for a in ARM_WIRES if a in arm_phases),
        "alice": _ALICE_SPLITTERS,
        "tomo": (tomo_splitter("B0p", "B1p", transmission, theta),),
    }


def stage_labels(wires: tuple[str, ...], names: tuple[str, ...]) -> tuple[str, ...]:
    """What each wire is called once the named layers have been applied."""
    renamed = {w: lab for name in names for w, lab in _LAYER_OUTPUTS.get(name, {}).items()}
    return tuple(renamed.get(w, w) for w in wires)


def alice_splitters(wires: tuple[str, ...]) -> SingleParticleUnitary:
    """Alice's layer alone, over wires that include her four, as a map from
    the wires to the detectors they end on.  The layer takes no parameter."""
    composed = compose(CircuitDescription(wires, _ALICE_SPLITTERS))
    detectors = ModeRegistry(stage_labels(wires, ("alice",)))
    return SingleParticleUnitary(composed.matrix, detectors, composed.cols)


# Stage -> the layers applied up to it and the labels of its output rows.
STAGES = {
    "preparation": (("prep",), PREPARED_MODES),
    "detection": (("prep", "phase", "alice"), DETECTION_MODES),
    "tomography": (("prep", "phase", "alice", "tomo"), OUTPUT_MODES),
}


def teleport_network(
    stage: str,
    reflection: ArrayLike,
    phi: ArrayLike,
    transmission: ArrayLike = 1.0,
    theta: ArrayLike = 0.0,
    arm_phases: Mapping[str, ArrayLike] | None = None,
) -> SingleParticleUnitary:
    """The teleportation network up to a stage, as a map from INPUT_MODES
    to the stage's output labels.

    preparation: the source splitters only, onto the six arms;
    detection: up to Alice's detectors, Bob's splitter omitted;
    tomography: the full network, Bob's splitter included.
    Array parameters broadcast together and give a stack of networks, one
    per grid point, composed in one pass.  Unitarity is checked once, by
    `compose`; the stage view only reorders the rows and renames the modes.
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {sorted(STAGES)}, got {stage!r}")
    names, rows = STAGES[stage]
    layers = teleport_layers(reflection, phi, transmission, theta, arm_phases)
    composed = compose(CircuitDescription(TELEPORT_WIRES, sum((layers[n] for n in names), ())))
    labels = stage_labels(TELEPORT_WIRES, names)
    return composed.relabel(rows, INPUT_MODES, [labels.index(label) for label in rows])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

class CircuitSyntaxError(ValueError):
    """Parse failure with 1-based line and column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_+\-]*$")
_TOKEN_RE = re.compile(r"\S+")


def parse_circuit(text: str) -> CircuitDescription:
    """Parse the line-oriented circuit grammar.

    One `modes` declaration must precede all elements; `#` starts a
    comment.  Errors carry line/column positions.
    """
    modes: tuple[str, ...] | None = None
    elements: list[ElementSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        args = tokens[1:]
        if keyword == "modes":
            if modes is not None:
                raise CircuitSyntaxError("duplicate modes declaration", lineno, col)
            if not args:
                raise CircuitSyntaxError("modes declaration lists no modes", lineno, col)
            for label, lcol in args:
                if not _LABEL_RE.match(label):
                    raise CircuitSyntaxError(f"invalid mode label {label!r}", lineno, lcol)
            labels = tuple(label for label, _ in args)
            if len(set(labels)) != len(labels):
                raise CircuitSyntaxError("duplicate mode label", lineno, col)
            modes = labels
            continue
        if keyword not in _ELEMENT_PARAMS:
            raise CircuitSyntaxError(f"unknown element kind {keyword!r}", lineno, col)
        if modes is None:
            raise CircuitSyntaxError(
                "element before the modes declaration", lineno, col
            )
        n_modes, names = _ELEMENT_PARAMS[keyword]
        if len(args) != n_modes + len(names):
            raise CircuitSyntaxError(
                f"{keyword} takes {n_modes} mode(s) and {len(names)} parameter(s)",
                lineno,
                col,
            )
        element_modes = []
        for label, lcol in args[:n_modes]:
            if label not in modes:
                raise CircuitSyntaxError(f"undeclared mode {label!r}", lineno, lcol)
            element_modes.append(label)
        params = []
        for name, (token, tcol) in zip(names, args[n_modes:]):
            prefix = name + "="
            if not token.startswith(prefix):
                raise CircuitSyntaxError(
                    f"expected {prefix}<number>, got {token!r}", lineno, tcol
                )
            try:
                params.append(float(token[len(prefix):]))
            except ValueError:
                raise CircuitSyntaxError(
                    f"invalid number in {token!r}", lineno, tcol + len(prefix)
                ) from None
        try:
            elements.append(ElementSpec(keyword, tuple(element_modes), tuple(params)))
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), lineno, col) from None
    if modes is None:
        raise CircuitSyntaxError("missing modes declaration", 1, 1)
    return CircuitDescription(modes, tuple(elements))


def format_circuit(description: CircuitDescription) -> str:
    """Serialize a description; parse(format(d)) == d."""
    lines = ["modes " + " ".join(description.modes)]
    for e in description.elements:
        _, names = _ELEMENT_PARAMS[e.kind]
        parts = [e.kind, *e.modes, *(f"{n}={float(v)!r}" for n, v in zip(names, e.params))]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
