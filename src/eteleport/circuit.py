"""Scattering elements, M-mode networks, and a small circuit text format.

Elements are 2x2 beamsplitters (or single-mode phase shifts) embedded
into an M x M identity and multiplied in application order.  Phases
follow the e^{-i*angle} convention used by the tunable splitters, so a
`phase` element with value v scatters a mode through e^{-i v}.
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

SYM_SPLITTER = "sym_splitter"
PREP_SPLITTER = "prep_splitter"
TOMO_SPLITTER = "tomo_splitter"
PHASE_SHIFT = "phase_shift"

_KEYWORD_TO_KIND = {
    "sym": SYM_SPLITTER,
    "prep": PREP_SPLITTER,
    "tomo": TOMO_SPLITTER,
    "phase": PHASE_SHIFT,
}
_KIND_TO_KEYWORD = {v: k for k, v in _KEYWORD_TO_KIND.items()}


@dataclass(frozen=True)
class ElementSpec:
    """One network element: kind, target mode(s), and its parameters.

    Probabilities are stored one per complementary pair (R with D = 1-R,
    D' with R' = 1-D'), angles in radians.
    """

    kind: str
    modes: tuple[str, ...]
    reflection: float | None = None  # R, prep splitter
    phi: float | None = None  # prep splitter phase
    transmission: float | None = None  # D', tomography splitter
    theta: float | None = None  # tomography splitter phase
    value: float | None = None  # phase shift angle

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        expected = 1 if self.kind == PHASE_SHIFT else 2
        if self.kind not in _KIND_TO_KEYWORD:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if len(self.modes) != expected or len(set(self.modes)) != expected:
            raise ValueError(f"{self.kind} requires {expected} distinct mode(s)")
        needed = tuple(field for _, field in _ELEMENT_PARAMS[_KIND_TO_KEYWORD[self.kind]])
        for name in ("reflection", "phi", "transmission", "theta", "value"):
            v = getattr(self, name)
            if (v is not None) != (name in needed):
                raise ValueError(f"{self.kind} takes parameters {needed}, got {name}")
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("reflection", "transmission"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def sym_splitter(a: str, b: str) -> ElementSpec:
    return ElementSpec(SYM_SPLITTER, (a, b))


def prep_splitter(a: str, b: str, reflection: float, phi: float) -> ElementSpec:
    return ElementSpec(PREP_SPLITTER, (a, b), reflection=reflection, phi=phi)


def tomo_splitter(a: str, b: str, transmission: float, theta: float) -> ElementSpec:
    return ElementSpec(TOMO_SPLITTER, (a, b), transmission=transmission, theta=theta)


def phase_shift(a: str, value: float) -> ElementSpec:
    return ElementSpec(PHASE_SHIFT, (a,), value=value)


def element_matrix(element: ElementSpec) -> np.ndarray:
    """Scattering matrix of one element: 2x2 for splitters, 1x1 for phases."""
    if element.kind == SYM_SPLITTER:
        return np.array([[1j, 1.0], [1.0, 1j]], dtype=complex) / math.sqrt(2.0)
    if element.kind == PREP_SPLITTER:
        r = element.reflection
        d = 1.0 - r
        ep = np.exp(-1j * element.phi)
        return np.array(
            [
                [1j * math.sqrt(r) * ep, math.sqrt(d) * ep],
                [math.sqrt(d), 1j * math.sqrt(r)],
            ],
            dtype=complex,
        )
    if element.kind == TOMO_SPLITTER:
        dp = element.transmission
        rp = 1.0 - dp
        et = np.exp(-1j * element.theta)
        return np.array(
            [
                [math.sqrt(dp) * et, -1j * math.sqrt(rp)],
                [-1j * math.sqrt(rp) * et, math.sqrt(dp)],
            ],
            dtype=complex,
        )
    return np.array([[np.exp(-1j * element.value)]], dtype=complex)


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
    """Embed each element into the declared mode space and multiply in order.

    Modes untouched by any element pass through as identity.
    """
    registry = ModeRegistry(description.modes)
    m = len(registry)
    total = np.eye(m, dtype=complex)
    for element in description.elements:
        block = element_matrix(element)
        idx = registry.indices(element.modes)
        embedded = np.eye(m, dtype=complex)
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                embedded[ia, ib] = block[a, b]
        total = embedded @ total
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

# The detector each wire ends on once the named layer has been applied;
# wires a layer does not end keep their name.
_LAYER_OUTPUTS = {
    "alice": {"A0": "A0+", "A0p": "A0-", "A1": "A1+", "A1p": "A1-"},
    "tomo": {"B0p": "B0", "B1p": "B1"},
}


def teleport_layers(
    reflection: float,
    phi: float,
    transmission: float,
    theta: float,
    arm_phases: Mapping[str, float] | None,
) -> dict[str, tuple[ElementSpec, ...]]:
    """The teleportation network, defined once, as named layers in
    application order.

    prep: the two symmetric source splitters and the input-qubit splitter;
    phase: one phase shift per arm listed in `arm_phases` (possibly none);
    alice: her two Bell-measurement splitters; tomo: Bob's splitter.
    """
    arm_phases = arm_phases or {}
    unknown = set(arm_phases) - set(ARM_WIRES)
    if unknown:
        raise ValueError(f"unknown dephasing arms {sorted(unknown)}")
    return {
        "prep": (
            sym_splitter("A0", "B0p"),
            sym_splitter("A1", "B1p"),
            prep_splitter("A0p", "A1p", reflection, phi),
        ),
        "phase": tuple(phase_shift(a, arm_phases[a]) for a in ARM_WIRES if a in arm_phases),
        "alice": (sym_splitter("A0", "A0p"), sym_splitter("A1", "A1p")),
        "tomo": (tomo_splitter("B0p", "B1p", transmission, theta),),
    }


def stage_labels(wires: tuple[str, ...], names: tuple[str, ...]) -> tuple[str, ...]:
    """What each wire is called once the named layers have been applied."""
    renamed = {w: lab for name in names for w, lab in _LAYER_OUTPUTS.get(name, {}).items()}
    return tuple(renamed.get(w, w) for w in wires)


def network_view(
    layers: Mapping[str, tuple[ElementSpec, ...]],
    names: tuple[str, ...],
    rows: ModeRegistry,
) -> SingleParticleUnitary:
    """The named layers, composed over the six wires in application order,
    as a map from INPUT_MODES to the stage labels `rows`."""
    composed = compose(CircuitDescription(TELEPORT_WIRES, sum((layers[n] for n in names), ())))
    labels = stage_labels(TELEPORT_WIRES, names)
    return SingleParticleUnitary(
        composed.matrix[[labels.index(label) for label in rows], :], rows, INPUT_MODES
    )


def builtin_teleport_description(
    reflection: float,
    phi: float,
    transmission: float,
    theta: float,
    arm_phases: Mapping[str, float] | None = None,
) -> CircuitDescription:
    """Teleportation network over the six wires, in application order.

    Source splitters come first, then optional per-arm phase shifts, then
    Alice's splitters and Bob's tomography splitter.
    """
    layers = teleport_layers(reflection, phi, transmission, theta, arm_phases)
    return CircuitDescription(TELEPORT_WIRES, sum(layers.values(), ()))


def builtin_teleport_network(
    reflection: float, phi: float, transmission: float, theta: float
) -> SingleParticleUnitary:
    """Full six-mode teleportation scattering matrix, inputs to detectors."""
    layers = teleport_layers(reflection, phi, transmission, theta, None)
    return network_view(layers, tuple(layers), OUTPUT_MODES)


def detection_network(
    reflection: float, phi: float, arm_phases: Mapping[str, float] | None = None
) -> SingleParticleUnitary:
    """Network up to Alice's detectors, Bob's tomography splitter omitted."""
    layers = teleport_layers(reflection, phi, 1.0, 0.0, arm_phases)
    return network_view(layers, ("prep", "phase", "alice"), DETECTION_MODES)


def preparation_network(reflection: float, phi: float) -> SingleParticleUnitary:
    """Source splitters only: inputs to the six mid-circuit arms."""
    layers = teleport_layers(reflection, phi, 1.0, 0.0, None)
    return network_view(layers, ("prep",), PREPARED_MODES)


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

# keyword -> ordered (parameter name in the file, ElementSpec field)
_ELEMENT_PARAMS = {
    "sym": (),
    "prep": (("R", "reflection"), ("phi", "phi")),
    "tomo": (("Dp", "transmission"), ("theta", "theta")),
    "phase": (("value", "value"),),
}


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
        n_modes = 1 if keyword == "phase" else 2
        params = _ELEMENT_PARAMS[keyword]
        if len(args) != n_modes + len(params):
            raise CircuitSyntaxError(
                f"{keyword} takes {n_modes} mode(s) and "
                f"{len(params)} parameter(s)",
                lineno,
                col,
            )
        element_modes = []
        for label, lcol in args[:n_modes]:
            if label not in modes:
                raise CircuitSyntaxError(f"undeclared mode {label!r}", lineno, lcol)
            element_modes.append(label)
        fields: dict[str, float] = {}
        for (pname, fname), (token, tcol) in zip(params, args[n_modes:]):
            prefix = pname + "="
            if not token.startswith(prefix):
                raise CircuitSyntaxError(
                    f"expected {prefix}<number>, got {token!r}", lineno, tcol
                )
            try:
                value = float(token[len(prefix):])
            except ValueError:
                raise CircuitSyntaxError(
                    f"invalid number in {token!r}", lineno, tcol + len(prefix)
                ) from None
            fields[fname] = value
        try:
            elements.append(
                ElementSpec(_KEYWORD_TO_KIND[keyword], tuple(element_modes), **fields)
            )
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc), lineno, col) from None
    if modes is None:
        raise CircuitSyntaxError("missing modes declaration", 1, 1)
    return CircuitDescription(modes, tuple(elements))


def format_circuit(description: CircuitDescription) -> str:
    """Serialize a description; parse(format(d)) == d."""
    lines = ["modes " + " ".join(description.modes)]
    for e in description.elements:
        keyword = _KIND_TO_KEYWORD[e.kind]
        parts = [keyword, *e.modes]
        for pname, fname in _ELEMENT_PARAMS[keyword]:
            parts.append(f"{pname}={getattr(e, fname)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
