"""Acceptance gate: every criterion runs at its pinned tolerances and
prints the line `eteleport verify` printed for it before the exact engine
was batched over parameter grids (tests/data/verify.txt, never regenerated
to make this test pass)."""

from pathlib import Path

import pytest

from eteleport import acceptance, protocol
from eteleport.protocol import MeasurementOutcome

DATA = Path(__file__).resolve().parent / "data"
VERIFY_LINES = (DATA / "verify.txt").read_text().splitlines()


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda c: f"{c.number:02d}-{c.name}"
)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line)
    assert result.passed, result.line
    assert result.line == VERIFY_LINES[criterion.number - 1]


def test_nan_conditional_state_fails_criterion_2(monkeypatch):
    # the ++ element reads A0- in place of A0+: the amplitudes it keeps hold
    # no (A0+, A1+) configuration, so Bob's ++ state has no norm
    clicked = protocol.POVMElement.clicked

    def misread(self, registry, configs):
        if self.outcome == MeasurementOutcome.from_signs("+", "+"):
            self = protocol.POVMElement(MeasurementOutcome.from_signs("-", "+"))
        return clicked(self, registry, configs)

    monkeypatch.setattr(protocol.POVMElement, "clicked", misread)
    result = acceptance.ALL_CRITERIA[1].run()
    assert not result.passed
    assert result.line.startswith("FAIL  criterion  2")
