"""Span recorder for the traced run.

Wrappers replace library functions at the module bindings their callers
look up (``protocol.lift_apply``, ``leviton.occupation_moments``,
``circuit.compose``, ...), so a call made from anywhere in the package
opens a span.  Each span holds its name, start, end, parent span and the
iteration it belongs to; spans stay in memory until ``dump``.  Wrappers
exist only between ``install`` and ``uninstall``: untimed or untraced
code never goes through them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from typing import Any, Callable

LIBRARY_MODULES = ("circuit", "fock", "protocol", "saw", "leviton", "acceptance")

# Private stages that carry their own per-layer metric.  A refactor may
# rename them; they are wrapped only when present.
PRIVATE_STAGES = {
    "saw": ("_sample_phases", "_conditional_amplitudes"),
}

# Work units recorded with a span, taken from the call's arguments or result.
WORK = {
    "saw._sample_phases": lambda args, result: args[1],
    "saw._conditional_amplitudes": lambda args, result: len(args[1]),
    "leviton.thermal_factors": lambda args, result: result.terms,
}

_clock = time.perf_counter


class Recorder:
    """In-memory spans: (name, start, end, parent, iteration, work)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ops: list[str] = []  # tag of each iteration id
        self._stack: list[int] = []
        self._iteration = -1

    def begin_op(self, tag: str) -> int:
        self.ops.append(tag)
        self._iteration = len(self.ops) - 1
        return self._iteration

    def call(self, name: str, fn: Callable, args, kwargs, work=None):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[idx] = (name, start, _clock(), parent, self._iteration, 0)
            stack.pop()
            raise
        end = _clock()
        stack.pop()
        amount = work(args, result) if work is not None else 0
        spans[idx] = (name, start, end, parent, self._iteration, amount)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return wrapper

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, p, _, work in child_spans:
            new_parent = parent if p < 0 else base + p
            self.spans.append((name, start, end, new_parent, self._iteration, work))

    def dump(self, path: str, extra: dict | None = None) -> None:
        columns = list(zip(*self.spans)) if self.spans else [[]] * 6
        record = {
            "fields": ["name", "start", "end", "parent", "iteration", "work"],
            "columns": [list(c) for c in columns],
            "ops": self.ops,
        }
        record.update(extra or {})
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt") as handle:
            json.dump(record, handle)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(recorder: Recorder) -> list[tuple[Any, str, Any]]:
    """Wrap library functions at every module binding; return the patches."""
    modules = {m: importlib.import_module(f"eteleport.{m}") for m in LIBRARY_MODULES}
    qualified = {f"eteleport.{m}" for m in LIBRARY_MODULES}
    patches: list[tuple[Any, str, Any]] = []
    for short, module in modules.items():
        private = PRIVATE_STAGES.get(short, ())
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ not in qualified:
                continue
            if attr.startswith("_") and attr not in private:
                continue
            name = f"{_short(value.__module__)}.{value.__name__}"
            patches.append((module, attr, value))
            setattr(module, attr, recorder.wrap(name, value))

    povm = modules["protocol"].POVMElement
    original = povm.__dict__["expectation"]
    patches.append((povm, "expectation", original))
    setattr(povm, "expectation", recorder.wrap("protocol.POVMElement.expectation", original))

    criterion = modules["acceptance"].Criterion
    run = criterion.__dict__["run"]

    def run_criterion(self):
        return recorder.call(f"acceptance.crit{self.number:02d}", run, (self,), {})

    patches.append((criterion, "run", run))
    setattr(criterion, "run", run_criterion)
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def missing_private_stages() -> list[str]:
    """Private stages named in PRIVATE_STAGES that the library no longer has."""
    missing = []
    for short, names in PRIVATE_STAGES.items():
        module = importlib.import_module(f"eteleport.{short}")
        missing += [f"{short}.{n}" for n in names if not hasattr(module, n)]
    return missing
