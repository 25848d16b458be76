"""Importing the package loads none of its modules, nor numpy; every exported
name resolves on first use; each CLI command, run in a fresh process,
loads exactly the package modules it runs, numpy only where it computes
with it, and never `dataclasses`; and the checks of `scalar` reject what
they rejected with numpy loaded up front."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eteleport

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "eteleport"

# runs one command as the eteleport entry point does, then prints its exit
# code, the package modules it loaded and whether numpy, `dataclasses` and
# `inspect` were loaded
CHILD = """
import contextlib, io, json, sys
from eteleport import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
modules = sorted(m for m in sys.modules if m.startswith("eteleport."))
print(json.dumps([code, modules, *(m in sys.modules for m in ("numpy", "dataclasses", "inspect"))]))
"""

EXACT = ["circuit", "fock", "protocol", "scalar"]
EVERY_MODULE = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# name -> (command line, modules besides cli it loads, whether it loads
# numpy); {tmp} is a fresh directory; the first six are the README's
# examples.  `saw` and `leviton` are scalar laws: `saw` imports numpy for
# its draws alone, `leviton` not at all
COMMANDS = {
    "ideal_text": (["ideal", "--R", "0.3", "--phi", "1.2"], EXACT, True),
    "ideal_json": (["ideal", "--R", "0.3", "--phi", "1.2", "--format", "json"], EXACT, True),
    "saw": (
        ["saw", "--sigma2", "0:2:0.25", "--n-states", "100000", "--format", "csv",
         "--output", "{tmp}/saw.csv"],
        ["scalar"],
        True,
    ),
    "leviton": (
        ["leviton", "--gamma", "0.02,0.05,0.1", "--tau", "0:2:0.05",
         "--output", "{tmp}/curve.csv"],
        ["scalar"],
        False,
    ),
    "correlators": (["correlators", "--R", "0.5", "--phi", "0.7"], [*EXACT, "leviton"], True),
    "circuit_check": (
        ["circuit-check", str(PACKAGE / "data" / "teleport.ckt")], ["circuit", "fock", "scalar"],
        True,
    ),
    "verify": (["verify"], [m for m in EVERY_MODULE if m != "cli"], True),
}

# imports `scalar` alone, then numpy, and prints whether numpy came with
# `scalar`, which of the values each check rejects with a ValueError, and
# the gamma LevitonParams keeps of a numpy float64
CHECKS = """
import json, sys
from eteleport.scalar import LevitonParams, sampled_fidelity
numpy_loaded = "numpy" in sys.modules
import numpy as np
def rejects(call, value):
    try:
        call(value)
    except ValueError:
        return True
    return False
checks = [lambda v: LevitonParams(v, 0.5), lambda v: sampled_fidelity([v], 10, 0)]
values = [[0.1], np.array(np.nan), np.float32("nan")]
rejected = [[rejects(call, value) for value in values] for call in checks]
print(json.dumps([numpy_loaded, rejected, LevitonParams(np.float64(0.1), 0.5).gamma]))
"""

USAGE_ERRORS = {
    "n_states": ["saw", "--n-states", "1"],
    "grid": ["leviton", "--tau", "0:1:0"],
    "tolerance": ["correlators", "--tolerance", "0"],
    "argument": ["ideal", "--R", "x"],
}


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """Each command of COMMANDS and USAGE_ERRORS, and a bare import of the
    package, in its own process, all started at once: name -> stdout."""
    tmp = tmp_path_factory.mktemp("closure")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    # the exports dir() misses before any name is used, then what is loaded
    bare = (
        "import json, sys, eteleport; "
        "missing = sorted(set(eteleport.__all__) - set(dir(eteleport))); "
        "loaded = sorted(m for m in sys.modules if m.startswith(('eteleport', 'numpy'))); "
        "print(json.dumps([missing, loaded]))"
    )
    runs = {"import": ["-c", bare], "checks": ["-c", CHECKS]}
    for name, argv in [*((n, a) for n, (a, _, _) in COMMANDS.items()), *USAGE_ERRORS.items()]:
        runs[name] = ["-c", CHILD, *(a.replace("{tmp}", str(tmp)) for a in argv)]
    started = {
        name: subprocess.Popen(
            [sys.executable, "-W", "error", *args],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for name, args in runs.items()
    }
    outputs = {}
    try:
        for name, child in started.items():
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, (name, err.decode())
            outputs[name] = json.loads(out)
    finally:
        for child in started.values():
            child.kill()
            child.communicate()
    return outputs


def test_bare_import_loads_no_module_and_lists_every_export(children):
    assert children["import"] == [[], ["eteleport"]]


@pytest.mark.parametrize("name", COMMANDS)
def test_command_loads_its_closure(children, name):
    _, modules, numpy_loaded = COMMANDS[name]
    expected = [0, sorted(f"eteleport.{m}" for m in ["cli", *modules]), numpy_loaded]
    assert children[name][:3] == expected


@pytest.mark.parametrize("name", COMMANDS)
def test_command_loads_no_dataclasses(children, name):
    # the package's records are plain classes: no code is generated for them
    assert children[name][3] is False


def test_leviton_loads_neither_dataclasses_nor_inspect(children):
    # nor the ast, dis and tokenize modules `inspect` imports; numpy loads
    # `inspect` for the other commands
    assert children["leviton"][3:] == [False, False]


def test_scalar_checks_reject_non_numbers_without_numpy_loaded(children):
    # `scalar` comes without numpy; its checks import numpy for a value that
    # is not a Python int or float, reject a list, a NaN 0-d array and a
    # float32 NaN, and take a float64 as the float it is
    assert children["checks"] == [False, [[True] * 3] * 2, 0.1]


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_exits_before_numpy(children, name):
    assert children[name][:3] == [2, ["eteleport.cli"], False]


def test_every_export_resolves_to_its_module():
    namespace = {}
    exec("from eteleport import *", namespace)
    for name, module in eteleport._EXPORTS.items():
        defined = getattr(importlib.import_module(f"eteleport.{module}"), name)
        assert getattr(eteleport, name) is defined, name
        assert namespace[name] is defined, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eteleport.no_such_name
    assert not hasattr(eteleport, "_integer")  # a module's private name is not exported
