"""The package's import graph: ``gridpilot`` itself exports no names, so
importing one module loads only the modules that module depends on."""

import json
import os
import pathlib
import subprocess
import sys

import gridpilot

SRC = str(pathlib.Path(gridpilot.__file__).resolve().parents[1])


def loaded_by(module: str) -> set[str]:
    """Every module a fresh interpreter holds after ``import <module>``."""
    code = f"import sys, json; import {module}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True).stdout
    return set(json.loads(out))


def own(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "gridpilot" or m.startswith("gridpilot.")}


def test_package_import_loads_no_module():
    loaded = loaded_by("gridpilot")
    assert own(loaded) == {"gridpilot"}
    assert "numpy" not in loaded


def test_feeder_import_loads_only_its_dependencies():
    assert own(loaded_by("gridpilot.feeder")) == {
        "gridpilot", "gridpilot.feeder", "gridpilot.errors", "gridpilot.fileio"}


# the modules whose public functions the benchmark's traced runs wrap
TRACED_MODULES = ("feeder", "scenario", "powerflow", "nn", "dsse", "env", "ddpg", "runtime")

SCAN = f"""
import gc, importlib, inspect, json, types
import gridpilot.cli

def holders(module, name):
    return [type(h).__name__ for h in gc.get_referrers(getattr(module, name))
            if not isinstance(h, types.FrameType)
            and not (isinstance(h, dict) and "__name__" in h)]

def scan():
    found = {{}}
    for short in {TRACED_MODULES!r}:
        mod = importlib.import_module("gridpilot." + short)
        # names, not items(): an items tuple would itself hold each function
        for name in list(vars(mod)):
            fn = vars(mod)[name]
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                found[short + "." + name] = holders(mod, name)
    found["cli.main"] = holders(gridpilot.cli, "main")
    return found

print(json.dumps(scan()))
"""


def test_public_functions_are_bound_only_in_module_namespaces():
    """The traced benchmark wraps a public function by rebinding it in every
    module namespace, so any other reference to it (a default argument, a
    table entry, a closure cell) would keep calling the unwrapped original."""
    out = subprocess.run([sys.executable, "-c", SCAN], env={**os.environ, "PYTHONPATH": SRC},
                         check=True, capture_output=True, text=True).stdout
    found = json.loads(out)
    assert "env.env_step" in found and "cli.main" in found
    assert {name: held for name, held in found.items() if held} == {}
