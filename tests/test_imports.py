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
