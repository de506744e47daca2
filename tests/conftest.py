import hashlib
import json
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from gridpilot.feeder import build_admittance, builtin_feeder_path, load_feeder
from gridpilot.scenario import GenConfig

# Every hypothesis test draws the same examples on every run (seeded from
# the test itself) and keeps no example database on disk. A test's own
# @settings only adds to this profile.
settings.register_profile("gridpilot", derandomize=True, database=None, deadline=None)
settings.load_profile("gridpilot")


def pytest_configure(config):
    # hypothesis still caches source constants and unicode tables in its home
    # directory; keep them out of the checkout, in one removed after the run
    home = tempfile.mkdtemp(prefix="gridpilot-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


# Scenario-generation settings the bundled fixtures were tuned against.
# synth34 runs its feeder head at 1.045 p.u.; 4bus at 1.04 p.u.
SYNTH34_SLACK = 1.045
FOURBUS_SLACK = 1.04


def synth34_gen(count: int) -> GenConfig:
    return GenConfig(count=count, load_scale_range=(0.008, 0.045),
                     power_factor_range=(0.97, 1.0), households_per_node=2)


def fourbus_gen(count: int) -> GenConfig:
    return GenConfig(count=count, load_scale_range=(0.1, 0.5),
                     power_factor_range=(0.95, 1.0), households_per_node=2)


def rewrite_csv(path, text: str) -> None:
    """Replace a written scenario CSV and stamp its new sha256 into the
    sidecar beside it, so the reader's checks of the rows themselves run."""
    path = pathlib.Path(path)
    path.write_text(text)
    sidecar = path.with_name(path.name + ".meta.json")
    meta = json.loads(sidecar.read_text())
    meta["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    sidecar.write_text(json.dumps(meta))


def replaced(node, old, new):
    """A copy of the parsed JSON ``node`` with every value equal to ``old``
    replaced by ``new``: renaming a bus id renames every reference to it."""
    if isinstance(node, dict):
        return {key: replaced(value, old, new) for key, value in node.items()}
    if isinstance(node, list):
        return [replaced(value, old, new) for value in node]
    return new if node == old else node


@pytest.fixture(scope="session")
def feeder2():
    return load_feeder(builtin_feeder_path("2bus"))


@pytest.fixture(scope="session")
def feeder4():
    return load_feeder(builtin_feeder_path("4bus"))


@pytest.fixture(scope="session")
def feeder34():
    return load_feeder(builtin_feeder_path("synth34"))


@pytest.fixture(scope="session")
def admittance4(feeder4):
    return build_admittance(feeder4)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
