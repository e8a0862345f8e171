import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from fluidlob import load_config

from helpers import FIXTURES, strict_config

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the source in its
    # storage directory, `.hypothesis/` by default, from collection on; keep
    # that cache out of the checkout, in a directory removed after the run.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="fluidlob-hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


@pytest.fixture(scope="session")
def ref1():
    return load_config(FIXTURES / "ref1.json")


@pytest.fixture(scope="session")
def ref2():
    return load_config(FIXTURES / "ref2.json")


@pytest.fixture(scope="session")
def strict():
    return strict_config()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
