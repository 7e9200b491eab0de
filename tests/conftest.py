import numpy as np
import pytest

from veldt import build_space, model_problem
from veldt.functional import VariationalProblem


def pytest_configure(config):
    # hypothesis caches the constants it scans from local modules while
    # collecting; keep that cache inside pytest's own cache directory
    from hypothesis.configuration import set_hypothesis_home_dir

    set_hypothesis_home_dir(config.rootpath / ".pytest_cache" / "hypothesis")


@pytest.fixture(scope="session")
def p1():
    return model_problem("P1")


@pytest.fixture(scope="session")
def p2():
    return model_problem("P2")


@pytest.fixture(scope="session")
def p3():
    return model_problem("P3")


@pytest.fixture(scope="session")
def p4():
    return model_problem("P4")


@pytest.fixture(scope="session")
def disc16():
    return build_space((0.0, np.pi), 1, "dirichlet", 16)


@pytest.fixture(scope="session")
def disc32():
    return build_space((0.0, np.pi), 1, "dirichlet", 32)


@pytest.fixture(scope="session")
def disc64():
    return build_space((0.0, np.pi), 1, "dirichlet", 64)


@pytest.fixture(scope="session")
def beam8():
    return build_space((0.0, 1.0), 2, "dirichlet", 8)


@pytest.fixture(scope="session")
def periodic5():
    return build_space((0.0, 2.0 * np.pi), 1, "periodic", 5)


@pytest.fixture(scope="session")
def prob_p1_64(p1, disc64):
    return VariationalProblem(model=p1, disc=disc64)


@pytest.fixture(scope="session")
def prob_p2_32(p2, disc32):
    return VariationalProblem(model=p2, disc=disc32)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
