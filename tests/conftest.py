import pathlib
import random

import pytest

from leavitt import parse_graph

from oracles import random_graph

FIXTURES_DIR = pathlib.Path(__file__).parent / "fixtures"

FIXTURE_NAMES = ["g1", "g2", "g3", "g4", "g5", "g6"]

CORPUS_SEED = 20260819


def load_fixture(name):
    return parse_graph((FIXTURES_DIR / f"{name}.lpa").read_text())


@pytest.fixture(scope="session")
def graphs():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def g1(graphs):
    return graphs["g1"]


@pytest.fixture(scope="session")
def g2(graphs):
    return graphs["g2"]


@pytest.fixture(scope="session")
def g3(graphs):
    return graphs["g3"]


@pytest.fixture(scope="session")
def g4(graphs):
    return graphs["g4"]


@pytest.fixture(scope="session")
def g5(graphs):
    return graphs["g5"]


@pytest.fixture(scope="session")
def g6(graphs):
    return graphs["g6"]


@pytest.fixture(scope="session")
def corpus(graphs):
    """The fixtures followed by the seeded random corpus of the acceptance gate."""
    rng = random.Random(CORPUS_SEED)
    return list(graphs.values()) + [random_graph(rng) for _ in range(100)]
