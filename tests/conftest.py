"""Shared fixtures: the four example graphs with their derived data.

Everything heavy (Perron data, periodicity groups, state families) is
session-scoped so the suite builds each object once.
"""

import pytest
from hypothesis import settings

from kgraphs import builders
from kgraphs.kms import KMSStates
from kgraphs.measure import CylinderMeasure
from kgraphs.periodicity import periodicity_group
from kgraphs.perron import MatrixFamily, perron_data

# Derandomized: every @given test draws the same examples on every run, and
# no example database or wall-clock deadline can change the outcome.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")

NAMES = ("b2", "fib", "pullback-b2", "product-b2-c2")


@pytest.fixture(scope="session")
def graphs():
    return {name: builders.FIXTURES[name]() for name in NAMES}


@pytest.fixture(scope="session")
def perron(graphs):
    return {name: perron_data(MatrixFamily.from_graph(g))
            for name, g in graphs.items()}


@pytest.fixture(scope="session")
def groups(graphs):
    return {name: periodicity_group(g, bound=2)
            for name, g in graphs.items()}


@pytest.fixture(scope="session")
def measures(graphs, perron):
    return {name: CylinderMeasure(graphs[name], perron[name])
            for name in NAMES}


@pytest.fixture(scope="session")
def states(graphs, perron, groups):
    return {name: KMSStates(graphs[name], perron[name], group=groups[name])
            for name in NAMES}


@pytest.fixture(scope="session")
def b2g(graphs):
    return graphs["b2"]


@pytest.fixture(scope="session")
def fibg(graphs):
    return graphs["fib"]


@pytest.fixture(scope="session")
def pb2g(graphs):
    return graphs["pullback-b2"]


@pytest.fixture(scope="session")
def prodg(graphs):
    return graphs["product-b2-c2"]
