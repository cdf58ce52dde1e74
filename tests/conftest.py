"""Shared fixtures: small deterministic graphs and networkx oracles."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edge_list, rmat


@pytest.fixture(scope="session")
def small_rmat():
    """A scale-10 RMAT miniature shared by kernel cross-validation tests."""
    return rmat(scale=10, edge_factor=16, seed=1)


@pytest.fixture(scope="session")
def small_rmat_nx(small_rmat):
    """networkx oracle view of :func:`small_rmat`."""
    g = nx.Graph(list(small_rmat.edges()))
    g.add_nodes_from(range(small_rmat.num_vertices))
    return g


@pytest.fixture
def fan_out_every_superstep(monkeypatch):
    """Send every sharded superstep to the workers.

    Floods of at most ``_LOCAL_SUPERSTEP_ARCS`` arcs run in the parent,
    which on test-sized graphs is all of them; suites that exist to
    exercise worker mechanics (rings, frames, per-worker telemetry,
    crash/stall handling) lower the threshold to 0 so they still do.
    """
    monkeypatch.setattr("repro.bsp.parallel._LOCAL_SUPERSTEP_ARCS", 0)


@pytest.fixture
def selection_forms(monkeypatch):
    """The form of every arc selection the in-process engine makes, in
    order: ``"full"`` (the slice, nothing left out), ``"complement"``
    (the slice less some quiet rows), ``"dense"`` (mask) or
    ``"sparse"``."""
    from repro.bsp.frontier import select_arcs

    forms = []

    def recording_select_arcs(senders, row_ptr, mode):
        selection = select_arcs(senders, row_ptr, mode)
        if isinstance(selection, slice):
            flood = int((row_ptr[senders + 1] - row_ptr[senders]).sum())
            forms.append("full" if flood == row_ptr[-1] else "complement")
        else:
            forms.append("dense" if selection.dtype == bool else "sparse")
        return selection

    monkeypatch.setattr("repro.bsp.dense.select_arcs", recording_select_arcs)
    return forms


@pytest.fixture
def two_triangles():
    """Two triangles sharing vertex 2 (bowtie): 2 triangles, known CCs."""
    return from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def to_networkx(graph):
    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    return g
