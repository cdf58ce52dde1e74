"""Synthetic graph generators.

The paper's experiments run on an undirected, scale-free **RMAT** graph
(Chakrabarti, Zhan & Faloutsos, SDM 2004) with 16M vertices and 268M edges
— i.e. Graph500 scale 24 with edge factor 16 and the standard quadrant
probabilities a=0.57, b=0.19, c=0.19, d=0.05.  :func:`rmat` reproduces that
generator exactly (recursive quadrant descent with per-level probability
noise disabled by default), vectorized over all edges at once: the
``perf/`` benchmark's scale-15 graph takes about 0.1 s on a 2-vCPU VM, of
which drawing the random numbers is 35–40 ms.

Also provided: Erdős–Rényi G(n, m), Watts–Strogatz small-world rewiring
(the paper's background cites Watts & Strogatz), Barabási–Albert
preferential attachment with optional triad closure (denser-triangle
graphs for the §V density projection), and deterministic test
topologies (stars, rings, paths, grids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.csr import VERTEX_DTYPE, CSRGraph

__all__ = [
    "RMATParameters",
    "GRAPH500_RMAT",
    "barabasi_albert",
    "rmat",
    "rmat_edges",
    "erdos_renyi",
    "watts_strogatz",
    "star_graph",
    "ring_graph",
    "path_graph",
    "two_d_grid",
]


@dataclass(frozen=True)
class RMATParameters:
    """RMAT quadrant probabilities and sizing.

    ``scale`` gives ``n = 2**scale`` vertices; ``edge_factor`` gives
    ``m = edge_factor * n`` generated edge pairs (before dedup/self-loop
    removal, exactly as Graph500 counts them).
    """

    scale: int = 14
    edge_factor: int = 16
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if self.edge_factor <= 0:
            raise ValueError("edge_factor must be positive")
        probs = (self.a, self.b, self.c, self.d)
        if any(p < 0 for p in probs):
            raise ValueError("quadrant probabilities must be non-negative")
        if not np.isclose(sum(probs), 1.0, atol=1e-9):
            raise ValueError("quadrant probabilities must sum to 1")

    @property
    def num_vertices(self) -> int:
        return 1 << self.scale

    @property
    def num_edge_pairs(self) -> int:
        return self.edge_factor * self.num_vertices


#: The exact parameterization used by the paper (and Graph500): scale 24 in
#: the paper; scale 14 is this reproduction's default miniature.
GRAPH500_RMAT = RMATParameters()


def rmat_edges(
    params: RMATParameters,
    seed: int | np.random.Generator = 1,
) -> np.ndarray:
    """Generate the raw RMAT edge pair array, duplicates and loops included.

    Each edge independently descends ``scale`` levels of the recursive 2x2
    adjacency-matrix partition; at each level one quadrant is chosen with
    probabilities (a, b, c, d), contributing one bit to each endpoint id.
    All edges are drawn simultaneously: the loop below runs ``scale`` times
    over vectors of length ``m`` rather than ``m`` times over ``scale``.
    The bits accumulate in place, in the narrowest unsigned type that holds
    ``n - 1`` (uint16 up to scale 16), and widen to int64 once at the end.
    The draws do not depend on that type (two ``rng.random(m)`` per level,
    row first), so a seed gives the same edges, and the same graph
    fingerprint, at any width.

    Returns an ``(m, 2)`` int64 array.
    """
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    m = params.num_edge_pairs
    bits = np.min_scalar_type(params.num_vertices - 1)
    src = np.zeros(m, dtype=bits)
    dst = np.zeros(m, dtype=bits)
    ab = params.a + params.b
    a_frac = params.a / ab if ab > 0 else 0.0
    cd = params.c + params.d
    c_frac = params.c / cd if cd > 0 else 0.0
    for _ in range(params.scale):
        r_row = rng.random(m)
        r_col = rng.random(m)
        # Row bit: 1 with probability c + d (lower half of the matrix).
        row_bit = r_row >= ab
        # Column bit depends on which half the row landed in.
        col_threshold = np.where(row_bit, c_frac, a_frac)
        col_bit = r_col >= col_threshold
        src <<= 1
        src |= row_bit
        dst <<= 1
        dst |= col_bit
    return np.column_stack([src, dst]).astype(VERTEX_DTYPE)


def rmat(
    scale: int = 14,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    seed: int | np.random.Generator = 1,
    directed: bool = False,
) -> CSRGraph:
    """Generate a simple RMAT graph ready for the kernels.

    Matches the paper's input recipe: generate ``edge_factor * 2**scale``
    RMAT pairs, drop self loops and duplicates, and symmetrize (the paper's
    graphs are undirected).  Note the resulting unique-edge count is below
    the nominal ``edge_factor * n`` because RMAT repeats hot edges; the
    paper's "268 million edges" counts generated pairs the same way.
    """
    params = RMATParameters(scale=scale, edge_factor=edge_factor, a=a, b=b, c=c, d=d)
    edges = rmat_edges(params, seed)
    return from_edge_array(edges, params.num_vertices, directed=directed)


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int | np.random.Generator = 1,
    directed: bool = False,
) -> CSRGraph:
    """G(n, m)-style random graph: ``num_edges`` uniform pairs, then dedup."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    pairs = rng.integers(0, num_vertices, size=(num_edges, 2), dtype=VERTEX_DTYPE)
    return from_edge_array(pairs, num_vertices, directed=directed)


def watts_strogatz(
    num_vertices: int,
    k: int = 4,
    rewire_prob: float = 0.1,
    *,
    seed: int | np.random.Generator = 1,
) -> CSRGraph:
    """Watts–Strogatz small-world graph (ring lattice + random rewiring).

    Each vertex starts connected to its ``k`` nearest ring neighbours
    (``k`` must be even); each lattice edge's far endpoint is rewired to a
    uniform random vertex with probability ``rewire_prob``.
    """
    if k % 2 or k <= 0:
        raise ValueError("k must be a positive even integer")
    if k >= num_vertices:
        raise ValueError("k must be smaller than num_vertices")
    if not 0.0 <= rewire_prob <= 1.0:
        raise ValueError("rewire_prob must be in [0, 1]")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    v = np.arange(num_vertices, dtype=VERTEX_DTYPE)
    src_parts = []
    dst_parts = []
    for offset in range(1, k // 2 + 1):
        src_parts.append(v)
        dst_parts.append((v + offset) % num_vertices)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    rewire = rng.random(src.size) < rewire_prob
    dst = dst.copy()
    dst[rewire] = rng.integers(
        0, num_vertices, size=int(rewire.sum()), dtype=VERTEX_DTYPE
    )
    return from_edge_array(np.column_stack([src, dst]), num_vertices)


def barabasi_albert(
    num_vertices: int,
    attachments: int = 8,
    *,
    seed: int | np.random.Generator = 1,
    closure_prob: float = 0.0,
) -> CSRGraph:
    """Preferential-attachment scale-free graph (Barabási–Albert).

    Each new vertex attaches to ``attachments`` existing vertices chosen
    proportionally to degree (sampled from the endpoint-repetition
    list, the standard O(m) trick).  ``closure_prob`` adds Holme–Kim
    triad closure: after each preferential attachment, with this
    probability the next link goes to a random neighbour of the previous
    target, closing a triangle.  The paper's §V notes RMAT graphs carry
    far fewer triangles than real networks and that the BSP triangle
    algorithm's message volume "will grow quickly with a higher triangle
    density" — this generator provides the denser graphs to test that
    projection.
    """
    if attachments < 1:
        raise ValueError("attachments must be >= 1")
    if num_vertices <= attachments:
        raise ValueError("num_vertices must exceed attachments")
    if not 0.0 <= closure_prob <= 1.0:
        raise ValueError("closure_prob must be in [0, 1]")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    sources: list[int] = []
    targets: list[int] = []
    adjacency: list[list[int]] = [[] for _ in range(num_vertices)]
    # Endpoint-repetition list: each endpoint appears once per incident
    # edge, so uniform sampling is degree-proportional.
    repeated: list[int] = list(range(attachments))
    for v in range(attachments, num_vertices):
        chosen: set[int] = set()
        last_target: int | None = None
        while len(chosen) < attachments:
            if (
                closure_prob > 0.0
                and last_target is not None
                and rng.random() < closure_prob
            ):
                # Triad closure: link to a neighbour of the last target.
                neighbours = adjacency[last_target]
                candidates = [w for w in neighbours if w not in chosen
                              and w != v]
                if candidates:
                    pick = int(candidates[rng.integers(len(candidates))])
                    chosen.add(pick)
                    last_target = pick
                    continue
            pick = int(repeated[rng.integers(len(repeated))])
            if pick != v and pick not in chosen:
                chosen.add(pick)
                last_target = pick
        for w in chosen:
            sources.append(v)
            targets.append(w)
            adjacency[v].append(w)
            adjacency[w].append(v)
            repeated.extend((v, w))
    edges = np.column_stack(
        [
            np.asarray(sources, dtype=VERTEX_DTYPE),
            np.asarray(targets, dtype=VERTEX_DTYPE),
        ]
    )
    return from_edge_array(edges, num_vertices)


def star_graph(num_leaves: int) -> CSRGraph:
    """Hub vertex 0 connected to ``num_leaves`` leaves (maximal degree skew)."""
    if num_leaves < 0:
        raise ValueError("num_leaves must be non-negative")
    leaves = np.arange(1, num_leaves + 1, dtype=VERTEX_DTYPE)
    edges = np.column_stack([np.zeros_like(leaves), leaves])
    return from_edge_array(edges, num_leaves + 1)


def ring_graph(num_vertices: int) -> CSRGraph:
    """Cycle on ``num_vertices`` vertices (diameter n/2 — the BSP worst case)."""
    if num_vertices < 3:
        raise ValueError("a ring needs at least 3 vertices")
    v = np.arange(num_vertices, dtype=VERTEX_DTYPE)
    edges = np.column_stack([v, (v + 1) % num_vertices])
    return from_edge_array(edges, num_vertices)


def path_graph(num_vertices: int) -> CSRGraph:
    """Simple path 0-1-...-(n-1)."""
    if num_vertices < 1:
        raise ValueError("a path needs at least 1 vertex")
    v = np.arange(num_vertices - 1, dtype=VERTEX_DTYPE)
    edges = np.column_stack([v, v + 1])
    return from_edge_array(edges, num_vertices)


def two_d_grid(rows: int, cols: int) -> CSRGraph:
    """rows x cols 4-neighbour grid (large-diameter planar test topology)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    idx = np.arange(rows * cols, dtype=VERTEX_DTYPE).reshape(rows, cols)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    edges = np.concatenate([horiz, vert], axis=0)
    return from_edge_array(edges, rows * cols)
