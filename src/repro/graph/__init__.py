"""Graph substrate: storage, construction, generation, I/O, and utilities.

This subpackage re-creates the data layer of GraphCT: a single, efficient,
read-only compressed sparse row (:class:`~repro.graph.csr.CSRGraph`)
representation that is built once and then served to every analysis kernel,
plus the generators and file formats used by the paper's experiments.
"""

from repro.graph.builder import (
    GraphBuilder,
    from_edge_array,
    from_edge_list,
)
from repro.graph.csr import CSRGraph
from repro.graph.dag import ascending_orientation, degree_orientation
from repro.graph.generators import (
    RMATParameters,
    barabasi_albert,
    erdos_renyi,
    path_graph,
    ring_graph,
    rmat,
    rmat_edges,
    star_graph,
    two_d_grid,
    watts_strogatz,
)
from repro.graph.io import (
    load_graph,
    read_edge_list,
    save_graph,
    write_edge_list,
)
from repro.graph.properties import (
    connected_component_sizes,
    degree_statistics,
    giant_component_vertex,
    is_symmetric,
    peripheral_vertex,
    reachable_from,
)
from repro.graph.subgraph import extract_subgraph, largest_component_subgraph

__all__ = [
    "CSRGraph",
    "GraphBuilder",
    "RMATParameters",
    "ascending_orientation",
    "barabasi_albert",
    "connected_component_sizes",
    "degree_orientation",
    "degree_statistics",
    "erdos_renyi",
    "giant_component_vertex",
    "peripheral_vertex",
    "extract_subgraph",
    "from_edge_array",
    "from_edge_list",
    "is_symmetric",
    "largest_component_subgraph",
    "load_graph",
    "path_graph",
    "reachable_from",
    "read_edge_list",
    "ring_graph",
    "rmat",
    "rmat_edges",
    "save_graph",
    "star_graph",
    "two_d_grid",
    "watts_strogatz",
    "write_edge_list",
]
