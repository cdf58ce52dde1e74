"""Ablations beyond the paper: what-if studies on the same workload.

Each ``run_<name>(config)`` executes one ablation of EXPERIMENTS.md and
returns its numbers as a JSON-serializable dictionary (rounded for
display).  ``python -m repro.cli ablation-<name>`` prints it; the claims
each ablation supports are asserted in the test suite.  Work counts
(messages, wedges, imbalance) are exact and simulated seconds are
deterministic.
"""

from __future__ import annotations

from repro.analysis.experiments import run_fig4, run_table1
from repro.analysis.workload import ExperimentConfig, build_workload, traced
from repro.bsp import make_engine
from repro.bsp.instrumentation import QUEUE_DESIGNS, with_queue_design
from repro.bsp_algorithms import bsp_connected_components, bsp_count_triangles
from repro.cluster import (
    ClusterMachine,
    balanced_edge_partition,
    hash_partition,
    partition_stats,
    simulate_cluster_bsp,
)
from repro.graph import watts_strogatz
from repro.graphct import clustering_coefficients, count_triangles
from repro.xmt.calibration import DEFAULT_COSTS
from repro.xmt.cost_model import simulate
from repro.xmt.machine import XMTMachine

__all__ = [
    "run_combiner",
    "run_degree_ordering",
    "run_hotspot",
    "run_partitioning",
    "run_queue_design",
    "run_scale_sweep",
    "run_triangle_density",
]

#: Cluster size of the partitioning ablation.
PARTITION_MACHINES = 32
#: Watts–Strogatz rewiring probabilities of the triangle-density ablation.
REWIRES = (0.02, 0.2, 0.9)


def run_hotspot(config: ExperimentConfig) -> dict:
    """Fetch-and-add hotspot serialization (§VII), BSP vs GraphCT BFS.

    Prices both BFS traces on the full machine with and without atomic
    service time (an idealized combining network); ``penalty`` is the
    ratio.  The hotspot should cost the BSP queue at least as much as
    GraphCT's chunked reservations.
    """
    p = max(config.processor_counts)
    real = config.machine(p)
    ideal = XMTMachine(num_processors=p, atomic_service_cycles=0.0)
    out = {}
    for name in ("bsp", "graphct"):
        trace = traced(f"{name}_bfs", config).trace
        with_hotspot = simulate(trace, real).total_seconds
        without = simulate(trace, ideal).total_seconds
        out[name] = {
            "with": round(with_hotspot, 4),
            "without": round(without, 4),
            "penalty": round(with_hotspot / without, 4),
        }
    return out


def run_combiner(config: ExperimentConfig) -> dict:
    """A Pregel min-combiner on BSP connected components.

    The paper's runtime materializes every message; a combiner folds
    same-destination messages before they reach the queue.  Reports
    message totals and simulated seconds on the full machine for plain
    BSP, combined BSP and GraphCT.
    """
    graph = build_workload(config).graph
    machine = config.machine(max(config.processor_counts))
    plain = traced("bsp_cc", config)
    combined = bsp_connected_components(
        graph, engine=make_engine(graph, combine_messages=True)
    )
    traces = {
        "plain": plain.trace,
        "combined": combined.trace,
        "graphct": traced("graphct_cc", config).trace,
    }
    return {
        "messages_plain": plain.total_messages,
        "messages_combined": combined.total_messages,
        "seconds": {
            name: round(simulate(trace, machine).total_seconds, 5)
            for name, trace in traces.items()
        },
    }


def run_degree_ordering(config: ExperimentConfig) -> dict:
    """Vertex-id vs degree total order in triangle counting.

    Degree order (hubs last) bounds oriented out-degrees and shrinks the
    wedge set — Algorithm 3's superstep-1 messages — for the same
    triangle count.
    """
    by_id = traced("graphct_tc", config)  # id order is the default
    by_degree = count_triangles(build_workload(config).graph, ordering="degree")
    return {
        "wedges_id_order": by_id.wedges_checked,
        "wedges_degree_order": by_degree.wedges_checked,
        "reduction": round(by_id.wedges_checked / by_degree.wedges_checked, 2),
        "triangles": by_id.total_triangles,
    }


def run_scale_sweep(config: ExperimentConfig) -> dict:
    """BSP/GraphCT ratios at the four RMAT scales below the workload's.

    Runs Table I and Figure 4 at each scale: the ratios should stay in
    GraphCT's favour while the triangle write blow-up grows toward the
    paper's 181x.
    """
    sweep = {}
    for scale in range(config.scale - 4, config.scale):
        cfg = ExperimentConfig(
            scale=scale, edge_factor=config.edge_factor, seed=config.seed
        )
        sweep[scale] = {
            "ratios": {
                name: round(row["ratio"], 2)
                for name, row in run_table1(cfg).rows.items()
            },
            "write_ratio": round(run_fig4(cfg).write_ratio, 1),
        }
    return {"sweep": sweep}


def run_queue_design(config: ExperimentConfig) -> dict:
    """BSP message-queue designs (§VII): single tail, per vertex, chunked.

    Re-prices the BSP BFS trace, scaled to paper-scale work, under each
    queue design at both ends of the processor sweep.  A single
    fetch-and-add tail should stop scaling; either mitigation should not.
    """
    trace = traced("bsp_bfs", config).trace
    p_lo, p_hi = min(config.processor_counts), max(config.processor_counts)
    speedups, at_pmax = {}, {}
    for design in QUEUE_DESIGNS:
        priced = with_queue_design(trace, design, DEFAULT_COSTS).scaled(
            config.extrapolation_factor
        )
        t_lo, t_hi = (
            simulate(priced, config.machine(p)).total_seconds
            for p in (p_lo, p_hi)
        )
        speedups[design] = round(t_lo / t_hi, 1)
        at_pmax[design] = round(t_hi, 3)
    return {"speedups": speedups, "seconds_at_pmax": at_pmax}


def run_partitioning(config: ExperimentConfig) -> dict:
    """Hash vs degree-balanced vertex placement on a cluster (§II).

    Measures incoming-arc imbalance under both placements and prices
    BSP connected components on the cluster cost model at paper-scale
    message volume, where the imbalance bites.
    """
    graph = build_workload(config).graph
    machines = PARTITION_MACHINES
    stats = {
        "hash": partition_stats(graph, hash_partition(graph, machines)),
        "balanced": partition_stats(
            graph, balanced_edge_partition(graph, machines)
        ),
    }
    cc = traced("bsp_cc", config)
    factor = config.extrapolation_factor
    trace = cc.trace.scaled(factor)
    messages = [int(m * factor) for m in cc.messages_per_superstep]
    seconds = {
        name: simulate_cluster_bsp(
            trace,
            ClusterMachine(
                num_machines=machines, imbalance=max(s.edge_imbalance, 1.0)
            ),
            messages_per_superstep=messages,
        ).total_seconds
        for name, s in stats.items()
    }
    return {
        "machines": machines,
        "edge_imbalance": {
            "hash": round(stats["hash"].edge_imbalance, 2),
            "balanced": round(stats["balanced"].edge_imbalance, 3),
        },
        "cut_fraction": round(stats["hash"].cut_fraction, 3),
        "cluster_seconds": {k: round(v, 4) for k, v in seconds.items()},
    }


def run_triangle_density(config: ExperimentConfig) -> dict:
    """BSP triangle-counting message volume vs triangle density (§V).

    Watts–Strogatz graphs of fixed size and degree (n = 4000, k = 12),
    rewiring as the clustering knob: message volume per edge should fall
    with clustering.  Simulated seconds are on the full machine.
    """
    machine = config.machine(max(config.processor_counts))
    rows = {}
    for p in REWIRES:
        g = watts_strogatz(4000, k=12, rewire_prob=p, seed=config.seed)
        tri = bsp_count_triangles(g)
        row = {
            "clustering": clustering_coefficients(g).global_coefficient,
            "triangles": tri.total_triangles,
            "messages": tri.total_messages,
            "messages_per_edge": tri.total_messages / g.num_edges,
            "seconds": simulate(tri.trace, machine).total_seconds,
        }
        rows[str(p)] = {k: round(v, 4) for k, v in row.items()}
    return {"rows": rows}
