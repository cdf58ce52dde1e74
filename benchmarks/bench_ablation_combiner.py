"""Ablation: a Pregel min-combiner on BSP connected components.

The paper's runtime materializes every message (no combiners) — the
source of its write blow-up.  Pregel's combiner folds same-destination
messages before they hit the queue; this ablation measures how much of
the BSP/GraphCT gap a combiner would have closed on the Cray XMT.
"""

from conftest import once

from repro.analysis.report import format_seconds
from repro.bsp import make_engine
from repro.bsp_algorithms import bsp_connected_components
from repro.graphct import connected_components
from repro.xmt.cost_model import simulate
from repro.xmt.machine import XMTMachine


def bench_combiner_ablation(benchmark, workload, capsys):
    graph = workload.graph

    def run():
        return (
            bsp_connected_components(graph),
            bsp_connected_components(
                graph, engine=make_engine(graph, combine_messages=True)
            ),
            connected_components(graph),
        )

    plain, combined, shm = once(benchmark, run)

    assert (plain.labels == combined.labels).all()
    assert combined.total_messages < plain.total_messages / 5, (
        "the min-combiner must collapse queue traffic"
    )

    machine = XMTMachine(num_processors=128)
    t_plain = simulate(plain.trace, machine).total_seconds
    t_combined = simulate(combined.trace, machine).total_seconds
    t_shm = simulate(shm.trace, machine).total_seconds
    assert t_combined < t_plain
    assert t_combined > t_shm * 0.5  # supersteps still cost something

    benchmark.extra_info.update(
        messages_plain=plain.total_messages,
        messages_combined=combined.total_messages,
        seconds={"plain": round(t_plain, 5),
                 "combined": round(t_combined, 5),
                 "graphct": round(t_shm, 5)},
    )
    with capsys.disabled():
        print(
            f"\ncombiner ablation (CC @128P): plain BSP "
            f"{format_seconds(t_plain)} "
            f"({plain.total_messages:,} msgs) -> combined "
            f"{format_seconds(t_combined)} "
            f"({combined.total_messages:,} msgs); GraphCT "
            f"{format_seconds(t_shm)}"
        )
