"""Reference kernels written against the XMT synchronization primitives.

The vectorized kernels in this package compute whole iterations as array
programs; these reference implementations instead spell out the XMT-C
idioms the paper's code uses — ``int_fetch_add`` work queues,
full/empty-bit locks — against the functional simulations in
:mod:`repro.xmt.memory`.  They exist to (a) document what the original
loop bodies look like, (b) exercise the primitives end-to-end, and (c)
cross-validate the vectorized kernels through a completely independent
code path.  They run one logical thread (Python), so they are for small
graphs and tests, not benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, check_vertex
from repro.runtime.counters import OpCounter
from repro.xmt.memory import AtomicCounter, FullEmptyArray

__all__ = ["reference_bfs", "reference_connected_components"]


def reference_bfs(
    graph: CSRGraph, source: int
) -> tuple[np.ndarray, OpCounter]:
    """Level-synchronous BFS with a fetch-and-add work queue.

    The XMT idiom (Bader & Madduri): the next-level queue's tail is an
    atomic counter; each thread reserves a slot per discovered vertex
    with ``int_fetch_add``.  Vertex colours are full/empty words: a
    vertex is claimed by the first thread to ``readfe`` its colour word
    while it is marked unvisited — here serialized, but the operation
    sequence (and the op counts) are the real kernel's.

    Returns ``(distances, op_counter)``.
    """
    source = check_vertex(graph, source)
    n = graph.num_vertices
    ops = OpCounter()
    # Colour words: -1 = unvisited; distance otherwise.  All start full.
    colour = FullEmptyArray(n, fill=-1, counter=ops)
    queue = np.full(n, -1, dtype=np.int64)
    tail = AtomicCounter(counter=ops)

    colour.write_xf(source, 0)
    queue[tail.fetch_add(1)] = source
    head = 0
    level_end = tail.value

    while head < tail.value:
        v = int(queue[head])
        head += 1
        dist_v = colour.readff(v)
        for w in graph.neighbors(v).tolist():
            ops.add(instructions=2, reads=0)
            # Claim: consume the colour word; if unvisited, mark.
            current = colour.readfe(w)
            if current < 0:
                colour.writeef(w, dist_v + 1)
                queue[tail.fetch_add(1)] = w
                ops.add(writes=1)  # queue slot store
            else:
                colour.writeef(w, current)  # put it back unchanged
        if head == level_end:
            level_end = tail.value  # barrier between levels

    distances = colour.snapshot()
    return distances, ops


def reference_connected_components(
    graph: CSRGraph,
) -> tuple[np.ndarray, OpCounter]:
    """Shiloach–Vishkin components with racy-min label updates.

    Each sweep walks every arc and lowers the endpoint labels through a
    full/empty-protected read-modify-write — the serialized equivalent
    of the XMT's synchronized hooking.  A shared fetch-and-add counter
    tracks whether the sweep changed anything (the termination idiom).

    Returns ``(labels, op_counter)``.
    """
    if graph.directed:
        raise ValueError("connected components requires an undirected graph")
    n = graph.num_vertices
    ops = OpCounter()
    labels = FullEmptyArray(n, fill=0, counter=ops)
    for v in range(n):
        labels.write_xf(v, v)

    src = graph.arc_sources()
    dst = graph.col_idx
    while True:
        changes = AtomicCounter(counter=ops)
        for u, w in zip(src.tolist(), dst.tolist()):
            ops.add(instructions=2)
            lu = labels.readff(u)
            lw = labels.readff(w)
            if lw < lu:
                # Lock the word (readfe), re-check, write back (writeef):
                # the full/empty update sequence of the XMT kernel.
                current = labels.readfe(u)
                labels.writeef(u, min(current, lw))
                if lw < current:
                    changes.fetch_add(1)
        # Pointer jumping: label <- label[label], same locking discipline.
        for v in range(n):
            lv = labels.readff(v)
            ll = labels.readff(int(lv))
            if ll < lv:
                current = labels.readfe(v)
                labels.writeef(v, min(current, ll))
                changes.fetch_add(1)
        if changes.value == 0:
            break

    return labels.snapshot(), ops
