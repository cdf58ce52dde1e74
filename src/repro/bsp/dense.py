"""Dense (array-mode) execution of BSP vertex programs.

The reference :class:`~repro.bsp.engine.BSPEngine` interprets a
:class:`~repro.bsp.vertex.VertexProgram` one vertex at a time in pure
Python — the readable rendition of the paper's pseudocode, but far too
slow for reproduction-scale graphs.  This module adds the fast path: a
:class:`DenseVertexProgram` expresses the *whole superstep* as NumPy
array kernels, and :class:`DenseBSPEngine` executes it with a
combiner-fused scatter/gather:

* **scatter** — the end of a superstep designates a set of *senders*;
  every sender floods one message along each of its out-arcs (the
  flooding idiom all of the paper's algorithms share).  The messages are
  never materialized as Python objects: the arc selection out of the
  sender set *is* the message queue.  The selection itself is
  frontier-adaptive (:mod:`repro.bsp.frontier`): a sparse arc-index
  array while the frontier is small, so low-activity supersteps (BFS
  tails, CC late rounds, SSSP settling) stop paying ``O(n + m)``
  sweeps; a boolean mask for middling floods; and, once all but
  ``m / k`` arcs flood (CC's first rounds, every PageRank round), the
  complement — the whole-arc slice less the quiet vertices' rows, for
  which the graph's own ``col_idx`` and in-degree vector, less those
  rows, *are* the destinations and the enqueue histogram.
* **gather** — the per-arc payloads are produced in one vectorized call
  and folded per destination with a NumPy ufunc (``np.minimum.at`` for
  label/distance flooding, ``np.add.at`` for rank/notice accumulation).
  Delivery is *lazy*: the modeled message accounting (sent/received
  counts, receiver set, per-destination enqueue histogram) is always
  computed — it is what the paper's Fig. 2/Fig. 3 reproductions price —
  but the payload gather + combine fold only executes if the program
  actually reads ``ctx.messages``.  Programs that can update state from
  the receiver set alone (BFS) skip the delivered work entirely while
  their modeled counts stay bit-identical.

The engine mirrors the reference engine's control flow step for step —
active-set selection (receivers ∪ not-halted), vote-to-halt semantics,
termination, checkpoint cadence, aggregator visibility — and charges
identical superstep accounting through the shared
:func:`~repro.bsp.instrumentation.record_superstep`, so a dense program
produces a :class:`~repro.bsp.engine.BSPResult` with bit-identical
values, superstep counts, per-superstep active/message counts, and
work-trace regions to its per-vertex twin (asserted by the equivalence
suite in ``tests/test_dense_engine.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable

import numpy as np

from repro.bsp._scatter import (
    NO_ARCS,
    complement_histogram,
    enqueue_histogram,
    fill_left_out,
)
from repro.bsp.aggregators import Aggregator
from repro.bsp.checkpoint import Checkpoint, CheckpointStore
from repro.bsp.engine import BSPResult
from repro.bsp.frontier import (
    COMPLEMENT,
    DEFAULT_FRONTIER_POLICY,
    SPARSE,
    ArcSelection,
    FrontierPolicy,
    arc_indices,
    select_arcs,
)
from repro.bsp.instrumentation import record_superstep
from repro.graph.csr import CSRGraph
from repro.runtime.loops import Tracer
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.xmt.calibration import DEFAULT_COSTS, KernelCosts

__all__ = [
    "DenseBSPEngine",
    "DenseSuperstepContext",
    "DenseVertexProgram",
]


def _compute_set(halted: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    """Sorted ids of the vertices computing a superstep: the message
    receivers plus every vertex that has not voted to halt."""
    if halted.all():
        return receivers
    computing = ~halted
    computing[receivers] = True
    return np.flatnonzero(computing)


class DenseSuperstepContext:
    """Whole-superstep view handed to :meth:`DenseVertexProgram.compute`.

    Where :class:`~repro.bsp.vertex.VertexContext` exposes one vertex,
    this context exposes the entire superstep as arrays: the compute set,
    the receivers, and the combiner-folded incoming messages.  Instances
    are valid only for the duration of the ``compute`` call.
    """

    __slots__ = (
        "_engine",
        "superstep",
        "active",
        "receivers",
        "_inbox",
        "_messages",
    )

    def __init__(
        self,
        engine: "DenseBSPEngine",
        superstep: int,
        active: np.ndarray,
        receivers: np.ndarray,
        inbox: Callable[[], np.ndarray] | None,
    ):
        self._engine = engine
        #: Current superstep number (0-based).
        self.superstep = superstep
        #: Sorted vertex ids computing this superstep (Pregel's active
        #: set: message receivers plus vertices that did not halt).
        self.active = active
        #: Sorted vertex ids with at least one incoming message.
        self.receivers = receivers
        self._inbox = inbox
        self._messages: np.ndarray | None = None

    # -- state ---------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The input graph (read-only CSR)."""
        return self._engine.graph

    @property
    def num_vertices(self) -> int:
        """Vertex count of the input graph."""
        return self._engine.graph.num_vertices

    @property
    def values(self) -> np.ndarray:
        """Per-vertex state array (mutate in place to update state)."""
        return self._engine.values

    @property
    def messages(self) -> np.ndarray | None:
        """Length-``num_vertices`` array of combiner-folded incoming
        messages (``combine_identity`` where nothing arrived); ``None``
        in superstep 0.

        Delivery is lazy: the payload gather + combine fold (and, on the
        sharded engine, the gather pipe exchange) run on first access
        and the result is cached for the rest of the superstep.  A
        program that never reads this property skips the delivered work
        entirely; the modeled message counts are unaffected.  Payloads
        are evaluated from the *current* ``values``, so read
        ``messages`` before mutating ``values``.
        """
        if self._messages is None and self._inbox is not None:
            self._messages = self._inbox()
            self._inbox = None
        return self._messages

    # -- control -------------------------------------------------------
    def vote_to_halt(self, vertices: np.ndarray | None = None) -> None:
        """Deactivate ``vertices`` (default: every computing vertex)
        until a message re-activates them."""
        if vertices is None:
            self._engine.halted[self.active] = True
        else:
            self._engine.halted[np.asarray(vertices, dtype=np.int64)] = True

    # -- telemetry ------------------------------------------------------
    def counter(self, name: str, value: int) -> None:
        """Record a program-side telemetry counter for this superstep.

        No-op when telemetry is disabled; never affects results or the
        modeled work trace.
        """
        tel = self._engine.telemetry
        if tel.enabled:
            tel.counter(name, int(value), superstep=self.superstep)

    # -- aggregators ---------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a named aggregator (visible next superstep).

        Dense programs contribute their already-reduced superstep total
        in one call instead of once per vertex.
        """
        self._engine.aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """Read the aggregator value from the *previous* superstep."""
        return self._engine.aggregated(name)


class DenseVertexProgram(ABC):
    """A vertex program expressed as whole-superstep array kernels.

    Message model: returning an array of vertex ids from :meth:`compute`
    designates those vertices as *senders* — each floods one message
    along every out-arc, delivered next superstep.  The engine produces
    the per-arc payloads via :meth:`arc_payload` and folds messages
    aimed at the same destination with :attr:`combine`, so a program only
    ever sees the reduction — exactly what a
    :class:`~repro.bsp.combiners.Combiner` would hand its per-vertex
    twin.  Programs whose ``compute`` consumes messages one by one (and
    not through an associative fold) do not fit the dense mode; run them
    on the reference engine.

    ``ctx.messages`` is materialized lazily from the current ``values``
    on first access; a ``compute`` that reads it must do so *before*
    mutating ``ctx.values`` (all in-tree programs read messages first).
    """

    #: Per-destination delivery fold: a NumPy ufunc supporting ``.at``
    #: (``np.minimum`` for label/distance flooding, ``np.add`` for
    #: rank/notice accumulation).
    combine: np.ufunc = np.minimum
    #: Fill value for destinations that received no message, and for the
    #: arcs a complement flood leaves out: it must be the fold's identity
    #: (``combine(x, identity) == x``).  Subclasses must override.
    combine_identity: Any = None
    #: dtype of the gathered message array.
    message_dtype: Any = np.float64

    @abstractmethod
    def initial_values(self, graph: CSRGraph) -> np.ndarray:
        """Per-vertex state array before superstep 0."""

    @abstractmethod
    def arc_payload(
        self, graph: CSRGraph, values: np.ndarray, selection: np.ndarray
    ) -> np.ndarray:
        """Message values carried by the selected arcs.

        ``selection`` picks every out-arc of the previous superstep's
        senders out of the graph's arc array, as a boolean mask, a
        sorted int64 index array or the whole-arc slice
        (:mod:`repro.bsp.frontier` decides per superstep); all index
        arc-parallel arrays identically, so implementations must treat
        it as an opaque fancy index.  The result must be parallel to
        ``graph.col_idx[selection]``.  A near-full flood gets the slice
        with some rows left out: the engine then writes
        ``combine_identity`` into the result at those arcs, in place if
        the result owns its memory (a fresh array), on a copy otherwise
        (a view of graph or program state) — so return a copy of any
        owned array you keep between calls.
        ``graph`` is the engine's view of the arcs being delivered (on the
        sharded engine one shard's subgraph): read arc-parallel arrays via
        ``selection``, per-vertex ones (``degrees()``, ``values``) at the
        *sources* of selected arcs — through
        :func:`repro.bsp.frontier.source_values`, which expands them by
        run length — and nothing whole-graph (``num_arcs``...).
        Payloads are evaluated lazily at delivery time, which is
        equivalent to eager sending because a sender's state cannot
        change between the end of the superstep that sent and the
        delivery barrier.
        """

    @abstractmethod
    def compute(self, ctx: DenseSuperstepContext) -> np.ndarray | None:
        """Execute one whole superstep.

        Update ``ctx.values`` in place for the vertices in ``ctx.active``,
        vote halts via ``ctx.vote_to_halt``, and return the sender set for
        the next superstep (``None`` or an empty array to send nothing).
        The sender set must be sorted ascending and duplicate-free (the
        engine normalizes defensively, at a cost).
        """


class DenseBSPEngine:
    """Runs :class:`DenseVertexProgram` s over one read-only graph.

    Drop-in sibling of :class:`~repro.bsp.engine.BSPEngine`: same
    constructor shape, same ``run`` signature, same
    :class:`~repro.bsp.engine.BSPResult`, same checkpoint/resume
    contract — but executes supersteps as vectorized array kernels, which
    is orders of magnitude faster on reproduction-scale graphs (compare
    the reference and dense columns of ``repro measured-vs-modeled``).

    Parameters
    ----------
    graph:
        The input graph; vertices are actors, arcs carry messages.
    combine_messages:
        Accounting switch for the combiner ablation: when True, queue
        traffic is charged *post-fold* — one materialized message per
        destination per superstep (a Pregel sender-side combiner) —
        instead of the paper runtime's every-message-materialized
        accounting.  Delivered values are identical either way; only
        ``messages_per_superstep`` / ``received`` and the work trace
        change.  (The reference engine's ``combiner`` folds *after* the
        enqueue accounting, so its counts equal the default mode here.)
    frontier_policy:
        Sparse/dense arc-selection switching rule
        (:class:`~repro.bsp.frontier.FrontierPolicy`; default: the
        GBBS-style ``m / k`` heuristic).  Affects only execution speed —
        results, counts, and traces are representation-independent.
        The per-superstep decision is recorded as the ``frontier_mode``
        telemetry counter (0 sparse, 1 mask or complement).
    aggregators:
        Named global aggregators available to the program.
    costs:
        Kernel accounting constants for the work trace.
    telemetry:
        Optional :class:`~repro.telemetry.core.Telemetry` receiving
        wall-clock spans (superstep/gather/compute/scatter, plus
        ``deliver`` when a program materializes its inbox) and counter
        samples.  Defaults to the no-op
        :data:`~repro.telemetry.core.NULL_TELEMETRY`; recording never
        alters results or the modeled work trace.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        combine_messages: bool = False,
        frontier_policy: FrontierPolicy | None = None,
        aggregators: dict[str, Aggregator] | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.graph = graph
        self.combine_messages = combine_messages
        self.frontier_policy = (
            DEFAULT_FRONTIER_POLICY if frontier_policy is None else frontier_policy
        )
        self.costs = costs
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        #: Superstep the telemetry hooks attribute phase spans to.
        self._tel_superstep = -1
        self._aggregators = dict(aggregators or {})
        # Mutable run state (rebuilt per run):
        self.values: np.ndarray = np.empty(0)
        self.halted: np.ndarray = np.zeros(0, dtype=bool)
        self._agg_current: dict[str, Any] = {}
        self._agg_visible: dict[str, Any] = {}
        # Pending-scatter state shared with the gather of the next
        # superstep (see _select/_gather): the arc selection, the arcs'
        # destinations, the arcs a complement leaves out (empty for any
        # other form), the raw flood size, and the enqueue histogram.
        self._pending_sel: ArcSelection | None = None
        self._pending_dst: np.ndarray | None = None
        self._pending_left_out: np.ndarray = NO_ARCS
        self._pending_raw: int = 0
        self._pending_hist: np.ndarray | None = None

    # -- aggregator plumbing (called through DenseSuperstepContext) ----
    def aggregate(self, name: str, value: Any) -> None:
        """Fold one contribution into the named aggregator."""
        if name not in self._aggregators:
            raise KeyError(f"no aggregator named {name!r}")
        agg = self._aggregators[name]
        self._agg_current[name] = agg.reduce(self._agg_current[name], value)

    def aggregated(self, name: str) -> Any:
        """Aggregator value visible this superstep (previous superstep's
        reduction)."""
        if name not in self._aggregators:
            raise KeyError(f"no aggregator named {name!r}")
        return self._agg_visible[name]

    # -- main loop ------------------------------------------------------
    def run(
        self,
        program: DenseVertexProgram,
        *,
        initial_active: Iterable[int] | None = None,
        max_supersteps: int = 10_000,
        trace_label: str = "bsp",
        checkpoint_every: int | None = None,
        checkpoint_store: "CheckpointStore | None" = None,
        resume_from: "Checkpoint | None" = None,
    ) -> BSPResult:
        """Execute ``program`` to termination.

        Semantics are identical to :meth:`BSPEngine.run`; see there for
        the meaning of every parameter.  Checkpoints written by this
        engine store the pending messages densely (the sender frontier)
        and can only be resumed by a ``DenseBSPEngine``; program-local
        state outside the engine-owned ``values`` array (e.g. a
        per-superstep frontier history kept on the program object) is
        *not* checkpointed.
        """
        if max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1")
            if checkpoint_store is None:
                raise ValueError(
                    "checkpoint_every requires a checkpoint_store"
                )
        identity = program.combine_identity
        if identity is None:
            raise ValueError(
                "dense program must define combine_identity "
                "(the fill value of the gathered message array)"
            )
        graph = self.graph
        n = graph.num_vertices
        tracer = Tracer(label=trace_label)
        result = BSPResult(values=[], num_supersteps=0)

        if resume_from is not None:
            ck = resume_from
            if len(ck.values) != n:
                raise ValueError(
                    "checkpoint does not match this graph's vertex count"
                )
            if ck.dense_senders is None:
                raise ValueError(
                    "checkpoint was written by the reference BSPEngine; "
                    "resume it there"
                )
            values0 = np.array(ck.values)
            self.halted = np.asarray(ck.halted, dtype=bool).copy()
            senders = np.asarray(ck.dense_senders, dtype=np.int64).copy()
            self._agg_visible = dict(ck.aggregators)
            for name, agg in self._aggregators.items():
                self._agg_visible.setdefault(name, agg.identity())
            result.active_per_superstep = list(ck.active_history)
            result.messages_per_superstep = list(ck.message_history)
            result.aggregator_history = {
                name: list(vals)
                for name, vals in ck.aggregator_history.items()
            }
            for name in self._aggregators:
                result.aggregator_history.setdefault(name, [])
            active0 = np.empty(0, dtype=np.int64)  # unused on resume
            superstep = ck.superstep
        else:
            values0 = np.asarray(program.initial_values(graph))
            self.halted = np.zeros(n, dtype=bool)
            senders = np.empty(0, dtype=np.int64)
            self._agg_visible = {
                name: agg.identity()
                for name, agg in self._aggregators.items()
            }
            if initial_active is None:
                active0 = np.arange(n, dtype=np.int64)
            else:
                active0 = np.unique(
                    np.asarray(list(initial_active), dtype=np.int64)
                )
                if active0.size and (
                    active0[0] < 0 or active0[-1] >= n
                ):
                    raise IndexError("initial vertex out of range")
                self.halted[:] = True
                self.halted[active0] = False
            for name in self._aggregators:
                result.aggregator_history[name] = []
            superstep = 0

        self._begin_run(program, values0)
        # The pending-scatter state (arc selection / destinations /
        # enqueue histogram of the current senders) is carried across
        # supersteps so scatter (enqueue accounting) and gather
        # (delivery) share one selection and one ``col_idx`` pass, and
        # the receiver set falls out of the histogram instead of a sort.
        # It is empty right after a resume and is recomputed from the
        # senders.
        self._scatter_reset()
        tel = self.telemetry
        while superstep < max_supersteps:
            if (
                checkpoint_every is not None
                and superstep > 0
                and superstep % checkpoint_every == 0
                and (resume_from is None or superstep > resume_from.superstep)
            ):
                checkpoint_store.save(self._snapshot(superstep, senders, result))
            self._tel_superstep = superstep
            step_start = tel.now()
            if superstep == 0:
                compute_set = active0
                receivers = np.empty(0, dtype=np.int64)
                inbox = None
                received = 0
            else:
                with tel.span(
                    "gather", category="phase", superstep=superstep
                ):
                    inbox, receivers, raw_received = self._gather(
                        program, senders, identity
                    )
                compute_set = _compute_set(self.halted, receivers)
                received = (
                    int(receivers.size)
                    if self.combine_messages
                    else raw_received
                )
            if compute_set.size == 0:
                break

            self._agg_current = {
                name: agg.identity()
                for name, agg in self._aggregators.items()
            }
            self.halted[compute_set] = False  # computing re-activates
            ctx = DenseSuperstepContext(
                self, superstep, compute_set, receivers, inbox
            )
            with tel.span("compute", category="phase", superstep=superstep):
                new_senders = program.compute(ctx)
            if new_senders is None:
                new_senders = np.empty(0, dtype=np.int64)
            else:
                new_senders = np.asarray(new_senders, dtype=np.int64)
                # Sparse and dense arc selections agree only for sorted,
                # duplicate-free sender sets (the program contract);
                # normalize defensively when a program strays.
                if new_senders.size > 1 and bool(
                    np.any(np.diff(new_senders) <= 0)
                ):
                    new_senders = np.unique(new_senders)
                # Sorted, so the ends bound it: an id outside [0, n)
                # would wrap (mask, bitmap) or crash (sparse) otherwise.
                if new_senders.size and (
                    new_senders[0] < 0 or new_senders[-1] >= n
                ):
                    raise IndexError("sender vertex out of range")

            with tel.span("scatter", category="phase", superstep=superstep):
                sent_raw, enq = self._scatter(program, new_senders)
            sent = sent_raw
            if self.combine_messages and sent_raw:
                enq = np.minimum(enq, 1)
                sent = int(enq.sum())
            self._pending_hist = enq
            record_superstep(
                tracer,
                superstep=superstep,
                active=int(compute_set.size),
                received=received,
                sent=sent,
                enqueues_per_destination=enq,
                costs=self.costs,
            )
            result.active_per_superstep.append(int(compute_set.size))
            result.messages_per_superstep.append(sent)
            for name in self._aggregators:
                self._agg_visible[name] = self._agg_current[name]
                result.aggregator_history[name].append(self._agg_visible[name])

            if tel.enabled:
                tel.add_span(
                    "superstep",
                    step_start,
                    tel.now(),
                    category="superstep",
                    superstep=superstep,
                    active=int(compute_set.size),
                    sent=int(sent),
                    received=int(received),
                )
                tel.counter(
                    "active_vertices", int(compute_set.size),
                    superstep=superstep,
                )
                tel.counter("messages_sent", int(sent), superstep=superstep)
                tel.counter(
                    "messages_received", int(received), superstep=superstep
                )
                tel.sample_memory(superstep=superstep)

            senders = new_senders
            superstep += 1
            if sent_raw == 0 and bool(self.halted.all()):
                break

        result.num_supersteps = superstep
        # Snapshot: a stored result must not alias the engine's mutable
        # run state (a later run/resume on this engine would corrupt it).
        result.values = self.values.copy()
        result.trace = tracer.trace
        return result

    # -- execution hooks -------------------------------------------------
    # The run loop above is shared with the sharded multi-process engine
    # (:class:`repro.bsp.parallel.ShardedBSPEngine`), which overrides
    # these four hooks; everything the equivalence contract depends on —
    # active-set selection, halting, termination, accounting, checkpoint
    # cadence — lives in ``run`` and is executed identically by both.

    def _begin_run(self, program: DenseVertexProgram, values: np.ndarray) -> None:
        """Install the initial per-vertex state for a fresh run/resume."""
        self.values = values

    def _scatter_reset(self) -> None:
        """Drop pending-scatter state (start of a run or resume, or a
        superstep that sent nothing)."""
        self._pending_sel = None
        self._pending_dst = None
        self._pending_left_out = NO_ARCS
        self._pending_raw = 0
        self._pending_hist = None

    def _flood_arcs(self, senders: np.ndarray) -> int:
        """Arcs out of ``senders``: the pre-fold size of their flood."""
        if not senders.size:
            return 0
        return int(self.graph.degrees()[senders].sum())

    def _choose_mode(self, senders: np.ndarray, frontier_arcs: int) -> str:
        """Frontier representation for one sender set (policy + counter)."""
        mode = self.frontier_policy.choose(
            superstep=self._tel_superstep,
            frontier_size=int(senders.size),
            frontier_arcs=int(frontier_arcs),
            num_vertices=self.graph.num_vertices,
            num_arcs=self.graph.num_arcs,
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "frontier_mode",
                0 if mode == SPARSE else 1,
                superstep=self._tel_superstep,
            )
        return mode

    def _select(self, senders: np.ndarray, flood_arcs: int) -> np.ndarray:
        """Select the out-arcs of ``senders`` and retain them for the
        delivery; returns the per-destination enqueue histogram.

        A complement indexes ``col_idx`` as a view, and its histogram is
        the graph's in-degree vector less the quiet vertices' rows: only
        the left-out arcs are touched (none on a full flood).
        """
        graph = self.graph
        mode = self._choose_mode(senders, flood_arcs)
        sel = select_arcs(senders, graph.row_ptr, mode)
        dst = graph.col_idx[sel]
        self._pending_sel = sel
        self._pending_dst = dst
        self._pending_raw = flood_arcs
        if mode == COMPLEMENT:
            quiet = graph.degrees() > 0
            quiet[senders] = False
            left_out = arc_indices(np.flatnonzero(quiet), graph.row_ptr)
        else:
            left_out = NO_ARCS
        self._pending_left_out = left_out
        if isinstance(sel, slice):
            return complement_histogram(graph.in_degrees(), dst, left_out)
        return enqueue_histogram(dst, graph.num_vertices)

    def _gather(
        self,
        program: DenseVertexProgram,
        senders: np.ndarray,
        identity: Any,
    ) -> tuple[Callable[[], np.ndarray], np.ndarray, int]:
        """Stats pass for the pending senders' messages.

        Returns ``(inbox, receivers, raw_received)``: a zero-argument
        materializer producing the per-vertex combiner-folded message
        array (invoked lazily on first ``ctx.messages`` access, or not
        at all), the sorted receiver set, and the pre-fold message count
        (one per arc out of a sender).  The modeled accounting —
        receivers and raw count — is computed here unconditionally; only
        the delivered work (payload + fold) is deferred.
        """
        graph = self.graph
        n = graph.num_vertices
        mdtype = program.message_dtype

        if not senders.size:

            def empty_inbox() -> np.ndarray:
                return np.full(n, identity, dtype=mdtype)

            return empty_inbox, np.empty(0, dtype=np.int64), 0

        if self._pending_sel is None:  # resumed run: no prior scatter
            self._pending_hist = self._select(
                senders, self._flood_arcs(senders)
            )
        sel = self._pending_sel
        dst = self._pending_dst
        left_out = self._pending_left_out
        raw = self._pending_raw
        receivers = (
            np.flatnonzero(self._pending_hist)
            if raw
            else np.empty(0, dtype=np.int64)
        )
        superstep = self._tel_superstep

        def inbox() -> np.ndarray:
            tel = self.telemetry
            with tel.span("deliver", category="phase", superstep=superstep):
                payload = fill_left_out(
                    np.asarray(program.arc_payload(graph, self.values, sel)),
                    left_out,
                    identity,
                    dst.size,
                )
                gathered = np.full(n, identity, dtype=mdtype)
                if dst.size:
                    program.combine.at(gathered, dst, payload)
            if tel.enabled:
                tel.counter(
                    "bytes_delivered",
                    int(payload.nbytes - left_out.size * payload.itemsize),
                    superstep=superstep,
                )
            return gathered

        return inbox, receivers, raw

    def _scatter(
        self, program: DenseVertexProgram, new_senders: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        """Account the new senders' outgoing flood.

        Returns ``(sent_raw, enqueues_per_destination)`` and retains the
        arc selection and its destinations so the next superstep's
        gather reuses them.
        """
        sent_raw = self._flood_arcs(new_senders)
        if not sent_raw:
            self._scatter_reset()
            return 0, None
        return sent_raw, self._select(new_senders, sent_raw)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Release engine resources (no-op for the in-process engine)."""

    def __enter__(self) -> "DenseBSPEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- checkpointing ---------------------------------------------------
    def _snapshot(
        self, superstep: int, senders: np.ndarray, result: BSPResult
    ) -> Checkpoint:
        return Checkpoint(
            superstep=superstep,
            values=self.values.copy(),
            halted=self.halted.copy(),
            pending=[],
            aggregators=dict(self._agg_visible),
            active_history=list(result.active_per_superstep),
            message_history=list(result.messages_per_superstep),
            aggregator_history={
                name: list(vals)
                for name, vals in result.aggregator_history.items()
            },
            dense_senders=senders.copy(),
        )
