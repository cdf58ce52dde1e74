"""A coarse BSP cluster cost model.

Per superstep, a cluster of M commodity machines pays:

* **compute** — instructions spread over ``M x cores`` scalar cores, with
  a load-imbalance factor: random hash partitioning of a scale-free
  graph leaves "one or several machines acquiring high-degree vertices,
  and therefore a disproportionate share of the messaging activity"
  (paper §II);
* **network** — every message crosses the network (vertices are hashed
  across machines, so a 1/M fraction staying local is ignored at these
  scales), bounded by per-machine bandwidth;
* **barrier** — a fixed synchronization cost per superstep (coordination
  through e.g. ZooKeeper in Giraph's case; tens of milliseconds).

The model intentionally has an order-of-magnitude accuracy target: the
paper's cluster numbers are quoted as "approximately 4 seconds" /
"approximately 30 seconds" / "approximately 400 seconds".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmt.trace import WorkTrace

__all__ = [
    "ClusterMachine", "ClusterSimulation", "flat_scaling_range",
    "simulate_cluster_bsp",
]


@dataclass(frozen=True)
class ClusterMachine:
    """A commodity cluster configuration.

    Defaults approximate the 2012-era test systems the paper cites (e.g.
    Schelter's 6-node cluster of two-core Opterons with 32 GiB each).
    """

    num_machines: int = 6
    cores_per_machine: int = 4
    #: Scalar instructions retired per core per second.
    core_ips: float = 1.5e9
    #: Messages a machine can process per second — in-memory BSP engines
    #: (Giraph with bulk serialization, Trinity) sustain a few million
    #: small messages per second per machine end to end.
    messages_per_second_per_machine: float = 5e6
    #: Per-superstep global synchronization cost.
    barrier_seconds: float = 0.05
    #: Load imbalance multiplier for hash-partitioned scale-free graphs:
    #: the busiest machine carries ~imbalance x the mean load.
    imbalance: float = 2.0

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        if self.cores_per_machine < 1:
            raise ValueError("cores_per_machine must be >= 1")
        if self.core_ips <= 0:
            raise ValueError("core_ips must be positive")
        if self.messages_per_second_per_machine <= 0:
            raise ValueError("message rate must be positive")
        if self.barrier_seconds < 0:
            raise ValueError("barrier_seconds must be non-negative")
        if self.imbalance < 1.0:
            raise ValueError("imbalance must be >= 1")

    def with_machines(self, num_machines: int) -> "ClusterMachine":
        from dataclasses import replace

        return replace(self, num_machines=num_machines)


@dataclass
class ClusterSimulation:
    """Priced cluster execution of a BSP trace."""

    machine: ClusterMachine
    per_superstep_seconds: list[float]

    @property
    def total_seconds(self) -> float:
        return sum(self.per_superstep_seconds)


def simulate_cluster_bsp(
    trace: WorkTrace,
    cluster: ClusterMachine,
    *,
    messages_per_superstep: list[int] | None = None,
) -> ClusterSimulation:
    """Price a BSP work trace on a distributed cluster.

    ``trace`` must contain the BSP supersteps (``kind == "superstep"``).
    ``messages_per_superstep`` overrides the message counts when the
    caller has exact numbers; otherwise enqueue writes are used as a
    proxy (writes per message is a known constant of the tracer).
    """
    supersteps = [r for r in trace if r.kind == "superstep"]
    if not supersteps:
        raise ValueError("trace contains no supersteps")

    times: list[float] = []
    m = cluster.num_machines
    for i, region in enumerate(supersteps):
        if messages_per_superstep is not None and i < len(
            messages_per_superstep
        ):
            messages = float(messages_per_superstep[i])
        else:
            messages = region.writes  # upper-bound proxy
        compute = (
            region.total_instructions
            * cluster.imbalance
            / (m * cluster.cores_per_machine * cluster.core_ips)
        )
        network = (
            messages
            * cluster.imbalance
            / (m * cluster.messages_per_second_per_machine)
        )
        times.append(compute + network + cluster.barrier_seconds)
    return ClusterSimulation(machine=cluster, per_superstep_seconds=times)


def flat_scaling_range(
    trace: WorkTrace,
    cluster: ClusterMachine,
    machine_counts: list[int],
    *,
    tolerance: float = 0.25,
) -> list[int]:
    """Machine counts at which adding machines no longer helps.

    Kajdanowicz et al. observe flat Giraph SSSP scaling from 30 to 85
    machines; a count M is "flat" when the simulated time at M is within
    ``tolerance`` of the time at the previous count.
    """
    flat: list[int] = []
    prev_time: float | None = None
    for m in sorted(machine_counts):
        t = simulate_cluster_bsp(trace, cluster.with_machines(m)).total_seconds
        if prev_time is not None and t > prev_time * (1.0 - tolerance):
            flat.append(m)
        prev_time = t
    return flat
