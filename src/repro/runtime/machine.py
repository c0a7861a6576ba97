"""Cluster cost model.

Parameters approximate the paper's testbed: 16 identical Pentium III
500 MHz nodes, 128 MB RAM, FastEthernet (100 Mbit/s), Linux 2.2.17,
MPICH-era MPI.  The absolute values only set the scale; the experiments
compare tile *shapes* under identical cost models, which is exactly what
the paper's cluster did.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Send protocols a run or a certificate can be asked for (see
#: :meth:`ClusterSpec.uses_rendezvous`).
PROTOCOLS = ("eager", "rendezvous", "spec")


@dataclass(frozen=True)
class ClusterSpec:
    """Deterministic cost model for the simulated cluster.

    * ``time_per_iteration`` — seconds of CPU per iteration point of the
      loop body (a handful of flops + memory traffic on a P-III/500).
    * ``net_latency`` — per-message startup ``alpha`` (MPI + TCP + wire).
    * ``net_bandwidth`` — sustained bytes/second ``beta`` on the wire.
    * ``time_per_packed_element`` — CPU cost of packing or unpacking one
      element to/from a message buffer.
    * ``bytes_per_element`` — payload bytes per array element (doubles).
    * ``overlap`` — if True, sends are offloaded after the startup cost
      (the computation/communication-overlap extension the paper lists
      as future work, their ref [8]); if False (paper's scheme) the
      sender is blocked for the full transfer.
    * ``rendezvous_threshold`` — if set, messages larger than this many
      *bytes* use MPI's synchronous rendezvous protocol: the transfer
      cannot start until the receive is posted (both sides block
      together).  ``None`` models a pure eager/buffered MPI.  Ignored
      in overlap mode.
    """

    nodes: int = 16
    time_per_iteration: float = 400e-9
    net_latency: float = 120e-6
    net_bandwidth: float = 12.0e6
    time_per_packed_element: float = 25e-9
    bytes_per_element: int = 8
    overlap: bool = False
    rendezvous_threshold: int | None = None
    #: Optional per-rank CPU slowdown factors (1.0 = nominal).  Models a
    #: heterogeneous cluster; ranks beyond the tuple's length run at 1.0.
    node_speed_factors: tuple | None = None

    def node_speed_factor(self, rank: int) -> float:
        if self.node_speed_factors is None:
            return 1.0
        if 0 <= rank < len(self.node_speed_factors):
            return float(self.node_speed_factors[rank])
        return 1.0

    def transfer_time(self, nbytes: int) -> float:
        """Hockney model: ``alpha + n / beta``."""
        return self.net_latency + nbytes / self.net_bandwidth

    def message_time(self, nelems: int) -> float:
        return self.transfer_time(nelems * self.bytes_per_element)

    def compute_time(self, points: int) -> float:
        return points * self.time_per_iteration

    def pack_time(self, nelems: int) -> float:
        return nelems * self.time_per_packed_element

    def uses_rendezvous(self, protocol: str, nelems: int) -> bool:
        """Does a message of ``nelems`` elements take the synchronous
        protocol?  ``"eager"`` never, ``"rendezvous"`` always,
        ``"spec"`` by ``rendezvous_threshold`` — the one decision the
        simulator, the ring port and the static replay all ask."""
        if protocol != "spec":
            return protocol == "rendezvous"
        return (self.rendezvous_threshold is not None
                and not self.overlap
                and nelems * self.bytes_per_element
                > self.rendezvous_threshold)

    def with_overlap(self) -> ClusterSpec:
        return replace(self, overlap=True)


#: The paper's testbed, as close as a cost model gets.
FAST_ETHERNET_CLUSTER = ClusterSpec()
