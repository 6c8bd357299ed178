"""Machine specifications and the NUMA latency/congestion cost model.

Machine constants come from the paper's Table 2; the per-hop latency
(2,000 cycles) and the 3-vs-5 hop placement behaviour (allocations up to
8 blades stay under one mid-level switch; larger allocations route near
the fat-tree root) come from Section 6.3.  Operation work constants are
calibrated so a single simulated Blacklight core refines at a rate in
the paper's reported range (~10^5 elements/second single-threaded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.domain import OperationResult
from repro.runtime.placement import Placement


@dataclass(frozen=True)
class MachineSpec:
    """A cc-NUMA machine (paper Table 2)."""

    name: str
    cores_per_socket: int
    sockets_per_blade: int
    n_blades: int
    memory_per_socket_gb: int
    max_hops: int
    clock_hz: float

    def placement(self, n_threads: int, hyperthreading: bool = False
                  ) -> Placement:
        return Placement(
            n_threads=n_threads,
            cores_per_socket=self.cores_per_socket,
            sockets_per_blade=self.sockets_per_blade,
            threads_per_core=2 if hyperthreading else 1,
        )


BLACKLIGHT = MachineSpec(
    name="Blacklight",
    cores_per_socket=8,
    sockets_per_blade=2,
    n_blades=128,
    memory_per_socket_gb=64,
    max_hops=5,
    clock_hz=2.27e9,  # Intel Xeon X7560
)

CRTC = MachineSpec(
    name="CRTC",
    cores_per_socket=6,
    sockets_per_blade=2,
    n_blades=1,
    memory_per_socket_gb=48,
    max_hops=0,
    clock_hz=3.47e9,  # Intel Xeon X5690
)


@dataclass
class NumaCostModel:
    """Charges virtual time for refinement operations.

    All work constants are in cycles.  ``op_cost`` composes compute work
    (proportional to the cavity / ball sizes the operation actually
    touched) with communication work (per-vertex penalties by NUMA
    distance between the toucher and the vertex's creator, amplified by
    switch congestion).
    """

    machine: MachineSpec = BLACKLIGHT
    # compute work
    op_base_cycles: float = 30_000.0
    per_cavity_tet_cycles: float = 8_000.0
    per_new_tet_cycles: float = 6_000.0
    per_removed_vertex_cycles: float = 60_000.0
    classification_cycles: float = 9_000.0
    # communication
    intra_socket_cycles: float = 0.0
    inter_socket_cycles: float = 700.0
    cycles_per_hop: float = 2_000.0  # Section 6.3
    # congestion: leaky bucket of in-flight remote accesses per switch
    switch_service_rate: float = 3.0e6   # remote touches/s a switch absorbs
    congestion_softcap: float = 64.0     # bucket level where latency doubles
    # hyper-threading: two hardware threads share the pipeline
    ht_compute_factor: float = 1.35
    # per-core vertex cache (LLC stand-in): first touch of a remote
    # vertex pays the NUMA latency, re-touches are free
    vertex_cache_capacity: int = 4096

    def hops_between(self, blade_a: int, blade_b: int, n_blades: int) -> int:
        """Fat-tree hop count between blades for this allocation size.

        Jobs spanning at most 8 blades (128 cores) sit under one
        mid-level switch (3 hops blade-to-blade); bigger allocations are
        placed near the root and pay 5 (Section 6.3's observation).
        """
        if blade_a == blade_b:
            return 0
        return 3 if n_blades <= 8 else 5

    def touch_cost_cycles(self, toucher: int, creator: int,
                          placement: Placement, congestion: float) -> float:
        """Penalty for one vertex touch, by NUMA distance."""
        if placement.socket_of(toucher) == placement.socket_of(creator):
            return self.intra_socket_cycles
        b_t = placement.blade_of(toucher)
        b_c = placement.blade_of(creator)
        if b_t == b_c:
            return self.inter_socket_cycles
        hops = self.hops_between(b_t, b_c, placement.n_blades)
        return hops * self.cycles_per_hop * congestion

    def compute_cycles(self, result: Optional[OperationResult],
                       hyperthreading: bool) -> float:
        """Pure compute work of one operation (no communication)."""
        if result is None:  # rolled-back partial work
            cycles = self.op_base_cycles
        else:
            cycles = (
                self.op_base_cycles
                + self.per_cavity_tet_cycles * len(result.killed_tets)
                + self.per_new_tet_cycles * len(result.new_tets)
                + self.per_removed_vertex_cycles * len(result.removed_vertices)
                + self.classification_cycles
            )
        if hyperthreading:
            cycles *= self.ht_compute_factor
        return cycles

    def seconds(self, cycles: float) -> float:
        return cycles / self.machine.clock_hz
