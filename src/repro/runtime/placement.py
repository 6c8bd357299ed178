"""Thread-to-hardware placement maps.

The hierarchical work stealing scheme and the NUMA cost model both need
to know which socket and blade a thread runs on.  Threads are packed in
id order: socket = tid // cores_per_socket, blade = socket //
sockets_per_blade — matching how jobs are placed on Blacklight
(Table 2: 8 cores per socket, 2 sockets per blade).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Placement:
    """Packed placement of ``n_threads`` hardware threads."""

    n_threads: int
    cores_per_socket: int = 8
    sockets_per_blade: int = 2
    threads_per_core: int = 1  # 2 under hyper-threading

    @property
    def threads_per_socket(self) -> int:
        return self.cores_per_socket * self.threads_per_core

    @property
    def threads_per_blade(self) -> int:
        return self.threads_per_socket * self.sockets_per_blade

    def core_of(self, tid: int) -> int:
        return tid // self.threads_per_core

    def socket_of(self, tid: int) -> int:
        return tid // self.threads_per_socket

    def blade_of(self, tid: int) -> int:
        return tid // self.threads_per_blade

    @property
    def n_blades(self) -> int:
        return (self.n_threads + self.threads_per_blade - 1) // self.threads_per_blade


def flat_placement(n_threads: int) -> Placement:
    """Everything on one giant socket: hierarchy levels degenerate and
    HWS behaves exactly like flat random work stealing."""
    return Placement(
        n_threads=n_threads,
        cores_per_socket=max(1, n_threads),
        sockets_per_blade=1,
    )

