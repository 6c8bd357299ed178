"""Poor Element Lists (paper Section 4.1).

A PEL holds the tetrahedra a thread is responsible for refining.
Entries are ``(tet id, epoch)`` pairs: tet slots are recycled by the
kernel, so the epoch detects invalidated entries lazily — the same
mechanism as the paper's "invalidation flag" that lets a thread skip
elements another thread has already destroyed without synchronising.

A validity counter tracks how many *live* entries the list holds; the
load balancer uses it to decide whether a thread has enough surplus
work to give away (the paper forbids giving work when the counter is
below a threshold, default 5).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.delaunay.mesh import MeshArrays


class PoorElementList:
    """Deque of (tet, epoch) entries with lazy invalidation."""

    def __init__(self, mesh: MeshArrays):
        self._mesh = mesh
        self._items: Deque[Tuple[int, int]] = deque()
        self.live_count = 0  # approximate count of still-valid entries

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: int) -> None:
        """Queue live tet ``t`` for refinement."""
        self._items.append((t, self._mesh.tet_epoch.item(t)))
        self.live_count += 1

    def pop(self) -> Optional[int]:
        """Next live tet to refine, or ``None`` when empty.

        Stale entries (killed or recycled slots) are discarded silently —
        the lazy counterpart of eager PEL removal in Section 4.3.
        """
        items = self._items
        mesh = self._mesh
        while items:
            t, epoch = items.popleft()
            if (mesh.tet_verts_arr[t, 0] >= 0
                    and mesh.tet_epoch.item(t) == epoch):
                self.live_count -= 1
                return t
        self.live_count = 0
        return None

    def take_oldest(self, k: int) -> list:
        """Remove and return up to ``k`` live tets from the cold end.

        Donating the *oldest* entries hands a beggar work in regions the
        owner has long left (its hot frontier is at the other end),
        which is what makes stolen work spatially disjoint from the
        giver's and keeps the thief from immediately conflicting with
        it.
        """
        out = []
        items = self._items
        mesh = self._mesh
        while items and len(out) < k:
            t, epoch = items.popleft()
            if (mesh.tet_verts_arr[t, 0] >= 0
                    and mesh.tet_epoch.item(t) == epoch):
                out.append(t)
        self.live_count = max(0, self.live_count - len(out))
        return out
