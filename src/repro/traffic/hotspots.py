"""Hotspot targets, static and moving.

Contributors are divided into subsets; each subset sends to its own
hotspot (section III of the paper: "If C is divided into subsets
C1..Cn where each subset sends to a different hotspot, the
corresponding network will grow a forest of ... congestion trees").

For section V-C, hotspots *move*: every ``lifetime_ns`` each subset's
hotspot is redrawn, and every attached generator is kicked so pending
wake-ups are re-evaluated immediately ("the B node changes the address
of the hotspot at each new timeslot").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine.rng import RngStream


class HotspotSchedule:
    """Current hotspot per subset, with optional periodic relocation.

    Parameters
    ----------
    initial:
        One hotspot node id per subset.
    lifetime_ns:
        None for permanent hotspots; otherwise the hotspot lifetime
        (10 ms ... 1 ms in the paper's figure 9/10 sweeps).
    candidates:
        Node ids hotspots may move to (defaults to all nodes seen).
    rng:
        Generator used for redraws (required when moving).
    """

    __slots__ = (
        "current_targets",
        "lifetime_ns",
        "candidates",
        "rng",
        "moves",
        "_sim",
        "_hcas",
    )

    def __init__(
        self,
        initial: Sequence[int],
        *,
        lifetime_ns: Optional[float] = None,
        candidates: Optional[Sequence[int]] = None,
        rng: Optional[RngStream] = None,
    ) -> None:
        if not initial:
            raise ValueError("need at least one hotspot subset")
        if lifetime_ns is not None:
            if lifetime_ns <= 0:
                raise ValueError("lifetime must be positive")
            if rng is None:
                raise ValueError("moving hotspots need an rng")
        self.current_targets: List[int] = list(initial)
        self.lifetime_ns = lifetime_ns
        self.candidates = list(candidates) if candidates is not None else None
        self.rng = rng
        self.moves = 0
        self._sim = None
        self._hcas = None

    @property
    def n_subsets(self) -> int:
        return len(self.current_targets)

    def target(self, subset: int) -> int:
        """The subset's current hotspot node."""
        return self.current_targets[subset]

    # -- moving ----------------------------------------------------------
    def install(self, sim, hcas) -> None:
        """Arm the relocation timer on ``sim``; kick ``hcas`` per move."""
        self._sim = sim
        self._hcas = hcas
        if self.lifetime_ns is not None:
            sim.schedule(self.lifetime_ns, self._move)

    def _move(self) -> None:
        pool = self.candidates
        if pool is None:
            raise RuntimeError("moving schedule installed without candidates")
        rng = self.rng
        taken = set()
        for subset in range(len(self.current_targets)):
            # Redraw, avoiding collisions between subsets so the forest
            # keeps one distinct root per subset (as in the paper).
            for _ in range(64):
                new = int(pool[int(rng.integers(len(pool)))])
                if new not in taken and new != self.current_targets[subset]:
                    break
            taken.add(new)
            self.current_targets[subset] = new
        self.moves += 1
        for hca in self._hcas:
            hca.kick()
        self._sim.schedule(self.lifetime_ns, self._move)

    @classmethod
    def choose_initial(
        cls,
        n_subsets: int,
        n_nodes: int,
        rng: RngStream,
        *,
        lifetime_ns: Optional[float] = None,
    ) -> "HotspotSchedule":
        """Random distinct initial hotspots over all nodes."""
        if n_subsets > n_nodes:
            raise ValueError("more hotspot subsets than nodes")
        initial = rng.choice(n_nodes, size=n_subsets, replace=False)
        return cls(
            [int(h) for h in initial],
            lifetime_ns=lifetime_ns,
            candidates=list(range(n_nodes)),
            rng=rng,
        )
