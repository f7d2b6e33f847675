"""Node-role assignment for the paper's scenarios.

The windy-forest experiments (section V-B) use a mix parameterized by
``x`` — the fraction of B nodes — with the remaining ``1 - x`` of the
nodes split 80 % C / 20 % V ("as before"). Contributors (B and C) are
evenly divided over the hotspot subsets. A contributor is never
assigned the subset whose hotspot is itself (it cannot send to
itself); such collisions are rotated to the next subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.rng import RngStream


@dataclass
class NodeMix:
    """Roles and subset assignment for every node."""

    n_nodes: int
    roles: Dict[int, str]  # node -> "B" | "C" | "V"
    subset_of: Dict[int, int] = field(default_factory=dict)  # contributors only
    n_subsets: int = 0

    def nodes_with_role(self, role: str) -> List[int]:
        """All node ids holding the given role."""
        return [n for n in range(self.n_nodes) if self.roles[n] == role]

    @property
    def b_nodes(self) -> List[int]:
        return self.nodes_with_role("B")

    @property
    def c_nodes(self) -> List[int]:
        return self.nodes_with_role("C")

    @property
    def v_nodes(self) -> List[int]:
        return self.nodes_with_role("V")

    def validate_against(self, hotspots: List[int]) -> None:
        """No contributor may target itself."""
        for node, subset in self.subset_of.items():
            if hotspots[subset] == node:
                raise ValueError(f"node {node} is its own hotspot (subset {subset})")


def assign_roles(
    n_nodes: int,
    *,
    b_fraction: float,
    n_subsets: int,
    hotspots: List[int],
    rng: RngStream,
    c_fraction_of_rest: float = 0.8,
) -> NodeMix:
    """Build the paper's node mix.

    ``b_fraction`` of nodes become B nodes; of the rest,
    ``c_fraction_of_rest`` become C and the remainder V. All roles are
    assigned to randomly permuted node ids (the paper randomly
    distributes the V nodes in the topology). Contributors are dealt
    round-robin over subsets, skipping a subset whose hotspot is the
    node itself.
    """
    if not 0.0 <= b_fraction <= 1.0:
        raise ValueError("b_fraction must be in [0, 1]")
    if not 0.0 <= c_fraction_of_rest <= 1.0:
        raise ValueError("c_fraction_of_rest must be in [0, 1]")
    if len(hotspots) != n_subsets:
        raise ValueError("need exactly one hotspot per subset")
    if n_subsets <= 0:
        raise ValueError("need at least one subset")

    perm = [int(v) for v in rng.permutation(n_nodes)]
    n_b = round(b_fraction * n_nodes)
    n_c = round(c_fraction_of_rest * (n_nodes - n_b))
    roles: Dict[int, str] = {}
    for i, node in enumerate(perm):
        if i < n_b:
            roles[node] = "B"
        elif i < n_b + n_c:
            roles[node] = "C"
        else:
            roles[node] = "V"

    subset_of: Dict[int, int] = {}
    next_subset = 0
    for node in perm:
        if roles[node] == "V":
            continue
        subset = next_subset
        if hotspots[subset] == node:
            subset = (subset + 1) % n_subsets
            if hotspots[subset] == node:  # single-subset degenerate case
                raise ValueError(
                    f"cannot assign node {node}: it is the only hotspot"
                )
        subset_of[node] = subset
        next_subset = (next_subset + 1) % n_subsets

    mix = NodeMix(n_nodes=n_nodes, roles=roles, subset_of=subset_of, n_subsets=n_subsets)
    mix.validate_against(hotspots)
    return mix
