"""Aggregations matching the paper's reported quantities."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def mean_rate_gbps(rates: Sequence[float], nodes: Iterable[int]) -> float:
    """Average of ``rates`` over the given node set (Gbit/s)."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("empty node set")
    return sum(rates[n] for n in nodes) / len(nodes)


def group_rates(
    rates: Sequence[float], hotspots: Iterable[int]
) -> Dict[str, float]:
    """Split the average receive rate into hotspot / non-hotspot / all.

    Matches the row structure of the paper's Table II and the y-axes of
    figures 5–8 (a: non-hotspots, b: hotspots) and 9–10 (all nodes).
    """
    hotspot_set = set(hotspots)
    n = len(rates)
    others = [i for i in range(n) if i not in hotspot_set]
    out = {"all": sum(rates) / n, "total": float(sum(rates))}
    if hotspot_set:
        out["hotspot"] = mean_rate_gbps(rates, hotspot_set)
    if others:
        out["non_hotspot"] = mean_rate_gbps(rates, others)
    return out


def tmax_gbps(
    *,
    n_nodes: int,
    n_b: int,
    n_v: int,
    p: float,
    inj_rate_gbps: float,
    sink_rate_gbps: float,
) -> float:
    """Theoretical max average non-hotspot receive rate (figures 5–8).

    Uniform-destination traffic is offered by the ``n_b`` B nodes at
    ``(1-p)`` of the injection rate and by the ``n_v`` V nodes at the
    full injection rate; spread over all ``n_nodes`` destinations it
    bounds what non-hotspots could receive if the hotspots were absent.
    E.g. the paper's x=25 %, p=0 point: (162 + 97) * 13.5 / 648 =
    5.4 Gbit/s.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    offered = (n_b * (1.0 - p) + n_v) * inj_rate_gbps / n_nodes
    return min(offered, sink_rate_gbps)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index in (0, 1]; 1 means perfectly equal shares."""
    vals: List[float] = [v for v in values]
    if not vals:
        raise ValueError("empty value set")
    total = sum(vals)
    squares = sum(v * v for v in vals)
    if total == 0 or squares == 0.0:
        # All-zero (or denormal underflow): everyone equally starved.
        return 1.0
    return total * total / (len(vals) * squares)
