"""Weighted max-min fair allocation by progressive filling.

The fluid engine's core primitive: given flows (each a set of directed
link resources, a weight and an optional demand cap) and per-link
capacities, raise every unfrozen flow's rate in lock-step — rate grows
as ``weight * t`` — until a link saturates or a flow meets its demand,
freeze the flows that caused it, and repeat.  The result is the
classic weighted max-min fair allocation (Bertsekas & Gallager §6.5),
which is what per-flow fair queueing plus TCP converges toward and
what flow-level simulators (RepFlow, psim) use in place of packet
queues.

The function is pure and deterministic, and — deliberately — exactly
permutation invariant: every floating-point reduction over a set of
flows or links is performed in a sorted order, so reordering the input
``flows`` list permutes the output rates without changing a single
bit.  The property tests in ``tests/test_fluid_allocator.py`` pin
capacity respect, work conservation, bottleneck fairness and that
permutation invariance.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: relative slack under which a link counts as saturated (floats only)
_REL_EPS = 1e-12

Flow = Tuple[Sequence[Hashable], float, Optional[float]]


def max_min_allocation(
    flows: Sequence[Flow],
    capacity: Dict[Hashable, float],
) -> List[float]:
    """Weighted max-min rates for ``flows`` over ``capacity``.

    ``flows``
        sequence of ``(links, weight, demand)`` triples: the directed
        link resources the flow crosses (hashable ids, each a key of
        ``capacity``), a positive weight, and an optional rate cap
        (``None`` = unbounded demand).  A flow crossing no links is
        limited only by its demand.
    ``capacity``
        per-link capacity, in the same rate unit the result uses.

    Returns one rate per flow, aligned with the input order.
    """
    n = len(flows)
    rates = [0.0] * n
    if n == 0:
        return rates

    link_flows: Dict[Hashable, List[int]] = {}
    flow_links: List[List[Hashable]] = []
    demands: List[Optional[float]] = []
    weights: List[float] = []
    for i, (links, weight, demand) in enumerate(flows):
        if weight <= 0:
            raise ValueError(f"flow {i}: weight must be positive, got {weight}")
        if demand is not None and demand < 0:
            raise ValueError(f"flow {i}: demand must be >= 0, got {demand}")
        weights.append(float(weight))
        demands.append(None if demand is None else float(demand))
        unique = list(set(links))
        flow_links.append(unique)
        for link in unique:
            if link not in capacity:
                raise ValueError(f"flow {i}: unknown link {link!r}")
            link_flows.setdefault(link, []).append(i)

    remaining: Dict[Hashable, float] = {}
    caps: Dict[Hashable, float] = {}
    for link in link_flows:
        cap = float(capacity[link])
        if cap < 0:
            raise ValueError(f"link {link!r}: capacity must be >= 0, got {cap}")
        remaining[link] = caps[link] = cap

    # Each link's active weight is cached and re-reduced only when one
    # of its flows freezes.  Weight sums are computed over *sorted*
    # weight values: addition is not associative in floats, and this
    # keeps the sum — hence the whole allocation — order independent.
    # Live links (sum > 0, i.e. crossed by an active flow) are kept in a
    # stable sorted order, so every tie-break below is independent of
    # dict insertion order (permutation invariance).
    active = [True] * n
    wsum = {link: _active_weight(members, active, weights)
            for link, members in link_flows.items()}
    live_links = sorted(link_flows, key=repr)
    live = list(range(n))
    capped = [i for i in live if demands[i] is not None]
    while live:
        # Largest uniform time step `dt` such that raising every active
        # flow by weight*dt neither oversubscribes a link nor overshoots
        # a demand.
        dt = None
        for link in live_links:
            step = remaining[link] / wsum[link]
            if dt is None or step < dt:
                dt = step
        for i in capped:
            step = (demands[i] - rates[i]) / weights[i]
            if dt is None or step < dt:
                dt = step
        if dt is None:
            # Only unbounded flows crossing no links remain: nothing
            # constrains them.  Freeze at infinity.
            for i in live:
                rates[i] = float("inf")
            break
        dt = max(dt, 0.0)

        if dt > 0.0:
            for i in live:
                rates[i] += weights[i] * dt
            for link in live_links:
                remaining[link] -= wsum[link] * dt

        # Freeze: first flows that met their demand, then flows crossing
        # a saturated link.  At least one flow freezes per round (the
        # minimizing constraint is met with equality), so the loop
        # terminates after at most n rounds.
        frozen: List[int] = []
        for i in capped:
            if rates[i] >= demands[i] - abs(demands[i]) * _REL_EPS:
                rates[i] = demands[i]
                active[i] = False
                frozen.append(i)
        for link in live_links:
            if remaining[link] <= caps[link] * _REL_EPS:
                remaining[link] = max(remaining[link], 0.0)
                for i in link_flows[link]:
                    if active[i]:
                        active[i] = False
                        frozen.append(i)
        if not frozen:
            # Numerical corner: dt rounded to zero without meeting any
            # constraint exactly (e.g. a denormal demand gap whose step
            # underflows).  Freeze the tightest constraint outright —
            # a demand-capped flow whose gap underflowed, else the
            # tightest link.
            demand_gap, demand_idx = None, None
            for i in capped:
                gap = (demands[i] - rates[i]) / weights[i]
                if demand_gap is None or gap < demand_gap:
                    demand_gap, demand_idx = gap, i
            tightest = min(
                live_links,
                key=lambda link: (remaining[link], repr(link)),
                default=None,
            )
            if demand_idx is not None and (
                    tightest is None or demand_gap <= remaining[tightest]):
                rates[demand_idx] = demands[demand_idx]
                active[demand_idx] = False
                frozen.append(demand_idx)
            elif tightest is not None:
                for i in link_flows[tightest]:
                    if active[i]:
                        active[i] = False
                        frozen.append(i)
            else:
                break

        touched = {link for i in frozen for link in flow_links[i]}
        for link in touched:
            wsum[link] = _active_weight(link_flows[link], active, weights)
        live_links = [link for link in live_links if wsum[link] > 0.0]
        live = [i for i in live if active[i]]
        capped = [i for i in capped if active[i]]
    return rates


def _active_weight(indices: List[int], active: List[bool],
                   weights: List[float]) -> float:
    """Sum of active weights on a link, reduced in sorted value order so
    the float result does not depend on flow insertion order."""
    values = sorted(weights[i] for i in indices if active[i])
    total = 0.0
    for value in values:
        total += value
    return total
