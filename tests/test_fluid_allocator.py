"""Property-based tests of the weighted max-min allocator (hypothesis).

The invariants the fluid engine's correctness rests on:

1. **Capacity** — no link ever carries more than its capacity.
2. **Work conservation** — a flow's rate can only be raised by
   violating a capacity or a demand cap: every flow is pinned against
   at least one saturated link, its demand, or is unbounded (inf).
3. **Bottleneck fairness** — equal-weight flows sharing one saturated
   link and nothing else get equal rates; weighted flows get rates
   proportional to their weights.
4. **Permutation invariance** — permuting the input flow list permutes
   the output rates *bit-for-bit* (every float reduction inside runs
   in sorted order), which is what makes serial and parallel sweeps
   byte-identical.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid.allocator import max_min_allocation

LINKS = [f"L{i}" for i in range(6)]

#: float slack for capacity / conservation checks (the allocator works
#: in absolute rates around ~1e0-1e2 here)
EPS = 1e-9


@st.composite
def allocation_case(draw):
    """(flows, capacity): up to 8 flows over up to 6 links, some flows
    demand-capped, weights in [0.1, 8]."""
    n_links = draw(st.integers(1, len(LINKS)))
    links = LINKS[:n_links]
    capacity = {
        link: draw(st.floats(0.125, 100.0, allow_nan=False))
        for link in links
    }
    n_flows = draw(st.integers(1, 8))
    flows = []
    for _ in range(n_flows):
        path = draw(st.lists(st.sampled_from(links), min_size=1,
                             max_size=n_links, unique=True))
        weight = draw(st.floats(0.1, 8.0, allow_nan=False))
        demand = draw(st.one_of(
            st.none(), st.floats(0.0, 50.0, allow_nan=False)))
        flows.append((tuple(path), weight, demand))
    return flows, capacity


def link_loads(flows, rates):
    loads = {}
    for (links, _, _), rate in zip(flows, rates):
        for link in set(links):
            loads[link] = loads.get(link, 0.0) + rate
    return loads


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_capacity_respected(case):
    flows, capacity = case
    rates = max_min_allocation(flows, capacity)
    assert all(r >= 0.0 for r in rates)
    for link, load in link_loads(flows, rates).items():
        assert load <= capacity[link] * (1 + 1e-9) + EPS


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_work_conserving(case):
    """Every finite-rate flow is pinned: against its demand cap or
    against a link with (numerically) zero headroom."""
    flows, capacity = case
    rates = max_min_allocation(flows, capacity)
    loads = link_loads(flows, rates)
    for (links, _, demand), rate in zip(flows, rates):
        if math.isinf(rate):
            assert demand is None and not links
            continue
        at_demand = demand is not None and rate >= demand - EPS
        at_link = any(
            loads[link] >= capacity[link] * (1 - 1e-6) - EPS
            for link in set(links)
        )
        assert at_demand or at_link, (
            f"flow rate {rate} not pinned by demand {demand} "
            f"or any of {sorted(set(links))}")


@settings(max_examples=200, deadline=None)
@given(allocation_case())
def test_permutation_invariance_exact(case):
    """Shuffling the flow list permutes the rates without changing a
    single bit — the property serial/parallel determinism rides on."""
    flows, capacity = case
    base = max_min_allocation(flows, capacity)
    order = list(range(len(flows)))
    rng = random.Random(0xF1D0)
    for _ in range(3):
        rng.shuffle(order)
        shuffled = max_min_allocation([flows[i] for i in order], capacity)
        for pos, i in enumerate(order):
            assert shuffled[pos] == base[i]  # bitwise, not approx


def test_bottleneck_fairness_equal_weights():
    flows = [(("A",), 1.0, None) for _ in range(4)]
    rates = max_min_allocation(flows, {"A": 10.0})
    assert rates == [2.5, 2.5, 2.5, 2.5]


def test_bottleneck_fairness_weighted():
    flows = [(("A",), 1.0, None), (("A",), 3.0, None)]
    rates = max_min_allocation(flows, {"A": 8.0})
    assert rates == pytest.approx([2.0, 6.0])


def test_classic_two_bottleneck_example():
    """Bertsekas & Gallager's shape: a long flow crossing both links
    shares the tighter one; short flows soak up the leftovers."""
    flows = [
        (("A", "B"), 1.0, None),  # long flow
        (("A",), 1.0, None),
        (("B",), 1.0, None),
    ]
    rates = max_min_allocation(flows, {"A": 10.0, "B": 4.0})
    assert rates[0] == pytest.approx(2.0)   # bottlenecked on B
    assert rates[2] == pytest.approx(2.0)
    assert rates[1] == pytest.approx(8.0)   # A's leftover
    assert rates[0] + rates[1] == pytest.approx(10.0)
    assert rates[0] + rates[2] == pytest.approx(4.0)


def test_demand_caps_free_capacity_for_others():
    flows = [(("A",), 1.0, 1.0), (("A",), 1.0, None)]
    rates = max_min_allocation(flows, {"A": 10.0})
    assert rates == pytest.approx([1.0, 9.0])


def test_linkless_flows():
    """No links: bounded flows sit at their demand, unbounded at inf."""
    rates = max_min_allocation([((), 1.0, 7.0), ((), 1.0, None)], {})
    assert rates[0] == 7.0
    assert math.isinf(rates[1])


def test_zero_capacity_blackhole():
    rates = max_min_allocation(
        [(("A",), 1.0, None), (("B",), 1.0, None)],
        {"A": 0.0, "B": 5.0},
    )
    assert rates == pytest.approx([0.0, 5.0])


def test_input_validation():
    with pytest.raises(ValueError):
        max_min_allocation([(("A",), 0.0, None)], {"A": 1.0})
    with pytest.raises(ValueError):
        max_min_allocation([(("A",), 1.0, -1.0)], {"A": 1.0})
    with pytest.raises(ValueError):
        max_min_allocation([(("missing",), 1.0, None)], {"A": 1.0})
    with pytest.raises(ValueError):
        max_min_allocation([(("A",), 1.0, None)], {"A": -1.0})
    assert max_min_allocation([], {"A": 1.0}) == []


# --- equivalence with the recompute-everything reference ----------------

def reference_allocation(flows, capacity):
    """Progressive filling that re-reduces every link's active weight in
    every round (the allocator before link sums were cached).  Kept as
    the oracle the incremental allocator must match bit for bit."""
    n = len(flows)
    rates = [0.0] * n
    if n == 0:
        return rates
    link_flows, demands, weights = {}, [], []
    for i, (links, weight, demand) in enumerate(flows):
        weights.append(float(weight))
        demands.append(None if demand is None else float(demand))
        for link in set(links):
            link_flows.setdefault(link, []).append(i)
    remaining = {link: float(capacity[link]) for link in link_flows}
    ordered_links = sorted(link_flows, key=repr)

    def active_weight(link):
        total = 0.0
        for value in sorted(weights[i] for i in link_flows[link]
                            if active[i]):
            total += value
        return total

    active = [True] * n
    while sum(active):
        dt = None
        for link in ordered_links:
            wsum = active_weight(link)
            if wsum <= 0.0:
                continue
            step = remaining[link] / wsum
            if dt is None or step < dt:
                dt = step
        for i in range(n):
            if not active[i] or demands[i] is None:
                continue
            step = (demands[i] - rates[i]) / weights[i]
            if dt is None or step < dt:
                dt = step
        if dt is None:
            for i in range(n):
                if active[i]:
                    rates[i] = float("inf")
                    active[i] = False
            break
        dt = max(dt, 0.0)
        if dt > 0.0:
            for i in range(n):
                if active[i]:
                    rates[i] += weights[i] * dt
            for link in ordered_links:
                wsum = active_weight(link)
                if wsum > 0.0:
                    remaining[link] -= wsum * dt
        froze = False
        for i in range(n):
            if (active[i] and demands[i] is not None
                    and rates[i] >= demands[i] - abs(demands[i]) * 1e-12):
                rates[i] = demands[i]
                active[i] = False
                froze = True
        for link in ordered_links:
            if remaining[link] <= float(capacity[link]) * 1e-12:
                remaining[link] = max(remaining[link], 0.0)
                for i in link_flows[link]:
                    if active[i]:
                        active[i] = False
                        froze = True
        if not froze:
            demand_gap, demand_idx = None, None
            for i in range(n):
                if not active[i] or demands[i] is None:
                    continue
                gap = (demands[i] - rates[i]) / weights[i]
                if demand_gap is None or gap < demand_gap:
                    demand_gap, demand_idx = gap, i
            tightest = min(
                (link for link in ordered_links if active_weight(link) > 0.0),
                key=lambda link: (remaining[link], repr(link)),
                default=None,
            )
            if demand_idx is not None and (
                    tightest is None or demand_gap <= remaining[tightest]):
                rates[demand_idx] = demands[demand_idx]
                active[demand_idx] = False
            elif tightest is not None:
                for i in link_flows[tightest]:
                    active[i] = False
            else:
                break
    return rates


@st.composite
def edge_case(draw):
    """(flows, capacity) reaching the corners the incremental
    bookkeeping must get right: zero-capacity links, flows crossing no
    link, zero demand caps, a link listed twice in one flow, and many
    flows sharing few links (long filling sequences)."""
    n_links = draw(st.integers(1, len(LINKS)))
    links = LINKS[:n_links]
    capacity = {
        link: draw(st.one_of(st.just(0.0), st.just(10.0),
                             st.floats(0.125, 100.0, allow_nan=False)))
        for link in links
    }
    flows = []
    for _ in range(draw(st.integers(0, 16))):
        path = draw(st.lists(st.sampled_from(links), max_size=4))
        weight = draw(st.one_of(st.just(1.0), st.just(0.25),
                                st.floats(0.1, 8.0, allow_nan=False)))
        demand = draw(st.one_of(st.none(), st.just(0.0),
                                st.floats(0.0, 50.0, allow_nan=False)))
        flows.append((tuple(path), weight, demand))
    return flows, capacity


@settings(max_examples=300, deadline=None)
@given(st.one_of(allocation_case(), edge_case()))
def test_matches_recompute_everything_reference(case):
    """Caching link weight sums changes no bit of any rate, ``inf``
    included."""
    flows, capacity = case
    assert max_min_allocation(flows, capacity) == reference_allocation(
        flows, capacity)


def test_reference_corners_pinned():
    """The edge cases the property test draws, spelled out once."""
    flows = [
        (("A", "A"), 1.0, None),   # duplicate link in one flow
        ((), 1.0, None),           # linkless, unbounded
        ((), 1.0, 3.0),            # linkless, capped
        (("Z",), 1.0, None),       # zero-capacity link
        (("A",), 2.0, 0.0),        # zero demand
        (("A", "B"), 1.0, None),
    ]
    capacity = {"A": 10.0, "B": 2.0, "Z": 0.0}
    rates = max_min_allocation(flows, capacity)
    assert rates == reference_allocation(flows, capacity)
    assert rates == [8.0, float("inf"), 3.0, 0.0, 0.0, 2.0]
