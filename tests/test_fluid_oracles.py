"""Analytic oracles for the fluid engine: closed-form answers the
flow-level allocation must reproduce exactly, not within the packet
engine's loose parity band.

The first oracle is the Presto fabric bottleneck.  N long-lived
elephants cross a 2-tier Clos with k spines, each from its own host on
leaf A to its own host on leaf B.  Presto sprays every elephant evenly
over the k disjoint spanning trees, so each of A's k uplinks carries
1/k of every elephant.  With N >= 2k the uplinks, not the access links,
are the bottleneck, and max-min fairness gives every elephant exactly
``k * R / N``.
"""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.fluid.engine import UNBOUNDED_CELLS_PER_LABEL
from repro.units import SEC, gbps, usec


@pytest.mark.parametrize("k,n", [(2, 4), (3, 7), (4, 8), (4, 12)])
def test_presto_elephants_share_fabric_exactly(k, n):
    rate_bps = gbps(10)
    cfg = TestbedConfig(scheme="presto", seed=1, fidelity="flow",
                        topology=f"clos:spines={k},leaves=2,hosts={n}",
                        link_rate_bps=rate_bps)
    tb = Testbed(cfg)
    # staggered starts: one reallocation per arrival
    elephants = [tb.add_elephant(i, n + i, start_ns=usec(1 + i))
                 for i in range(n)]
    tb.run(usec(100))

    per_byte_ns = rate_bps / (8.0 * SEC)
    expected = k * per_byte_ns / n
    for elephant in elephants:
        assert len(elephant.pipes) == k
        rate = sum(pipe.rate for pipe in elephant.pipes)
        assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)
    # Paths are walked once per sliced cell; the reallocations between
    # arrivals reuse them (no link event ever happened).
    assert tb.engine.reallocs == n
    assert tb.engine.path_resolves == n * k * UNBOUNDED_CELLS_PER_LABEL
