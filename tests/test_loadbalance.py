"""Tests for the TWC/ALB/LB/TB load-balancer cost models.

The key behavioral contracts come straight from Section V-B2:
* all schemes are equivalent on low-degree frontiers;
* a single huge-degree vertex cripples TWC and TB (stuck in one block) but
  not ALB or LB (spread across blocks);
* ALB is never much worse than TWC.

Each scheme prices only its straggler block; :func:`reference_cost` is
the formula that built every block's load first, and every ``cost()``
must equal it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import WARP_SIZE
from repro.errors import ConfigurationError
from repro.loadbalance import ALB, GunrockLB, LuxTB, TWC, get_balancer
from repro.loadbalance.alb import MIN_SPLIT
from repro.loadbalance.base import BlockCost
from repro.loadbalance.tb import WASTE_CHARGE

BLOCKS = 224  # P100: 56 SMs x 4 blocks

ALL = [TWC, ALB, GunrockLB, LuxTB]


def reference_block_loads(work, nb):
    """Per-vertex work dealt to ``nb`` blocks round-robin: every block's
    sum, in index order."""
    return np.bincount(np.arange(len(work)) % nb, weights=work, minlength=nb)


def reference_cost(bal, degrees, nb) -> BlockCost:
    """``bal.cost`` as a block array and its max."""
    d = np.asarray(degrees, dtype=np.float64)
    total = float(d.sum())
    if bal is GunrockLB:
        loads = np.full(nb, total / nb)
    elif bal is ALB:
        heavy = d > max(2.0 * (total / nb), float(MIN_SPLIT))
        loads = reference_block_loads(np.where(heavy, 0.0, d), nb)
        loads = loads + float(d[heavy].sum()) / nb  # on every block
    else:
        w = np.maximum(d, 1.0)
        if bal is LuxTB:
            w = w + WASTE_CHARGE * (np.ceil(w / WARP_SIZE) * WARP_SIZE - w)
        loads = reference_block_loads(w, nb)
    max_load = float(loads.max())
    effective = max_load * nb * bal.overhead_factor + bal.fixed_round_units
    return BlockCost(total, max(effective, total), max_load)


def _bits(c: BlockCost):
    return tuple(float(v).hex() for v in
                 (c.total_work, c.effective_work, c.max_block_load))


@pytest.mark.parametrize("bal", ALL, ids=lambda b: b.name)
@given(
    nb=st.integers(1, 40),
    size=st.sampled_from(["0", "1", "nb-1", "nb", "nb+1", "5nb"]),
    kind=st.sampled_from(["mixed", "zero", "one-heavy"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_cost_is_the_block_array_formula_bit_for_bit(bal, nb, size, kind, seed):
    n = {"0": 0, "1": 1, "nb-1": nb - 1, "nb": nb, "nb+1": nb + 1,
         "5nb": 5 * nb}[size]
    rng = np.random.default_rng(seed)
    if kind == "zero":
        deg = np.zeros(n)
    else:
        # integer degrees with fractional ones mixed in: the sums round
        deg = rng.integers(0, 40, n) + (rng.random(n) < 0.3) * rng.random(n)
        if kind == "one-heavy" and n:
            deg[rng.integers(n)] = 3.0 * MIN_SPLIT + 40.0 * n + rng.random()
    assert _bits(bal.cost(deg, nb)) == _bits(reference_cost(bal, deg, nb))


def imbalance(cost) -> float:
    """effective / total work — 1.0 means perfectly balanced blocks."""
    return cost.effective_work / max(cost.total_work, 1e-12)


class TestRegistry:
    def test_lookup(self):
        assert get_balancer("twc") is TWC
        assert get_balancer("alb") is ALB
        assert get_balancer("lb") is GunrockLB
        assert get_balancer("tb") is LuxTB

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            get_balancer("magic")


class TestBasics:
    @pytest.mark.parametrize("bal", ALL, ids=lambda b: b.name)
    def test_empty_frontier_cheap(self, bal):
        c = bal.cost(np.empty(0), BLOCKS)
        assert c.total_work == 0.0
        assert c.effective_work <= bal.fixed_round_units + 1e-9

    @pytest.mark.parametrize("bal", ALL, ids=lambda b: b.name)
    def test_effective_at_least_total(self, bal):
        deg = np.random.default_rng(0).integers(1, 50, size=1000)
        c = bal.cost(deg, BLOCKS)
        assert c.effective_work >= c.total_work

    @pytest.mark.parametrize("bal", ALL, ids=lambda b: b.name)
    def test_monotone_in_work(self, bal):
        deg = np.full(1000, 10.0)
        small = bal.cost(deg, BLOCKS).effective_work
        big = bal.cost(deg * 10, BLOCKS).effective_work
        assert big > small

    def test_cyclic_loads_conserve_work(self):
        w = np.arange(100, dtype=float)
        loads = reference_block_loads(w, 7)
        assert loads.sum() == pytest.approx(w.sum())


class TestUniformFrontier:
    """On a uniform low-degree frontier all schemes are near-equal."""

    def test_all_schemes_within_40pct(self):
        deg = np.full(50_000, 16.0)
        costs = {b.name: b.cost(deg, BLOCKS).effective_work for b in ALL}
        lo, hi = min(costs.values()), max(costs.values())
        assert hi / lo < 1.4, costs

    def test_imbalance_near_one(self):
        deg = np.full(50_000, 16.0)
        for b in ALL:
            assert imbalance(b.cost(deg, BLOCKS)) < 1.4


class TestGiantVertex:
    """One vertex with in-degree >> everything (the clueweb12 pull case)."""

    @staticmethod
    def frontier():
        deg = np.full(20_000, 10.0)
        deg[7] = 2_000_000.0  # the authority page
        return deg

    def test_twc_cripples(self):
        c = TWC.cost(self.frontier(), BLOCKS)
        assert imbalance(c) > 20  # giant stuck in one block

    def test_tb_cripples(self):
        c = LuxTB.cost(self.frontier(), BLOCKS)
        assert imbalance(c) > 20

    def test_alb_handles(self):
        c = ALB.cost(self.frontier(), BLOCKS)
        assert imbalance(c) < 2.0

    def test_lb_handles(self):
        c = GunrockLB.cost(self.frontier(), BLOCKS)
        assert imbalance(c) < 1.5

    def test_alb_beats_twc_by_far(self):
        deg = self.frontier()
        assert (
            ALB.cost(deg, BLOCKS).effective_work
            < 0.2 * TWC.cost(deg, BLOCKS).effective_work
        )


class TestPaperOrderings:
    def test_alb_close_to_twc_on_push_like_frontier(self):
        """Push frontiers (bounded out-degree) show no ALB advantage."""
        rng = np.random.default_rng(1)
        deg = rng.integers(1, 300, size=30_000).astype(float)
        a = ALB.cost(deg, BLOCKS).effective_work
        t = TWC.cost(deg, BLOCKS).effective_work
        assert a == pytest.approx(t, rel=0.25)

    def test_tb_worst_on_tiny_degrees(self):
        """Lux wastes block lanes on degree-1 vertices."""
        deg = np.ones(100_000)
        assert (
            LuxTB.cost(deg, BLOCKS).effective_work
            > 1.5 * TWC.cost(deg, BLOCKS).effective_work
        )

    def test_lb_overhead_visible_on_uniform(self):
        deg = np.full(100_000, 16.0)
        assert (
            GunrockLB.cost(deg, BLOCKS).effective_work
            > TWC.cost(deg, BLOCKS).effective_work
        )
