"""Tests for the repro.tune advisor: features, predictor, DSE, sanity.

Three layers of hardening:

* unit tests pin the feature extractor to hand-computed values on tiny
  graphs;
* hypothesis property tests pin relabeling invariance (features are an
  exact function of the degree multiset) and cost monotonicity (more
  edges / more partitions never predict cheaper comm);
* a differential test pins ``AnalyticPredictor.predict`` to a direct
  ``Router.price_batch`` + ``CostModel`` composition, bit for bit — the
  predictor must stay a pure function of the same pricing model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges
from repro.tune.dse import (
    DseConfig,
    enumerate_cells,
    run_dse,
)
from repro.tune.features import (
    FEATURE_PARTS,
    GraphFeatures,
    expected_distinct_bins,
    extract_features,
)
from repro.tune.predictor import (
    APP_MODELS,
    ASYNC_ROUND_INFLATION,
    ASYNC_SYNC_DISCOUNT,
    AnalyticPredictor,
    ConfigCell,
    app_model,
)
from repro.tune.sanity import advisor_sanity


def star_graph(k=5):
    """Vertex 0 points at 1..k."""
    return from_edges([0] * k, list(range(1, k + 1)), num_vertices=k + 1)


def path_graph(n=4):
    return from_edges(list(range(n - 1)), list(range(1, n)), num_vertices=n)


# ---------------------------------------------------------------------- #
# feature extraction: hand-computed values
# ---------------------------------------------------------------------- #


class TestFeatures:
    def test_star_hand_computed(self):
        g = star_graph(5)  # n=6, m=5; out-degrees [5,0,0,0,0,0]
        f = extract_features(g, name="star5")
        assert f.num_vertices == 6
        assert f.num_edges == 5
        assert f.density == pytest.approx(5 / 36)
        assert f.avg_degree == pytest.approx(5 / 6)
        assert f.max_out_degree == 5
        assert f.max_in_degree == 1
        # out-degrees: mean 5/6, one 5 and five 0s
        mean = 5 / 6
        var = (5 * (0 - mean) ** 2 + (5 - mean) ** 2) / 6
        assert f.out_degree_cv == pytest.approx(np.sqrt(var) / mean)
        assert f.out_degree_skew == pytest.approx(5 / mean)
        # every leaf's in-degree (1) <= 4 * avg (10/3): no hubs
        assert f.hub_edge_fraction == 0.0
        # avg degree < 1 -> linear-depth proxy
        assert f.est_rounds == pytest.approx(6.0)
        assert f.out_degree_sketch == (5.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_path_hand_computed(self):
        g = path_graph(4)  # out-degrees [1,1,1,0]
        f = extract_features(g)
        assert f.avg_degree == pytest.approx(0.75)
        assert f.max_out_degree == 1
        assert f.out_degree_skew == pytest.approx(1 / 0.75)
        assert f.est_rounds == pytest.approx(4.0)

    def test_hub_edge_fraction_counts_hub_mass(self):
        # vertex 0 receives 9 in-edges, the rest 1 each: avg degree
        # 12/11, hub cut 48/11 ~ 4.36, so only the 9-degree hub counts.
        src = [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3]
        dst = [0] * 9 + [4, 5, 6]
        f = extract_features(from_edges(src, dst, num_vertices=11))
        assert f.hub_edge_fraction == pytest.approx(9 / 12)

    def test_expected_distinct_bins_formula(self):
        d = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            expected_distinct_bins(d, 4), 4 * (1 - 0.75**d)
        )
        # one bin (or fewer) is always exactly one distinct bin
        np.testing.assert_allclose(expected_distinct_bins(d, 1), [1, 1, 1])

    def test_replication_table_covers_policy_grid(self):
        f = extract_features(star_graph(5))
        for P in FEATURE_PARTS:
            for policy in ("iec", "oec", "cvc", "hvc"):
                rf = f.rf(policy, P)
                assert 1.0 <= rf <= P
        with pytest.raises(KeyError):
            f.rf("iec", 3)

    def test_star_replication_hand_computed(self):
        # The hub's 5 out-edges spread over P=2 bins:
        # E[distinct] = 2 * (1 - 0.5^5) = 1.9375; leaves contribute 1.
        f = extract_features(star_graph(5))
        assert f.rf("iec", 2) == pytest.approx((2 * (1 - 0.5**5) + 5) / 6)
        # OEC: every in-degree is <= 1 -> no replication at all.
        assert f.rf("oec", 2) == pytest.approx(1.0)

    def test_features_roundtrip_dict(self):
        f = extract_features(star_graph(5), name="rt")
        assert GraphFeatures.from_dict(f.to_dict()) == f

    def test_empty_graph(self):
        f = extract_features(from_edges([], [], num_vertices=0))
        assert f.num_vertices == 0
        assert f.replication == ()


# ---------------------------------------------------------------------- #
# hypothesis: relabeling invariance + cost monotonicity
# ---------------------------------------------------------------------- #


@st.composite
def edge_lists(draw, max_n=30, max_m=60):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


class TestProperties:
    @given(el=edge_lists(), perm_seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_features_relabeling_invariant(self, el, perm_seed):
        n, src, dst = el
        g = from_edges(src, dst, num_vertices=n)
        perm = np.random.default_rng(perm_seed).permutation(n)
        g2 = from_edges(
            perm[np.asarray(src, dtype=np.int64)] if src else [],
            perm[np.asarray(dst, dtype=np.int64)] if dst else [],
            num_vertices=n,
        )
        # exact equality, not approx: features are a deterministic
        # function of the (sorted) degree multiset
        assert extract_features(g, name="x") == extract_features(g2, name="x")

    @given(el=edge_lists(max_m=40), dup=st.integers(2, 4),
           policy=st.sampled_from(["iec", "oec", "cvc", "hvc"]))
    @settings(max_examples=25, deadline=None)
    def test_cost_monotone_in_edges(self, el, dup, policy):
        # duplicating the edge list scales every degree uniformly: more
        # edges with the same distribution shape must never predict
        # cheaper (pr has fixed rounds, so whole-run totals compare
        # like-for-like).  Arbitrary single-edge additions are excluded
        # on purpose — they reshape the degree distribution, and the
        # balancer's block quantization is legitimately non-monotone in
        # shape at the margin.
        n, src, dst = el
        cell = ConfigCell(policy=policy, num_gpus=4)
        lo = AnalyticPredictor(
            extract_features(from_edges(src, dst, num_vertices=n))
        ).predict(cell, "pr")
        hi = AnalyticPredictor(
            extract_features(from_edges(list(src) * dup, list(dst) * dup,
                                        num_vertices=n))
        ).predict(cell, "pr")
        assert hi.breakdown.total >= lo.breakdown.total - 1e-15

    @given(el=edge_lists(), policy=st.sampled_from(["iec", "oec", "hvc"]))
    @settings(max_examples=25, deadline=None)
    def test_comm_monotone_in_parts(self, el, policy):
        # more partitions never predict *cheaper* sync+serialize: mirrors
        # only grow with P (cvc excluded — its grid changes partner
        # structure non-monotonically by design)
        n, src, dst = el
        pred = AnalyticPredictor(
            extract_features(from_edges(src, dst, num_vertices=n))
        )
        comm = []
        for P in (2, 4, 8):
            b = pred.predict(ConfigCell(policy=policy, num_gpus=P), "pr").breakdown
            comm.append(b.sync + b.serialize)
        assert comm[0] <= comm[1] + 1e-15
        assert comm[1] <= comm[2] + 1e-15


# ---------------------------------------------------------------------- #
# differential: the predictor is a pure function of the pricing model
# ---------------------------------------------------------------------- #


class TestDifferential:
    @pytest.mark.parametrize("policy", ["iec", "cvc"])
    @pytest.mark.parametrize("engine", ["bsp", "basp"])
    def test_predict_pins_to_router_composition(self, policy, engine, small_graph):
        """2x2 (policy x engine) micro-sweep: predict() must equal the
        direct Router/CostModel composition on its own synthetic inputs —
        no pricing formulas of the predictor's own."""
        app = "pr"  # async-capable, pull direction (phase factor 1.0)
        features = extract_features(small_graph, name="diff")
        pred = AnalyticPredictor(features, scale_factor=3.0)
        cell = ConfigCell(policy=policy, engine=engine, num_gpus=4)
        got = pred.predict(cell, app)

        # -- independent composition of the same primitives ------------- #
        cm = pred.cost_model(cell)
        frontier = pred.frontier_degrees(cell, app)
        msgs = pred.synthetic_messages(cell, app)
        compute = cm.compute_time(0, frontier)
        priced = cm.price_batch(msgs)
        net = cm.route_step(priced)
        sync = float(np.max(net.eff_inter))
        per_device = np.zeros(cell.num_gpus)
        np.add.at(per_device, priced.src, priced.extraction + priced.d2h)
        np.add.at(per_device, priced.dst, priced.h2d)
        serialize = float(per_device.max())
        overhead = cm.allreduce_time()

        phi = pred.phase_factor(cell, app)
        assert phi == 1.0  # pr is pull-direction: both phases loaded
        rounds = app_model(app).rounds(features)
        if engine == "basp":
            rounds *= ASYNC_ROUND_INFLATION
            sync *= ASYNC_SYNC_DISCOUNT
        assert got.rounds == rounds
        # exact equality: same objects, same float ops, same order
        assert got.breakdown.compute == compute * rounds
        assert got.breakdown.sync == sync * rounds
        assert got.breakdown.serialize == serialize * rounds
        assert got.breakdown.overhead == overhead * rounds
        assert got.cost == got.breakdown.total

    def test_push_phase_factor_scales_comm_only(self, small_graph):
        """bfs on iec: comm legs exactly halve, compute untouched."""
        features = extract_features(small_graph)
        pred = AnalyticPredictor(features)
        iec = ConfigCell(policy="iec", num_gpus=4)
        assert pred.phase_factor(iec, "bfs") == 0.5
        got = pred.predict(iec, "bfs").breakdown
        cm = pred.cost_model(iec)
        raw = cm.price_round(
            pred.frontier_degrees(iec, "bfs"), pred.synthetic_messages(iec, "bfs")
        )
        rounds = app_model("bfs").rounds(features)
        assert got.sync == raw.sync * 0.5 * rounds
        assert got.serialize == raw.serialize * 0.5 * rounds
        assert got.compute == raw.compute * rounds

    def test_rank_orders_by_cost_then_label(self, small_graph):
        pred = AnalyticPredictor(extract_features(small_graph))
        cells = [ConfigCell(policy=p, num_gpus=g)
                 for p in ("iec", "oec", "cvc", "hvc") for g in (2, 4)]
        ranked = pred.rank(cells, "bfs")
        keys = [(r.cost, r.cell.label()) for r in ranked]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------- #
# DSE driver
# ---------------------------------------------------------------------- #


class TestDse:
    def test_enumerate_prunes_checker_rules(self):
        cfg = DseConfig(policies=("iec", "bogus"), engines=("bsp", "basp"),
                        gpus=(2, 3))
        cells, pruned = enumerate_cells(cfg, "bfs-do")  # not async-capable
        reasons = {r for _, r in pruned}
        assert reasons == {"policy-unsupported", "engine-unsound",
                           "parts-unestimated"}
        assert all(c.policy == "iec" and c.engine == "bsp" and c.num_gpus == 2
                   for c in cells)

    def test_run_dse_validates_topk(self):
        res = run_dse("fuzz:star:3", "bfs", DseConfig(top_k=2), validate="top-k")
        measured = res.measured()
        assert len(measured) == 2
        assert {o.predicted_rank for o in measured} == {1, 2}
        assert res.regret_at(1) >= 1.0

    def test_fuzz_dataset_deterministic(self):
        from repro.generators.datasets import load_dataset

        a = load_dataset("fuzz:rmat:11")
        b = load_dataset("fuzz:rmat:11")
        assert a.graph.num_vertices == b.graph.num_vertices
        assert np.array_equal(a.graph.indptr, b.graph.indptr)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        with pytest.raises(KeyError):
            load_dataset("fuzz:not-a-shape:1")


# ---------------------------------------------------------------------- #
# advisor-sanity (the fuzzer mode)
# ---------------------------------------------------------------------- #


class TestSanity:
    def test_clean_batch_is_sound(self):
        report = advisor_sanity(seed=0, iterations=6)
        assert report.checked > 0
        assert report.ok, report.violations

    def test_planted_bug_is_caught(self):
        report = advisor_sanity(seed=0, iterations=10, planted=True)
        assert not report.ok
        assert any("basp" in v for v in report.violations)


def test_app_models_cover_registry():
    from repro.apps import APPS

    missing = sorted(set(APPS) - set(APP_MODELS))
    assert not missing, f"apps without an advisor model: {missing}"
