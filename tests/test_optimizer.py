import numpy as np
import pytest

from ggdr.affinity import AffinityGraph, build_affinity, default_kw
from ggdr.errors import InvalidShape
from ggdr.manifold import MappingMatrix, random_point
from ggdr.metrics import MeasureKind
from ggdr.objective import Problem
from ggdr.optimizer import (
    ArmijoParams,
    BetaRule,
    OptimOptions,
    OptimTrace,
    TraceRecord,
    minimize,
)
from ggdr.pipeline import SynthParams, pairwise_dissimilarity, synth_dataset

KIND = MeasureKind.PROJECTION_SQ


def training_problem(ds, kind, target_dim, kb=1):
    dist = pairwise_dissimilarity(ds.samples, kind)
    graph = build_affinity(ds.labels, dist, kw=default_kw(ds.labels), kb=kb)
    return Problem(ds.samples, graph, kind, target_dim=target_dim)


def two_class_problem(sigma=0.0, seed=42, target_dim=6):
    ds = synth_dataset(SynthParams(2, 5, 20, 2, sigma, seed))
    return training_problem(ds, KIND, target_dim)


class TestOptions:
    def test_rejects_bad_contraction(self):
        with pytest.raises(InvalidShape):
            ArmijoParams(contraction=1.5)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(InvalidShape):
            OptimOptions(rel_cost_tol=-1.0)


class TestMinimize:
    def test_zero_graph_stops_at_zero(self):
        pts = tuple(random_point(8, 2, s) for s in range(4))
        graph = AffinityGraph(np.zeros((4, 4), dtype=int), kw=1, kb=1)
        p = Problem(pts, graph, KIND, target_dim=4)
        w, trace = minimize(p)
        assert trace.converged and trace.reason == "grad_norm"
        assert trace.iterations == 0
        assert trace.records[0].cost == 0.0
        assert np.abs(w.w - np.eye(8, 4)).max() == 0.0

    def test_square_map_terminates_immediately(self):
        ds = synth_dataset(SynthParams(2, 4, 6, 2, 0.2, 3))
        p = training_problem(ds, KIND, target_dim=6)
        w, trace = minimize(p)
        assert trace.iterations == 0
        assert trace.records[0].grad_norm <= 1e-6
        assert np.abs(w.w - np.eye(6)).max() == 0.0

    def test_separable_two_class_converges(self):
        p = two_class_problem()
        opts = OptimOptions(grad_norm_tol=1e-4, rel_cost_tol=0.0)
        w, trace = minimize(p, opts=opts)
        costs = [r.cost for r in trace.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert trace.converged and trace.iterations <= 100
        assert trace.records[-1].grad_norm < 1e-4

    def test_feasibility_and_tangency_every_iteration(self):
        p = two_class_problem(sigma=0.2, seed=1)
        seen = []

        def check(it, w, rgrad):
            seen.append(it)
            assert np.linalg.norm(w.w.T @ w.w - np.eye(w.target_dim)) <= 1e-8
            assert np.linalg.norm(w.w.T @ rgrad.h) <= 1e-8

        minimize(p, opts=OptimOptions(max_iter=25), callback=check)
        assert seen[0] == 0 and len(seen) >= 2

    def test_monotone_descent(self):
        p = two_class_problem(sigma=0.25, seed=9)
        _, trace = minimize(p, opts=OptimOptions(max_iter=60))
        costs = [r.cost for r in trace.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_steepest_descent_reduction(self):
        # restart every iteration turns CG into projected gradient descent;
        # both variants keep the same structural guarantees on one seed
        p = two_class_problem(sigma=0.2, seed=5)
        for restart in (None, 1):
            _, trace = minimize(
                p, opts=OptimOptions(max_iter=40, restart_period=restart)
            )
            costs = [r.cost for r in trace.records]
            assert all(b <= a for a, b in zip(costs, costs[1:]))
            assert costs[-1] < costs[0]

    def test_fletcher_reeves_variant(self):
        p = two_class_problem(sigma=0.2, seed=5)
        _, trace = minimize(
            p,
            opts=OptimOptions(max_iter=40, beta_rule=BetaRule.FLETCHER_REEVES),
        )
        costs = [r.cost for r in trace.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_custom_start_point(self):
        p = two_class_problem(sigma=0.2, seed=7)
        rng = np.random.default_rng(0)
        from ggdr.manifold import orthonormalize

        q, _ = orthonormalize(rng.standard_normal((20, 6)))
        w0 = MappingMatrix(q)
        w, trace = minimize(p, w0=w0, opts=OptimOptions(max_iter=20))
        assert trace.records[-1].cost <= trace.records[0].cost

    def test_wrong_start_shape_rejected(self):
        p = two_class_problem()
        with pytest.raises(InvalidShape):
            minimize(p, w0=MappingMatrix(np.eye(20, 5)))

    def test_line_search_exhaustion_flagged(self):
        # with zero tolerances the loop runs until no decrease is possible;
        # the best iterate comes back flagged instead of raising
        p = two_class_problem(sigma=0.0, seed=2)
        _, trace = minimize(
            p,
            opts=OptimOptions(
                max_iter=10_000, rel_cost_tol=0.0, grad_norm_tol=0.0
            ),
        )
        assert trace.line_search_failed or trace.reason == "rel_cost"
        costs = [r.cost for r in trace.records]
        assert all(b <= a for a, b in zip(costs, costs[1:]))


class TestTrace:
    def test_csv_roundtrip(self, tmp_path):
        trace = OptimTrace(
            records=[
                TraceRecord(0, 3.5, 1.25, 0.5, 2, 0),
                TraceRecord(1, 2.0, 0.5, 0.0, 0, 1),
            ],
            converged=True,
            reason="rel_cost",
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path, params={"metric": "p", "dim": 4})
        lines = path.read_text().splitlines()
        assert lines[0] == "# metric=p"
        assert lines[1] == "# dim=4"
        assert lines[2] == "iter,cost,grad_norm,step,backtracks,skipped_pairs"
        assert lines[3].startswith("0,3.5,1.25,0.5,2,0")
        assert trace.iterations == 1 and trace.final_cost == 2.0
