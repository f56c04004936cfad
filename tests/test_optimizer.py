import numpy as np
import pytest

from ggdr import optimizer
from ggdr.affinity import AffinityGraph, build_affinity, default_kw
from ggdr.errors import InvalidShape
from ggdr.manifold import MappingMatrix, TangentVector, orthonormalize, random_point
from ggdr.metrics import MeasureKind
from ggdr.objective import Problem
from ggdr.optimizer import (
    BetaRule,
    OptimOptions,
    OptimTrace,
    TraceRecord,
    minimize,
)
from ggdr.pipeline import (
    SynthParams,
    demo_analog_params,
    fit,
    pairwise_dissimilarity,
    synth_dataset,
)

KIND = MeasureKind.PROJECTION_SQ


def training_problem(ds, kind, target_dim, kb=1):
    dist = pairwise_dissimilarity(ds.bases, kind)
    graph = build_affinity(ds.labels, dist, kw=default_kw(ds.labels), kb=kb)
    return Problem(ds.bases, graph, kind, target_dim=target_dim)


def two_class_problem(sigma=0.0, seed=42, target_dim=6):
    ds = synth_dataset(SynthParams(2, 5, 20, 2, sigma, seed))
    return training_problem(ds, KIND, target_dim)


class TestOptions:
    @pytest.mark.parametrize("period", [0, -3])
    def test_rejects_restart_below_one(self, period):
        with pytest.raises(InvalidShape):
            OptimOptions(restart_period=period)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(InvalidShape):
            OptimOptions(rel_cost_tol=-1.0)

    @pytest.mark.parametrize("field", ["rel_cost_tol", "grad_norm_tol"])
    def test_rejects_nan_tolerance(self, field):
        with pytest.raises(InvalidShape):
            OptimOptions(**{field: float("nan")})


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

    def test_takes_no_svd(self, monkeypatch):
        # each direction is factored through its d x d Gram: a fit that
        # reached np.linalg.svd anywhere would raise here
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called in a fit")

        p = two_class_problem(sigma=0.2, seed=7)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        opts = OptimOptions(max_iter=20, rel_cost_tol=0.0, grad_norm_tol=0.0)
        _, trace = minimize(p, opts=opts)
        assert trace.iterations == 20 and not trace.line_search_failed

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

    def test_validated_types_only_at_the_boundary(self, monkeypatch):
        # the loop works on arrays: without a callback it builds only its
        # result as a MappingMatrix, and no TangentVector, however long it runs
        built = []
        for cls in (MappingMatrix, TangentVector):
            def counting(self, check=cls.__post_init__):
                built.append(type(self))
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        p = two_class_problem(sigma=0.2, seed=5)

        def opts(n):
            return OptimOptions(max_iter=n, rel_cost_tol=0.0, grad_norm_tol=0.0)

        for iterations in (1, 8):
            built.clear()
            _, trace = minimize(p, opts=opts(iterations))
            assert trace.iterations == iterations
            assert built.count(MappingMatrix) <= 2 and TangentVector not in built
        # with a callback, every report carries one validated pair
        built.clear()
        reports = []
        minimize(p, opts=opts(3), callback=lambda it, w, rg: reports.append(it))
        assert reports == [0, 1, 2, 3]
        assert built.count(TangentVector) == 4

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


class TestLineSearch:
    def test_first_trials_follow_the_last_accepted_step(self, monkeypatch):
        # each search's first trial is min(1, 2 alpha_prev slope_prev / slope),
        # slope = <rgrad, h>; only the fit's first search starts at 1
        events = []
        cost, geodesic_frame = optimizer.cost, optimizer.geodesic_frame

        def framing(w, h, factor, p):
            events.append(("direction", h.copy()))
            return geodesic_frame(w, h, factor, p)

        def recording(point, p):
            # trial steps are evaluated as points of the direction's frame
            events.append(("trial", point.t))
            return cost(point, p)

        monkeypatch.setattr(optimizer, "geodesic_frame", framing)
        monkeypatch.setattr(optimizer, "cost", recording)
        p = two_class_problem(sigma=0.2, seed=5)
        opts = OptimOptions(max_iter=30, rel_cost_tol=0.0, grad_norm_tol=0.0)
        _, trace = minimize(
            p, opts=opts, callback=lambda it, w, rg: events.append(("report", rg.h))
        )
        firsts, slopes, rg, h = [], [], None, None
        for kind, value in events:
            if kind == "report":
                rg, fresh = value, True
            elif kind == "direction":
                h = value
            elif fresh:
                firsts.append(value)
                slopes.append(float(np.sum(rg * h)))
                fresh = False
        steps = [rec.step for rec in trace.records if rec.step > 0]
        assert trace.iterations == 30 and len(firsts) == 30
        assert firsts[0] == 1.0
        for k in range(1, len(firsts)):
            expected = min(1.0, 2.0 * steps[k - 1] * slopes[k - 1] / slopes[k])
            assert firsts[k] == pytest.approx(expected, rel=1e-12, abs=0)
        assert min(firsts[1:]) < 0.5  # the rule, not the fixed start, set them

    def test_objective_evals_counts_every_evaluation(self, monkeypatch):
        calls = []
        cost, cost_and_grad = optimizer.cost, optimizer.cost_and_grad

        def counted(fn, fail_after=None):
            def wrapper(*args):
                calls.append(fn.__name__)
                if fail_after is not None and len(calls) > fail_after:
                    return np.inf  # every later trial step is rejected
                return fn(*args)

            return wrapper

        p = two_class_problem(sigma=0.2, seed=5)
        monkeypatch.setattr(optimizer, "cost_and_grad", counted(cost_and_grad))
        monkeypatch.setattr(optimizer, "cost", counted(cost))
        _, trace = minimize(p)
        assert trace.converged and trace.iterations > 1
        assert trace.objective_evals == len(calls)

        # a line search that fails after some accepted steps
        calls.clear()
        monkeypatch.setattr(optimizer, "cost", counted(cost, fail_after=20))
        _, trace = minimize(p)
        assert trace.line_search_failed and trace.iterations > 1
        assert trace.records[-1].backtracks == optimizer.MAX_BACKTRACKS
        assert trace.objective_evals == len(calls)

    # Ceilings: the total objective evaluations per measure of the fits below
    # when every Armijo search started at step 1.0, measured on the code
    # before later searches started from the last accepted step
    FIXED_START_EVALS = {"p": 2742, "fs": 1587, "bc": 2374, "pk": 2482, "bck": 1115}

    def test_converged_demo_fits_spend_fewer_evaluations(self):
        # demo data (noise 0.3), 5 of each class's 10 samples for training,
        # d = 12, default options: every fit runs to its own stopping rule
        totals = dict.fromkeys(self.FIXED_START_EVALS, 0)
        for seed in (0, 1, 2, 3):
            full = synth_dataset(demo_analog_params(within_noise=0.3, seed=seed))
            train = full.subset([i for i in range(full.size) if i % 10 < 5])
            for kind in MeasureKind:
                _, trace, _ = fit(train, kind, target_dim=12)
                totals[kind.value] += trace.objective_evals
        for measure, ceiling in self.FIXED_START_EVALS.items():
            assert totals[measure] < ceiling, (measure, totals[measure])

    def test_long_fit_through_singular_pairs(self):
        # demo data as above, seed 3, fs: between-class pairs are driven to
        # |det A| = 0, the minimum of their term, and the fit runs on
        # through them with every pair's gradient
        full = synth_dataset(demo_analog_params(within_noise=0.3, seed=3))
        train = full.subset([i for i in range(full.size) if i % 10 < 5])
        opts = OptimOptions(max_iter=160, rel_cost_tol=0.0)
        w, trace, graph = fit(train, MeasureKind.FUBINI_STUDY, 12, opts=opts)
        assert (trace.reason, trace.iterations) == ("max_iter", 160)
        q, _ = orthonormalize(np.matmul(w.w.T, train.bases))
        i, j = np.nonzero(np.triu(graph.g, 1))
        assert np.abs(np.linalg.det(q[i].mT @ q[j])).min() < 1e-10


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
        # one evaluation at the start, 3 trials, one after the accepted step
        assert trace.objective_evals == 5
        trace.line_search_failed = True
        assert trace.objective_evals == 6
