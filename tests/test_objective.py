import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from ggdr.affinity import AffinityGraph
from ggdr.errors import (
    DimensionMismatch,
    InvalidShape,
    RankDeficient,
)
from ggdr.manifold import (
    GrassmannPoint,
    MappingMatrix,
    geodesic_distance,
    geodesic_factor,
    geodesic_step,
    orthonormalize,
    project_tangent,
    random_point,
)
from ggdr import objective
from ggdr.metrics import (
    MeasureKind,
    health_counters,
    measure,
    measure_grad,
    pair_measures,
    qr_pullback,
    reset_health_counters,
)
from ggdr.objective import (
    Problem,
    cost,
    cost_and_grad,
    euclidean_grad,
    geodesic_frame,
    reduce_point,
)
from ggdr.pipeline import SynthParams, synth_dataset
from oracles import fd_grad, random_orthogonal, rel_error

ALL_KINDS = list(MeasureKind)
DET_KINDS = [
    MeasureKind.FUBINI_STUDY,
    MeasureKind.BINET_CAUCHY_DIST_SQ,
    MeasureKind.BINET_CAUCHY_KERNEL,
]


def pair_graph():
    return AffinityGraph(np.array([[0, 1], [1, 0]]), kw=1, kb=1)


def two_point_problem(kind, x1, x2, target_dim):
    return Problem(
        (x1, x2), pair_graph(), kind, target_dim, sign_flip_similarity=False
    )


def zero_graph(n):
    return AffinityGraph(np.zeros((n, n), dtype=int), kw=1, kb=1)


def rand_problem(kind, n_points, d_ambient, d_target, order, seed):
    rng = np.random.default_rng(seed)
    points = tuple(
        random_point(d_ambient, order, int(rng.integers(2**31)))
        for _ in range(n_points)
    )
    labels = [i % 2 for i in range(n_points)]
    g = np.zeros((n_points, n_points), dtype=int)
    for i in range(n_points):
        for j in range(i + 1, n_points):
            g[i, j] = g[j, i] = 1 if labels[i] == labels[j] else -1
    graph = AffinityGraph(g, kw=2, kb=2)
    return Problem(points, graph, kind, target_dim=d_target)


def rand_w(d_ambient, d_target, seed):
    q, _ = orthonormalize(
        np.random.default_rng(seed).standard_normal((d_ambient, d_target))
    )
    return MappingMatrix(q)


class TestReducePoint:
    def test_truncated_identity_top_block(self):
        # point supported on the first d coordinates passes through untouched
        x_top = random_point(4, 2, 0)
        basis = np.vstack([x_top.basis, np.zeros((4, 2))])
        x = GrassmannPoint(basis)
        w = MappingMatrix(np.eye(8, 4))
        red = reduce_point(w, x)
        assert geodesic_distance(red, x_top) < 1e-7

    def test_identity_map_keeps_subspace(self):
        x = random_point(6, 2, 1)
        w = MappingMatrix(np.eye(6))
        red = reduce_point(w, x)
        assert geodesic_distance(red, x) < 1e-7

    def test_output_invariants(self, rng):
        w = rand_w(10, 5, 3)
        x = random_point(10, 2, 4)
        red = reduce_point(w, x)
        assert red.basis.shape == (5, 2)
        assert np.linalg.norm(red.basis.T @ red.basis - np.eye(2)) < 1e-10

    def test_rank_deficient(self):
        e = np.eye(8)
        w = MappingMatrix(e[:, :3])
        x = GrassmannPoint(e[:, [5, 6]])
        with pytest.raises(RankDeficient):
            reduce_point(w, x)


class TestProblem:
    def test_rejects_mixed_shapes(self):
        pts = (random_point(6, 2, 0), random_point(6, 3, 0))
        with pytest.raises(DimensionMismatch):
            Problem(pts, zero_graph(2), MeasureKind.PROJECTION_SQ, target_dim=4)

    def test_rejects_bad_target_dim(self):
        pts = (random_point(6, 2, 0), random_point(6, 2, 1))
        with pytest.raises(InvalidShape):
            Problem(pts, zero_graph(2), MeasureKind.PROJECTION_SQ, target_dim=1)
        # d = n maps every point to the one point of G(n, n); d = D + 1 is wide
        for d in (2, 7):
            with pytest.raises(InvalidShape, match="need n < d <= D"):
                Problem(pts, zero_graph(2), MeasureKind.PROJECTION_SQ, target_dim=d)

    def test_rejects_graph_size_mismatch(self):
        pts = (random_point(6, 2, 0), random_point(6, 2, 1))
        with pytest.raises(DimensionMismatch):
            Problem(pts, zero_graph(3), MeasureKind.PROJECTION_SQ, target_dim=4)


class TestCost:
    def test_zero_graph(self):
        pts = tuple(random_point(8, 2, s) for s in range(4))
        p = Problem(pts, zero_graph(4), MeasureKind.PROJECTION_SQ, target_dim=4)
        assert cost(rand_w(8, 4, 0), p) == 0.0

    def test_identical_within_pair(self):
        x = random_point(8, 2, 5)
        p = Problem((x, x), pair_graph(), MeasureKind.PROJECTION_SQ, target_dim=4)
        assert cost(rand_w(8, 4, 1), p) == pytest.approx(0.0, abs=1e-12)

    def test_three_point_brute_force(self):
        # hand instance on G(1, 4): verify against a direct evaluation of the
        # weighted pair sum
        pts = tuple(random_point(4, 1, s) for s in (11, 12, 13))
        g = np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]])
        graph = AffinityGraph(g, kw=1, kb=1)
        kind = MeasureKind.PROJECTION_SQ
        p = Problem(pts, graph, kind, target_dim=3)
        w = rand_w(4, 3, 2)
        reduced = [reduce_point(w, x) for x in pts]
        expected = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                expected += g[i, j] * measure(kind, reduced[i], reduced[j])
        assert cost(w, p) == pytest.approx(expected, abs=1e-12)

    def test_map_basis_invariance(self, rng):
        p = rand_problem(MeasureKind.PROJECTION_SQ, 5, 9, 4, 2, seed=3)
        w = rand_w(9, 4, 7)
        h = random_orthogonal(4, rng)
        w_rot = MappingMatrix(w.w @ h)
        assert cost(w_rot, p) == pytest.approx(cost(w, p), abs=1e-9)

    def test_sample_basis_invariance(self, rng):
        kind = MeasureKind.BINET_CAUCHY_KERNEL
        p = rand_problem(kind, 4, 9, 4, 2, seed=4)
        w = rand_w(9, 4, 8)
        rotated_points = p.points.copy()
        rotated_points[1] = rotated_points[1] @ random_orthogonal(2, rng)
        p_rot = Problem(rotated_points, p.graph, kind, target_dim=4)
        assert cost(w, p_rot) == pytest.approx(cost(w, p), abs=1e-9)

    def test_similarity_orientation(self):
        # with the default sign flip, making a within-class pair more similar
        # lowers the cost for the kernel measure
        x1 = random_point(8, 2, 21)
        far = random_point(8, 2, 22)
        near_basis, _ = orthonormalize(0.8 * x1.basis + 0.2 * far.basis)
        near = GrassmannPoint(near_basis)
        w = MappingMatrix(np.eye(8, 6))
        kind = MeasureKind.BINET_CAUCHY_KERNEL
        p_far = Problem((x1, far), pair_graph(), kind, target_dim=6)
        p_near = Problem((x1, near), pair_graph(), kind, target_dim=6)
        assert cost(w, p_near) < cost(w, p_far)
        # literal mode reverses the preference
        p_far_lit = Problem(
            (x1, far), pair_graph(), kind, target_dim=6, sign_flip_similarity=False
        )
        p_near_lit = Problem(
            (x1, near), pair_graph(), kind, target_dim=6, sign_flip_similarity=False
        )
        assert cost(w, p_near_lit) > cost(w, p_far_lit)


class TestEuclideanGrad:
    def test_zero_graph(self):
        pts = tuple(random_point(8, 2, s) for s in range(3))
        p = Problem(pts, zero_graph(3), MeasureKind.PROJECTION_SQ, target_dim=4)
        assert np.abs(euclidean_grad(rand_w(8, 4, 0), p)).max() == 0.0

    def test_identical_within_pair(self):
        x = random_point(8, 2, 5)
        p = Problem((x, x), pair_graph(), MeasureKind.PROJECTION_SQ, target_dim=4)
        assert np.abs(euclidean_grad(rand_w(8, 4, 1), p)).max() < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_finite_difference(self, kind):
        p = rand_problem(kind, 6, 10, 5, 2, seed=9)
        w = rand_w(10, 5, 10)
        g = euclidean_grad(w, p)
        fd = fd_grad(lambda m: cost(m, p), w.w.copy())
        assert rel_error(g, fd) <= 1e-5

    # a two-point problem with weight +1 and no sign flip: the cost is
    # measure(QR(W^T x1), QR(W^T x2)) itself, for every measure

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_two_point_finite_difference(self, kind, rng):
        def through_map(wm, b1, b2):
            q1, _ = orthonormalize(wm.T @ b1)
            q2, _ = orthonormalize(wm.T @ b2)
            return measure(kind, q1, q2)

        worst = 0.0
        for _ in range(50):
            seed = int(rng.integers(2**31))
            wq, _ = orthonormalize(
                np.random.default_rng(seed).standard_normal((10, 5))
            )
            x1, x2 = random_point(10, 2, seed + 1), random_point(10, 2, seed + 10_001)
            p = two_point_problem(kind, x1, x2, target_dim=5)
            g = euclidean_grad(wq, p)
            fd = fd_grad(lambda m: through_map(m, x1.basis, x2.basis), wq.copy())
            worst = max(worst, rel_error(g, fd))
        assert worst <= 1e-5

    def test_two_point_right_equivariance(self, rng):
        # grad(W O) = grad(W) O for an orthogonal O
        wq, _ = orthonormalize(rng.standard_normal((10, 5)))
        x1, x2 = random_point(10, 2, 77), random_point(10, 2, 10_077)
        h = random_orthogonal(5, rng)
        for kind in ALL_KINDS:
            p = two_point_problem(kind, x1, x2, target_dim=5)
            g = euclidean_grad(wq, p)
            gh = euclidean_grad(wq @ h, p)
            assert np.abs(gh - g @ h).max() < 1e-9

    def test_two_point_rank_deficient(self):
        e = np.eye(8)
        x = GrassmannPoint(e[:, [5, 6]])  # W^T x = 0
        p = two_point_problem(MeasureKind.PROJECTION_SQ, x, x, target_dim=3)
        with pytest.raises(RankDeficient):
            euclidean_grad(e[:, :3], p)

    @pytest.mark.parametrize("kind", DET_KINDS, ids=lambda k: k.value)
    def test_every_pair_singular(self, kind):
        # the only pair maps to orthogonal planes, det(Q1^T Q2) = 0: it still
        # has a finite gradient, and the cost is the one cost() gives
        e = np.eye(6)
        x1 = GrassmannPoint(e[:, [0, 1]])
        x2 = GrassmannPoint(e[:, [2, 3]])
        p = Problem((x1, x2), pair_graph(), kind, target_dim=4)
        w = MappingMatrix(np.eye(6, 4))
        c, g, skipped = cost_and_grad(w, p)
        assert np.isfinite(g).all() and skipped == 0
        assert c == cost(w, p) and np.isfinite(c)


class TestRiemannianGrad:
    # the Riemannian gradient is the ambient gradient projected onto the
    # horizontal space at w
    def test_span_component_killed(self, rng):
        w = rand_w(9, 4, 0).w
        m = rng.standard_normal((4, 4))
        assert np.abs(project_tangent(w, w @ m)).max() < 1e-12

    def test_horizontal_passthrough(self, rng):
        w = rand_w(9, 4, 0).w
        eg = rng.standard_normal((9, 4))
        eg = eg - w @ (w.T @ eg)
        assert_allclose(project_tangent(w, eg), eg, atol=1e-12)

    def test_tangency(self, rng):
        w = rand_w(9, 4, 0).w
        h = project_tangent(w, rng.standard_normal((9, 4)))
        assert np.linalg.norm(w.T @ h) < 1e-10
        with pytest.raises(DimensionMismatch):
            project_tangent(w, np.ones((9, 3)))

    def test_consistency_cost_and_grad(self):
        p = rand_problem(MeasureKind.PROJECTION_SQ, 5, 9, 4, 2, seed=6)
        w = rand_w(9, 4, 6)
        c, g, skipped = cost_and_grad(w, p)
        assert c == cost(w, p)
        assert_allclose(g, euclidean_grad(w, p), atol=0)
        assert skipped == 0


def reference_cost_and_grad(wm, p):
    """The per-pair loop: measure, measure_grad and qr_pullback pair by pair."""
    g = p.graph.g
    size = len(p.points)
    pairs = [
        (i, j, g[i, j]) for i in range(size) for j in range(i + 1, size) if g[i, j]
    ]
    reduced = {}
    for i in sorted({k for i, j, _ in pairs for k in (i, j)}):
        y = wm.T @ p.points[i]
        reduced[i] = (y, *orthonormalize(y))
    total, dq = 0.0, {}
    for i, j, weight in pairs:
        qi, qj = reduced[i][1], reduced[j][1]
        coeff = weight * p.pair_sign
        total += coeff * measure(p.kind, qi, qj)
        pg = measure_grad(p.kind, qi, qj)
        dq[i] = dq.get(i, 0.0) + coeff * pg.g1
        dq[j] = dq.get(j, 0.0) + coeff * pg.g2
    grad = np.zeros_like(wm)
    for i, d in dq.items():
        y, q, r = reduced[i]
        grad += p.points[i] @ qr_pullback(y, q, r, d).T
    return total, grad


def signed_graph(size, edges, seed):
    g = np.zeros((size, size), dtype=int)
    signs = np.random.default_rng(seed).choice([-1, 1], size=len(edges))
    for (i, j), s in zip(edges, signs):
        g[i, j] = g[j, i] = s
    return AffinityGraph(g, kw=1, kb=1)


def assert_matches_reference(w, p):
    c, g, skipped = cost_and_grad(w, p)
    c_ref, g_ref = reference_cost_and_grad(w.w, p)
    assert skipped == 0
    assert abs(c - c_ref) <= 1e-12 * max(abs(c_ref), 1e-300)
    assert cost(w, p) == c
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


class TestBatchedMatchesPerPairReference:
    @pytest.mark.parametrize("chunk_pairs", [None, 7])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_graph_with_inactive_samples(self, kind, chunk_pairs, monkeypatch):
        # two samples touch no pair, placed last and then first (so every pair
        # index shifts); chunks of 7 pairs leave a remainder. The two add
        # nothing to the Problem of the ten paired samples alone.
        d_ambient, d_target, order = 12, 6, 3
        if chunk_pairs is not None:
            monkeypatch.setattr(
                objective, "PAIR_BLOCK_BYTES", 8 * d_target * order * chunk_pairs
            )
        pts = tuple(random_point(d_ambient, order, 40 + s) for s in range(12))
        edges = [(i, j) for i in range(10) for j in range(i + 1, 10) if (i + j) % 3]
        w = rand_w(d_ambient, d_target, 2)
        paired = Problem(pts[:10], signed_graph(10, edges, 1), kind, d_target)
        c_paired, g_paired, _ = cost_and_grad(w, paired)
        shifted = [(i + 2, j + 2) for i, j in edges]
        for points, pairs in ((pts, edges), (pts[10:] + pts[:10], shifted)):
            p = Problem(points, signed_graph(12, pairs, 1), kind, d_target)
            assert_matches_reference(w, p)
            c, g, _ = cost_and_grad(w, p)
            assert c == c_paired
            assert np.linalg.norm(g - g_paired) <= 1e-13 * np.linalg.norm(g_paired)

    def test_inactive_sample_is_rank_tested(self):
        # sample 3 touches no pair, and W^T X_3 has rank 1: it is reduced
        # and rank-tested like every other sample
        e = np.eye(8)
        pts = tuple(random_point(8, 2, 70 + s) for s in range(3))
        pts += (GrassmannPoint(e[:, [0, 5]]),)
        graph = signed_graph(4, [(0, 1), (0, 2), (1, 2)], 4)
        p = Problem(pts, graph, MeasureKind.PROJECTION_SQ, target_dim=3)
        with pytest.raises(RankDeficient, match="matrix 3 of the stack"):
            cost(MappingMatrix(e[:, :3]), p)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_segments_span_chunks(self, kind, monkeypatch):
        # chunks of 5 pairs: rows of the i side run across chunk ends, and
        # inside a chunk the j side falls back (row 0 ends, row 1 begins)
        d_ambient, d_target, order = 10, 5, 2
        monkeypatch.setattr(objective, "PAIR_BLOCK_BYTES", 8 * d_target * order * 5)
        pts = tuple(random_point(d_ambient, order, 90 + s) for s in range(9))
        edges = [(i, j) for i in range(9) for j in range(i + 1, 9) if (i * j) % 4 != 1]
        p = Problem(pts, signed_graph(9, edges, 6), kind, target_dim=d_target)
        i_runs = [i[[0, -1]] for i, *_ in p._chunks]
        assert any(a[-1] == b[0] for a, b in zip(i_runs, i_runs[1:]))
        assert any(j_side[0] is not None for *_, j_side in p._chunks)
        assert all(i_side[0] is None for *_, i_side, _ in p._chunks)
        assert_matches_reference(rand_w(d_ambient, d_target, 7), p)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_gather_in_blocks(self, kind, monkeypatch):
        # blocks of 3 samples: the 11 samples, sample 0 in no pair, contract
        # in 4 blocks
        d_ambient, d_target, order = 12, 6, 3
        monkeypatch.setattr(objective, "PAIR_BLOCK_BYTES", 8 * d_ambient * order * 3)
        pts = tuple(random_point(d_ambient, order, 100 + s) for s in range(11))
        edges = [
            (i, j) for i in range(1, 11) for j in range(i + 1, 11) if (i + j) % 4
        ]
        p = Problem(pts, signed_graph(11, edges, 8), kind, target_dim=d_target)
        assert_matches_reference(rand_w(d_ambient, d_target, 9), p)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_reruns_bit_identical(self, kind, monkeypatch):
        monkeypatch.setattr(objective, "PAIR_BLOCK_BYTES", 8 * 12 * 3 * 4)
        p = rand_problem(kind, 14, 12, 6, 3, seed=11)
        w = rand_w(12, 6, 12)
        c1, g1, s1 = cost_and_grad(w, p)
        c2, g2, s2 = cost_and_grad(w, p)
        assert (c1, s1) == (c2, s2) and g1.tobytes() == g2.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_zero_graph(self, kind):
        pts = tuple(random_point(8, 2, s) for s in range(4))
        p = Problem(pts, zero_graph(4), kind, target_dim=4)
        c, g, skipped = cost_and_grad(rand_w(8, 4, 0), p)
        assert (c, skipped) == (0.0, 0) and not g.any()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_singular_pair_matches_reference(self, kind):
        # samples 0 and 1 map to orthogonal planes, det(Q0^T Q1) = 0: that
        # pair's gradient enters the sum like any other
        e = np.eye(8)
        pts = (GrassmannPoint(e[:, [0, 1]]), GrassmannPoint(e[:, [2, 3]])) + tuple(
            random_point(8, 2, 60 + s) for s in range(14)
        )
        edges = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        p = Problem(pts, signed_graph(16, edges, 3), kind, target_dim=6)
        assert_matches_reference(MappingMatrix(np.eye(8, 6)), p)

    def test_fubini_study_clamp_count(self):
        x = random_point(8, 2, 80)
        pts = (x, x, random_point(8, 2, 81))
        graph = signed_graph(3, [(0, 1), (0, 2)], 5)
        p = Problem(pts, graph, MeasureKind.FUBINI_STUDY, target_dim=5)
        w = rand_w(8, 5, 6)
        clamps, costs = [], []
        for run in (lambda: reference_cost_and_grad(w.w, p), lambda: cost_and_grad(w, p)):
            reset_health_counters()
            costs.append(run()[0])
            clamps.append(health_counters().get("fubini_study_grad_clamped", 0))
        reset_health_counters()
        assert clamps == [1, 1]
        assert costs[1] == pytest.approx(costs[0], rel=1e-12)


def frame_case(kind, d_ambient, d_target, order, n_points, seed):
    """A problem, a map w, a horizontal h with its factor, and their frame."""
    p = rand_problem(kind, n_points, d_ambient, d_target, order, seed)
    w = rand_w(d_ambient, d_target, seed + 1).w
    noise = np.random.default_rng(seed + 2).standard_normal(w.shape)
    h = project_tangent(w, noise)
    factor = geodesic_factor(w, h)
    return p, w, h, factor, geodesic_frame(w, h, factor, p)


def assert_frame_matches_map(p, w, h, factor, frame, t, cost_scale=None):
    """Cost (to 1e-12 of cost_scale, default its own size) and gradient (to
    1e-10 relative) at frame.at(t) against those at the formed map."""
    w_t = geodesic_step(w, h, t, factor)
    c, g, skipped = cost_and_grad(frame.at(t), p)
    c_map, g_map, skipped_map = cost_and_grad(w_t, p)
    assert skipped == skipped_map
    assert cost(frame.at(t), p) == c  # what Armijo accepted, bit for bit
    scale = abs(c_map) if cost_scale is None else cost_scale
    assert abs(c - c_map) <= 1e-12 * scale
    assert np.linalg.norm(g - g_map) <= 1e-10 * np.linalg.norm(g_map)


class TestGeodesicFrame:
    # 0, a backtracked step, the first trial, and a step past the first
    STEPS = (0.0, 0.5**3, 1.0, 2.5)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_cost_matches_the_formed_map(self, kind):
        p, w, h, factor, frame = frame_case(kind, 14, 6, 3, 12, seed=30)
        for t in self.STEPS:
            c_map = cost(geodesic_step(w, h, t, factor), p)
            assert cost(frame.at(t), p) == pytest.approx(c_map, rel=1e-12, abs=0)
        assert cost(frame.at(0.0), p) == pytest.approx(cost(w, p), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_gradient_matches_the_formed_map(self, kind):
        p, w, h, factor, frame = frame_case(kind, 14, 6, 3, 12, seed=31)
        for t in self.STEPS:
            assert_frame_matches_map(p, w, h, factor, frame, t)

    def test_rank_deficient_step_raises(self):
        # the frame runs the same rank test on M(t) as the map on W(t)^T X
        e = np.eye(8)
        pts = (GrassmannPoint(e[:, [5, 6]]), random_point(8, 2, 3))
        p = Problem(pts, pair_graph(), MeasureKind.PROJECTION_SQ, target_dim=3)
        w = e[:, :3]
        h = project_tangent(w, np.random.default_rng(4).standard_normal((8, 3)))
        frame = geodesic_frame(w, h, geodesic_factor(w, h), p)
        with pytest.raises(RankDeficient):
            cost(frame.at(0.0), p)
        with pytest.raises(RankDeficient):
            cost(w, p)

    def test_frame_of_another_problem_rejected(self):
        p, w, h, factor, frame = frame_case(MeasureKind.PROJECTION_SQ, 10, 4, 2, 6, 5)
        other = rand_problem(MeasureKind.PROJECTION_SQ, 8, 10, 4, 2, seed=6)
        with pytest.raises(DimensionMismatch, match="different problem"):
            cost(frame.at(0.5), other)
        # also at a point that has kept its QR
        point = frame.at(0.5)
        cost(point, p)
        for evaluate in (cost, cost_and_grad):
            with pytest.raises(DimensionMismatch, match="different problem"):
                evaluate(point, other)
        with pytest.raises(DimensionMismatch):
            geodesic_frame(w, h[:, :3], factor, p)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_point_is_reduced_once(self, kind, monkeypatch):
        # cost_and_grad at a point that cost has evaluated reuses its QR and
        # gives, bit for bit, what a fresh point of the same step gives
        qrs = []
        qr_with_inverse = objective.qr_with_inverse

        def counted(m):
            qrs.append(m.shape)
            return qr_with_inverse(m)

        monkeypatch.setattr(objective, "qr_with_inverse", counted)
        p, w, h, factor, frame = frame_case(kind, 14, 6, 3, 12, seed=32)
        point = frame.at(0.75)
        c = cost(point, p)
        c_kept, g_kept, _ = cost_and_grad(point, p)
        assert len(qrs) == 1
        c_fresh, g_fresh, _ = cost_and_grad(frame.at(0.75), p)
        assert len(qrs) == 2
        assert c_kept == c == c_fresh
        assert g_kept.tobytes() == g_fresh.tobytes()

    @given(
        d_ambient=st.integers(min_value=3, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_formed_map_over_shapes(self, d_ambient, data):
        # d > n: at d = n every reduced point is all of R^d, so the cost is
        # a constant and its gradient roundoff alone
        d_target = data.draw(st.integers(min_value=2, max_value=d_ambient))
        order = data.draw(st.integers(1, min(d_target - 1, 4)))
        kind = data.draw(st.sampled_from(ALL_KINDS))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        t = data.draw(st.sampled_from(self.STEPS))
        p, w, h, factor, frame = frame_case(kind, d_ambient, d_target, order, 6, seed)
        q, _ = orthonormalize(np.matmul(geodesic_step(w, h, t, factor).T, p.points))
        i, j = np.nonzero(np.triu(p.graph.g, 1))
        a = q[i].mT @ q[j]
        if kind is MeasureKind.FUBINI_STUDY:
            # its slope -1/sqrt(1 - s^2), s = |det Q_i^T Q_j|, multiplies
            # roundoff in s by s^2 / (1 - s^2): keep pairs off coincidence
            s = np.abs(np.linalg.det(a))
            assume((1.0 - s * s).min() > 1e-4)
        # the cost is a signed sum of nonnegative pair terms, so its roundoff
        # scales with their sum, however much of it the signs cancel
        scale = float(np.sum(pair_measures(kind, a)))
        assert_frame_matches_map(p, w, h, factor, frame, t, cost_scale=scale)


class TestSharedBases:
    def test_dataset_stack_shared_by_problem(self):
        ds = synth_dataset(SynthParams(2, 4, 9, 2, 0.2, 3))
        p = Problem(ds.bases, zero_graph(ds.size), MeasureKind.PROJECTION_SQ, 4)
        assert p.points is ds.bases and not p.points.flags.writeable
        p = Problem(ds.samples, zero_graph(ds.size), MeasureKind.PROJECTION_SQ, 4)
        assert (p.points == ds.bases).all()
