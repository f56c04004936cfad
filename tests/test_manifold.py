import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ggdr import manifold
from ggdr.errors import DimensionMismatch, InvalidShape, RankDeficient
from ggdr.manifold import (
    RANK_RTOL,
    RETRACTION_GRAM_TOL,
    GrassmannPoint,
    MappingMatrix,
    TangentVector,
    cholesky_qr,
    geodesic_distance,
    geodesic_factor,
    geodesic_step,
    orthonormalize,
    parallel_transport,
    principal_angles,
    project_tangent,
    qr_with_inverse,
    random_point,
    sinc,
    stack_bases,
)
from oracles import (
    geodesic_step_svd,
    integrate_geodesic,
    parallel_transport_svd,
    random_orthogonal,
)


def with_condition(cond, d_ambient, k, seed):
    """A d_ambient x k matrix with singular values spread from 1 to 1/cond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d_ambient, k)))
    return (u * np.geomspace(1.0, 1.0 / cond, k)) @ random_orthogonal(k, rng)


def rand_map(d_ambient, d_target, seed):
    rng = np.random.default_rng(seed)
    q, _ = orthonormalize(rng.standard_normal((d_ambient, d_target)))
    return q


class TestOrthonormalize:
    def test_already_orthonormal(self):
        m = np.eye(3)[:, :2]
        q, r = orthonormalize(m)
        assert_allclose(q, m, atol=1e-14)
        assert_allclose(r, np.eye(2), atol=1e-14)

    def test_column_scaling_only(self):
        q, r = orthonormalize(np.diag([2.0, 3.0]))
        assert_allclose(q, np.eye(2), atol=1e-14)
        assert_allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstruction_random(self, rng):
        m = rng.standard_normal((10, 4))
        q, r = orthonormalize(m)
        assert np.linalg.norm(q @ r - m) / np.linalg.norm(m) < 1e-10
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-10
        assert (np.diag(r) > 0).all()

    def test_deterministic(self, rng):
        m = rng.standard_normal((7, 3))
        q1, r1 = orthonormalize(m)
        q2, r2 = orthonormalize(m)
        assert (q1 == q2).all() and (r1 == r2).all()

    def test_rank_deficient(self):
        m = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            orthonormalize(m)

    def test_zero_matrix(self):
        with pytest.raises(RankDeficient):
            orthonormalize(np.zeros((4, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(InvalidShape):
            orthonormalize(np.ones((2, 4)))
        # no column: nothing to factor, and no largest singular value
        for shape in ((5, 0), (3, 5, 0)):
            with pytest.raises(InvalidShape):
                orthonormalize(np.ones(shape))

    @given(
        d=st.integers(min_value=2, max_value=20),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_reconstruct_positive_diag(self, d, k, seed):
        k = min(k, d)
        m = np.random.default_rng(seed).standard_normal((d, k))
        q, r = orthonormalize(m)
        assert np.linalg.norm(q @ r - m) / np.linalg.norm(m) < 1e-10
        assert (np.diag(r) > 0).all()


    def test_condition_2e12_rejected(self):
        with pytest.raises(RankDeficient, match="Frobenius condition estimate"):
            orthonormalize(with_condition(2e12, 9, 4, 1))

    def test_condition_1e10_accepted(self):
        m = with_condition(1e10, 9, 4, 2)
        q, r = orthonormalize(m)
        assert np.linalg.norm(q @ r - m) < 1e-12

    def test_zero_column_is_rank_deficient_not_linalg_error(self, rng):
        m = rng.standard_normal((6, 3))
        m[:, 1] = 0.0
        with pytest.raises(RankDeficient, match="numerically rank-deficient"):
            orthonormalize(m)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_rank_test_is_scale_free(self, scale):
        q, r = orthonormalize(scale * with_condition(1e3, 8, 3, 3))
        assert (np.diag(r) > 0).all()
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, rng):
        m = rng.standard_normal((5, 2))
        m[3, 1] = bad
        with pytest.raises(RankDeficient, match="^non-finite"):
            orthonormalize(m)

    @given(
        log_cond=st.one_of(
            st.floats(min_value=0.0, max_value=10.5),
            st.floats(min_value=12.2, max_value=17.0),
        ),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_rejects_whatever_the_singular_value_test_rejects(
        self, log_cond, k, seed
    ):
        # the estimate is within [cond_2, k cond_2]: it rejects every matrix
        # with sigma_min <= RANK_RTOL sigma_max and, for k <= 6, accepts
        # every matrix with cond_2 below 1e10.5
        m = with_condition(10.0**log_cond, 12, k, seed)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            with pytest.raises(RankDeficient):
                orthonormalize(m)
        else:
            assert k == 1 or sv[0] / sv[-1] < 1e11
            orthonormalize(m)

class TestStackedOrthonormalize:
    def test_matches_one_by_one(self, rng):
        m = rng.standard_normal((5, 7, 3))
        q, r = orthonormalize(m)
        for k in range(5):
            qk, rk = orthonormalize(m[k])
            assert_allclose(q[k], qk, atol=1e-14)
            assert_allclose(r[k], rk, atol=1e-14)

    def test_rank_deficient_names_the_matrix(self, rng):
        m = rng.standard_normal((4, 6, 2))
        m[2, :, 1] = m[2, :, 0]
        with pytest.raises(RankDeficient, match="matrix 2 of the stack"):
            orthonormalize(m)

    def test_first_bad_matrix_named(self, rng):
        m = rng.standard_normal((5, 6, 3))
        m[1] = with_condition(2e12, 6, 3, 4)
        m[3, :, 2] = 0.0
        with pytest.raises(RankDeficient, match="^matrix 1 of the stack: numer"):
            orthonormalize(m)
        m[1] = rng.standard_normal((6, 3))
        with pytest.raises(RankDeficient, match="^matrix 3 of the stack: numer"):
            orthonormalize(m)

    def test_non_finite_names_the_matrix(self, rng):
        m = rng.standard_normal((2, 3, 4, 2))
        m[1, 2, 0, 0] = np.nan
        m[1, 0, 1, 1] = np.inf
        with pytest.raises(RankDeficient, match="^matrix 3 of the stack: non-finite"):
            orthonormalize(m)


class TestQrWithInverse:
    @pytest.mark.parametrize("shape", [(7, 3), (5, 7, 3), (2, 3, 9, 4)])
    def test_inverse_of_the_returned_r(self, rng, shape):
        m = rng.standard_normal(shape)
        q, r, r_inv = qr_with_inverse(m)
        q0, r0 = orthonormalize(m)
        assert (q == q0).all() and (r == r0).all()
        eye = np.eye(shape[-1])
        assert np.abs(r_inv @ r - eye).max() < 1e-14
        assert np.abs(r @ r_inv - eye).max() < 1e-14

    def test_inverse_past_overflow_is_rank_deficient(self):
        # unit pivots under 1e200 off-diagonals: the inverse overflows into
        # inf - inf, which must fail the rank test, not pass it or raise
        r = np.triu(np.full((4, 4), 1e200), 1) + np.eye(4)
        with pytest.raises(RankDeficient, match="numerically rank-deficient"):
            qr_with_inverse(np.vstack([r, np.zeros((2, 4))]))


class TestCholeskyQr:
    @pytest.mark.parametrize("shape", [(8, 3), (64, 8), (4096, 32)])
    def test_equals_householder_on_geodesic_steps(self, rng, shape):
        w = rand_map(*shape, seed=shape[0])
        h = project_tangent(w, rng.standard_normal(shape))
        wv, hv, s, v = geodesic_factor(w, h)
        for t in (2.0**-5, 1.0, 2.5):
            stepped = (wv * np.cos(s * t) + hv * (t * sinc(s * t))) @ v.T
            q = cholesky_qr(stepped)
            assert np.abs(q - orthonormalize(stepped)[0]).max() <= 1e-14
            assert (geodesic_step(w, h, t) == q).all()

    def test_drift_within_the_bound(self, rng):
        w = rand_map(12, 4, 5)
        s = w + 1e-8 * rng.standard_normal((12, 4))
        q = cholesky_qr(s)
        assert np.abs(q - orthonormalize(s)[0]).max() <= 1e-14

    @pytest.mark.parametrize("drift", [1e-5, 1.0])
    def test_drift_beyond_the_bound_raises(self, rng, drift):
        w = rand_map(12, 4, 6)
        s = w + drift * rng.standard_normal((12, 4))
        assert np.linalg.norm(s.T @ s - np.eye(4)) > RETRACTION_GRAM_TOL
        with pytest.raises(RankDeficient, match="not near-orthonormal"):
            cholesky_qr(s)

    def test_nan_raises(self):
        s = np.eye(5, 2)
        s[3, 1] = np.nan
        with pytest.raises(RankDeficient, match="not near-orthonormal"):
            cholesky_qr(s)


class TestStackBases:
    def test_read_only_array_passes_through(self, rng):
        bases, _ = orthonormalize(rng.standard_normal((4, 6, 2)))
        stack = stack_bases(bases)
        assert not stack.flags.writeable
        assert stack_bases(stack) is stack
        assert stack_bases(stack[1:3]).base is stack
        points = [GrassmannPoint(b) for b in stack]
        assert_allclose(stack_bases(points), stack, atol=0)

    def test_returned_stack_is_not_checked_again(self, rng, monkeypatch):
        # a stack stack_bases returned is read-only down to its owner, so it
        # comes back as it is; a view of it or an equal read-only array is
        # a different object and is checked
        calls = []
        gram_error = manifold.gram_error
        monkeypatch.setattr(
            manifold, "gram_error", lambda b: (calls.append(1), gram_error(b))[1]
        )
        bases, _ = orthonormalize(rng.standard_normal((4, 6, 2)))
        stack = stack_bases(bases)
        assert len(calls) == 1
        assert stack_bases(stack) is stack and len(calls) == 1
        stack_bases(stack[1:3])
        frozen = bases.copy()
        frozen.setflags(write=False)
        assert stack_bases(frozen) is frozen and len(calls) == 3
        assert stack_bases(frozen) is frozen and len(calls) == 3

    def test_writeable_input_is_copied(self, rng):
        bases, _ = orthonormalize(rng.standard_normal((3, 6, 2)))
        stack = stack_bases(bases)
        bases[0] = 0.0
        assert np.abs(stack[0]).max() > 0.0

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            stack_bases([random_point(6, 2, 0), random_point(6, 3, 1)])

    def test_empty_sequence(self):
        assert stack_bases([]).shape == (0, 0, 0)

    @pytest.mark.parametrize("shape", [(3, 6), (3, 6, 6), (3, 6, 0), (2, 3, 4, 1)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(InvalidShape):
            stack_bases(np.zeros(shape))

    @pytest.mark.parametrize("bad", [2.0, np.nan, np.inf])
    def test_non_orthonormal_basis_named(self, rng, bad):
        bases, _ = orthonormalize(rng.standard_normal((4, 6, 2)))
        bases[2, 0, 0] = bad
        with pytest.raises(InvalidShape, match="basis 2 of 4 not orthonormal"):
            stack_bases(bases)


class TestGrassmannPoint:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidShape):
            GrassmannPoint(np.ones((4, 2)))

    def test_rejects_square(self):
        with pytest.raises(InvalidShape):
            GrassmannPoint(np.eye(3))

    def test_rejects_nan(self):
        with pytest.raises(InvalidShape):
            GrassmannPoint(np.full((4, 2), np.nan))

    def test_immutable(self):
        p = random_point(5, 2, 0)
        with pytest.raises(ValueError):
            p.basis[0, 0] = 7.0


class TestPrincipalAngles:
    def test_identical(self):
        x = random_point(6, 2, 3)
        assert_allclose(principal_angles(x, x), 0.0, atol=1e-7)
        assert geodesic_distance(x, x) < 1e-7

    def test_orthogonal_lines(self):
        x1 = GrassmannPoint(np.eye(2)[:, :1])
        x2 = GrassmannPoint(np.eye(2)[:, 1:])
        assert_allclose(principal_angles(x1, x2), [np.pi / 2], atol=1e-12)
        assert_allclose(geodesic_distance(x1, x2), np.pi / 2, atol=1e-12)

    def test_shared_direction(self):
        e = np.eye(3)
        x1 = GrassmannPoint(e[:, [0, 1]])
        x2 = GrassmannPoint(e[:, [0, 2]])
        assert_allclose(principal_angles(x1, x2), [0.0, np.pi / 2], atol=1e-12)
        assert_allclose(geodesic_distance(x1, x2), np.pi / 2, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            principal_angles(random_point(5, 2, 0), random_point(6, 2, 0))

    def test_symmetry(self, rng):
        for _ in range(10):
            seeds = rng.integers(0, 2**31, size=2)
            x1, x2 = random_point(9, 3, seeds[0]), random_point(9, 3, seeds[1])
            assert_allclose(
                principal_angles(x1, x2), principal_angles(x2, x1), atol=1e-10
            )

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_right_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x1, x2 = random_point(8, 3, seed), random_point(8, 3, seed + 1)
        h1, h2 = random_orthogonal(3, rng), random_orthogonal(3, rng)
        rotated = principal_angles(
            GrassmannPoint(x1.basis @ h1), GrassmannPoint(x2.basis @ h2)
        )
        assert np.abs(rotated - principal_angles(x1, x2)).max() < 1e-9


class TestRandomPoint:
    def test_deterministic(self):
        a, b = random_point(5, 2, 7), random_point(5, 2, 7)
        assert (a.basis == b.basis).all()

    def test_invariants(self):
        p = random_point(11, 4, 13)
        assert np.linalg.norm(p.basis.T @ p.basis - np.eye(4)) < 1e-10

    def test_line_in_plane(self):
        p = random_point(2, 1, 99)
        assert_allclose(np.linalg.norm(p.basis), 1.0, atol=1e-12)

    def test_invalid_shape(self):
        with pytest.raises(InvalidShape):
            random_point(3, 3, 0)

    def test_negative_seed(self):
        with pytest.raises(InvalidShape, match="seed must be nonnegative"):
            random_point(5, 2, -1)


class TestGeodesic:
    def test_zero_time(self):
        w = rand_map(8, 3, 0)
        h = project_tangent(w, np.random.default_rng(1).standard_normal((8, 3)))
        assert np.abs(geodesic_step(w, h, 0.0) - w).max() < 1e-12

    def test_zero_direction(self):
        w = rand_map(8, 3, 0)
        assert np.abs(geodesic_step(w, np.zeros((8, 3)), 0.9) - w).max() < 1e-12

    def test_stays_orthonormal(self, rng):
        w = rand_map(10, 4, 2)
        h = project_tangent(w, rng.standard_normal((10, 4)))
        w2 = geodesic_step(w, h, 0.37)
        assert np.linalg.norm(w2.T @ w2 - np.eye(4)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geodesic_step(rand_map(8, 3, 0), np.zeros((8, 2)), 0.5)

    def test_matches_ode_integration(self, rng):
        w = rand_map(7, 3, 5)
        h = project_tangent(w, 0.5 * rng.standard_normal((7, 3)))
        t = 0.37
        closed = geodesic_step(w, h, t)
        integrated = integrate_geodesic(w, h, t, dt=1e-4)
        # compare as subspaces: the integrated endpoint drifts slightly off
        # the manifold, so look at principal-angle cosines of the overlap
        q, _ = orthonormalize(integrated)
        sv = np.linalg.svd(closed.T @ q, compute_uv=False)
        assert np.abs(sv - 1.0).max() < 1e-8

    def test_arc_length_small_t(self, rng):
        w = rand_map(9, 3, 8)
        h = project_tangent(w, rng.standard_normal((9, 3)))
        t = 1e-3
        w2 = geodesic_step(w, h, t)
        sv = np.linalg.svd(w.T @ w2, compute_uv=False)
        dist = np.linalg.norm(np.arccos(np.clip(sv, 0.0, 1.0)))
        assert abs(dist - t * np.linalg.norm(h)) < 1e-8


class TestParallelTransport:
    def test_zero_time(self, rng):
        w = rand_map(8, 3, 1)
        h = project_tangent(w, rng.standard_normal((8, 3)))
        mv = project_tangent(w, rng.standard_normal((8, 3)))
        out = parallel_transport(mv, w, h, 0.0)
        assert np.abs(out - mv).max() < 1e-12

    def test_zero_direction(self, rng):
        w = rand_map(8, 3, 1)
        mv = project_tangent(w, rng.standard_normal((8, 3)))
        out = parallel_transport(mv, w, np.zeros((8, 3)), 0.5)
        assert np.abs(out - mv).max() < 1e-12

    def test_shape_mismatch(self, rng):
        w = rand_map(8, 3, 1)
        h = project_tangent(w, rng.standard_normal((8, 3)))
        with pytest.raises(DimensionMismatch):
            parallel_transport(np.zeros((8, 2)), w, h, 0.5)

    def test_endpoint_tangency_and_isometry(self, rng):
        for _ in range(5):
            w = rand_map(10, 4, int(rng.integers(2**31)))
            h = project_tangent(w, rng.standard_normal((10, 4)))
            mv = project_tangent(w, rng.standard_normal((10, 4)))
            out = parallel_transport(mv, w, h, 0.61)
            end = geodesic_step(w, h, 0.61)
            assert np.linalg.norm(end.T @ out) <= 1e-8
            assert abs(np.linalg.norm(out) - np.linalg.norm(mv)) <= 1e-8


def direction_of_rank(w, rank, singular_values, rng):
    """A horizontal direction at w with the given rank and nonzero
    singular values: U diag(s) V_r^T, U orthonormal and orthogonal to w."""
    h = np.zeros(w.shape)
    if rank:
        m = rng.standard_normal((w.shape[0], rank))
        u, _ = orthonormalize(m - w @ (w.T @ m))
        v = random_orthogonal(w.shape[1], rng)[:, :rank]
        h = (u * singular_values) @ v.T
    return h


def assert_matches_svd_form(w, h, x, t):
    """Step and transports against the SVD-form oracles: 1e-12 up to
    t = 2.5, 1e-10 beyond (transports relative to the moved norm)."""
    bound = 1e-12 if t <= 2.5 else 1e-10
    assert np.abs(geodesic_step(w, h, t) - geodesic_step_svd(w, h, t)).max() <= bound
    for moved in (x, h):
        scale = max(np.linalg.norm(moved), 1.0)
        err = parallel_transport(moved, w, h, t) - parallel_transport_svd(moved, w, h, t)
        assert np.abs(err).max() <= bound * scale


class TestFactoredGeodesic:
    # 0, a backtracked step, the first trial, a step past it, and a long one
    STEPS = (0.0, 2.0**-7, 1.0, 2.5, 40.0)

    def test_reused_factor_and_endpoint_are_bit_identical(self, rng):
        # the optimizer factors h once per iteration and reuses the accepted
        # endpoint in both transports; nothing may change in the last bit
        w = rand_map(12, 4, 3)
        h = project_tangent(w, rng.standard_normal((12, 4)))
        mv = project_tangent(w, rng.standard_normal((12, 4)))
        factor = geodesic_factor(w, h)
        for t in (1.0, 0.5, 2.0**-7):
            w1 = geodesic_step(w, h, t, factor)
            assert (w1 == geodesic_step(w, h, t)).all()
            for moved in (mv, h):
                fresh = parallel_transport(moved, w, h, t)
                reused = parallel_transport(moved, w, h, t, factor, w1)
                assert (reused == fresh).all()

    def test_factor_diagonalizes_the_gram(self, rng):
        w = rand_map(30, 5, 4)
        h = project_tangent(w, rng.standard_normal((30, 5)))
        wv, hv, s, v = geodesic_factor(w, h)
        assert np.abs(v.T @ v - np.eye(5)).max() <= 1e-14
        assert (wv == w @ v).all() and (hv == h @ v).all()
        assert np.abs(hv.T @ hv - np.diag(s * s)).max() <= 1e-13 * s.max() ** 2
        assert_allclose(
            np.sort(s)[::-1], np.linalg.svd(h, compute_uv=False), rtol=1e-12
        )

    def test_sinc(self, rng):
        x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300], rng.normal(0, 30, 200)])
        assert_allclose(sinc(x), np.sinc(x / np.pi), rtol=1e-14, atol=1e-15)
        assert sinc(x)[:4].tolist() == [1.0] * 4

    @pytest.mark.parametrize(
        "d_ambient, d_target, singular_values",
        [
            (8, 3, []),  # h = 0
            (40, 6, [1.3, 0.4]),  # rank 2 of 6
            (64, 12, [0.9, 0.5, 0.5, 0.5, 0.2]),  # rank 5, a triple value
            (20, 5, [0.7] * 5),  # full rank, all equal
            (4096, 32, np.linspace(0.05, 1.5, 12)),  # rank 12 of 32, wide
        ],
        ids=["zero", "rank2", "repeated", "all-equal", "wide"],
    )
    def test_matches_svd_form(self, rng, d_ambient, d_target, singular_values):
        w = rand_map(d_ambient, d_target, d_ambient)
        rank = len(singular_values)
        h = direction_of_rank(w, rank, np.asarray(singular_values), rng)
        x = project_tangent(w, rng.standard_normal(w.shape))
        for t in self.STEPS:
            assert_matches_svd_form(w, h, x / np.linalg.norm(x), t)

    @given(
        d_ambient=st.integers(min_value=2, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_svd_form_over_shapes_and_ranks(self, d_ambient, data):
        d_target = data.draw(st.integers(1, d_ambient - 1))
        rank = data.draw(st.integers(0, min(d_target, d_ambient - d_target)))
        repeats = data.draw(st.integers(1, max(rank, 1)))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        t = data.draw(st.sampled_from(self.STEPS))
        # a stream apart from rand_map's, which would give x = w
        rng = np.random.default_rng(seed + 1)
        w = rand_map(d_ambient, d_target, seed)
        values = rng.uniform(0.05, 2.0, rank)
        values[:repeats] = values[:1]  # the first value, repeated
        h = direction_of_rank(w, rank, values, rng)
        x = project_tangent(w, rng.standard_normal(w.shape))
        assert_matches_svd_form(w, h, x / np.linalg.norm(x), t)


class TestCosineClamp:
    def test_overshoot_triggers_health_warning(self):
        from ggdr.errors import NumericalHealthWarning
        from ggdr.manifold import _clamped_cosines

        with pytest.warns(NumericalHealthWarning):
            out = _clamped_cosines(np.diag([1.0 + 1e-6, 0.5]))
        assert out.max() <= 1.0

    def test_roundoff_overshoot_silent(self, recwarn):
        from ggdr.manifold import _clamped_cosines

        out = _clamped_cosines(np.diag([1.0 + 1e-12, 0.5]))
        assert out.max() <= 1.0
        assert not recwarn.list


class TestTangentVector:
    def test_rejects_non_horizontal(self):
        w = MappingMatrix(rand_map(6, 2, 0))
        with pytest.raises(InvalidShape):
            TangentVector(w.w.copy(), base=w)

    def test_projection_makes_horizontal(self, rng):
        w = rand_map(6, 2, 0)
        h = project_tangent(w, rng.standard_normal((6, 2)))
        assert np.linalg.norm(w.T @ h) <= 1e-12
        TangentVector(h, base=MappingMatrix(w))
