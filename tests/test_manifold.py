import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ggdr.errors import DimensionMismatch, InvalidShape, RankDeficient
from ggdr.manifold import (
    GrassmannPoint,
    MappingMatrix,
    TangentVector,
    geodesic_distance,
    geodesic_step,
    orthonormalize,
    parallel_transport,
    principal_angles,
    project_tangent,
    random_point,
    stack_bases,
)
from oracles import integrate_geodesic, random_orthogonal


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


class TestStackBases:
    def test_read_only_array_passes_through(self, rng):
        bases, _ = orthonormalize(rng.standard_normal((4, 6, 2)))
        stack = stack_bases(bases)
        assert not stack.flags.writeable
        assert stack_bases(stack) is stack
        assert stack_bases(stack[1:3]).base is stack
        points = [GrassmannPoint(b) for b in stack]
        assert_allclose(stack_bases(points), stack, atol=0)

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


class TestFactoredGeodesic:
    def test_reused_svd_and_endpoint_are_bit_identical(self, rng):
        # the optimizer factors h once per iteration and reuses the accepted
        # endpoint in both transports; nothing may change in the last bit
        w = rand_map(12, 4, 3)
        h = project_tangent(w, rng.standard_normal((12, 4)))
        mv = project_tangent(w, rng.standard_normal((12, 4)))
        svd = np.linalg.svd(h, full_matrices=False)
        for t in (1.0, 0.5, 2.0**-7):
            w1 = geodesic_step(w, h, t, svd)
            assert (w1 == geodesic_step(w, h, t)).all()
            for moved in (mv, h):
                fresh = parallel_transport(moved, w, h, t)
                reused = parallel_transport(moved, w, h, t, svd, w1)
                assert (reused == fresh).all()


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
