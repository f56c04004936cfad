import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ggdr.errors import (
    DimensionMismatch,
    NotSquare,
    SingularPair,
    SingularR,
)
from ggdr.manifold import GrassmannPoint, orthonormalize, random_point
from ggdr.metrics import (
    MeasureKind,
    Orientation,
    btril,
    health_counters,
    measure,
    measure_grad,
    qr_pullback,
    reset_health_counters,
)
from oracles import fd_grad, measure_ambient, random_orthogonal, rel_error

ALL_KINDS = list(MeasureKind)


def rand_pair(d_ambient, order, seed):
    return random_point(d_ambient, order, seed), random_point(d_ambient, order, seed + 10_000)


class TestOrientation:
    def test_only_the_kernel_is_similarity_like(self):
        for kind in ALL_KINDS:
            expected = (
                Orientation.SIMILARITY_LIKE
                if kind is MeasureKind.BINET_CAUCHY_KERNEL
                else Orientation.DISTANCE_LIKE
            )
            assert kind.orientation is expected


class TestMeasureValues:
    def test_coincident_subspaces(self):
        q = random_point(12, 3, 5)
        expected = {
            MeasureKind.PROJECTION_SQ: 0.0,
            MeasureKind.FUBINI_STUDY: 0.0,
            MeasureKind.BINET_CAUCHY_DIST_SQ: 0.0,
            MeasureKind.PROJECTION_KERNEL_DIST_SQ: 0.0,
            MeasureKind.BINET_CAUCHY_KERNEL: 1.0,
        }
        for kind, value in expected.items():
            assert measure(kind, q, q) == pytest.approx(value, abs=1e-7)

    def test_orthogonal_lines(self):
        q1 = GrassmannPoint(np.eye(2)[:, :1])
        q2 = GrassmannPoint(np.eye(2)[:, 1:])
        expected = {
            MeasureKind.PROJECTION_SQ: 1.0,
            MeasureKind.FUBINI_STUDY: np.pi / 2,
            MeasureKind.BINET_CAUCHY_DIST_SQ: 2.0,
            MeasureKind.PROJECTION_KERNEL_DIST_SQ: 2.0,
            MeasureKind.BINET_CAUCHY_KERNEL: 0.0,
        }
        for kind, value in expected.items():
            assert measure(kind, q1, q2) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_matches_projector_determinant_forms(self, kind, rng):
        for _ in range(25):
            seed = int(rng.integers(2**31))
            q1, q2 = rand_pair(12, 3, seed)
            assert measure(kind, q1, q2) == pytest.approx(
                measure_ambient(kind, q1.basis, q2.basis), abs=1e-10
            )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            measure(MeasureKind.PROJECTION_SQ, random_point(8, 2, 0), random_point(8, 3, 0))

    @given(
        order=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_identities_symmetry_ranges(self, order, seed):
        d_ambient = order + 3 + seed % 20
        q1, q2 = rand_pair(d_ambient, order, seed)
        p = measure(MeasureKind.PROJECTION_SQ, q1, q2)
        pk = measure(MeasureKind.PROJECTION_KERNEL_DIST_SQ, q1, q2)
        fs = measure(MeasureKind.FUBINI_STUDY, q1, q2)
        bc = measure(MeasureKind.BINET_CAUCHY_DIST_SQ, q1, q2)
        bck = measure(MeasureKind.BINET_CAUCHY_KERNEL, q1, q2)
        assert pk == pytest.approx(2.0 * p, abs=1e-10)
        assert np.cos(fs) ** 2 == pytest.approx(bck, abs=1e-10)
        assert bc == pytest.approx(2.0 - 2.0 * np.sqrt(bck), abs=1e-10)
        assert 0.0 <= p <= order and 0.0 <= pk <= 2.0 * order
        assert 0.0 <= fs <= np.pi / 2 and 0.0 <= bc <= 2.0 and 0.0 <= bck <= 1.0
        for kind in ALL_KINDS:
            assert measure(kind, q1, q2) == pytest.approx(
                measure(kind, q2, q1), abs=1e-10
            )

    def test_right_rotation_invariance(self, rng):
        for _ in range(20):
            seed = int(rng.integers(2**31))
            q1, q2 = rand_pair(10, 3, seed)
            h1, h2 = random_orthogonal(3, rng), random_orthogonal(3, rng)
            r1 = GrassmannPoint(q1.basis @ h1)
            r2 = GrassmannPoint(q2.basis @ h2)
            for kind in ALL_KINDS:
                assert measure(kind, r1, r2) == pytest.approx(
                    measure(kind, q1, q2), abs=1e-9
                )


class TestMeasureGrad:
    def test_projection_zero_at_coincident(self):
        q = random_point(8, 2, 3)
        g = measure_grad(MeasureKind.PROJECTION_SQ, q, q)
        assert np.abs(g.g1).max() < 1e-12 and np.abs(g.g2).max() < 1e-12

    def test_projection_kernel_at_coincident(self):
        q = random_point(8, 2, 3)
        g = measure_grad(MeasureKind.PROJECTION_KERNEL_DIST_SQ, q, q)
        assert_allclose(g.g1, -4.0 * q.basis, atol=1e-12)
        assert_allclose(g.g2, -4.0 * q.basis, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_finite_difference_oracle(self, kind, rng):
        # raw ambient perturbation against the matrix-form extension
        worst = 0.0
        for _ in range(50):
            seed = int(rng.integers(2**31))
            q1, q2 = rand_pair(8, 2, seed)
            b1, b2 = q1.basis.copy(), q2.basis.copy()
            g = measure_grad(kind, b1, b2)
            fd1 = fd_grad(lambda m: measure_ambient(kind, m, b2), b1)
            fd2 = fd_grad(lambda m: measure_ambient(kind, b1, m), b2)
            worst = max(worst, rel_error(g.g1, fd1), rel_error(g.g2, fd2))
        assert worst <= 1e-5

    def test_singular_pair_for_determinant_kinds(self):
        e = np.eye(4)
        q1 = GrassmannPoint(e[:, [0, 1]])
        q2 = GrassmannPoint(e[:, [2, 3]])  # det(Q1^T Q2) = 0
        for kind in (
            MeasureKind.FUBINI_STUDY,
            MeasureKind.BINET_CAUCHY_DIST_SQ,
            MeasureKind.BINET_CAUCHY_KERNEL,
        ):
            with pytest.raises(SingularPair):
                measure_grad(kind, q1, q2)

    def test_fubini_study_clamps_near_coincident(self):
        reset_health_counters()
        q = random_point(9, 3, 1)
        g = measure_grad(MeasureKind.FUBINI_STUDY, q, q)
        assert np.isfinite(g.g1).all() and np.isfinite(g.g2).all()
        assert health_counters()["fubini_study_grad_clamped"] >= 1
        reset_health_counters()


class TestTriangularMasks:
    def test_zero(self):
        z = np.zeros((3, 3))
        assert (btril(z) == 0).all()

    def test_hand_example_strict_convention(self):
        # btril keeps both masks strictly lower: tril(A) - tril(A^T); the
        # finite-difference checks on qr_pullback pin this reading down
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(btril(a), [[0.0, 0.0], [1.0, 0.0]])

    def test_btril_vanishes_on_symmetric(self, rng):
        m = rng.standard_normal((4, 4))
        sym = m + m.T
        assert np.abs(btril(sym)).max() == 0.0

    def test_not_square(self):
        with pytest.raises(NotSquare):
            btril(np.ones((3, 2)))


class TestQrPullback:
    def test_zero_gradients(self, rng):
        x = rng.standard_normal((6, 3))
        q, r = orthonormalize(x)
        out = qr_pullback(x, q, r, np.zeros((6, 3)))
        assert np.abs(out).max() == 0.0

    def test_skew_case_reduces(self, rng):
        # orthonormal x (r = I): with skew q^T dq the formula collapses to
        # (I - qq^T) dq + q btril(q^T dq)
        q, _ = orthonormalize(rng.standard_normal((6, 3)))
        s = rng.standard_normal((3, 3))
        skew = s - s.T
        dq = rng.standard_normal((6, 3))
        dq = dq - q @ (q.T @ dq) + q @ skew  # q^T dq = skew
        out = qr_pullback(q, q, np.eye(3), dq)
        expected = dq - q @ (q.T @ dq) + q @ btril(q.T @ dq)
        assert_allclose(out, expected, atol=1e-12)

    def test_quadratic_functional_fd(self, rng):
        target = rng.standard_normal((6, 3))

        def loss_through_qr(x):
            q, _ = orthonormalize(x)
            return float(np.sum((q - target) ** 2))

        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal((6, 3))
            q, r = orthonormalize(x)
            out = qr_pullback(x, q, r, 2.0 * (q - target))
            worst = max(worst, rel_error(out, fd_grad(loss_through_qr, x)))
        assert worst <= 1e-5

    def test_singular_r(self, rng):
        x = rng.standard_normal((5, 2))
        q, r = orthonormalize(x)
        bad_r = r.copy()
        bad_r[1, 1] = 0.0
        with pytest.raises(SingularR):
            qr_pullback(x, q, bad_r, np.ones((5, 2)))
