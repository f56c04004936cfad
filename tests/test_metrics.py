import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ggdr.errors import (
    DimensionMismatch,
    NotSquare,
    RankDeficient,
    SingularR,
)
from ggdr.manifold import GrassmannPoint, orthonormalize, qr_with_inverse, random_point
from ggdr.metrics import (
    HADAMARD_RTOL,
    MeasureKind,
    btril,
    hadamard_bound,
    health_counters,
    measure,
    measure_grad,
    pair_measure_grads,
    pair_measures,
    qr_pullback,
    qr_pullback_inverse,
    reset_health_counters,
)
from oracles import (
    fd_grad,
    measure_ambient,
    measure_grad_closed_form,
    random_orthogonal,
    rel_error,
)

ALL_KINDS = list(MeasureKind)
DET_KINDS = [
    MeasureKind.FUBINI_STUDY,
    MeasureKind.BINET_CAUCHY_DIST_SQ,
    MeasureKind.BINET_CAUCHY_KERNEL,
]


def rand_pair(d_ambient, order, seed):
    return random_point(d_ambient, order, seed), random_point(d_ambient, order, seed + 10_000)


class TestOrientation:
    def test_only_the_kernel_is_similarity_like(self):
        for kind in ALL_KINDS:
            assert kind.similarity_like is (kind is MeasureKind.BINET_CAUCHY_KERNEL)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_non_finite_basis_gives_nan(self, kind, bad):
        # a clamp must not turn a NaN or infinite product into a perfect
        # match (0, or 1 for the kernel); the stacked table agrees, and every
        # kind's gradient is NaN too, not a mask or an infinity
        for order in (1, 2, 3):
            q1, q2 = rand_pair(7, order, 4 + order)
            raw = q1.basis.copy()
            raw[2, 0] = bad
            with np.errstate(invalid="ignore"):
                stacked = pair_measures(kind, (raw.T @ q2.basis)[None])
                assert np.isnan(measure(kind, raw, q2))
                assert np.isnan(measure(kind, q2, raw))
                grads = [measure_grad(kind, raw, q2), measure_grad(kind, q2, raw)]
                values, da = pair_measure_grads(kind, (raw.T @ q2.basis)[None])
            assert stacked.shape == (1,) and np.isnan(stacked[0])
            assert np.isnan(values[0]) and np.isnan(da).all()
            for g in grads:
                assert np.isnan(g.g1).all() and np.isnan(g.g2).all()

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

    def test_gemm_block_layout(self, rng):
        # products of 3 bases against 4 as one GEMM, laid out (3, n, 4, n):
        # reduced through their (3, 4, n, n) view they give the per-pair measures
        left, _ = orthonormalize(rng.standard_normal((3, 9, 3)))
        right, _ = orthonormalize(rng.standard_normal((4, 9, 3)))
        block = left.mT.reshape(9, 9) @ right.transpose(1, 0, 2).reshape(9, 12)
        block = block.reshape(3, 3, 4, 3).transpose(0, 2, 1, 3)
        for kind in ALL_KINDS:
            values = pair_measures(kind, block)
            assert values.shape == (3, 4)
            for i in range(3):
                for j in range(4):
                    assert values[i, j] == pytest.approx(
                        measure(kind, left[i], right[j]), rel=0, abs=4e-15
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

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_matches_closed_form_oracle(self, kind, rng):
        # projector and SVD-adjugate forms, on pairs with |det A| >= 1e-3
        worst, checked = 0.0, 0
        for d_ambient, order in [(5, 1), (8, 2), (9, 3), (7, 5)]:
            for _ in range(15):
                q1, q2 = rand_pair(d_ambient, order, int(rng.integers(2**31)))
                if abs(np.linalg.det(q1.basis.T @ q2.basis)) < 1e-3:
                    continue
                g = measure_grad(kind, q1, q2)
                o1, o2 = measure_grad_closed_form(kind, q1.basis, q2.basis)
                worst = max(worst, rel_error(g.g1, o1), rel_error(g.g2, o2))
                checked += 1
        assert checked >= 40
        assert worst <= 1e-12

    def test_singular_pair_for_determinant_kinds(self):
        # det(Q1^T Q2) = 0 exactly, at rank 0 and at rank n - 1: the
        # gradient is finite (the subgradient 0 at the |det| kink) and the
        # value is the stacked table's, bit for bit
        e = np.eye(4)
        for q2 in (e[:, [2, 3]], e[:, [0, 2]]):
            a = e[:, [0, 1]].T @ q2
            for kind in DET_KINDS:
                g = measure_grad(kind, e[:, [0, 1]], q2)
                values, da = pair_measure_grads(kind, a[None])
                assert np.isfinite(g.g1).all() and np.isfinite(g.g2).all()
                assert np.isfinite(da).all()
                assert values[0] == pair_measures(kind, a[None])[0]
                assert values[0] == measure_ambient(kind, e[:, [0, 1]], q2)

    def test_fubini_study_clamps_near_coincident(self):
        reset_health_counters()
        q = random_point(9, 3, 1)
        g = measure_grad(MeasureKind.FUBINI_STUDY, q, q)
        assert np.isfinite(g.g1).all() and np.isfinite(g.g2).all()
        assert health_counters()["fubini_study_grad_clamped"] >= 1
        reset_health_counters()


class TestPairMeasureGrads:
    @pytest.mark.parametrize("kind", DET_KINDS, ids=lambda k: k.value)
    def test_one_stack(self, kind):
        # well-conditioned, exactly singular (Q1 orthogonal to Q2), non-finite,
        # and two coincident pairs, as one stack of products
        e = np.eye(6)
        good = rand_pair(6, 2, 17)
        coincident = random_point(6, 2, 18)
        pairs = [
            (good[0].basis, good[1].basis),
            (e[:, [0, 1]], e[:, [2, 3]]),
            (e[:, [0, 1]], np.full((6, 2), np.nan)),
            (coincident.basis, coincident.basis),
            (coincident.basis, coincident.basis),
        ]
        q1 = np.stack([a for a, _ in pairs])
        q2 = np.stack([b for _, b in pairs])
        reset_health_counters()
        with np.errstate(invalid="ignore"):
            values, da = pair_measure_grads(kind, q1.mT @ q2)
        clamps = health_counters().get("fubini_study_grad_clamped", 0)
        reset_health_counters()
        for k in (0, 1):
            assert values[k] == pytest.approx(
                measure_ambient(kind, *pairs[k]), rel=1e-12
            )
        o1, o2 = measure_grad_closed_form(kind, *pairs[0])
        assert rel_error(q2[0] @ da[0].T, o1) <= 1e-12
        assert rel_error(q1[0] @ da[0], o2) <= 1e-12
        # the singular pair has the oracle's gradient (0 at A = 0)
        assert not da[1].any()
        assert np.isnan(values[2]) and np.isnan(da[2]).all()
        assert clamps == (2 if kind is MeasureKind.FUBINI_STUDY else 0)
        assert np.isfinite(da[3:]).all()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_values_are_pair_measures_bit_for_bit(self, kind):
        # both read one invariant: a well-conditioned, an exactly singular, a
        # coincident, a NaN and a +-inf product, as one stack
        good = rand_pair(7, 3, 23)
        coincident = random_point(7, 3, 24).basis
        a = np.stack([
            good[0].basis.T @ good[1].basis,
            np.zeros((3, 3)),
            coincident.T @ coincident,
            np.full((3, 3), np.nan),
            np.diag([np.inf, -np.inf, 1.0]),
        ])
        with np.errstate(invalid="ignore"):
            values = pair_measure_grads(kind, a)[0]
            expected = pair_measures(kind, a)
        assert np.array_equal(values, expected, equal_nan=True)
        assert np.isfinite(values[:3]).all()
        assert np.isnan(values[3:]).all()

    @given(
        order=st.integers(min_value=1, max_value=8),
        log_det=st.floats(min_value=-12.0, max_value=-3.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_near_singular_products_match_the_svd_oracle(self, order, log_det, seed):
        # A = U diag(sigma) V^T with |det A| = 10^log_det, either sign. bck's
        # gradient 2 |det A| adj(A)^T carries |det A|'s own roundoff (about
        # eps cond(A) relative, in the LU and the SVD alike), so it is held to
        # 1e-12 of the size of adj(A) rather than of its own
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.5, 1.0, order)
        sigma[-1] = 10.0**log_det / np.prod(sigma[:-1])
        u, v = random_orthogonal(order, rng), random_orthogonal(order, rng)
        a = (u * sigma) @ v.T
        # bc's gradient is -2 d|det A|/dA
        bc = measure_grad_closed_form(
            MeasureKind.BINET_CAUCHY_DIST_SQ, np.eye(order), a
        )[1]
        adj_norm = 0.5 * np.linalg.norm(bc)
        for kind in DET_KINDS:
            values, da = pair_measure_grads(kind, a[None])
            _, oracle = measure_grad_closed_form(kind, np.eye(order), a)
            assert values[0] == pair_measures(kind, a[None])[0]
            if kind is MeasureKind.BINET_CAUCHY_KERNEL:
                err = np.linalg.norm(da[0] - oracle) / adj_norm
            else:
                err = rel_error(da[0], oracle)
            assert err <= 1e-12

    def test_oracle_at_singular_product(self):
        # at det A = 0 with rank n - 1 the SVD adjugate is the cofactor
        # matrix up to sign, which is where the inverse-based form fails
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        _, da = measure_grad_closed_form(
            MeasureKind.BINET_CAUCHY_DIST_SQ, np.eye(3), a
        )
        cof = np.array([
            [(-1) ** (i + j) * np.linalg.det(np.delete(np.delete(a, i, 0), j, 1))
             for j in range(3)]
            for i in range(3)
        ])
        assert np.abs(cof).max() > 0.1
        assert min(rel_error(da, -2.0 * cof), rel_error(da, 2.0 * cof)) <= 1e-12


class TestHadamardBound:
    @given(
        order=st.integers(min_value=1, max_value=8),
        shape=st.sampled_from(["random", "orthogonal-rows", "scaled-rows"]),
        log_scale=st.floats(min_value=-16.0, max_value=0.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_det_never_exceeds_the_widened_bound(self, order, shape, log_scale, seed):
        # products of orthonormal bases: random ones, D O with D diagonal
        # (Hadamard's equality case), and the same with one row scaled
        # towards 0 and a little noise, a near-singular product
        rng = np.random.default_rng(seed)
        d_ambient = order + 1 + seed % 8
        q1 = orthonormalize(rng.standard_normal((d_ambient, order)))[0]
        if shape == "random":
            q2 = orthonormalize(rng.standard_normal((d_ambient, order)))[0]
            a = q1.T @ q2
        else:
            a = rng.uniform(0.0, 1.0, (order, 1)) * random_orthogonal(order, rng)
            if shape == "scaled-rows":
                a[0] *= 10.0**log_scale
                a += 1e-17 * rng.standard_normal(a.shape)
        bound = hadamard_bound(a[None])[0]
        assert abs(np.linalg.det(a)) <= bound * (1.0 + HADAMARD_RTOL)
        if shape == "orthogonal-rows":
            assert abs(np.linalg.det(a)) == pytest.approx(bound, rel=1e-14)

    def test_gemm_block_layout(self, rng):
        # the (k, M, n, n) view of a (k, n, M, n) block bounds the same
        # matrices as a contiguous copy of that view
        view = rng.standard_normal((3, 4, 5, 4)).transpose(0, 2, 1, 3)
        stacked = hadamard_bound(np.ascontiguousarray(view))
        assert_allclose(hadamard_bound(view), stacked, rtol=1e-15)
        assert stacked.shape == (3, 5)


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

    def test_inverse_form_matches_the_triangular_solve(self, rng):
        # the objective multiplies by the R^-1 of the rank test; the LU
        # solve it replaced is the reference, for a stack and one matrix
        for shape in [(40, 12, 6), (9, 5)]:
            x = rng.standard_normal(shape)
            dq = rng.standard_normal(shape)
            q, r, r_inv = qr_with_inverse(x)
            qt_dq = q.mT @ dq
            rhs = dq - q @ qt_dq + q @ btril(qt_dq)
            expected = np.linalg.solve(r, rhs.mT).mT
            for out in (qr_pullback_inverse(q, r_inv, dq), qr_pullback(x, q, r, dq)):
                assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_singular_r(self, rng):
        x = rng.standard_normal((5, 2))
        q, r = orthonormalize(x)
        bad_r = r.copy()
        bad_r[1, 1] = 0.0
        with pytest.raises(SingularR):
            qr_pullback(x, q, bad_r, np.ones((5, 2)))

    def test_rank_test_is_orthonormalize_s(self, rng):
        # nonzero pivots 1 and 1e-3, but ||R||_F ||R^-1||_F is about 1e19:
        # the pullback rejects the R that orthonormalize rejects, where a
        # pivot screen alone would pass it and return a 1e11 gradient
        q, _ = orthonormalize(rng.standard_normal((5, 2)))
        r = np.array([[1.0, 1e8], [0.0, 1e-3]])
        x = q @ r
        with pytest.raises(RankDeficient):
            orthonormalize(x)
        with pytest.raises(SingularR):
            qr_pullback(x, q, r, np.ones((5, 2)))
