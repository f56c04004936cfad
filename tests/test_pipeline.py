import pickle
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggdr import manifold
from ggdr.affinity import AffinityGraph, build_affinity
from ggdr.dataio import load_dataset, save_dataset
from ggdr.errors import (
    EmptyTrainingSet,
    InvalidShape,
    NumericalHealthWarning,
    RankDeficient,
    ValidationError,
)
from ggdr.manifold import (
    GrassmannPoint,
    MappingMatrix,
    TangentVector,
    geodesic_distance,
    orthonormalize,
    random_point,
)
from ggdr import metrics
from ggdr.metrics import MeasureKind, PairGradient, measure
from ggdr.objective import Problem, cost_and_grad
from ggdr import pipeline
from ggdr.optimizer import OptimOptions, minimize
from ggdr.pipeline import (
    GradCheckReport,
    LabeledDataset,
    SynthParams,
    build_subspace,
    demo_analog_params,
    evaluate,
    fit,
    gradient_check,
    nn_classify,
    pairwise_dissimilarity,
    synth_dataset,
)
from oracles import random_orthogonal

ALL_KINDS = list(MeasureKind)
DET_KINDS = [
    MeasureKind.FUBINI_STUDY,
    MeasureKind.BINET_CAUCHY_DIST_SQ,
    MeasureKind.BINET_CAUCHY_KERNEL,
]


def tiny_dataset(seed=0, classes=3, per=4, d_ambient=10, order=2, noise=0.15):
    return synth_dataset(
        SynthParams(classes, per, d_ambient, order, noise, seed)
    )


class TestLabeledDataset:
    def test_samples_are_views_of_one_read_only_array(self, rng):
        bases, _ = orthonormalize(rng.standard_normal((4, 6, 2)))
        ds = LabeledDataset(bases, "abab", "0123")
        bases[0] = 0.0
        assert not ds.bases.flags.writeable and np.abs(ds.bases[0]).max() > 0.0
        assert ds.samples is ds.samples and len(ds.samples) == 4
        assert all(s.basis.base is ds.bases for s in ds.samples)
        assert (LabeledDataset(ds.samples, "abab", "0123").bases == ds.bases).all()

    def test_pickle_round_trip(self):
        ds = tiny_dataset()
        ds.samples  # the cached views are not pickled; bases come back read-only
        again = pickle.loads(pickle.dumps(ds))
        assert (again.bases == ds.bases).all() and not again.bases.flags.writeable
        assert (again.labels, again.provenance) == (ds.labels, ds.provenance)

    def test_non_orthonormal_stack_rejected(self):
        bases = tiny_dataset().bases.copy()
        bases[3] *= 1.01
        with pytest.raises(InvalidShape, match="basis 3 of 12 not orthonormal"):
            LabeledDataset(bases, range(12), range(12))

    def test_pipeline_builds_no_point_objects(self, tmp_path, monkeypatch):
        built = []
        check = manifold.GrassmannPoint.__post_init__
        monkeypatch.setattr(
            manifold.GrassmannPoint,
            "__post_init__",
            lambda point: (built.append(1), check(point)),
        )
        ds = tiny_dataset(seed=15)
        train, test = ds.subset(range(0, 12, 2)), ds.subset(range(1, 12, 2))
        save_dataset(tmp_path / "train", train)
        train = load_dataset(tmp_path / "train")
        w, _, _ = fit(train, MeasureKind.PROJECTION_SQ, 4, opts=OptimOptions(max_iter=3))
        evaluate(train, test, MeasureKind.PROJECTION_SQ, w)
        assert built == []

    def test_fit_and_evaluate_check_each_stack_once(self, monkeypatch):
        # a LabeledDataset is checked where it is built; fit and evaluate do
        # not check its bases again, nor does the Problem that fit builds on
        # them. Left per fit: the result map; per evaluate: the two reduced
        # datasets
        calls = []
        gram_error = manifold.gram_error
        monkeypatch.setattr(
            manifold, "gram_error", lambda b: (calls.append(1), gram_error(b))[1]
        )
        ds = tiny_dataset(seed=15)
        train, test = ds.subset(range(0, 12, 2)), ds.subset(range(1, 12, 2))
        calls.clear()
        w, _, _ = fit(train, MeasureKind.PROJECTION_SQ, 4, opts=OptimOptions(max_iter=3))
        assert len(calls) == 1
        calls.clear()
        evaluate(train, test, MeasureKind.PROJECTION_SQ, w)
        assert len(calls) == 2
        calls.clear()
        evaluate(train, test, MeasureKind.PROJECTION_SQ)
        assert calls == []

    def test_dataset_and_its_bases_give_identical_results(self):
        ds = tiny_dataset(seed=4)
        for kind in ALL_KINDS:
            assert (
                pairwise_dissimilarity(ds, kind) == pairwise_dissimilarity(ds.bases, kind)
            ).all()
            assert nn_classify(ds, ds, kind) == nn_classify(ds, ds.bases, kind)

    def test_equality_is_identity_and_hashable(self):
        # the array fields make field-wise equality ambiguous, so every frozen
        # type with one compares and hashes by identity
        params = SynthParams(2, 3, 8, 2, 0.2, 4)
        a, b = synth_dataset(params), synth_dataset(params)
        assert (a.bases == b.bases).all()
        assert a == a and a != b and len({a, b, a}) == 2
        graph = AffinityGraph(np.array([[0, 1], [1, 0]]), kw=1, kb=1)
        w = np.eye(8, 4)
        base = MappingMatrix(w)
        pairs = [
            (GrassmannPoint(a.bases[0]), GrassmannPoint(a.bases[0])),
            (MappingMatrix(w), MappingMatrix(w)),
            (graph, AffinityGraph(graph.g, kw=1, kb=1)),
            (
                Problem(a.bases[:2], graph, MeasureKind.PROJECTION_SQ, 4),
                Problem(a.bases[:2], graph, MeasureKind.PROJECTION_SQ, 4),
            ),
            (PairGradient(w, w), PairGradient(w, w)),
            (TangentVector(0 * w, base), TangentVector(0 * w, base)),
        ]
        for x, y in pairs:
            assert x == x and x != y, type(x)
            assert len({x, y}) == 2


class TestBuildSubspace:
    def test_identity_features(self):
        with pytest.warns(NumericalHealthWarning):
            # all singular values equal: the gap warning must fire
            point = build_subspace(np.eye(4), 2)
        expected = GrassmannPoint(np.eye(4)[:, :2])
        assert geodesic_distance(point, expected) < 1e-7

    def test_dominant_direction(self):
        point = build_subspace(np.diag([3.0, 1.0]), 1)
        assert abs(abs(point.basis[0, 0]) - 1.0) < 1e-12

    def test_matches_truncated_svd_projector(self, rng):
        feats = rng.standard_normal((10, 8))
        point = build_subspace(feats, 3)
        u, _, _ = np.linalg.svd(feats, full_matrices=False)
        p_ours = point.basis @ point.basis.T
        p_svd = u[:, :3] @ u[:, :3].T
        assert np.linalg.norm(p_ours - p_svd) < 1e-10

    def test_column_permutation_scaling_sign_invariance(self, rng):
        # permutation, a common positive scale, and per-column sign flips
        # all preserve X X^T (hence the left singular subspace); per-column
        # magnitudes would not
        feats = rng.standard_normal((9, 6))
        base = build_subspace(feats, 2)
        perm = rng.permutation(6)
        signs = rng.choice([-1.0, 1.0], size=6)
        transformed = 3.7 * feats[:, perm] * signs
        other = build_subspace(transformed, 2)
        proj_diff = base.basis @ base.basis.T - other.basis @ other.basis.T
        assert np.linalg.norm(proj_diff) < 1e-9
        # arccos amplifies roundoff near coincidence, so the distance only
        # reaches the ~1e-8 conditioning floor
        assert geodesic_distance(base, other) < 1e-7

    def test_deterministic_bitwise(self, rng):
        feats = rng.standard_normal((8, 5))
        a = build_subspace(feats, 2)
        b = build_subspace(feats.copy(), 2)
        assert (a.basis == b.basis).all()

    def test_rank_deficient(self):
        feats = np.ones((6, 4))
        with pytest.raises(RankDeficient):
            build_subspace(feats, 2)

    def test_too_few_columns(self):
        with pytest.raises(InvalidShape):
            build_subspace(np.eye(5)[:, :2], 3)

    @pytest.mark.parametrize("order", [3, 5])
    def test_order_not_below_the_row_count(self, rng, order):
        # 3 x 8 features have 3 singular values: order 5 once indexed past them
        with pytest.raises(InvalidShape, match=f"got {order} >= 3"):
            build_subspace(rng.standard_normal((3, 8)), order)


class TestNnClassify:
    def test_exact_match_wins(self):
        ds = tiny_dataset()
        preds = nn_classify(ds, [ds.samples[5]], MeasureKind.PROJECTION_SQ)
        assert preds[0] == ds.labels[5]

    def test_two_line_classes(self):
        e = np.eye(3)
        train = LabeledDataset(
            (GrassmannPoint(e[:, :1]), GrassmannPoint(e[:, 1:2])),
            ("x_axis", "y_axis"),
            ("a", "b"),
        )
        probe_basis = np.array([[np.cos(0.1)], [np.sin(0.1)], [0.0]])
        probe = GrassmannPoint(probe_basis)
        for kind in ALL_KINDS:
            assert nn_classify(train, [probe], kind) == ["x_axis"]

    def test_agrees_with_brute_force(self, rng):
        ds = tiny_dataset(seed=3)
        test = [random_point(10, 2, int(rng.integers(2**31))) for _ in range(6)]
        for kind in ALL_KINDS:
            preds = nn_classify(ds, test, kind)
            for t, pred in zip(test, preds):
                vals = [measure(kind, t, x) for x in ds.samples]
                best = (
                    int(np.argmax(vals))
                    if kind is MeasureKind.BINET_CAUCHY_KERNEL
                    else int(np.argmin(vals))
                )
                assert pred == ds.labels[best]

    def test_invariant_to_sample_rotations(self, rng):
        ds = tiny_dataset(seed=4)
        test = [random_point(10, 2, 123)]
        before = {k: nn_classify(ds, test, k) for k in ALL_KINDS}
        rotated = LabeledDataset(
            tuple(
                GrassmannPoint(s.basis @ random_orthogonal(2, rng))
                for s in ds.samples
            ),
            ds.labels,
            ds.provenance,
        )
        for kind in ALL_KINDS:
            assert nn_classify(rotated, test, kind) == before[kind]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            LabeledDataset((), (), ())


class TestEvaluate:
    def test_self_evaluation_is_perfect(self):
        ds = tiny_dataset(seed=5)
        assert evaluate(ds, ds, MeasureKind.PROJECTION_SQ) == 1.0

    def test_identity_map_matches_no_model(self):
        ds = tiny_dataset(seed=6, d_ambient=8)
        test = tiny_dataset(seed=7, d_ambient=8)
        w = MappingMatrix(np.eye(8))
        for kind in ALL_KINDS:
            assert evaluate(ds, test, kind, w) == evaluate(ds, test, kind)

    def test_degenerate_ties_are_deterministic(self):
        # every sample spans the same subspace; predictions all go to the
        # lowest training index, so accuracy equals that label's share
        x = random_point(6, 2, 0)
        train = LabeledDataset((x, x, x, x), ("a", "b", "a", "b"), ("p",) * 4)
        test = LabeledDataset((x, x), ("a", "b"), ("q", "r"))
        for kind in ALL_KINDS:
            assert evaluate(train, test, kind) == 0.5

    # the demo benchmark's check at its seed 111: three datasets written and
    # read back, split 5/5 per class, each measure fit for 10 iterations at
    # d = 12; the mean accuracy after reduction reads 0.835 against 0.877
    @pytest.mark.xfail(strict=True, reason="FOUND 30; ROADMAP item 8")
    def test_demo_seed_111_reduction_keeps_mean_accuracy(self, tmp_path):
        opts = OptimOptions(max_iter=10, rel_cost_tol=0.0, grad_norm_tol=0.0)
        before, after = [], []
        for seed in (333, 334, 335):
            ds = synth_dataset(demo_analog_params(0.3, seed))
            # the first five samples of each class train
            rank = [ds.labels[:i].count(label) for i, label in enumerate(ds.labels)]
            for name, keep in (("train", True), ("test", False)):
                idx = [i for i, r in enumerate(rank) if (r < 5) == keep]
                save_dataset(tmp_path / f"{seed}" / name, ds.subset(idx))
            train = load_dataset(tmp_path / f"{seed}" / "train")
            test = load_dataset(tmp_path / f"{seed}" / "test")
            for kind in ALL_KINDS:
                w, _, _ = fit(train, kind, 12, opts=opts)
                before.append(evaluate(train, test, kind))
                after.append(evaluate(train, test, kind, w))
        assert np.mean(after) >= np.mean(before)


class TestSynthDataset:
    def test_zero_noise_collapses_to_centers(self):
        ds = synth_dataset(SynthParams(3, 4, 12, 2, 0.0, 11))
        for c in range(3):
            block = ds.samples[c * 4 : (c + 1) * 4]
            for s in block[1:]:
                assert geodesic_distance(block[0], s) < 1e-7

    def test_deterministic(self):
        a = synth_dataset(SynthParams(2, 3, 9, 2, 0.2, 5))
        b = synth_dataset(SynthParams(2, 3, 9, 2, 0.2, 5))
        for x, y in zip(a.samples, b.samples):
            assert (x.basis == y.basis).all()

    def test_labels_and_provenance(self):
        ds = synth_dataset(SynthParams(2, 3, 9, 2, 0.2, 5))
        assert ds.labels == (0, 0, 0, 1, 1, 1)
        assert ds.provenance[0] == "synth:c0:s0"

    def test_within_closer_than_between_at_low_noise(self):
        ds = synth_dataset(demo_analog_params(0.1, 7))
        within, between = [], []
        for i in range(ds.size):
            for j in range(i + 1, ds.size):
                d = geodesic_distance(ds.samples[i], ds.samples[j])
                (within if ds.labels[i] == ds.labels[j] else between).append(d)
        within = np.array(within)
        between = np.array(between)
        frac = np.mean(within[:, None] < between[None, :])
        assert frac >= 0.95

    def test_signal_dim_validation(self):
        with pytest.raises(InvalidShape):
            SynthParams(2, 3, 9, 3, 0.1, 0, signal_dim=2)

    @pytest.mark.parametrize(
        "noise, seed", [(np.nan, 0), (np.inf, 0), (-0.1, 0), (0.1, -1)]
    )
    def test_noise_and_seed_validation(self, noise, seed):
        with pytest.raises(InvalidShape):
            SynthParams(2, 3, 9, 2, noise, seed)


class TestPairwiseDissimilarity:
    def test_symmetric_zero_diagonal(self):
        ds = tiny_dataset(seed=8)
        for kind in ALL_KINDS:
            d = pairwise_dissimilarity(ds.bases, kind)
            assert (d == d.T).all() and (np.diag(d) == 0).all()
            assert (d >= 0).all()

    def test_similarity_flipped(self):
        ds = tiny_dataset(seed=9)
        d_bck = pairwise_dissimilarity(ds.bases, MeasureKind.BINET_CAUCHY_KERNEL)
        v = measure(MeasureKind.BINET_CAUCHY_KERNEL, ds.samples[0], ds.samples[1])
        assert d_bck[0, 1] == pytest.approx(1.0 - v, abs=1e-12)


class TestBlockwisePairTable:
    # 10 training samples on G(2, 7), blocks sized for 3 rows: row blocks of
    # 3, 3, 3 and 1, so the last GEMM block has one row
    @pytest.fixture(autouse=True)
    def block_spans(self, monkeypatch):
        # a block takes 4 PAIR_BLOCK_BYTES; a row of it 8 n max(D, M n) bytes
        monkeypatch.setattr(pipeline, "PAIR_BLOCK_BYTES", 3 * 8 * 2 * (10 * 2) // 4)
        spans = []
        blocks = pipeline._measure_blocks

        def recorded(*args, **kwargs):
            for a, b, values in blocks(*args, **kwargs):
                spans.append((a, b))
                yield a, b, values

        monkeypatch.setattr(pipeline, "_measure_blocks", recorded)
        return spans

    def test_pairwise_matches_per_pair_measure(self, block_spans):
        ds = tiny_dataset(seed=12, classes=2, per=5, d_ambient=7)
        for kind in ALL_KINDS:
            block_spans.clear()
            d = pairwise_dissimilarity(ds.bases, kind)
            assert block_spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
            assert (d == d.T).all() and (np.diag(d) == 0).all()
            for i in range(ds.size):
                for j in range(i + 1, ds.size):
                    v = measure(kind, ds.samples[i], ds.samples[j])
                    if kind is MeasureKind.BINET_CAUCHY_KERNEL:
                        v = 1.0 - v
                    assert d[i, j] == pytest.approx(v, rel=0, abs=4e-15)

    def test_nn_matches_per_pair_measure(self, rng, block_spans):
        ds = tiny_dataset(seed=13, classes=2, per=5, d_ambient=7)
        test = [random_point(7, 2, int(rng.integers(2**31))) for _ in range(7)]
        for kind in ALL_KINDS:
            block_spans.clear()
            labels, indices, values = pipeline._nn_predict(ds, test, kind)
            assert block_spans == [(0, 3), (3, 6), (6, 7)]
            assert nn_classify(ds, test, kind) == labels
            for t, label, index, value in zip(test, labels, indices, values):
                vals = [measure(kind, t, x) for x in ds.samples]
                similarity = kind is MeasureKind.BINET_CAUCHY_KERNEL
                best = int(np.argmax(vals) if similarity else np.argmin(vals))
                assert index == best and label == ds.labels[index]
                assert value == pytest.approx(vals[index], rel=0, abs=4e-15)

    def test_no_samples(self):
        ds = tiny_dataset(seed=14)
        assert pairwise_dissimilarity([], MeasureKind.PROJECTION_SQ).shape == (0, 0)
        assert nn_classify(ds, [], MeasureKind.PROJECTION_SQ) == []

    def test_nn_ties_go_to_lowest_index(self):
        # the probe makes the same angle with axes 1 and 3 and is orthogonal
        # to the others: an exact tie between training samples 1 and 3
        e = np.eye(7)
        train = LabeledDataset(
            tuple(GrassmannPoint(e[:, [k]]) for k in range(5)),
            tuple("abcde"),
            tuple("01234"),
        )
        probe = GrassmannPoint((e[:, [1]] + e[:, [3]]) / np.sqrt(2.0))
        for kind in ALL_KINDS:
            assert pipeline._nn_predict(train, [probe], kind)[:2] == (["b"], [1])

    def test_nn_ties_go_to_lowest_index_in_every_block(self, monkeypatch, block_spans):
        # training sample k spans axes 2k and 2k+1; probe k lies halfway
        # between samples k and k+1 (probe 4 between 0 and 4), an exact tie
        # in every measure; the 5 probes run in blocks of 2, 2 and 1
        monkeypatch.setattr(pipeline, "PAIR_BLOCK_BYTES", 2 * 8 * 2 * 12 // 4)
        e = np.eye(12)
        train = LabeledDataset(
            np.stack([e[:, 2 * k : 2 * k + 2] for k in range(5)]),
            tuple("abcde"),
            tuple("01234"),
        )
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        probes = np.stack(
            [(train.bases[i] + train.bases[j]) / np.sqrt(2.0) for i, j in pairs]
        )
        for kind in ALL_KINDS:
            block_spans.clear()
            _, indices, _ = pipeline._nn_predict(train, probes, kind)
            assert block_spans == [(0, 2), (2, 4), (4, 5)]
            assert indices == [0, 1, 2, 3, 0]
            assert nn_classify(train, probes, kind) == list("abcda")


def nearest_case(case: str, seed: int):
    """(train, test) bases on G(n, D) whose products stress the pruned search.

    ties: duplicate training samples and a sample X O (O orthogonal), probed
    by training samples themselves. orthogonal-rows: every product is
    diag(cos theta) O, where Hadamard's bound holds with equality.
    near-singular: one probe direction nearly orthogonal to every training
    subspace, so every product of that probe has a tiny row.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    d_ambient = 3 * n + 3
    if case == "ties":
        base, _ = orthonormalize(rng.standard_normal((6, d_ambient, n)))
        o = random_orthogonal(n, rng)
        train = np.concatenate([base, base[[1]], base[[3]] @ o])
        train = train[rng.permutation(len(train))]
        test, _ = orthonormalize(rng.standard_normal((3, d_ambient, n)))
        return train, np.concatenate([base[[1, 3, 0]], test])
    if case == "orthogonal-rows":
        e = np.eye(d_ambient)
        blocks = (e[:, :n], e[:, n : 2 * n])
        train = np.stack(
            [blocks[k % 2] @ random_orthogonal(n, rng) for k in range(8)]
        )
        theta = rng.uniform(0.0, np.pi / 2, (5, 1, n))
        theta[0] = theta[1]  # two probes alike: ties across rows too
        test = np.cos(theta) * blocks[0] + np.sin(theta) * blocks[1]
        return train, test
    assert case == "near-singular"
    half = d_ambient // 2
    inner, _ = orthonormalize(rng.standard_normal((10, half, n)))
    train = np.concatenate([inner, np.zeros((10, d_ambient - half, n))], axis=1)
    test = rng.standard_normal((6, d_ambient, n))
    test[:, :half, 0] *= 10.0 ** rng.uniform(-16.0, -4.0, (6, 1))
    test, _ = orthonormalize(test)
    return train, test


class TestNearestPruned:
    """Only pairs that can win a row take a determinant; the answer is unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(["ties", "orthogonal-rows", "near-singular"]),
        kind=st.sampled_from(ALL_KINDS),
        row_block=st.sampled_from([None, 1, 2]),
    )
    def test_matches_every_pair_measured(self, seed, case, kind, row_block):
        train, test = nearest_case(case, seed)
        ds = LabeledDataset(train, range(len(train)), map(str, range(len(train))))
        # a block takes 4 PAIR_BLOCK_BYTES; a row of it 8 n max(D, M n) bytes
        count, d_ambient, n = train.shape
        row_bytes = 8 * n * max(d_ambient, count * n)
        with pytest.MonkeyPatch.context() as mp:
            if row_block is not None:  # blocks of row_block test samples
                mp.setattr(pipeline, "PAIR_BLOCK_BYTES", row_block * row_bytes // 4)
            _, indices, values = pipeline._nn_predict(ds, test, kind)
            # pruned pairs' s, and every pair's s
            every = lambda a: metrics._invariant(kind, a)[0]  # noqa: E731
            pruned, table = (
                np.concatenate([v for *_, v in pipeline._measure_blocks(r, test, train)])
                for r in (partial(metrics.nearest_invariants, kind), every)
            )
        # the argmax, ties to the first index, is that of every pair's s
        best = np.argmax(table, axis=1)
        assert indices == best.tolist() == np.argmax(pruned, axis=1).tolist()
        kept = pruned != -np.inf
        assert (pruned[kept] == table[kept]).all()
        assert kept[np.arange(len(test)), best].all()
        winners = table[np.arange(len(test)), best]
        assert values == metrics.measures_of(kind, winners, n).tolist()
        # one pair at a time, the products differ from the GEMM's in roundoff,
        # which arccos near |det A| = 1 magnifies: fs is compared as |det A|
        near = np.cos if kind is MeasureKind.FUBINI_STUDY else float
        pick = max if kind.similarity_like else min
        for t, index, value in zip(test, indices, values):
            per_pair = [measure(kind, t, x) for x in train]
            for v in (per_pair[index], pick(per_pair)):
                assert near(value) == pytest.approx(near(v), rel=0, abs=4e-15)
            # a probe with two copies in the training set finds the first
            copies = [i for i, x in enumerate(train) if (x == t).all()]
            if len(copies) > 1:
                assert index == copies[0]

    def test_pairs_that_cannot_win_read_as_the_worst_value(self):
        # the probe is training sample 2; the others are orthogonal to it, so
        # their Hadamard bounds are 0 and no determinant is taken for them
        e = np.eye(10)
        train = np.stack([e[:, 2 * k : 2 * k + 2] for k in range(5)])
        cols = train.transpose(1, 0, 2).reshape(10, -1)
        block = (train[2].T @ cols).reshape(1, 2, 5, 2).transpose(0, 2, 1, 3)
        for kind in DET_KINDS:
            s = metrics.nearest_invariants(kind, block)[0]
            assert s[2] == metrics._invariant(kind, block)[0][0, 2] == 1.0
            assert s[[0, 1, 3, 4]].tolist() == [-np.inf] * 4

    def test_rounding_tie_goes_to_the_larger_invariant(self):
        # adjacent c1 < c2 whose squares differ but round to one 1 - c^2: p
        # and pk give both training samples one value, their s still differ
        c1 = 0.55
        for _ in range(100):
            c2 = np.nextafter(c1, 1.0)
            if c1 * c1 != c2 * c2 and 1.0 - c1 * c1 == 1.0 - c2 * c2:
                break
            c1 = c2
        assert 1.0 - c1 * c1 == 1.0 - c2 * c2
        train = LabeledDataset(
            np.array([[[c1], [np.sqrt(1 - c1 * c1)], [0.0]],
                      [[c2], [0.0], [np.sqrt(1 - c2 * c2)]]]),
            ("a", "b"),
            ("0", "1"),
        )
        probe = np.eye(3)[None, :, :1]
        for kind in ALL_KINDS:
            assert pipeline._nn_predict(train, probe, kind)[:2] == (["b"], [1])


class TestGradientCheck:
    def test_projection_clean(self):
        rep = gradient_check(
            MeasureKind.PROJECTION_SQ, 12, 6, 2, trials=20, seed=1
        )
        assert isinstance(rep, GradCheckReport)
        assert rep.failures == 0 and rep.ok()
        assert rep.max_rel_error <= 1e-5

    def test_corruption_hook_detected(self, monkeypatch):
        grad = pipeline.euclidean_grad
        monkeypatch.setattr(pipeline, "euclidean_grad", lambda w, p: grad(w, p) + 0.05)
        rep = gradient_check(MeasureKind.PROJECTION_SQ, 12, 6, 2, trials=3, seed=1)
        assert rep.failures > 0 and not rep.ok()

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidShape):
            gradient_check(MeasureKind.PROJECTION_SQ, 12, 6, 2, trials=1, seed=-1)

    def test_near_coincident_pair_is_guarded_not_failed(self):
        # shared-seed draw produces distinct pairs; force the guard instead
        # by checking the clamp path on coincident inputs via measure_grad
        from ggdr.metrics import (
            health_counters,
            measure_grad,
            reset_health_counters,
        )

        reset_health_counters()
        q = random_point(12, 2, 3)
        measure_grad(MeasureKind.FUBINI_STUDY, q, q)
        assert health_counters()["fubini_study_grad_clamped"] == 1
        reset_health_counters()


# 15 iterations that no tolerance cuts short
SPAN_OPTS = OptimOptions(max_iter=15, rel_cost_tol=0.0, grad_norm_tol=0.0)


@pytest.fixture
def minimize_calls(monkeypatch):
    """(ambient dim of the Problem, restart period) of each minimize fit runs."""
    calls = []
    run = pipeline.minimize

    def spy(problem, w0=None, opts=None):
        calls.append((problem.ambient_dim, opts.restart_period))
        return run(problem, w0=w0, opts=opts)

    monkeypatch.setattr(pipeline, "minimize", spy)
    return calls


def span_dataset(seed, bases=None):
    """12 samples on G(3, 300): at d = 8, [W0, X] has m = 8 + 36 = 44 < 300
    columns. ``bases`` replaces the drawn ones."""
    ds = synth_dataset(SynthParams(3, 4, 300, 3, 0.3, seed))
    return ds if bases is None else LabeledDataset(bases, ds.labels, ds.provenance)


def default_graph(train, kind):
    dist = pairwise_dissimilarity(train.bases, kind)
    return build_affinity(train.labels, dist, kw=3, kb=1)


def oracle_fit(train, kind, target_dim, w0=None):
    """Problem plus minimize on the D x d maps, with the default graph."""
    graph = default_graph(train, kind)
    problem = Problem(train.bases, graph, kind, target_dim=target_dim)
    w, trace = minimize(problem, w0=w0, opts=SPAN_OPTS)
    return w, trace, graph


def counts(trace):
    return (
        trace.iterations,
        sum(rec.backtracks for rec in trace.records),
        trace.objective_evals,
    )


def assert_same_fit(fitted, oracle):
    """Equal counts and an orthonormal map; cost and map within what CG's own
    roundoff amplification allows. Started from a map 4e-16 away, the oracle
    itself moved by up to 1.2e-8 (final cost, relative) and 2.3e-6 (map) over
    these tests' 15-iteration fits."""
    (w, trace, graph), (w_ref, trace_ref, graph_ref) = fitted, oracle
    assert (graph.g == graph_ref.g).all()
    assert counts(trace) == counts(trace_ref)
    assert abs(trace.final_cost - trace_ref.final_cost) <= 1e-7 * abs(
        trace_ref.final_cost
    )
    assert np.linalg.norm(w.w @ w.w.T - w_ref.w @ w_ref.w.T) <= 1e-5
    assert np.linalg.norm(w.w.T @ w.w - np.eye(w.w.shape[1])) <= 1e-12


def start_map(init, seed):
    if init == "identity":
        return None
    rng = np.random.default_rng(seed)
    return MappingMatrix(orthonormalize(rng.standard_normal((300, 8)))[0])


class TestSpanFit:
    """fit in the span of [W0, X] against CG on the D x d maps themselves."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("init", ["identity", "random"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_the_ambient_oracle(self, minimize_calls, kind, init, seed):
        train, w0 = span_dataset(seed), start_map(init, seed)
        fitted = fit(train, kind, 8, opts=SPAN_OPTS, w0=w0)
        assert minimize_calls == [(44, 8 * 292)]
        assert_same_fit(fitted, oracle_fit(train, kind, 8, w0))

    @pytest.mark.parametrize("init", ["identity", "random"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_cost_and_gradient_match_to_roundoff(self, kind, init):
        # before CG amplifies roundoff: at W0 the span problem's cost is the
        # ambient one, and its gradient is U^T times the ambient gradient,
        # which lies in span(X)
        train = span_dataset(0)
        w0 = np.eye(300, 8) if init == "identity" else start_map(init, 0).w
        u = pipeline._span_basis(w0, train.bases)
        graph = default_graph(train, kind)
        ambient = Problem(train.bases, graph, kind, target_dim=8)
        span = Problem(np.matmul(u.T, train.bases), graph, kind, target_dim=8)
        c, g, _ = cost_and_grad(w0, ambient)
        c_span, g_span, _ = cost_and_grad(u.T @ w0, span)
        assert abs(c_span - c) <= 1e-13 * abs(c)
        assert np.linalg.norm(u @ g_span - g) <= 1e-13 * np.linalg.norm(g)

    @pytest.mark.parametrize("restart", [None, 5])
    @pytest.mark.parametrize("ambient, coords", [(300, 44), (60, 60), (40, 40)])
    def test_coordinates_and_restart_period(
        self, minimize_calls, ambient, coords, restart
    ):
        # m = 44: (m / d) D / (D - m) is 6.4 at D = 300, within
        # SPAN_COST_LIMIT, and 20.6 at D = 60; at D = 40, m >= D. Either
        # way restart None means d(D - d) of G(8, D)
        train = synth_dataset(SynthParams(3, 4, ambient, 3, 0.3, 2))
        opts = OptimOptions(max_iter=1, restart_period=restart)
        fit(train, MeasureKind.PROJECTION_SQ, 8, opts=opts)
        period = 8 * (ambient - 8) if restart is None else restart
        assert minimize_calls == [(coords, period)]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_repeated_sample_falls_back_to_the_ambient_path(self, minimize_calls, kind):
        bases = span_dataset(3).bases.copy()
        bases[1] = bases[0]
        train = span_dataset(3, bases)
        w, trace, _ = fit(train, kind, 8, opts=SPAN_OPTS)
        assert minimize_calls == [(300, 8 * 292)]
        w_ref, trace_ref, _ = oracle_fit(train, kind, 8)
        assert w.w.tobytes() == w_ref.w.tobytes()
        assert repr(trace.records) == repr(trace_ref.records)

    @pytest.mark.parametrize(
        "eps, ambient", [(1e-4, 44), (1e-7, 44), (1e-10, 300)]
    )
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_near_repeated_sample_fits(self, minimize_calls, kind, eps, ambient):
        # at 1e-10 the Cholesky of [W0, X]^T [W0, X] fails and fit stays on
        # the maps; at 1e-7 the span basis is still orthonormal to roundoff
        bases = span_dataset(3).bases.copy()
        noise = np.random.default_rng(0).standard_normal(bases[0].shape)
        bases[1], _ = orthonormalize(bases[0] + eps * noise)
        train = span_dataset(3, bases)
        fitted = fit(train, kind, 8, opts=SPAN_OPTS)
        assert minimize_calls == [(ambient, 8 * 292)]
        assert_same_fit(fitted, oracle_fit(train, kind, 8))

    def test_ill_conditioned_span_declines_by_its_estimate(
        self, minimize_calls, monkeypatch
    ):
        # a sample repeated at a perturbation of 3e-9: the Cholesky of
        # [W0, X]^T [W0, X] succeeds, but ||R||_F ||R^-1||_F reads 2.5e8,
        # over SPAN_COND_LIMIT (6.7e7)
        ds = synth_dataset(SynthParams(2, 3, 512, 4, 0.3, 2))
        bases = ds.bases.copy()
        noise = np.random.default_rng(0).standard_normal(bases[0].shape)
        bases[1], _ = orthonormalize(bases[0] + 3e-9 * noise)
        train = LabeledDataset(bases, ds.labels, ds.provenance)
        factors = []
        cholesky = np.linalg.cholesky

        def spy(a, **kwargs):
            factors.append(cholesky(a, **kwargs))
            return factors[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", spy)
            assert pipeline._span_basis(np.eye(512, 8), train.bases) is None
        assert len(factors) == 1
        r = factors[0]
        estimate = np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r))
        assert estimate >= pipeline.SPAN_COND_LIMIT
        w, _, _ = fit(train, MeasureKind.PROJECTION_SQ, 8, opts=SPAN_OPTS)
        assert minimize_calls == [(512, 8 * 504)]
        assert np.linalg.norm(w.w.T @ w.w - np.eye(8)) <= 1e-12


class TestFitChecks:
    @pytest.mark.parametrize(
        "args",
        [
            dict(target_dim=2),  # d = n
            dict(target_dim=11),  # D + 1
            dict(target_dim=0),
            dict(target_dim=4, kw=4),  # classes have 4 samples
            dict(target_dim=4, kb=0),
            dict(target_dim=4, w0=MappingMatrix(np.eye(9, 4))),
        ],
    )
    def test_bad_arguments_fail_before_the_dissimilarity_matrix(
        self, monkeypatch, args
    ):
        calls = []
        monkeypatch.setattr(
            pipeline, "pairwise_dissimilarity", lambda *a: calls.append(a)
        )
        with pytest.raises(ValidationError):
            fit(tiny_dataset(), MeasureKind.PROJECTION_SQ, **args)
        assert calls == []
