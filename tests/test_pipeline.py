import pickle

import numpy as np
import pytest

from ggdr import manifold
from ggdr.affinity import AffinityGraph
from ggdr.dataio import load_dataset, save_dataset
from ggdr.errors import (
    EmptyTrainingSet,
    InvalidShape,
    NumericalHealthWarning,
    RankDeficient,
)
from ggdr.manifold import (
    GrassmannPoint,
    MappingMatrix,
    TangentVector,
    geodesic_distance,
    orthonormalize,
    random_point,
)
from ggdr.metrics import MeasureKind, PairGradient, measure
from ggdr.objective import Problem
from ggdr import pipeline
from ggdr.optimizer import OptimOptions
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
