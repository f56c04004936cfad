import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggdr.affinity import AffinityGraph, build_affinity, default_kw
from ggdr.errors import DegenerateClass, DimensionMismatch, InvalidK, InvalidShape

from oracles import build_affinity_rows


def dist_from_coords(coords):
    coords = np.asarray(coords, dtype=float)
    return np.abs(coords[:, None] - coords[None, :])


class TestDefaultKw:
    def test_mixed_sizes(self):
        assert default_kw(["a", "a", "a", "b", "b"]) == 1

    def test_equal_sizes(self):
        assert default_kw(["a"] * 6 + ["b"] * 6 + ["c"] * 6) == 5

    def test_single_class_of_two(self):
        assert default_kw(["a", "a"]) == 1

    def test_singleton_class(self):
        with pytest.raises(DegenerateClass):
            default_kw(["a", "a", "b"])


class TestBuildAffinity:
    def test_two_same_label(self):
        g = build_affinity(["a", "a"], np.array([[0.0, 1.0], [1.0, 0.0]]), kw=1, kb=1)
        assert (g.g == [[0, 1], [1, 0]]).all()

    def test_two_singletons(self):
        with pytest.raises(DegenerateClass):
            build_affinity(["a", "b"], np.zeros((2, 2)), kw=1, kb=1)

    def test_four_point_hand_case(self):
        # twins (0,1) and (2,3) on a line; enumerate the neighbor sets by
        # brute force and rebuild the expected graph from the definition
        labels = ["a", "a", "b", "b"]
        dist = dist_from_coords([0.0, 1.0, 2.0, 3.0])
        g = build_affinity(labels, dist, kw=1, kb=1)

        expected = np.zeros((4, 4), dtype=int)
        for i in range(4):
            same = [j for j in range(4) if j != i and labels[j] == labels[i]]
            other = [j for j in range(4) if labels[j] != labels[i]]
            nw = sorted(same, key=lambda j: (dist[i, j], j))[:1]
            nb = sorted(other, key=lambda j: (dist[i, j], j))[:1]
            for j in nw:
                expected[i, j] = expected[j, i] = 1
            for j in nb:
                expected[i, j] = expected[j, i] = -1
        assert (g.g == expected).all()
        # within edges are exactly the twin pairs
        assert expected[0, 1] == 1 and expected[2, 3] == 1

    def test_kw_too_large(self):
        with pytest.raises(InvalidK):
            build_affinity(["a", "a", "b", "b"], np.zeros((4, 4)), kw=2, kb=1)

    def test_kb_exceeds_kw(self):
        labels = ["a"] * 3 + ["b"] * 3
        with pytest.raises(InvalidK):
            build_affinity(labels, np.zeros((6, 6)), kw=1, kb=2)

    def test_asymmetric_distance_rejected(self):
        d = np.zeros((4, 4))
        d[0, 1] = 1.0
        with pytest.raises(InvalidShape):
            build_affinity(["a", "a", "b", "b"], d, kw=1, kb=1)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_affinity(["a", "a"], np.zeros((3, 3)), kw=1, kb=1)

    def test_tie_break_by_index(self):
        # all distances equal: each picks the lowest-index candidate
        labels = ["a", "a", "a", "b", "b", "b"]
        dist = np.ones((6, 6)) - np.eye(6)
        g = build_affinity(labels, dist, kw=1, kb=1)
        # sample 0 selects within 1 and between 3; sample 1 selects 0; etc.
        assert g.g[0, 1] == 1 and g.g[0, 3] == -1
        assert g.g[4, 0] == -1  # 4's nearest different-label by index is 0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_structure_properties(self, seed):
        rng = np.random.default_rng(seed)
        n_per = int(rng.integers(2, 5))
        classes = int(rng.integers(2, 4))
        labels = [f"c{i}" for i in range(classes) for _ in range(n_per)]
        n = len(labels)
        coords = rng.standard_normal(n)
        dist = dist_from_coords(coords)
        kw = int(rng.integers(1, n_per))
        g = build_affinity(labels, dist, kw=kw, kb=1)
        lab = np.array(labels)
        assert (g.g == g.g.T).all()
        assert (np.diag(g.g) == 0).all()
        same = lab[:, None] == lab[None, :]
        assert (g.g[~same] <= 0).all() and (g.g[same] >= 0).all()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_oracle(self, data):
        # one sort per class must give the graph of two lexsorts per row,
        # bit for bit: tied integer distances, interleaved classes, string,
        # int and mixed labels, and a single class (kb above the 0 cross-class
        # candidates)
        names = data.draw(
            st.sampled_from([["a", "b", "c", "d"], [3, 1, 2, 0], ["x", 7, "y", 0]])
        )
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
        labels = [names[c] for c, size in enumerate(sizes) for _ in range(size)]
        labels = data.draw(st.permutations(labels))
        n = len(labels)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        upper = np.triu(rng.integers(0, data.draw(st.integers(1, 4)), (n, n)), 1)
        dist = (upper + upper.T).astype(float)
        kw = data.draw(st.integers(1, min(sizes) - 1))
        kb = data.draw(st.integers(1, kw))
        g = build_affinity(labels, dist, kw=kw, kb=kb)
        assert g.g.dtype == np.int64
        assert np.array_equal(g.g, build_affinity_rows(labels, dist, kw, kb))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kw, kb", [(1, 1), ("m-1", 1), ("m-1", "m-1")])
    def test_argmin_and_link_all_paths_match_oracle(self, seed, kw, kb):
        # kb = 1 selects by argmin, and kw = m - 1 (m the smallest class)
        # links every within-class candidate of the smallest classes while
        # the larger ones still sort; distances in {0, 1, 2} tie everywhere
        sizes = (3, 5, 3, 4)
        rng = np.random.default_rng(seed)
        labels = [c for c, m in enumerate(sizes) for _ in range(m)]
        labels = list(rng.permutation(labels))
        n = len(labels)
        upper = np.triu(rng.integers(0, 3, (n, n)), 1)
        dist = (upper + upper.T).astype(float)
        kw = default_kw(labels) if kw == "m-1" else kw
        kb = default_kw(labels) if kb == "m-1" else kb
        g = build_affinity(labels, dist, kw=kw, kb=kb)
        assert np.array_equal(g.g, build_affinity_rows(labels, dist, kw, kb))

    def test_monotonicity_in_k(self, rng):
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        coords = rng.standard_normal(12)
        dist = dist_from_coords(coords)
        base = build_affinity(labels, dist, kw=2, kb=1)
        more_w = build_affinity(labels, dist, kw=3, kb=1)
        more_b = build_affinity(labels, dist, kw=2, kb=2)
        assert (more_w.g[base.g == 1] == 1).all()
        assert (more_b.g[base.g == -1] == -1).all()

    def test_permutation_equivariance(self, rng):
        labels = ["a"] * 4 + ["b"] * 4
        coords = rng.standard_normal(8)
        dist = dist_from_coords(coords)
        g = build_affinity(labels, dist, kw=2, kb=1)
        perm = rng.permutation(8)
        g_perm = build_affinity(
            [labels[i] for i in perm], dist[np.ix_(perm, perm)], kw=2, kb=1
        )
        assert (g_perm.g == g.g[np.ix_(perm, perm)]).all()


class TestAffinityGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidShape):
            AffinityGraph(np.array([[0, 1], [0, 0]]), kw=1, kb=1)

    def test_rejects_nonzero_diag(self):
        with pytest.raises(InvalidShape):
            AffinityGraph(np.eye(2, dtype=int), kw=1, kb=1)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidShape):
            AffinityGraph(np.array([[0, 2], [2, 0]]), kw=1, kb=1)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidK):
            AffinityGraph(np.zeros((2, 2), dtype=int), kw=1, kb=2)

    def test_csv_export(self, tmp_path):
        g = AffinityGraph(np.array([[0, 1], [1, 0]]), kw=1, kb=1)
        out = tmp_path / "g.csv"
        g.to_csv(out)
        loaded = np.loadtxt(out, delimiter=",", dtype=int)
        assert (loaded == g.g).all()
