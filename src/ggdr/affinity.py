"""Supervised neighbor graph: within-class pulls minus between-class pushes.

For each sample the kw nearest same-label samples and the kb nearest
different-label samples (under a caller-supplied dissimilarity matrix) are
marked; an edge is set when either endpoint selects the other. The combined
graph g = g_within - g_between has entries in {-1, 0, +1} because the two
graphs live on disjoint pairs.

Selection runs per class, not per sample: one stable argsort of the class's
off-diagonal distance submatrix picks every member's within-class
neighbours, one of its rows against all other samples the between-class
ones, and the edges are written by fancy indexing. k = 1 takes an argmin
instead, and a k that covers every candidate (the default kw in a class of
the smallest size) links them all without sorting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClass, DimensionMismatch, InvalidK, InvalidShape


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """Symmetric N x N integer matrix with entries in {-1, 0, +1}."""

    g: np.ndarray
    kw: int
    kb: int

    def __post_init__(self):
        g = np.array(self.g, dtype=np.int64, copy=True)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidShape(f"graph must be square, got {g.shape}")
        if not np.array_equal(g, g.T):
            raise InvalidShape("graph must be symmetric")
        if np.any(np.diag(g) != 0):
            raise InvalidShape("graph diagonal must be zero")
        if not np.isin(g, (-1, 0, 1)).all():
            raise InvalidShape("graph entries must lie in {-1, 0, 1}")
        if not (1 <= self.kb <= self.kw):
            raise InvalidK(f"need 1 <= kb <= kw, got kw={self.kw}, kb={self.kb}")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @property
    def size(self) -> int:
        return self.g.shape[0]

    def to_csv(self, path) -> None:
        np.savetxt(path, self.g, fmt="%d", delimiter=",")


def _class_sizes(labels) -> Counter:
    sizes = Counter(labels)
    singletons = [lab for lab, c in sizes.items() if c < 2]
    if singletons:
        raise DegenerateClass(
            f"classes with fewer than 2 members: {singletons!r}"
        )
    return sizes


def default_kw(labels) -> int:
    """Within-class neighborhood size: smallest class size minus self."""
    return min(_class_sizes(labels).values()) - 1


def check_neighbors(labels, kw: int, kb: int) -> Counter:
    """The class sizes, once 1 <= kb <= kw <= smallest class size - 1 holds.

    Raises DegenerateClass when some class is a singleton and InvalidK for
    a kw or kb out of range. kb may exceed the cross-class candidates (e.g.
    a single-class dataset); selection simply takes what exists.
    """
    sizes = _class_sizes(labels)
    if kw < 1 or kb < 1 or kb > kw:
        raise InvalidK(f"need 1 <= kb <= kw, got kw={kw}, kb={kb}")
    smallest = min(sizes.values())
    if kw > smallest - 1:
        raise InvalidK(
            f"kw={kw} exceeds smallest class size minus one ({smallest - 1})"
        )
    return sizes


def _link(g, rows, candidates, dist, k: int, sign: int) -> None:
    """Join each rows[r] to its k nearest candidates[r], both ways.

    candidates[r] lists row r's candidates in ascending index order and
    dist[r] their distances, so the stable sort (or argmin, its first
    index) breaks ties toward the lower index. When k covers every
    candidate, all are linked without a sort.
    """
    if k >= dist.shape[1]:
        near = candidates
    else:
        if k == 1:
            order = np.argmin(dist, axis=1, keepdims=True)
        else:
            order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        near = np.take_along_axis(candidates, order, axis=1)
    rows = np.broadcast_to(rows[:, None], near.shape)
    g[rows, near] = g[near, rows] = sign


def build_affinity(labels, dist: np.ndarray, kw: int, kb: int) -> AffinityGraph:
    """Construct the signed neighbor graph from labels and dissimilarities.

    dist must be symmetric with a zero diagonal; smaller means closer.
    kw, kb and the class sizes are checked by ``check_neighbors``.
    """
    labels = list(labels)
    n = len(labels)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (n, n):
        raise DimensionMismatch(
            f"distance matrix {dist.shape} does not match {n} labels"
        )
    if np.any(dist < 0) or not np.allclose(dist, dist.T, atol=1e-12):
        raise InvalidShape("distance matrix must be symmetric and nonnegative")
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        raise InvalidShape("distance matrix must have a zero diagonal")

    sizes = check_neighbors(labels, kw, kb)
    lab_arr = np.asarray(labels, dtype=object)
    g = np.zeros((n, n), dtype=np.int8)  # AffinityGraph stores it as int64
    for label in sizes:
        in_class = lab_arr == label
        members, others = np.flatnonzero(in_class), np.flatnonzero(~in_class)
        m = len(members)
        # the class's distance submatrix without its diagonal
        off = ~np.eye(m, dtype=bool)
        same = np.broadcast_to(members, (m, m))[off].reshape(m, m - 1)
        within = dist[np.ix_(members, members)][off].reshape(m, m - 1)
        _link(g, members, same, within, kw, 1)
        between = dist[np.ix_(members, others)]
        _link(g, members, np.broadcast_to(others, between.shape), between, kb, -1)
    return AffinityGraph(g, kw=kw, kb=kb)
