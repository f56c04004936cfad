"""Layer-boundary tracing of ggdr, done from outside the package.

Nothing under ``src/`` is edited. ``Tracer.install`` replaces public
functions in the module namespaces where their callers look them up
(``from ... import`` binds a name at import time, so patching the defining
module alone would miss the call) and ``Tracer.uninstall`` puts the
originals back.

Two kinds of wrapper:

* a *span* wrapper records one span per call (name, start, end, parent);
* a *leaf* wrapper, for the per-pair and per-sample calls (hundreds of
  thousands per round on ``large-n``), only adds its count, inclusive time,
  self time and number of raised exceptions to the nearest enclosing span.

Spans stay in memory and are written out once, at the end of the run. A
layer's self time is the time its spans and leaves ran minus the time their
traced children ran; the name prefix before the first dot is the layer.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

import numpy as np

clock = time.perf_counter


def _dir_bytes(args, kwargs, result):
    directory = args[0] if args else kwargs["directory"]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _skipped(args, kwargs, result):
    return {"skipped": int(result[2])}


def _edges(args, kwargs, result):
    return {"edges": int(np.count_nonzero(np.triu(result.g)))}


# (module, attribute) -> (span name, note taken from the call's arguments
# and result). These are the lookup sites of the calls that cross a layer
# boundary. The benchmark makes its own calls through the ``ggdr.cli``
# attributes at call time, so they are traced exactly when these are.
SPAN_SITES = {
    ("ggdr.optimizer", "cost"): ("objective.cost", None),
    ("ggdr.optimizer", "cost_and_grad"): ("objective.cost_and_grad", _skipped),
    ("ggdr.optimizer", "geodesic_step"): ("manifold.geodesic_step", None),
    ("ggdr.optimizer", "parallel_transport"): ("manifold.parallel_transport", None),
    ("ggdr.manifold", "geodesic_step"): ("manifold.geodesic_step", None),
    ("ggdr.pipeline", "pairwise_dissimilarity"): ("pipeline.pairwise_dissimilarity", None),
    ("ggdr.pipeline", "build_affinity"): ("affinity.build_affinity", _edges),
    ("ggdr.pipeline", "minimize"): ("optimizer.minimize", None),
    ("ggdr.pipeline", "nn_classify"): ("pipeline.nn_classify", None),
    ("ggdr.cli", "load_dataset"): ("dataio.load_dataset", _dir_bytes),
    ("ggdr.cli", "save_mapping"): ("dataio.save_mapping", _file_bytes),
    ("ggdr.cli", "fit"): ("pipeline.fit", None),
    ("ggdr.cli", "evaluate"): ("pipeline.evaluate", None),
    ("ggdr.cli", "_nn_predict"): ("pipeline.nn_predict", None),
    ("ggdr.cli", "main"): ("cli.main", None),
}

# per-pair and per-sample calls, aggregated into the enclosing span
LEAF_SITES = {
    ("ggdr.objective", "measure"): "metrics.measure",
    ("ggdr.objective", "measure_grad"): "metrics.measure_grad",
    ("ggdr.objective", "qr_pullback"): "metrics.qr_pullback",
    ("ggdr.objective", "orthonormalize"): "manifold.orthonormalize",
    ("ggdr.pipeline", "measure"): "metrics.measure",
    ("ggdr.pipeline", "reduce_point"): "objective.reduce_point",
    ("ggdr.cli", "reduce_point"): "objective.reduce_point",
}

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class _LeafFrame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0  # time covered by traced calls made inside the leaf


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child", "leaves", "note")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0  # time covered by traced children
        self.leaves = {}  # leaf name -> [calls, inclusive s, self s, raised]
        self.note = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self": self.duration - self.child,
            "leaves": self.leaves,
            "note": self.note,
        }


class Tracer:
    """Collects spans for one traced round; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        # open calls, innermost last: Spans and _LeafFrames
        self._frames: list = []
        self._spans_open: list[Span] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._spans_open[-1].id if self._spans_open else None
        span = Span(len(self.spans), parent, name, clock())
        self.spans.append(span)
        self._frames.append(span)
        self._spans_open.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._frames.pop()
        self._spans_open.pop()
        if self._frames:
            self._frames[-1].child += span.duration

    def span_wrapper(self, fn, name, note=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf_wrapper(self, fn, name):
        frames, spans_open = self._frames, self._spans_open

        def traced(*args, **kwargs):
            frame = _LeafFrame()
            frames.append(frame)
            raised = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1].child += dt
                agg = spans_open[-1].leaves.get(name)
                if agg is None:
                    agg = spans_open[-1].leaves[name] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame.child
                agg[3] += raised

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A span the benchmark opens around its own work."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        """Wrap every lookup site; one wrapper per original function."""
        wrappers = {}
        for sites, make in (
            (SPAN_SITES, lambda fn, spec: self.span_wrapper(fn, *spec)),
            (LEAF_SITES, lambda fn, spec: self.leaf_wrapper(fn, spec)),
        ):
            for (module_name, attr), spec in sites.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if original not in wrappers:
                    wrappers[original] = make(original, spec)
                self._patched.append((module, attr, original))
                setattr(module, attr, wrappers[original])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_jsonl(self, path, round_id: int) -> None:
        """Append the spans; ``round`` tells apart the ids of different rounds."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"round": round_id, **span.as_dict()}) + "\n")

