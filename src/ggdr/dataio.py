"""Plain-text dataset directories and matrix files.

A dataset directory holds ``manifest.tsv`` with one sample per line
(``id<TAB>label<TAB>mode<TAB>path``, mode "raw" or "basis") plus one CSV per
sample: comma-separated decimal floats, one matrix row per line. Raw files
carry D x m feature matrices that become subspaces by truncated SVD; basis
files carry D x n orthonormal bases.

Floats are serialized with round-trip-exact decimal representation, so a
write/read cycle is bit-faithful and reruns diff clean.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .errors import DataFormatError, DimensionMismatch, NumericalHealthWarning
from .manifold import MappingMatrix, gram_error, orthonormalize
from .pipeline import LabeledDataset, build_subspace

MANIFEST_NAME = "manifest.tsv"

# basis files: accept silently below the first rung, re-orthonormalize (with
# a warning) up to the second, reject beyond
BASIS_ACCEPT_TOL = 1e-6
BASIS_REPAIR_TOL = 1e-3


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(fields)}"
                )
            try:
                rows.append([float(v) for v in fields])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty matrix file")
    matrix = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value {matrix[row, col]!r} in row {row + 1}, "
            f"column {col + 1}"
        )
    return matrix


def _load_basis(path, matrix: np.ndarray) -> np.ndarray:
    d_ambient, order = matrix.shape
    if order >= d_ambient:
        raise DataFormatError(
            f"{path}: basis must be tall (D > n), got {matrix.shape}"
        )
    err = gram_error(matrix)
    if err > BASIS_REPAIR_TOL:
        raise DataFormatError(
            f"{path}: basis deviates from orthonormal by {err:.3e} "
            f"(limit {BASIS_REPAIR_TOL:.0e})"
        )
    if err > BASIS_ACCEPT_TOL:
        warnings.warn(
            f"{path}: basis deviates from orthonormal by {err:.3e}; "
            "re-orthonormalized",
            NumericalHealthWarning,
            stacklevel=2,
        )
    # always pass through QR so the loaded point meets the strict invariant;
    # below the accept rung this is a no-op up to roundoff
    q, _ = orthonormalize(matrix)
    return q


def load_dataset(directory, order: int | None = None) -> LabeledDataset:
    """Read a dataset directory; ``order`` is required if any sample is raw.

    The bases go straight into one (N, D, n) array, the dataset's only copy.
    """
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest):
        raise DataFormatError(f"missing {manifest}")
    entries = []
    with open(manifest, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise DataFormatError(
                    f"{manifest}:{lineno}: expected 4 tab-separated fields, "
                    f"got {len(fields)}"
                )
            sample_id, label, mode, rel_path = fields
            path = os.path.join(directory, rel_path)
            if not os.path.isfile(path):
                raise DataFormatError(f"{manifest}:{lineno}: no such file {path}")
            if mode not in ("basis", "raw"):
                raise DataFormatError(
                    f"{manifest}:{lineno}: mode must be 'raw' or 'basis', "
                    f"got {mode!r}"
                )
            if mode == "raw" and order is None:
                raise DataFormatError(
                    f"{manifest}:{lineno}: raw sample requires a subspace "
                    "order (pass --order)"
                )
            entries.append((sample_id, label, mode, path))
    if not entries:
        raise DataFormatError(f"{manifest}: no samples listed")
    bases = None
    for k, (_, _, mode, path) in enumerate(entries):
        matrix = read_matrix_csv(path)
        if mode == "basis":
            basis = _load_basis(path, matrix)
        else:
            basis = build_subspace(matrix, order).basis
        if bases is None:
            bases = np.empty((len(entries),) + basis.shape)
        elif basis.shape != bases.shape[1:]:
            raise DimensionMismatch(
                f"sample {k} has shape {basis.shape}, expected {bases.shape[1:]}"
            )
        bases[k] = basis
    bases.setflags(write=False)
    ids, labels, _, _ = zip(*entries)
    return LabeledDataset(bases, labels, ids)


def save_dataset(directory, ds: LabeledDataset) -> None:
    """Write a dataset as basis-mode sample files plus the manifest."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i, (basis, label, pid) in enumerate(zip(ds.bases, ds.labels, ds.provenance)):
        rel = f"sample_{i:04d}.csv"
        write_matrix_csv(os.path.join(directory, rel), basis)
        lines.append(f"{pid}\t{label}\tbasis\t{rel}\n")
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def save_mapping(path, w: MappingMatrix) -> None:
    write_matrix_csv(path, w.w)


def load_mapping(path) -> MappingMatrix:
    matrix = read_matrix_csv(path)
    try:
        return MappingMatrix(matrix)
    except Exception as exc:
        raise DataFormatError(f"{path}: not a valid orthonormal map: {exc}") from exc
