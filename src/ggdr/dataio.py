"""Plain-text dataset directories and matrix files.

A dataset directory holds ``manifest.tsv`` with one sample per line
(``id<TAB>label<TAB>mode<TAB>path``, mode "raw" or "basis") plus one CSV per
sample: comma-separated decimal floats, one matrix row per line. Raw files
carry D x m feature matrices that become subspaces by truncated SVD; basis
files carry D x n orthonormal bases.

Floats are serialized with round-trip-exact decimal representation, so a
write/read cycle is bit-faithful and reruns diff clean.

Reading costs one native parse per file and one batched QR per dataset,
taken in blocks of about 1 MB. Each matrix file is read once in blocks of
whole lines, each parsed by orjson as one JSON array of rows; its numbers
are correctly rounded, as float() rounds them. Only a file that parse
declines is read again line by line with float(), which either reports the
offending ``path:lineno`` or accepts the few inputs only float() takes.
Every basis file is checked on its own before the QR. Files must be UTF-8;
any other bytes raise DataFormatError.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np
import orjson

from .errors import DataFormatError, DimensionMismatch, NumericalHealthWarning
from .manifold import MappingMatrix, gram_error, orthonormalize
from .pipeline import LabeledDataset, build_subspace

MANIFEST_NAME = "manifest.tsv"

# basis files: accept silently below the first rung, re-orthonormalize (with
# a warning) up to the second, reject beyond
BASIS_ACCEPT_TOL = 1e-6
BASIS_REPAIR_TOL = 1e-3

# load_dataset's batched QR takes blocks of about this many bytes of bases:
# one QR of wide-d's whole (24, 4096, 4) stack left a train-then-eval
# process's peak RSS 5 MB (10%) above one QR per file; blocks do not
QR_BLOCK_BYTES = 1 << 20

# matrix files are parsed by orjson in blocks of whole lines of about this
# many bytes, written into one array of the file's line count: over six
# wide-d train-then-eval rounds in one process the peak RSS read 47.0 MB,
# against 59.3 for one parse per file, 54.6 for 1 MiB blocks and 50.1 for
# block arrays joined at the end. An array sized from the first block's
# bytes per row and grown by doubling left the wide-d benchmark's peak RSS
# 3-4 MB higher on half the seeds, by where the realloc left the heap
PARSE_BLOCK_BYTES = 1 << 16

# every byte the native parse takes; any other falls back to float()
_PARSE_BYTES = b"0123456789.eE+-, \t\r\n"
_INT_MINUS_ZERO = re.compile(rb"-0(?![.0-9eE])")


def text_lines(path):
    """(lineno, line) for each line of a UTF-8 text file.

    Raises DataFormatError naming the file if its bytes are not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: not UTF-8 text ({exc.reason}, byte "
                f"0x{exc.object[exc.start]:02x})"
            ) from exc


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    # row by row: a whole-matrix tolist() and text, written at once, kept
    # wide-d's peak RSS 8 MB higher for no gain in speed
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    matrix = _parse_native(path)
    if matrix is None:
        # the native parse names neither the file nor the line, and rejects
        # a few inputs float() takes (blank lines, "1_0", "+1", ".5")
        matrix = _read_matrix_lines(path)
    if not matrix.size:
        raise DataFormatError(f"{path}: empty matrix file")
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0]
        raise DataFormatError(
            f"{path}: non-finite value {matrix[row, col]!r} in row {row + 1}, "
            f"column {col + 1}"
        )
    return matrix


def _parse_native(path) -> np.ndarray | None:
    """The matrix from one orjson parse per block of whole lines, or None
    where the parse could disagree with float(): a byte outside
    _PARSE_BYTES, a text orjson rejects, a ragged block (a blank line is a
    row of width 0), blocks of different widths, or a block holding an exact
    zero and an integer "-0", which orjson reads as the int 0. An empty file
    gives an empty array."""
    with open(path, "rb") as fh:
        lines = _count_lines(fh)
        fh.seek(0)
        out = None
        count = 0
        for block in _line_blocks(fh):
            if block.translate(None, _PARSE_BYTES):
                return None
            if b"\r" in block:  # line ends as text mode reads them
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            text = b"[[" + block.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]"
            try:
                rows = np.array(orjson.loads(text), dtype=np.float64)
            except ValueError:
                return None
            if not rows.all() and _INT_MINUS_ZERO.search(block):
                return None
            if out is None:
                out = np.empty((lines, rows.shape[1]))
            # more rows than lines counted: the file changed between passes
            if rows.shape[1] != out.shape[1] or count + len(rows) > lines:
                return None
            out[count : count + len(rows)] = rows
            count += len(rows)
    if out is None:
        return np.empty((0, 0))
    return out if count == lines else None


def _count_lines(fh) -> int:
    """Lines from the file position on, split as text mode splits them: at
    "\n", "\r\n" or a lone "\r"; a last line needs no line break."""
    lines = 0
    last = b""
    while chunk := fh.read(PARSE_BLOCK_BYTES):
        # numpy's compare counts about 5x faster than bytes.count
        lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
        if b"\r" in chunk:
            lines += chunk.count(b"\r") - chunk.count(b"\r\n")
        if last == b"\r" and chunk.startswith(b"\n"):
            lines -= 1  # a "\r\n" split between two reads
        last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def _line_blocks(fh):
    """The file's bytes in blocks of whole lines of about PARSE_BLOCK_BYTES;
    only the last block may lack a final line break."""
    tail = b""
    while chunk := fh.read(PARSE_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail


def _read_matrix_lines(path) -> np.ndarray:
    """Line-by-line parse with float(); errors carry path:lineno."""
    rows = []
    width = None
    for lineno, line in text_lines(path):
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
    return np.array(rows, dtype=np.float64)


def _check_basis(path, matrix: np.ndarray) -> None:
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


def load_dataset(directory, order: int | None = None) -> LabeledDataset:
    """Read a dataset directory; ``order`` is required if any sample is raw.

    The bases go straight into one (N, D, n) array, the dataset's only copy.
    Basis files are checked one by one, then pass through a batched QR, in
    blocks of about QR_BLOCK_BYTES, so every loaded point meets the strict
    invariant; below the accept rung this is a no-op up to roundoff.
    """
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(manifest):
        raise DataFormatError(f"missing {manifest}")
    entries = []
    for lineno, line in text_lines(manifest):
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
            _check_basis(path, matrix)
        else:
            matrix = build_subspace(matrix, order).basis
        if bases is None:
            bases = np.empty((len(entries),) + matrix.shape)
        elif matrix.shape != bases.shape[1:]:
            raise DimensionMismatch(
                f"sample {k} has shape {matrix.shape}, expected {bases.shape[1:]}"
            )
        bases[k] = matrix
    rows = [k for k, entry in enumerate(entries) if entry[2] == "basis"]
    step = max(1, QR_BLOCK_BYTES // bases[0].nbytes)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        bases[block] = orthonormalize(bases[block])[0]
    bases.setflags(write=False)
    ids, labels, _, _ = zip(*entries)
    return LabeledDataset(bases, labels, ids)


def save_dataset(directory, ds: LabeledDataset) -> None:
    """Write a dataset as basis-mode sample files plus the manifest.

    Before any file is written, raises DataFormatError for a sample the
    manifest could not give back: an id or label holding a tab or a line
    break, or a line whose first non-blank character is ``#`` (a comment).
    """
    for i, (label, pid) in enumerate(zip(ds.labels, ds.provenance)):
        head = f"{pid}\t{label}"
        breaks = head.count("\t") > 1 or "\n" in head or "\r" in head
        if breaks or head.lstrip().startswith("#"):
            raise DataFormatError(
                f"sample {i} (id {pid!r}, label {label!r}) would not read back "
                "from the manifest: a tab or line break, or a leading '#'"
            )
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
