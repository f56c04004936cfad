import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import read_matrix_csv_lines
from ggdr import dataio
from ggdr.dataio import (
    load_dataset,
    load_mapping,
    read_matrix_csv,
    save_dataset,
    save_mapping,
    write_matrix_csv,
)
from ggdr.errors import DataFormatError, DimensionMismatch, NumericalHealthWarning
from ggdr.manifold import MappingMatrix, orthonormalize, random_point
from ggdr.pipeline import LabeledDataset, SynthParams, build_subspace, synth_dataset

# one example per call reuses the test's tmp_path; each overwrites its file
REUSE_TMP = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    0.1, 1 / 3, 9007199254740993.0, 1.0000000000000002,
]
FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(EXTREMES).map(repr),
    # integers: orjson reads these as ints, and "-0" as the int 0
    st.sampled_from(["0", "-0", "7", "-12", "123456789012345678901234567890"]),
    st.sampled_from([
        "nan", "-nan", "inf", "-Infinity", "1e400", "-1e400", "1_0", "1e",
        "junk", "", "0x10", ".5", "5.", "+1", "1E-5",
    ]),
)
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
# any float64, the extremes among them
FLOAT_BITS = st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),
        st.sampled_from(EXTREMES).map(lambda v: int(np.float64(v).view(np.uint64))),
    ),
    min_size=1,
    max_size=24,
)
# decimals of 15-30 significant digits, most of them between two doubles
DIGITS = st.lists(st.integers(10**14, 10**30 - 1), min_size=1, max_size=8)
EXPONENTS = st.lists(st.integers(-350, 270), min_size=8, max_size=8)
NUMBER_ALPHABET = "0123456789.,-+eE _naifINF\t\r\n\x0c\x00\x1c\xa0"


@st.composite
def csv_like_text(draw):
    """Rows of one width, with blank and whitespace-only lines, spaces
    around fields, ragged rows, trailing commas and junk mixed in."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.text(" \t\x0b\x0c", min_size=1, max_size=3)))
        else:
            n = width if kind == "row" else draw(st.integers(1, 5))
            fields = [
                draw(st.sampled_from(["", " ", "  "])) + draw(FIELDS)
                + draw(st.sampled_from(["", " ", "\t"]))
                for _ in range(n)
            ]
            lines.append(",".join(fields) + draw(st.sampled_from(["", "", ","])))
    ends = [draw(LINE_END) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no newline at the end of the file
    return text


def _outcome(read, path):
    try:
        return read(path)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return exc


def _assert_same_as_oracle(path):
    expected = _outcome(read_matrix_csv_lines, path)
    got = _outcome(read_matrix_csv, path)
    if isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert (got.view(np.uint64) == expected.view(np.uint64)).all()
    elif isinstance(expected, UnicodeDecodeError):
        assert isinstance(got, DataFormatError) and "not UTF-8" in str(got)
    else:
        assert isinstance(got, DataFormatError), got
        assert str(got) == str(expected)


class TestReaderMatchesLineOracle:
    @given(text=csv_like_text())
    @REUSE_TMP
    def test_csv_like_text(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_as_oracle(path)

    # tiny blocks put ragged rows, blank lines and line ends across block
    # boundaries, and give one file blocks of different widths
    @given(text=csv_like_text(), block_bytes=st.integers(16, 64))
    @REUSE_TMP
    def test_csv_like_text_in_small_blocks(self, tmp_path, monkeypatch, text, block_bytes):
        monkeypatch.setattr(dataio, "PARSE_BLOCK_BYTES", block_bytes)
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_as_oracle(path)

    # a lone CR ends a line, as text mode reads it; JSON takes it as a space
    @pytest.mark.parametrize("text", ["1,\r2\n", "1\r,2\n", "1,2\r3,4", "1\r2\r\n3\r"])
    def test_lone_carriage_return(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_as_oracle(path)

    # NUL, 0x1c and NBSP: whitespace to one parser or the other, or neither
    @given(text=st.text(st.sampled_from(NUMBER_ALPHABET)))
    @settings(REUSE_TMP, max_examples=300)
    def test_number_alphabet(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_as_oracle(path)

    @given(data=st.binary(max_size=64))
    @REUSE_TMP
    def test_arbitrary_bytes_raise_only_data_format_errors(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        _assert_same_as_oracle(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1_0,2\n", [[10.0, 2.0]]),
            ("\t\n5\n", [[5.0]]),
            ("1,2\x1c\n", [[1.0, 2.0]]),
            ("+1,.5\n5.,1e3\n", [[1.0, 0.5], [5.0, 1000.0]]),
            ("1,2\n\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ],
    )
    def test_inputs_only_float_accepts(self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert read_matrix_csv(path).tolist() == expected


def _finite_matrix(bits, width):
    rows = -(-len(bits) // width)
    bits = (bits * width)[: rows * width]  # fill the last row
    matrix = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, width)
    matrix[~np.isfinite(matrix)] = 1.5  # non-finite values are rejected
    return matrix


def _assert_native_parse_is_float(path, tokens):
    """The native parse takes the file and reads each token as float() does."""
    got = dataio._parse_native(path)
    expected = np.array([[float(t) for t in row] for row in tokens])
    assert got is not None and got.shape == expected.shape
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()


class TestNativeParse:
    @given(bits=FLOAT_BITS, width=st.integers(1, 4))
    @REUSE_TMP
    def test_repr_text_bit_equal_to_float(self, tmp_path, bits, width):
        tokens = [list(map(repr, row.tolist())) for row in _finite_matrix(bits, width)]
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(row) + "\n" for row in tokens))
        _assert_native_parse_is_float(path, tokens)

    @given(digits=DIGITS, exponents=EXPONENTS, point=st.integers(1, 30))
    @REUSE_TMP
    def test_decimal_text_bit_equal_to_float(self, tmp_path, digits, exponents, point):
        tokens = []
        for d, e in zip(digits, exponents):
            text = str(d)
            cut = min(point, len(text) - 1)
            tokens.append([f"{text[:cut]}.{text[cut:]}e{e}", f"-{text}E{e}"])
        path = tmp_path / "m.csv"
        path.write_text("".join(",".join(row) + "\n" for row in tokens))
        _assert_native_parse_is_float(path, tokens)

    # the result is sized by a first pass that counts lines; a miscount
    # would hand a well-formed file to the line-wise reader
    @given(
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=8),
        last_end=st.booleans(),
        block_bytes=st.integers(1, 16),
    )
    @REUSE_TMP
    def test_every_line_end_in_small_blocks(
        self, tmp_path, monkeypatch, ends, last_end, block_bytes
    ):
        monkeypatch.setattr(dataio, "PARSE_BLOCK_BYTES", block_bytes)
        tokens = [[f"{i + 1}", f"-{i}.5"] for i in range(len(ends))]
        text = "".join(",".join(row) + end for row, end in zip(tokens, ends))
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode() if last_end else text.encode().rstrip(b"\r\n"))
        _assert_native_parse_is_float(path, tokens)

    @pytest.mark.parametrize(
        "text", ["-0,1\n", "1,-0\n0,2\n", "-0\r\n-0.0\r\n0\r\n-0e0\r\n"]
    )
    def test_integer_minus_zero_keeps_its_sign(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = [[float(v) for v in line.split(",")] for line in text.splitlines()]
        got = read_matrix_csv(path)
        assert np.signbit(got).tolist() == np.signbit(expected).tolist()
        assert np.signbit(got[0, 0]) == text.startswith("-")


class TestMatrixCsvRoundTrip:
    @given(bits=FLOAT_BITS, width=st.integers(1, 4))
    @REUSE_TMP
    def test_write_then_read_is_bit_equal(self, tmp_path, bits, width):
        matrix = _finite_matrix(bits, width)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        loaded = read_matrix_csv(path)
        assert (loaded.view(np.uint64) == matrix.view(np.uint64)).all()
        expected = "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in matrix
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @given(
        digits=st.lists(st.integers(10**16, 10**17 - 1), min_size=1, max_size=8),
        exponents=st.lists(st.integers(-340, 290), min_size=8, max_size=8),
    )
    @REUSE_TMP
    def test_17_significant_digits(self, tmp_path, digits, exponents):
        matrix = np.array(
            [float(f"{d}e{e}") for d, e in zip(digits, exponents)]
        )[:, None]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, matrix)
        loaded = read_matrix_csv(path)
        assert (loaded.view(np.uint64) == matrix.view(np.uint64)).all()


class TestMatrixCsv:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        m = rng.standard_normal((7, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        loaded = read_matrix_csv(path)
        assert (loaded == m).all()

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:2"):
            read_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(DataFormatError, match="bad.csv:1"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(DataFormatError, match="non-finite .* row 2, column 2"):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        self._assert_empty_without_a_warning(tmp_path, "")

    @pytest.mark.parametrize("text", ["\n\n", " \n\t\n"])
    def test_blank_lines_only_rejected(self, tmp_path, text):
        self._assert_empty_without_a_warning(tmp_path, text)

    def _assert_empty_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="empty matrix file"):
                read_matrix_csv(path)

    def test_separator_byte_next_to_a_field_rejected(self, tmp_path):
        # str.strip() takes 0x1c as whitespace at a line's ends; float() does
        # not take it inside a line
        path = tmp_path / "bad.csv"
        path.write_text("1.0,\x1c2.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:1: could not convert"):
            read_matrix_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0,2.0\n3.0,\xff\n")
        with pytest.raises(DataFormatError, match="bad.csv: not UTF-8"):
            read_matrix_csv(path)


class TestDatasetRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        ds = synth_dataset(SynthParams(2, 3, 8, 2, 0.2, 4))
        save_dataset(tmp_path / "ds", ds)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.size == ds.size
        assert tuple(str(l) for l in ds.labels) == loaded.labels
        assert loaded.provenance == ds.provenance
        assert np.abs(ds.bases - loaded.bases).max() < 1e-12

    @pytest.mark.parametrize(
        "index, pid, label",
        [
            (2, "# c", "A"),  # the loader would skip the line as a comment
            (2, "  #c", "A"),
            (1, "", "#A"),
            (1, "a\tb", "A"),
            (3, "a\nb", "A"),
            (0, "a\rb", "A"),
            (2, "c", "A\tB"),
            (2, "c", "A\nB"),
        ],
    )
    def test_unreadable_id_or_label_rejected_before_writing(
        self, tmp_path, index, pid, label
    ):
        ds = synth_dataset(SynthParams(2, 2, 8, 2, 0.2, 4))
        ids, labels = list(ds.provenance), list(ds.labels)
        ids[index], labels[index] = pid, label
        bad = LabeledDataset(ds.bases, labels, ids)
        with pytest.raises(DataFormatError, match=f"sample {index} "):
            save_dataset(tmp_path / "ds", bad)
        assert not (tmp_path / "ds").exists()

    def test_ids_with_blanks_and_inner_hash_round_trip(self, tmp_path):
        ds = synth_dataset(SynthParams(2, 2, 8, 2, 0.2, 4))
        odd = LabeledDataset(ds.bases, ["#A", "A", "B", "B"], [" s 0", "s#1", "s,2", "s3 "])
        save_dataset(tmp_path / "ds", odd)
        loaded = load_dataset(tmp_path / "ds")
        assert (loaded.provenance, loaded.labels) == (odd.provenance, odd.labels)

    def test_bases_loaded_into_one_stack(self, tmp_path):
        save_dataset(tmp_path / "ds", synth_dataset(SynthParams(2, 3, 8, 2, 0.2, 4)))
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.bases.shape == (6, 8, 2) and loaded.bases.base is None
        assert not loaded.bases.flags.writeable

    @pytest.mark.parametrize("mode", ["basis", "raw"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sample_rejected(self, tmp_path, mode, value):
        ds_dir = tmp_path / "ds"
        ds_dir.mkdir()
        matrix = random_point(6, 2, 1).basis if mode == "basis" else np.ones((6, 3))
        write_matrix_csv(ds_dir / "a.csv", matrix)
        text = (ds_dir / "a.csv").read_text().splitlines()
        text[3] = value + text[3][text[3].index(","):]
        (ds_dir / "a.csv").write_text("\n".join(text) + "\n")
        (ds_dir / "manifest.tsv").write_text(f"a\tx\t{mode}\ta.csv\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_dataset(ds_dir, order=2)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataFormatError, match="manifest"):
            load_dataset(tmp_path)

    def test_bad_mode(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        write_matrix_csv(d / "s.csv", random_point(6, 2, 0).basis)
        (d / "manifest.tsv").write_text("s0\tA\tweird\ts.csv\n")
        with pytest.raises(DataFormatError, match="mode"):
            load_dataset(d)

    def test_wrong_field_count(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "manifest.tsv").write_text("s0\tA\tbasis\n")
        with pytest.raises(DataFormatError, match="4 tab-separated"):
            load_dataset(d)

    def test_missing_sample_file(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "manifest.tsv").write_text("s0\tA\tbasis\tnope.csv\n")
        with pytest.raises(DataFormatError, match="nope.csv"):
            load_dataset(d)

    def test_raw_mode_builds_subspaces(self, tmp_path, rng):
        d = tmp_path / "ds"
        d.mkdir()
        write_matrix_csv(d / "f.csv", rng.standard_normal((8, 5)))
        (d / "manifest.tsv").write_text("s0\tA\traw\tf.csv\n")
        ds = load_dataset(d, order=2)
        assert ds.bases.shape == (1, 8, 2)

    def test_raw_mode_requires_order(self, tmp_path, rng):
        d = tmp_path / "ds"
        d.mkdir()
        write_matrix_csv(d / "f.csv", rng.standard_normal((8, 5)))
        (d / "manifest.tsv").write_text("s0\tA\traw\tf.csv\n")
        with pytest.raises(DataFormatError, match="order"):
            load_dataset(d)


class TestBasisToleranceLadder:
    def _write(self, tmp_path, basis):
        d = tmp_path / "ds"
        d.mkdir()
        write_matrix_csv(d / "b.csv", basis)
        (d / "manifest.tsv").write_text("s0\tA\tbasis\tb.csv\n")
        return d

    def test_clean_basis_silent(self, tmp_path, recwarn):
        d = self._write(tmp_path, random_point(8, 2, 1).basis)
        load_dataset(d)
        assert not [w for w in recwarn if w.category is NumericalHealthWarning]

    def test_slightly_off_repaired_with_warning(self, tmp_path):
        basis = random_point(8, 2, 1).basis.copy()
        basis[0, 0] += 1e-4  # deviation in (1e-6, 1e-3]
        d = self._write(tmp_path, basis)
        with pytest.warns(NumericalHealthWarning, match="re-orthonormalized"):
            ds = load_dataset(d)
        b = ds.bases[0]
        assert np.linalg.norm(b.T @ b - np.eye(2)) < 1e-10

    def test_badly_off_rejected(self, tmp_path):
        basis = random_point(8, 2, 1).basis.copy()
        basis[:, 0] *= 1.2
        d = self._write(tmp_path, basis)
        with pytest.raises(DataFormatError, match="orthonormal"):
            load_dataset(d)


def _same_bits(a, b):
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


class TestBatchedLoad:
    """Per-file checks, then one QR over the basis rows of the stack."""

    def _write(self, tmp_path, matrices, modes=None):
        d = tmp_path / "ds"
        d.mkdir()
        modes = modes or ["basis"] * len(matrices)
        lines = []
        for k, (matrix, mode) in enumerate(zip(matrices, modes)):
            write_matrix_csv(d / f"s{k}.csv", matrix)
            lines.append(f"id{k}\tc{k % 2}\t{mode}\ts{k}.csv\n")
        (d / "manifest.tsv").write_text("".join(lines))
        return d

    def test_beyond_repair_basis_in_the_middle_names_its_file(self, tmp_path):
        bases = [random_point(8, 2, k).basis.copy() for k in range(5)]
        bases[2][:, 0] *= 1.2
        d = self._write(tmp_path, bases)
        with pytest.raises(DataFormatError, match=r"s2\.csv: basis deviates"):
            load_dataset(d)

    def test_repairable_file_warns_with_its_path_and_gets_its_own_qr(self, tmp_path):
        bases = [random_point(8, 2, k).basis.copy() for k in range(4)]
        bases[1][0, 0] += 1e-4
        d = self._write(tmp_path, bases)
        with pytest.warns(NumericalHealthWarning) as caught:
            ds = load_dataset(d)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1 and "s1.csv: basis deviates" in messages[0]
        expected, _ = orthonormalize(read_matrix_csv(d / "s1.csv"))
        assert _same_bits(ds.bases[1], expected)

    def test_mixed_raw_and_basis_manifest(self, tmp_path, rng):
        matrices = [
            rng.standard_normal((8, 4)),
            random_point(8, 2, 1).basis,
            rng.standard_normal((8, 3)),
            random_point(8, 2, 3).basis,
        ]
        modes = ["raw", "basis", "raw", "basis"]
        d = self._write(tmp_path, matrices, modes)
        ds = load_dataset(d, order=2)
        assert ds.bases.shape == (4, 8, 2) and not ds.bases.flags.writeable
        for k, mode in enumerate(modes):
            matrix = read_matrix_csv(d / f"s{k}.csv")
            if mode == "raw":
                expected = build_subspace(matrix, 2).basis
            else:
                expected, _ = orthonormalize(matrix)
            assert _same_bits(ds.bases[k], expected)

    def test_stack_bit_equal_to_per_file_qr(self, tmp_path):
        save_dataset(tmp_path / "ds", synth_dataset(SynthParams(3, 4, 9, 3, 0.3, 2)))
        ds = load_dataset(tmp_path / "ds")
        for k in range(ds.size):
            matrix = read_matrix_csv(tmp_path / "ds" / f"sample_{k:04d}.csv")
            expected, _ = orthonormalize(matrix)
            assert _same_bits(ds.bases[k], expected)

    def test_shape_mismatch_names_the_sample(self, tmp_path):
        d = self._write(
            tmp_path, [random_point(8, 2, 0).basis, random_point(8, 3, 1).basis]
        )
        with pytest.raises(DimensionMismatch, match="sample 1 has shape"):
            load_dataset(d)

    def test_non_utf8_manifest(self, tmp_path):
        d = self._write(tmp_path, [random_point(8, 2, 0).basis])
        (d / "manifest.tsv").write_bytes(b"id0\tc\xe9\tbasis\ts0.csv\n")
        with pytest.raises(DataFormatError, match="manifest.tsv: not UTF-8"):
            load_dataset(d)


class TestMappingIo:
    def test_roundtrip(self, tmp_path, rng):
        q, _ = orthonormalize(rng.standard_normal((9, 4)))
        w = MappingMatrix(q)
        path = tmp_path / "w.csv"
        save_mapping(path, w)
        loaded = load_mapping(path)
        assert (loaded.w == w.w).all()

    def test_rejects_non_orthonormal(self, tmp_path, rng):
        path = tmp_path / "w.csv"
        write_matrix_csv(path, rng.standard_normal((9, 4)))
        with pytest.raises(DataFormatError, match="orthonormal"):
            load_mapping(path)
