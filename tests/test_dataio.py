import numpy as np
import pytest

from ggdr.dataio import (
    load_dataset,
    load_mapping,
    read_matrix_csv,
    save_dataset,
    save_mapping,
    write_matrix_csv,
)
from ggdr.errors import DataFormatError, NumericalHealthWarning
from ggdr.manifold import MappingMatrix, orthonormalize, random_point
from ggdr.pipeline import SynthParams, synth_dataset


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
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
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
