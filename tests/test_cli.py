import numpy as np
import pytest

from ggdr import cli, pipeline
from ggdr.cli import main


def run(args):
    return main([str(a) for a in args])


def synth_args(out, classes=3, per=4, ambient=10, order=2, noise=0.15, seed=7):
    return [
        "synth", "--classes", classes, "--per-class", per, "--ambient", ambient,
        "--order", order, "--noise", noise, "--seed", seed, "--out", out,
    ]


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    assert run(synth_args(out)) == 0
    return out


class TestSynth:
    def test_creates_manifest_and_samples(self, tmp_path):
        out = tmp_path / "ds"
        assert run(synth_args(out)) == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 12
        assert all(len(line.split("\t")) == 4 for line in manifest)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(synth_args(a)) == 0
        assert run(synth_args(b)) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, value", [("--seed", -1), ("--noise", "nan"), ("--noise", "inf")]
    )
    def test_bad_seed_or_noise(self, tmp_path, capsys, flag, value):
        args = synth_args(tmp_path / "ds")
        args[args.index(flag) + 1] = value
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "ds").exists()


class TestTrain:
    def test_round_trip_and_bit_identical(self, tmp_path, dataset_dir, capsys):
        w1, t1 = tmp_path / "w1.csv", tmp_path / "t1.csv"
        w2, t2 = tmp_path / "w2.csv", tmp_path / "t2.csv"
        base = [
            "train", "--data", dataset_dir, "--metric", "pk", "--dim", 4,
            "--order", 2, "--kb", 1, "--seed", 42, "--max-iter", 40,
        ]
        assert run(base + ["--out", w1, "--trace", t1]) == 0
        assert run(base + ["--out", w2, "--trace", t2]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()
        out = capsys.readouterr().out
        assert "final_cost=" in out and "iterations=" in out
        header = [l for l in t1.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "iter,cost,grad_norm,step,backtracks,skipped_pairs"

    def test_missing_dataset(self, tmp_path):
        code = run([
            "train", "--data", tmp_path / "nope", "--metric", "p",
            "--dim", 4, "--order", 2, "--out", tmp_path / "w.csv",
        ])
        assert code == 1

    def test_dim_below_order(self, tmp_path, dataset_dir):
        code = run([
            "train", "--data", dataset_dir, "--metric", "p",
            "--dim", 1, "--order", 2, "--out", tmp_path / "w.csv",
        ])
        assert code == 2

    def test_unknown_metric(self, tmp_path, dataset_dir):
        code = run([
            "train", "--data", dataset_dir, "--metric", "nope",
            "--dim", 4, "--order", 2, "--out", tmp_path / "w.csv",
        ])
        assert code == 2

    def test_graph_export(self, tmp_path, dataset_dir):
        g = tmp_path / "g.csv"
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--graph-out", g,
            "--max-iter", 5,
        ]) == 0
        loaded = np.loadtxt(g, delimiter=",", dtype=int)
        assert loaded.shape == (12, 12)
        assert (loaded == loaded.T).all()

    def test_config_file_defaults_and_flag_override(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# demo config\nmax-iter = 3\nkb = 1\n")
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv",
            "--trace", tmp_path / "t.csv", "--config", cfg,
        ]) == 0
        trace_text = (tmp_path / "t.csv").read_text()
        assert "# max-iter=3" in trace_text
        # explicit flag beats the config value
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv",
            "--trace", tmp_path / "t.csv", "--config", cfg, "--max-iter", 2,
        ]) == 0
        assert "# max-iter=2" in (tmp_path / "t.csv").read_text()

    @pytest.mark.parametrize("period", [0, -1])
    def test_restart_below_one(self, tmp_path, dataset_dir, capsys, period):
        code = run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--restart", period,
        ])
        assert code == 2
        assert "restart period" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [["--init", "random", "--seed", -5], ["--rel-tol", "nan"], ["--grad-tol", "nan"]],
    )
    def test_bad_seed_or_tolerance(self, tmp_path, dataset_dir, capsys, extra):
        code = run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", *extra,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "w.csv").exists()

    def test_corrupt_sample_file(self, tmp_path, dataset_dir):
        victim = dataset_dir / "sample_0000.csv"
        lines = victim.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # drop one field
        victim.write_text("\n".join(lines) + "\n")
        code = run([
            "train", "--data", dataset_dir, "--metric", "p",
            "--dim", 4, "--order", 2, "--out", tmp_path / "w.csv",
        ])
        assert code == 1


class TestEval:
    def test_self_eval_without_model(self, dataset_dir, capsys):
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p",
        ]) == 0
        assert "accuracy=1.0" in capsys.readouterr().out

    def test_eval_with_model_and_preds(self, tmp_path, dataset_dir, capsys):
        w = tmp_path / "w.csv"
        assert run([
            "train", "--data", dataset_dir, "--metric", "pk", "--dim", 4,
            "--order", 2, "--out", w, "--max-iter", 30,
        ]) == 0
        preds = tmp_path / "preds.csv"
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "pk", "--model", w, "--preds", preds,
        ]) == 0
        assert "accuracy=1.0" in capsys.readouterr().out
        lines = preds.read_text().splitlines()
        assert lines[0] == "id,true,pred,nn_distance"
        assert len(lines) == 13

    def test_preds_from_the_one_nn_pass(
        self, tmp_path, dataset_dir, capsys, monkeypatch
    ):
        w = tmp_path / "w.csv"
        assert run([
            "train", "--data", dataset_dir, "--metric", "bc", "--dim", 3,
            "--order", 2, "--out", w, "--max-iter", 2,
        ]) == 0
        passes = []
        nn_predict = cli._nn_predict

        def counted(*args):
            passes.append(1)
            return nn_predict(*args)

        monkeypatch.setattr(cli, "_nn_predict", counted)
        preds = tmp_path / "preds.csv"
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "bc", "--model", w, "--preds", preds,
        ]) == 0
        assert len(passes) == 1
        printed = float(capsys.readouterr().out.split("accuracy=")[1])
        rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
        assert printed == sum(r[1] == r[2] for r in rows) / len(rows)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_basis_file(self, dataset_dir, value):
        victim = dataset_dir / "sample_0003.csv"
        lines = victim.read_text().splitlines()
        lines[2] = value + lines[2][lines[2].index(","):]
        victim.write_text("\n".join(lines) + "\n")
        code = run([
            "eval", "--train", dataset_dir, "--test", dataset_dir, "--metric", "p",
        ])
        assert code == 1

    def test_linalg_error_is_numerical_exit(self, dataset_dir, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "_nn_predict", fail)
        code = run([
            "eval", "--train", dataset_dir, "--test", dataset_dir, "--metric", "p",
        ])
        assert code == 3

    def test_model_dimension_mismatch(self, tmp_path, dataset_dir):
        other = tmp_path / "other"
        assert run(synth_args(other, ambient=12)) == 0
        w = tmp_path / "w.csv"
        assert run([
            "train", "--data", other, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", w, "--max-iter", 3,
        ]) == 0
        code = run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p", "--model", w,
        ])
        assert code == 2


class TestGradcheck:
    def test_clean_pass(self, capsys):
        assert run([
            "gradcheck", "--metric", "p", "--trials", 5, "--seed", 3,
        ]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_corrupted_gradient_fails(self, monkeypatch):
        grad = pipeline.euclidean_grad
        monkeypatch.setattr(pipeline, "euclidean_grad", lambda w, p: grad(w, p) + 0.05)
        assert run([
            "gradcheck", "--metric", "p", "--trials", 3, "--seed", 3,
        ]) == 3

    def test_negative_seed(self, capsys):
        assert run(["gradcheck", "--metric", "p", "--seed", -1]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value", [("--order", 0), ("--dim", 0), ("--trials", 0), ("--trials", -1)]
    )
    def test_nonpositive_counts(self, capsys, flag, value):
        assert run(["gradcheck", "--metric", "p", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "failures=" not in captured.out

    def test_all_metrics_small(self):
        assert run(["gradcheck", "--metric", "all", "--trials", 2]) == 0
