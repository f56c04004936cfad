import csv

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


@pytest.fixture
def raw_dataset_dir(tmp_path):
    # two classes of three raw 10 x 4 feature matrices
    out = tmp_path / "raw"
    out.mkdir()
    rng = np.random.default_rng(3)
    rows = []
    for k in range(6):
        np.savetxt(out / f"f{k}.csv", rng.standard_normal((10, 4)), delimiter=",")
        rows.append(f"s{k}\t{'AB'[k % 2]}\traw\tf{k}.csv\n")
    (out / "manifest.tsv").write_text("".join(rows))
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

    def test_prints_objective_evaluations(self, tmp_path, dataset_dir, capsys):
        trace = tmp_path / "t.csv"
        assert run([
            "train", "--data", dataset_dir, "--metric", "bc", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--trace", trace,
        ]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert list(fields) == ["final_cost", "iterations", "reason", "evaluations"]
        assert fields["reason"] != "line_search_failed"
        rows = [
            line.split(",") for line in trace.read_text().splitlines()
            if not line.startswith(("#", "iter"))
        ]
        # the trace header is unchanged; the count follows from its rows
        accepted = [int(r[4]) + 1 for r in rows if float(r[3]) > 0]
        assert int(fields["evaluations"]) == 1 + len(accepted) + sum(accepted)

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

    @pytest.mark.parametrize(
        "value, shown", [("TRUE", True), ("On", True), ("0", False), ("no", False)]
    )
    def test_config_boolean(self, tmp_path, dataset_dir, value, shown):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"literal-similarity = {value}\n")
        assert run([
            "train", "--data", dataset_dir, "--metric", "bck", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--max-iter", 1,
            "--trace", tmp_path / "t.csv", "--config", cfg,
        ]) == 0
        assert f"# literal-similarity={shown}" in (tmp_path / "t.csv").read_text()

    def test_config_boolean_misspelt(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("literal-similarity = ture\n")
        assert run([
            "train", "--data", dataset_dir, "--metric", "bck", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--config", cfg,
        ]) == 2
        assert "literal-similarity='ture'" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_config_key_misspelt(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 3\n")
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--config", cfg,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'max_iter'" in err[0]
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("text", ["max-iter 3\n", None])
    def test_malformed_or_missing_config_exits_1(
        self, tmp_path, dataset_dir, capsys, text
    ):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--out", tmp_path / "w.csv", "--config", cfg,
        ]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    # (flag value, or None for a bare flag; config value; value in the header)
    NON_DEFAULT = {
        "kw": ("2", "2", "2"),
        "kb": ("2", "2", "2"),
        "seed": ("3", "3", "3"),
        "init": ("random", "random", "random"),
        "literal-similarity": (None, "yes", "True"),
        "max-iter": ("3", "3", "3"),
        "rel-tol": ("0.001", "1e-3", "0.001"),
        "grad-tol": ("0.5", "0.5", "0.5"),
        "beta-rule": ("fr", "fr", "fr"),
        "restart": ("4", "4", "4"),
    }

    @pytest.mark.parametrize("key", list(cli.TRAIN_KEYS))
    def test_flag_and_config_line_are_one_parameter(self, tmp_path, dataset_dir, key):
        flag, config, shown = self.NON_DEFAULT[key]
        assert shown != str(cli.TRAIN_KEYS[key][1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {config}\n")
        runs = {
            "flag": ["--" + key] + ([flag] if flag is not None else []),
            "config": ["--config", cfg],
        }
        header, maps = {}, {}
        for name, extra in runs.items():
            out, trace = tmp_path / f"w_{name}.csv", tmp_path / f"t_{name}.csv"
            assert run([
                "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
                "--order", 2, "--out", out, "--trace", trace, *extra,
            ]) == 0
            header[name] = [
                l for l in trace.read_text().splitlines() if l.startswith(f"# {key}=")
            ]
            maps[name] = out.read_bytes()
        assert header["flag"] == header["config"] == [f"# {key}={shown}"]
        assert maps["flag"] == maps["config"]

    def test_default_trace_header(self, tmp_path, dataset_dir):
        trace = tmp_path / "t.csv"
        assert run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--out", tmp_path / "w.csv", "--trace", trace,
        ]) == 0
        header = [l for l in trace.read_text().splitlines() if l.startswith("#")]
        assert header == [
            "# command=train",
            f"# data={dataset_dir}",
            "# metric=p",
            "# dim=4",
            "# order=2",
            "# kw=3",
            "# kb=1",
            "# seed=0",
            "# init=identity",
            "# literal-similarity=False",
            "# max-iter=100",
            "# rel-tol=1e-06",
            "# grad-tol=1e-06",
            "# beta-rule=pr+",
            "# restart=auto",
        ]

    def test_bad_beta_rule_flag_is_one_error_line(self, tmp_path, dataset_dir, capsys):
        code = run([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", 2, "--out", tmp_path / "w.csv", "--beta-rule", "FR",
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: beta-rule must be pr+ or fr, got 'FR'"]
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

    def test_preds_plain_bytes(self, tmp_path, dataset_dir, monkeypatch):
        passes = []
        nn_predict = cli._nn_predict

        def kept(*args):
            passes.append(nn_predict(*args))
            return passes[-1]

        monkeypatch.setattr(cli, "_nn_predict", kept)
        preds = tmp_path / "preds.csv"
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p", "--preds", preds,
        ]) == 0
        manifest = (dataset_dir / "manifest.tsv").read_text().splitlines()
        rows = [line.split("\t")[:2] for line in manifest]
        labels, _, values = passes[0]
        expected = "id,true,pred,nn_distance\n" + "".join(
            f"{pid},{true},{pred},{value!r}\n"
            for (pid, true), pred, value in zip(rows, labels, values)
        )
        assert preds.read_bytes() == expected.encode()

    def test_preds_quote_comma_and_quote(self, tmp_path, dataset_dir):
        manifest = dataset_dir / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        lines[0] = 'a,b "q"\t' + lines[0].split("\t", 1)[1]
        manifest.write_text("\n".join(lines) + "\n")
        preds = tmp_path / "preds.csv"
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p", "--preds", preds,
        ]) == 0
        with open(preds, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 13 and all(len(r) == 4 for r in rows)
        assert rows[1][0] == 'a,b "q"'

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


class TestBasisOrder:
    @pytest.mark.parametrize("order", [3, -3])
    def test_order_of_another_dataset(self, tmp_path, dataset_dir, capsys, order):
        # the dataset holds bases of order 2: eval rejects another --order
        # as train does, with one error line and nothing on stdout
        train = [
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--order", order, "--out", tmp_path / "w.csv",
        ]
        evaluate = [
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p", "--order", order,
        ]
        for args in (train, evaluate):
            assert run(args) == 2
            out = capsys.readouterr()
            assert out.err == (
                f"error: --order {order} does not match dataset order 2\n"
            )
            assert out.out == ""

    def test_matching_order(self, dataset_dir, capsys):
        assert run([
            "eval", "--train", dataset_dir, "--test", dataset_dir,
            "--metric", "p", "--order", 2,
        ]) == 0
        assert "accuracy=1.0" in capsys.readouterr().out


class TestRawOrder:
    @pytest.mark.parametrize("order", [0, -1, -3])
    def test_nonpositive_order(self, tmp_path, raw_dataset_dir, capsys, order):
        train = [
            "train", "--data", raw_dataset_dir, "--metric", "p", "--dim", 4,
            "--order", order, "--out", tmp_path / "w.csv",
        ]
        evaluate = [
            "eval", "--train", raw_dataset_dir, "--test", raw_dataset_dir,
            "--metric", "p", "--order", order,
        ]
        for args in (train, evaluate):
            assert run(args) == 2
            out = capsys.readouterr()
            assert out.err == f"error: order must be positive, got {order}\n"
            assert out.out == ""

    def test_positive_order(self, raw_dataset_dir, capsys):
        assert run([
            "eval", "--train", raw_dataset_dir, "--test", raw_dataset_dir,
            "--metric", "p", "--order", 2,
        ]) == 0
        assert "accuracy=1.0" in capsys.readouterr().out


class TestNonUtf8Input:
    """Bytes that are not UTF-8 exit 1 with one error line, in every file kind."""

    def _assert_clean_exit(self, args, capsys, name):
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{name}: not UTF-8" in err[0]

    def test_matrix_csv(self, tmp_path, dataset_dir, capsys):
        victim = dataset_dir / "sample_0002.csv"
        victim.write_bytes(victim.read_bytes().replace(b",", b"\xff,", 1))
        self._assert_clean_exit([
            "eval", "--train", dataset_dir, "--test", dataset_dir, "--metric", "p",
        ], capsys, "sample_0002.csv")

    def test_manifest(self, tmp_path, dataset_dir, capsys):
        manifest = dataset_dir / "manifest.tsv"
        manifest.write_bytes(b"# \xc3\x28\n" + manifest.read_bytes())
        self._assert_clean_exit([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--out", tmp_path / "w.csv",
        ], capsys, "manifest.tsv")
        assert not (tmp_path / "w.csv").exists()

    def test_config(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"max-iter = 3\n# caf\xe9\n")
        self._assert_clean_exit([
            "train", "--data", dataset_dir, "--metric", "p", "--dim", 4,
            "--out", tmp_path / "w.csv", "--config", cfg,
        ], capsys, "run.cfg")


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
