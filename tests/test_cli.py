import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from monolattice import DataError, Model
from monolattice.cli import main


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(41)
    n = 160
    price = rng.random(n) * 100
    rating = rng.random(n) * 5
    y = price / 100 * (rating / 5) + 0.2 * price / 100 + 0.05 * rng.standard_normal(n)
    write_csv(
        tmp_path / "train.csv",
        ["price", "rating", "y"],
        [[repr(float(p)), repr(float(r)), repr(float(v))] for p, r, v in zip(price, rating, y)],
    )
    schema = {
        "label": "y",
        "features": [
            {"name": "price", "monotone": "increasing", "keypoints": 4},
            {"name": "rating", "monotone": "increasing", "keypoints": 4},
        ],
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    return tmp_path


def run_train(ws, out_name="model.json", *extra):
    args = [
        "train",
        "--data", str(ws / "train.csv"),
        "--schema", str(ws / "schema.json"),
        "--out", str(ws / out_name),
        "--epochs", "8",
        "--seed", "7",
        *extra,
    ]
    return main(args)


class TestTrain:
    def test_smoke(self, workspace, capsys):
        assert run_train(workspace) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == str(workspace / "model.json")
        assert "rmse" in out["train_metrics"]
        model = Model.load(workspace / "model.json")
        assert model.violations() == []

    def test_same_flags_same_bytes(self, workspace):
        assert run_train(workspace, "a.json") == 0
        assert run_train(workspace, "b.json") == 0
        assert (workspace / "a.json").read_bytes() == (workspace / "b.json").read_bytes()

    def test_different_seed_differs(self, workspace):
        assert run_train(workspace, "a.json") == 0
        assert run_train(workspace, "b.json", "--seed", "8") == 0
        assert (workspace / "a.json").read_bytes() != (workspace / "b.json").read_bytes()

    def test_config_recorded_in_metadata(self, workspace):
        assert run_train(workspace, "m.json", "--workers", "2", "--sync-rounds", "2") == 0
        model = Model.load(workspace / "m.json")
        assert model.metadata["workers"] == 2
        assert model.metadata["sync_rounds"] == 2
        assert model.metadata["seed"] == 7

    def test_lattice_and_monotonic_overrides(self, workspace):
        code = run_train(
            workspace, "m.json", "--lattice", "3,2", "--monotonic", "+price,rating"
        )
        assert code == 0
        model = Model.load(workspace / "m.json")
        assert tuple(model.shape.sizes) == (3, 2)
        assert model.specs[0].monotone.value == "increasing"
        assert model.specs[1].monotone.value == "none"

    def test_decreasing_override_uses_equals_form(self, workspace):
        assert run_train(workspace, "m.json", "--monotonic=-price,+rating") == 0
        model = Model.load(workspace / "m.json")
        assert model.specs[0].monotone.value == "decreasing"
        assert model.specs[1].monotone.value == "increasing"

    def test_keypoint_overrides(self, workspace):
        assert run_train(workspace, "a.json", "--keypoints", "6") == 0
        assert [s.keypoints for s in Model.load(workspace / "a.json").specs] == [6, 6]
        assert run_train(workspace, "b.json", "--keypoints", "rating:5") == 0
        assert [s.keypoints for s in Model.load(workspace / "b.json").specs] == [4, 5]

    def test_unseen_category_flag(self, workspace):
        rows = [[c, str(i % 3)] for i, c in enumerate("abc" * 9)]
        write_csv(workspace / "cat.csv", ["c", "y"], rows)
        schema = {"label": "y", "features": [{"name": "c", "kind": "categorical"}]}
        (workspace / "cat.json").write_text(json.dumps(schema))
        code = main([
            "train",
            "--data", str(workspace / "cat.csv"),
            "--schema", str(workspace / "cat.json"),
            "--out", str(workspace / "m.json"),
            "--unseen-category", "other",
        ])
        assert code == 0
        model = Model.load(workspace / "m.json")
        assert model.specs[0].allow_unseen
        assert math.isfinite(model.predict_row(["never seen"]))

    def test_regularizer_flag(self, workspace):
        assert run_train(workspace, "m.json", "--regularizer", "torsion:0.01") == 0
        model = Model.load(workspace / "m.json")
        assert model.metadata["regularizers"] == [
            {"kind": "torsion", "weight": 0.01, "sample_count": None}
        ]

    def test_simplex_training(self, workspace):
        assert run_train(workspace, "m.json", "--kind", "simplex") == 0
        assert Model.load(workspace / "m.json").kind.value == "simplex"


class TestPredict:
    def test_output_matches_library(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        write_csv(workspace / "score.csv", ["price", "rating"], [["50.0", "2.5"], ["10.0", "4.0"]])
        code = main([
            "predict",
            "--model", str(workspace / "model.json"),
            "--data", str(workspace / "score.csv"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "score"
        got = [float(v) for v in lines[1:]]
        model = Model.load(workspace / "model.json")
        assert got[0] == model.predict_row([50.0, 2.5])
        assert got[1] == model.predict_row([10.0, 4.0])

    def test_out_file_and_kind_override(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        write_csv(workspace / "score.csv", ["price", "rating"], [["33.0", "1.7"]])
        for kind, name in ((None, "a.csv"), ("simplex", "b.csv")):
            args = [
                "predict",
                "--model", str(workspace / "model.json"),
                "--data", str(workspace / "score.csv"),
                "--out", str(workspace / name),
            ]
            if kind:
                args += ["--kind", kind]
            assert main(args) == 0
        a = float((workspace / "a.csv").read_text().splitlines()[1])
        b = float((workspace / "b.csv").read_text().splitlines()[1])
        assert a != b  # bilinear vs simplex disagree off the cell diagonal


class TestEvaluate:
    def test_metrics_json(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        code = main([
            "evaluate",
            "--model", str(workspace / "model.json"),
            "--data", str(workspace / "train.csv"),
            "--schema", str(workspace / "schema.json"),
        ])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert 0 < metrics["rmse"] < 0.2

    def test_label_flag_without_schema(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        code = main([
            "evaluate",
            "--model", str(workspace / "model.json"),
            "--data", str(workspace / "train.csv"),
            "--label", "y",
        ])
        assert code == 0
        assert "rmse" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("flags, label", [([], None), (["--label", "zz"], "zz")])
    def test_rows_without_a_label_exit_two(self, workspace, capsys, flags, label):
        assert run_train(workspace) == 0
        capsys.readouterr()
        data = workspace / "train.csv"
        code = main(["evaluate", "--model", str(workspace / "model.json"), "--data", str(data),
                     *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: label column {label!r} not found\n"

    def test_pairs(self, tmp_path, capsys):
        TestRanking().make_suffix_pairs(tmp_path)
        data, schema = str(tmp_path / "pairs.csv"), str(tmp_path / "rank_schema.json")
        assert main(["train", "--data", data, "--schema", schema, "--out",
                     str(tmp_path / "m.json"), "--pairs", "--epochs", "4"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--model", str(tmp_path / "m.json"), "--data", data, "--pairs"])
        assert code == 0
        assert set(json.loads(capsys.readouterr().out)) == {"num_pairs", "pair_accuracy"}

    def test_pair_id(self, tmp_path, capsys):
        rows = [[str(pid), repr(0.1 + 0.005 * pid + won * 0.5), str(won)]
                for pid in range(150) for won in (1, 0)]
        write_csv(tmp_path / "duels.csv", ["match", "score", "won"], rows)
        schema = {"label": "won", "features": [{"name": "score", "keypoints": 3}]}
        (tmp_path / "duel_schema.json").write_text(json.dumps(schema))
        data, schema = str(tmp_path / "duels.csv"), str(tmp_path / "duel_schema.json")
        assert main(["train", "--data", data, "--schema", schema, "--out",
                     str(tmp_path / "m.json"), "--pair-id", "match", "--epochs", "4"]) == 0
        capsys.readouterr()
        evaluate = ["evaluate", "--model", str(tmp_path / "m.json"), "--data", data,
                    "--pair-id", "match"]
        for flags in (["--schema", schema], ["--label", "won"]):
            assert main(evaluate + flags) == 0
            assert json.loads(capsys.readouterr().out)["num_pairs"] == 150
        assert main(evaluate) == 2  # no label column marks the preferred rows
        assert capsys.readouterr().err == (
            f"error: {data}: two-row pair data needs a label column marking the preferred row\n"
        )


class TestCheck:
    def test_clean_model_passes(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        code = main(["check", "--model", str(workspace / "model.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0 violations"

    def test_violating_file_fails_with_report(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        model = Model.load(workspace / "model.json")
        model = replace(model, theta=np.array([0.0, 1.0, 0.4, 0.4]))
        model.save(workspace / "bad.json")
        code = main(["check", "--model", str(workspace / "bad.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation: theta[1, 0]=1 > theta[1, 1]=0.4 (gap 0.6)" in out
        assert out.strip().endswith("1 violations")

    @pytest.mark.parametrize(
        "text", ['{"format": "monolattice-model", "version": 1, "features": 5}', "[1]"]
    )
    def test_malformed_model_file_is_bad_input(self, tmp_path, capsys, text):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        assert main(["check", "--model", str(path)]) == 2
        assert "error: malformed model file: " in capsys.readouterr().err

    def test_model_file_without_lattice_is_bad_input(self, workspace, capsys):
        assert run_train(workspace) == 0
        capsys.readouterr()
        doc = json.loads((workspace / "model.json").read_text())
        del doc["lattice"]
        (workspace / "broken.json").write_text(json.dumps(doc))
        code = main(["check", "--model", str(workspace / "broken.json")])
        assert code == 2
        assert "'lattice'" in capsys.readouterr().err


class TestBench:
    def test_csv_output(self, workspace, capsys):
        code = main([
            "bench",
            "--min-d", "2",
            "--max-d", "3",
            "--kinds", "multilinear,simplex",
            "--target-time", "0.001",
            "--repeats", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "d,kind,ns_per_op"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            d, kind, ns = line.split(",")
            assert int(d) in (2, 3)
            assert kind in ("multilinear", "simplex")
            assert float(ns) > 0

    def test_default_kinds(self, capsys):
        code = main(["bench", "--min-d", "2", "--max-d", "2",
                     "--target-time", "0.001", "--repeats", "1"])
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["multilinear", "simplex"]

    def test_product_form_kernel_is_no_kind(self, workspace, capsys):
        # it stays a test oracle; neither bench nor predict serves it
        code = main(["bench", "--min-d", "2", "--max-d", "2", "--kinds", "multilinear-naive",
                     "--target-time", "0.001", "--repeats", "1"])
        assert code == 2
        assert "'multilinear-naive'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["predict", "--model", str(workspace / "m.json"),
                  "--data", str(workspace / "train.csv"), "--kind", "multilinear-naive"])
        assert err.value.code == 2


class TestErrors:
    def test_missing_data_file(self, workspace, capsys):
        code = main([
            "train",
            "--data", str(workspace / "nope.csv"),
            "--schema", str(workspace / "schema.json"),
            "--out", str(workspace / "m.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_schema_json(self, workspace, capsys):
        (workspace / "broken.json").write_text("{nope")
        code = main([
            "train",
            "--data", str(workspace / "train.csv"),
            "--schema", str(workspace / "broken.json"),
            "--out", str(workspace / "m.json"),
        ])
        assert code == 2

    def test_lattice_arity_mismatch(self, workspace, capsys):
        assert run_train(workspace, "m.json", "--lattice", "2,2,2") == 2
        assert "--lattice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lattice", "1,2", "error: feature price: lattice size must be >= 2"),
            ("--keypoints", "1", "error: feature price: need at least 2 keypoints"),
            ("--keypoints", "rating:1", "error: feature rating: need at least 2 keypoints"),
            ("--keypoints", "nosuch:3", "error: --keypoints names unknown feature 'nosuch'"),
            ("--keypoints", "price", "error: invalid literal for int() with base 10: 'price'"),
        ],
    )
    def test_bad_spec_override(self, workspace, capsys, flag, value, message):
        assert run_train(workspace, "m.json", flag, value) == 2
        assert capsys.readouterr().err.strip() == message

    def test_unknown_monotonic_name(self, workspace, capsys):
        assert run_train(workspace, "m.json", "--monotonic", "+nosuch") == 2

    def test_bad_regularizer_kind(self, workspace, capsys):
        assert run_train(workspace, "m.json", "--regularizer", "ripple:0.1") == 2

    def test_missing_column(self, workspace, capsys):
        write_csv(workspace / "narrow.csv", ["price", "y"], [["1.0", "0.5"]])
        code = main([
            "train",
            "--data", str(workspace / "narrow.csv"),
            "--schema", str(workspace / "schema.json"),
            "--out", str(workspace / "m.json"),
        ])
        assert code == 2

    def test_schema_without_label_needs_pairs(self, workspace, capsys):
        schema = {"features": [{"name": "price"}, {"name": "rating"}]}
        (workspace / "nolabel.json").write_text(json.dumps(schema))
        code = main([
            "train",
            "--data", str(workspace / "train.csv"),
            "--schema", str(workspace / "nolabel.json"),
            "--out", str(workspace / "m.json"),
        ])
        assert code == 2
        assert "--pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_label_exits_two(self, workspace, capsys, label):
        with open(workspace / "train.csv") as fh:
            rows = list(csv.reader(fh))
        rows[6][2] = label  # data row 5
        write_csv(workspace / "train.csv", rows[0], rows[1:])
        assert run_train(workspace, "m.json") == 2
        assert f"training row 5: label {label} is not finite" in capsys.readouterr().err

    def test_diverging_run_exits_three(self, workspace, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_train(workspace, "m.json", "--step-size", "1e200")
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_overflowing_step_exits_three_and_says_where(self, tmp_path, capsys):
        write_csv(tmp_path / "chain.csv", ["x", "y"], [["0.0", "1.0"], ["0.5", "0.0"], ["1.0", "1.0"]])
        schema = {"label": "y", "features": [
            {"name": "x", "monotone": "increasing", "size": 3, "bounds": [0.0, 1.0]}]}
        (tmp_path / "chain.json").write_text(json.dumps(schema))
        code = main([
            "train",
            "--data", str(tmp_path / "chain.csv"),
            "--schema", str(tmp_path / "chain.json"),
            "--out", str(tmp_path / "m.json"),
            "--step-size", "1e308", "--calibrator-step-scale", "0", "--epochs", "2",
            "--minibatch", "1", "--workers", "2", "--sync-rounds", "2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite step; lower the step size (round 2, worker 1, epoch 2, step 1)" in err
        assert not (tmp_path / "m.json").exists()


    def test_knot_gap_past_the_float_limit_exits_two(self, tmp_path, capsys):
        # 64 increasing values over +-1.7e308: with 2 keypoints the one gap
        # between the knots passes the float limit
        x = np.concatenate([np.linspace(-1.7, 0.114, 32), np.linspace(0.114, 1.7, 32)]) * 1e308
        write_csv(tmp_path / "wide.csv", ["x", "y"],
                  [[repr(float(v)), repr(i / 63)] for i, v in enumerate(x)])
        schema = {"label": "y", "features": [
            {"name": "x", "monotone": "increasing", "size": 3, "keypoints": 2}]}
        (tmp_path / "wide.json").write_text(json.dumps(schema))
        code = main(["train", "--data", str(tmp_path / "wide.csv"),
                     "--schema", str(tmp_path / "wide.json"), "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "feature 'x': the gap between knots -1.7e+308 and 1.7e+308 overflows" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

class TestExitCodes:
    """Exit 2 for errors in what the user gave, one test per kind; any other
    ValueError is a failure of the run, exit 3."""

    def test_usage_error_exits_two(self, workspace, capsys):
        assert run_train(workspace, "m.json", "--monotonic", "+nosuch") == 2
        assert "error: --monotonic names unknown feature 'nosuch'" in capsys.readouterr().err

    def test_data_error_exits_two(self, workspace, capsys):
        with open(workspace / "train.csv") as fh:
            rows = list(csv.reader(fh))
        rows[3][0] = "abc"  # data row 2
        write_csv(workspace / "train.csv", rows[0], rows[1:])
        assert run_train(workspace, "m.json") == 2
        assert "feature price: 'abc' is not a number" in capsys.readouterr().err

    def test_os_error_exits_two(self, workspace, capsys):
        code = main(["predict", "--model", str(workspace / "none.json"),
                     "--data", str(workspace / "train.csv")])
        assert code == 2
        assert "none.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epochs", "0", "error: epochs must be >= 1"),
            ("--workers", "0", "error: workers must be >= 1"),
            ("--regularizer", "torsion:-1", "error: regularizer weight must be finite and nonnegative"),
            ("--lattice", "1024,1048577", "error: lattice has 1073742848 parameters"),
        ],
    )
    def test_config_validation_exits_two(self, workspace, capsys, flag, value, message):
        assert run_train(workspace, "m.json", flag, value) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (workspace / "m.json").exists()

    def test_other_value_error_exits_three(self, workspace, capsys, monkeypatch):
        # a projection handed an infeasible start is a failure of the run,
        # not of its input
        from monolattice import training

        def infeasible(*args, **kwargs):
            raise ValueError("theta violates the constraints it is supposed to satisfy")

        monkeypatch.setattr(training, "project_update", infeasible)
        assert run_train(workspace, "m.json") == 3
        err = capsys.readouterr().err
        assert "error: theta violates the constraints it is supposed to satisfy" in err
        assert not (workspace / "m.json").exists()


class TestDataErrors:
    """Bad data files exit 2 with a message that says where."""

    def train_on(self, ws, lines, *extra):
        (ws / "bad.csv").write_text("".join(line + "\n" for line in lines))
        return main([
            "train",
            "--data", str(ws / "bad.csv"),
            "--schema", str(ws / "schema.json"),
            "--out", str(ws / "m.json"),
            *extra,
        ])

    def test_short_row_names_the_line_counting_blank_ones(self, workspace, capsys):
        lines = ["price,rating,y", "1.0,2.0,0.5", "", "", "3.0,0.5"]
        assert self.train_on(workspace, lines) == 2
        assert f"error: {workspace / 'bad.csv'}:5: 2 cells, header has 3" in capsys.readouterr().err

    def test_non_number_names_the_feature_and_the_file(self, workspace, capsys):
        lines = ["price,rating,y", "1.0,2.0,0.5", "1.0,cheap,0.5"]
        assert self.train_on(workspace, lines) == 2
        err = capsys.readouterr().err
        assert f"error: {workspace / 'bad.csv'}: feature rating: 'cheap' is not a number" in err

    def test_label_that_is_not_numeric(self, workspace, capsys):
        lines = ["price,rating,y", "1.0,2.0,0.5", "1.0,2.0,high"]
        assert self.train_on(workspace, lines) == 2
        assert f"{workspace / 'bad.csv'}: label column 'y' is not numeric" in capsys.readouterr().err

    def test_duplicated_header(self, workspace, capsys):
        lines = ["price,rating,price,y", "1.0,2.0,5.0,0.5"]
        assert self.train_on(workspace, lines) == 2
        err = capsys.readouterr().err
        assert f"{workspace / 'bad.csv'}: column 'price' appears more than once" in err

    @pytest.mark.parametrize("rows, message", [
        (["a,1,0.5", "a,0,0.2", "a,0,0.1"], "pair 'a' has 3 rows, expected 2"),
        (["a,1,0.5", "a,1,0.2"], "pair 'a' labels ['1', '1'] must be exactly one 1 and one 0"),
    ])
    def test_broken_two_row_pair(self, tmp_path, capsys, rows, message):
        schema = {"label": "won", "features": [{"name": "score"}]}
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        lines = ["match,won,score", "b,1,0.9", "b,0,0.3", *rows]
        assert self.train_on(tmp_path, lines, "--pair-id", "match") == 2
        assert f"error: {tmp_path / 'bad.csv'}: {message}" in capsys.readouterr().err


class TestRanking:
    def make_suffix_pairs(self, tmp_path, n=200, seed=3):
        rng = np.random.default_rng(seed)
        a, b = rng.random(n), rng.random(n)
        hi, lo = np.maximum(a, b) + 0.05, np.minimum(a, b)
        write_csv(
            tmp_path / "pairs.csv",
            ["score+", "score-"],
            [[repr(float(h)), repr(float(l))] for h, l in zip(hi, lo)],
        )
        schema = {"features": [{"name": "score", "monotone": "increasing", "keypoints": 3}]}
        (tmp_path / "rank_schema.json").write_text(json.dumps(schema))

    def test_suffix_layout(self, tmp_path, capsys):
        self.make_suffix_pairs(tmp_path)
        code = main([
            "train",
            "--data", str(tmp_path / "pairs.csv"),
            "--schema", str(tmp_path / "rank_schema.json"),
            "--out", str(tmp_path / "m.json"),
            "--pairs",
            "--loss", "logistic",
            "--epochs", "20",
            "--step-size", "0.5",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["train_metrics"]["pair_accuracy"] >= 0.9

    def test_two_row_layout(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rows = []
        for pid in range(150):
            a, b = sorted(rng.random(2))
            rows.append([str(pid), repr(float(b) + 0.05), "1"])
            rows.append([str(pid), repr(float(a)), "0"])
        write_csv(tmp_path / "duels.csv", ["match", "score", "won"], rows)
        schema = {
            "label": "won",
            "features": [{"name": "score", "monotone": "increasing", "keypoints": 3}],
        }
        (tmp_path / "duel_schema.json").write_text(json.dumps(schema))
        code = main([
            "train",
            "--data", str(tmp_path / "duels.csv"),
            "--schema", str(tmp_path / "duel_schema.json"),
            "--out", str(tmp_path / "m.json"),
            "--pair-id", "match",
            "--loss", "logistic",
            "--epochs", "20",
            "--step-size", "0.5",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["train_metrics"]["pair_accuracy"] >= 0.9


class TestMissingToken:
    def test_na_cells_with_vertex_policy(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        rows = []
        for _ in range(120):
            x = rng.random()
            if rng.random() < 0.15:
                rows.append(["NA", "0.4"])
            else:
                rows.append([repr(float(x)), repr(float(x))])
        write_csv(tmp_path / "gaps.csv", ["x", "y"], rows)
        schema = {
            "label": "y",
            "features": [
                {"name": "x", "monotone": "increasing", "missing": "vertex", "size": 3}
            ],
        }
        (tmp_path / "gap_schema.json").write_text(json.dumps(schema))
        code = main([
            "train",
            "--data", str(tmp_path / "gaps.csv"),
            "--schema", str(tmp_path / "gap_schema.json"),
            "--out", str(tmp_path / "m.json"),
            "--missing-token", "NA",
            "--epochs", "10",
        ])
        assert code == 0
        model = Model.load(tmp_path / "m.json")
        assert model.violations() == []
        assert np.isfinite(model.predict_row([float("nan")]))


@pytest.fixture(scope="module")
def mixed_model_doc():
    """A trained model with a PWL calibrator (learned missing value), a
    categorical one with an order pair, and a two-knot one, as JSON."""
    from monolattice import Dataset, FeatureSpec, TrainConfig, train

    rng = np.random.default_rng(5)
    n = 90
    signal = rng.random(n) * 5
    signal[::9] = np.nan
    bucket = list(rng.choice(["low", "mid", "high"], size=n))
    y = np.nan_to_num(signal / 5, nan=0.4) + np.where([b == "high" for b in bucket], 0.5, 0.0)
    specs = [
        FeatureSpec(name="signal", size=3, keypoints=4, monotone="increasing", missing="calibrated"),
        FeatureSpec(name="bucket", kind="categorical", size=2, order_pairs=[("low", "high")]),
        FeatureSpec(name="plain", size=2),
    ]
    data = Dataset([signal, bucket, rng.random(n)], y)
    model = train(data, specs, TrainConfig(epochs=3, step_size=0.2, seed=1))
    return json.loads(model.to_json())


def _set(path, value):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return corrupt


def _delete(path):
    def corrupt(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return corrupt


SIGNAL = ("features", 0, "calibrator")
BUCKET = ("features", 1, "calibrator", "category_values")

# (corruption, what the error names)
CORRUPTIONS = {
    "nan-theta": (_set(("theta", 2), float("nan")), "theta[2] is not finite"),
    "inf-output": (_set((*SIGNAL, "outputs", 1), float("inf")), "'signal': outputs[1] is not finite"),
    "nan-knot": (_set((*SIGNAL, "knots", 2), float("nan")), "'signal': knots[2] is not finite"),
    "reversed-knots": (_set((*SIGNAL, "knots"), lambda k: k[::-1]), "'signal': knots are not strictly"),
    "knot-count": (_set((*SIGNAL, "knots"), lambda k: k[:-1]), "'signal': 3 knots and 4 outputs"),
    "decreasing-outputs": (_set((*SIGNAL, "outputs"), [0.0, 1.5, 0.5, 2.0]), "'signal': outputs decrease"),
    "output-below-axis": (_set((*SIGNAL, "outputs", 0), -5.0), "'signal': outputs leave [0, 2]"),
    "output-above-axis": (_set((*SIGNAL, "outputs", 3), 2.5), "'signal': outputs leave [0, 2]"),
    "missing-value-range": (_set((*SIGNAL, "missing_value"), 9.0), "'signal': missing_value 9.0"),
    "missing-value-nan": (_set((*SIGNAL, "missing_value"), float("nan")), "'signal': missing_value nan"),
    "category-range": (_set((*BUCKET, "mid"), 1.5), "'bucket': category_values leave [0, 1]"),
    "category-nan": (_set((*BUCKET, "mid"), float("nan")), "'bucket': category_values[1] is not finite"),
    "order-pair": (
        lambda doc: (_set((*BUCKET, "low"), 1.0)(doc), _set((*BUCKET, "high"), 0.0)(doc)),
        "'bucket': category_values break the order pair ('low', 'high')",
    ),
    "category-order-repeat": (
        _set(("features", 1, "calibrator", "category_order"), lambda order: order + ["low"]),
        "'bucket': category_order repeats 'low'",
    ),
    "order-pair-unknown": (
        _set(("features", 1, "order"), [["low", "nowhere"]]),
        "'bucket': order pair ('low', 'nowhere') names an unknown category",
    ),
    "lattice-size": (_set(("lattice", 0), 4), "do not match the feature sizes"),
    # each entry the loader reads, deleted
    "no-theta": (_delete(("theta",)), "model file has no 'theta' entry"),
    "no-lattice": (_delete(("lattice",)), "model file has no 'lattice' entry"),
    "no-keypoints": (_delete(("features", 0, "keypoints")), "model file has no 'keypoints' entry"),
    "no-calibrator": (_delete(("features", 1, "calibrator")), "model file has no 'calibrator' entry"),
    "no-knots": (_delete((*SIGNAL, "knots")), "model file has no 'knots' entry"),
    # values of the wrong type or arity fail inside parsing, not in a check
    "order-pair-arity": (_set(("features", 1, "order"), [["low"]]), "malformed model file"),
    "category-values-list": (_set(BUCKET, lambda values: list(values.values())), "malformed model file"),
    "size-infinite": (_set(("features", 0, "size"), float("inf")), "malformed model file"),
    # text and bools that numpy would read as numbers
    "text-knot": (_set((*SIGNAL, "knots", 1), str), "malformed model file: feature 'signal': knots[1] is '"),
    "bool-output": (
        _set((*SIGNAL, "outputs", 0), False),
        "malformed model file: feature 'signal': outputs[0] is False, not a number",
    ),
    "text-category-value": (
        _set((*BUCKET, "mid"), str), "malformed model file: feature 'bucket': category_values[1] is '",
    ),
    "bool-theta": (_set(("theta", 0), True), "malformed model file: theta[0] is True, not a number"),
    "naive-interpolation": (
        _set(("interpolation",), "multilinear-naive"),
        "interpolation 'multilinear-naive' is not one of multilinear, simplex",
    ),
    "loss": (_set(("loss",), "cubic"), "loss 'cubic' is not one of squared, logistic, hinge"),
    "feature-kind": (
        _set(("features", 0, "kind"), "ordinal"),
        "feature 'signal': kind 'ordinal' is not one of continuous, categorical",
    ),
    "feature-monotone": (
        _set(("features", 0, "monotone"), "up"),
        "feature 'signal': monotone 'up' is not one of increasing, decreasing, none",
    ),
    "feature-missing": (
        _set(("features", 0, "missing"), "drop"),
        "feature 'signal': missing 'drop' is not one of none, calibrated, vertex",
    ),
}


class TestCorruptedModelFiles:
    @pytest.mark.parametrize("case", list(CORRUPTIONS))
    def test_check_exits_two_and_names_the_field(self, mixed_model_doc, tmp_path, capsys, case):
        corrupt, message = CORRUPTIONS[case]
        doc = json.loads(json.dumps(mixed_model_doc))
        corrupt(doc)
        with pytest.raises(DataError) as err:
            Model.from_json(json.dumps(doc))
        assert message in str(err.value)
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_uncorrupted_file_passes(self, mixed_model_doc, tmp_path, capsys):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(mixed_model_doc))
        assert main(["check", "--model", str(path)]) == 0


# values of a feature entry that the spec refuses, in a model file and in a
# schema file alike: (feature, key, value, what the error says); each would
# otherwise load and save back as another value, or unchecked
SPEC_VALUES = {
    "size-float": (0, "size", 2.9, "feature 'signal': size 2.9 is not an integer"),
    "size-text": (0, "size", "2", "feature 'signal': size '2' is not an integer"),
    "keypoints-float": (0, "keypoints", 3.7, "feature 'signal': keypoints 3.7 is not an integer"),
    "keypoints-text": (0, "keypoints", "3", "feature 'signal': keypoints '3' is not an integer"),
    "allow-unseen-no": (1, "allow_unseen", "no", "feature 'bucket': allow_unseen 'no' is not true"),
    "allow-unseen-false": (
        1, "allow_unseen", "false", "feature 'bucket': allow_unseen 'false' is not true",
    ),
    "categories-text": (1, "categories", "abc", "feature 'bucket': categories 'abc' is not null"),
    "bounds-text": (0, "bounds", ["a", "b"], "feature 'signal': bounds ['a', 'b'] is not null"),
    "bounds-three": (0, "bounds", [0, 1, 2], "feature 'signal': bounds [0, 1, 2] is not null"),
    # a pair out of order: refused at fit, and against the knots in a model
    "bounds-reversed": (0, "bounds", [1, 0], "bounds [1, 0]"),
    "name-number": (0, "name", 5, "feature name 5 is not text"),
}


class TestRefusedSpecValues:
    @pytest.mark.parametrize("case", list(SPEC_VALUES))
    def test_check_exits_two_and_names_the_field(self, mixed_model_doc, tmp_path, capsys, case):
        d, key, value, message = SPEC_VALUES[case]
        doc = json.loads(json.dumps(mixed_model_doc))
        doc["features"][d][key] = value
        with pytest.raises(DataError) as err:
            Model.from_json(json.dumps(doc))
        feature = doc["features"][d]["name"]
        assert message in str(err.value) and (key == "name" or feature in str(err.value))
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", [None, *SPEC_VALUES])
    def test_train_exits_two_and_names_the_field(self, mixed_model_doc, tmp_path, capsys, case):
        # the model file's feature entries, less their calibrators, as a schema
        features = [
            {k: v for k, v in f.items() if k != "calibrator"} for f in mixed_model_doc["features"]
        ]
        if case is not None:
            d, key, value, message = SPEC_VALUES[case]
            features[d][key] = value
        (tmp_path / "schema.json").write_text(json.dumps({"label": "y", "features": features}))
        rng = np.random.default_rng(3)
        rows = [["" if i % 7 == 0 else repr(rng.random() * 5), ["low", "mid", "high"][i % 3],
                 repr(rng.random()), repr(rng.random())] for i in range(40)]
        write_csv(tmp_path / "train.csv", ["signal", "bucket", "plain", "y"], rows)
        code = main(["train", "--data", str(tmp_path / "train.csv"),
                     "--schema", str(tmp_path / "schema.json"),
                     "--out", str(tmp_path / "m.json"), "--epochs", "1"])
        if case is None:
            assert code == 0
            return
        err = capsys.readouterr().err
        assert code == 2 and message in err
        assert key == "name" or features[d]["name"] in err
