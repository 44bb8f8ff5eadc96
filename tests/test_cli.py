import csv
import json

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
        model.theta = np.array([0.0, 1.0, 0.4, 0.4])
        model.save(workspace / "bad.json")
        code = main(["check", "--model", str(workspace / "bad.json")])
        assert code == 1
        out = capsys.readouterr().out
        assert "violation: theta[1, 0]=1 > theta[1, 1]=0.4 (gap 0.6)" in out
        assert out.strip().endswith("1 violations")


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

    def test_diverging_run_exits_three(self, workspace, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_train(workspace, "m.json", "--step-size", "1e200")
        assert code == 3
        assert "error:" in capsys.readouterr().err


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
    "order-pair-unknown": (
        _set(("features", 1, "order"), [["low", "nowhere"]]),
        "'bucket': order pair ('low', 'nowhere') names an unknown category",
    ),
    "lattice-size": (_set(("lattice", 0), 4), "do not match the feature sizes"),
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
