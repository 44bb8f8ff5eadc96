"""End-to-end acceptance checks, one test per shipped guarantee.

Each test carries its tolerance inline; the conftest prints a one-line
PASS/FAIL verdict per criterion at the end of the run.
"""

import csv
import json
import time
from math import fsum

import numpy as np
import pytest

from monolattice import (
    Dataset,
    Direction,
    FeatureKind,
    FeatureSpec,
    InterpolationKind,
    LatticeShape,
    RegularizerKind,
    TrainConfig,
    build_constraints,
    evaluate_metrics,
    locate_cell,
    max_infeasibility,
    model_objective,
    parallel_train,
    regularizer_gradient,
    regularizer_terms,
    regularizer_value,
    sample_regularizer_subgradient,
    train,
    vertex_coords,
)
from monolattice.bench import bench_interpolation
from monolattice.cli import main as cli_main
from monolattice.interpolation import (
    multilinear_weights,
    simplex_weights,
)

from scalar_reference import multilinear_weights_naive_batch


def cont(name, **kw):
    base = dict(name=name, kind=FeatureKind.CONTINUOUS, size=2, keypoints=2)
    base.update(kw)
    return FeatureSpec(**base)


def test_c01_fast_multilinear_matches_naive_up_to_12_dims():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for D in range(1, 13):
        shape = LatticeShape((2,) * D)
        points = rng.random((10_000, D))
        chunk = 1024 if D >= 11 else 10_000
        for lo in range(0, len(points), chunk):
            block = points[lo : lo + chunk]
            reference = multilinear_weights_naive_batch(block)
            for i, x in enumerate(block):
                sw = multilinear_weights(shape, locate_cell(shape, x))
                got = np.asarray(sw.weights)
                assert np.max(np.abs(got - reference[i])) <= 1e-12
        # spot-check the vertex indices behind the weights
        for x in points[:5]:
            sw = multilinear_weights(shape, locate_cell(shape, x))
            assert sw.indices == list(range(1 << D))
    assert time.monotonic() - started < 60.0


def test_c02_weights_are_convex_and_reproduce_the_point():
    rng = np.random.default_rng(202)
    total = 0
    for D in range(1, 13):
        count = 8334 if D <= 4 else 8333
        total += count
        sizes = tuple(2 + (D + k) % 3 for k in range(D))
        shape = LatticeShape(sizes)
        top = np.array(sizes, dtype=float) - 1.0
        points = rng.random((count, D)) * top
        bits = ((np.arange(1 << D)[None, :] >> np.arange(D)[:, None]) & 1).T.astype(float)
        for x in points:
            loc = locate_cell(shape, x)
            base = np.asarray(loc.base, dtype=float)

            sw = multilinear_weights(shape, loc)
            w = np.asarray(sw.weights)
            assert abs(fsum(sw.weights) - 1.0) <= 1e-12
            assert np.all(w >= 0.0)
            rebuilt = base + bits.T @ w
            assert np.max(np.abs(rebuilt - x)) <= 1e-12

            sw = simplex_weights(shape, loc)
            assert abs(fsum(sw.weights) - 1.0) <= 1e-12
            assert min(sw.weights) >= 0.0
            coords = np.array([vertex_coords(shape, i) for i in sw.indices], dtype=float)
            rebuilt = coords.T @ np.asarray(sw.weights)
            assert np.max(np.abs(rebuilt - x)) <= 1e-12
    assert total == 100_000


def test_c03_simplex_worked_example():
    shape = LatticeShape((2, 2, 2))
    loc = locate_cell(shape, (0.8, 0.2, 0.3))
    sw = simplex_weights(shape, loc)
    expected = [
        ((0, 0, 0), 0.2),
        ((1, 0, 0), 0.5),
        ((1, 0, 1), 0.1),
        ((1, 1, 1), 0.2),
    ]
    got = [(vertex_coords(shape, i), w) for i, w in zip(sw.indices, sw.weights)]
    assert [c for c, _ in got] == [c for c, _ in expected]
    for (_, w), (_, e) in zip(got, expected):
        assert abs(w - e) <= 1e-12


@pytest.mark.parametrize("kind", [InterpolationKind.MULTILINEAR, InterpolationKind.SIMPLEX])
def test_c04_trained_models_are_monotone_everywhere(kind):
    rng = np.random.default_rng(404)
    n = 900
    x0, x1, x2 = rng.random(n), rng.random(n), rng.random(n)
    y = x0**0.7 + 0.8 * x1 - 0.6 * x2 + 0.05 * rng.standard_normal(n)
    data = Dataset([x0, x1, x2], y)
    specs = [
        cont("up_a", size=3, keypoints=4, monotone=Direction.INCREASING),
        cont("up_b", size=2, keypoints=4, monotone=Direction.INCREASING),
        cont("down", size=2, keypoints=4, monotone=Direction.DECREASING),
    ]
    config = TrainConfig(kind=kind, epochs=12, minibatch_size=32, step_size=0.25, seed=4)
    model = train(data, specs, config)
    assert model.violations(tolerance=1e-12) == []

    probe_rng = np.random.default_rng(405)
    signs = (1.0, 1.0, -1.0)
    for d in range(3):
        xs = probe_rng.random((10_000, 3))
        deltas = probe_rng.uniform(1e-4, 0.25, size=10_000)
        for x, delta in zip(xs, deltas):
            row = list(x)
            bumped = list(x)
            bumped[d] += delta
            diff = model.predict_row(bumped) - model.predict_row(row)
            assert signs[d] * diff >= -1e-9


def test_c05_constraint_row_count_on_unit_cubes():
    for D in range(1, 11):
        shape = LatticeShape((2,) * D)
        cs = build_constraints(shape, (Direction.INCREASING,) * D)
        assert cs.num_rows == D * 2 ** (D - 1)


def test_c06_regularizer_gradients_match_finite_differences():
    rng = np.random.default_rng(606)
    shapes = [(2,), (3,), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 3, 3)]
    h = 1e-6
    for sizes in shapes:
        shape = LatticeShape(sizes)
        theta = rng.standard_normal(shape.num_parameters)
        for kind in RegularizerKind:
            terms = regularizer_terms(shape, kind)
            grad = regularizer_gradient(theta, terms)
            for j in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (regularizer_value(up, terms) - regularizer_value(dn, terms)) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    # a linear surface has no curvature to penalize; dyadic slopes keep the
    # floating-point cancellation exact
    shape = LatticeShape((3, 3, 3))
    slopes = np.array([0.5, -0.25, 1.0])
    theta = np.array(
        [slopes @ vertex_coords(shape, i) for i in range(shape.num_parameters)]
    )
    torsion = regularizer_terms(shape, RegularizerKind.TORSION)
    assert regularizer_value(theta, torsion) == 0.0


def test_c07_single_term_sampling_is_unbiased():
    rng = np.random.default_rng(707)
    shape = LatticeShape((3, 3))
    theta = rng.standard_normal(9)
    terms = regularizer_terms(shape, RegularizerKind.LAPLACIAN)
    full = regularizer_gradient(theta, terms)

    draws = 100_000
    acc = np.zeros(9)
    acc_sq = np.zeros(9)
    for _ in range(draws):
        g = sample_regularizer_subgradient(theta, terms, 1, rng)
        acc += g
        acc_sq += g * g
    mean = acc / draws
    variance = np.maximum(acc_sq / draws - mean**2, 0.0)
    stderr = np.sqrt(variance / draws)
    assert np.all(np.abs(mean - full) <= 3.0 * stderr + 1e-15)


def test_c08_full_batch_descent_solves_the_normal_equations():
    data_rng = np.random.default_rng(808)
    n = 128
    a, b = data_rng.random(n), data_rng.random(n)
    y = a * b + 0.2 * a + 0.05 * data_rng.standard_normal(n)
    data = Dataset([a, b], y)
    specs = [cont("a", bounds=(0.0, 1.0)), cont("b", bounds=(0.0, 1.0))]
    config = TrainConfig(
        epochs=900, minibatch_size=10**6, step_size=0.5, calibrator_step_scale=0.0
    )
    model = train(data, specs, config)
    assert np.asarray(model.theta).size <= 16

    phi = multilinear_weights_naive_batch(np.column_stack([a, b]))
    target, *_ = np.linalg.lstsq(phi, y, rcond=None)
    rmse = float(np.sqrt(np.mean((np.asarray(model.theta) - target) ** 2)))
    assert rmse <= 1e-4


def test_c09_calibrated_two_by_two_fits_the_synthetic_surface():
    rng = np.random.default_rng(909)

    def sample(n):
        x0, x1 = rng.random(n), rng.random(n)
        y = x0 * x1 + 0.3 * x0 + 0.1 * rng.standard_normal(n)
        return Dataset([x0, x1], y)

    train_data, test_data = sample(2000), sample(2000)
    base = dict(epochs=30, minibatch_size=64, step_size=0.3, seed=9)
    monotone = [
        cont("x0", keypoints=4, monotone=Direction.INCREASING),
        cont("x1", keypoints=4, monotone=Direction.INCREASING),
    ]
    free = [cont("x0", keypoints=4), cont("x1", keypoints=4)]
    constrained = train(train_data, monotone, TrainConfig(**base))
    unconstrained = train(train_data, free, TrainConfig(**base))

    rmse_con = evaluate_metrics(constrained, test_data)["rmse"]
    rmse_fre = evaluate_metrics(unconstrained, test_data)["rmse"]
    assert rmse_con <= 0.12
    assert rmse_con <= rmse_fre + 0.01


def test_c10_averaged_workers_stay_close_and_feasible():
    rng = np.random.default_rng(1010)
    n = 200
    a, b = rng.random(n), rng.random(n)
    y = a * b + 0.3 * a + 0.1 * rng.standard_normal(n)
    data = Dataset([a, b], y)
    specs = [
        cont("a", keypoints=4, monotone=Direction.INCREASING),
        cont("b", keypoints=4, monotone=Direction.INCREASING),
    ]
    base = dict(epochs=60, minibatch_size=8, step_size=0.3, seed=21)
    solo = parallel_train(data, specs, TrainConfig(workers=1, **base))
    quad = parallel_train(data, specs, TrainConfig(workers=4, sync_rounds=12, **base))

    cfg = TrainConfig(workers=1, **base)
    o1 = model_objective(solo, data, cfg)
    o4 = model_objective(quad, data, cfg)
    assert o4 <= 1.05 * o1

    assert quad.violations(tolerance=0.0) == []
    assert max_infeasibility(np.asarray(quad.theta), quad.constraints()) <= 0.0


def test_c11_simplex_outruns_multilinear_in_high_dimensions():
    started = time.monotonic()
    rows = bench_interpolation(
        min_d=8,
        max_d=13,
        kinds=(InterpolationKind.MULTILINEAR, InterpolationKind.SIMPLEX),
        target_time=0.05,
        repeats=3,
        seed=0,
    )
    by_cell = {(r.d, r.kind): r.ns_per_op for r in rows}
    ratios = {
        d: by_cell[(d, InterpolationKind.MULTILINEAR)] / by_cell[(d, InterpolationKind.SIMPLEX)]
        for d in range(8, 14)
    }
    assert ratios[9] > 5.0
    assert ratios[13] > 50.0
    for d in range(8, 13):
        assert ratios[d + 1] >= ratios[d]
    assert time.monotonic() - started < 300.0


def test_c12_identical_flags_yield_identical_model_files(tmp_path):
    rng = np.random.default_rng(1212)
    n = 150
    rows = [
        [repr(float(p)), c, repr(float(v))]
        for p, c, v in zip(
            rng.random(n) * 9,
            rng.choice(["red", "green", "blue"], size=n),
            rng.random(n),
        )
    ]
    with open(tmp_path / "train.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["amount", "tint", "y"])
        writer.writerows(rows)
    schema = {
        "label": "y",
        "features": [
            {"name": "amount", "monotone": "increasing", "keypoints": 4},
            {"name": "tint", "kind": "categorical"},
        ],
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema))

    def run(out):
        code = cli_main([
            "train",
            "--data", str(tmp_path / "train.csv"),
            "--schema", str(tmp_path / "schema.json"),
            "--out", str(tmp_path / out),
            "--epochs", "6",
            "--seed", "3",
            "--workers", "2",
            "--sync-rounds", "2",
            "--regularizer", "laplacian:0.01",
        ])
        assert code == 0

    run("first.json")
    run("second.json")
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
