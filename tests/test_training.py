import importlib.util
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    CalibratorSet,
    DataError,
    Dataset,
    Direction,
    FeatureKind,
    FeatureSpec,
    InterpolationKind,
    LatticeShape,
    Loss,
    MissingPolicy,
    PairDataset,
    RegularizerConfig,
    RegularizerKind,
    TrainConfig,
    TrainingError,
    evaluate_metrics,
    init_lattice,
    load_dataset,
    load_pair_dataset,
    load_schema,
    loss_value,
    max_infeasibility,
    model_objective,
    parallel_train,
    project_update,
    regularizer_terms,
    regularizer_value,
    train,
    vertex_coords,
)
from monolattice import interpolation, monotonicity, regularizers, training
from monolattice.interpolation import ChunkBuffers, evaluate
from monolattice.training import loss_gradients, prepare_state, sgd_step
from scalar_reference import (
    loss_slope,
    minus_row,
    multilinear_weights_naive_batch,
    plus_row,
    reference_array_walk,
    reference_component_walk,
    reference_loss_gradients,
    reference_project_update,
    reference_train,
)


def spec(name, **kw):
    base = dict(name=name, kind=FeatureKind.CONTINUOUS, size=2, keypoints=2)
    base.update(kw)
    return FeatureSpec(**base)


def line_data(n, fn, seed=0, d=1, noise=0.0):
    rng = np.random.default_rng(seed)
    cols = [rng.random(n) for _ in range(d)]
    y = fn(*cols) + noise * rng.standard_normal(n)
    return Dataset([c for c in cols], y)


class TestLosses:
    def test_squared(self):
        assert loss_value(Loss.SQUARED, 1.0, 0.25) == pytest.approx(0.5625)
        assert loss_slope(Loss.SQUARED, 1.0, 0.25) == pytest.approx(-1.5)

    def test_logistic_values(self):
        assert loss_value(Loss.LOGISTIC, 1.0, 0.0) == pytest.approx(math.log(2))
        assert loss_value(Loss.LOGISTIC, 0.0, 0.0) == pytest.approx(math.log(2))
        assert loss_value(Loss.LOGISTIC, 1.0, 3.0) == pytest.approx(math.log1p(math.exp(-3.0)))

    def test_logistic_slope_bounded_and_stable(self):
        for z in (-800.0, -5.0, 0.0, 5.0, 800.0):
            for y in (0.0, 1.0):
                s = loss_slope(Loss.LOGISTIC, y, z)
                assert math.isfinite(s)
                assert abs(s) <= 1.0
        assert loss_slope(Loss.LOGISTIC, 1.0, 0.0) == pytest.approx(-0.5)
        assert loss_slope(Loss.LOGISTIC, 1.0, -800.0) == pytest.approx(-1.0)

    def test_logistic_slope_is_derivative(self):
        eps = 1e-6
        for y in (0.0, 1.0):
            for z in (-2.0, -0.3, 0.0, 1.7):
                fd = (loss_value(Loss.LOGISTIC, y, z + eps) - loss_value(Loss.LOGISTIC, y, z - eps)) / (2 * eps)
                assert loss_slope(Loss.LOGISTIC, y, z) == pytest.approx(fd, rel=1e-5)

    def test_hinge(self):
        assert loss_value(Loss.HINGE, 1.0, 0.25) == pytest.approx(0.75)
        assert loss_value(Loss.HINGE, 1.0, 2.0) == 0.0
        assert loss_slope(Loss.HINGE, 1.0, 0.25) == -1.0
        assert loss_slope(Loss.HINGE, 1.0, 2.0) == 0.0
        assert loss_slope(Loss.HINGE, 0.0, -3.0) == 0.0
        assert loss_slope(Loss.HINGE, 0.0, 0.5) == 1.0


    @pytest.mark.parametrize("loss", list(Loss))
    def test_batch_slopes_equal_the_scalar_slope(self, loss):
        # training's slopes of a chunk of samples, scaled, against
        # loss_slope sample by sample, by bytes; z holds +-0.0, the hinge
        # kink and values far out
        rng = np.random.default_rng(21)
        for _ in range(200):
            y = rng.random(64) if loss is Loss.SQUARED else rng.integers(0, 2, 64).astype(float)
            z = rng.choice([0.0, -0.0, 1.0, -1.0, 800.0, -800.0], 64)
            z = np.where(rng.random(64) < 0.5, rng.standard_normal(64) * 3, z)
            scale = rng.choice([1.0 / 3, 1.0 / 32, 0.5], 64)
            want = np.array([loss_slope(loss, a, b) * c for a, b, c in zip(y, z, scale)])
            assert training._loss_slopes(loss, y, z, scale).tobytes() == want.tobytes()


class TestInitLattice:
    def test_two_by_two_increasing(self):
        shape = LatticeShape((2, 2))
        theta = init_lattice(shape, (Direction.INCREASING, Direction.INCREASING))
        assert theta == pytest.approx([0.0, 0.5, 0.5, 1.0])

    def test_all_free_starts_at_zero(self):
        shape = LatticeShape((3, 2))
        theta = init_lattice(shape, (Direction.NONE, Direction.NONE))
        assert theta == pytest.approx([0.0] * 6)

    def test_decreasing_flips(self):
        shape = LatticeShape((2,))
        theta = init_lattice(shape, (Direction.DECREASING,))
        assert theta == pytest.approx([1.0, 0.0])

    def test_mixed_three_wide(self):
        shape = LatticeShape((3, 2))
        theta = init_lattice(shape, (Direction.INCREASING, Direction.NONE))
        assert theta == pytest.approx([0.0, 0.5, 1.0, 0.0, 0.5, 1.0])

    def test_starts_feasible(self):
        from monolattice import build_constraints

        shape = LatticeShape((3, 2, 2))
        dirs = (Direction.INCREASING, Direction.DECREASING, Direction.NONE)
        theta = init_lattice(shape, dirs)
        con = build_constraints(shape, dirs)
        assert max_infeasibility(np.asarray(theta), con) == 0.0

    def test_built_once_per_shape_and_shared_read_only(self):
        shape = LatticeShape((3, 2))
        theta = init_lattice(shape, (Direction.INCREASING, Direction.NONE))
        assert init_lattice(shape, ["increasing", "none"]) is theta
        with pytest.raises(ValueError):
            theta[0] = 1.0
        assert training._linear_start.cache_parameters()["maxsize"] is not None


class TestGradients:
    def make_state(self, data, specs, **cfg):
        config = TrainConfig(**cfg)
        return prepare_state(data, specs, config), config

    def test_hand_worked_full_batch(self):
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        state, _ = self.make_state(data, specs, minibatch_size=100)
        state.theta[:] = 0.0
        g_theta, g_alpha = loss_gradients(state, {0: np.array([0, 1])})
        # residuals (0, -1); sample 0 puts all weight on vertex 0, sample 1 on vertex 1
        assert g_theta[0] == pytest.approx([0.0, -1.0])
        assert g_alpha.size == 0

    def test_step_moves_against_gradient(self):
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        state, _ = self.make_state(data, specs, minibatch_size=100, step_size=0.1)
        state.theta[:] = 0.0
        sgd_step(state, {0: np.array([0, 1])}, [np.random.default_rng(0)])
        assert state.theta[0] == pytest.approx([0.0, 0.1])

    def test_gradient_support_is_sparse(self):
        data = line_data(64, lambda a, b: a + b, d=2)
        specs = [spec("a", size=4), spec("b", size=4)]
        state, _ = self.make_state(data, specs)
        g_theta, _ = loss_gradients(state, {0: np.array([3])})
        assert np.count_nonzero(g_theta) <= 4

    def test_alpha_gradient_matches_finite_difference(self):
        data = line_data(32, lambda a: np.sin(3 * a), seed=5)
        specs = [spec("x", size=3, keypoints=5)]
        state, _ = self.make_state(data, specs, minibatch_size=1000)
        rng = np.random.default_rng(7)
        state.theta[:] = rng.random(state.theta.size) * 2
        batch = np.arange(32)
        _, (g_alpha,) = loss_gradients(state, {0: batch})
        cs = state.calibrators
        alpha = cs.at_free(state.table[0])
        eps = 1e-6

        def batch_loss(alpha):
            table = state.table[0].copy()
            cs.put_free(table, alpha)
            calibrators = cs.with_table(table)
            total = 0.0
            for i in batch:
                x = calibrators.calibrate_row(state.data.row(i))
                z = evaluate(state.theta[0].tolist(), state.shape, x)
                total += loss_value(Loss.SQUARED, float(state.data.labels[i]), z)
            return total / batch.size

        for j in range(alpha.size):
            up, dn = alpha.copy(), alpha.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (batch_loss(up) - batch_loss(dn)) / (2 * eps)
            assert g_alpha[j] == pytest.approx(fd, abs=1e-6)

    def test_regularizer_enters_step(self):
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        reg = RegularizerConfig(RegularizerKind.LAPLACIAN, weight=0.5)
        state, _ = self.make_state(
            data, specs, minibatch_size=100, step_size=0.1, regularizers=(reg,)
        )
        state.theta[:] = np.array([0.0, 2.0])
        sgd_step(state, {0: np.array([0, 1])}, [np.random.default_rng(0)])
        # loss grad (0, 1); laplacian grad 0.5 * 2*(theta0-theta1)*(1,-1) = (-2, 2)
        assert state.theta[0] == pytest.approx([0.2, 1.7])

    def test_non_finite_step_raises(self):
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1e308]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        state, _ = self.make_state(data, specs, minibatch_size=100, step_size=1e308)
        with pytest.raises(TrainingError), np.errstate(over="ignore", invalid="ignore"):
            sgd_step(state, {0: np.array([0, 1])}, [np.random.default_rng(0)])

    def test_overflowing_calibrator_step_raises(self):
        # step size times calibrator scale overflows; the gradient is finite
        data, specs = mixed_problem(False, Loss.SQUARED)
        state, _ = self.make_state(data, specs, step_size=10.0, calibrator_step_scale=1e308)
        assert state.trains_calibrators
        with pytest.raises(TrainingError, match="non-finite step; lower the step size"):
            sgd_step(state, {0: np.arange(16)}, [np.random.default_rng(0)])


class TestTrainingErrors:
    # a 3-vertex chain whose second round's first step overflows
    DATA = Dataset([np.array([0.0, 0.5, 1.0])], np.array([1.0, 0.0, 1.0]))
    SPECS = [spec("x", monotone=Direction.INCREASING, size=3, bounds=(0.0, 1.0))]
    OVERFLOW = TrainConfig(step_size=1e308, calibrator_step_scale=0, epochs=2,
                           minibatch_size=1, workers=2, sync_rounds=2)

    def test_overflowing_step_fails_and_says_where(self):
        message = "non-finite step; lower the step size (round 2, worker 1, epoch 2, step 1)"
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(self.DATA, self.SPECS, self.OVERFLOW)

    @pytest.mark.parametrize("size", [2, 3])
    def test_huge_labels_raise_only_a_training_error(self, size):
        # the second step's calibrator gradient overflows (slope times dfdx,
        # then inf * 0 and inf - inf in the scatter); pytest's filter turns
        # any numpy RuntimeWarning on the way into an error
        rng = np.random.default_rng(0)
        u, v = rng.random(40), rng.random(40)
        specs = [spec("a", monotone=Direction.INCREASING, keypoints=5, size=size),
                 spec("b", keypoints=5, size=size)]
        message = "non-finite gradient; lower the step size (round 1, worker 1, epoch 1, step 2)"
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(Dataset([u, v], 1e200 * u), specs, TrainConfig(step_size=0.5))

    def test_steps_and_epochs_count_from_one_across_rounds(self, monkeypatch):
        calls = []

        def failing(state, batches, rngs):
            calls.append(len(batches[0]))
            if len(calls) == 5:
                raise TrainingError("boom")
            return state

        monkeypatch.setattr(training, "sgd_step", failing)
        config = TrainConfig(epochs=3, minibatch_size=1, workers=1, sync_rounds=2)
        # round 1 runs epochs 1-2, three steps each; the fifth step is epoch 2, step 2
        with pytest.raises(TrainingError, match=re.escape("boom (round 1, worker 1, epoch 2, step 2)")):
            train(self.DATA, self.SPECS, config)


class TestTrain:
    def test_identity_line(self):
        data = line_data(256, lambda a: a, seed=1)
        specs = [spec("x", monotone=Direction.INCREASING, bounds=(0.0, 1.0))]
        config = TrainConfig(epochs=80, minibatch_size=32, step_size=0.3, seed=0)
        model = train(data, specs, config)
        assert model.theta[0] == pytest.approx(0.0, abs=2e-2)
        assert model.theta[1] == pytest.approx(1.0, abs=2e-2)

    def test_zero_step_keeps_initialization(self):
        data = line_data(16, lambda a: a)
        specs = [spec("x", monotone=Direction.INCREASING, bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        assert model.theta == pytest.approx([0.0, 1.0])

    def test_anti_monotone_target_flattens(self):
        data = line_data(256, lambda a: 1.0 - a, seed=2)
        specs = [spec("x", monotone=Direction.INCREASING, bounds=(0.0, 1.0))]
        config = TrainConfig(epochs=80, minibatch_size=32, step_size=0.3, seed=0)
        model = train(data, specs, config)
        assert model.theta[1] - model.theta[0] >= -1e-12
        assert model.theta[1] - model.theta[0] == pytest.approx(0.0, abs=5e-2)
        assert np.mean(model.theta) == pytest.approx(0.5, abs=5e-2)

    def test_full_batch_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        data = line_data(128, lambda a, b: a * b + 0.2 * a, seed=3, d=2)
        specs = [spec("a", bounds=(0.0, 1.0)), spec("b", bounds=(0.0, 1.0))]
        config = TrainConfig(
            epochs=600, minibatch_size=10**6, step_size=0.5, calibrator_step_scale=0.0
        )
        model = train(data, specs, config)

        pts = np.column_stack([data.columns[0], data.columns[1]])
        phi = multilinear_weights_naive_batch(pts)
        target, *_ = np.linalg.lstsq(phi, data.labels, rcond=None)
        rmse = float(np.sqrt(np.mean((np.asarray(model.theta) - target) ** 2)))
        assert rmse <= 1e-4

    def test_full_batch_ridge_closed_form(self):
        data = line_data(96, lambda a: 0.7 * a, seed=4)
        lam = 0.05
        reg = RegularizerConfig(RegularizerKind.LAPLACIAN, weight=lam)
        specs = [spec("x", size=4, bounds=(0.0, 1.0))]
        config = TrainConfig(
            epochs=1500,
            minibatch_size=10**6,
            step_size=0.4,
            calibrator_step_scale=0.0,
            regularizers=(reg,),
        )
        model = train(data, specs, config)

        from monolattice import LatticeShape, locate_cell
        from monolattice.interpolation import interpolation_weights

        shape = LatticeShape((4,))
        n = data.num_rows
        phi = np.zeros((n, 4))
        for i in range(n):
            x = model.calibrators.calibrate_row(data.row(i))
            sw = interpolation_weights(shape, locate_cell(shape, x), InterpolationKind.MULTILINEAR)
            for j, w in zip(sw.indices, sw.weights):
                phi[i, j] = w
        terms = regularizer_terms(shape, RegularizerKind.LAPLACIAN)
        K = np.zeros((4, 4))
        for combo in terms.indices:
            s = np.zeros(4)
            s[combo] = terms.signs
            K += np.outer(s, s)
        A = 2 * phi.T @ phi / n + 2 * lam * K
        b = 2 * phi.T @ data.labels / n
        target = np.linalg.solve(A, b)
        rmse = float(np.sqrt(np.mean((np.asarray(model.theta) - target) ** 2)))
        assert rmse <= 1e-4

    def test_feasible_throughout_training(self):
        data = line_data(64, lambda a, b: a + b - a * b, seed=6, d=2, noise=0.05)
        specs = [
            spec("a", monotone=Direction.INCREASING, size=3, keypoints=4),
            spec("b", monotone=Direction.DECREASING, size=2, keypoints=3),
        ]
        config = TrainConfig(epochs=1, minibatch_size=8, step_size=0.25, seed=11)
        state = prepare_state(data, specs, config)
        rng = np.random.default_rng(11)
        for _ in range(40):
            batch = rng.integers(0, 64, size=8)
            sgd_step(state, {0: batch}, [rng])
            assert max_infeasibility(state.theta[0], state.theta_constraints) <= 1e-12
            assert max_infeasibility(state.calibrators.alpha(), state.alpha_constraints) <= 1e-12

    def test_sampled_regularizer_tracks_full(self):
        data = line_data(128, lambda a, b: a * b, seed=7, d=2, noise=0.02)
        specs = [spec("a", size=3), spec("b", size=3)]
        full = RegularizerConfig(RegularizerKind.HESSIAN, weight=0.02)
        sampled = RegularizerConfig(RegularizerKind.HESSIAN, weight=0.02, sample_count=2)
        base = dict(epochs=60, minibatch_size=16, step_size=0.2, seed=9)
        m_full = train(data, specs, TrainConfig(regularizers=(full,), **base))
        m_samp = train(data, specs, TrainConfig(regularizers=(sampled,), **base))
        cfg_eval = TrainConfig(regularizers=(full,), **base)
        o_full = model_objective(m_full, data, cfg_eval)
        o_samp = model_objective(m_samp, data, cfg_eval)
        assert o_samp <= o_full * 1.05 + 1e-3

    def test_binary_labels_required_for_classification(self):
        data = line_data(32, lambda a: a * 2.0)
        specs = [spec("x")]
        with pytest.raises(Exception):
            train(data, specs, TrainConfig(loss=Loss.LOGISTIC, epochs=1))

    def test_logistic_separable(self):
        rng = np.random.default_rng(12)
        x = rng.random(400)
        y = (x > 0.5).astype(float)
        data = Dataset([x], y)
        specs = [spec("x", monotone=Direction.INCREASING, keypoints=5)]
        config = TrainConfig(loss=Loss.LOGISTIC, epochs=60, step_size=0.5, seed=1)
        model = train(data, specs, config)
        metrics = evaluate_metrics(model, data)
        assert metrics["accuracy"] >= 0.95
        assert metrics["log_loss"] < math.log(2)


    @pytest.mark.parametrize("loss", [Loss.LOGISTIC, Loss.HINGE])
    def test_calibrator_bounds_hold_exactly(self, loss):
        # the walk used to leave calibrator outputs about 1e-19 below their
        # 0 bound, and locate_cell then rejected the calibrated coordinate
        for seed in (1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            a, b = rng.random(400), rng.random(400)
            data = Dataset([a, b], (a + b > 1.0).astype(float))
            specs = [spec(n, monotone=Direction.INCREASING, keypoints=4) for n in "ab"]
            config = TrainConfig(loss=loss, epochs=30, step_size=0.2, seed=seed)
            model = train(data, specs, config)
            cal = model.calibrators
            assert max_infeasibility(cal.alpha(), cal.constraints()) == 0.0
            assert model.violations(0.0) == []

    def test_string_regularizer_kind(self):
        data = line_data(64, lambda a, b: a + b, seed=3, d=2)
        reg = RegularizerConfig("torsion", 1e-3)
        assert reg.kind is RegularizerKind.TORSION
        model = train(data, [spec("a"), spec("b")], TrainConfig(epochs=1, regularizers=(reg,)))
        assert model.metadata["regularizers"][0]["kind"] == "torsion"

    def test_pair_against_mean_label_order_trains(self):
        data = Dataset([["hi", "lo", "hi", "lo"]], [0, 1, 0, 1])
        specs = [FeatureSpec("b", "categorical", order_pairs=[("lo", "hi")])]
        model = train(data, specs, TrainConfig(epochs=1))
        value = dict(zip(model.calibrators.calibrators[0].categories,
                         model.calibrators.calibrators[0].values))
        assert value["lo"] <= value["hi"]


class TestInputValidation:
    """Bad labels and step knobs fail before the first step, as bad input."""

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_is_a_data_error(self, label):
        data = line_data(20, lambda a: a)
        data.labels[13] = label
        message = re.escape(f"training row 13: label {label} is not finite")
        with pytest.raises(DataError, match=message):
            prepare_state(data, [spec("x")], TrainConfig())
        with pytest.raises(DataError, match=message):
            train(data, [spec("x")], TrainConfig(epochs=1))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -5.0])
    def test_calibrator_step_scale_must_be_finite_and_nonnegative(self, scale):
        with pytest.raises(ValueError, match="calibrator step scale must be finite and >= 0"):
            TrainConfig(calibrator_step_scale=scale)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
    def test_regularizer_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ValueError, match="regularizer weight must be finite and nonnegative"):
            RegularizerConfig(RegularizerKind.TORSION, weight)

    def test_numpy_numbers_train_the_model_of_python_numbers(self):
        # the model's metadata records the config, and JSON writes only
        # Python numbers
        data = line_data(30, lambda a: a)
        plain = TrainConfig(epochs=2, step_size=0.25, seed=3,
                            regularizers=[RegularizerConfig(RegularizerKind.LAPLACIAN, 0.5, 4)])
        numpy = TrainConfig(epochs=np.int64(2), step_size=np.float32(0.25), seed=np.int64(3),
                            regularizers=[RegularizerConfig(RegularizerKind.LAPLACIAN,
                                                            np.float64(0.5), np.int32(4))])
        assert numpy == plain
        assert train(data, [spec("x")], numpy).to_json() == train(data, [spec("x")], plain).to_json()


class TestObjective:
    def test_regularizers_use_missing_vertex_dims(self):
        rng = np.random.default_rng(5)
        a, b = rng.random(80), rng.random(80)
        b[rng.random(80) < 0.2] = np.nan
        y = a + np.nan_to_num(b, nan=0.5)
        data = Dataset([a, b], y)
        specs = [spec("a", size=3), spec("b", size=3, missing=MissingPolicy.VERTEX)]
        regs = (
            RegularizerConfig(RegularizerKind.LAPLACIAN, 0.1),
            RegularizerConfig(RegularizerKind.TORSION, 0.05),
        )
        config = TrainConfig(epochs=5, step_size=0.2, seed=4, regularizers=regs)
        model = train(data, specs, config)
        expected = np.mean((y - model.predict(data)) ** 2) + sum(
            cfg.weight
            * regularizer_value(
                model.theta, regularizer_terms(model.shape, cfg.kind, frozenset({1}))
            )
            for cfg in regs
        )
        assert model_objective(model, data, config) == pytest.approx(expected, rel=1e-12)


class TestObjectiveLosses:
    """``model_objective`` sums numpy's per-row losses; each must be
    ``loss_value``'s, and the sum the loop's, bit for bit."""

    @staticmethod
    def loop(loss, y, z):
        return [loss_value(loss, float(a), float(b)) for a, b in zip(y, z)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_per_row_losses_equal_the_loop(self, data):
        loss = data.draw(st.sampled_from(list(Loss)))
        n = data.draw(st.integers(0, 40))
        edge = [0.0, -0.0, 1.0, -1.0, 2.0, 1e154, -1e154, 1.4e154, 1e200, -1e200, 5e-324, 1e-160]
        cell = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False), st.sampled_from(edge))
        z = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
        if loss is Loss.SQUARED:
            y = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
        else:
            # labels 0 and 1, and scores at the hinge's kink (margin 1)
            y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
            kink = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
            z[kink] = 2.0 * y[kink] - 1.0
        want = self.loop(loss, y, z)
        got = training._loss_values(loss, y, z)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert float(sum(got)).hex() == float(sum(want)).hex()
        if loss is Loss.SQUARED:
            # a square past the float limit is inf, in the loop as in numpy
            for a, b, v in zip(y.tolist(), z.tolist(), want):
                if abs(a - b) >= 1.35e154:
                    assert v == math.inf

    @pytest.mark.parametrize("loss", list(Loss))
    def test_many_random_rows(self, loss):
        # numpy's square (a product) and Python's ** (the C library's pow)
        # differ on about one value in a thousand
        rng = np.random.default_rng(17)
        z = rng.standard_normal(20000) * 10.0 ** rng.integers(-3, 4, 20000)
        y = rng.integers(0, 2, 20000) * 1.0
        if loss is Loss.SQUARED:
            y = rng.standard_normal(20000)
        got, want = training._loss_values(loss, y, z), self.loop(loss, y, z)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_a_square_past_the_float_limit_makes_the_objective_inf(self):
        a = np.linspace(0.0, 1.0, 20)
        config = TrainConfig(epochs=1, seed=1)
        model = train(Dataset([a], a), [spec("a")], config)
        far = Dataset([a], np.full(20, 1e200))
        assert loss_value(Loss.SQUARED, 1e200, 0.5) == math.inf
        assert model_objective(model, far, config) == math.inf
        assert evaluate_metrics(model, far)["rmse"] == pytest.approx(1e200)

    @pytest.mark.parametrize("loss", [Loss.SQUARED, Loss.HINGE])
    def test_objective_equals_the_loop(self, loss):
        rng = np.random.default_rng(9)
        a = rng.random(300)
        y = a + 0.1 * rng.standard_normal(300) if loss is Loss.SQUARED else (a > 0.5) * 1.0
        y[:3] = [-0.0, 0.0, 1.0]
        data = Dataset([a], y)
        regs = (RegularizerConfig(RegularizerKind.LAPLACIAN, 0.1),)
        config = TrainConfig(loss=loss, epochs=2, seed=2, regularizers=regs)
        model = train(data, [spec("a", size=3, keypoints=4)], config)
        losses = self.loop(loss, y, model.predict(data))
        want = sum(losses) / len(losses) + 0.1 * regularizer_value(
            model.theta, regularizer_terms(model.shape, RegularizerKind.LAPLACIAN))
        assert model_objective(model, data, config).hex() == want.hex()


def shape_run(seed: int) -> str:
    """The model file of a small two-worker run with a torsion term; runs
    of every seed share the lattice shape."""
    rng = np.random.default_rng(4)
    columns = [rng.random(60) for _ in range(3)]
    y = columns[0] + 0.5 * columns[1] - 0.2 * columns[2]
    specs = [spec(f"x{d}", size=3, keypoints=4, monotone=m)
             for d, m in enumerate([Direction.INCREASING, Direction.DECREASING, Direction.NONE])]
    config = TrainConfig(epochs=2, minibatch_size=8, step_size=0.3, seed=seed, workers=2,
                         sync_rounds=2, regularizers=(RegularizerConfig(RegularizerKind.TORSION, 0.01),))
    return train(Dataset(columns, y), specs, config).to_json()


def clear_shape_caches():
    for cache in (monotonicity._constraints, training._linear_start, regularizers._terms):
        cache.cache_clear()


class TestPerRunWork:
    """What depends only on the lattice shape is built once per shape and
    shared; what depends on the data is built once per run."""

    def test_prepare_state_fits_a_block_with_one_quantile_and_reuses_the_shape(self, monkeypatch):
        rng = np.random.default_rng(6)
        specs = [spec(f"x{d}", keypoints=5, monotone=Direction.INCREASING) for d in range(10)]
        data = Dataset([rng.random(50) for _ in specs], rng.random(50))
        calls = []
        quantile = np.quantile
        monkeypatch.setattr(np, "quantile", lambda *a, **k: calls.append(1) or quantile(*a, **k))
        prepare_state(data, specs, TrainConfig())
        assert len(calls) == 1
        builds = [monotonicity._constraints.cache_info().misses,
                  training._linear_start.cache_info().misses]
        state = prepare_state(data, specs, TrainConfig(workers=2))
        assert [monotonicity._constraints.cache_info().misses,
                training._linear_start.cache_info().misses] == builds
        assert state.theta.flags.writeable and state.theta.shape == (2, 2**10)
        assert not state.theta_constraints.lo.flags.writeable
        for cache in (monotonicity._constraints, training._linear_start, regularizers._terms):
            assert cache.cache_parameters()["maxsize"] is not None

    def test_warm_cold_and_fresh_process_runs_write_the_same_model(self):
        warm = shape_run(5)
        assert shape_run(5) == warm
        clear_shape_caches()
        assert shape_run(5) == warm
        tests = Path(__file__).resolve().parent
        src = Path(training.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
        fresh = subprocess.run(
            [sys.executable, "-c", "import test_training; print(test_training.shape_run(5), end='')"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert fresh.stdout == warm

    def test_threads_training_one_shape_write_the_serial_models(self):
        serial = {seed: shape_run(seed) for seed in range(3)}
        clear_shape_caches()  # the threads race to build the shared parts
        results = {}
        barrier = threading.Barrier(3)

        def run(seed):
            barrier.wait()
            results[seed] = shape_run(seed)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


class TestParallel:
    def setup_problem(self):
        data = line_data(200, lambda a, b: a * b + 0.3 * a, seed=13, d=2, noise=0.1)
        specs = [
            spec("a", monotone=Direction.INCREASING, keypoints=4),
            spec("b", monotone=Direction.INCREASING, keypoints=4),
        ]
        return data, specs

    def test_single_worker_equals_train(self):
        data, specs = self.setup_problem()
        config = TrainConfig(epochs=12, minibatch_size=16, step_size=0.2, seed=21, workers=1)
        a = train(data, specs, config)
        b = parallel_train(data, specs, config)
        assert np.array_equal(np.asarray(a.theta), np.asarray(b.theta))
        assert np.array_equal(a.calibrators.alpha(), b.calibrators.alpha())

    def test_four_workers_close_objective(self):
        data, specs = self.setup_problem()
        base = dict(epochs=60, minibatch_size=8, step_size=0.3, seed=21)
        solo = parallel_train(data, specs, TrainConfig(workers=1, **base))
        quad = parallel_train(data, specs, TrainConfig(workers=4, sync_rounds=12, **base))
        cfg = TrainConfig(workers=1, **base)
        o1 = model_objective(solo, data, cfg)
        o4 = model_objective(quad, data, cfg)
        assert o4 <= o1 * 1.05

    def test_averaged_model_exactly_feasible(self):
        data, specs = self.setup_problem()
        config = TrainConfig(epochs=8, minibatch_size=16, step_size=0.2, seed=3, workers=4, sync_rounds=2)
        model = parallel_train(data, specs, config)
        assert model.violations() == []
        assert max_infeasibility(np.asarray(model.theta), model.constraints()) <= 0.0

    def test_deterministic_given_seed(self):
        data, specs = self.setup_problem()
        config = TrainConfig(epochs=6, minibatch_size=16, step_size=0.2, seed=8, workers=3, sync_rounds=3)
        a = parallel_train(data, specs, config)
        b = parallel_train(data, specs, config)
        assert np.array_equal(np.asarray(a.theta), np.asarray(b.theta))
        assert a.to_json() == b.to_json()

    def test_train_honours_workers(self):
        data, specs = self.setup_problem()
        config = TrainConfig(epochs=2, workers=2, sync_rounds=2, seed=0)
        model = train(data, specs, config)
        assert model.metadata["workers"] == 2
        assert model.to_json() == parallel_train(data, specs, config).to_json()
        assert parallel_train is train

    def test_worker_count_recorded(self):
        data, specs = self.setup_problem()
        config = TrainConfig(epochs=2, workers=2, sync_rounds=2, seed=0)
        model = parallel_train(data, specs, config)
        assert model.metadata["workers"] == 2
        assert model.metadata["sync_rounds"] == 2


class TestPlan:
    """Training locates its samples on the calibrators once per run."""

    def test_train_builds_the_plan_once_and_steps_only_apply_it(self, monkeypatch):
        counts = {"steps": 0, "locate": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        step = training.sgd_step

        def stepping(state, batches, rngs):
            counts["steps"] += len(batches)  # one step for each worker in lockstep
            return step(state, batches, rngs)

        monkeypatch.setattr(training, "sgd_step", stepping)
        monkeypatch.setattr(CalibratorSet, "locate", counting("locate", CalibratorSet.locate))
        data, specs = mixed_problem(True, Loss.LOGISTIC)
        config = TrainConfig(loss=Loss.LOGISTIC, epochs=2, minibatch_size=16, workers=2,
                             sync_rounds=2, seed=4)
        parallel_train(data, specs, config)
        assert counts["steps"] == 16  # 2 workers x 2 epochs x ceil(60 / 16)
        assert counts["locate"] == 1

    def test_steps_cross_alpha_whole_and_check_their_input_once(self, monkeypatch):
        counts = {"project_update": 0, "max_infeasibility": 0, "with_table": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(training, "project_update",
                            counting("project_update", training.project_update))
        monkeypatch.setattr(monotonicity, "max_infeasibility",
                            counting("max_infeasibility", monotonicity.max_infeasibility))
        monkeypatch.setattr(CalibratorSet, "with_table",
                            counting("with_table", CalibratorSet.with_table))
        data, specs = mixed_problem(False, Loss.SQUARED)
        config = TrainConfig(epochs=2, minibatch_size=16, workers=2, sync_rounds=2, seed=4)
        parallel_train(data, specs, config)
        # 2 workers x 2 epochs x ceil(60 / 16) steps, each projecting theta and
        # alpha; the trained calibrators are built once, for the model
        assert counts == {"project_update": 32, "max_infeasibility": 0, "with_table": 1}

    def test_predict_locates_once_and_derives_no_layout(self, monkeypatch):
        data, specs = mixed_problem(False, Loss.SQUARED)
        model = train(data, specs, TrainConfig(epochs=1, seed=2))
        counts = {"locate": 0, "gradient": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # predict locates its rows in one pass of chunks
        monkeypatch.setattr(CalibratorSet, "locate_chunks",
                            counting("locate", CalibratorSet.locate_chunks))
        monkeypatch.setattr(CalibratorSet, "add_apply_gradient",
                            counting("gradient", CalibratorSet.add_apply_gradient))
        model.predict(data)
        assert counts == {"locate": 1, "gradient": 0}

    def test_buffers_are_allocated_once_per_run(self, monkeypatch):
        # each lockstep step holds 2 workers x 8 samples, so with no spare
        # buffer set the first step of the run allocates every buffer once,
        # as one 8-sample call on a state of its own does (one_step), and no
        # later step needs more room; a second run of the same shape takes
        # the set back and allocates only its plan, the located samples it
        # keeps (plan)
        allocations = []

        def counting(size, dtype):
            allocations.append(size)
            return np.empty(size, dtype=dtype)

        monkeypatch.setattr(ChunkBuffers, "_allocate", staticmethod(counting))
        monkeypatch.setattr(interpolation, "_SPARE_BUFFERS", [])
        data, specs = mixed_problem(False, Loss.SQUARED, n=60)
        config = TrainConfig(epochs=2, minibatch_size=8, workers=2, sync_rounds=2, seed=1)
        state = prepare_state(data, specs, config)
        plan = len(allocations)
        allocations.clear()
        loss_gradients(state, {0: np.arange(8)})
        one_step = len(allocations)
        assert one_step > 0
        allocations.clear()
        steps = []

        def stepping(state, batches, rngs):
            steps.extend(batches.values())  # one step for each worker in lockstep
            return sgd_step(state, batches, rngs)

        monkeypatch.setattr(training, "sgd_step", stepping)
        first = train(data, specs, config)
        assert len(steps) == 16  # 2 workers x 2 epochs x ceil(30 / 8)
        assert len(allocations) == plan + one_step
        allocations.clear()
        assert train(data, specs, config) == first
        assert len(allocations) == plan
        assert len(interpolation._SPARE_BUFFERS) == 1

    def test_plan_holds_interleaved_pair_sides_and_float_targets(self):
        data, specs = mixed_problem(True, Loss.LOGISTIC, n=30)
        state = prepare_state(data, specs, TrainConfig(loss=Loss.LOGISTIC))
        cs = state.calibrators
        x = cs.apply(state.plan, cs.table()).T  # the plan is feature-major
        for i in (0, 7, 29):
            assert x[2 * i].tolist() == cs.calibrate_row(plus_row(data, i))
            assert x[2 * i + 1].tolist() == cs.calibrate_row(minus_row(data, i))
        assert state.targets.dtype == float and state.targets.tolist() == [1.0] * 30
        rows, _ = mixed_problem(False, Loss.SQUARED, n=30)
        state = prepare_state(rows, specs, TrainConfig())
        assert state.targets.tolist() == np.asarray(rows.labels, dtype=float).tolist()

    def test_bad_training_row_fails_at_prepare_state_by_index(self):
        data = line_data(50, lambda a: a)
        data.columns[0][37] = np.nan  # feature "x" has no missing policy
        with pytest.raises(DataError, match="training row 37: feature x: missing value"):
            prepare_state(data, [spec("x", keypoints=3)], TrainConfig())
        # every run fails, even one whose minibatches would never draw row 37
        with pytest.raises(DataError, match="training row 37"):
            train(data, [spec("x", keypoints=3)], TrainConfig(epochs=1, minibatch_size=1))
        with pytest.raises(DataError, match="training rows have no labels"):
            prepare_state(Dataset([np.arange(5.0)], None), [spec("x")], TrainConfig())

    def test_bad_training_pair_names_the_pair_and_side(self):
        rng = np.random.default_rng(0)
        plus, minus = rng.random(20), rng.random(20)
        minus[11] = np.nan
        data = PairDataset([plus], [minus])
        with pytest.raises(DataError, match=r"training pair 11 \(other row\): feature x"):
            prepare_state(data, [spec("x", keypoints=3)], TrainConfig(loss=Loss.LOGISTIC))

    def test_training_a_clone_leaves_the_original_unchanged(self):
        data, specs = mixed_problem(False, Loss.SQUARED)
        for workers in (1, 2):
            state = prepare_state(data, specs, TrainConfig(step_size=0.5, workers=workers))
            assert state.theta.shape[0] == state.table.shape[0] == workers
            theta, table = state.theta.copy(), state.table.copy()
            clone = state.clone()
            rngs = [np.random.default_rng(k) for k in range(workers)]
            for _ in range(5):
                batches = {k: rng.integers(0, 120, size=16) for k, rng in enumerate(rngs)}
                sgd_step(clone, batches, rngs)
            cs = state.calibrators
            for k in range(workers):
                assert not np.array_equal(clone.theta[k], theta[k])
                assert not np.array_equal(cs.at_free(clone.table[k]), cs.at_free(table[k]))
            assert state.theta.tobytes() == theta.tobytes()
            assert state.table.tobytes() == table.tobytes()
            # what does not move during training is shared, not copied
            assert clone.plan is state.plan and clone.data is state.data
            assert clone.calibrators is state.calibrators


class TestRanking:
    def make_pairs(self, n=300, seed=31):
        rng = np.random.default_rng(seed)
        plus = rng.random(n)
        minus = rng.random(n)
        lo = np.minimum(plus, minus)
        hi = np.maximum(plus, minus)
        keep = hi - lo > 0.05
        return PairDataset([hi[keep]], [lo[keep]])

    def test_orders_held_out_pairs(self):
        pairs = self.make_pairs()
        specs = [spec("score", monotone=Direction.INCREASING, keypoints=4)]
        config = TrainConfig(loss=Loss.LOGISTIC, epochs=40, step_size=0.5, seed=2)
        model = train(pairs, specs, config)
        test = self.make_pairs(seed=32)
        metrics = evaluate_metrics(model, test)
        assert metrics["pair_accuracy"] >= 0.95

    def test_constant_model_scores_half(self):
        pairs = self.make_pairs()
        specs = [spec("score", keypoints=2)]
        model = train(pairs, specs, TrainConfig(epochs=1, step_size=0.0))
        model = replace(model, theta=[0.25, 0.25])
        metrics = evaluate_metrics(model, pairs)
        assert metrics["pair_accuracy"] == pytest.approx(0.5)


    def test_objective_scores_pair_differences(self):
        pairs = self.make_pairs(n=60)
        specs = [spec("score", monotone=Direction.INCREASING, keypoints=3)]
        config = TrainConfig(loss=Loss.LOGISTIC, epochs=3, step_size=0.5, seed=2)
        model = train(pairs, specs, config)
        z = model.predict(Dataset(pairs.plus_columns, None)) - model.predict(
            Dataset(pairs.minus_columns, None)
        )
        expected = np.mean([loss_value(Loss.LOGISTIC, 1.0, v) for v in z])
        assert model_objective(model, pairs, config) == pytest.approx(expected, rel=1e-12)

    def test_order_pair_against_name_order(self):
        # name order puts "easy" below "hard"; the declared pair wants the reverse
        rng = np.random.default_rng(4)
        n = 80
        plus = [list(rng.choice(["easy", "hard"], size=n))]
        minus = [["hard" if v == "easy" else "easy" for v in plus[0]]]
        pairs = PairDataset(plus, minus)
        specs = [spec("level", kind=FeatureKind.CATEGORICAL, order_pairs=[("hard", "easy")])]
        model = train(pairs, specs, TrainConfig(loss=Loss.LOGISTIC, epochs=2, seed=1))
        value = dict(zip(model.calibrators.calibrators[0].categories,
                         model.calibrators.calibrators[0].values))
        assert value["hard"] <= value["easy"]


class TestMetrics:
    def test_perfect_fit_rmse_zero(self):
        data = line_data(32, lambda a: a)
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        model = replace(model, theta=[0.0, 1.0])
        metrics = evaluate_metrics(model, data)
        assert metrics["rmse"] == pytest.approx(0.0, abs=1e-12)
        assert "accuracy" not in metrics

    def test_binary_labels_add_classification_metrics(self):
        x = np.array([0.1, 0.2, 0.8, 0.9])
        data = Dataset([x], np.array([0.0, 0.0, 1.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        model = replace(model, theta=[0.0, 1.0])
        metrics = evaluate_metrics(model, data)
        assert metrics["accuracy"] == 1.0
        assert "log_loss" in metrics and metrics["log_loss"] > 0

    def test_hinge_accuracy_uses_sign_of_margin(self):
        x = np.array([0.1, 0.2, 0.8, 0.9])
        data = Dataset([x], np.array([0.0, 0.0, 1.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(loss=Loss.HINGE, epochs=1, step_size=0.0))
        model = replace(model, theta=[-0.5, 0.5])  # margins -0.4, -0.3, 0.3, 0.4
        metrics = evaluate_metrics(model, data)
        assert metrics["accuracy"] == 1.0
        assert "log_loss" not in metrics

    def test_confident_logistic_model_has_a_finite_log_loss(self):
        # scores -50 and 50: the probabilities round to 0 and 1, which the
        # log of a probability turns into log(0) and 0 * -inf
        data = Dataset([np.array([0.0, 1.0])], np.array([0.0, 1.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(loss=Loss.LOGISTIC, epochs=1, step_size=0.0))
        model = replace(model, theta=[-50.0, 50.0])
        metrics = evaluate_metrics(model, data)
        assert metrics["accuracy"] == 1.0
        assert metrics["log_loss"] == pytest.approx(math.exp(-50.0), rel=1e-12)
        # scores whose exp overflows still say which side they are on
        metrics = evaluate_metrics(replace(model, theta=[-1000.0, 1000.0]), data)
        assert metrics["accuracy"] == 1.0 and metrics["log_loss"] == 0.0

    def test_huge_labels_have_a_finite_rmse(self):
        # residuals near 1e200, whose squares overflow
        x = np.array([0.0, 0.5, 1.0])
        data = Dataset([x], 1e200 * np.array([1.0, 2.0, 3.0]))
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        model = replace(model, theta=[0.0, 0.0])
        rmse = evaluate_metrics(model, data)["rmse"]
        assert rmse == pytest.approx(1e200 * math.sqrt(14.0 / 3.0), rel=1e-12)

    def test_no_rows_give_a_nan_rmse(self):
        data = line_data(8, lambda a: a)
        specs = [spec("x", bounds=(0.0, 1.0))]
        model = train(data, specs, TrainConfig(epochs=1, step_size=0.0))
        metrics = evaluate_metrics(model, Dataset([np.empty(0)], np.empty(0)))
        assert metrics["num_rows"] == 0 and math.isnan(metrics["rmse"])
        assert set(metrics) == {"num_rows", "rmse"}


def mixed_problem(pairs: bool, loss: Loss, n=120, seed=0):
    """Three features covering a calibrated-missing PWL chain, a categorical
    with an order pair and an OTHER bucket (one rare category folds into it),
    and a missing vertex; rows with labels fitting ``loss``, or pairs.  The
    labels rise with the category, so the fitted start meets the order pair."""
    rng = np.random.default_rng(seed)

    def columns():
        a = rng.random(n) * 4
        a[rng.random(n) < 0.1] = np.nan
        b = rng.integers(0, 3, size=n)
        c = rng.random(n)
        c[rng.random(n) < 0.1] = np.nan
        names = [f"c{k}" for k in b]
        names[5] = "rare"
        return [a, names, c], b

    specs = [
        spec("a", size=3, keypoints=5, monotone=Direction.INCREASING,
             missing=MissingPolicy.CALIBRATED),
        FeatureSpec(name="b", kind=FeatureKind.CATEGORICAL, size=2,
                    order_pairs=[("c0", "c2")], allow_unseen=True),
        spec("c", size=3, keypoints=3, missing=MissingPolicy.VERTEX),
    ]
    if pairs:
        return PairDataset(columns()[0], columns()[0]), specs
    cols, b = columns()
    score = rng.random(n) * 0.5 + 0.25 * b
    labels = score if loss is Loss.SQUARED else (score > 0.5).astype(float)
    return Dataset(cols, labels), specs


@st.composite
def training_runs(draw):
    """A small problem and a config for it: 1-5 workers over 14-40 rows or
    pairs (shards of unequal sizes where the workers do not divide the
    count), 1-3 sync rounds over 1-4 epochs (so a round may have none),
    minibatches from one sample to past the largest shard, either kind,
    exact and sampled regularizers, and calibrators trained or frozen."""
    pairs = draw(st.booleans())
    loss = Loss.LOGISTIC if pairs else draw(st.sampled_from([Loss.SQUARED, Loss.HINGE]))
    n = draw(st.integers(14, 40))
    data, specs = mixed_problem(pairs, loss, n=n, seed=draw(st.integers(0, 9)))
    workers = draw(st.integers(1, 5))
    shard = math.ceil(n / workers)  # the largest
    minibatch = draw(st.one_of(st.integers(1, 6), st.integers(shard - 1, shard + 2)))
    regularizers = draw(st.lists(st.sampled_from([
        RegularizerConfig(RegularizerKind.LAPLACIAN, 0.01),
        RegularizerConfig(RegularizerKind.TORSION, 0.01, sample_count=2),
        RegularizerConfig(RegularizerKind.HESSIAN, 0.01, sample_count=1),
    ]), max_size=2, unique=True))
    config = TrainConfig(
        loss=loss,
        kind=draw(st.sampled_from(list(InterpolationKind))),
        epochs=draw(st.integers(1, 4)),
        minibatch_size=minibatch,
        step_size=0.3,
        calibrator_step_scale=draw(st.sampled_from([0.0, 1.0])),
        regularizers=tuple(regularizers),
        seed=draw(st.integers(0, 1000)),
        workers=workers,
        sync_rounds=draw(st.integers(1, 3)),
    )
    return data, specs, config


def perturbed_state(data, specs, config, seed=1):
    """Training state with random theta and random feasible calibrators."""
    state = prepare_state(data, specs, config)
    rng = np.random.default_rng(seed)
    state.theta[:] = rng.standard_normal(state.theta.shape) * 2
    cs = state.calibrators
    for table in state.table:
        alpha = cs.at_free(table)
        cs.put_free(
            table,
            project_update(alpha, rng.standard_normal(alpha.size), state.alpha_constraints),
        )
    return state


def assert_same_gradients(state, batches):
    got = loss_gradients(state, batches)
    ref = reference_loss_gradients(state, batches)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()


class TestBatchedStepMatchesReference:
    """The batched training step against the per-sample scalar loop."""

    @pytest.mark.parametrize("scale", [1.0, 0.0], ids=["calibrators-trained", "frozen"])
    @pytest.mark.parametrize("kind", list(InterpolationKind))
    @pytest.mark.parametrize("loss", list(Loss))
    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_loss_gradients(self, pairs, loss, kind, scale):
        data, specs = mixed_problem(pairs, loss)
        config = TrainConfig(loss=loss, kind=kind, calibrator_step_scale=scale)
        state = perturbed_state(data, specs, config)
        assert state.trains_calibrators == (scale != 0.0)
        rng = np.random.default_rng(2)
        for size in (1, 17, 64):
            assert_same_gradients(state, {0: rng.integers(0, 120, size=size)})
        assert_same_gradients(state, {0: np.arange(120)})

    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_minibatch_spanning_several_chunks(self, pairs):
        rng = np.random.default_rng(3)
        n = 100
        specs = [spec(f"x{d}", keypoints=3) for d in range(10)]
        cols = lambda: [rng.random(n) for _ in range(10)]  # noqa: E731
        data = PairDataset(cols(), cols()) if pairs else Dataset(cols(), rng.random(n))
        config = TrainConfig(loss=Loss.LOGISTIC if pairs else Loss.SQUARED)
        state = perturbed_state(data, specs, config)
        assert_same_gradients(state, {0: rng.integers(0, n, size=90)})

    @pytest.mark.parametrize("d", [3, 10])
    def test_one_sample_minibatches_on_large_cells(self, d):
        # a one-sample chunk reaches the kernel as a single column
        rng = np.random.default_rng(4)
        n = 40
        specs = [spec(f"x{k}", keypoints=3) for k in range(d)]
        data = Dataset([rng.random(n) for _ in range(d)], rng.random(n))
        state = perturbed_state(data, specs, TrainConfig())
        for i in range(n):
            assert_same_gradients(state, {0: [i]})

    @staticmethod
    def hinge_state(pairs, x0, keypoints=2):
        """Hinge loss on a 2^3 lattice whose value is -5 + 10 * x0.  Rows
        with x0 <= 0.2 or >= 0.8 lie at margin 3 or more, rows near 0.5 below
        1.  A pair's preferred side has x0 and its other side 1 - x0, so its
        margin is 20 * x0 - 10: 6 or more for x0 >= 0.8, below 1 otherwise.
        With more than 2 keypoints the calibrators have free parameters;
        their start moves x0 by less than 0.07 on the inputs used here, which
        keeps every margin on its side of 1."""
        rng = np.random.default_rng(6)
        x0 = np.asarray(x0, dtype=float)

        def columns(first):
            return [first, rng.random(len(first)), rng.random(len(first))]

        specs = [spec(f"x{k}", bounds=(0.0, 1.0), keypoints=keypoints) for k in range(3)]
        if pairs:
            data = PairDataset(columns(x0), columns(1.0 - x0))
        else:
            data = Dataset(columns(x0), (x0 > 0.5).astype(float))
        state = prepare_state(data, specs, TrainConfig(loss=Loss.HINGE))
        sh = state.shape
        state.theta[:] = np.array(
            [5.0 if vertex_coords(sh, j)[0] else -5.0 for j in range(sh.num_parameters)]
        )
        return state

    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_minibatch_without_live_samples_has_zero_gradient_bits(self, pairs):
        # every sample adds +0.0 (rows) or -0.0 (the second side of a pair)
        # times its weights to a gradient that starts at +0.0
        x0 = np.concatenate([np.linspace(0.0, 0.2, 20), np.linspace(0.8, 1.0, 20)])
        if pairs:
            x0 = x0[20:]
        state = self.hinge_state(pairs, x0)
        batch = np.arange(len(x0))
        g_theta, g_alpha = loss_gradients(state, {0: batch})
        assert g_theta.tobytes() == np.zeros(state.theta.size).tobytes()
        assert g_alpha.tobytes() == np.zeros(state.calibrators.num_free).tobytes()
        assert_same_gradients(state, {0: batch})

    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_minibatch_of_live_and_dead_samples(self, pairs):
        x0 = np.concatenate([np.linspace(0.0, 0.2, 10), np.linspace(0.45, 0.55, 10),
                             np.linspace(0.8, 1.0, 10)])
        state = self.hinge_state(pairs, x0)
        rng = np.random.default_rng(7)
        g_theta, _ = loss_gradients(state, {0: np.arange(30)})
        assert np.count_nonzero(g_theta) > 0
        assert_same_gradients(state, {0: np.arange(30)})
        assert_same_gradients(state, {0: rng.permutation(30)})

    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_dead_samples_and_flat_features_leave_alpha_gradient_bits(self, pairs):
        # hinge loss on a lattice that depends on x0 alone: every sample's
        # dfdx is 0 along x1 and x2, whose calibrators have free parameters,
        # and samples far from the margin have slope 0
        x0 = np.concatenate([np.linspace(0.0, 0.2, 10), np.linspace(0.45, 0.55, 10),
                             np.linspace(0.8, 1.0, 10)])
        state = self.hinge_state(pairs, x0, keypoints=4)
        assert state.trains_calibrators
        batch = np.arange(30)
        g_theta, (g_alpha,) = loss_gradients(state, {0: batch})
        assert np.count_nonzero(g_theta) > 0
        assert np.count_nonzero(g_alpha) > 0
        # only x0's block moves; the flat features' blocks stay +0.0
        flat = state.calibrators.offsets[1]
        assert g_alpha[flat:].tobytes() == np.zeros(g_alpha.size - flat).tobytes()
        assert_same_gradients(state, {0: batch})
        assert_same_gradients(state, {0: np.random.default_rng(8).permutation(30)})

    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_terms_off_the_free_entries(self, pairs):
        # the table scatter also adds what a per-sample loop skips: terms at
        # pinned end outputs, missing vertices and parameter-free features,
        # and zero terms off inner values or exactly on a knot
        rng = np.random.default_rng(12)
        # ties enough that the quartile knots are exactly 1, 2 and 3; values
        # on every knot, between knots, beyond both ends, and NaN
        counts = {-np.inf: 1, -1.0: 10, 0.0: 10, 0.4: 10, 1.0: 40, 1.5: 10, 2.0: 40,
                  2.5: 10, 3.0: 40, 3.6: 10, 4.0: 10, 5.0: 8, np.inf: 1, np.nan: 10}
        knotted = np.repeat(list(counts), list(counts.values()))
        n = len(knotted)

        def columns():
            return [
                rng.permutation(knotted),
                rng.permutation(knotted),
                list(rng.choice(["p", "q", "r", "never seen", "<OTHER>"], n)),
                rng.uniform(-1.0, 5.0, n),
            ] + [rng.random(n) for _ in range(4)]

        specs = [
            spec("a", size=3, keypoints=5, bounds=(0.0, 4.0), missing=MissingPolicy.CALIBRATED),
            spec("v", size=3, keypoints=5, bounds=(0.0, 4.0), missing=MissingPolicy.VERTEX),
            FeatureSpec(name="g", kind=FeatureKind.CATEGORICAL, size=2,
                        categories=["p", "q", "r"], allow_unseen=True),
            spec("two", bounds=(0.0, 4.0)),
        ] + [spec(f"x{k}", keypoints=3) for k in range(4)]
        if pairs:
            data = PairDataset(columns(), columns())
            config = TrainConfig(loss=Loss.LOGISTIC)
        else:
            data = Dataset(columns(), rng.random(n))
            config = TrainConfig()
        state = perturbed_state(data, specs, config)
        cs = state.calibrators
        a, v, g, two = cs.calibrators[:4]
        assert a.knots.tolist() == v.knots.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert g.categories[g.other_index] == "<OTHER>" and two.num_free == 0
        # more than one chunk of sides in a minibatch of every sample
        assert training.chunk_rows(state.shape, config.kind) < n
        assert_same_gradients(state, {0: np.arange(n)})
        assert_same_gradients(state, {0: rng.integers(0, n, size=150)})

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    def test_a_worker_missing_from_batches_keeps_its_rows(self, pairs, kind):
        # three workers whose rows differ; worker 1 sits the step out
        data, specs = mixed_problem(pairs, Loss.LOGISTIC if pairs else Loss.SQUARED)
        config = TrainConfig(loss=Loss.LOGISTIC if pairs else Loss.SQUARED, kind=kind,
                             step_size=0.5, workers=3)
        state = prepare_state(data, specs, config)
        assert state.trains_calibrators
        rng = np.random.default_rng(5)
        cs = state.calibrators
        for theta, table in zip(state.theta, state.table):
            theta[:] = project_update(theta, rng.standard_normal(theta.size), state.theta_constraints)
            alpha = cs.at_free(table)
            cs.put_free(table, project_update(alpha, rng.standard_normal(alpha.size),
                                              state.alpha_constraints))
        batches = {0: rng.integers(0, 120, size=17), 2: rng.integers(0, 120, size=40)}
        g_theta, g_alpha = loss_gradients(state, batches)
        assert g_theta[1].tobytes() == np.zeros(state.theta.shape[1]).tobytes()
        assert g_alpha[1].tobytes() == np.zeros(state.calibrators.num_free).tobytes()
        assert_same_gradients(state, batches)
        theta, table = state.theta.copy(), state.table.copy()
        sgd_step(state, batches, [np.random.default_rng(k) for k in range(3)])
        assert state.theta[1].tobytes() == theta[1].tobytes()
        assert state.table[1].tobytes() == table[1].tobytes()
        for k in (0, 2):
            assert not np.array_equal(state.theta[k], theta[k])
            assert not np.array_equal(state.table[k], table[k])

    @pytest.mark.parametrize(
        "pairs, loss, kind, workers",
        [
            (False, Loss.SQUARED, InterpolationKind.MULTILINEAR, 1),
            (False, Loss.HINGE, InterpolationKind.SIMPLEX, 2),
            (True, Loss.LOGISTIC, InterpolationKind.SIMPLEX, 2),
        ],
    )
    def test_trained_model_bytes(self, monkeypatch, pairs, loss, kind, workers):
        # the sequential driver steps each worker's own state, so it runs
        # the per-sample loop one worker at a time
        data, specs = mixed_problem(pairs, loss)
        config = TrainConfig(loss=loss, kind=kind, epochs=4, minibatch_size=16,
                             step_size=0.5, seed=9, workers=workers, sync_rounds=2)
        batched = parallel_train(data, specs, config).to_json()
        monkeypatch.setattr(training, "loss_gradients", reference_loss_gradients)
        for walk in (reference_component_walk, reference_project_update, reference_array_walk):
            monkeypatch.setattr(training, "project_update", walk)
            assert reference_train(data, specs, config).to_json() == batched


class TestLockstep:
    """``train`` steps a round's workers in lockstep; the sequential driver
    it replaced is the oracle, by model bytes and by error."""

    @settings(max_examples=100, deadline=None)
    @given(training_runs())
    def test_model_bytes_equal_the_sequential_driver(self, run):
        data, specs, config = run
        assert train(data, specs, config).to_json() == reference_train(data, specs, config).to_json()

    def test_more_workers_than_samples(self):
        # workers 4 and 5 get empty shards: they never step, and their
        # copies of the consensus still join the mean
        data, specs = TestTrainingErrors.DATA, TestTrainingErrors.SPECS
        config = TrainConfig(epochs=3, minibatch_size=1, step_size=0.2, workers=5, sync_rounds=2)
        assert train(data, specs, config).to_json() == reference_train(data, specs, config).to_json()

    # 3 workers with 10 rows each and minibatches of 5: two lockstep steps
    # per epoch, and each of the two rounds runs two epochs
    CONFIG = TrainConfig(epochs=4, minibatch_size=5, step_size=0.1, workers=3, sync_rounds=2)

    @staticmethod
    def diverging(monkeypatch, at):
        """Make the loss gradient of worker k (from 0) non-finite at the
        n-th lockstep step (from 1) of the run, for each (n, k) in ``at``;
        returns the workers of every step."""
        real = training.loss_gradients
        steps = []

        def gradients(state, batches):
            steps.append(list(batches))
            g_theta, g_alpha = real(state, batches)
            for n, k in at:
                if n == len(steps):
                    g_theta[k, 0] = np.inf
            return g_theta, g_alpha

        monkeypatch.setattr(training, "loss_gradients", gradients)
        return steps

    def test_lowest_failing_worker_is_reported_at_its_own_step(self, monkeypatch):
        # worker 2 fails first (epoch 1, step 2); worker 1 fails later in the
        # round (epoch 2, step 2), which a sequential run would reach first
        steps = self.diverging(monkeypatch, [(2, 1), (4, 0)])
        message = "non-finite gradient; lower the step size (round 1, worker 1, epoch 2, step 2)"
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(line_data(30, lambda a: a), [spec("x")], self.CONFIG)
        # worker 2 left the group with worker 3, whose error could not count
        assert steps == [[0, 1, 2], [0, 1, 2], [0], [0]]

    def test_workers_failing_at_one_step_report_the_lowest(self, monkeypatch):
        steps = self.diverging(monkeypatch, [(3, 2), (3, 1)])
        message = "non-finite gradient; lower the step size (round 1, worker 2, epoch 2, step 1)"
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(line_data(30, lambda a: a), [spec("x")], self.CONFIG)
        assert steps == [[0, 1, 2]] * 3 + [[0]]

    def test_a_higher_worker_failing_alone_is_reported(self, monkeypatch):
        steps = self.diverging(monkeypatch, [(6, 2)])
        message = "non-finite gradient; lower the step size (round 2, worker 3, epoch 3, step 2)"
        with pytest.raises(TrainingError, match=re.escape(message)):
            train(line_data(30, lambda a: a), [spec("x")], self.CONFIG)
        # workers 1 and 2 run the round out, to show that neither fails
        assert steps == [[0, 1, 2]] * 6 + [[0, 1]] * 2


def benchmark_inputs(name: str, tmp_path, monkeypatch):
    """The benchmark workload ``name``'s training data, specs and config,
    its inputs generated for seed 11 by its own workload module (imported,
    not changed)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # for its dataclasses
    module_spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    inputs = workloads.generate(workload, 11, tmp_path)
    specs, label = load_schema(inputs.schema)
    if inputs.pairs:
        data = load_pair_dataset(inputs.train, specs, pair_id_column=workloads.PAIR_ID,
                                 label_column=label)
    else:
        data = load_dataset(inputs.train, specs, label, require_labels=True)
    return data, specs, workload.config


def one_cell_problem(d: int, pairs: bool, loss: Loss, n=80, seed=0):
    """``d`` features on a lattice of one cell (every size 2): a PWL chain
    with a calibrated missing value, a categorical with an order pair and an
    OTHER bucket (one rare category folds into it), then PWL chains of 3 or
    4 knots, every other one increasing; rows with labels fitting ``loss``
    (rising with the category, so the fitted start meets the order pair),
    or pairs."""
    rng = np.random.default_rng(seed)

    def columns():
        cols = []
        for k in range(d):
            if k == 1:
                codes = rng.integers(0, 3, size=n)
                names = [f"c{v}" for v in codes]
                names[3] = "rare"
                cols.append(names)
            else:
                x = rng.random(n)
                if k == 0:
                    x[rng.random(n) < 0.1] = np.nan
                cols.append(x)
        return cols

    specs = [
        FeatureSpec(name="b", kind=FeatureKind.CATEGORICAL, size=2,
                    order_pairs=[("c0", "c2")], allow_unseen=True)
        if k == 1 else
        spec(f"x{k}", keypoints=3 + k % 2,
             monotone=Direction.INCREASING if k % 2 == 0 else Direction.NONE,
             missing=MissingPolicy.CALIBRATED if k == 0 else MissingPolicy.NONE)
        for k in range(d)
    ]
    if pairs:
        return PairDataset(columns(), columns()), specs
    cols = columns()
    category = [int(c[1]) if c[0] == "c" else 0 for c in cols[1]] if d > 1 else 0
    score = rng.random(n) * 0.5 + 0.25 * np.asarray(category)
    labels = score if loss is Loss.SQUARED else (score > 0.5).astype(float)
    return Dataset(cols, labels), specs


class TestOneCellTraining:
    """Training on multilinear lattices of one cell, whose theta scatter is
    a row sum instead of ``np.add.at`` over gathered vertex indices, against
    the per-sample loop and the sequential driver."""

    @pytest.mark.parametrize("scale", [1.0, 0.0], ids=["calibrators-trained", "frozen"])
    @pytest.mark.parametrize("loss", list(Loss))
    @pytest.mark.parametrize("pairs", [False, True], ids=["rows", "pairs"])
    @pytest.mark.parametrize("d", [1, 2, 7, 10])
    def test_loss_gradients(self, d, pairs, loss, scale):
        n = 300 if d == 7 else 80
        data, specs = one_cell_problem(d, pairs, loss, n=n, seed=d)
        config = TrainConfig(loss=loss, calibrator_step_scale=scale)
        state = perturbed_state(data, specs, config)
        assert interpolation.one_cell(state.shape, config.kind)
        rng = np.random.default_rng(d)
        # at D = 7 and 10 the last minibatch spans more than one chunk
        longest = n if d == 7 else 40
        assert d < 7 or training.chunk_rows(state.shape, config.kind) < longest
        for size in (1, 2, 17):
            assert_same_gradients(state, {0: rng.integers(0, n, size=size)})
        assert_same_gradients(state, {0: rng.integers(0, n, size=longest)})

    @pytest.mark.parametrize(
        "d, workers, minibatch",
        [(1, 1, 5), (2, 2, 4), (2, 3, 1), (7, 3, 100), (10, 2, 7), (10, 3, 12)],
    )
    def test_trained_model_bytes(self, monkeypatch, d, workers, minibatch):
        # with 3 workers of 12 samples at D = 10 (chunks of 32 samples) or of
        # 100 at D = 7 (chunks of 256), a lockstep step's chunks straddle
        # workers
        n = 300 if d == 7 else 60
        data, specs = one_cell_problem(d, False, Loss.SQUARED, n=n, seed=20 + d)
        config = TrainConfig(epochs=2, minibatch_size=minibatch, step_size=0.5, seed=d,
                             workers=workers, sync_rounds=2)
        batched = train(data, specs, config).to_json()
        monkeypatch.setattr(training, "loss_gradients", reference_loss_gradients)
        assert reference_train(data, specs, config).to_json() == batched

    def test_pairs_with_straddling_chunks(self, monkeypatch):
        # 3 workers of 9 pairs: chunks of 16 pairs at D = 10
        data, specs = one_cell_problem(10, True, Loss.LOGISTIC, n=40, seed=5)
        config = TrainConfig(loss=Loss.LOGISTIC, epochs=1, minibatch_size=9, step_size=0.5,
                             seed=3, workers=3)
        batched = train(data, specs, config).to_json()
        monkeypatch.setattr(training, "loss_gradients", reference_loss_gradients)
        assert reference_train(data, specs, config).to_json() == batched

    @pytest.mark.parametrize("sizes, one_cell", [([2] * 4, True), ([2, 3, 2, 2], False)])
    def test_scatter_takes_no_add_at_or_gather(self, monkeypatch, sizes, one_cell):
        # training's only np.add.at is the theta scatter (the calibrator
        # scatter is the calibrators module's); the lattice with a size of 3
        # shows that the spies see the general path
        scattered, gathered = [], []

        class Add:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, a, *args):
                scattered.append(a.size)
                np.add.at(a, *args)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        def gather(*args):
            gathered.append(1)
            return real_gather(*args)

        real_gather = interpolation._gather
        monkeypatch.setattr(training, "np", Numpy())
        monkeypatch.setattr(interpolation, "_gather", gather)
        data, specs = one_cell_problem(len(sizes), False, Loss.SQUARED, n=40)
        specs = [replace(s, size=m) for s, m in zip(specs, sizes)]
        config = TrainConfig(epochs=2, minibatch_size=8, workers=2, seed=1)
        train(data, specs, config)
        if one_cell:
            assert scattered == [] and gathered == []
        else:
            assert scattered and gathered

    def test_dense_d10_workload_equals_the_sequential_driver(self, monkeypatch, tmp_path):
        data, specs, config = benchmark_inputs("dense-d10", tmp_path, monkeypatch)
        assert interpolation.one_cell(LatticeShape([s.size for s in specs]), config.kind)
        batched = train(data, specs, config).to_json()
        monkeypatch.setattr(training, "loss_gradients", reference_loss_gradients)
        assert reference_train(data, specs, config).to_json() == batched


def checked_steps(monkeypatch) -> list:
    """Make every step's loss gradients check themselves against the
    per-sample loop, bit for bit, on the state the step sees; returns the
    (worker, minibatch size) pairs of each step, in order."""
    real = training.loss_gradients
    steps = []

    def checked(state, batches):
        got = real(state, batches)
        ref = reference_loss_gradients(state, batches)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        steps.append(tuple((k, len(b)) for k, b in batches.items()))
        return got

    monkeypatch.setattr(training, "loss_gradients", checked)
    return steps


EXACT_AND_SAMPLED = (
    RegularizerConfig(RegularizerKind.TORSION, 0.01),
    RegularizerConfig(RegularizerKind.LAPLACIAN, 0.01, sample_count=8),
)


class TestStepPlan:
    """What a run works out once for its steps (the chunk step, and per
    pattern of workers and minibatch sizes the sides' owners, table offsets
    and sample scales) gives every step the gradients of the per-sample
    loop, bit for bit."""

    # 26 samples over 3 workers are shards of 9, 9 and 8: with minibatches
    # of 4 the third worker sits out each epoch's third step, and with
    # minibatches of 9 every worker takes a full pass, of unequal sizes
    CASES = {
        "1-worker-rows-multilinear": (
            lambda: mixed_problem(False, Loss.SQUARED, n=60),
            dict(minibatch_size=16, regularizers=EXACT_AND_SAMPLED)),
        "2-workers-pairs-simplex": (
            lambda: mixed_problem(True, Loss.LOGISTIC, n=40),
            dict(loss=Loss.LOGISTIC, kind=InterpolationKind.SIMPLEX, workers=2, sync_rounds=2,
                 regularizers=EXACT_AND_SAMPLED)),
        "3-workers-short-shard-rows-one-cell": (
            lambda: one_cell_problem(4, False, Loss.SQUARED, n=26),
            dict(minibatch_size=4, workers=3, regularizers=EXACT_AND_SAMPLED)),
        "3-workers-short-shard-pairs-multilinear": (
            lambda: mixed_problem(True, Loss.LOGISTIC, n=26),
            dict(loss=Loss.LOGISTIC, minibatch_size=4, workers=3)),
        "3-workers-short-shard-rows-simplex-frozen": (
            lambda: mixed_problem(False, Loss.HINGE, n=26),
            dict(loss=Loss.HINGE, kind=InterpolationKind.SIMPLEX, minibatch_size=4, workers=3,
                 calibrator_step_scale=0.0, regularizers=EXACT_AND_SAMPLED[1:])),
        "3-workers-full-passes-of-unequal-sizes": (
            lambda: mixed_problem(False, Loss.SQUARED, n=26),
            dict(minibatch_size=9, workers=3, regularizers=EXACT_AND_SAMPLED[:1])),
        # chunks of 32 samples at D = 10 straddle the workers' minibatches
        "3-workers-one-cell-d10-straddling-chunks": (
            lambda: one_cell_problem(10, True, Loss.LOGISTIC, n=35),
            dict(loss=Loss.LOGISTIC, minibatch_size=12, workers=3, epochs=1)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_step_equals_the_per_sample_loop(self, monkeypatch, case):
        problem, settings_ = self.CASES[case]
        data, specs = problem()
        config = TrainConfig(**{"epochs": 2, "step_size": 0.3, "seed": 4, **settings_})
        steps = checked_steps(monkeypatch)
        train(data, specs, config)
        patterns = set(steps)
        if "short-shard" in case:
            # a full step and the one the short shard sits out, every epoch
            assert patterns == {((0, 4), (1, 4), (2, 4)), ((0, 4), (1, 4))}
            assert steps[:3] == [((0, 4), (1, 4), (2, 4))] * 2 + [((0, 4), (1, 4))]
        if "unequal" in case:
            assert patterns == {((0, 9), (1, 9), (2, 8))}

    # dense-d10 is TestOneCellTraining's, against reference_train
    @pytest.mark.parametrize("name", ["calib-d4", "rank-simplex-d10"])
    def test_every_benchmark_step_equals_the_per_sample_loop(self, monkeypatch, tmp_path, name):
        data, specs, config = benchmark_inputs(name, tmp_path, monkeypatch)
        steps = checked_steps(monkeypatch)
        train(data, specs, config)
        assert steps

    def test_sgd_step_reads_the_chunk_step_from_the_state(self, monkeypatch):
        data, specs = mixed_problem(False, Loss.SQUARED)
        state = prepare_state(data, specs, TrainConfig())
        assert state.chunk_step == training.chunk_rows(state.shape, state.config.kind)
        state.chunk_step = 5
        widths = []
        real = training._forward_backward

        def kernel(theta, shape, points, *args, **kwargs):
            widths.append(points.shape[1])
            return real(theta, shape, points, *args, **kwargs)

        def no_chunk_rows(*args):
            raise AssertionError("a step works out its chunk step again")

        monkeypatch.setattr(training, "_forward_backward", kernel)
        monkeypatch.setattr(training, "chunk_rows", no_chunk_rows)
        batch = np.random.default_rng(3).integers(0, 120, size=12)
        assert_same_gradients(state, {0: batch})
        sgd_step(state, {0: batch}, [np.random.default_rng(0)])
        assert widths == [5, 5, 2] * 2
