"""Projected stochastic subgradient training of calibrated lattice models.

One step samples a minibatch (uniformly with replacement; a minibatch size
of at least the dataset size runs a deterministic full pass instead),
averages the per-sample loss subgradients, adds regularizer subgradients
(full or sampled), and applies the steps to the lattice parameters and the
calibrator parameters through the feasibility-preserving walk, so every
iterate satisfies its constraints.  Lattice and calibrator parameters are
updated jointly in the same step, the calibrator step scaled by a separate
factor (scale 0 freezes the calibrators).

Everything about the training samples that stays fixed during a run is
worked out once, in ``prepare_state``: the *plan* locates every side (a
row, or a pair's preferred row then the other) on the calibrators' knots
and categories (``CalibratorSet.locate``), adds the calibrator gradient
layout of every side (``CalibratorSet.plan``), and holds the targets as
floats.  Clones share it, and so do the multilinear kernel's chunk
buffers, which every step of the run reuses.  The loss subgradient is then
one batched pass: the minibatch's sides are gathered from the plan and
calibrated under the current parameters (``CalibratorSet.apply``, with
signs +1 and -1 for the two sides of a pair), then located, weighted and
differentiated as arrays.
Gradients are scattered in sample, side, vertex order for the lattice and
feature, side, entry order for the calibrators, so the result is the
per-sample loop's bit for bit.  Objective and metrics score through
``Model.predict``, which uses the same kernel.

``train`` shards the dataset over K workers; each synchronization round,
every worker trains from the consensus parameters on its own shard, and the
consensus becomes the elementwise average of the workers (feasible, since
the constraint set is convex).  One worker is the plain case of the same
loop.  Workers draw from independent child streams of the seed, so runs are
reproducible.  ``parallel_train`` is another name for ``train``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .calibrators import (
    CalibrationPlan,
    CalibratorSet,
    DataError,
    FeatureSpec,
    missing_vertex_dims,
)
from .data import Dataset, PairDataset
from .interpolation import ChunkBuffers, InterpolationKind, _forward_backward, chunk_rows

# The benchmark's span tracer (perfbench/spans.py) patches these names on
# this module to time the scalar kernels; training runs the batched kernel.
from .interpolation import evaluate_with_gradients, interpolation_weights  # noqa: F401
from .lattice import LatticeShape, locate_cell  # noqa: F401
from .monotonicity import (
    ConstraintSet,
    Direction,
    build_constraints,
    project_update,
)
from .regularizers import (
    RegularizerConfig,
    TermSet,
    regularizer_gradient,
    regularizer_terms,
    regularizer_value,
    sample_regularizer_subgradient,
)


class TrainingError(RuntimeError):
    """Training aborted (non-finite gradients or parameters)."""


class Loss(str, enum.Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    HINGE = "hinge"


# --------------------------------------------------------------------------
# losses


def loss_value(loss: Loss, y: float, z: float) -> float:
    if loss is Loss.SQUARED:
        return (y - z) ** 2
    sign = 2.0 * y - 1.0  # {0,1} -> {-1,+1}
    margin = sign * z
    if loss is Loss.LOGISTIC:
        return math.log1p(math.exp(-margin)) if margin > -30 else -margin
    return max(0.0, 1.0 - margin)


def loss_slope(loss: Loss, y: float, z: float) -> float:
    """d loss / dz (a subgradient where the loss has a kink)."""
    if loss is Loss.SQUARED:
        return 2.0 * (z - y)
    sign = 2.0 * y - 1.0
    margin = sign * z
    if loss is Loss.LOGISTIC:
        if margin >= 0:
            return -sign * math.exp(-margin) / (1.0 + math.exp(-margin))
        return -sign / (1.0 + math.exp(margin))
    return -sign if margin < 1.0 else 0.0


# --------------------------------------------------------------------------
# configuration and state


@dataclass(frozen=True)
class TrainConfig:
    loss: Loss = Loss.SQUARED
    kind: InterpolationKind = InterpolationKind.MULTILINEAR
    epochs: int = 20
    minibatch_size: int = 32
    step_size: float = 0.1
    calibrator_step_scale: float = 1.0
    regularizers: tuple[RegularizerConfig, ...] = ()
    seed: int = 0
    workers: int = 1
    sync_rounds: int = 1

    def __post_init__(self):
        object.__setattr__(self, "loss", Loss(self.loss))
        object.__setattr__(self, "kind", InterpolationKind(self.kind))
        object.__setattr__(self, "regularizers", tuple(self.regularizers))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.minibatch_size < 1:
            raise ValueError("minibatch size must be >= 1")
        if self.step_size < 0 or not math.isfinite(self.step_size):
            raise ValueError("step size must be finite and >= 0")
        if self.calibrator_step_scale < 0 or not math.isfinite(self.calibrator_step_scale):
            raise ValueError("calibrator step scale must be finite and >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.sync_rounds < 1:
            raise ValueError("sync rounds must be >= 1")


@dataclass
class TrainerState:
    shape: LatticeShape
    theta: np.ndarray
    calibrators: CalibratorSet
    config: TrainConfig
    data: Dataset | PairDataset
    theta_constraints: ConstraintSet
    alpha_constraints: ConstraintSet
    plan: CalibrationPlan  # every side of ``data``, located once per run
    targets: np.ndarray  # float target per sample (1.0 for a pair)
    reg_terms: list[tuple[RegularizerConfig, TermSet]] = field(default_factory=list)
    # the multilinear kernel's chunk arrays and the theta scatter's
    # sample-major copies of them, kept for the whole run; clones share
    # them, which is safe because workers run one after another
    buffers: ChunkBuffers = field(default_factory=ChunkBuffers, repr=False, compare=False)

    def clone(self) -> "TrainerState":
        """A state with its own theta and calibrator parameters; everything
        else, the plan and the kernel's buffers included, is shared."""
        return dataclasses.replace(
            self, theta=self.theta.copy(), calibrators=self.calibrators.fork()
        )

    @property
    def trains_calibrators(self) -> bool:
        return (
            self.calibrators.num_free > 0 and self.config.calibrator_step_scale != 0.0
        )


# --------------------------------------------------------------------------
# initialization


def init_lattice(shape: LatticeShape, directions) -> np.ndarray:
    """Linear start: slope +-1/(M_d - 1) along each constrained dimension.

    The sum over constrained dimensions is rescaled to span [0, 1] (divide
    by the number of constrained dimensions, shift the minimum to 0), so the
    start is feasible with room to move.  With no constrained dimensions the
    start is all zeros.
    """
    if len(directions) != shape.ndim:
        raise ValueError(f"expected {shape.ndim} directions, got {len(directions)}")
    theta = np.zeros(shape.num_parameters)
    idx = np.arange(shape.num_parameters)
    constrained = 0
    for d, direction in enumerate(directions):
        direction = Direction(direction)
        if direction is Direction.NONE:
            continue
        constrained += 1
        coord = (idx // shape.strides[d]) % shape.sizes[d]
        slope = 1.0 if direction is Direction.INCREASING else -1.0
        theta += slope * coord / (shape.sizes[d] - 1)
    if constrained == 0:
        return theta
    theta -= theta.min()
    theta /= constrained
    return theta


def _interleave(a, b):
    if isinstance(a, np.ndarray):
        return np.stack([a, b], axis=1).ravel()
    return [v for ab in zip(a, b) for v in ab]


def _plan(calibrators: CalibratorSet, data) -> tuple[CalibrationPlan, np.ndarray]:
    """Locate every side of ``data``, derive its gradient layout, and
    convert its targets.  A labelled row is one side; a pair is its
    preferred row, then the other, scored against y = 1.  The first bad row
    or pair is named by its index."""
    pairs = isinstance(data, PairDataset)
    if pairs:
        columns = [_interleave(p, m) for p, m in zip(data.plus_columns, data.minus_columns)]
        targets = np.ones(data.num_pairs)
    else:
        if data.labels is None:
            raise DataError("training rows have no labels")
        columns, targets = data.columns, np.asarray(data.labels, dtype=float)
        bad = np.flatnonzero(~np.isfinite(targets))
        if len(bad):
            raise DataError(f"training row {bad[0]}: label {targets[bad[0]]} is not finite")
    try:
        location = calibrators.locate(columns)
    except DataError as e:
        if e.row is None:
            raise
        i, side = divmod(e.row, 2)
        where = f"pair {i} ({('preferred', 'other')[side]} row)" if pairs else f"row {e.row}"
        raise DataError(f"training {where}: {e}") from None
    return calibrators.plan(location), targets


def prepare_state(data: Dataset | PairDataset, specs: list[FeatureSpec], config: TrainConfig) -> TrainerState:
    """Fit calibrators to the data, locate the training samples on them,
    and assemble a feasible starting state."""
    shape = LatticeShape([s.size for s in specs])
    if isinstance(data, PairDataset):
        calibrators = CalibratorSet.fit(specs, data.fit_columns(), None)
    else:
        calibrators = CalibratorSet.fit(specs, data.columns, data.labels)
    plan, targets = _plan(calibrators, data)
    missing_dims = missing_vertex_dims(specs)
    directions = tuple(s.monotone for s in specs)
    theta_constraints = build_constraints(shape, directions, missing_dims)
    reg_terms = [
        (cfg, regularizer_terms(shape, cfg.kind, missing_dims))
        for cfg in config.regularizers
    ]
    if config.loss in (Loss.LOGISTIC, Loss.HINGE) and not np.isin(targets, (0.0, 1.0)).all():
        raise ValueError(f"{config.loss.value} loss needs binary {{0,1}} labels")
    return TrainerState(
        shape=shape,
        theta=init_lattice(shape, directions),
        calibrators=calibrators,
        config=config,
        data=data,
        theta_constraints=theta_constraints,
        alpha_constraints=calibrators.constraints(),
        plan=plan,
        targets=targets,
        reg_terms=reg_terms,
    )


# --------------------------------------------------------------------------
# gradients and steps

_SIDES = np.array([0, 1])  # plan rows 2i and 2i + 1 are the sides of pair i


def loss_gradients(state: TrainerState, minibatch) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch-mean loss subgradient w.r.t. theta and the calibrator vector.

    The minibatch's sides are gathered from the state's plan and run
    through the batched kernels in chunks.  Each sample's loss slope comes
    from the scalar ``loss_slope``.  Theta gradients are scattered sample by
    sample, side by side, vertex by vertex, and each chunk's calibrator
    gradients feature by feature, side by side, entry by entry, so every
    entry is the sum a per-sample loop would form, in its order.  Both
    scatters take every term: the terms a loop would skip (zero slope, zero
    dfdx) add +-0.0, and a plan entry without a free parameter (position -1)
    lands in a spare slot past the end, which is dropped.
    """
    batch = np.asarray(minibatch, dtype=np.int64)
    g_theta = np.zeros_like(state.theta)
    # one spare last slot, where the plan's -1 positions (no entry) land
    g_alpha = np.zeros(state.calibrators.num_free + 1)
    want = state.trains_calibrators
    scale = 1.0 / len(batch)
    loss = state.config.loss
    n_sides = 2 if isinstance(state.data, PairDataset) else 1
    step = max(1, chunk_rows(state.shape, state.config.kind) // n_sides)
    for start in range(0, len(batch), step):
        samples = batch[start : start + step]
        sides = state.plan.take(samples if n_sides == 1 else (2 * samples[:, None] + _SIDES).ravel())
        x = state.calibrators.apply(sides)
        values, indices, weights, dfdx = _forward_backward(
            state.theta, state.shape, x, state.config.kind, want, state.buffers
        )
        # z = 0.0 + sum of sign * value over the sides; values are never -0.0
        z = values if n_sides == 1 else values[0::2] - values[1::2]
        y = state.targets[samples]
        slope = [loss_slope(loss, yi, zi) * scale for yi, zi in zip(y.tolist(), z.tolist())]
        s = np.repeat(slope, n_sides)  # sign * slope, side by side
        if n_sides == 2:
            s[1::2] = -s[1::2]
        # a zero slope or a zero dfdx adds +-0.0 to a sum that starts at +0.0,
        # which leaves every bit as it is, so neither scatter needs a mask
        if indices.flags.c_contiguous:  # already sample-major: simplex, or one sample
            products = s[:, None] * weights
        else:
            # the multilinear kernel's vertex-major buffers, transposed: write
            # them sample-major into the run's own buffers, one pass each, so
            # the ravels below are views, not fresh transposing copies
            rows, k = indices.shape
            flat = state.buffers.get("scatter_indices", rows, k, np.int64)
            np.copyto(flat, indices)
            indices = flat
            products = np.multiply(s[:, None], weights, out=state.buffers.get("products", rows, k))
        np.add.at(g_theta, indices.ravel(), products.ravel())
        if want:
            terms = (s[:, None] * dfdx).T[:, :, None] * sides.partials  # (D, n, 2)
            np.add.at(g_alpha, sides.positions.ravel(), terms.ravel())
    return g_theta, g_alpha[:-1]


def sgd_step(state: TrainerState, minibatch, rng: np.random.Generator) -> TrainerState:
    """One projected subgradient step over ``minibatch`` (sample indices)."""
    g_theta, g_alpha = loss_gradients(state, minibatch)
    for cfg, terms in state.reg_terms:
        if cfg.sample_count is None:
            g = regularizer_gradient(state.theta, terms)
        else:
            g = sample_regularizer_subgradient(state.theta, terms, cfg.sample_count, rng)
        g_theta += cfg.weight * g
    if not np.isfinite(g_theta).all() or not np.isfinite(g_alpha).all():
        raise TrainingError("non-finite gradient; lower the step size")
    eta = state.config.step_size
    trains_calibrators = state.trains_calibrators
    # a product that overflows (step size times gradient, or step size times
    # calibrator scale) makes a non-finite step, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        theta_step = -eta * g_theta
        if trains_calibrators:
            alpha_step = -eta * state.config.calibrator_step_scale * g_alpha
    if not np.isfinite(theta_step).all() or (
        trains_calibrators and not np.isfinite(alpha_step).all()
    ):
        raise TrainingError("non-finite step; lower the step size")
    state.theta = project_update(state.theta, theta_step, state.theta_constraints)
    if trains_calibrators:
        alpha = project_update(state.calibrators.alpha(), alpha_step, state.alpha_constraints)
        state.calibrators.set_alpha(alpha)
    if not np.isfinite(state.theta).all():
        raise TrainingError("non-finite parameters; lower the step size")
    return state


def _run_epochs(
    state: TrainerState, shard: np.ndarray, epochs: range, rng: np.random.Generator, where: str
) -> None:
    """Train ``state`` on ``shard`` for the run's ``epochs`` (numbered from
    1).  A ``TrainingError`` gains ``where`` (round and worker), the epoch
    and the step within it."""
    n = len(shard)
    if n == 0:
        return
    k = state.config.minibatch_size
    full = k >= n  # one deterministic full pass per epoch
    steps = 1 if full else math.ceil(n / k)
    for epoch in epochs:
        for step in range(1, steps + 1):
            batch = shard if full else shard[rng.integers(0, n, size=k)]
            try:
                sgd_step(state, batch, rng)
            except TrainingError as e:
                raise TrainingError(f"{e} ({where}, epoch {epoch}, step {step})") from None


# --------------------------------------------------------------------------
# training drivers


def _num_samples(data) -> int:
    return data.num_pairs if isinstance(data, PairDataset) else data.num_rows


def train(data, specs: list[FeatureSpec], config: TrainConfig):
    """Train ``config.workers`` shards, averaged after each of
    ``config.sync_rounds`` rounds.  One worker trains on every sample in
    index order, and the mean of its one vector is that vector bit for bit."""
    from .model import Model

    state = prepare_state(data, specs, config)
    n = _num_samples(data)
    if n == 0:
        raise ValueError("training data is empty")
    K = config.workers
    streams = np.random.SeedSequence(config.seed).spawn(K + 1)
    rngs = [np.random.default_rng(s) for s in streams[:K]]
    if K == 1:
        shards = [np.arange(n)]
    else:
        order = np.random.default_rng(streams[K]).permutation(n)
        shards = [order[k::K] for k in range(K)]
    base, extra = divmod(config.epochs, config.sync_rounds)
    done = 0  # epochs of the earlier rounds
    for r in range(config.sync_rounds):
        count = base + (1 if r < extra else 0)
        epochs = range(done + 1, done + count + 1)
        done += count
        workers = [state.clone() for _ in range(K)]
        for k, (worker, shard, rng) in enumerate(zip(workers, shards, rngs), 1):
            _run_epochs(worker, shard, epochs, rng, f"round {r + 1}, worker {k}")
        state.theta = np.mean([w.theta for w in workers], axis=0)
        if state.calibrators.num_free:
            state.calibrators.set_alpha(np.mean([w.calibrators.alpha() for w in workers], axis=0))
    return Model(
        specs=list(specs),
        shape=state.shape,
        theta=state.theta,
        calibrators=state.calibrators,
        kind=config.kind,
        loss=config.loss,
        metadata={
            "seed": config.seed,
            "epochs": config.epochs,
            "minibatch_size": config.minibatch_size,
            "step_size": config.step_size,
            "calibrator_step_scale": config.calibrator_step_scale,
            "workers": config.workers,
            "sync_rounds": config.sync_rounds,
            "regularizers": [
                {
                    "kind": cfg.kind.value,
                    "weight": cfg.weight,
                    "sample_count": cfg.sample_count,
                }
                for cfg in config.regularizers
            ],
        },
    )


parallel_train = train


# --------------------------------------------------------------------------
# objective and metrics


def _scores(model, data) -> tuple[np.ndarray, np.ndarray]:
    """Scores z and targets y per sample; a pair scores its preferred row
    minus the other, against y = 1."""
    if isinstance(data, PairDataset):
        z = model.predict(Dataset(data.plus_columns, None)) - model.predict(
            Dataset(data.minus_columns, None)
        )
        return z, np.ones(len(z))
    if data.labels is None:
        raise ValueError("dataset has no labels to evaluate against")
    return model.predict(data), np.asarray(data.labels, dtype=float)


def model_objective(model, data, config: TrainConfig) -> float:
    """Mean loss of a finished model on ``data`` plus weighted regularizer
    values: the objective that training under ``config`` minimises."""
    z, y = _scores(model, data)
    total = sum(loss_value(config.loss, float(yi), float(zi)) for yi, zi in zip(y, z))
    total /= max(len(z), 1)
    missing_dims = missing_vertex_dims(model.specs)
    for cfg in config.regularizers:
        terms = regularizer_terms(model.shape, cfg.kind, missing_dims)
        total += cfg.weight * regularizer_value(model.theta, terms)
    return total


def evaluate_metrics(model, data) -> dict:
    """RMSE for labeled rows, plus accuracy when labels are {0,1} (and
    log-loss unless the model was trained with hinge loss); pairwise
    accuracy for pair data, ties counted half."""
    z, y = _scores(model, data)
    n = len(z)
    if isinstance(data, PairDataset):
        wins = np.sum(z > 0) + 0.5 * np.sum(z == 0)
        return {"num_pairs": n, "pair_accuracy": float(wins) / n if n else float("nan")}
    out: dict = {"num_rows": n}
    out["rmse"] = float(np.sqrt(np.mean((z - y) ** 2)))
    if np.isin(y, (0.0, 1.0)).all() and n:
        if model.loss is Loss.HINGE:
            out["accuracy"] = float(np.mean((z >= 0.0) == (y == 1.0)))
            return out
        if model.loss is Loss.LOGISTIC:
            probs = 1.0 / (1.0 + np.exp(-z))
        else:
            probs = np.clip(z, 1e-12, 1.0 - 1e-12)
        out["accuracy"] = float(np.mean((probs >= 0.5) == (y == 1.0)))
        out["log_loss"] = float(
            -np.mean(y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs))
        )
    return out
