"""Projected stochastic subgradient training of calibrated lattice models.

One step samples a minibatch (uniformly with replacement; a minibatch size
of at least the dataset size runs a deterministic full pass instead),
averages the per-sample loss subgradients, adds regularizer subgradients
(full or sampled), and applies the steps to the lattice parameters and the
calibrator parameters through the feasibility-preserving walk, so every
iterate satisfies its constraints.  Lattice and calibrator parameters are
updated jointly in the same step, the calibrator step scaled by a separate
factor (scale 0 freezes the calibrators).

A training state holds the parameters as two plain arrays, which the steps
write: theta, and the calibrator parameter table laid out as
``CalibratorSet.table``, whose free entries are alpha.  Its calibrators are
the fitted ones and keep their starting parameters; the trained model's
calibrators are built once, from the final table
(``CalibratorSet.with_table``).  Everything about the training samples that
stays fixed during a run is worked out once, in ``prepare_state``: the
*plan* is the location of every side (a row, or a pair's preferred row then
the other) on the calibrators' knots and categories
(``CalibratorSet.locate``), and the targets are held as floats.  Each
round's :class:`WorkerGroup` holds its workers' theta and table rows and
shares everything else with the state: the calibrators, the plan, the
targets and the multilinear kernel's chunk buffers, which every step of
the run reuses.  The loss subgradient is then one batched pass: the
minibatch's sides are gathered from the plan and calibrated under the
table's parameters (``CalibratorSet.apply``, with signs +1 and -1 for the
two sides of a pair), then located, weighted and differentiated as
arrays.
Gradients are scattered in sample, side, vertex order for the lattice and
side, feature, entry order for the calibrators (into a vector over their
parameter table, read at the free entries), so the result is the
per-sample loop's bit for bit.  The lattice scatter is ``np.add.at`` over
the kernel's vertex indices, except on a lattice of one cell (every size
2, multilinear), where the kernel returns no indices: every sample's
products land on the same 2^D entries, so the scatter is an in-order row
sum over a sample-major buffer.  On the ``dense-d10`` benchmark workload
(one 2^10 cell) training runs at a median 25.1k samples/s against 20.3k
through ``np.add.at`` (10 alternating pairs of benchmark runs, all won, on
a 2-vCPU VM), with the same model bytes.  Objective and metrics score
through ``Model.predict``, which uses the same kernel.

``train`` shards the dataset over K workers; each synchronization round,
every worker trains from the consensus parameters on its own shard, and the
consensus becomes the elementwise average of the workers (feasible, since
the constraint set is convex): the shard-and-average scheme of Zinkevich et
al., *Parallelized Stochastic Gradient Descent* (2010).  The workers run in
lockstep, in one process: a round holds their parameters as stacks, one
row per worker (a :class:`WorkerGroup`), and their j-th steps are one
``sgd_step``, whose loss gradients are one batched pass over every
worker's minibatch.  Regularizers, checks and projections stay per worker.
Lockstep only changes the order in which independent work is issued, so
the result is the same bits as running the workers one after another.  One
worker is the plain case of the same loop.  Workers draw from independent
child streams of the seed, so runs are reproducible.  ``parallel_train``
is another name for ``train``.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .calibrators import (
    CalibratorSet,
    DataError,
    FeatureSpec,
    Location,
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

    worker: int | None = None  # the failing worker of a lockstep step, when known


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


def _loss_slopes(loss: Loss, y: np.ndarray, z: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``loss_slope(loss, y[i], z[i]) * scale[i]`` for every i, bit for bit,
    in numpy.  The logistic slope takes ``math.exp`` of -|margin|, which is
    ``loss_slope``'s exponent on either side of 0, so that every operation
    is the scalar one on the same operands."""
    if loss is Loss.SQUARED:
        return 2.0 * (z - y) * scale
    sign = 2.0 * y - 1.0
    margin = sign * z
    if loss is Loss.HINGE:
        return np.where(margin < 1.0, -sign, 0.0) * scale
    e = np.fromiter(map(math.exp, (-np.abs(margin)).tolist()), float, len(margin))
    return np.where(margin >= 0, -sign * e / (1.0 + e), -sign / (1.0 + e)) * scale


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
    table: np.ndarray  # calibrator parameters, laid out as CalibratorSet.table()
    calibrators: CalibratorSet  # as fitted: locations, free entries, constraints
    config: TrainConfig
    data: Dataset | PairDataset
    theta_constraints: ConstraintSet
    alpha_constraints: ConstraintSet
    plan: Location  # every side of ``data``, located once per run
    targets: np.ndarray  # float target per sample (1.0 for a pair)
    reg_terms: list[tuple[RegularizerConfig, TermSet]] = field(default_factory=list)
    # the multilinear kernel's chunk arrays and the theta scatter's
    # sample-major arrays, kept for the whole run; every round's worker
    # group shares them, which is safe because one step at a time runs, and
    # a group's workers step in one pass
    buffers: ChunkBuffers = field(default_factory=ChunkBuffers, repr=False, compare=False)

    def clone(self) -> "TrainerState":
        """A state with its own theta and calibrator table; everything else,
        the plan and the kernel's buffers included, is shared."""
        return dataclasses.replace(self, theta=self.theta.copy(), table=self.table.copy())

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


def _plan(calibrators: CalibratorSet, data) -> tuple[Location, np.ndarray]:
    """Locate every side of ``data`` and convert its targets.  A labelled
    row is one side; a pair is its preferred row, then the other, scored
    against y = 1.  The first bad row or pair is named by its index."""
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
    return location, targets


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
        table=calibrators.table(),
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


class WorkerGroup:
    """The workers of one synchronization round, stepping together.

    Row k of ``theta`` (K, P) is worker k's lattice parameters and row k of
    ``table`` (K, T) its calibrator parameters, laid out as
    :meth:`CalibratorSet.table`; both start as copies of the consensus in
    ``state``.  Everything else (data, plan, constraints, regularizers and
    the kernel's buffers) is the state's, shared by all K.
    """

    def __init__(self, state: TrainerState, count: int) -> None:
        self.state = state
        self.theta = np.tile(state.theta, (count, 1))
        self.table = np.tile(state.table, (count, 1))

    @property
    def theta_constraints(self) -> ConstraintSet:
        # read by perfbench's traced project_update, which tells the theta
        # projection from the alpha one by it on the state sgd_step gets
        return self.state.theta_constraints


def loss_gradients(state: TrainerState | WorkerGroup, minibatch) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch-mean loss subgradient w.r.t. theta and the calibrator vector.

    ``state`` is one worker's :class:`TrainerState`, or a
    :class:`WorkerGroup` with ``minibatch`` mapping each worker that takes
    the step to its minibatch; a group gets a (K, P) and a (K, free) stack,
    row k worker k's gradient, all zero for a worker not stepping.
    """
    if isinstance(state, WorkerGroup):
        return _gradients(state.state, state.theta, state.table, minibatch)
    g_theta, g_alpha = _gradients(state, state.theta[None], state.table[None], {0: minibatch})
    return g_theta[0], g_alpha[0]


def _gradients(
    state: TrainerState, theta: np.ndarray, table: np.ndarray, batches: dict
) -> tuple[np.ndarray, np.ndarray]:
    """``loss_gradients`` of the workers in ``batches`` (worker -> sample
    indices), whose parameters are rows of the ``theta`` and ``table``
    stacks.

    The workers' samples are taken in worker order, each worker's in its
    minibatch's order, and their sides gathered from the state's plan and
    run through the batched kernels in chunks.  With more than one worker,
    a side's calibrator locations are offset by k times the table size, so
    that it reads worker k's row of the flattened table stack, and the
    kernel reads worker k's row of the theta stack; the gradients land in
    the same rows.  Each sample's loss slope is ``loss_slope``'s, scaled by
    one over its own worker's minibatch size (``_loss_slopes``).  Theta
    gradients are scattered sample by sample, side by side, vertex by
    vertex, and each chunk's calibrator gradients side by side, feature by
    feature, entry by entry.  Worker blocks are contiguous and touch
    disjoint slices, so every entry is the sum a per-sample loop over that
    worker's minibatch would form, in its order.  Both scatters take every
    term: the terms a loop would skip (zero slope, zero dfdx, zero t) add
    +-0.0, and calibrator terms at fixed table entries are dropped by the
    final gather.  One table vector takes every chunk, since per-chunk sums
    would change bits.  On a lattice of one cell the kernel returns no
    vertex indices, and the theta scatter is a row sum (``_add_rows``).
    """
    cs = state.calibrators
    (K, P), T = theta.shape, table.shape[1]
    g_theta = np.zeros(theta.size)
    g_table = np.zeros(table.size)
    flat_theta, flat_table = theta.ravel(), table.ravel()
    want = state.trains_calibrators
    loss = state.config.loss
    n_sides = 2 if isinstance(state.data, PairDataset) else 1
    minibatches = [np.asarray(b, dtype=np.int64) for b in batches.values()]
    sizes = [len(b) for b in minibatches]
    batch = np.concatenate(minibatches)
    scales = np.repeat([1.0 / n for n in sizes], sizes)
    # worker of each sample, for the offsets; one worker needs none
    owner = np.repeat(list(batches), sizes) if K > 1 else None
    step = max(1, chunk_rows(state.shape, state.config.kind) // n_sides)
    for start in range(0, len(batch), step):
        samples = batch[start : start + step]
        table_offset = side_owner = None
        if owner is not None:
            side_owner = np.repeat(owner[start : start + step], n_sides)
            table_offset = side_owner * T
        sides = state.plan.take(
            samples if n_sides == 1 else (2 * samples[:, None] + _SIDES).ravel(), table_offset
        )
        x = cs.apply(sides, flat_table)
        values, indices, weights, dfdx = _forward_backward(
            flat_theta if owner is None else theta, state.shape, x, state.config.kind, want,
            state.buffers, owner=side_owner,
        )
        # z = 0.0 + sum of sign * value over the sides; values are never -0.0
        z = values if n_sides == 1 else values[0::2] - values[1::2]
        slope = _loss_slopes(loss, state.targets[samples], z, scales[start : start + step])
        s = np.repeat(slope, n_sides)  # sign * slope, side by side
        if n_sides == 2:
            s[1::2] = -s[1::2]
        # a zero slope or a zero dfdx adds +-0.0 to a sum that starts at +0.0,
        # which leaves every bit as it is, so neither scatter needs a mask
        if indices is None:
            _add_rows(g_theta.reshape(K, P), s, weights, side_owner, state.buffers)
        else:
            # both kernels record vertex-major and return transposed views:
            # write them sample-major into the run's own buffers, one pass
            # each, so the ravels below are views, not transposing copies
            rows, k = indices.shape
            flat = state.buffers.get("scatter_indices", rows, k, np.int64)
            np.copyto(flat, indices)
            products = np.multiply(s[:, None], weights, out=state.buffers.get("products", rows, k))
            np.add.at(g_theta, flat.ravel(), products.ravel())
        if want:
            # a product that overflows (huge labels and slopes) makes a
            # non-finite gradient, which _descend reports
            with np.errstate(over="ignore", invalid="ignore"):
                cs.add_apply_gradient(sides, s[:, None] * dfdx, g_table)
    return g_theta.reshape(K, P), cs.at_free(g_table.reshape(K, T))


def _add_rows(g: np.ndarray, s: np.ndarray, weights: np.ndarray, owner, buffers) -> None:
    """``g[owner[i]] += s[i] * weights[i]`` for every point i in order, bit
    for bit as ``np.add.at`` adds them: the theta scatter of a one-cell
    lattice, whose point i has vertex j at entry j of its worker's row of
    ``g`` (K, 2^D).  Without ``owner`` every point is worker 0's.

    Row 0 of a sample-major (n + 1, k) buffer holds the running sum and the
    rows below it the products; ``add.reduce`` over axis 0 adds the rows of
    a C-contiguous array at least 2 wide one after another, top to bottom.
    A worker's points are one run, and the runs are reduced in turn: the row
    before a run's products takes that worker's running sum, and holds only
    the previous run's last product, already added."""
    n, k = weights.shape
    rows = buffers.get("rows", n + 1, k)
    np.multiply(s[:, None], weights, out=rows[1:])
    ends = [n] if owner is None else [*(np.flatnonzero(np.diff(owner)) + 1).tolist(), n]
    start = 0
    for end in ends:
        dest = g[0 if owner is None else owner[start]]
        rows[start] = dest
        np.add.reduce(rows[start : end + 1], axis=0, out=dest)
        start = end


def sgd_step(state: TrainerState | WorkerGroup, minibatch, rng):
    """One projected subgradient step over ``minibatch`` (sample indices).

    On a :class:`WorkerGroup`, ``minibatch`` maps each worker taking the
    step to its minibatch and ``rng`` holds every worker's generator: the
    workers' loss gradients are taken together, then each worker adds its
    regularizers (sampled from its own generator), checks and projects its
    own rows.  A worker whose step fails leaves its rows as they were; once
    every other worker has stepped, the lowest failing worker's
    ``TrainingError`` is raised, with that worker's index as ``worker``.
    """
    if not isinstance(state, WorkerGroup):
        cs = state.calibrators
        g_theta, g_alpha = loss_gradients(state, minibatch)
        alpha = cs.at_free(state.table) if state.trains_calibrators else None
        state.theta, alpha = _descend(state, state.theta, alpha, g_theta, g_alpha, rng)
        if alpha is not None:
            cs.put_free(state.table, alpha)
        return state
    group, shared = state, state.state
    cs = shared.calibrators
    g_theta, g_alpha = loss_gradients(group, minibatch)
    failure = None
    for k in minibatch:
        alpha = cs.at_free(group.table[k]) if shared.trains_calibrators else None
        try:
            theta, alpha = _descend(shared, group.theta[k], alpha, g_theta[k], g_alpha[k], rng[k])
        except TrainingError as e:
            if failure is None:
                failure, e.worker = e, k
            continue
        group.theta[k] = theta
        if alpha is not None:
            cs.put_free(group.table[k], alpha)
    if failure is not None:
        raise failure
    return group


def _descend(state: TrainerState, theta, alpha, g_theta, g_alpha, rng):
    """One worker's step from its loss subgradients: add the regularizers
    at ``theta`` into ``g_theta``, check, and return the projected theta and
    alpha (None where calibrators are not trained)."""
    for cfg, terms in state.reg_terms:
        if cfg.sample_count is None:
            g = regularizer_gradient(theta, terms)
        else:
            g = sample_regularizer_subgradient(theta, terms, cfg.sample_count, rng)
        g_theta += cfg.weight * g
    if not np.isfinite(g_theta).all() or not np.isfinite(g_alpha).all():
        raise TrainingError("non-finite gradient; lower the step size")
    eta = state.config.step_size
    # a product that overflows (step size times gradient, or step size times
    # calibrator scale) makes a non-finite step, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        theta_step = -eta * g_theta
        if alpha is not None:
            alpha_step = -eta * state.config.calibrator_step_scale * g_alpha
    if not np.isfinite(theta_step).all() or (
        alpha is not None and not np.isfinite(alpha_step).all()
    ):
        raise TrainingError("non-finite step; lower the step size")
    theta = project_update(theta, theta_step, state.theta_constraints)
    if alpha is not None:
        alpha = project_update(alpha, alpha_step, state.alpha_constraints)
    if not np.isfinite(theta).all():
        raise TrainingError("non-finite parameters; lower the step size")
    return theta, alpha


def _run_round(group: WorkerGroup, shards, rngs, epochs: range, where: str) -> None:
    """Train every worker of ``group`` on its shard for the round's
    ``epochs`` (numbered from 1), in lockstep: the workers' j-th steps of an
    epoch are one ``sgd_step``.  Each worker draws its minibatch from its
    own generator, and a worker with fewer steps in an epoch sits out the
    rest of it.  A worker that fails leaves the group, and so does every
    higher-numbered one, whose error a run of the workers one after another
    would never reach; the rest run on, and the lowest failing worker's
    ``TrainingError`` is raised at the end, gaining ``where`` (the round),
    the worker, the epoch and the step."""
    size = group.state.config.minibatch_size
    # per worker with samples: index, shard, full pass (one deterministic
    # pass per epoch) and steps per epoch
    running = [
        (k, shard, size >= len(shard), math.ceil(len(shard) / size))
        for k, shard in enumerate(shards)
        if len(shard)
    ]
    failure = None
    for epoch in epochs:
        for step in itertools.count(1):
            batches = {
                k: shard if full else shard[rngs[k].integers(0, len(shard), size=size)]
                for k, shard, full, steps in running
                if step <= steps
            }
            if not batches:
                break
            try:
                sgd_step(group, batches, rngs)
            except TrainingError as e:
                worker = min(batches) if e.worker is None else e.worker
                failure = TrainingError(
                    f"{e} ({where}, worker {worker + 1}, epoch {epoch}, step {step})"
                )
                running = [r for r in running if r[0] < worker]
    if failure is not None:
        raise failure


# --------------------------------------------------------------------------
# training drivers


def _num_samples(data) -> int:
    return data.num_pairs if isinstance(data, PairDataset) else data.num_rows


def train(data, specs: list[FeatureSpec], config: TrainConfig):
    """Train ``config.workers`` shards, averaged after each of
    ``config.sync_rounds`` rounds.  Each round's workers step in lockstep
    (see ``_run_round``), and the result is bit for bit that of training
    them one after another: each worker's parameters, generator and order
    of arithmetic are its own.  The consensus is the mean over the workers'
    stacked rows.  One worker trains on every sample in index order, and
    the mean of its one vector is that vector bit for bit."""
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
        group = WorkerGroup(state, K)
        _run_round(group, shards, rngs, epochs, f"round {r + 1}")
        cs = state.calibrators
        state.theta = np.mean(group.theta, axis=0)
        if cs.num_free:
            cs.put_free(state.table, np.mean(cs.at_free(group.table), axis=0))
    return _model(state, specs)


def _model(state: TrainerState, specs: list[FeatureSpec]):
    """The model of a trained state, with its run's settings as metadata."""
    from .model import Model

    config = state.config
    return Model(
        specs=list(specs),
        shape=state.shape,
        theta=state.theta,
        calibrators=state.calibrators.with_table(state.table),
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
