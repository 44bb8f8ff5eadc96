"""Projected stochastic subgradient training of calibrated lattice models.

One step samples a minibatch (uniformly with replacement; a minibatch size
of at least the dataset size runs a deterministic full pass instead),
averages the per-sample loss subgradients, adds regularizer subgradients
(full or sampled), and applies the steps to the lattice parameters and the
calibrator parameters through the feasibility-preserving walk, so every
iterate satisfies its constraints.  Lattice and calibrator parameters are
updated jointly in the same step, the calibrator step scaled by a separate
factor (scale 0 freezes the calibrators).

``train`` shards the dataset over K workers; each synchronization round,
every worker trains from the consensus parameters on its own shard, and the
consensus becomes the elementwise average of the workers (feasible, since
the constraint set is convex): the shard-and-average scheme of Zinkevich et
al., *Parallelized Stochastic Gradient Descent* (2010).  Workers draw from
independent child streams of the seed, so runs are reproducible.
``parallel_train`` is another name for ``train``.

A :class:`TrainerState` holds the parameters as two stacks with one row
per worker, which the steps write: theta (K, P), and the calibrator
parameter table (K, T) laid out as ``CalibratorSet.table``, whose free
entries are alpha.  One worker is the plain case, a stack of one row.  Its
calibrators are the fitted ones and keep their starting parameters; the
trained model's calibrators are built once, from row 0 of the final table
(``CalibratorSet.with_table``, which keeps the fitted set's layout).
Everything about the training samples that stays fixed during a run is
worked out once, in ``prepare_state`` and shared by every worker: the
calibrators are fitted (the knots of features that share their keypoints
and number of finite values in one block), the *plan* is the location of
every side (a row, or a pair's preferred row then the other) on the
calibrators' knots and categories (``CalibratorSet.locate``,
feature-major), the targets are held as floats, and the kernels' chunk
buffers, a set taken from the spare sets for the run and given back at its
end (``interpolation.spare_buffers``), are reused by every step.  The
state also holds what every step would otherwise derive again: the chunk
step (``chunk_step``, samples per chunk of the batched kernels, from
``chunk_rows``), and, for each pattern of workers and minibatch sizes a
lockstep step takes, the worker of each side
and its offset into the table stack, chunk by chunk, and the samples' loss
scale (one float when the sizes are equal), worked out on the pattern's
first step (``_owner_plan``).  A step itself does only what depends on its
minibatch or on the parameters: it gathers the sides from the plan,
calibrates them under the current tables, runs the kernel, takes the loss
slopes and scatters both gradients into arrays of its own (the chunk arrays
it writes on the way come from the run's buffers), then per worker adds the
regularizers and projects.  What depends only on the lattice shape
and the features' directions is built once per shape and shared, read-only,
by every run: the lattice's constraint set (``build_constraints``, with the
walk's workspaces), its linear start (``init_lattice``, which
``prepare_state`` copies into the theta stack) and the regularizer terms
(``regularizer_terms``); each comes from a cache that keeps a few of the
most recently used.

The workers run in lockstep, in one process: their j-th steps are one
``sgd_step``, whose ``batches`` map each worker that takes the step to its
minibatch.  The loss subgradient is one batched pass over every worker's
minibatch: the sides are gathered from the plan and calibrated under their
worker's table row (``CalibratorSet.apply``, with signs +1 and -1 for the
two sides of a pair), then located, weighted and differentiated as arrays
against their worker's theta row.  Gradients are scattered in sample,
side, vertex order for the lattice and feature, side, entry order for the
calibrators (into a vector over the parameter table stack, read at the
free entries; each feature owns its entries, so every entry takes its
terms in side order), so each row is the per-sample loop's over that worker's
minibatch, bit for bit.  The lattice scatter is ``np.add.at`` over the
kernel's vertex indices, except on a lattice of one cell (every size 2,
multilinear), where the kernel returns no indices: every sample's products
land on the same 2^D entries of its worker's row, so the scatter is an
in-order row sum over a sample-major buffer (CHANGES.md records its
measured speed).  Regularizers, checks and projections stay per worker.
Lockstep only changes the order in which independent work is issued, so
the result is the same bits as running the workers one after another.
Objective and metrics score through ``Model.predict``, which uses the same
kernel.  The scalar references the batched step is held against (the
per-sample loop over ``evaluate_with_gradients``, ``row_gradients`` and
``loss_slope``, and the sequential driver) live in
``tests/scalar_reference.py``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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
from .interpolation import (
    ChunkBuffers,
    InterpolationKind,
    _forward_backward,
    chunk_rows,
    spare_buffers,
)

# The benchmark's span tracer (perfbench/spans.py) patches these names on
# this module to time the scalar kernels; training runs the batched kernel.
from .interpolation import evaluate_with_gradients, interpolation_weights  # noqa: F401
from .lattice import LatticeShape, locate_cell  # noqa: F401
from .monotonicity import (
    _CACHED_SETS,
    ConstraintSet,
    Direction,
    _robust_norm,
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
        try:
            return (y - z) ** 2
        except OverflowError:  # a square past the float limit
            return math.inf
    sign = 2.0 * y - 1.0  # {0,1} -> {-1,+1}
    margin = sign * z
    if loss is Loss.LOGISTIC:
        return math.log1p(math.exp(-margin)) if margin > -30 else -margin
    return max(0.0, 1.0 - margin)


def _loss_slopes(loss: Loss, y: np.ndarray, z: np.ndarray, scale) -> np.ndarray:
    """d loss / dz at every (y[i], z[i]) (a subgradient where the loss has
    a kink), times ``scale[i]`` (or ``scale``, one float for every sample:
    the same products), in numpy: bit for bit the scalar
    ``loss_slope`` of ``tests/scalar_reference.py``, sample by sample.  The
    logistic slope takes ``math.exp`` of -|margin|, which is ``loss_slope``'s
    exponent on either side of 0, so that every operation is the scalar one
    on the same operands."""
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


# TrainConfig's numbers, which the trained model's metadata records
_NUMBERS = ("epochs", "minibatch_size", "step_size", "calibrator_step_scale", "seed", "workers",
            "sync_rounds")


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
        for name in _NUMBERS:
            value = getattr(self, name)
            if isinstance(value, np.generic):  # as the Python number the model file writes
                object.__setattr__(self, name, value.item())
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
    """A run's parameters, one row per worker, and what stays fixed.

    Row k of ``theta`` (K, P) is worker k's lattice parameters and row k of
    ``table`` (K, T) its calibrator parameters, laid out as
    :meth:`CalibratorSet.table`, for K = ``config.workers``; every row
    starts as the same feasible start.  Everything else (data, plan, chunk
    step, owner plans, constraints, regularizers and the kernel's buffers)
    is shared by all K.
    """

    shape: LatticeShape
    theta: np.ndarray
    table: np.ndarray
    calibrators: CalibratorSet  # as fitted: locations, free entries, constraints
    config: TrainConfig
    data: Dataset | PairDataset
    theta_constraints: ConstraintSet
    alpha_constraints: ConstraintSet
    plan: Location  # every side of ``data``, located once per run
    targets: np.ndarray  # float target per sample (1.0 for a pair)
    chunk_step: int  # samples per chunk of a step: chunk_rows over the sides a sample has
    reg_terms: list[tuple[RegularizerConfig, TermSet]] = field(default_factory=list)
    # (workers, minibatch sizes) of a lockstep step -> its samples' scale
    # and its chunks' side owners and table offsets (``_owner_plan``)
    owner_plans: dict = field(default_factory=dict, repr=False, compare=False)
    # the multilinear kernel's chunk arrays and the theta scatter's
    # sample-major arrays, kept for the whole run; every worker shares them,
    # which is safe because one step at a time runs, and the workers of a
    # step take it in one pass.  ``train`` lends its run a set from the
    # spare sets (``spare_buffers``); a state stepped outside ``train``
    # keeps this one while it lives.
    buffers: ChunkBuffers = field(default_factory=ChunkBuffers, repr=False, compare=False)

    def clone(self) -> "TrainerState":
        """A state with its own theta and calibrator table stacks; everything
        else, the plan and the kernel's buffers included, is shared."""
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
    start is all zeros.  A start is built once per (shape, directions) and
    shared read-only; a cache of bounded size keeps the most recently used
    ones.
    """
    if len(directions) != shape.ndim:
        raise ValueError(f"expected {shape.ndim} directions, got {len(directions)}")
    return _linear_start(shape, tuple(map(Direction, directions)))


@functools.lru_cache(maxsize=_CACHED_SETS)  # a start per constraint set kept
def _linear_start(shape: LatticeShape, directions: tuple) -> np.ndarray:
    theta = np.zeros(shape.num_parameters)
    idx = np.arange(shape.num_parameters)
    constrained = 0
    for d, direction in enumerate(directions):
        if direction is Direction.NONE:
            continue
        constrained += 1
        coord = (idx // shape.strides[d]) % shape.sizes[d]
        slope = 1.0 if direction is Direction.INCREASING else -1.0
        theta += slope * coord / (shape.sizes[d] - 1)
    if constrained:
        theta -= theta.min()
        theta /= constrained
    theta.flags.writeable = False
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
        raise DataError(f"{config.loss.value} loss needs binary {{0,1}} labels")
    sides = 2 if isinstance(data, PairDataset) else 1
    return TrainerState(
        shape=shape,
        theta=np.tile(init_lattice(shape, directions), (config.workers, 1)),
        table=np.tile(calibrators.table(), (config.workers, 1)),
        calibrators=calibrators,
        config=config,
        data=data,
        theta_constraints=theta_constraints,
        alpha_constraints=calibrators.constraints(),
        plan=plan,
        targets=targets,
        chunk_step=max(1, chunk_rows(shape, config.kind) // sides),
        reg_terms=reg_terms,
    )


# --------------------------------------------------------------------------
# gradients and steps

_SIDES = np.array([0, 1])  # plan rows 2i and 2i + 1 are the sides of pair i


def loss_gradients(state: TrainerState, batches) -> tuple[np.ndarray, np.ndarray]:
    """Minibatch-mean loss subgradients w.r.t. theta and the calibrator
    vector of the workers in ``batches`` (worker -> sample indices): a
    (K, P) and a (K, free) stack, row k worker k's gradient, all zero for a
    worker not in ``batches``.

    The workers' samples are taken in worker order, each worker's in its
    minibatch's order, and their sides gathered from the state's plan and
    run through the batched kernels in chunks.  With more than one worker,
    a side's calibrator locations are offset by k times the table size, so
    that it reads worker k's row of the flattened table stack, and the
    kernel reads worker k's row of the theta stack; the gradients land in
    the same rows.  Each sample's loss slope is ``loss_slope``'s, scaled by
    one over its own worker's minibatch size (``_loss_slopes``).  Theta
    gradients are scattered sample by sample, side by side, vertex by
    vertex, and each chunk's calibrator gradients feature by feature, side
    by side, entry by entry.  Worker blocks are contiguous and touch
    disjoint slices, and each feature owns its entries, so every entry is
    the sum a per-sample loop over that worker's minibatch would form, in
    its order.  Both scatters take every
    term: the terms a loop would skip (zero slope, zero dfdx, zero t) add
    +-0.0, and calibrator terms at fixed table entries are dropped by the
    final gather.  One table vector takes every chunk, since per-chunk sums
    would change bits.  On a lattice of one cell the kernel returns no
    vertex indices, and the theta scatter is a row sum (``_add_rows``).
    """
    cs = state.calibrators
    (K, P), T = state.theta.shape, state.table.shape[1]
    g_theta = np.zeros(state.theta.size)
    g_table = np.zeros(state.table.size)
    flat_table = state.table.ravel()
    want = state.trains_calibrators
    loss = state.config.loss
    n_sides = state.plan.t.shape[1] // len(state.targets)  # the plan has 2 sides a pair
    step = state.chunk_step
    if K == 1:
        (batch,) = batches.values()
        batch = np.asarray(batch, dtype=np.int64)
        scale, owners = 1.0 / len(batch), None
    else:
        batch = np.concatenate([np.asarray(b, dtype=np.int64) for b in batches.values()])
        scale, owners = _owner_plan(state, batches, n_sides)
    for chunk, start in enumerate(range(0, len(batch), step)):
        samples = batch[start : start + step]
        side_owner, table_offset = (None, None) if owners is None else owners[chunk]
        sides = state.plan.take(
            samples if n_sides == 1 else (2 * samples[:, None] + _SIDES).ravel(), table_offset
        )
        x = cs.apply(sides, flat_table)
        values, indices, weights, dfdx = _forward_backward(
            state.theta[0] if owners is None else state.theta, state.shape, x,
            state.config.kind, want, state.buffers, owner=side_owner,
        )
        # z = 0.0 + sum of sign * value over the sides; values are never -0.0
        z = values if n_sides == 1 else values[0::2] - values[1::2]
        chunk_scale = scale if isinstance(scale, float) else scale[start : start + step]
        slope = _loss_slopes(loss, state.targets.take(samples), z, chunk_scale)
        if n_sides == 1:
            s = slope  # sign * slope, side by side
        else:
            signed = state.buffers.get("signed slopes", len(slope), 2)
            np.copyto(signed[:, 0], slope)
            np.negative(slope, out=signed[:, 1])
            s = signed.ravel()
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
            # non-finite gradient, which _descend reports; the slopes are
            # the kernel's own array, read no more
            with np.errstate(over="ignore", invalid="ignore"):
                dx = np.multiply(s, dfdx, out=dfdx)
                cs.add_apply_gradient(sides, dx, g_table, state.buffers)
    return g_theta.reshape(K, P), cs.at_free(g_table.reshape(K, T))


def _owner_plan(state: TrainerState, batches, n_sides: int):
    """The samples' loss scale and, chunk by chunk, the worker of each side
    and its offset into the table stack, of a lockstep step whose workers
    and minibatch sizes are those of ``batches``: worked out on the first
    step of each such pattern in a run and kept on the state.  The scale is
    one over each sample's minibatch size, one float when the workers'
    sizes are equal."""
    workers = tuple(batches)
    sizes = tuple(map(len, batches.values()))
    plan = state.owner_plans.get((workers, sizes))
    if plan is None:
        owner = np.repeat(workers, sizes)
        T, step = state.table.shape[1], state.chunk_step
        chunks = []
        for start in range(0, len(owner), step):
            side_owner = np.repeat(owner[start : start + step], n_sides)
            chunks.append((side_owner, side_owner * T))
        if len(set(sizes)) == 1:
            scale = 1.0 / sizes[0]
        else:
            scale = np.repeat([1.0 / n for n in sizes], sizes)
        plan = state.owner_plans[workers, sizes] = scale, chunks
    return plan


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


def sgd_step(state: TrainerState, batches, rngs) -> TrainerState:
    """One projected subgradient step of the workers in ``batches`` (worker
    -> sample indices), worker k drawing from ``rngs[k]``.

    The workers' loss gradients are taken together, then each worker adds
    its regularizers (sampled from its own generator), checks and projects
    its own rows of ``state.theta`` and ``state.table``.  A worker whose
    step fails leaves its rows as they were; once every other worker has
    stepped, the lowest failing worker's ``TrainingError`` is raised, with
    that worker's index as ``worker``.
    """
    cs = state.calibrators
    g_theta, g_alpha = loss_gradients(state, batches)
    failure = None
    for k in batches:
        alpha = cs.at_free(state.table[k]) if state.trains_calibrators else None
        try:
            theta, alpha = _descend(state, state.theta[k], alpha, g_theta[k], g_alpha[k], rngs[k])
        except TrainingError as e:
            if failure is None:
                failure, e.worker = e, k
            continue
        state.theta[k] = theta
        if alpha is not None:
            cs.put_free(state.table[k], alpha)
    if failure is not None:
        raise failure
    return state


def _descend(state: TrainerState, theta, alpha, g_theta, g_alpha, rng):
    """One worker's step from its loss subgradients: add the regularizers
    at ``theta`` into ``g_theta``, check, and return the projected theta and
    alpha (None where calibrators are not trained)."""
    eta = state.config.step_size
    # a product that overflows (a weight times its regularizer's gradient,
    # step size times gradient, or step size times calibrator scale) makes
    # a non-finite gradient or step, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for cfg, terms in state.reg_terms:
            if cfg.sample_count is None:
                g = regularizer_gradient(theta, terms)
            else:
                g = sample_regularizer_subgradient(theta, terms, cfg.sample_count, rng)
            g_theta += cfg.weight * g
        if not np.isfinite(g_theta).all() or not np.isfinite(g_alpha).all():
            raise TrainingError("non-finite gradient; lower the step size")
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


def _run_round(state: TrainerState, shards, rngs, epochs: range, where: str) -> None:
    """Train every worker of ``state`` on its shard for the round's
    ``epochs`` (numbered from 1), in lockstep: the workers' j-th steps of an
    epoch are one ``sgd_step``.  Each worker draws its minibatch from its
    own generator, and a worker with fewer steps in an epoch sits out the
    rest of it.  A worker that fails leaves the round, and so does every
    higher-numbered one, whose error a run of the workers one after another
    would never reach; the rest run on, and the lowest failing worker's
    ``TrainingError`` is raised at the end, gaining ``where`` (the round),
    the worker, the epoch and the step."""
    size = state.config.minibatch_size
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
                sgd_step(state, batches, rngs)
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
    rows, written into every row, so the next round starts each worker
    from it; the model takes row 0.  One worker trains on every sample in
    index order, and the mean of its one row is that row bit for bit."""
    state = prepare_state(data, specs, config)
    n = _num_samples(data)
    if n == 0:
        raise DataError("training data is empty")
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
    with spare_buffers() as state.buffers:  # the run's chunk arrays
        for r in range(config.sync_rounds):
            count = base + (1 if r < extra else 0)
            epochs = range(done + 1, done + count + 1)
            done += count
            _run_round(state, shards, rngs, epochs, f"round {r + 1}")
            cs = state.calibrators
            state.theta[:] = np.mean(state.theta, axis=0)
            if cs.num_free:
                cs.put_free(state.table, np.mean(cs.at_free(state.table), axis=0))
    return _model(state)


def _model(state: TrainerState):
    """The model of a trained state, with its run's settings as metadata."""
    from .model import Model

    config = state.config
    return Model(
        state.calibrators.with_table(state.table[0]),
        state.theta[0],
        config.kind,
        config.loss,
        metadata={
            **{name: getattr(config, name) for name in _NUMBERS},
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
        raise DataError("dataset has no labels to evaluate against")
    return model.predict(data), np.asarray(data.labels, dtype=float)


def model_objective(model, data, config: TrainConfig) -> float:
    """Mean loss of a finished model on ``data`` plus weighted regularizer
    values: the objective that training under ``config`` minimises."""
    z, y = _scores(model, data)
    total = sum(_loss_values(config.loss, y, z))  # added left to right
    total /= max(len(z), 1)
    missing_dims = missing_vertex_dims(model.specs)
    for cfg in config.regularizers:
        if cfg.weight:  # one of weight 0 adds nothing, even where its value is inf
            terms = regularizer_terms(model.shape, cfg.kind, missing_dims)
            total += cfg.weight * regularizer_value(model.theta, terms)
    return total


def _loss_values(loss: Loss, y: np.ndarray, z: np.ndarray) -> list[float]:
    """``loss_value(loss, y[i], z[i])`` for every i, bit for bit.  The
    squared and hinge losses are taken in numpy: the square by
    ``np.float_power``, which calls the C library's ``pow`` as Python's
    ``**`` does (a product, numpy's square, rounds differently about once in
    a thousand values; a square past the float limit is inf in both), the
    hinge's ``max`` by a test of its sign.  The logistic loss, whose
    ``math`` calls numpy does not match, goes through ``loss_value``."""
    if loss is Loss.LOGISTIC:
        return [loss_value(loss, float(yi), float(zi)) for yi, zi in zip(y, z)]
    with np.errstate(over="ignore", invalid="ignore"):
        if loss is Loss.SQUARED:
            return np.float_power(y - z, 2.0).tolist()
        values = 1.0 - (2.0 * y - 1.0) * z
        return np.where(values > 0.0, values, 0.0).tolist()


def evaluate_metrics(model, data) -> dict:
    """RMSE for labeled rows (NaN for none), plus accuracy when labels are
    {0,1} (and log-loss unless the model was trained with hinge loss);
    pairwise accuracy for pair data, ties counted half.  The residuals are
    scaled by their largest magnitude before squaring, so labels too large
    to square still give a finite RMSE, and a logistic model's log-loss is
    the loss it trains on, ``log(1 + exp(-margin))``, which stays finite
    where the probability rounds to 0 or 1."""
    z, y = _scores(model, data)
    n = len(z)
    if isinstance(data, PairDataset):
        wins = np.sum(z > 0) + 0.5 * np.sum(z == 0)
        return {"num_pairs": n, "pair_accuracy": float(wins) / n if n else float("nan")}
    out: dict = {"num_rows": n}
    out["rmse"] = _robust_norm(z - y) / math.sqrt(n) if n else float("nan")
    if np.isin(y, (0.0, 1.0)).all() and n:
        # a margin model predicts 1 at score >= 0, a squared one at >= 0.5
        threshold = 0.5 if model.loss is Loss.SQUARED else 0.0
        out["accuracy"] = float(np.mean((z >= threshold) == (y == 1.0)))
        if model.loss is Loss.LOGISTIC:
            out["log_loss"] = float(np.mean(np.logaddexp(0.0, -(2.0 * y - 1.0) * z)))
        elif model.loss is Loss.SQUARED:
            probs = np.clip(z, 1e-12, 1.0 - 1e-12)
            out["log_loss"] = float(
                -np.mean(y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs))
            )
    return out
