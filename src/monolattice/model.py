"""Trained model container and its JSON file format.

The file stores the feature specs, the fitted calibrators, the lattice sizes
and the parameter vector (stride order).  Floats are written with Python's
shortest round-trip representation, so saving and loading reproduces every
parameter bit for bit.

``Model.predict`` scores a batch in chunks of ``predict_rows`` rows (a
fixed number of bytes per chunk), each located on the calibrators in one
pass, calibrated and scored by the batched kernel, all through one buffer
set that the call takes from the process's spare sets and gives back
(``interpolation.spare_buffers``), so a call's arrays are sized by the
chunk and a warm process allocates no chunk array per call.
``Model.predict_row`` scores one row through one function, generated per
calibrator layout, lattice shape and kind (``_row_scorer``) from the
calibration lines of :mod:`.calibrators` followed by the row kernel lines
of :mod:`.interpolation`, so equal models share its code.  A model binds
its calibrators' row entries and theta into it on a kind's first row,
never when it is loaded.  The kernel lines take the calibrated
coordinates as they stand: the model's checks make each a float inside
its axis and theta as long as the lattice.  ``predict_row`` gives
``predict``'s bits and the scalar path's error messages, and threads may
share a model.

A model is a frozen value, checked on construction: ``theta`` is stored
as a read-only float64 copy of the lattice's size, ``metadata`` as a copy
whose objects and arrays refuse changes in place, and its calibrators are
frozen too, so the bound row scorers and the model file cannot fall out
of date.  Each feature's schema is stored once, in its
calibrator's spec: ``specs`` and the lattice ``shape`` (one axis of
``spec.size`` vertices per feature) are read from the calibrators.  A
changed model is a new one (``dataclasses.replace``); a copied or
unpickled model is rebuilt through the constructor.

Validity is decided once, by the constructor of what it describes: a
calibrator checks its structure and that its spec is of its kind (see
:mod:`.calibrators`), and a model checks the rest: theta finite, ``kind``
and ``loss`` members of their enums, the promises of a trained
calibrator (nondecreasing outputs and category values inside the axis,
declared category orders, a missing coordinate on the lattice, end knots
at the spec's bounds), and metadata that JSON writes as it is (text
keys, no sets).  So fit, ``with_table``, the loader, ``replace``, copies
and models made in code pass one gate, with one message per rule.  The
loader parses, each feature's spec by ``FeatureSpec.from_doc``, which a
schema shares, and checks the one thing a model does not hold: that the
file's ``lattice`` entry lists the feature sizes.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .calibrators import (
    CalibratorSet,
    CategoricalCalibrator,
    ContinuousCalibrator,
    DataError,
    FeatureKind,
    FeatureSpec,
    Frozen,
    MissingPolicy,
    _check_finite,
    _is_number,
    _member,
    _row_binding,
    _row_calibration_lines,
    missing_vertex_dims,
    read_only,
)
from .interpolation import InterpolationKind, _row_kernel_lines, evaluate_block, spare_buffers

# The benchmark's span tracer (perfbench/spans.py) patches this name on this
# module; predict_row runs its generated scorer, not the scalar kernels.
from .interpolation import evaluate  # noqa: F401
from .lattice import LatticeShape
from .monotonicity import build_constraints, describe_violations
from .training import Loss

FORMAT_NAME = "monolattice-model"
FORMAT_VERSION = 1

# Bytes of one (D, n) float block of a Model.predict chunk, which sets the
# chunk's rows (predict_rows).  Every array a call makes is sized by the
# chunk, not by the rows, and a chunk pays about a hundred numpy calls
# whatever its rows.  A sweep over 20k rows peaked near 2048 rows at D = 10
# and 5120 at D = 4, one block of 160 KiB each; from about 256 KiB on, the
# chunk's temporaries faulted fresh pages on every call.  CHANGES.md
# records the sweep.
PREDICT_BYTES = 160 << 10


def predict_rows(ndim: int) -> int:
    """Rows per chunk of :meth:`Model.predict` over ``ndim`` features."""
    return max(1, PREDICT_BYTES // (8 * ndim))


@dataclass(frozen=True, eq=False)
class Model(Frozen):
    calibrators: CalibratorSet
    theta: np.ndarray
    kind: InterpolationKind = InterpolationKind.MULTILINEAR
    loss: Loss = Loss.SQUARED
    metadata: dict = field(default_factory=dict)  # stored as a read-only copy

    def __post_init__(self):
        object.__setattr__(self, "kind", _member(InterpolationKind, self.kind, "interpolation"))
        object.__setattr__(self, "loss", _member(Loss, self.loss, "loss"))
        theta = read_only(self.theta)
        if theta.shape != (self.shape.num_parameters,):
            raise DataError(
                f"theta has shape {theta.shape}, lattice needs ({self.shape.num_parameters},)"
            )
        _check_finite("theta", theta)
        object.__setattr__(self, "theta", theta)
        for cal in self.calibrators.calibrators:
            _check_feature(cal)
        object.__setattr__(self, "metadata", _read_only_json(self.metadata))

    @property
    def specs(self) -> tuple[FeatureSpec, ...]:
        return self.calibrators.specs

    @cached_property
    def shape(self) -> LatticeShape:
        """One lattice axis per feature, of its spec's size."""
        return LatticeShape([s.size for s in self.specs])

    @cached_property
    def _scorers(self) -> dict:
        """predict_row's bound scorer per kind, each added on its first row."""
        return {}

    def __eq__(self, other):
        # identical models are those that write identical model files
        if not isinstance(other, Model):
            return NotImplemented
        return self.to_json() == other.to_json()

    # ---- prediction

    def predict_row(self, row, kind: InterpolationKind | None = None) -> float:
        """Score of one row, equal to :meth:`predict` bit for bit, by the
        model's generated scorer of ``kind``."""
        kind = kind or self.kind
        try:
            score = self._scorers[kind]
        except (KeyError, TypeError):
            score = self._bind(row, kind)
        return score(row)

    def _bind(self, row, kind):
        """The scorer of ``kind``, bound now and kept for the next row; a bad
        ``row`` raises its DataError before a bad ``kind`` its ValueError."""
        try:
            kind = InterpolationKind(kind)
        except ValueError:
            self.calibrators.calibrate_row(row)
            raise
        cs = self.calibrators
        bindings = [_row_binding(cal) for cal in cs.calibrators]
        bind = _row_scorer(tuple(layout for layout, _ in bindings), self.shape, kind)
        score = bind(cs._check_width, self.theta, *[v for _, entry in bindings for v in entry])
        self._scorers[kind] = score
        return score

    def predict(self, data, kind: InterpolationKind | None = None) -> np.ndarray:
        """Scores of every row of ``data``, equal to :meth:`predict_row` bit
        for bit.  The rows are scored :func:`predict_rows` at a time: each
        chunk is located on the calibrators in one pass, calibrated
        (coordinates only, feature-major) and scored by the batched kernel,
        all through one buffer set that this call takes from the spare sets
        and gives back.  A bad value raises the ``DataError`` of the first
        bad row, its ``row`` counted in ``data``."""
        cs = self.calibrators
        columns = data.columns
        out = np.empty(len(columns[0]) if len(columns) else 0)
        table = cs.table()
        size = predict_rows(len(cs.calibrators))
        with spare_buffers() as buffers:  # one set for every chunk of this call
            for rows, location in cs.locate_chunks(columns, size, buffers):
                # the coordinates take the buffer of the values they come from
                x = cs.apply(location, table, buffers.get("locate x", *location.t.shape), buffers)
                evaluate_block(self.theta, self.shape, x, kind or self.kind, buffers, out[rows])
        return out

    # ---- feasibility

    def constraints(self):
        return build_constraints(
            self.shape,
            tuple(s.monotone for s in self.specs),
            missing_vertex_dims(self.specs),
        )

    def violations(self, tolerance: float = 0.0):
        return describe_violations(self.theta, self.shape, self.constraints(), tolerance)

    # ---- serialization

    def to_json(self) -> str:
        features = []
        for cal in self.calibrators.calibrators:
            entry = cal.spec.to_doc()
            if isinstance(cal, ContinuousCalibrator):
                entry["calibrator"] = {
                    "knots": cal.knots.tolist(),
                    "outputs": cal.outputs.tolist(),
                    "missing_value": cal.missing_value,
                }
            else:
                entry["calibrator"] = {
                    "category_values": {
                        c: float(v) for c, v in zip(cal.categories, cal.values)
                    },
                    "category_order": cal.categories,
                    "other_index": cal.other_index,
                    "missing_value": cal.missing_value,
                }
            features.append(entry)
        doc = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "interpolation": self.kind.value,
            "loss": self.loss.value,
            "lattice": list(self.shape.sizes),
            "features": features,
            "theta": np.asarray(self.theta, dtype=float).tolist(),
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "Model":
        """Parse a model file and build the model through the constructors,
        which check it; every way it can be malformed is a DataError."""
        try:
            return cls._from_doc(json.loads(text))
        except KeyError as e:
            raise DataError(f"model file has no {e.args[0]!r} entry") from None
        except DataError:
            raise
        except (TypeError, AttributeError, ValueError, OverflowError) as e:
            # a value of the wrong JSON type, e.g. a number where a list belongs
            raise DataError(f"malformed model file: {e}") from None

    @classmethod
    def _from_doc(cls, doc: dict) -> "Model":
        if doc.get("format") != FORMAT_NAME:
            raise DataError(f"not a {FORMAT_NAME} file")
        if doc.get("version") != FORMAT_VERSION:
            raise DataError(f"unsupported model version {doc.get('version')!r}")
        if not doc["features"]:
            raise DataError("model file lists no features")
        cals = []
        for entry in doc["features"]:
            spec = FeatureSpec.from_doc(entry)
            where = f"feature {spec.name!r}:"
            # the constructors store arrays and categories as their own copies
            state = entry["calibrator"]
            missing = state["missing_value"]
            if spec.kind is FeatureKind.CONTINUOUS:
                knots = _file_numbers(state["knots"], f"{where} knots")
                outputs = _file_numbers(state["outputs"], f"{where} outputs")
                cal = ContinuousCalibrator(spec, knots, outputs, missing)
            else:
                order, values = state["category_order"], state["category_values"]
                # JSON keys are text: the calibrator names any other category
                values = _file_numbers([values[c] for c in order if isinstance(c, str)],
                                       f"{where} category_values")
                cal = CategoricalCalibrator(spec, order, values, missing, state["other_index"])
            cals.append(cal)
        lattice, sizes = doc["lattice"], [cal.spec.size for cal in cals]
        if lattice != sizes:
            raise DataError(f"lattice sizes {lattice} do not match the feature sizes {sizes}")
        return cls(
            CalibratorSet(cals),
            _file_numbers(doc["theta"], "theta"),
            kind=doc["interpolation"],
            loss=doc["loss"],
            metadata=doc.get("metadata", {}),
        )

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_json(Path(path).read_text())


# --------------------------------------------------------------------------
# the row scorer


@functools.lru_cache(maxsize=64)
def _row_scorer(layout: tuple, shape: LatticeShape, kind: InterpolationKind):
    """:meth:`Model.predict_row` of a model whose calibrators have
    ``layout`` (``calibrators._row_binding``), on ``shape``, of ``kind``: a
    function ``bind(width, theta, *entries)`` that binds a set's
    ``_check_width``, theta and the calibrators' row entries, laid end to
    end, into ``predict_row(row)``.  Compiled once per layout, shape and
    kind; equal models share its code.

    ``predict_row`` runs the calibration lines, which leave the row's
    coordinates in locals, then the kernel lines, which score them: one
    function, with no list between the two.  The source holds only ints
    and fixed text; everything read from a model file is bound."""
    names, calibration, namespace = _row_calibration_lines(layout)
    head, kernel, kernel_namespace = _row_kernel_lines(shape, kind)
    src = [f"def bind(width, theta, {', '.join(names)}):", *head, "    def predict_row(row):"]
    src += ["    " + line for line in calibration + kernel]
    src.append("    return predict_row")
    filename = f"<{kind.value} row scorer {shape.sizes}>"
    return _generated(src, filename, {**namespace, **kernel_namespace})


def _generated(src: list[str], filename: str, namespace: dict):
    """The function ``bind`` that the lines ``src`` define, run in
    ``namespace``; its source is kept as its ``source``.  The one place
    the package compiles code, for :func:`_row_scorer`."""
    source = "\n".join(src)
    exec(compile(source, filename, "exec"), namespace)
    bind = namespace["bind"]
    bind.source = source
    return bind


# --------------------------------------------------------------------------
# read-only metadata


def _refuse(self, *args, **kwargs):
    raise TypeError("model metadata is read-only; a model with other metadata is a new model")


class _ReadOnlyDict(dict):
    """A JSON object that refuses changes in place; it pickles and copies as
    the plain dict it holds."""

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class _ReadOnlyList(list):
    """A JSON array that refuses changes in place, as :class:`_ReadOnlyDict`."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = reverse = sort = clear = _refuse

    def __reduce__(self):
        return type(self), (list(self),)


def _read_only_json(value, where: str = "metadata"):
    """A copy of a JSON value whose objects and arrays, nested ones
    included, refuse changes in place; it compares equal to the value and
    serializes to the same text.  A key that is not text, or a leaf that is
    not text, a number, a bool or None, is a DataError naming where it
    sits: JSON could not write it back as it is."""
    if isinstance(value, dict):
        for k in value:
            if not isinstance(k, str):
                raise DataError(f"{where} has the key {k!r}, which is not text")
        return _ReadOnlyDict((k, _read_only_json(v, f"{where}[{k!r}]")) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(_read_only_json(v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(value, list):
        return _ReadOnlyList(_read_only_json(v, f"{where}[{i}]") for i, v in enumerate(value))
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise DataError(f"{where} is a {type(value).__name__}, which JSON cannot write")


# --------------------------------------------------------------------------
# validation


def _file_numbers(values, field: str):
    """A model file's list of numbers as it stands; a DataError unless every
    entry is a JSON number."""
    for i, v in enumerate(values):
        if not _is_number(v):
            raise DataError(f"malformed model file: {field}[{i}] is {v!r}, not a number")
    return values


def _check_feature(cal) -> None:
    """Raise a DataError naming the feature unless ``cal`` keeps the
    promises of a trained calibrator: end knots at the spec's bounds, when
    it has them, nondecreasing outputs and category values inside the axis,
    declared category orders, and a learned missing coordinate on the
    lattice.  The calibrator checks its own structure, and that its spec is
    of its kind, when made."""
    spec = cal.spec
    where = f"feature {spec.name!r}:"
    # the values as a list: numpy's fixed cost per call exceeds the work on
    # a calibrator's few values
    top, points = spec.axis_top, cal.points.tolist()
    if isinstance(cal, ContinuousCalibrator):
        ends = [cal._knot_list[0], cal._knot_list[-1]]
        if spec.bounds is not None and ends != [float(b) for b in spec.bounds]:
            raise DataError(f"{where} bounds {list(spec.bounds)} are not the end knots {ends}")
        if not all(map(operator.le, points, points[1:])):
            raise DataError(f"{where} outputs decrease")
        if points[0] < 0.0 or points[-1] > top:
            raise DataError(f"{where} outputs leave [0, {top:g}]")
    else:
        if not all(0.0 <= v <= top for v in points):
            raise DataError(f"{where} category_values leave [0, {top:g}]")
        position = cal._lookup
        for a, b in spec.order_pairs:
            if points[position[a]] > points[position[b]]:
                raise DataError(f"{where} category_values break the order pair ({a!r}, {b!r})")
    value = cal.missing_value
    if spec.missing is MissingPolicy.CALIBRATED and not 0.0 <= value <= spec.size - 1:
        raise DataError(f"{where} missing_value {value!r} is not in [0, {spec.size - 1}]")
