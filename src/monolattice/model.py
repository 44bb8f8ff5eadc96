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
``Model.predict_row`` scores one row through one path: the calibrators'
``calibrate_row``, one function generated per calibrator layout with the
set's parameters bound in, then the model's
:class:`~.interpolation.RowPlan`, built by the first call.  The plan binds
theta into the row kernel of a kind on that kind's first row: one
function compiled per lattice shape and kind from the shape's ints alone.
Both are compiled on first use, never when a model is loaded.
``predict_row`` gives ``predict``'s bits and the scalar ``evaluate``'s
error messages, and threads may share a model.

A model is a frozen value, checked on construction: ``theta`` is stored
as a read-only float64 copy of the lattice's size, ``specs`` as a tuple
of frozen feature specs, ``metadata`` as a copy whose objects and arrays
refuse changes in place, and its calibrators are frozen too, so the plan,
the bound row calibration and the model file cannot fall out of date.  A
changed model is a new one (``dataclasses.replace``); a copied or
unpickled model is rebuilt through the constructor.

Validity is decided once, by the constructor of what it describes: a
calibrator checks its structure (see :mod:`.calibrators`), and a model
checks the rest: theta finite, ``kind`` and ``loss`` members of their
enums, each calibrator matching its spec, the promises of a trained
calibrator (nondecreasing outputs and category values inside the axis,
declared category orders, a missing coordinate on the lattice), and
metadata that JSON writes as it is (text keys, no sets).  So fit,
``with_table``, the loader, ``replace``, copies and models made in code
pass one gate, with one message per rule, and the loader only parses.
"""

from __future__ import annotations

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
    _spec_fields,
    missing_vertex_dims,
    read_only,
)
from .interpolation import InterpolationKind, RowPlan, evaluate_block, spare_buffers

# The benchmark's span tracer (perfbench/spans.py) patches this name on this
# module; predict_row runs the row plan, not the scalar kernels.
from .interpolation import evaluate  # noqa: F401
from .lattice import LatticeShape
from .monotonicity import (
    Direction,
    build_constraints,
    describe_violations,
)
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
    specs: tuple[FeatureSpec, ...]  # stored as a tuple, whatever is passed
    shape: LatticeShape
    theta: np.ndarray
    calibrators: CalibratorSet
    kind: InterpolationKind = InterpolationKind.MULTILINEAR
    loss: Loss = Loss.SQUARED
    metadata: dict = field(default_factory=dict)  # stored as a read-only copy

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "kind", _member(InterpolationKind, self.kind, "interpolation"))
        object.__setattr__(self, "loss", _member(Loss, self.loss, "loss"))
        sizes = [s.size for s in self.specs]
        if list(self.shape.sizes) != sizes:
            raise DataError(
                f"lattice sizes {list(self.shape.sizes)} do not match the feature sizes {sizes}"
            )
        theta = read_only(self.theta)
        if theta.shape != (self.shape.num_parameters,):
            raise DataError(
                f"theta has shape {theta.shape}, lattice needs ({self.shape.num_parameters},)"
            )
        _check_finite("theta", theta)
        object.__setattr__(self, "theta", theta)
        if self.calibrators.specs != self.specs:
            raise DataError("calibrators.specs are not the model's specs")
        for spec, cal in zip(self.specs, self.calibrators.calibrators):
            _check_feature(spec, cal)
        object.__setattr__(self, "metadata", _read_only_json(self.metadata))

    @cached_property
    def _row_plan(self) -> RowPlan:
        """predict_row's plan over theta and shape."""
        return RowPlan(self.theta, self.shape)

    def __eq__(self, other):
        # identical models are those that write identical model files
        if not isinstance(other, Model):
            return NotImplemented
        return self.to_json() == other.to_json()

    # ---- prediction

    def predict_row(self, row, kind: InterpolationKind | None = None) -> float:
        """Score of one row, equal to :meth:`predict` bit for bit: the row
        is calibrated, then scored by the model's row plan."""
        x = self.calibrators.calibrate_row(row)
        return self._row_plan.evaluate(x, kind or self.kind)

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
        size = predict_rows(len(self.specs))
        with spare_buffers() as buffers:  # one set for every chunk of this call
            for rows, location in cs.locate_chunks(columns, size, buffers):
                # the coordinates take the buffer of the values they come from
                x = cs.apply(location, table, buffers.get("locate x", *location.t.shape))
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
        for spec, cal in zip(self.specs, self.calibrators.calibrators):
            entry = {
                "name": spec.name,
                "kind": spec.kind.value,
                "size": spec.size,
                "keypoints": spec.keypoints,
                "bounds": None if spec.bounds is None else list(spec.bounds),
                "monotone": spec.monotone.value,
                "missing": spec.missing.value,
                "categories": spec.categories,
                "order": [list(p) for p in spec.order_pairs],
                "allow_unseen": spec.allow_unseen,
            }
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
        specs = []
        cals = []
        for entry in doc["features"]:
            where = f"feature {entry['name']!r}:"
            spec = FeatureSpec(
                name=entry["name"],
                kind=_member(FeatureKind, entry["kind"], f"{where} kind"),
                size=int(entry["size"]),
                keypoints=int(entry["keypoints"]),
                bounds=None if entry["bounds"] is None else tuple(entry["bounds"]),
                monotone=_member(Direction, entry["monotone"], f"{where} monotone"),
                missing=_member(MissingPolicy, entry["missing"], f"{where} missing"),
                categories=entry["categories"],
                order_pairs=[tuple(p) for p in entry["order"]],
                allow_unseen=bool(entry["allow_unseen"]),
            )
            state = entry["calibrator"]
            fields = dict(_spec_fields(spec), missing_value=state["missing_value"])
            if spec.kind is FeatureKind.CONTINUOUS:
                cal = ContinuousCalibrator(
                    knots=np.asarray(state["knots"], dtype=float),
                    outputs=np.asarray(state["outputs"], dtype=float),
                    **fields,
                )
            else:
                order, values = state["category_order"], state["category_values"]
                cal = CategoricalCalibrator(
                    categories=list(order),
                    # JSON keys are text: the calibrator names any other category
                    values=np.array([values[c] for c in order if isinstance(c, str)]),
                    other_index=state["other_index"],
                    order_pairs=[tuple(p) for p in entry["order"]],
                    **fields,
                )
            specs.append(spec)
            cals.append(cal)
        return cls(
            specs=specs,
            shape=LatticeShape(doc["lattice"]),
            theta=doc["theta"],
            calibrators=CalibratorSet(specs, cals),
            kind=doc["interpolation"],
            loss=doc["loss"],
            metadata=doc.get("metadata", {}),
        )

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_json(Path(path).read_text())


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


def _member(enum_cls, value, field: str):
    try:
        return enum_cls(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum_cls)
        raise DataError(f"{field} {value!r} is not one of {choices}") from None


def _check_feature(spec: FeatureSpec, cal) -> None:
    """Raise a DataError naming the feature unless ``cal`` is the
    calibrator of ``spec`` (its kind, and the fields it takes from the
    spec) and keeps the promises of a trained one: nondecreasing outputs
    and category values inside the axis, declared category orders, and a
    learned missing coordinate on the lattice.  The calibrator checks its
    own structure when made."""
    where = f"feature {spec.name!r}:"
    continuous = isinstance(cal, ContinuousCalibrator)
    if continuous is not (spec.kind is FeatureKind.CONTINUOUS):
        raise DataError(f"{where} a {spec.kind.value} feature's calibrator is {type(cal).__name__}")
    expected = _spec_fields(spec)
    del expected["missing_value"]  # learned
    if not continuous:
        expected["order_pairs"] = spec.order_pairs
    for name, value in expected.items():
        if getattr(cal, name) != value:
            raise DataError(f"{where} the calibrator's {name} is not the spec's")
    # the values as a list: numpy's fixed cost per call exceeds the work on
    # a calibrator's few values
    top, points = spec.axis_top, cal.points.tolist()
    if continuous:
        if not all(map(operator.le, points, points[1:])):
            raise DataError(f"{where} outputs decrease")
        if points[0] < 0.0 or points[-1] > top:
            raise DataError(f"{where} outputs leave [0, {top:g}]")
    else:
        if not all(0.0 <= v <= top for v in points):
            raise DataError(f"{where} category_values leave [0, {top:g}]")
        position = cal._lookup
        for a, b in cal.order_pairs:
            if points[position[a]] > points[position[b]]:
                raise DataError(f"{where} category_values break the order pair ({a!r}, {b!r})")
    value = cal.missing_value
    if cal.missing is MissingPolicy.CALIBRATED and not 0.0 <= value <= spec.size - 1:
        raise DataError(f"{where} missing_value {value!r} is not in [0, {spec.size - 1}]")
