"""Trained model container and its JSON file format.

The file stores the feature specs, the fitted calibrators, the lattice sizes
and the parameter vector (stride order).  Floats are written with Python's
shortest round-trip representation, so saving and loading reproduces every
parameter bit for bit.

``Model.predict`` scores a batch through the batched calibrators and kernel.
``Model.predict_row`` scores one row through one path: the calibrators'
``calibrate_row``, which reads each calibrator's row entry (its parameters
as lists), then the model's :class:`~.interpolation.RowPlan`, built by the
first call.  The plan holds everything a row reads, made when it is built:
theta as a list and, for multilinear cells below
``ROW_NUMPY_MIN_VERTICES`` vertices, the shape's row kernel, compiled once
per shape from the shape's ints alone.  ``predict_row`` gives
``predict``'s bits and the scalar ``evaluate``'s error messages, and a
call writes nothing the plan holds.  A model is a frozen value, checked
on construction: ``theta`` is stored as a read-only float64 copy of the
lattice's size, ``specs`` as a tuple of frozen feature specs, and its
calibrators are frozen too, so the plan and the row entries cannot fall
out of date.  A changed model is a new one
(``dataclasses.replace``); a copied or unpickled model is rebuilt through
the constructor.
"""

from __future__ import annotations

import json
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
    missing_vertex_dims,
    read_only,
)
from .interpolation import InterpolationKind, RowPlan, evaluate_batch

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


@dataclass(frozen=True, eq=False)
class Model(Frozen):
    specs: tuple[FeatureSpec, ...]  # stored as a tuple, whatever is passed
    shape: LatticeShape
    theta: np.ndarray
    calibrators: CalibratorSet
    kind: InterpolationKind = InterpolationKind.MULTILINEAR
    loss: Loss = Loss.SQUARED
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
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
        object.__setattr__(self, "theta", theta)

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
        for bit: the rows are located on the calibrators and calibrated
        (coordinates only), then scored by the batched kernel."""
        cs = self.calibrators
        x = cs.apply(cs.locate(data.columns), cs.table())
        return evaluate_batch(self.theta, self.shape, x, kind or self.kind)

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
        """Parse a model file; every way it can be malformed is a DataError."""
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
            vertex = float(spec.size - 1) if spec.missing is MissingPolicy.VERTEX else None
            if spec.kind is FeatureKind.CONTINUOUS:
                cal = ContinuousCalibrator(
                    knots=np.asarray(state["knots"], dtype=float),
                    outputs=np.asarray(state["outputs"], dtype=float),
                    axis_top=spec.axis_top,
                    missing=spec.missing,
                    missing_value=state["missing_value"],
                    missing_vertex=vertex,
                    name=spec.name,
                )
            else:
                order = state["category_order"]
                cal = CategoricalCalibrator(
                    categories=list(order),
                    values=np.array([state["category_values"][c] for c in order]),
                    axis_top=spec.axis_top,
                    missing=spec.missing,
                    missing_value=state["missing_value"],
                    missing_vertex=vertex,
                    other_index=state["other_index"],
                    order_pairs=[tuple(p) for p in entry["order"]],
                    name=spec.name,
                )
            _check_calibrator(spec, cal)
            specs.append(spec)
            cals.append(cal)
        model = cls(
            specs=specs,
            shape=LatticeShape(doc["lattice"]),
            theta=doc["theta"],
            calibrators=CalibratorSet(specs, cals),
            kind=_member(InterpolationKind, doc["interpolation"], "interpolation"),
            loss=_member(Loss, doc["loss"], "loss"),
            metadata=doc.get("metadata", {}),
        )
        _check_finite("theta", model.theta)
        return model

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_json(Path(path).read_text())


# --------------------------------------------------------------------------
# validation on load


def _member(enum_cls, value, field: str):
    try:
        return enum_cls(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum_cls)
        raise DataError(f"{field} {value!r} is not one of {choices}") from None


def _check_finite(field: str, values) -> None:
    bad = np.nonzero(~np.isfinite(np.asarray(values, dtype=float).reshape(-1)))[0]
    if len(bad):
        raise DataError(f"{field}[{bad[0]}] is not finite")


def _check_calibrator(spec: FeatureSpec, cal) -> None:
    """Raise a DataError naming the feature and the field unless ``cal`` is a
    calibrator training could have produced: finite, monotone and inside
    its axis.  Batch calibration's ``searchsorted`` relies on sorted knots."""
    where = f"feature {spec.name!r}"
    top = spec.axis_top
    if isinstance(cal, ContinuousCalibrator):
        knots, outputs = cal.knots, cal.outputs
        if knots.ndim != 1 or len(knots) < 2 or knots.shape != outputs.shape:
            raise DataError(
                f"{where}: {knots.size} knots and {outputs.size} outputs; "
                "need the same number, at least 2"
            )
        _check_finite(f"{where}: knots", knots)
        _check_finite(f"{where}: outputs", outputs)
        if np.any(np.diff(knots) <= 0.0):
            raise DataError(f"{where}: knots are not strictly increasing")
        if np.any(np.diff(outputs) < 0.0):
            raise DataError(f"{where}: outputs decrease")
        if outputs[0] < 0.0 or outputs[-1] > top:
            raise DataError(f"{where}: outputs leave [0, {top:g}]")
    else:
        values = cal.values
        _check_finite(f"{where}: category_values", values)
        if np.any(values < 0.0) or np.any(values > top):
            raise DataError(f"{where}: category_values leave [0, {top:g}]")
        position = {c: i for i, c in enumerate(cal.categories)}
        if len(position) != len(cal.categories):
            repeated = next(c for i, c in enumerate(cal.categories) if position[c] != i)
            raise DataError(f"{where}: category_order repeats {repeated!r}")
        other = cal.other_index
        if other is not None and not (type(other) is int and 0 <= other < len(values)):
            raise DataError(f"{where}: other_index {other!r} is out of range")
        for a, b in cal.order_pairs:
            if a not in position or b not in position:
                raise DataError(f"{where}: order pair ({a!r}, {b!r}) names an unknown category")
            if values[position[a]] > values[position[b]]:
                raise DataError(
                    f"{where}: category_values break the order pair ({a!r}, {b!r})"
                )
    value = cal.missing_value
    if spec.missing is MissingPolicy.CALIBRATED:
        if type(value) not in (int, float) or not 0.0 <= value <= spec.size - 1:
            raise DataError(
                f"{where}: missing_value {value!r} is not a number in [0, {spec.size - 1}]"
            )
    elif value is not None:
        # never read under the other policies, so it would save back unchecked
        raise DataError(
            f"{where}: missing_value {value!r} is not null under missing {spec.missing.value!r}"
        )
