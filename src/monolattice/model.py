"""Trained model container and its JSON file format.

The file stores the feature specs, the fitted calibrators, the lattice sizes
and the parameter vector (stride order).  Floats are written with Python's
shortest round-trip representation, so saving and loading reproduces every
parameter bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibrators import (
    CalibratorSet,
    CategoricalCalibrator,
    ContinuousCalibrator,
    DataError,
    FeatureKind,
    FeatureSpec,
    MissingPolicy,
    missing_vertex_dims,
)
from .interpolation import InterpolationKind, evaluate
from .lattice import LatticeShape
from .monotonicity import (
    build_constraints,
    describe_violations,
)
from .training import Loss

FORMAT_NAME = "monolattice-model"
FORMAT_VERSION = 1


@dataclass
class Model:
    specs: list[FeatureSpec]
    shape: LatticeShape
    theta: np.ndarray
    calibrators: CalibratorSet
    kind: InterpolationKind = InterpolationKind.MULTILINEAR
    loss: Loss = Loss.SQUARED
    metadata: dict = field(default_factory=dict)
    _theta_cache: tuple | None = None  # (theta object, its values as a list)

    # ---- prediction

    def predict_row(self, row, kind: InterpolationKind | None = None) -> float:
        if self._theta_cache is None or self._theta_cache[0] is not self.theta:
            self._theta_cache = (self.theta, np.asarray(self.theta, dtype=float).tolist())
        x = self.calibrators.calibrate_row(row)
        return evaluate(self._theta_cache[1], self.shape, x, kind or self.kind)

    def predict(self, data, kind: InterpolationKind | None = None) -> np.ndarray:
        return np.array(
            [self.predict_row(data.row(i), kind) for i in range(data.num_rows)]
        )

    # ---- feasibility

    def constraints(self):
        return build_constraints(
            self.shape,
            tuple(s.monotone for s in self.specs),
            missing_vertex_dims(self.specs),
        )

    def violations(self, tolerance: float = 1e-12):
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
        try:
            return cls._from_doc(json.loads(text))
        except KeyError as e:
            raise DataError(f"model file has no {e.args[0]!r} entry") from None

    @classmethod
    def _from_doc(cls, doc: dict) -> "Model":
        if doc.get("format") != FORMAT_NAME:
            raise ValueError(f"not a {FORMAT_NAME} file")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')!r}")
        specs = []
        cals = []
        for entry in doc["features"]:
            spec = FeatureSpec(
                name=entry["name"],
                kind=FeatureKind(entry["kind"]),
                size=int(entry["size"]),
                keypoints=int(entry["keypoints"]),
                bounds=None if entry["bounds"] is None else tuple(entry["bounds"]),
                monotone=entry["monotone"],
                missing=MissingPolicy(entry["missing"]),
                categories=entry["categories"],
                order_pairs=[tuple(p) for p in entry["order"]],
                allow_unseen=bool(entry["allow_unseen"]),
            )
            state = entry["calibrator"]
            if spec.kind is FeatureKind.CONTINUOUS:
                cal = ContinuousCalibrator(
                    knots=np.asarray(state["knots"], dtype=float),
                    outputs=np.asarray(state["outputs"], dtype=float),
                    axis_top=spec.axis_top,
                    missing=spec.missing,
                    missing_value=state["missing_value"],
                )
            else:
                order = state["category_order"]
                cal = CategoricalCalibrator(
                    categories=list(order),
                    values=np.array([state["category_values"][c] for c in order]),
                    axis_top=spec.axis_top,
                    missing=spec.missing,
                    missing_value=state["missing_value"],
                    other_index=state["other_index"],
                    order_pairs=[tuple(p) for p in entry["order"]],
                )
            if spec.missing is MissingPolicy.VERTEX:
                cal.missing_vertex = float(spec.size - 1)
            specs.append(spec)
            cals.append(cal)
        shape = LatticeShape(doc["lattice"])
        theta = np.asarray(doc["theta"], dtype=float)
        if theta.shape != (shape.num_parameters,):
            raise ValueError(
                f"theta has {theta.shape[0]} entries, lattice needs {shape.num_parameters}"
            )
        return cls(
            specs=specs,
            shape=shape,
            theta=theta,
            calibrators=CalibratorSet(specs, cals),
            kind=InterpolationKind(doc["interpolation"]),
            loss=Loss(doc["loss"]),
            metadata=doc.get("metadata", {}),
        )

    @classmethod
    def load(cls, path) -> "Model":
        return cls.from_json(Path(path).read_text())
