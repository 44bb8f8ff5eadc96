"""Span recorder that times calls into the library from outside it.

``Tracer.patched()`` replaces module attributes of the library with wrappers
for the duration of a ``with`` block and restores them afterwards.  Each
wrapped call records one span (name, start, end, parent); spans stay in
memory until ``summary()`` folds them into per-name totals or ``dump()``
writes them out.  Self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter_ns

import monolattice.calibrators as calibrators
import monolattice.interpolation as interpolation
import monolattice.model as model
import monolattice.training as training

LAYERS = ("interpolation", "lattice", "calibrators", "monotonicity", "regularizers", "training")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._state = None  # TrainerState of the sgd_step in progress

    # ---- recording

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0, 0, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # ---- patching

    def _sgd_step(self, fn):
        def traced(state, minibatch, rng):
            self._state = state
            with self.span("training.sgd_step"):
                return fn(state, minibatch, rng)

        return traced

    def _project_update(self, fn):
        def traced(theta, step, constraints, *, return_active=False):
            which = "theta" if constraints is self._state.theta_constraints else "alpha"
            with self.span(f"monotonicity.project_update.{which}"):
                out, active = fn(theta, step, constraints, return_active=True)
            self.counts["project_update.calls"] += 1
            self.counts["project_update.active_rows"] += len(active)
            return (out, active) if return_active else out

        return traced

    def _counting_weights(self, name: str, fn, pick):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts["vertices_touched"] += len(pick(out).indices)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the library's calls between its modules through the tracer."""
        cal = calibrators.CalibratorSet
        fit = cal.__dict__["fit"].__func__
        patches = [
            (training, "prepare_state", self.wrap("training.prepare_state", training.prepare_state)),
            (training, "sgd_step", self._sgd_step(training.sgd_step)),
            (training, "loss_gradients", self.wrap("training.loss_gradients", training.loss_gradients)),
            (training, "project_update", self._project_update(training.project_update)),
            (training, "regularizer_gradient",
             self.wrap("regularizers.regularizer_gradient", training.regularizer_gradient)),
            (training, "sample_regularizer_subgradient",
             self.wrap("regularizers.sample_regularizer_subgradient",
                       training.sample_regularizer_subgradient)),
            (training, "evaluate_with_gradients",
             self._counting_weights("interpolation.evaluate_with_gradients",
                                    training.evaluate_with_gradients, lambda out: out[1])),
            (training, "interpolation_weights",
             self._counting_weights("interpolation.interpolation_weights",
                                    training.interpolation_weights, lambda out: out)),
            (training, "locate_cell", self.wrap("lattice.locate_cell", training.locate_cell)),
            (training.TrainerState, "clone", self.wrap("training.clone", training.TrainerState.clone)),
            (model, "evaluate", self.wrap("interpolation.evaluate", model.evaluate)),
            (interpolation, "interpolation_weights",
             self._counting_weights("interpolation.interpolation_weights",
                                    interpolation.interpolation_weights, lambda out: out)),
            (interpolation, "locate_cell", self.wrap("lattice.locate_cell", interpolation.locate_cell)),
            (cal, "fit", classmethod(self.wrap("calibrators.fit", fit))),
            (cal, "calibrate_row", self.wrap("calibrators.calibrate_row", cal.calibrate_row)),
            (cal, "row_gradients", self.wrap("calibrators.row_gradients", cal.row_gradients)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self._state = None

    # ---- reading

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[i]) * 1e-9
        return out

    def layer_self_s(self, root: str) -> tuple[float, dict[str, float]]:
        """Duration of the first span named ``root`` and the self time of its
        descendants, summed per layer (the span name's first component)."""
        idx = next(i for i, s in enumerate(self.spans) if s[0] == root)
        inside = {idx}
        child_ns = defaultdict(int)
        for i in range(idx + 1, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if parent in inside:
                inside.add(i)
                child_ns[parent] += end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i in inside - {idx}:
            name, start, end, _ = self.spans[i]
            layer = name.split(".", 1)[0]
            per_layer[layer] += (end - start - child_ns[i]) * 1e-9
        name, start, end, _ = self.spans[idx]
        per_layer["training"] += (end - start - child_ns[idx]) * 1e-9
        return (end - start) * 1e-9, per_layer

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
