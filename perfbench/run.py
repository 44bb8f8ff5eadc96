#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of monolattice.

    python3 perfbench/run.py --workload calib-d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src`` directory and nowhere else.  The workload's input files
are generated from ``--seed`` under ``.perfbench_work/`` at the checkout
root, and the library reads only those files.

One run is a closed loop with one caller: rounds of train -> save -> set-up
(schema, CSV and model loads) -> checks -> batch predict -> single-row
predicts, repeated until ``--seconds`` have passed (at least two rounds).
With ``--trace 0`` the run reports end-to-end metrics; with ``--trace 1``
every round also trains once untraced and then runs traced, and the run
reports per-layer metrics (see NOTES.md).  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
# the keys of workloads.WORKLOADS, repeated because workloads.py imports the
# library, which is found only after the arguments are parsed
WORKLOAD_NAMES = ("calib-d4", "dense-d10", "rank-simplex-d10")

# A shared host can change speed by tens of percent for seconds to minutes at
# a time, which swamps run-to-run comparisons.  Each round therefore times a
# fixed pure-Python reference loop between its phases, and every reported
# time is scaled by REFERENCE_NOMINAL_S / (mean reference time of the run):
# seconds on a host that runs the loop in REFERENCE_NOMINAL_S.  Set-up is
# short enough that the host's speed rarely changes within it, so set-up
# times use the two reference times around their round's set-ups instead.
# The unscaled values are printed alongside.
REFERENCE_NOMINAL_S = 0.0025


def _reference_work() -> float:
    total = 0.0
    table: dict[int, int] = {}
    values = [0.5 * i for i in range(64)]
    for i in range(10_000):
        j = i & 63
        total += values[j] * (1.0 - values[(j * 7) & 63]) / (1.0 + j)
        table[j] = table.get(j, 0) + 1
    return total


# predict and predict_row may sum the same vertex terms in a different order;
# float64 rounding over at most 2^10 terms stays far below this
PREDICT_RTOL = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "predict_row_p50_us": "us",
    "predict_row_p90_us": "us",
    "holdout_objective": "loss",
    "peak_rss_mb": "MB",
}

# span name -> fields reported, each as metric "<span name>.<field>"
SPAN_METRICS = {
    "interpolation.evaluate_with_gradients": ("calls", "s"),
    "interpolation.interpolation_weights": ("calls", "s"),
    "interpolation.evaluate": ("calls", "s"),
    "lattice.locate_cell": ("calls", "s"),
    "monotonicity.project_update.theta": ("calls", "s"),
    "monotonicity.project_update.alpha": ("calls", "s"),
    "calibrators.calibrate_row": ("calls", "s"),
    "calibrators.row_gradients": ("calls", "s"),
    "regularizers.regularizer_gradient": ("calls",),
    "regularizers.sample_regularizer_subgradient": ("calls",),
    "training.sgd_step": ("calls", "self_s"),
    "training.clone": ("calls",),
}
# metric -> (span name, field)
SPAN_TOTALS = {
    "training.loss_gradients.self_s": ("training.loss_gradients", "self_s"),
    "training.prepare_state_s": ("training.prepare_state", "s"),
    "calibrators.fit_s": ("calibrators.fit", "s"),
    "data.load_s": ("data.load", "s"),
    "model.save_s": ("model.save", "s"),
    "model.load_s": ("model.load", "s"),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import monolattice
    except ImportError as e:
        _fail(f"cannot import monolattice from {src}: {e}")
    if Path(monolattice.__file__).resolve().parent != src / "monolattice":
        _fail(f"monolattice was imported from {monolattice.__file__}, not {src}")


class Run:
    """Counts operations and failures; a failed operation is not retried."""

    FAILED = object()

    def __init__(self) -> None:
        from monolattice import TrainingError

        self.attempted = 0
        self.failed = 0
        self._errors = (TrainingError, ValueError)

    def op(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self._errors as e:
            self.failed += 1
            print(f"failed: {what}: {type(e).__name__}: {e}", file=sys.stderr)
            return Run.FAILED

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _load_inputs(inputs):
    """Schema, training set, held-out set, and the held-out set as plain rows."""
    from monolattice import load_dataset, load_pair_dataset, load_schema
    from workloads import PAIR_ID

    specs, label = load_schema(inputs.schema)
    if inputs.pairs:
        train = load_pair_dataset(inputs.train, specs, pair_id_column=PAIR_ID, label_column=label)
        held = load_pair_dataset(inputs.holdout, specs, pair_id_column=PAIR_ID, label_column=label)
        rows = load_dataset(inputs.holdout, specs, label, require_labels=True)
    else:
        train = load_dataset(inputs.train, specs, label, require_labels=True)
        held = rows = load_dataset(inputs.holdout, specs, label, require_labels=True)
    return specs, train, held, rows


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        from dataclasses import replace

        import workloads

        self.workload = workload
        self.config = replace(workload.config, seed=seed)
        self.seconds = seconds
        self.run = Run()
        work = WORK / f"{workload.name}-seed{seed}"
        self.inputs = workloads.generate(workload, seed, work)
        self.model_path = work / "model.json"
        self.trace_path = work / "trace.jsonl"
        self.samples = workloads.gradient_samples(workload.n_train, self.config)
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
        self.first_bytes = None
        self.objective = None
        self.rounds: list[dict] = []  # raw measurements of each completed round
        self.reference_s: list[float] = []

    def _time_reference(self) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self.reference_s.append(time.perf_counter() - t0)

    def host_scale(self) -> float:
        return REFERENCE_NOMINAL_S / _mean(self.reference_s) if self.reference_s else 1.0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _train(self, specs, data):
        from monolattice import parallel_train

        t0 = time.perf_counter()
        model = self.run.op("train", parallel_train, data, specs, self.config)
        return model, time.perf_counter() - t0

    def one_round(self, specs, data) -> tuple:
        """Train, save, set up again, check, predict; return the fresh data.

        A round whose training, save or set-up fails ends early and records
        nothing.
        """
        run, w = self.run, self.workload
        measured: dict = {"setup_s": []}
        if self.tracer:
            model, measured["untraced_train_s"] = self._train(specs, data)
            if model is Run.FAILED:
                return specs, data
            self.tracer.reset()
        self._time_reference()
        with self.tracer.patched() if self.tracer else contextlib.nullcontext():
            with self._span("phase.train"):
                model, measured["train_s"] = self._train(specs, data)
            if model is Run.FAILED:
                return specs, data
            with self._span("model.save"):
                saved = run.op("save", model.save, self.model_path)
            if saved is Run.FAILED:
                return specs, data
            blob = self.model_path.read_bytes()
            if self.first_bytes is None:
                self.first_bytes = blob
            run.check("same seed gives byte-identical model files", blob == self.first_bytes)

            self._time_reference()
            for _ in range(1 if self.tracer else 3):
                t0 = time.perf_counter()
                with self._span("data.load"):
                    loaded = run.op("data load", _load_inputs, self.inputs)
                with self._span("model.load"):
                    loaded_model = run.op("model load", _load_model, self.model_path)
                if loaded is Run.FAILED or loaded_model is Run.FAILED:
                    return specs, data
                measured["setup_s"].append(time.perf_counter() - t0)
            specs, data, held, rows = loaded
            self._check_model(model, loaded_model)

            self._time_reference()
            measured["setup_reference_s"] = (self.reference_s[-2] + self.reference_s[-1]) / 2
            with self._span("phase.predict"):
                t0 = time.perf_counter()
                batch = run.op("predict", loaded_model.predict, rows)
                measured["predict_s"] = time.perf_counter() - t0
            singles, row_us = [], []
            with self._span("phase.predict_row"):
                for i in range(min(w.predict_row_calls, rows.num_rows)):
                    row = rows.row(i)
                    t0 = time.perf_counter_ns()
                    z = run.op("predict_row", loaded_model.predict_row, row)
                    row_us.append((time.perf_counter_ns() - t0) * 1e-3)
                    singles.append(z)
        self._time_reference()
        if batch is not Run.FAILED:
            run.check("predict equals predict_row", _same_scores(batch, singles))
        row_us.sort()
        measured["predict_rows"] = rows.num_rows
        measured["row_p50_us"] = _percentile(row_us, 0.5)
        measured["row_p90_us"] = _percentile(row_us, 0.9)
        measured["row_calls"] = len(row_us)
        if self.objective is None:
            from monolattice import model_objective

            value = run.op("objective", model_objective, loaded_model, held, self.config)
            if value is not Run.FAILED:
                self.objective = value
        if self.tracer:
            measured["layers"] = self._layer_metrics(measured)
        self.rounds.append(measured)
        return specs, data

    def _check_model(self, model, loaded) -> None:
        from monolattice import max_infeasibility

        run = self.run
        run.check("Model.violations(0.0) is empty", not loaded.violations(0.0))
        cal = loaded.calibrators
        run.check(
            "calibrator parameters feasible",
            max_infeasibility(cal.alpha(), cal.constraints()) == 0,
        )
        run.check("save -> load round trip", loaded.to_json() == model.to_json())

    def _layer_metrics(self, measured: dict) -> dict:
        tracer = self.tracer
        summary = tracer.summary()
        out = {}
        for name, fields in SPAN_METRICS.items():
            entry = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for f in fields:
                out[f"{name}.{f}"] = entry[f]
        for metric, (name, f) in SPAN_TOTALS.items():
            out[metric] = summary.get(name, {f: 0.0})[f]
        out["model.bytes"] = len(self.first_bytes)
        calls = tracer.counts["project_update.calls"]
        out["monotonicity.active_rows"] = (
            tracer.counts["project_update.active_rows"] / calls if calls else 0.0
        )
        out["interpolation.vertices_touched"] = tracer.counts["vertices_touched"]
        train_s, per_layer = tracer.layer_self_s("phase.train")
        for layer, s in per_layer.items():
            out[f"train_share.{layer}"] = s / train_s
        out["trace_overhead"] = train_s / measured["untraced_train_s"]
        return out

    def measure(self) -> None:
        loaded = self.run.op("data load", _load_inputs, self.inputs)
        if loaded is Run.FAILED:
            return
        specs, data = loaded[0], loaded[1]
        deadline = time.perf_counter() + self.seconds
        attempts = 0
        while attempts < 2 or time.perf_counter() < deadline:
            specs, data = self.one_round(specs, data)
            attempts += 1
        if self.tracer and self.tracer.spans:
            self.tracer.dump(self.trace_path)

    def metrics(self, normalized: bool = True) -> dict:
        rounds = self.rounds
        scale = self.host_scale() if normalized else 1.0
        if self.tracer:
            keys = rounds[0]["layers"].keys() if rounds else []
            values = {k: statistics.median(r["layers"][k] for r in rounds) for k in keys}
            return {
                k: {"value": v * scale if _layer_unit(k) == "s" else v, "unit": _layer_unit(k)}
                for k, v in values.items()
            }
        # Throughputs are total work over total time, and latency percentiles
        # are taken per round and averaged, so the run-level value moves
        # smoothly with the share of the run the host spent in a slow phase.
        train_s = scale * sum(r["train_s"] for r in rounds)
        predict_s = scale * sum(r["predict_s"] for r in rounds)
        setup_s = [
            s * (REFERENCE_NOMINAL_S / r["setup_reference_s"] if normalized else 1.0)
            for r in rounds
            for s in r["setup_s"]
        ]
        values = {
            "setup_s": _median(setup_s),
            "train_samples_per_s": self.samples * len(rounds) / train_s if rounds else 0.0,
            "predict_rows_per_s": (
                sum(r["predict_rows"] for r in rounds) / predict_s if rounds else 0.0
            ),
            "predict_row_p50_us": scale * _mean(r["row_p50_us"] for r in rounds),
            "predict_row_p90_us": scale * _mean(r["row_p90_us"] for r in rounds),
            "holdout_objective": self.objective if self.objective is not None else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def report(self) -> dict:
        metrics = self.metrics()
        raw = self.metrics(normalized=False)
        run, rounds = self.run, self.rounds
        print(f"workload {self.workload.name}: {self.workload.why}")
        print(
            f"  rounds={len(rounds)} train_samples/round={self.samples}"
            f" setups={sum(len(r['setup_s']) for r in rounds)}"
            f" predict_row_calls={sum(r['row_calls'] for r in rounds)}"
            f" host_scale={self.host_scale():.3f}"
        )
        for name, m in metrics.items():
            unscaled = f"  (unscaled {raw[name]['value']:.6g})" if m != raw[name] else ""
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}{unscaled}")
        if self.tracer and self.tracer.spans:
            print("  spans of the last traced round, by self time:")
            summary = sorted(self.tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
            for name, e in summary:
                print(f"    {name:46s} calls={e['calls']:<8d} s={e['s']:.4f} self_s={e['self_s']:.4f}")
        fraction = run.failed / run.attempted if run.attempted else 1.0
        print(f"  {'failed_fraction':48s} {fraction:.6g} ({run.failed}/{run.attempted} operations)")
        return {
            "correct": run.failed == 0 and bool(self.rounds),
            "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": metrics,
        }


def _load_model(path):
    from monolattice import Model

    return Model.load(path)


def _same_scores(batch, singles) -> bool:
    return all(
        b is not Run.FAILED and abs(a - b) <= PREDICT_RTOL * max(1.0, abs(b))
        for a, b in zip(batch, singles)
    )


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _percentile(ordered, q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.startswith("train_share.") or metric == "trace_overhead":
        return "ratio"
    if metric == "model.bytes":
        return "bytes"
    return "count"


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    _import_library()
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    bench.measure()
    print(json.dumps(bench.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
